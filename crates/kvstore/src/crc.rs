//! CRC-32 (IEEE 802.3) checksums for WAL frames, segments and — via
//! the dataserver — erasure-coded fragment frames.
//!
//! Two kernels compute the same function; [`crc32`] picks one per call.
//!
//! * **Carry-less-multiply fold** (x86-64 with PCLMULQDQ, detected at
//!   run time): Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). Four
//!   128-bit lanes are each multiplied forward by 512 bits and XORed
//!   with the next 64 bytes, so a round costs eight independent
//!   multiplies and no table loads; the lanes then fold into one, that
//!   folds down to 64 bits, and a Barrett reduction leaves the 32-bit
//!   state. It takes every input on a host that has the instruction;
//!   under 64 bytes there is nothing to fold and the whole input goes to
//!   slicing-by-16, which also takes the sub-16-byte tail.
//! * **Slicing-by-16**, Kounavis & Berry's construction ("A Systematic
//!   Approach to Building High Performance Software-Based CRC
//!   Generators") carried to sixteen tables: each round reads two
//!   little-endian words and makes sixteen independent table lookups,
//!   so the dependent chain through the running state is one XOR tree
//!   per 16 input bytes instead of one per byte. Plain safe Rust; it
//!   takes what the fold leaves (inputs under 64 bytes and the tail)
//!   and everything on other targets.
//!
//! On a 256 KiB fragment the fold runs about ten times as fast as
//! slicing-by-16 (DESIGN.md §14).

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes consumed per round.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[j][b]` is the state
/// byte `b` leaves after `j` further zero bytes. 16 KiB in all.
static TABLES: [[u32; 256]; SLICES] = make_tables();

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Byte `i` (0 = least significant) of `w`, as a table index.
fn byte(w: u64, i: u32) -> usize {
    ((w >> (8 * i)) & 0xFF) as usize
}

/// Advances the raw (un-inverted) CRC state over `data`, sixteen bytes
/// per round: input byte `i` of a round is looked up in
/// `TABLES[15 - i]`, the state having been folded into bytes 0–3.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, rest) = data.as_chunks::<8>();
    let (rounds, odd_word) = words.as_chunks::<2>();
    for &[lo, hi] in rounds {
        let lo = u64::from_le_bytes(lo) ^ u64::from(state);
        let hi = u64::from_le_bytes(hi);
        state = t[15][byte(lo, 0)]
            ^ t[14][byte(lo, 1)]
            ^ t[13][byte(lo, 2)]
            ^ t[12][byte(lo, 3)]
            ^ t[11][byte(lo, 4)]
            ^ t[10][byte(lo, 5)]
            ^ t[9][byte(lo, 6)]
            ^ t[8][byte(lo, 7)]
            ^ t[7][byte(hi, 0)]
            ^ t[6][byte(hi, 1)]
            ^ t[5][byte(hi, 2)]
            ^ t[4][byte(hi, 3)]
            ^ t[3][byte(hi, 4)]
            ^ t[2][byte(hi, 5)]
            ^ t[1][byte(hi, 6)]
            ^ t[0][byte(hi, 7)];
    }
    for &b in odd_word.as_flattened().iter().chain(rest) {
        state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Computes the CRC-32 (IEEE) checksum of `data`.
///
/// # Example
///
/// ```
/// // The classic check value.
/// assert_eq!(mayflower_kvstore::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: PCLMULQDQ presence was just verified.
        return !unsafe { x86::update(!0, data) };
    }
    !update(!0, data)
}

/// The carry-less-multiply fold (x86-64). Every constant is a power of
/// `x` modulo the IEEE polynomial P, in the bit-reflected form the
/// reflected CRC needs and shifted left by one, as Gopal et al. derive
/// them; `fold_constants_follow_from_the_polynomial` recomputes each.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// `x^(512+32)` and `x^(512-32)` mod P: a lane's low and high
    /// halves carried forward 512 bits, past the other three lanes.
    pub(super) const FOLD_BY_4: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// `x^(128+32)` and `x^(128-32)` mod P: one lane carried forward
    /// 128 bits, onto the next.
    pub(super) const FOLD_BY_1: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// `x^64` mod P: 64 remainder bits down to 32.
    pub(super) const FOLD_64_TO_32: i64 = 0x1_63cd_6124;
    /// P itself, reflected, with its `x^32` term.
    pub(super) const P: i64 = 0x1_DB71_0641;
    /// Barrett's μ = `x^64 / P`, reflected.
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// `acc` carried forward by the distance `k` encodes (low half
    /// times `k`'s low constant, high half times its high one), XORed
    /// onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw CRC state over `data` like `super::update`:
    /// folds every whole 16-byte block, then hands the tail to
    /// slicing-by-16. Under four blocks there is nothing to fold and
    /// all of `data` goes to slicing-by-16.
    ///
    /// # Safety
    /// Callers must have verified PCLMULQDQ support at runtime.
    #[target_feature(enable = "pclmulqdq")]
    pub unsafe fn update(state: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return super::update(state, data);
        };
        let load = |b: &[u8; 16]| _mm_loadu_si128(b.as_ptr().cast());
        // The state enters as the first 32 bits of the message.
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let (rounds, singles) = rest.as_chunks::<4>();
        let k4 = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
        for round in rounds {
            for (lane, b) in lanes.iter_mut().zip(round) {
                *lane = fold(*lane, load(b), k4);
            }
        }
        let k1 = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
        let [a, b, c, d] = lanes;
        let mut x = fold(fold(fold(a, b, k1), c, k1), d, k1);
        for b in singles {
            x = fold(x, load(b), k1);
        }
        // 128 → 64 bits: the low half times `x^(128-32)`, onto the high.
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k1), _mm_srli_si128::<8>(x));
        // 64 → 32 bits, leaving a 64-bit value congruent to the state.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64_TO_32)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: the quotient estimate `(x mod x^32)·μ`, its low 32
        // bits times P, XORed off; the remainder is bits 32..64.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let state = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
        super::update(state, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: one bit at a time, no tables.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// Deterministic filler covering every byte value.
    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    /// A raw-state kernel: `update` or the fold.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// Slicing-by-16, which every target has.
    const SLICING: Kernel = update;

    /// The fold, where this host has it; `None` (with a note) where it
    /// does not, and the fold tests pass vacuously there.
    fn fold() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: PCLMULQDQ presence was just verified.
            return Some(|state, data| unsafe { x86::update(state, data) });
        }
        eprintln!("note: no PCLMULQDQ on this host; the fold kernel is not tested");
        None
    }

    /// A finished checksum from a raw-state kernel.
    fn finish(kernel: Kernel, data: &[u8]) -> u32 {
        !kernel(!0, data)
    }

    /// Block edges a kernel changes path at: the 16-byte round and fold
    /// block, and the fold's 64-byte minimum and four-lane round.
    const EDGES: [usize; 17] = [
        0, 1, 15, 16, 17, 63, 64, 65, 79, 80, 143, 144, 191, 192, 193, 256, 1000,
    ];

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Frames written by the commit before the kernel swap: a changed
    /// polynomial, reflection or init/xor-out would orphan every WAL,
    /// segment and fragment already on disk.
    #[test]
    fn parent_commit_frames_still_verify() {
        // `Wal::append(Put { key: "file/pinned", value: 96 bytes })`:
        // crc32 LE, payload length LE, payload.
        let value: Vec<u8> = (0..96u32)
            .map(|i| (i as u8).wrapping_mul(29).wrapping_add(3))
            .collect();
        let mut payload = vec![0u8];
        payload.extend_from_slice(&11u32.to_le_bytes());
        payload.extend_from_slice(b"file/pinned");
        payload.extend_from_slice(&value);
        assert_eq!(payload.len(), 0x70);
        assert_eq!(crc32(&payload), 0xFEF5_12DD);
        // `put_fragment` of a 300-byte shard: header
        // `MFEC | b004000000000000 | 765eec32`.
        let shard: Vec<u8> = (0..300u32)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect();
        assert_eq!(crc32(&shard), 0x32EC_5E76);
    }

    /// One benchmark-sized shard: a 4+2 fetch of a 1 MiB chunk is
    /// 256 KiB, 16 384 full rounds. The value is the bitwise oracle's,
    /// taken at the commit before the slicing-by-16 kernel, so a kernel
    /// that goes wrong only over many rounds fails here by name.
    #[test]
    fn benchmark_sized_shard_is_pinned() {
        let shard = pattern(256 << 10, 256);
        assert_eq!(crc32(&shard), 0xE469_9E17);
        assert_eq!(bytewise(&shard), 0xE469_9E17);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = pattern(200, 9);
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {i}:{bit} undetected");
            }
        }
    }

    /// Against the oracle for every length 0..=1024 at every start
    /// offset 0..64 of one shared buffer: head and tail handling is
    /// where wide kernels break.
    fn check_every_short_length_at_every_alignment(checksum: impl Fn(&[u8]) -> u32) {
        let buf = pattern(1024 + 64, 1);
        for start in 0..64 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(checksum(data), bytewise(data), "start={start} len={len}");
            }
        }
    }

    #[test]
    fn every_short_length_at_every_alignment() {
        check_every_short_length_at_every_alignment(crc32);
    }

    #[test]
    fn slicing_every_short_length_at_every_alignment() {
        check_every_short_length_at_every_alignment(|data| finish(SLICING, data));
    }

    #[test]
    fn fold_every_short_length_at_every_alignment() {
        let Some(fold) = fold() else { return };
        check_every_short_length_at_every_alignment(|data| finish(fold, data));
    }

    #[test]
    fn slicing_benchmark_sized_shard_is_pinned() {
        assert_eq!(finish(SLICING, &pattern(256 << 10, 256)), 0xE469_9E17);
    }

    #[test]
    fn fold_benchmark_sized_shard_is_pinned() {
        let Some(fold) = fold() else { return };
        assert_eq!(finish(fold, &pattern(256 << 10, 256)), 0xE469_9E17);
    }

    /// `kernel(kernel(s, a), b) == kernel(s, a ++ b)` for every pair of
    /// edge lengths: each side of a split lands below, on and above
    /// every block edge.
    fn check_continuation_across_edges(kernel: Kernel) {
        let buf = pattern(2000, 5);
        for state in [0, !0, 0x1234_5678] {
            for a in EDGES {
                for b in EDGES {
                    let (x, y) = buf[..a + b].split_at(a);
                    assert_eq!(
                        kernel(kernel(state, x), y),
                        kernel(state, &buf[..a + b]),
                        "state={state:#x} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn slicing_continues_across_edges() {
        check_continuation_across_edges(SLICING);
    }

    #[test]
    fn fold_continues_across_edges() {
        let Some(fold) = fold() else { return };
        check_continuation_across_edges(fold);
    }

    /// Recomputes the fold's constants from the polynomial: `x^n mod P`
    /// by shifting, reflected and shifted left one; `P` reflected over
    /// its 33 bits; μ = `x^64 / P` by long division, reflected likewise.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_follow_from_the_polynomial() {
        const P_NORMAL: u64 = 0x1_04C1_1DB7;
        fn x_pow_mod(n: u32) -> u32 {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= P_NORMAL;
                }
            }
            r as u32
        }
        let k = |n: u32| i64::from(x_pow_mod(n).reverse_bits()) << 1;
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        let mut quotient = 0u64;
        let mut rem: u128 = 1 << 64;
        for bit in (0..=32).rev() {
            if rem & (1 << (bit + 32)) != 0 {
                quotient |= 1 << bit;
                rem ^= u128::from(P_NORMAL) << bit;
            }
        }
        assert_eq!(x86::FOLD_BY_4, (k(512 + 32), k(512 - 32)));
        assert_eq!(x86::FOLD_BY_1, (k(128 + 32), k(128 - 32)));
        assert_eq!(x86::FOLD_64_TO_32, k(64));
        assert_eq!(x86::P, reflect33(P_NORMAL));
        assert_eq!(x86::MU, reflect33(quotient));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn long_inputs_match_the_oracle(
            len in 0usize..(300 << 10),
            start in 0usize..64,
            seed in any::<u64>(),
        ) {
            let buf = pattern(start + len, seed);
            let data = &buf[start..];
            let want = bytewise(data);
            prop_assert_eq!(crc32(data), want);
            prop_assert_eq!(finish(SLICING, data), want);
            if let Some(fold) = fold() {
                prop_assert_eq!(finish(fold, data), want);
            }
        }

        /// Continuation at any split of a long input, and with any
        /// starting state.
        #[test]
        fn kernels_continue_at_any_split(
            len in 0usize..(20 << 10),
            cut in any::<u64>(),
            state in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let data = pattern(len, seed);
            let (a, b) = data.split_at((cut % (len as u64 + 1)) as usize);
            for kernel in std::iter::once(SLICING).chain(fold()) {
                prop_assert_eq!(kernel(kernel(state, a), b), kernel(state, &data));
            }
        }
    }
}
