//! GF(2^8) arithmetic with compile-time tables.
//!
//! The field is GF(256) with the AES-adjacent primitive polynomial
//! x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the conventional choice for
//! Reed-Solomon storage codes. All tables are built by `const fn` at
//! compile time, so every operation is a pure array lookup: no lazy
//! initialisation, no locks, identical results on every platform.

/// The primitive polynomial (x^8 + x^4 + x^3 + x^2 + 1), reduced.
const POLY: u16 = 0x11d;

const fn build_exp_log() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        // Doubled table: exp[i + 255] == exp[i] lets mul() skip the
        // `mod 255` reduction on the summed logs.
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    exp[510] = exp[0];
    exp[511] = exp[1];
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_exp_log();

/// `EXP[i]` = generator^i; doubled so `EXP[log a + log b]` needs no
/// modular reduction.
pub const EXP: [u8; 512] = TABLES.0;

/// `LOG[x]` = discrete log of `x` (undefined at 0, stored as 0).
pub const LOG: [u8; 256] = TABLES.1;

const fn build_mul() -> [[u8; 256]; 256] {
    let mut t = [[0u8; 256]; 256];
    let mut a = 1;
    while a < 256 {
        let mut b = 1;
        while b < 256 {
            t[a][b] = EXP[LOG[a] as usize + LOG[b] as usize];
            b += 1;
        }
        a += 1;
    }
    t
}

const fn build_inv() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut a = 1;
    while a < 256 {
        t[a] = EXP[255 - LOG[a] as usize];
        a += 1;
    }
    t
}

/// Full 256×256 product table; `MUL[a][b] == a · b` in GF(256). 64 KiB
/// keeps the hot encode/decode kernels down to one load per byte.
pub static MUL: [[u8; 256]; 256] = build_mul();

const fn build_nibble_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut v = 0;
        while v < 16 {
            lo[c][v] = MUL[c][v];
            hi[c][v] = MUL[c][v << 4];
            v += 1;
        }
        c += 1;
    }
    (lo, hi)
}

const NIBBLE_TABLES: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_nibble_tables();

/// Nibble-split product tables: `NIB_LO[c][v] == c · v` for the low
/// nibble `v` of an input byte, `NIB_HI[c][v] == c · (v << 4)` for the
/// high nibble. Because multiplication by `c` is GF(2)-linear,
/// `c · x == NIB_LO[c][x & 15] ^ NIB_HI[c][x >> 4]` — and a 16-entry
/// table fits a SIMD register, so `pshufb` evaluates 16/32 lanes per
/// instruction. 8 KiB total for all multipliers.
pub static NIB_LO: [[u8; 16]; 256] = NIBBLE_TABLES.0;
/// High-nibble halves of the nibble-split tables; see [`NIB_LO`].
pub static NIB_HI: [[u8; 16]; 256] = NIBBLE_TABLES.1;

/// `INV[a]` = multiplicative inverse of `a`; `INV[0] == 0` (unused).
pub static INV: [u8; 256] = build_inv();

/// Field addition (== subtraction): bytewise XOR.
#[inline]
#[must_use]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via the product table.
#[inline]
#[must_use]
pub fn mul(a: u8, b: u8) -> u8 {
    MUL[a as usize][b as usize]
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics in debug builds when `a == 0` (zero has no inverse).
#[inline]
#[must_use]
pub fn inv(a: u8) -> u8 {
    debug_assert!(a != 0, "gf::inv(0) is undefined");
    INV[a as usize]
}

/// The low bit of every byte lane in a 64-bit word.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// Slices shorter than this stay on the scalar table kernels: the wide
/// paths pay a table-broadcast setup that only amortises over a few
/// words.
const WIDE_CUTOFF: usize = 32;

/// SIMD nibble-table kernels (x86-64). `pshufb` performs sixteen (or,
/// with AVX2, thirty-two) 16-entry table lookups per instruction, which
/// turns the nibble-split decomposition `c·x = NIB_LO[c][x&15] ^
/// NIB_HI[c][x>>4]` into two shuffles and a XOR per register of input.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{NIB_HI, NIB_LO};
    use core::arch::x86_64::*;

    /// `dst[i] ^= c · src[i]` (`ACC = true`) or `dst[i] = c · src[i]`
    /// (`ACC = false`) over 32-byte blocks; the sub-block tail is left
    /// to the caller. Returns the number of bytes processed.
    ///
    /// # Safety
    /// Callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_slice_avx2<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) -> usize {
        let tl = _mm256_broadcastsi128_si256(_mm_loadu_si128(NIB_LO[c as usize].as_ptr().cast()));
        let th = _mm256_broadcastsi128_si256(_mm_loadu_si128(NIB_HI[c as usize].as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0f);
        let blocks = src.len() / 32;
        for b in 0..blocks {
            let s = src.as_ptr().add(b * 32).cast();
            let d = dst.as_mut_ptr().add(b * 32).cast();
            let x = _mm256_loadu_si256(s);
            let lo = _mm256_and_si256(x, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
            let mut p = _mm256_xor_si256(_mm256_shuffle_epi8(tl, lo), _mm256_shuffle_epi8(th, hi));
            if ACC {
                p = _mm256_xor_si256(p, _mm256_loadu_si256(d));
            }
            _mm256_storeu_si256(d, p);
        }
        blocks * 32
    }

    /// The SSE/SSSE3 variant of [`mul_slice_avx2`]: 16-byte blocks.
    ///
    /// # Safety
    /// Callers must have verified SSSE3 support at runtime.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_slice_ssse3<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) -> usize {
        let tl = _mm_loadu_si128(NIB_LO[c as usize].as_ptr().cast());
        let th = _mm_loadu_si128(NIB_HI[c as usize].as_ptr().cast());
        let mask = _mm_set1_epi8(0x0f);
        let blocks = src.len() / 16;
        for b in 0..blocks {
            let s = src.as_ptr().add(b * 16).cast();
            let d = dst.as_mut_ptr().add(b * 16).cast();
            let x = _mm_loadu_si128(s);
            let lo = _mm_and_si128(x, mask);
            let hi = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
            let mut p = _mm_xor_si128(_mm_shuffle_epi8(tl, lo), _mm_shuffle_epi8(th, hi));
            if ACC {
                p = _mm_xor_si128(p, _mm_loadu_si128(d));
            }
            _mm_storeu_si128(d, p);
        }
        blocks * 16
    }
}

/// Nibble-split bit-column table for a fixed multiplier `c`: entry `j`
/// holds `c · 2^j` broadcast-ready as a `u64`. Entries `0..4` cover the
/// low nibble of an input byte, `4..8` the high nibble — multiplication
/// by `c` is GF(2)-linear, so `c · x` is the XOR of the entries whose
/// bit is set in `x`, and the split means each 16-value nibble table is
/// never materialised: four columns reconstruct it on the fly.
#[inline]
fn bit_columns(c: u8) -> [u64; 8] {
    let row = &MUL[c as usize];
    let mut cols = [0u64; 8];
    let mut j = 0;
    while j < 8 {
        cols[j] = row[1usize << j] as u64;
        j += 1;
    }
    cols
}

/// Multiplies all 8 byte lanes of `w` by the multiplier whose bit
/// columns are `cols`, 64 bits at a time.
///
/// For each bit plane `j`, `(w >> j) & LANE_LSB` exposes bit `j` of
/// every lane as a 0/1 byte; multiplying that mask by the column value
/// `c · 2^j` (< 256, so lanes never carry into each other) deposits the
/// column into exactly the lanes whose bit was set. XOR-summing the
/// eight planes is field addition per lane.
#[inline]
fn mul_word(cols: &[u64; 8], w: u64) -> u64 {
    // Two accumulators halve the XOR dependency chain (low nibble in
    // `a`, high nibble in `b`).
    let mut a = (w & LANE_LSB).wrapping_mul(cols[0]);
    a ^= ((w >> 1) & LANE_LSB).wrapping_mul(cols[1]);
    a ^= ((w >> 2) & LANE_LSB).wrapping_mul(cols[2]);
    a ^= ((w >> 3) & LANE_LSB).wrapping_mul(cols[3]);
    let mut b = ((w >> 4) & LANE_LSB).wrapping_mul(cols[4]);
    b ^= ((w >> 5) & LANE_LSB).wrapping_mul(cols[5]);
    b ^= ((w >> 6) & LANE_LSB).wrapping_mul(cols[6]);
    b ^= ((w >> 7) & LANE_LSB).wrapping_mul(cols[7]);
    a ^ b
}

/// Runs the widest available kernel over the aligned prefix of
/// `src`/`dst` and returns how many bytes it handled; the caller
/// finishes the tail with the product table. `ACC` selects
/// multiply-accumulate (`^=`) over plain scale (`=`).
#[inline]
fn wide_prefix<const ACC: bool>(c: u8, src: &[u8], dst: &mut [u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified.
            return unsafe { x86::mul_slice_avx2::<ACC>(c, src, dst) };
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: SSSE3 presence was just verified.
            return unsafe { x86::mul_slice_ssse3::<ACC>(c, src, dst) };
        }
    }
    // Portable fallback: 64-bit SWAR over the bit columns.
    let cols = bit_columns(c);
    let words = src.len() / 8;
    for i in 0..words {
        let s: [u8; 8] = src[i * 8..i * 8 + 8].try_into().expect("8-byte chunk");
        let mut w = mul_word(&cols, u64::from_le_bytes(s));
        if ACC {
            let d: [u8; 8] = dst[i * 8..i * 8 + 8].try_into().expect("8-byte chunk");
            w ^= u64::from_le_bytes(d);
        }
        dst[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    words * 8
}

/// `dst[i] = c · src[i]` — allocation-free scale kernel. Long slices
/// run on the widest nibble-split path the CPU offers (AVX2 / SSSE3
/// `pshufb` over the 16-entry nibble tables, 64-bit SWAR elsewhere);
/// short slices and tails use the product table.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
    if c == 0 {
        dst.fill(0);
        return;
    }
    if c == 1 {
        dst.copy_from_slice(src);
        return;
    }
    let mut done = 0;
    if src.len() >= WIDE_CUTOFF {
        done = wide_prefix::<false>(c, src, dst);
    }
    let row = &MUL[c as usize];
    for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = row[*s as usize];
    }
}

/// `dst[i] ^= c · src[i]` — the multiply-accumulate kernel that both
/// encode and decode reduce to. Long slices run on the widest
/// nibble-split path the CPU offers (AVX2 / SSSE3 `pshufb` over the
/// 16-entry nibble tables, 64-bit SWAR elsewhere); short slices and
/// tails fall back to the product table, one hot row per call.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_acc_slice length mismatch");
    if c == 0 {
        return;
    }
    let mut done = 0;
    if src.len() >= WIDE_CUTOFF {
        done = wide_prefix::<true>(c, src, dst);
    }
    let row = &MUL[c as usize];
    for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d ^= row[*s as usize];
    }
}

/// `mul_add_slice` is the conventional erasure-coding name for the
/// multiply-accumulate kernel; alias of [`mul_acc_slice`].
#[inline]
pub fn mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    mul_acc_slice(c, src, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_agree_with_direct_multiplication() {
        // Russian-peasant reference multiplication.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "mul({a},{b})");
            }
        }
    }

    #[test]
    fn inverse_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn kernels_match_scalar_ops() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x53, 0xff] {
            let mut dst = vec![0u8; 256];
            mul_slice(c, &src, &mut dst);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(dst[i], mul(c, s));
            }
            let mut acc = src.clone();
            mul_acc_slice(c, &src, &mut acc);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(acc[i], s ^ mul(c, s));
            }
        }
    }

    #[test]
    fn wide_kernels_match_table_kernels_for_every_multiplier() {
        // Length 259 exercises the u64 fast path plus a 3-byte tail;
        // the pattern covers every byte value.
        let src: Vec<u8> = (0..259u32)
            .map(|i| (i.wrapping_mul(31) >> 2) as u8)
            .collect();
        for c in 0..=255u8 {
            let mut wide = vec![0u8; src.len()];
            mul_slice(c, &src, &mut wide);
            let mut scalar = vec![0u8; src.len()];
            for (d, s) in scalar.iter_mut().zip(&src) {
                *d = mul(c, *s);
            }
            assert_eq!(wide, scalar, "mul_slice c={c}");

            let mut wide_acc = src.clone();
            mul_acc_slice(c, &src, &mut wide_acc);
            let mut scalar_acc = src.clone();
            for (d, s) in scalar_acc.iter_mut().zip(&src) {
                *d ^= mul(c, *s);
            }
            assert_eq!(wide_acc, scalar_acc, "mul_acc_slice c={c}");

            let mut alias = src.clone();
            mul_add_slice(c, &src, &mut alias);
            assert_eq!(alias, wide_acc, "mul_add_slice c={c}");
        }
    }

    #[test]
    fn short_slices_stay_below_the_wide_cutoff() {
        // Every length from empty to past the cutoff, so the scalar
        // fallback, the word loop, and the tail all get hit.
        for len in 0..=(WIDE_CUTOFF + 9) {
            let src: Vec<u8> = (0..len as u32).map(|i| (i * 7 + 3) as u8).collect();
            for c in [0u8, 1, 0x1d, 0xb7] {
                let mut dst = vec![0xAAu8; len];
                mul_slice(c, &src, &mut dst);
                let mut acc = vec![0x55u8; len];
                mul_acc_slice(c, &src, &mut acc);
                for i in 0..len {
                    assert_eq!(dst[i], mul(c, src[i]), "len={len} c={c} i={i}");
                    assert_eq!(acc[i], 0x55 ^ mul(c, src[i]), "len={len} c={c} i={i}");
                }
            }
        }
    }
}
