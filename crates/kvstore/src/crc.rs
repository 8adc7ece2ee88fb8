//! CRC-32 (IEEE 802.3) checksums for WAL frames, segments and — via
//! the dataserver — erasure-coded fragment frames.
//!
//! The kernel is slicing-by-4 (Kounavis & Berry, "A Systematic
//! Approach to Building High Performance Software-Based CRC
//! Generators"): four 256-entry tables turn four input bytes into one
//! round of independent lookups, close to three times the speed of the
//! classic byte-at-a-time loop, in plain safe Rust on every target.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes consumed per round.
const SLICES: usize = 4;

/// `TABLES[0]` is the classic byte table; `TABLES[j][b]` is the state
/// byte `b` leaves after `j` further zero bytes.
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

/// Advances the raw (un-inverted) CRC state over `data`, four bytes
/// per round.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut rounds = data.chunks_exact(SLICES);
    for r in &mut rounds {
        let head = u32::from_le_bytes([r[0], r[1], r[2], r[3]]) ^ state;
        state = t[3][(head & 0xFF) as usize]
            ^ t[2][((head >> 8) & 0xFF) as usize]
            ^ t[1][((head >> 16) & 0xFF) as usize]
            ^ t[0][(head >> 24) as usize];
    }
    for &b in rounds.remainder() {
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
    !update(!0, data)
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
    #[test]
    fn every_short_length_at_every_alignment() {
        let buf = pattern(1024 + 64, 1);
        for start in 0..64 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start={start} len={len}");
            }
        }
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
            prop_assert_eq!(crc32(data), bytewise(data));
        }
    }
}
