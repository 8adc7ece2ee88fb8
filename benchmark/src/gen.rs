//! Seeded input generators: the only place `--seed` is consumed.
//!
//! Everything here is benchmark-owned (its own RNG, Zipf sampler and
//! byte pattern) so that a change to the program's `simcore::SimRng`
//! or `workload::Zipf` cannot silently change what the `fs_*` and
//! `ctl_rpc` phases ask the program to do. The op lists are pinned by
//! hash in `tests/determinism.rs`.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for one named stream of one seed: phases draw from
    /// separate streams so lengthening one never shifts another.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut state = seed ^ fnv64(stream.as_bytes());
        Rng([
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ])
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is below 2^-40 for every n used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a, used to name RNG streams and to pin op lists.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Zipf over ranks `0..n` with exponent `s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank (0 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// File contents: every byte of every file is a pure function of
/// `(seed, file key, offset)`, so timed ops can check any range and
/// the untimed pass can check all of it without keeping a copy.
///
/// The period is odd and a little over 1 MiB, so consecutive chunks of
/// one file differ and a misplaced chunk, fragment or file shows up.
#[derive(Debug, Clone)]
pub struct Pattern {
    base: Vec<u8>,
}

const PATTERN_LEN: usize = (1 << 20) + 13;

impl Pattern {
    /// Builds the base block for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Pattern {
        let mut rng = Rng::new(seed, "pattern");
        let mut base = Vec::with_capacity(PATTERN_LEN + 8);
        while base.len() < PATTERN_LEN {
            base.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        base.truncate(PATTERN_LEN);
        Pattern { base }
    }

    fn start(key: u64, offset: u64) -> usize {
        let mut k = key;
        let shift = splitmix64(&mut k) % PATTERN_LEN as u64;
        ((shift + offset % PATTERN_LEN as u64) % PATTERN_LEN as u64) as usize
    }

    /// Writes bytes `[offset, offset + out.len())` of file `key`.
    pub fn fill(&self, key: u64, offset: u64, out: &mut [u8]) {
        let mut pos = Pattern::start(key, offset);
        let mut done = 0;
        while done < out.len() {
            let take = (PATTERN_LEN - pos).min(out.len() - done);
            out[done..done + take].copy_from_slice(&self.base[pos..pos + take]);
            done += take;
            pos = (pos + take) % PATTERN_LEN;
        }
    }

    /// Whether `data` equals bytes `[offset, offset + data.len())` of
    /// file `key`.
    #[must_use]
    pub fn matches(&self, key: u64, offset: u64, data: &[u8]) -> bool {
        let mut pos = Pattern::start(key, offset);
        let mut done = 0;
        while done < data.len() {
            let take = (PATTERN_LEN - pos).min(data.len() - done);
            if data[done..done + take] != self.base[pos..pos + take] {
                return false;
            }
            done += take;
            pos = (pos + take) % PATTERN_LEN;
        }
        true
    }

    /// The timed-op check: the length, and the first and last 4 KiB.
    #[must_use]
    pub fn matches_ends(&self, key: u64, offset: u64, data: &[u8], want_len: u64) -> bool {
        if data.len() as u64 != want_len {
            return false;
        }
        let edge = data.len().min(4096);
        let tail = data.len() - edge;
        self.matches(key, offset, &data[..edge])
            && self.matches(key, offset + tail as u64, &data[tail..])
    }
}

/// The content key of generation `generation` of file `index` in
/// family `family` (dataset, append target, log).
#[must_use]
pub fn file_key(family: u8, index: u32, generation: u32) -> u64 {
    (u64::from(family) << 56) | (u64::from(index) << 32) | u64::from(generation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_fill_and_match_agree_across_the_wrap() {
        let p = Pattern::new(7);
        let mut buf = vec![0u8; 3 << 20];
        p.fill(file_key(1, 2, 3), 12345, &mut buf);
        assert!(p.matches(file_key(1, 2, 3), 12345, &buf));
        assert!(p.matches_ends(file_key(1, 2, 3), 12345, &buf, 3 << 20));
        assert!(!p.matches(file_key(1, 2, 4), 12345, &buf));
        assert!(!p.matches(file_key(1, 2, 3), 12346, &buf));
        buf[2 << 20] ^= 1;
        assert!(!p.matches(file_key(1, 2, 3), 12345, &buf));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(4096, 1.1);
        let mut rng = Rng::new(1, "t");
        let mut top = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 4096);
            top += usize::from(r < 64);
        }
        assert!(top > 5_000, "Zipf(1.1) puts most mass on the head: {top}");
    }

    #[test]
    fn streams_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(9, "a").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(9, "a").next_u64(), Rng::new(9, "b").next_u64());
        assert_ne!(Rng::new(9, "a").next_u64(), Rng::new(10, "a").next_u64());
    }
}
