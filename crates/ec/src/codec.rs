//! The systematic Reed-Solomon codec: `k` data shards, `m` parity
//! shards, any `k` of the `k + m` reconstruct the data.

use crate::gf;
use crate::matrix::Matrix;
use std::fmt;

/// Codec errors. Shard-shape violations are errors rather than panics
/// because the shards arrive from remote dataservers at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcError {
    /// Fewer than `k` shards survive; the stripe is unrecoverable.
    TooFewShards {
        /// Shards present.
        have: usize,
        /// Shards required (`k`).
        need: usize,
    },
    /// The shard vector is not `k + m` long.
    WrongShardCount {
        /// Slots provided.
        have: usize,
        /// Slots expected (`k + m`).
        need: usize,
    },
    /// Present shards disagree on length.
    ShardSizeMismatch,
}

impl fmt::Display for EcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcError::TooFewShards { have, need } => {
                write!(f, "too few shards to reconstruct: have {have}, need {need}")
            }
            EcError::WrongShardCount { have, need } => {
                write!(f, "wrong shard count: have {have}, need {need}")
            }
            EcError::ShardSizeMismatch => write!(f, "present shards differ in length"),
        }
    }
}

impl std::error::Error for EcError {}

/// A `(k, m)` systematic Reed-Solomon codec over GF(2^8).
///
/// Construction is deterministic: the same `(k, m)` always yields the
/// same encode matrix, so fragments written by one process decode in
/// any other.
#[derive(Debug, Clone)]
pub struct Codec {
    k: usize,
    m: usize,
    /// Systematic `(k + m) × k` encode matrix `[I_k; C]`, with a
    /// Cauchy parity block `C` — every square submatrix of a Cauchy
    /// matrix is invertible, so any `k` rows decode.
    enc: Matrix,
}

impl Codec {
    /// Builds a `(k, m)` codec.
    ///
    /// # Panics
    /// Panics when `k == 0`, `m == 0`, or `k + m > 255`.
    #[must_use]
    pub fn new(k: usize, m: usize) -> Codec {
        assert!(k > 0, "k must be positive");
        assert!(m > 0, "m must be positive");
        assert!(k + m <= 255, "k + m must fit in GF(256) minus zero");
        let parity = Matrix::cauchy(m, k);
        let mut enc = Matrix::zero(k + m, k);
        for i in 0..k {
            enc.set(i, i, 1);
        }
        for r in 0..m {
            for c in 0..k {
                enc.set(k + r, c, parity.get(r, c));
            }
        }
        Codec { k, m, enc }
    }

    /// Data shard count.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity shard count.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total shard count `k + m`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.k + self.m
    }

    /// Computes the `m` parity shards from the `k` data shards.
    /// Allocation-free: parity buffers are caller-provided and every
    /// inner step is a [`gf::mul_acc_slice`] over one table row.
    ///
    /// # Panics
    /// Panics when shard counts or lengths disagree.
    pub fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        assert_eq!(data.len(), self.k, "encode expects k data shards");
        assert_eq!(parity.len(), self.m, "encode expects m parity shards");
        for p in parity.iter_mut() {
            assert_eq!(p.len(), data[0].len(), "shard length mismatch");
        }
        for (r, p) in parity.iter_mut().enumerate() {
            let row = self.enc.row(self.k + r);
            // The first column *scales* into the buffer (no zero-fill
            // pass over the parity shard), the rest accumulate.
            gf::mul_slice(row[0], data[0], p);
            for (c, d) in data.iter().enumerate().skip(1) {
                gf::mul_acc_slice(row[c], d, p);
            }
        }
    }

    /// Fills every `None` slot in `shards` (length `k + m`, data
    /// shards first) from any `k` present shards.
    ///
    /// # Errors
    /// [`EcError::WrongShardCount`] when `shards.len() != k + m`,
    /// [`EcError::TooFewShards`] when fewer than `k` are present, and
    /// [`EcError::ShardSizeMismatch`] when present shards disagree on
    /// length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let shard_len = self.fill_data(shards)?;
        // All data shards exist now; recompute any missing parity.
        for r in 0..self.m {
            if shards[self.k + r].is_some() {
                continue;
            }
            let row = self.enc.row(self.k + r).to_vec();
            let mut out = vec![0u8; shard_len];
            for (c, coeff) in row.iter().enumerate() {
                let shard = shards[c].as_ref().expect("data shards reconstructed");
                gf::mul_acc_slice(*coeff, shard, &mut out);
            }
            shards[self.k + r] = Some(out);
        }
        Ok(())
    }

    /// [`Codec::reconstruct`] for the data shards only: missing parity
    /// stays `None`. Same errors; returns the shard length.
    fn fill_data(&self, shards: &mut [Option<Vec<u8>>]) -> Result<usize, EcError> {
        let n = self.n();
        if shards.len() != n {
            return Err(EcError::WrongShardCount {
                have: shards.len(),
                need: n,
            });
        }
        let present: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(EcError::TooFewShards {
                have: present.len(),
                need: self.k,
            });
        }
        let shard_len = shards[present[0]].as_ref().map_or(0, Vec::len);
        if present
            .iter()
            .any(|&i| shards[i].as_ref().map_or(0, Vec::len) != shard_len)
        {
            return Err(EcError::ShardSizeMismatch);
        }

        let missing_data: Vec<usize> = (0..self.k).filter(|&i| shards[i].is_none()).collect();
        if !missing_data.is_empty() {
            // Invert the k×k encode submatrix for the first k present
            // shards; row i of the inverse rebuilds data shard i.
            let chosen = &present[..self.k];
            let dec = self
                .enc
                .select_rows(chosen)
                .inverse()
                .expect("any k rows of an MDS matrix are invertible");
            for &d in &missing_data {
                let mut out = vec![0u8; shard_len];
                for (j, &src) in chosen.iter().enumerate() {
                    let shard = shards[src].as_ref().expect("chosen shards are present");
                    gf::mul_acc_slice(dec.get(d, j), shard, &mut out);
                }
                shards[d] = Some(out);
            }
        }
        Ok(shard_len)
    }

    /// Shard length for a payload of `payload_len` bytes: the payload
    /// is split into `k` equal shards, zero-padding the last.
    #[must_use]
    pub fn shard_len(&self, payload_len: usize) -> usize {
        payload_len.div_ceil(self.k)
    }

    /// Splits `payload` into `k` data shards (zero-padded) and returns
    /// all `k + m` shards. The convenience wrapper around
    /// [`Codec::encode`] used at seal time.
    #[must_use]
    pub fn encode_payload(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        let len = self.shard_len(payload.len());
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(self.n());
        for i in 0..self.k {
            let start = (i * len).min(payload.len());
            let end = ((i + 1) * len).min(payload.len());
            let mut s = payload[start..end].to_vec();
            s.resize(len, 0);
            shards.push(s);
        }
        let data_refs: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
        let mut parity: Vec<Vec<u8>> = vec![vec![0u8; len]; self.m];
        {
            let mut parity_refs: Vec<&mut [u8]> =
                parity.iter_mut().map(Vec::as_mut_slice).collect();
            self.encode(&data_refs, &mut parity_refs);
        }
        shards.extend(parity);
        shards
    }

    /// Reconstructs the original payload of `payload_len` bytes from
    /// any `k` present shards (data shards first, `None` for missing).
    /// Only missing data shards are rebuilt into `shards`; a missing
    /// parity shard stays `None`, since the payload does not need it.
    ///
    /// # Errors
    /// The errors of [`Codec::reconstruct`]; additionally
    /// [`EcError::ShardSizeMismatch`] when present shards are not
    /// `shard_len(payload_len)` bytes.
    pub fn decode_payload(
        &self,
        shards: &mut [Option<Vec<u8>>],
        payload_len: usize,
    ) -> Result<Vec<u8>, EcError> {
        let want = self.shard_len(payload_len);
        if shards.iter().flatten().any(|s| s.len() != want) {
            return Err(EcError::ShardSizeMismatch);
        }
        self.fill_data(shards)?;
        let mut out = Vec::with_capacity(payload_len);
        for shard in shards.iter().take(self.k) {
            let shard = shard.as_ref().expect("fill_data filled the data shards");
            let take = want.min(payload_len - out.len());
            out.extend_from_slice(&shard[..take]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Vec<u8> {
        // Deterministic pseudo-random bytes (xorshift), no RNG dep.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn encode_then_full_decode_round_trips() {
        let codec = Codec::new(4, 2);
        let data = payload(4096 + 17);
        let shards = codec.encode_payload(&data);
        assert_eq!(shards.len(), 6);
        let mut opts: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        let back = codec.decode_payload(&mut opts, data.len()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn any_k_of_n_reconstructs() {
        let codec = Codec::new(4, 2);
        let data = payload(1000);
        let shards = codec.encode_payload(&data);
        // Drop every 2-subset of the 6 shards.
        for a in 0..6 {
            for b in (a + 1)..6 {
                let mut opts: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                opts[a] = None;
                opts[b] = None;
                let mut lost = opts.clone();
                let back = codec.decode_payload(&mut opts, data.len()).unwrap();
                assert_eq!(back, data, "lost shards {a} and {b}");
                // The decode rebuilt lost data, and left lost parity alone.
                for i in [a, b] {
                    assert_eq!(opts[i].is_some(), i < 4, "lost shards {a} and {b}");
                }
                // Reconstruct restores the lost shards verbatim.
                codec.reconstruct(&mut lost).unwrap();
                assert_eq!(lost[a].as_deref(), Some(shards[a].as_slice()));
                assert_eq!(lost[b].as_deref(), Some(shards[b].as_slice()));
            }
        }
    }

    #[test]
    fn too_many_losses_is_an_error() {
        let codec = Codec::new(4, 2);
        let shards = codec.encode_payload(&payload(64));
        let mut opts: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        opts[0] = None;
        opts[2] = None;
        opts[5] = None;
        assert_eq!(
            codec.reconstruct(&mut opts),
            Err(EcError::TooFewShards { have: 3, need: 4 })
        );
    }

    #[test]
    fn shard_shape_violations_are_errors() {
        let codec = Codec::new(3, 2);
        let mut short = vec![Some(vec![0u8; 4]); 4];
        assert_eq!(
            codec.reconstruct(&mut short),
            Err(EcError::WrongShardCount { have: 4, need: 5 })
        );
        let mut ragged = vec![Some(vec![0u8; 4]); 5];
        ragged[3] = Some(vec![0u8; 5]);
        assert_eq!(
            codec.reconstruct(&mut ragged),
            Err(EcError::ShardSizeMismatch)
        );
    }

    #[test]
    fn the_codec_is_systematic() {
        let codec = Codec::new(5, 3);
        let data = payload(555);
        let shards = codec.encode_payload(&data);
        let len = codec.shard_len(data.len());
        // Data shards are the payload verbatim (plus padding).
        let mut flat: Vec<u8> = shards[..5].concat();
        flat.truncate(data.len());
        assert_eq!(flat, data, "systematic property");
        assert_eq!(shards[5].len(), len);
    }

    #[test]
    fn empty_payload_round_trips() {
        let codec = Codec::new(4, 2);
        let shards = codec.encode_payload(&[]);
        assert!(shards.iter().all(Vec::is_empty));
        let mut opts: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(
            codec.decode_payload(&mut opts, 0).unwrap(),
            Vec::<u8>::new()
        );
    }
}
