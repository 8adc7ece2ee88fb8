#![warn(missing_docs)]

//! Deterministic systematic Reed-Solomon erasure coding over GF(2^8).
//!
//! This crate is the arithmetic core of Mayflower's erasure-coded
//! storage tier (DESIGN.md §14): sealed chunks are striped into `k`
//! data fragments plus `m` parity fragments, and any `k` of the
//! `k + m` fragments reconstruct the chunk. It is deliberately
//! dependency-free and allocation-free in its hot kernels so that the
//! filesystem, the recovery pipeline, and the simulator can all share
//! one codec without layering concerns.
//!
//! * [`gf`] — GF(2^8) arithmetic with compile-time `MUL`/`INV` tables
//!   and the slice kernels (`mul_acc_slice`) everything reduces to.
//! * [`matrix`] — small dense matrices: the Cauchy construction and
//!   Gauss-Jordan inversion.
//! * [`codec`] — [`Codec`]: systematic Cauchy encode, any-k-of-n
//!   reconstruct,
//!   and the payload-level helpers used at seal / degraded-read time.
//!
//! # Example
//!
//! ```
//! use mayflower_ec::Codec;
//!
//! let codec = Codec::new(4, 2); // 4 data + 2 parity
//! let payload = b"the quick brown fox jumps over the lazy dog".to_vec();
//! let shards = codec.encode_payload(&payload);
//!
//! // Lose any two fragments...
//! let mut got: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! got[1] = None;
//! got[5] = None;
//!
//! // ...and the payload still decodes byte-identically.
//! assert_eq!(codec.decode_payload(&mut got, payload.len()).unwrap(), payload);
//! ```

pub mod codec;
pub mod gf;
pub mod matrix;

pub use codec::{Codec, EcError};
pub use matrix::Matrix;
