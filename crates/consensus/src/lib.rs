//! Empty. This crate held a Paxos log for a replicated nameserver (the
//! paper's §3.3.1 future work) that no code ever read, and its code is
//! gone. The crate stays only because `benchmark/Cargo.lock` records
//! the `mayflower-fs → mayflower-consensus` edge; it goes, with that
//! edge, in the change that refreshes the benchmark's lock.
