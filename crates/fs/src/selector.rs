//! Pluggable read replica selection for the client library.
//!
//! "During read operations, clients query the Flowserver to select a
//! replica to read from" (§5) — in this crate the query is abstracted
//! behind [`ReplicaSelector`], so the same client code runs with the
//! Flowserver, with HDFS-style rack-awareness, or with trivial
//! policies for tests.

use mayflower_net::{HostId, Topology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One piece of a read: which replica serves how many bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadAssignment {
    /// The replica host to read from.
    pub replica: HostId,
    /// How many bytes of the request this replica serves.
    pub bytes: u64,
}

/// A read replica selection policy.
///
/// Given a client host, the file's replicas, and a request size,
/// returns one or more assignments whose byte counts sum to the
/// request size. Multiple assignments express a §4.3 split read; the
/// client maps them onto consecutive byte ranges.
pub trait ReplicaSelector: Send {
    /// Chooses the replica(s) for one read.
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment>;

    /// Chooses which `k` of the available fragments of a coded file to
    /// fetch for one sealed-chunk read. `available` lists the live
    /// candidates as `(fragment_index, host)` pairs in fragment order
    /// (data fragments first), and the returned fragment indices must
    /// be a `k`-subset of them — the client falls back to the first
    /// `k` otherwise.
    ///
    /// The default keeps fragment order, which prefers data fragments
    /// and so avoids a decode entirely when all of them are live. A
    /// Flowserver-backed selector instead asks the controller for a
    /// joint k-source + path selection.
    fn select_fragments(
        &mut self,
        client: HostId,
        available: &[(usize, HostId)],
        k: usize,
    ) -> Vec<usize> {
        let _ = client;
        available.iter().take(k).map(|(i, _)| *i).collect()
    }
}

/// Always reads from the primary replica. Simple, and what a
/// consistency-paranoid deployment would run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimarySelector;

impl ReplicaSelector for PrimarySelector {
    fn select_read(
        &mut self,
        _client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        vec![ReadAssignment {
            replica: replicas[0],
            bytes: size_bytes,
        }]
    }
}

/// HDFS-style rack-aware selection: the topologically closest replica,
/// with deterministic tie-breaking (lowest host id). This is the
/// prototype comparison's "HDFS selects the replica in the same rack
/// where the client is located, if any such replica exists" (§6.7).
/// An empty replica set gets no assignment, which the client refuses
/// as a read of zero of the requested bytes.
#[derive(Debug, Clone)]
pub struct NearestSelector {
    topo: Arc<Topology>,
}

impl NearestSelector {
    /// Creates a selector over the given topology.
    #[must_use]
    pub fn new(topo: Arc<Topology>) -> NearestSelector {
        NearestSelector { topo }
    }
}

impl ReplicaSelector for NearestSelector {
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        replicas
            .iter()
            .copied()
            .min_by_key(|r| (self.topo.distance(client, *r).unwrap_or(usize::MAX), *r))
            .map(|best| ReadAssignment {
                replica: best,
                bytes: size_bytes,
            })
            .into_iter()
            .collect()
    }

    /// Rack-aware fragment choice: live **data** fragments first (a
    /// full data set needs no decode at all), then the topologically
    /// closest parity sources to fill in for losses.
    fn select_fragments(
        &mut self,
        client: HostId,
        available: &[(usize, HostId)],
        k: usize,
    ) -> Vec<usize> {
        let mut ranked: Vec<(bool, usize, usize)> = available
            .iter()
            .map(|(i, h)| {
                (
                    *i >= k,
                    self.topo.distance(client, *h).unwrap_or(usize::MAX),
                    *i,
                )
            })
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().take(k).map(|(_, _, i)| i).collect()
    }
}

/// Splits every read into `pieces` equal consecutive ranges, assigned
/// round-robin across the replicas — the §4.3 split-read shape with
/// an explicit knob for how many RPCs one read fans out into. Pairs
/// with [`crate::Client::set_parallelism`], which bounds how many of
/// those pieces are in flight at once; the benches and stress tests
/// use it to drive the data-plane pipeline at a fixed fan-out.
#[derive(Debug, Clone, Copy)]
pub struct SplitSelector {
    pieces: u64,
}

impl SplitSelector {
    /// A selector splitting each read into `pieces` ranges (min 1).
    #[must_use]
    pub fn new(pieces: u64) -> SplitSelector {
        SplitSelector {
            pieces: pieces.max(1),
        }
    }
}

impl ReplicaSelector for SplitSelector {
    fn select_read(
        &mut self,
        _client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        let per = size_bytes / self.pieces;
        let mut left = size_bytes;
        (0..self.pieces as usize)
            .map(|i| {
                let bytes = if i as u64 == self.pieces - 1 {
                    left
                } else {
                    per
                };
                left -= bytes;
                ReadAssignment {
                    replica: replicas[i % replicas.len()],
                    bytes,
                }
            })
            .collect()
    }
}

/// Graceful degradation for Flowserver-backed selection: consults the
/// `primary` selector (typically one that queries the Flowserver)
/// while an availability flag is up, and falls back to the `fallback`
/// selector (typically [`NearestSelector`]) while it is down.
///
/// The flag is an [`Arc<AtomicBool>`] so the fault injector can flip
/// it from outside — exactly how a client's RPC timeout to an
/// unreachable Flowserver would manifest. The fallback path is also
/// taken when the primary selector returns no assignments (the
/// Flowserver answered `Unavailable`): a broken control plane must
/// never make data unreadable.
pub struct FallbackSelector<P, F> {
    primary: P,
    fallback: F,
    primary_up: Arc<AtomicBool>,
    fallbacks_taken: u64,
}

impl<P, F> FallbackSelector<P, F> {
    /// Combines two selectors behind an availability flag (`true` =
    /// primary reachable).
    pub fn new(primary: P, fallback: F, primary_up: Arc<AtomicBool>) -> FallbackSelector<P, F> {
        FallbackSelector {
            primary,
            fallback,
            primary_up,
            fallbacks_taken: 0,
        }
    }

    /// How many reads were served by the fallback policy — degraded-
    /// mode decisions, for the run report.
    #[must_use]
    pub fn fallbacks_taken(&self) -> u64 {
        self.fallbacks_taken
    }
}

impl<P: ReplicaSelector, F: ReplicaSelector> ReplicaSelector for FallbackSelector<P, F> {
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        if self.primary_up.load(Ordering::SeqCst) {
            let picked = self.primary.select_read(client, replicas, size_bytes);
            if !picked.is_empty() {
                return picked;
            }
        }
        self.fallbacks_taken += 1;
        self.fallback.select_read(client, replicas, size_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::{Topology, TreeParams};

    #[test]
    fn primary_selector_reads_everything_from_primary() {
        let mut s = PrimarySelector;
        let a = s.select_read(HostId(0), &[HostId(7), HostId(9)], 100);
        assert_eq!(
            a,
            vec![ReadAssignment {
                replica: HostId(7),
                bytes: 100
            }]
        );
    }

    #[test]
    fn nearest_selector_prefers_same_rack() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut s = NearestSelector::new(topo);
        let a = s.select_read(HostId(0), &[HostId(40), HostId(1)], 10);
        assert_eq!(a[0].replica, HostId(1));
    }

    #[test]
    fn nearest_selector_prefers_colocated() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut s = NearestSelector::new(topo);
        let a = s.select_read(HostId(5), &[HostId(40), HostId(5)], 10);
        assert_eq!(a[0].replica, HostId(5));
    }

    #[test]
    fn nearest_selector_assigns_nothing_without_replicas() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut s = NearestSelector::new(topo);
        assert!(s.select_read(HostId(0), &[], 10).is_empty());
    }

    #[test]
    fn fallback_switches_on_flag_and_on_empty_answer() {
        // A scripted primary that can also return nothing (the
        // Flowserver's `Unavailable` answer).
        struct Scripted {
            answer: Option<HostId>,
        }
        impl ReplicaSelector for Scripted {
            fn select_read(
                &mut self,
                _client: HostId,
                _replicas: &[HostId],
                size_bytes: u64,
            ) -> Vec<ReadAssignment> {
                match self.answer {
                    Some(replica) => vec![ReadAssignment {
                        replica,
                        bytes: size_bytes,
                    }],
                    None => Vec::new(),
                }
            }
        }
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let up = Arc::new(AtomicBool::new(true));
        let mut s = FallbackSelector::new(
            Scripted {
                answer: Some(HostId(40)),
            },
            NearestSelector::new(topo),
            up.clone(),
        );
        let replicas = [HostId(40), HostId(1)];
        // Primary reachable: its (far) answer wins.
        assert_eq!(
            s.select_read(HostId(0), &replicas, 10)[0].replica,
            HostId(40)
        );
        assert_eq!(s.fallbacks_taken(), 0);
        // Outage: nearest-replica fallback takes over.
        up.store(false, Ordering::SeqCst);
        assert_eq!(
            s.select_read(HostId(0), &replicas, 10)[0].replica,
            HostId(1)
        );
        // Recovery: primary again.
        up.store(true, Ordering::SeqCst);
        assert_eq!(
            s.select_read(HostId(0), &replicas, 10)[0].replica,
            HostId(40)
        );
        // Reachable but answering `Unavailable` (empty): fall back.
        s.primary.answer = None;
        assert_eq!(
            s.select_read(HostId(0), &replicas, 10)[0].replica,
            HostId(1)
        );
        assert_eq!(s.fallbacks_taken(), 2);
    }

    #[test]
    fn nearest_tie_breaks_deterministically() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut s = NearestSelector::new(topo);
        // Both replicas cross-pod: lowest id wins.
        let a = s.select_read(HostId(0), &[HostId(40), HostId(20)], 10);
        assert_eq!(a[0].replica, HostId(20));
    }

    #[test]
    fn split_selector_covers_the_range_round_robin() {
        let replicas = [HostId(3), HostId(5), HostId(8)];
        let mut s = SplitSelector::new(4);
        let a = s.select_read(HostId(0), &replicas, 103);
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter().map(|p| p.bytes).sum::<u64>(), 103);
        // Equal pieces with the remainder on the last, replicas cycling.
        assert_eq!(
            a[0],
            ReadAssignment {
                replica: HostId(3),
                bytes: 25
            }
        );
        assert_eq!(
            a[1],
            ReadAssignment {
                replica: HostId(5),
                bytes: 25
            }
        );
        assert_eq!(
            a[2],
            ReadAssignment {
                replica: HostId(8),
                bytes: 25
            }
        );
        assert_eq!(
            a[3],
            ReadAssignment {
                replica: HostId(3),
                bytes: 28
            }
        );
        // More pieces than bytes: zero-byte pieces are legal (the
        // client skips them) and the sum still matches.
        let tiny = SplitSelector::new(8).select_read(HostId(0), &replicas, 3);
        assert_eq!(tiny.iter().map(|p| p.bytes).sum::<u64>(), 3);
    }
}
