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

    /// The same rule as [`select_read`](Self::select_read): the
    /// primary's choice while it is up and answers, the fallback's
    /// otherwise.
    fn select_fragments(
        &mut self,
        client: HostId,
        available: &[(usize, HostId)],
        k: usize,
    ) -> Vec<usize> {
        if self.primary_up.load(Ordering::SeqCst) {
            let picked = self.primary.select_fragments(client, available, k);
            if !picked.is_empty() {
                return picked;
            }
        }
        self.fallbacks_taken += 1;
        self.fallback.select_fragments(client, available, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::{Topology, TreeParams};

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
    fn fallback_forwards_fragment_choices_by_the_same_rule() {
        // A primary that picks the last `k` fragments, or none.
        struct LastK {
            answer: bool,
        }
        impl ReplicaSelector for LastK {
            fn select_read(&mut self, _: HostId, _: &[HostId], _: u64) -> Vec<ReadAssignment> {
                Vec::new()
            }
            fn select_fragments(
                &mut self,
                _client: HostId,
                available: &[(usize, HostId)],
                k: usize,
            ) -> Vec<usize> {
                if !self.answer {
                    return Vec::new();
                }
                available.iter().rev().take(k).map(|(i, _)| *i).collect()
            }
        }
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let up = Arc::new(AtomicBool::new(true));
        let mut s = FallbackSelector::new(
            LastK { answer: true },
            NearestSelector::new(topo),
            up.clone(),
        );
        // 2+2 with data fragment 1 lost: the nearest parity (fragment 3,
        // on the client's own rack) fills in beside data fragment 0.
        let available = [(0, HostId(40)), (2, HostId(20)), (3, HostId(1))];
        // Primary reachable: its choice wins.
        assert_eq!(s.select_fragments(HostId(0), &available, 2), vec![3, 2]);
        assert_eq!(s.fallbacks_taken(), 0);
        // Outage: the nearest-parity choice takes over.
        up.store(false, Ordering::SeqCst);
        assert_eq!(s.select_fragments(HostId(0), &available, 2), vec![0, 3]);
        // Reachable but answering nothing: fall back.
        up.store(true, Ordering::SeqCst);
        s.primary.answer = false;
        assert_eq!(s.select_fragments(HostId(0), &available, 2), vec![0, 3]);
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
}
