//! Memoized shortest-path sets with a link-state overlay.
//!
//! [`crate::Topology::shortest_paths`] re-runs a breadth-first search
//! out to the destination's level plus a walk back over every shortest
//! path on every call, and the Flowserver calls it for every (replica,
//! client) pair of every selection. The topology is frozen, so the
//! answer never changes — a [`PathCache`] computes each host pair's
//! path set once and hands out shared slices. Every simulated replay
//! builds a fresh `Flowserver`, so it starts with a cold cache.
//!
//! Link failures do not change the set of shortest paths either (the
//! scheduler skips severed candidates rather than re-routing around
//! them, exactly like the pre-cache code filtered against its
//! `down_links` set). The cache therefore models failures as an
//! *overlay*: a per-entry severed bitmap, recomputed lazily whenever
//! the down-link set has changed since the bitmap was last computed.
//! On a healthy network the overlay is `None` and lookups pay zero
//! per-path set probes.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::ids::{HostId, LinkId};
use crate::path::Path;
use crate::topology::Topology;

/// Hit/miss/invalidation counts, mirrored into telemetry by the owner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCacheStats {
    /// Lookups served from a cached entry.
    pub hits: u64,
    /// Lookups that had to enumerate paths.
    pub misses: u64,
    /// Link-state changes that invalidated the severed overlays.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    paths: Arc<[Path]>,
    /// Per-path "crosses a down link" flags; `None` when no path in
    /// this set is severed (the common case, even under failures).
    severed: Option<Arc<[bool]>>,
    /// Value of [`PathCache::down_epoch`] when `severed` was computed.
    severed_epoch: u64,
}

/// An owned view of one host pair's cached shortest paths plus the
/// current severed overlay. Cheap to clone out of the cache (two `Arc`
/// bumps), so callers hold no borrow of the cache while iterating.
#[derive(Debug, Clone)]
pub struct PathSet {
    paths: Arc<[Path]>,
    severed: Option<Arc<[bool]>>,
}

impl PathSet {
    /// All shortest paths, in [`Topology::shortest_paths`] order.
    #[must_use]
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Whether path `i` crosses a link currently known to be down.
    #[must_use]
    pub fn is_severed(&self, i: usize) -> bool {
        self.severed.as_ref().is_some_and(|s| s[i])
    }

    /// The live (non-severed) paths, in order.
    pub fn live(&self) -> impl Iterator<Item = &Path> {
        self.paths
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_severed(*i))
            .map(|(_, p)| p)
    }
}

/// The shortest-path memo: one entry per queried (src, dst) host pair,
/// plus the down-link set driving the severed overlays.
#[derive(Debug, Clone, Default)]
pub struct PathCache {
    entries: HashMap<(HostId, HostId), Entry>,
    down: BTreeSet<LinkId>,
    /// Bumped on every effective link-state change; entries stamp
    /// their overlay with the epoch it was computed at.
    down_epoch: u64,
    stats: PathCacheStats,
}

impl PathCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> PathCache {
        PathCache::default()
    }

    /// Records a link going down (`up == false`) or coming back up.
    /// Returns whether the down-link set actually changed (repeated
    /// notifications are idempotent, as with the raw set the scheduler
    /// kept before).
    pub fn set_link_state(&mut self, link: LinkId, up: bool) -> bool {
        let changed = if up {
            self.down.remove(&link)
        } else {
            self.down.insert(link)
        };
        if changed {
            self.down_epoch += 1;
            self.stats.invalidations += 1;
        }
        changed
    }

    /// The links currently marked down.
    #[must_use]
    pub fn down_links(&self) -> &BTreeSet<LinkId> {
        &self.down
    }

    /// The shortest paths `src → dst`, memoized, with the severed
    /// overlay refreshed against the current down-link set. Returns
    /// the set and whether it was served from cache.
    pub fn lookup(&mut self, topo: &Topology, src: HostId, dst: HostId) -> (PathSet, bool) {
        let down = &self.down;
        let down_epoch = self.down_epoch;
        let mut hit = true;
        let entry = self.entries.entry((src, dst)).or_insert_with(|| {
            hit = false;
            Entry {
                paths: topo.shortest_paths(src, dst).into(),
                severed: None,
                severed_epoch: 0,
            }
        });
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        let severed = if down.is_empty() {
            // Healthy network: no overlay, zero per-path probes.
            None
        } else {
            if entry.severed_epoch != down_epoch {
                let flags: Vec<bool> = entry
                    .paths
                    .iter()
                    .map(|p| p.links().iter().any(|l| down.contains(l)))
                    .collect();
                entry.severed = if flags.contains(&true) {
                    Some(flags.into())
                } else {
                    None
                };
                entry.severed_epoch = down_epoch;
            }
            entry.severed.clone()
        };
        (
            PathSet {
                paths: entry.paths.clone(),
                severed,
            },
            hit,
        )
    }

    /// Cumulative cache statistics.
    #[must_use]
    pub fn stats(&self) -> PathCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeParams;

    fn topo() -> Topology {
        Topology::three_tier(&TreeParams::paper_testbed())
    }

    #[test]
    fn lookup_matches_direct_enumeration_for_all_kinds_of_pairs() {
        let t = topo();
        let mut cache = PathCache::new();
        for (a, b) in [(0u32, 1), (0, 5), (0, 40), (63, 0)] {
            let (set, hit) = cache.lookup(&t, HostId(a), HostId(b));
            assert!(!hit, "first lookup must miss");
            assert_eq!(set.paths(), t.shortest_paths(HostId(a), HostId(b)));
            let (set2, hit2) = cache.lookup(&t, HostId(a), HostId(b));
            assert!(hit2, "second lookup must hit");
            assert_eq!(set2.paths(), set.paths());
        }
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn direction_matters() {
        let t = topo();
        let mut cache = PathCache::new();
        let (fwd, _) = cache.lookup(&t, HostId(0), HostId(40));
        let (rev, _) = cache.lookup(&t, HostId(40), HostId(0));
        assert_eq!(
            cache.stats().misses,
            2,
            "reverse direction is its own entry"
        );
        assert_ne!(fwd.paths()[0].links(), rev.paths()[0].links());
    }

    #[test]
    fn healthy_network_has_no_overlay() {
        let t = topo();
        let mut cache = PathCache::new();
        let (set, _) = cache.lookup(&t, HostId(0), HostId(40));
        assert!(set.severed.is_none());
        assert_eq!(set.live().count(), set.paths().len());
    }

    #[test]
    fn severed_overlay_matches_naive_filter_and_heals() {
        let t = topo();
        let mut cache = PathCache::new();
        // Warm the cache, then fail a link used by some cross-pod paths.
        let (_, _) = cache.lookup(&t, HostId(20), HostId(0));
        let paths = t.shortest_paths(HostId(20), HostId(0));
        let victim = paths[0].links()[1]; // an edge→agg uplink
        assert!(cache.set_link_state(victim, false));
        assert!(!cache.set_link_state(victim, false), "idempotent");
        assert_eq!(cache.stats().invalidations, 1);

        let (set, hit) = cache.lookup(&t, HostId(20), HostId(0));
        assert!(hit, "failure must not evict the entry");
        let naive: Vec<&Path> = paths
            .iter()
            .filter(|p| !p.links().contains(&victim))
            .collect();
        let live: Vec<&Path> = set.live().collect();
        assert_eq!(live.len(), naive.len());
        assert!(!live.is_empty(), "other paths survive");
        assert!(live.len() < set.paths().len(), "some paths are severed");
        for (a, b) in live.iter().zip(&naive) {
            assert_eq!(a.links(), b.links());
        }

        // Healing restores the full set.
        assert!(cache.set_link_state(victim, true));
        let (set, _) = cache.lookup(&t, HostId(20), HostId(0));
        assert_eq!(set.live().count(), set.paths().len());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn overlay_is_none_when_down_link_misses_the_entry() {
        let t = topo();
        let mut cache = PathCache::new();
        // Fail a link in pod 3; same-rack pod-0 paths are unaffected,
        // so their overlay collapses back to None (zero probes later).
        let far = t.host_uplink(HostId(63));
        cache.set_link_state(far, false);
        let (set, _) = cache.lookup(&t, HostId(0), HostId(1));
        assert!(set.severed.is_none());
        assert_eq!(set.live().count(), set.paths().len());
    }

    #[test]
    fn host_pair_with_down_own_uplink_is_fully_severed() {
        let t = topo();
        let mut cache = PathCache::new();
        let uplink = t.host_uplink(HostId(1));
        cache.set_link_state(uplink, false);
        let (set, _) = cache.lookup(&t, HostId(1), HostId(0));
        assert_eq!(set.live().count(), 0, "every path crosses the uplink");
        assert!(!set.paths().is_empty(), "paths stay cached");
    }
}
