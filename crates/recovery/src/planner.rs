//! Prioritized repair planning: joint destination, source-replica and
//! path selection.
//!
//! For every under-replicated file — already sorted most urgent first
//! by the [`tracker`](crate::tracker) — the planner makes two
//! decisions:
//!
//! * **Where to rebuild**: replacement destinations come from the
//!   cluster's [`PlacementPolicy::replacements`], so a repaired file
//!   satisfies the same rack/pod spread invariants a fresh write
//!   would (HDFS-style, paper §3.1), degrading gracefully when few
//!   racks survive.
//! * **From where, over which path**: the Flowserver is consulted
//!   with [`Flowserver::select_repair_flow`] at
//!   [`FlowPriority::Background`](mayflower_flowserver::FlowPriority),
//!   so repair traffic jointly picks the source replica and network
//!   path that least slows down foreground reads (the paper's Eq. 2
//!   inflicted-cost term, minimized first).
//!
//! If the Flowserver reports every path down, the planner still
//! emits a task with the first live replica as source and no flow
//! cookie — restoring durability beats respecting a stale network
//! view.
//!
//! Coded files (DESIGN.md §14) add a third decision: for every
//! fragment stranded on a dead host the planner picks a rebuild
//! destination — a usable host holding nothing of the file, in the
//! rack with the fewest surviving fragments, preserving the
//! creation-time round-robin spread — and schedules the rebuild
//! ingest (`k` shards converging on the destination) as one
//! background flow sized at `sealed_bytes`.

use std::collections::BTreeMap;

use mayflower_flowserver::{Flowserver, Selection};
use mayflower_fs::FileId;
use mayflower_net::{HostId, Topology};
use mayflower_sdn::FlowCookie;
use mayflower_simcore::{SimRng, SimTime};
use mayflower_workload::PlacementPolicy;
use serde::{Deserialize, Serialize};

use crate::tracker::UnderReplicated;

/// One repair the executor should perform: copy `bytes` of file
/// `name` from `source` onto `dest`.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairTask {
    /// The user-visible file name (the nameserver commit key).
    pub name: String,
    /// The file's UUID (the pull RPC key).
    pub id: FileId,
    /// The live replica the data is pulled from.
    pub source: HostId,
    /// The host that will hold the rebuilt replica.
    pub dest: HostId,
    /// Bytes to copy.
    pub bytes: u64,
    /// The installed background flow, when the Flowserver granted a
    /// path; `None` means the planner fell back to the first live
    /// replica without network scheduling.
    pub cookie: Option<FlowCookie>,
    /// `Some(j)` for a coded repair: rebuild fragment `j` of every
    /// sealed chunk onto `dest` (via [`Cluster::repair_fragment`]);
    /// `None` for a whole-replica copy.
    ///
    /// [`Cluster::repair_fragment`]: mayflower_fs::Cluster::repair_fragment
    pub fragment: Option<usize>,
}

impl RepairTask {
    /// The report-friendly record of this task.
    #[must_use]
    pub fn record(&self, at: SimTime) -> PlannedRepair {
        PlannedRepair {
            at,
            file: self.name.clone(),
            source: self.source,
            dest: self.dest,
            bytes: self.bytes,
            flow_scheduled: self.cookie.is_some(),
            fragment: self.fragment,
        }
    }
}

/// A serializable record of one planning decision, kept in the
/// [`RecoveryReport`](crate::report::RecoveryReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedRepair {
    /// When the repair was planned.
    pub at: SimTime,
    /// The file being repaired.
    pub file: String,
    /// Chosen source replica.
    pub source: HostId,
    /// Chosen destination host.
    pub dest: HostId,
    /// Bytes to copy.
    pub bytes: u64,
    /// Whether the Flowserver installed a background flow for the
    /// copy (false = unscheduled fallback).
    pub flow_scheduled: bool,
    /// The fragment index for a coded rebuild, `None` for a replica
    /// copy.
    pub fragment: Option<usize>,
}

/// Turns the under-replicated backlog into an ordered list of
/// [`RepairTask`]s.
#[derive(Debug)]
pub struct RepairPlanner {
    policy: PlacementPolicy,
}

impl RepairPlanner {
    /// Creates a planner that places replacements with `policy` — use
    /// the same policy the cluster writes with, so repairs preserve
    /// the placement invariants.
    #[must_use]
    pub fn new(policy: PlacementPolicy) -> RepairPlanner {
        RepairPlanner { policy }
    }

    /// Plans repairs for `under` (must already be urgency-ordered).
    ///
    /// `usable` is the detector's not-confirmed-dead host set; hosts
    /// already in a file's replica list are never chosen as its
    /// destination. Each destination gets its own
    /// [`select_repair_flow`](Flowserver::select_repair_flow) call so
    /// concurrent repairs see each other's background flows. Files
    /// with no live replica at all are skipped — nothing can restore
    /// the tail (the caller counts them as lost) — though their
    /// sealed fragments are still rebuilt while `k` sources survive.
    pub fn plan(
        &self,
        topo: &Topology,
        under: &[UnderReplicated],
        usable: &[HostId],
        flowserver: &mut Flowserver,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<RepairTask> {
        let mut tasks = Vec::new();
        for file in under {
            // Destinations already claimed for this file (replica and
            // fragment repairs must not pile onto one host).
            let mut taken: Vec<HostId> = Vec::new();
            if file.missing() > 0 && !file.live.is_empty() {
                let eligible: Vec<HostId> = usable
                    .iter()
                    .copied()
                    .filter(|h| !file.replicas.contains(h))
                    .collect();
                let dests =
                    self.policy
                        .replacements(topo, &file.live, &eligible, file.missing(), rng);
                // Each replica holds the full file — or, for a coded
                // file, just the unsealed tail — so that is what a
                // repair copies; the flow model needs a positive size
                // even for empty files (metadata shells still move).
                let bytes = file
                    .coded
                    .as_ref()
                    .map_or(file.size, |c| file.size - c.sealed_bytes);
                let size_bits = (bytes as f64 * 8.0).max(1.0);
                for dest in dests {
                    taken.push(dest);
                    let (source, cookie) =
                        match flowserver.select_repair_flow(dest, &file.live, size_bits, now) {
                            Selection::Single(a) => (a.replica, Some(a.cookie)),
                            // Local is impossible (dest is never a current
                            // replica) and Split is never produced for
                            // repairs; both fall back like Unavailable.
                            _ => (file.live[0], None),
                        };
                    tasks.push(RepairTask {
                        name: file.name.clone(),
                        id: file.id,
                        source,
                        dest,
                        bytes,
                        cookie,
                        fragment: None,
                    });
                }
            }
            let Some(loss) = &file.coded else { continue };
            let sources: Vec<HostId> = loss
                .fragments
                .iter()
                .enumerate()
                .filter(|(i, _)| !loss.lost.contains(i))
                .map(|(_, h)| *h)
                .collect();
            if sources.len() < loss.k {
                // Below the decode threshold: the sealed region is
                // unrecoverable until a host returns. Nothing to plan.
                continue;
            }
            // Racks with fewer surviving fragments first, preserving
            // the creation-time round-robin spread.
            let mut rack_load: BTreeMap<_, usize> = BTreeMap::new();
            for s in &sources {
                *rack_load.entry(topo.rack_of(*s)).or_insert(0) += 1;
            }
            let size_bits = (loss.sealed_bytes as f64 * 8.0).max(1.0);
            for &index in &loss.lost {
                let Some(dest) = usable
                    .iter()
                    .copied()
                    .filter(|h| {
                        !loss.fragments.contains(h)
                            && !file.replicas.contains(h)
                            && !taken.contains(h)
                    })
                    .min_by_key(|h| (rack_load.get(&topo.rack_of(*h)).copied().unwrap_or(0), *h))
                else {
                    continue; // no free host: leave this fragment lost
                };
                taken.push(dest);
                *rack_load.entry(topo.rack_of(dest)).or_insert(0) += 1;
                // One background flow models the rebuild ingest: `k`
                // shards of `sealed_bytes / k` each converge on `dest`.
                let (source, cookie) =
                    match flowserver.select_repair_flow(dest, &sources, size_bits, now) {
                        Selection::Single(a) => (a.replica, Some(a.cookie)),
                        _ => (sources[0], None),
                    };
                tasks.push(RepairTask {
                    name: file.name.clone(),
                    id: file.id,
                    source,
                    dest,
                    bytes: loss.sealed_bytes.div_ceil(loss.k as u64),
                    cookie,
                    fragment: Some(index),
                });
            }
        }
        tasks
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mayflower_flowserver::FlowserverConfig;
    use mayflower_net::TreeParams;

    use super::*;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::three_tier(&TreeParams::paper_testbed()))
    }

    fn under(name: &str, size: u64, replicas: &[u32], dead: &[u32]) -> UnderReplicated {
        let replicas: Vec<HostId> = replicas.iter().copied().map(HostId).collect();
        let live: Vec<HostId> = replicas
            .iter()
            .copied()
            .filter(|h| !dead.contains(&h.0))
            .collect();
        UnderReplicated {
            name: name.to_string(),
            id: FileId(7),
            size,
            target: replicas.len(),
            live,
            replicas,
            coded: None,
        }
    }

    /// A healthy-tailed coded file that lost fragments `lost` of a
    /// `k + m` map laid out on hosts `fragments`.
    fn coded_under(
        name: &str,
        sealed_bytes: u64,
        k: usize,
        fragments: &[u32],
        lost: &[usize],
    ) -> UnderReplicated {
        let fragments: Vec<HostId> = fragments.iter().copied().map(HostId).collect();
        let replicas = vec![HostId(1), HostId(6), HostId(11)];
        UnderReplicated {
            name: name.to_string(),
            id: FileId(9),
            size: sealed_bytes + 5,
            target: replicas.len(),
            live: replicas.clone(),
            replicas,
            coded: Some(crate::tracker::CodedLoss {
                fragments,
                lost: lost.to_vec(),
                k,
                sealed_bytes,
            }),
        }
    }

    fn usable(topo: &Topology, dead: &[u32]) -> Vec<HostId> {
        topo.hosts()
            .into_iter()
            .filter(|h| !dead.contains(&h.0))
            .collect()
    }

    #[test]
    fn plans_scheduled_repairs_preserving_spread() {
        let topo = topo();
        let mut fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
        let planner = RepairPlanner::new(PlacementPolicy::HdfsRackAware);
        let mut rng = SimRng::seed_from(5);
        let dead = [0u32, 5];
        let file = under("files/a", 1 << 20, &[0, 5, 10], &dead);
        let tasks = planner.plan(
            &topo,
            std::slice::from_ref(&file),
            &usable(&topo, &dead),
            &mut fsrv,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(tasks.len(), 2);
        let mut racks: Vec<_> = file.live.iter().map(|h| topo.rack_of(*h)).collect();
        for t in &tasks {
            assert!(file.live.contains(&t.source), "source must be live");
            assert!(!file.replicas.contains(&t.dest), "dest must be new");
            assert!(t.cookie.is_some(), "idle fabric must schedule the flow");
            assert_eq!(t.bytes, file.size);
            // Rack-aware spread: each new replica lands in a rack not
            // already used by the kept + previously chosen set.
            let r = topo.rack_of(t.dest);
            assert!(!racks.contains(&r), "rack {r:?} reused");
            racks.push(r);
        }
        // Both flows are now tracked by the flowserver.
        assert_eq!(fsrv.tracked_flows(), 2);
    }

    #[test]
    fn skips_files_with_no_live_replica() {
        let topo = topo();
        let mut fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
        let planner = RepairPlanner::new(PlacementPolicy::HdfsRackAware);
        let mut rng = SimRng::seed_from(5);
        let dead = [0u32, 5, 10];
        let file = under("files/lost", 1024, &[0, 5, 10], &dead);
        let tasks = planner.plan(
            &topo,
            &[file],
            &usable(&topo, &dead),
            &mut fsrv,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(tasks.is_empty());
        assert_eq!(fsrv.tracked_flows(), 0);
    }

    #[test]
    fn same_seed_same_plan() {
        let topo = topo();
        let dead = [3u32];
        let mk = || {
            let mut fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
            let planner = RepairPlanner::new(PlacementPolicy::HdfsRackAware);
            let mut rng = SimRng::seed_from(42);
            planner.plan(
                &topo,
                &[under("files/x", 4096, &[3, 8, 13], &dead)],
                &usable(&topo, &dead),
                &mut fsrv,
                SimTime::from_secs(1.0),
                &mut rng,
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn empty_files_still_plan_with_unit_flow() {
        let topo = topo();
        let mut fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
        let planner = RepairPlanner::new(PlacementPolicy::HdfsRackAware);
        let mut rng = SimRng::seed_from(9);
        let dead = [2u32];
        let tasks = planner.plan(
            &topo,
            &[under("files/empty", 0, &[2, 7, 12], &dead)],
            &usable(&topo, &dead),
            &mut fsrv,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].bytes, 0);
        assert!(tasks[0].cookie.is_some());
        let rec = tasks[0].record(SimTime::from_secs(2.0));
        assert!(rec.flow_scheduled);
        assert_eq!(rec.file, "files/empty");
        assert_eq!(rec.fragment, None);
    }

    #[test]
    fn plans_fragment_rebuilds_on_fresh_hosts() {
        let topo = topo();
        let mut fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
        let planner = RepairPlanner::new(PlacementPolicy::HdfsRackAware);
        let mut rng = SimRng::seed_from(3);
        let dead = [0u32, 10];
        let file = coded_under("files/coded", 4096, 4, &[0, 5, 10, 15, 20, 25], &[0, 2]);
        let tasks = planner.plan(
            &topo,
            std::slice::from_ref(&file),
            &usable(&topo, &dead),
            &mut fsrv,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(tasks.len(), 2, "one rebuild per lost fragment");
        let loss = file.coded.as_ref().unwrap();
        let mut dests = Vec::new();
        for (t, lost) in tasks.iter().zip(&loss.lost) {
            assert_eq!(t.fragment, Some(*lost));
            assert_eq!(t.bytes, 1024, "per-fragment share of sealed bytes");
            assert!(t.cookie.is_some(), "idle fabric must schedule the flow");
            // Sources are surviving fragment hosts only.
            assert!(loss.fragments.contains(&t.source));
            assert!(!dead.contains(&t.source.0));
            // Destinations hold nothing of the file, and don't collide.
            assert!(!loss.fragments.contains(&t.dest));
            assert!(!file.replicas.contains(&t.dest));
            assert!(!dests.contains(&t.dest));
            dests.push(t.dest);
            assert!(t.record(SimTime::ZERO).fragment.is_some());
        }
        assert_eq!(fsrv.tracked_flows(), 2);
    }

    #[test]
    fn below_k_survivors_plans_nothing() {
        let topo = topo();
        let mut fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
        let planner = RepairPlanner::new(PlacementPolicy::HdfsRackAware);
        let mut rng = SimRng::seed_from(3);
        let dead = [0u32, 5, 10];
        // k = 4 but only 3 of 6 fragments survive: unrecoverable.
        let file = coded_under("files/toast", 4096, 4, &[0, 5, 10, 15, 20, 25], &[0, 1, 2]);
        let tasks = planner.plan(
            &topo,
            &[file],
            &usable(&topo, &dead),
            &mut fsrv,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(tasks.is_empty());
        assert_eq!(fsrv.tracked_flows(), 0);
    }

    #[test]
    fn coded_tail_repair_copies_only_the_tail() {
        let topo = topo();
        let mut fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
        let planner = RepairPlanner::new(PlacementPolicy::HdfsRackAware);
        let mut rng = SimRng::seed_from(4);
        // A coded file that lost one tail replica *and* one fragment.
        let mut file = coded_under("files/both", 4096, 4, &[0, 5, 10, 15, 20, 25], &[1]);
        let dead_replica = file.replicas[2];
        file.live.retain(|h| *h != dead_replica);
        let dead = [dead_replica.0, 5];
        let tasks = planner.plan(
            &topo,
            std::slice::from_ref(&file),
            &usable(&topo, &dead),
            &mut fsrv,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(tasks.len(), 2);
        let replica_task = tasks.iter().find(|t| t.fragment.is_none()).unwrap();
        assert_eq!(replica_task.bytes, 5, "only the unsealed tail moves");
        let frag_task = tasks.iter().find(|t| t.fragment.is_some()).unwrap();
        assert_eq!(frag_task.fragment, Some(1));
        assert_ne!(replica_task.dest, frag_task.dest, "destinations spread");
    }
}
