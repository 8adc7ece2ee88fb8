//! Under-replication tracking: nameserver metadata × detector state.
//!
//! The tracker derives, on demand, the set of files whose replica
//! list — or, for coded files, fragment map — contains hosts the
//! [`FailureDetector`] has confirmed dead. Only **confirmed** deaths
//! count as lost copies — a suspect host still holds its data as far
//! as anyone knows, and repairing on suspicion would turn every
//! transient stall into a re-replication storm. The result is ordered
//! most urgent first: fewest live replicas, then file name, so the
//! planner drains the files closest to data loss before merely
//! degraded ones.

use mayflower_fs::{FileId, Nameserver};
use mayflower_net::HostId;

use crate::detector::FailureDetector;

/// Fragment losses of one coded file (DESIGN.md §14): which indices of
/// the `k + m` fragment map sit on confirmed-dead hosts, plus what the
/// planner needs to rebuild them from the survivors.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedLoss {
    /// The full fragment map, dead hosts included (`fragments[j]`
    /// stores fragment `j` of every sealed chunk).
    pub fragments: Vec<HostId>,
    /// Indices of fragments on confirmed-dead hosts, ascending.
    pub lost: Vec<usize>,
    /// Data fragments per stripe — a rebuild needs `k` live sources.
    pub k: usize,
    /// Bytes under the seal watermark: the traffic a rebuild pulls
    /// (`k` shards of `sealed_bytes / k` each converge on the dest).
    pub sealed_bytes: u64,
}

/// One file with fewer live replicas than its metadata demands, or —
/// on the coded tier — fragments stranded on confirmed-dead hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct UnderReplicated {
    /// The user-visible file name.
    pub name: String,
    /// The file's UUID (used by the repair pull RPC).
    pub id: FileId,
    /// Current size in bytes — the amount a replica repair must copy
    /// (a coded file's replica repair copies only the unsealed tail).
    pub size: u64,
    /// The full replica set from the nameserver, dead hosts included.
    pub replicas: Vec<HostId>,
    /// The subset of `replicas` not confirmed dead, in replica order.
    pub live: Vec<HostId>,
    /// The replication target (the metadata replica count).
    pub target: usize,
    /// Fragment losses, for coded files with sealed chunks; `None`
    /// when the fragment map is intact (or the file is replicated).
    pub coded: Option<CodedLoss>,
}

impl UnderReplicated {
    /// How many replicas must be re-created to reach the target.
    #[must_use]
    pub fn missing(&self) -> usize {
        self.target.saturating_sub(self.live.len())
    }
}

/// Computes the under-replicated set: every file whose live
/// replica count (per `detector`) is below its metadata target or
/// whose sealed fragments sit on confirmed-dead hosts, ordered by
/// `(live replica count, name)` — files losing tail durability
/// sort ahead of coded files that merely lost parity margin.
pub fn scan(nameserver: &Nameserver, detector: &FailureDetector) -> Vec<UnderReplicated> {
    let mut out: Vec<UnderReplicated> = nameserver
        .list()
        .into_iter()
        .filter_map(|meta| {
            let live: Vec<HostId> = meta
                .replicas
                .iter()
                .copied()
                .filter(|h| detector.is_live(*h))
                .collect();
            // Fragments only exist below the seal watermark, so an
            // unsealed coded file has nothing to rebuild yet.
            let coded = meta.redundancy.coded_params().and_then(|(k, _)| {
                if meta.sealed_chunks == 0 {
                    return None;
                }
                let lost: Vec<usize> = meta
                    .fragments
                    .iter()
                    .enumerate()
                    .filter(|(_, h)| !detector.is_live(**h))
                    .map(|(i, _)| i)
                    .collect();
                if lost.is_empty() {
                    return None;
                }
                Some(CodedLoss {
                    fragments: meta.fragments.clone(),
                    lost,
                    k,
                    sealed_bytes: meta.sealed_bytes().min(meta.size),
                })
            });
            if live.len() >= meta.replicas.len() && coded.is_none() {
                return None;
            }
            Some(UnderReplicated {
                name: meta.name.clone(),
                id: meta.id,
                size: meta.size,
                target: meta.replicas.len(),
                live,
                replicas: meta.replicas,
                coded,
            })
        })
        .collect();
    out.sort_by(|a, b| (a.live.len(), &a.name).cmp(&(b.live.len(), &b.name)));
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mayflower_net::{Topology, TreeParams};
    use mayflower_simcore::SimTime;
    use mayflower_telemetry::Registry;

    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mayfs-tracker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scan_orders_by_urgency_and_counts_only_confirmed_deaths() {
        let dir = temp_dir("scan");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let ns = Nameserver::open(Arc::clone(&topo), &dir, Default::default()).unwrap();
        let a = ns.create("files/a").unwrap();
        let b = ns.create("files/b").unwrap();
        ns.record_size("files/a", 64).unwrap();

        let mut det = FailureDetector::new(topo.hosts(), &Registry::new().scope("detector"));
        // Everything live: nothing under-replicated.
        assert!(scan(&ns, &det).is_empty());

        // Kill two of b's replicas and one of a's by silencing them.
        let now = SimTime::from_secs(10.0);
        for h in topo.hosts() {
            let dead = h == b.replicas[0] || h == b.replicas[1] || h == a.replicas[0];
            if !dead {
                det.heartbeat(h, now);
            }
        }
        det.tick(now);

        let under = scan(&ns, &det);
        assert_eq!(under.len(), 2);
        // Most urgent (fewest live replicas) first; ties by name.
        assert!(under
            .windows(2)
            .all(|w| (w[0].live.len(), &w[0].name) <= (w[1].live.len(), &w[1].name)));
        let ua = under.iter().find(|u| u.name == "files/a").unwrap();
        assert_eq!(ua.size, 64);
        assert_eq!(ua.target, ua.replicas.len());
        assert!(ua.missing() >= 1);
        assert!(ua.live.iter().all(|h| det.is_live(*h)));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suspects_do_not_count_as_lost() {
        let dir = temp_dir("suspect");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let ns = Nameserver::open(Arc::clone(&topo), &dir, Default::default()).unwrap();
        let a = ns.create("files/a").unwrap();

        let mut det = FailureDetector::new(topo.hosts(), &Registry::new().scope("detector"));
        // Silence one replica just long enough to be suspect, not dead.
        let now = SimTime::from_secs(3.0);
        for h in topo.hosts() {
            if h != a.replicas[0] {
                det.heartbeat(h, now);
            }
        }
        det.tick(now);
        assert_eq!(
            det.state(a.replicas[0]),
            crate::detector::HealthState::Suspect
        );
        assert!(scan(&ns, &det).is_empty());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coded_files_surface_lost_fragments() {
        let dir = temp_dir("coded");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let ns = Nameserver::open(Arc::clone(&topo), &dir, Default::default()).unwrap();
        let meta = ns
            .create_with("files/c", mayflower_fs::Redundancy::Coded { k: 4, m: 2 })
            .unwrap();
        ns.record_size("files/c", 4096).unwrap();

        let victim = meta
            .fragments
            .iter()
            .copied()
            .find(|h| !meta.replicas.contains(h))
            .unwrap();
        let silence = |det: &mut FailureDetector| {
            let now = SimTime::from_secs(10.0);
            for h in topo.hosts() {
                if h != victim {
                    det.heartbeat(h, now);
                }
            }
            det.tick(now);
        };

        // Unsealed: the dead fragment host strands nothing yet.
        let mut det = FailureDetector::new(topo.hosts(), &Registry::new().scope("detector"));
        silence(&mut det);
        assert!(scan(&ns, &det).is_empty());

        // Sealed: the loss surfaces with the rebuild parameters.
        ns.record_seal("files/c", 2).unwrap();
        let under = scan(&ns, &det);
        assert_eq!(under.len(), 1);
        let u = &under[0];
        assert_eq!(u.missing(), 0, "tail replicas are all live");
        let loss = u.coded.as_ref().unwrap();
        let idx = meta.fragments.iter().position(|h| *h == victim).unwrap();
        assert_eq!(loss.lost, vec![idx]);
        assert_eq!(loss.k, 4);
        assert_eq!(loss.fragments, meta.fragments);
        let chunk = ns.config().chunk_size;
        assert_eq!(loss.sealed_bytes, (2 * chunk).min(4096));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
