//! The replication-vs-erasure-coding experiment (DESIGN.md §14).
//!
//! One cluster, two storage tiers with identical payloads: `files`
//! files at 3× replication and `files` files coded `k + m`. The run
//! measures the co-design tradeoff from three angles:
//!
//! * **Storage footprint** — physical chunk + fragment bytes per
//!   logical byte, walked from the dataservers. Replication pays
//!   `n×`; the coded tier converges to `(k + m) / k` once chunks
//!   seal (plus the per-fragment checksum frame).
//! * **Degraded read behaviour** — after crashing fragment hosts,
//!   each probe reads one sealed chunk from `k` fragment sources
//!   while seeded elephant flows load the fabric. The **Mayflower**
//!   arm asks the Flowserver for a joint k-source + path selection
//!   ([`select_coded_read`]); the **ECMP** arm takes the first `k`
//!   live fragments in fragment order and hashes each shard onto a
//!   path, blind to load. Both arms run the same shard sizes over the
//!   same background traffic in the fluid network, so every gap is
//!   purely scheduling quality. Two numbers come out per arm: the
//!   read's own completion time, and the completion of the background
//!   elephants the shards ran beside. Eq. 2's impact-aware cost
//!   steers shards *around* heavy flows — so the Mayflower arm never
//!   slows the elephants more than ECMP does, at a bounded premium on
//!   the read itself when every uncontended path is taken.
//! * **Repair cost** — rebuilding one lost replica (copy `size`
//!   bytes from one source) vs. one lost fragment (pull `k` shards,
//!   `sealed_bytes` of traffic, to restore `sealed_bytes / k`): the
//!   classic EC repair amplification, timed over Flowserver-scheduled
//!   background flows.
//!
//! Everything derives from the seed: the same
//! [`ErasureExperimentConfig`] always renders a byte-identical
//! [`ErasureRunResult`] JSON.
//!
//! [`select_coded_read`]: mayflower_flowserver::Flowserver::select_coded_read

use std::path::Path as FsPath;
use std::sync::Arc;

use mayflower_flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower_fs::{Cluster, ClusterConfig, FileMeta, FsError, NameserverConfig, Redundancy};
use mayflower_net::{ecmp_path, FlowKey, HostId, Topology, TreeParams};
use mayflower_simcore::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::driver::{last_secs, mean_secs, Driver};
use crate::stats::mean;

/// Driver tags: the flows an arm times, and the traffic they run beside.
const OWN: usize = 0;
const BACKGROUND: usize = 1;

/// Configuration of one replication-vs-EC run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErasureExperimentConfig {
    /// Seed for placement, probe draws and background traffic.
    pub seed: u64,
    /// Files **per tier** (the run writes `2 × files` in total).
    pub files: usize,
    /// Bytes per file. A multiple of `chunk_size` keeps the coded
    /// tier fully sealed, which makes the footprint comparison clean.
    pub file_size: usize,
    /// Chunk size in bytes (small, so a test-sized file spans chunks).
    pub chunk_size: u64,
    /// Data fragments per stripe.
    pub k: usize,
    /// Parity fragments per stripe.
    pub m: usize,
    /// Fragment-holding hosts crashed before the degraded phase.
    /// Must stay ≤ `m` so every coded file keeps `k` live fragments.
    pub lost_hosts: usize,
    /// Degraded read probes (each timed under both arms).
    pub reads: usize,
    /// Seeded elephant flows loading the fabric during each probe.
    pub background_flows: usize,
}

impl Default for ErasureExperimentConfig {
    fn default() -> ErasureExperimentConfig {
        ErasureExperimentConfig {
            seed: 0xEC0DE,
            files: 4,
            file_size: 4096,
            chunk_size: 512,
            k: 4,
            m: 2,
            lost_hosts: 2,
            reads: 12,
            background_flows: 3,
        }
    }
}

/// Physical-vs-logical bytes of one storage tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageFootprint {
    /// Logical bytes the tier stores (sum of file sizes).
    pub logical: u64,
    /// Physical bytes on dataserver disks: replicated chunks plus
    /// framed fragments.
    pub physical: u64,
    /// `physical / logical`.
    pub overhead: f64,
}

/// One timed repair, for the replication-vs-EC cost comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairSample {
    /// Bytes of redundancy the repair restored.
    pub bytes_restored: u64,
    /// Network bytes it took (EC pays `k×` amplification).
    pub bytes_moved: u64,
    /// Fluid-model completion time of the repair transfer(s).
    pub secs: f64,
}

/// The deterministic outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErasureRunResult {
    /// The knobs that produced this result.
    pub config: ErasureExperimentConfig,
    /// Fragment hosts crashed before the degraded phase.
    pub crashed: Vec<HostId>,
    /// Footprint of the replicated tier.
    pub replicated_storage: StorageFootprint,
    /// Footprint of the coded tier.
    pub coded_storage: StorageFootprint,
    /// Per-probe degraded read times, Flowserver-scheduled arm.
    pub mayflower_read_secs: Vec<f64>,
    /// Per-probe degraded read times, ECMP arm (same probes).
    pub ecmp_read_secs: Vec<f64>,
    /// Mean of `mayflower_read_secs`.
    pub mayflower_mean_secs: f64,
    /// Mean of `ecmp_read_secs`.
    pub ecmp_mean_secs: f64,
    /// Mean completion of the background flows while the
    /// Flowserver-scheduled read ran — the interference the read
    /// inflicted on the rest of the cluster.
    pub mayflower_bg_mean_secs: f64,
    /// Same, under the ECMP arm's hash-routed shards.
    pub ecmp_bg_mean_secs: f64,
    /// Re-replicating one lost replica of a replicated file.
    pub replica_repair: RepairSample,
    /// Rebuilding one lost fragment of a coded file.
    pub coded_repair: RepairSample,
}

fn rep_name(i: usize) -> String {
    format!("erasure/rep{i:03}")
}

fn ec_name(i: usize) -> String {
    format!("erasure/ec{i:03}")
}

/// Distinct, deterministic content per file so byte checks mean
/// something.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|b| ((b * 31 + i * 7 + 3) % 251) as u8)
        .collect()
}

/// Chunk and fragment bytes of `metas` across the cluster's disks.
fn footprint(cluster: &Cluster, metas: &[FileMeta]) -> Result<StorageFootprint, FsError> {
    let mut logical = 0u64;
    let mut physical = 0u64;
    for meta in metas {
        logical += meta.size;
        for r in &meta.replicas {
            physical += cluster.dataserver(*r)?.local_size(meta.id)?;
        }
        for (j, host) in meta.fragments.iter().enumerate() {
            for chunk in 0..meta.sealed_chunks {
                let path = cluster.dataserver(*host)?.fragment_path(meta.id, chunk, j);
                if let Ok(md) = std::fs::metadata(path) {
                    physical += md.len();
                }
            }
        }
    }
    Ok(StorageFootprint {
        logical,
        physical,
        overhead: physical as f64 / logical.max(1) as f64,
    })
}

/// One degraded-read probe, drawn up front so both arms replay the
/// identical scenario.
struct Probe {
    client: HostId,
    file: usize,
    chunk: u64,
    /// (src, dst, bits) of each background elephant.
    background: Vec<(HostId, HostId, f64)>,
}

/// Runs the experiment in `dir` (the cluster's on-disk root).
///
/// # Errors
///
/// Returns filesystem errors from cluster setup or the writes; the
/// probe phase itself never fails the run.
///
/// # Panics
///
/// Panics if the config is internally inconsistent (`lost_hosts > m`,
/// or `k + m` exceeding the testbed host count).
pub fn run_erasure(
    cfg: &ErasureExperimentConfig,
    dir: &FsPath,
) -> Result<ErasureRunResult, FsError> {
    assert!(
        cfg.lost_hosts <= cfg.m,
        "crashing more than m fragment hosts makes coded files unreadable"
    );
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let cluster = Cluster::create(
        dir,
        Arc::clone(&topo),
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: cfg.chunk_size,
                ..NameserverConfig::default()
            },
            ..ClusterConfig::default()
        },
    )?;

    // Identical payloads on both tiers.
    let mut client = cluster.client(HostId(0));
    let mut rep_metas = Vec::new();
    let mut ec_metas = Vec::new();
    for i in 0..cfg.files {
        client.create(&rep_name(i))?;
        client.append(&rep_name(i), &payload(i, cfg.file_size))?;
        client.create_with(&ec_name(i), Redundancy::Coded { k: cfg.k, m: cfg.m })?;
        client.append(&ec_name(i), &payload(i, cfg.file_size))?;
        rep_metas.push(cluster.nameserver().lookup(&rep_name(i))?);
        ec_metas.push(cluster.nameserver().lookup(&ec_name(i))?);
    }

    // Footprints, measured with everything healthy.
    let replicated_storage = footprint(&cluster, &rep_metas)?;
    let coded_storage = footprint(&cluster, &ec_metas)?;

    // Crash `lost_hosts` pure fragment holders (hosts in no replica
    // list, so the replicated tier stays untouched), lowest id first.
    let is_replica = |h: HostId| {
        rep_metas
            .iter()
            .chain(&ec_metas)
            .any(|m| m.replicas.contains(&h))
    };
    let crashed: Vec<HostId> = topo
        .hosts()
        .into_iter()
        .filter(|h| !is_replica(*h) && ec_metas.iter().any(|m| m.fragments.contains(h)))
        .take(cfg.lost_hosts)
        .collect();
    for h in &crashed {
        cluster.dataserver(*h)?.crash();
    }

    // Draw every probe up front from one rng so the two arms replay
    // identical scenarios.
    let mut rng = SimRng::seed_from(cfg.seed);
    let live: Vec<HostId> = topo
        .hosts()
        .into_iter()
        .filter(|h| !crashed.contains(h))
        .collect();
    let pick = |xs: &[HostId], rng: &mut SimRng| xs[(rng.next_u64() as usize) % xs.len()];
    let bg_bits = cfg.chunk_size as f64 * 8.0 * 64.0;
    let probes: Vec<Probe> = (0..cfg.reads)
        .map(|j| {
            let file = j % cfg.files;
            let sealed = ec_metas[file].sealed_chunks.max(1);
            let chunk = rng.next_u64() % sealed;
            let client = pick(&live, &mut rng);
            let background = (0..cfg.background_flows)
                .map(|_| {
                    let src = pick(&live, &mut rng);
                    let mut dst = pick(&live, &mut rng);
                    if dst == src {
                        dst = live[(live.iter().position(|h| *h == src).unwrap() + 1) % live.len()];
                    }
                    (src, dst, bg_bits)
                })
                .collect();
            Probe {
                client,
                file,
                chunk,
                background,
            }
        })
        .collect();

    // Each probe gets a fresh Flowserver + two fluid fabrics carrying
    // the same background elephants; only the shard scheduling
    // differs between the arms.
    let mut mayflower_read_secs = Vec::new();
    let mut ecmp_read_secs = Vec::new();
    let mut mayflower_bg_secs = Vec::new();
    let mut ecmp_bg_secs = Vec::new();
    for (j, probe) in probes.iter().enumerate() {
        let meta = &ec_metas[probe.file];
        let sources: Vec<HostId> = meta
            .fragments
            .iter()
            .copied()
            .filter(|h| !crashed.contains(h))
            .collect();
        let chunk_bits = (meta.chunk_payload_len(probe.chunk) as f64 * 8.0).max(1.0);
        let t0 = SimTime::ZERO;

        let fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
        let mut mf = Driver::new(&topo, Some(fsrv));
        let mut ecmp = Driver::new(&topo, None);
        for (src, dst, bits) in &probe.background {
            // The elephants are other clients' foreground traffic: the
            // Flowserver schedules them (and therefore knows about
            // them); both fabrics carry the identical flows.
            let fsrv = mf.flowserver();
            if let Selection::Single(a) = fsrv.select_path_for_replica(*dst, *src, *bits, t0) {
                mf.admit(BACKGROUND, a.path.clone(), *bits, Some(a.cookie), t0);
                ecmp.admit(BACKGROUND, a.path, *bits, None, t0);
            }
        }

        // Mayflower: joint k-source + path selection.
        let fsrv = mf.flowserver();
        let selection = fsrv.select_coded_read(probe.client, &sources, cfg.k, chunk_bits, t0);
        for a in selection.assignments() {
            mf.admit(OWN, a.path.clone(), a.size_bits, Some(a.cookie), t0);
        }
        let done = mf.drain();
        mayflower_read_secs.push(last_secs(&done, OWN));
        mayflower_bg_secs.push(mean_secs(&done, BACKGROUND));

        // ECMP: first k live fragments in fragment order, hash-routed.
        let shard_bits = chunk_bits / cfg.k as f64;
        let shard_sources = sources
            .iter()
            .take(cfg.k)
            .filter(|src| **src != probe.client);
        for (s, src) in shard_sources.enumerate() {
            let key = FlowKey::new(*src, probe.client, (j * 16 + s) as u64);
            if let Some(path) = ecmp_path(&topo, key) {
                ecmp.admit(OWN, path, shard_bits, None, t0);
            }
        }
        let done = ecmp.drain();
        ecmp_read_secs.push(last_secs(&done, OWN));
        ecmp_bg_secs.push(mean_secs(&done, BACKGROUND));
    }

    // Repair cost: one lost replica vs. one lost fragment, each
    // scheduled by a fresh Flowserver on an otherwise idle fabric.
    let t0 = SimTime::ZERO;
    let fsrv = || Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
    let mut fabric = Driver::new(&topo, Some(fsrv()));
    let rep = &rep_metas[0];
    let rep_dest = live
        .iter()
        .copied()
        .find(|h| !rep.replicas.contains(h))
        .expect("a spare host exists");
    let rep_bits = (rep.size as f64 * 8.0).max(1.0);
    let scheduler = fabric.flowserver();
    if let Selection::Single(a) =
        scheduler.select_repair_flow(rep_dest, &[rep.primary()], rep_bits, t0)
    {
        fabric.admit(OWN, a.path, rep_bits, Some(a.cookie), t0);
    }
    let replica_repair = RepairSample {
        bytes_restored: rep.size,
        bytes_moved: rep.size,
        secs: last_secs(&fabric.drain(), OWN),
    };

    let ec = &ec_metas[0];
    let ec_dest = live
        .iter()
        .copied()
        .find(|h| !ec.fragments.contains(h) && !ec.replicas.contains(h))
        .expect("a spare host exists");
    let sealed = ec.sealed_bytes().min(ec.size);
    let shard_bits = (sealed as f64 * 8.0 / cfg.k as f64).max(1.0);
    let mut fabric = Driver::new(&topo, Some(fsrv()));
    // The k shard pulls are scheduled one by one so each sees the
    // previously admitted ones (the planner's contention-aware idiom).
    let shard_sources = ec.fragments.iter().filter(|h| !crashed.contains(h));
    for src in shard_sources.take(cfg.k) {
        let scheduler = fabric.flowserver();
        if let Selection::Single(a) = scheduler.select_repair_flow(ec_dest, &[*src], shard_bits, t0)
        {
            fabric.admit(OWN, a.path, shard_bits, Some(a.cookie), t0);
        }
    }
    let coded_repair = RepairSample {
        bytes_restored: sealed / cfg.k as u64,
        bytes_moved: sealed,
        secs: last_secs(&fabric.drain(), OWN),
    };

    Ok(ErasureRunResult {
        config: cfg.clone(),
        crashed,
        replicated_storage,
        coded_storage,
        mayflower_mean_secs: mean(&mayflower_read_secs),
        ecmp_mean_secs: mean(&ecmp_read_secs),
        mayflower_bg_mean_secs: mean(&mayflower_bg_secs),
        ecmp_bg_mean_secs: mean(&ecmp_bg_secs),
        mayflower_read_secs,
        ecmp_read_secs,
        replica_repair,
        coded_repair,
    })
}

#[cfg(test)]
mod tests {
    use mayflower_simcore::testutil::TempDir;

    use super::*;

    fn quick() -> ErasureExperimentConfig {
        ErasureExperimentConfig {
            files: 2,
            file_size: 1024,
            chunk_size: 256,
            reads: 4,
            background_flows: 3,
            ..ErasureExperimentConfig::default()
        }
    }

    #[test]
    fn coded_tier_stores_less_and_reads_survive_losses() {
        let dir = TempDir::new("storage");
        let r = run_erasure(&quick(), dir.path()).unwrap();
        assert_eq!(r.crashed.len(), 2);
        // 3× replication vs (k + m)/k plus framing: the coded tier
        // must be markedly cheaper.
        assert!((r.replicated_storage.overhead - 3.0).abs() < 0.01);
        assert!(r.coded_storage.overhead < 2.0);
        assert!(r.coded_storage.overhead > 1.4); // ≥ (4+2)/4
                                                 // Every probe completed: degraded reads never stall.
        assert_eq!(r.mayflower_read_secs.len(), 4);
        assert_eq!(r.ecmp_read_secs.len(), 4);
        assert!(r.mayflower_read_secs.iter().all(|s| *s > 0.0));
        assert!(r.ecmp_read_secs.iter().all(|s| *s > 0.0));
        // EC repair amplification: k× the restored bytes.
        assert_eq!(
            r.coded_repair.bytes_moved,
            r.coded_repair.bytes_restored * 4
        );
        assert!(r.replica_repair.secs > 0.0);
        assert!(r.coded_repair.secs > 0.0);
    }

    #[test]
    fn scheduled_arm_protects_background_flows() {
        let dir = TempDir::new("arms");
        let r = run_erasure(&quick(), dir.path()).unwrap();
        // The joint selection sees the background elephants; hash
        // routing does not. The scheduled arm never interferes more,
        // and its read-latency premium for doing so stays bounded.
        assert!(
            r.mayflower_bg_mean_secs <= r.ecmp_bg_mean_secs + 1e-12,
            "mayflower bg {} vs ecmp bg {}",
            r.mayflower_bg_mean_secs,
            r.ecmp_bg_mean_secs
        );
        assert!(
            r.mayflower_mean_secs <= r.ecmp_mean_secs * 1.5,
            "mayflower read {} vs ecmp read {}",
            r.mayflower_mean_secs,
            r.ecmp_mean_secs
        );
    }

    #[test]
    fn same_seed_runs_render_byte_identical_json() {
        let one = TempDir::new("det-a");
        let two = TempDir::new("det-b");
        let a = run_erasure(&quick(), one.path()).unwrap();
        let b = run_erasure(&quick(), two.path()).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
    }
}
