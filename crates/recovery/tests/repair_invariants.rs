//! Repair invariants under arbitrary replica loss, through the recovery
//! pipeline the system runs (detector → tracker → planner → executor →
//! `Cluster::repair_to`).
//!
//! Property: however replicas are killed (up to replication − 1 per
//! cluster), healing restores every file's replication factor, lands
//! every copy on a live host with the right bytes, and — when enough
//! racks survive — places every *replacement* in a rack no other
//! replica of the same file occupies (the §3.1 no-two-replicas-per-rack
//! constraint re-checked against the whole final set).

use std::collections::BTreeSet;
use std::sync::Arc;

use mayflower_flowserver::{Flowserver, FlowserverConfig};
use mayflower_fs::{Cluster, ClusterConfig, FileMeta};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_recovery::{RecoveryConfig, RecoveryManager, RecoveryReport, RepairOutcome};
use mayflower_simcore::testutil::{SeedGuard, TempDir};
use mayflower_simcore::SimTime;
use proptest::prelude::*;

/// Simulated seconds a heal may take: confirmation (5 s) plus a few
/// throttled executor ticks.
const HORIZON_SECS: u32 = 60;

fn cluster_in(dir: &TempDir, params: &TreeParams) -> Cluster {
    let topo = Arc::new(Topology::three_tier(params));
    Cluster::create(dir.path(), topo, ClusterConfig::default()).unwrap()
}

fn put(c: &Cluster, name: &str, data: &[u8]) -> FileMeta {
    let meta = c.nameserver().create(name).unwrap();
    for r in &meta.replicas {
        c.dataserver(*r).create_file(&meta).unwrap();
    }
    c.client(meta.primary()).append(name, data).unwrap();
    c.nameserver().lookup(name).unwrap()
}

/// Crashes `victims`, then ticks a recovery manager once per simulated
/// second until its report stamps full replication.
fn heal(c: &Cluster, victims: &BTreeSet<HostId>, seed: u64) -> RecoveryReport {
    let mut fsrv = Flowserver::new(Arc::clone(c.topology()), FlowserverConfig::default());
    let mut mgr = RecoveryManager::new(
        c,
        RecoveryConfig {
            seed,
            ..RecoveryConfig::default()
        },
    );
    for v in victims {
        c.dataserver(*v).crash();
    }
    for step in 0..=HORIZON_SECS {
        mgr.tick(c, &mut fsrv, SimTime::from_secs(f64::from(step)));
        if mgr.report().full_replication_at.is_some() {
            return mgr.into_report();
        }
    }
    panic!("not healed within {HORIZON_SECS} s: {:?}", mgr.report());
}

/// The hosts that received a committed copy of `name`.
fn replacements(report: &RecoveryReport, name: &str) -> Vec<HostId> {
    report
        .completed
        .iter()
        .filter(|r| r.file == name && r.outcome == RepairOutcome::Repaired)
        .map(|r| r.dest)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn kills_then_repairs_restore_factor_and_spread(
        seed in any::<u64>(),
        raw_kills in proptest::collection::vec(any::<u32>(), 1..3),
        n_files in 1usize..4,
        case_tag in any::<u64>(),
    ) {
        let _seed_guard = SeedGuard::new("repair_invariants::kills_then_repairs", seed);
        let dir = TempDir::new(&format!("prop-{case_tag}"));
        let c = cluster_in(&dir, &TreeParams::paper_testbed());
        let mut originals = Vec::new();
        for i in 0..n_files {
            originals.push(put(&c, &format!("files/f{i}"), format!("data-{i}").as_bytes()));
        }

        // Map raw kill ids onto replica-holding hosts (mod idiom) and
        // cap at replication − 1 so every file keeps a live source.
        let holders: Vec<HostId> = originals
            .iter()
            .flat_map(|m| m.replicas.iter().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut killed = BTreeSet::new();
        for raw in &raw_kills {
            killed.insert(holders[(*raw as usize) % holders.len()]);
            if killed.len() == 2 {
                break;
            }
        }
        let report = heal(&c, &killed, seed);

        let topo = Arc::clone(c.topology());
        for (i, original) in originals.iter().enumerate() {
            let name = format!("files/f{i}");
            let new_hosts = replacements(&report, &name);
            let meta = c.nameserver().lookup(&name).unwrap();

            // Replication factor restored, no duplicate hosts.
            prop_assert_eq!(meta.replicas.len(), original.replicas.len());
            let distinct: BTreeSet<_> = meta.replicas.iter().collect();
            prop_assert_eq!(distinct.len(), meta.replicas.len());

            // Every replica is live and holds the right bytes.
            for r in &meta.replicas {
                prop_assert!(!killed.contains(r));
                prop_assert!(c.dataserver(*r).has_file(meta.id));
                let (data, _) = c.dataserver(*r).read_local(meta.id, 0, meta.size).unwrap();
                let expect = format!("data-{i}").into_bytes();
                prop_assert_eq!(&data, &expect);
            }

            // One committed copy per lost replica, each now in the set.
            let lost = original.replicas.iter().filter(|r| killed.contains(r)).count();
            prop_assert_eq!(new_hosts.len(), lost);

            // Rack spread: the 16-rack testbed minus ≤2 hosts always
            // has fresh racks, so each replacement must occupy a rack
            // no other replica of this file uses.
            for n in &new_hosts {
                prop_assert!(!original.replicas.contains(n));
                prop_assert!(meta.replicas.contains(n));
                let others: Vec<_> = meta.replicas.iter().filter(|r| *r != n).collect();
                prop_assert!(
                    others.iter().all(|r| topo.rack_of(**r) != topo.rack_of(*n)),
                    "replacement {} shares a rack with {:?}", n, others
                );
            }
        }
    }
}

#[test]
fn repair_degrades_gracefully_when_racks_are_scarce() {
    let dir = TempDir::new("scarce");
    // One pod, two racks, four hosts: losing a replica can leave no
    // unused rack, yet the factor must still be restored.
    let c = cluster_in(
        &dir,
        &TreeParams {
            pods: 1,
            racks_per_pod: 2,
            hosts_per_rack: 2,
            ..TreeParams::paper_testbed()
        },
    );
    let meta = put(&c, "files/a", b"abc");
    let victim = meta.replicas[1];
    let report = heal(&c, &BTreeSet::from([victim]), 3);
    assert_eq!(replacements(&report, "files/a").len(), 1);
    let healed = c.nameserver().lookup("files/a").unwrap();
    assert_eq!(healed.replicas.len(), 3);
    assert!(!healed.replicas.contains(&victim));
    for r in &healed.replicas {
        assert!(c.dataserver(*r).has_file(healed.id));
    }
}
