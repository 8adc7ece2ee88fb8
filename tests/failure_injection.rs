//! Failure-injection integration tests: replica loss, repair, and
//! Flowserver-steered reads interacting across crates.

use std::sync::Arc;

use std::sync::atomic::{AtomicBool, Ordering};

use mayflower::flowserver::{Flowserver, FlowserverConfig};
use mayflower::fs::nameserver::NameserverConfig;
use mayflower::fs::{
    Cluster, ClusterConfig, FallbackSelector, FileMeta, NearestSelector, ReplicaSelector,
};
use mayflower::net::{HostId, NodeKind, Topology, TreeParams};
use mayflower::sim::engine::NoHooks;
use mayflower::sim::{replay_full, FaultEvent, FaultSchedule, ReplayOptions, Strategy};
use mayflower::simcore::testutil::{SeedGuard, TempDir};
use mayflower::simcore::{SimRng, SimTime};
use mayflower::workload::{TrafficMatrix, WorkloadParams};

mod common;
use common::FlowserverSelector;

fn cluster(dir: &TempDir) -> Cluster {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    Cluster::create(
        dir.path(),
        topo,
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: 4096,
                ..NameserverConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .expect("cluster")
}

/// The first host outside `meta`'s replica set whose rack no replica
/// occupies: an explicit repair destination.
fn spare(c: &Cluster, meta: &FileMeta) -> HostId {
    let topo = c.topology();
    topo.hosts()
        .into_iter()
        .find(|h| {
            meta.replicas
                .iter()
                .all(|r| topo.rack_of(*r) != topo.rack_of(*h))
        })
        .expect("a rack with no replica")
}

#[test]
fn lose_repair_read_cycle_preserves_data() {
    let dir = TempDir::new("cycle");
    let c = cluster(&dir);
    let mut client = c.client(HostId(0));
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
    let _meta = client.create("cycled").unwrap();
    client.append("cycled", &payload).unwrap();

    // Lose and repair each non-primary replica in turn, reading after
    // every step; the replica set churns but the data never does.
    for round in 0..4 {
        let current = c.nameserver().lookup("cycled").unwrap();
        let victim = current.replicas[1 + (round % 2)];
        c.dataserver(victim)
            .unwrap()
            .delete_file(current.id)
            .unwrap();
        // Read with a lost replica (failover path).
        let mut reader = c.client(HostId(37));
        assert_eq!(reader.read("cycled").unwrap(), payload, "round {round}");
        // Repair onto a host outside the replica set, and read again.
        let dest = spare(&c, &current);
        let copied = c.repair_to("cycled", current.primary(), dest).unwrap();
        assert_eq!(copied, payload.len() as u64, "round {round}");
        let mut reader = c.client(HostId(22));
        reader.set_cache_ttl(std::time::Duration::ZERO);
        assert_eq!(reader.read("cycled").unwrap(), payload, "round {round}");
    }
    // Appends keep working on the repaired replica set.
    let mut writer = c.client(HostId(5));
    writer.set_cache_ttl(std::time::Duration::ZERO);
    writer.append("cycled", b"tail").unwrap();
    let mut expected = payload;
    expected.extend_from_slice(b"tail");
    assert_eq!(writer.read("cycled").unwrap(), expected);
}

#[test]
fn flowserver_steered_reads_survive_replica_loss_and_migration() {
    let dir = TempDir::new("steered-loss");
    let c = cluster(&dir);
    let topo = c.topology().clone();
    let mut writer = c.client(HostId(1));
    let payload: Vec<u8> = (0..9_000u32).map(|i| (i % 199) as u8).collect();
    let meta = writer.create("steered").unwrap();
    writer.append("steered", &payload).unwrap();

    // The Flowserver may steer to the replica we are about to lose;
    // the client's failover keeps the read correct either way.
    let victim = meta.replicas[2];
    c.dataserver(victim).unwrap().delete_file(meta.id).unwrap();
    let mut reader = c.client_with_selector(
        HostId(30),
        Box::new(FlowserverSelector {
            fs: Flowserver::new(topo.clone(), FlowserverConfig::default()),
        }),
    );
    reader.set_cache_ttl(std::time::Duration::ZERO);
    assert_eq!(reader.read("steered").unwrap(), payload);

    // After repair, steered reads use the *new* replica set.
    let dest = spare(&c, &meta);
    c.repair_to("steered", meta.primary(), dest).unwrap();
    let mut reader = c.client_with_selector(
        HostId(63),
        Box::new(FlowserverSelector {
            fs: Flowserver::new(topo, FlowserverConfig::default()),
        }),
    );
    reader.set_cache_ttl(std::time::Duration::ZERO);
    assert_eq!(reader.read("steered").unwrap(), payload);
    let repaired = c.nameserver().lookup("steered").unwrap();
    assert!(!repaired.replicas.contains(&victim));
    assert!(repaired.replicas.contains(&dest));
}

#[test]
fn flowserver_outage_falls_back_to_nearest_replica_with_correct_data() {
    let dir = TempDir::new("fs-outage");
    let c = cluster(&dir);
    let topo = c.topology().clone();
    let mut writer = c.client(HostId(2));
    let payload: Vec<u8> = (0..17_000u32).map(|i| (i % 251) as u8).collect();
    writer.create("outage").unwrap();
    writer.append("outage", &payload).unwrap();

    // The availability flag stands in for the client's RPC timeout to
    // the Flowserver; the fault injector flips it from outside.
    let flowserver_up = Arc::new(AtomicBool::new(true));
    let steered = FlowserverSelector {
        fs: Flowserver::new(topo.clone(), FlowserverConfig::default()),
    };
    let selector = FallbackSelector::new(
        steered,
        NearestSelector::new(topo.clone()),
        flowserver_up.clone(),
    );
    let mut reader = c.client_with_selector(HostId(33), Box::new(selector));
    reader.set_cache_ttl(std::time::Duration::ZERO);

    // Healthy control plane: steered read.
    assert_eq!(reader.read("outage").unwrap(), payload);
    // Flowserver outage mid-session: the nearest-replica fallback
    // serves the same bytes — a broken control plane never makes data
    // unreadable.
    flowserver_up.store(false, Ordering::SeqCst);
    assert_eq!(reader.read("outage").unwrap(), payload);
    // Recovery: steered again, still correct.
    flowserver_up.store(true, Ordering::SeqCst);
    assert_eq!(reader.read("outage").unwrap(), payload);

    // The degraded-mode counter is observable on an un-boxed selector.
    let mut direct = FallbackSelector::new(
        FlowserverSelector {
            fs: Flowserver::new(topo.clone(), FlowserverConfig::default()),
        },
        NearestSelector::new(topo),
        flowserver_up.clone(),
    );
    let meta = c.nameserver().lookup("outage").unwrap();
    flowserver_up.store(false, Ordering::SeqCst);
    let picked = direct.select_read(HostId(33), &meta.replicas, 100);
    assert_eq!(direct.fallbacks_taken(), 1);
    assert!(meta.replicas.contains(&picked[0].replica));
}

#[test]
fn agg_switch_failure_mid_read_reroutes_and_every_job_completes() {
    // Simulation level: an aggregation switch dies while transfers are
    // in flight and comes back later; aborted subflows are retried and
    // every read still completes.
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let agg_raw = topo
        .nodes()
        .iter()
        .filter(|n| matches!(n.kind(), NodeKind::EdgeSwitch | NodeKind::AggSwitch))
        .position(|n| matches!(n.kind(), NodeKind::AggSwitch))
        .expect("testbed has aggregation switches") as u32;
    let mut faults = FaultSchedule::default();
    faults.push(SimTime::from_secs(2.0), FaultEvent::SwitchDown(agg_raw));
    faults.push(SimTime::from_secs(6.0), FaultEvent::SwitchUp(agg_raw));

    let _seed_guard = SeedGuard::new("failure_injection::switch_outage_replay", 9);
    let mut rng = SimRng::seed_from(9);
    let params = WorkloadParams {
        job_count: 60,
        file_count: 40,
        ..WorkloadParams::default()
    };
    let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
    let opts = ReplayOptions {
        faults,
        ..ReplayOptions::default()
    };
    let out = replay_full(
        &topo,
        &matrix,
        Strategy::Mayflower,
        &opts,
        &mut rng,
        &mut NoHooks,
    );
    let (jobs, report) = (out.jobs, out.fault_report);
    assert_eq!(jobs.len(), 60, "no job is lost to the dead switch");
    for j in &jobs {
        assert!(j.finish >= j.arrival, "job {} finished", j.id);
    }
    assert_eq!(report.applied[0].kind, "switch-down");
    // The heal is applied too unless every job drained first (the
    // engine stops once all jobs complete).
    if let Some(second) = report.applied.get(1) {
        assert_eq!(second.kind, "switch-up");
    }

    // Filesystem level: with the same dead switch reflected in the
    // Flowserver's link state, a steered read routes around it and the
    // bytes are still exactly right.
    let dir = TempDir::new("agg-switch");
    let c = cluster(&dir);
    let ctopo = c.topology().clone();
    let mut writer = c.client(HostId(4));
    let payload: Vec<u8> = (0..12_000u32).map(|i| (i % 239) as u8).collect();
    writer.create("rerouted").unwrap();
    writer.append("rerouted", &payload).unwrap();

    let mut fs = Flowserver::new(ctopo.clone(), FlowserverConfig::default());
    let dead_agg = ctopo
        .nodes()
        .iter()
        .find(|n| matches!(n.kind(), NodeKind::AggSwitch))
        .map(mayflower::net::Node::id)
        .unwrap();
    for l in ctopo.out_links(dead_agg) {
        fs.set_link_state(*l, false);
        fs.set_link_state(ctopo.reverse_link(*l), false);
    }
    let mut reader = c.client_with_selector(HostId(55), Box::new(FlowserverSelector { fs }));
    reader.set_cache_ttl(std::time::Duration::ZERO);
    assert_eq!(reader.read("rerouted").unwrap(), payload);
}

#[test]
fn stale_stats_after_missed_polls_still_selects_and_reads_correctly() {
    let dir = TempDir::new("stale-stats");
    let c = cluster(&dir);
    let topo = c.topology().clone();
    let mut writer = c.client(HostId(7));
    let payload: Vec<u8> = (0..8_000u32).map(|i| (i % 233) as u8).collect();
    writer.create("stale").unwrap();
    writer.append("stale", &payload).unwrap();

    // Three polls in a row are lost: no counter reaches the
    // Flowserver, which is the only way its model goes dark. The model
    // is stale and says so; selection must keep answering regardless.
    let mut fs = Flowserver::new(topo, FlowserverConfig::default());
    let poll = fs.config().poll_interval_secs;
    for k in 1..=3u32 {
        let now = SimTime::from_secs(poll * f64::from(k));
        fs.note_poll_missed(now);
        fs.expire_stale_freezes(now);
    }
    assert_eq!(fs.missed_polls(), 3);
    let now = SimTime::from_secs(poll * 3.0);
    assert!(
        fs.staleness_secs(now) >= poll * 2.0,
        "staleness reflects the silent interval"
    );

    let mut reader = c.client_with_selector(HostId(21), Box::new(FlowserverSelector { fs }));
    reader.set_cache_ttl(std::time::Duration::ZERO);
    assert_eq!(reader.read("stale").unwrap(), payload);
}

#[test]
fn kvstore_torn_wal_does_not_lose_earlier_files() {
    // End-to-end crash path: tear the nameserver's WAL mid-record and
    // reopen — earlier creates survive, and the rebuild path recovers
    // anything the torn tail lost.
    let dir = TempDir::new("tornwal");
    let c = cluster(&dir);
    let mut client = c.client(HostId(0));
    client.create("persisted").unwrap();
    client.append("persisted", b"safe bytes").unwrap();
    let ns_dir = dir.path().join("nameserver");
    drop(client);
    let dataservers = c.dataservers();
    drop(c);

    // Tear the WAL's last 5 bytes (fsync-off crash).
    let wal = ns_dir.join("wal.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    assert!(len > 5, "wal has content");
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    // The paper's recovery: rebuild from dataservers instead of
    // trusting the possibly-stale database.
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let fresh = mayflower::fs::Nameserver::open(
        topo,
        &dir.path().join("rebuilt-ns"),
        NameserverConfig::default(),
    )
    .unwrap();
    fresh.rebuild_from_dataservers(&dataservers).unwrap();
    let meta = fresh.lookup("persisted").unwrap();
    assert_eq!(meta.size, 10, "rebuilt size reflects the appended bytes");
}
