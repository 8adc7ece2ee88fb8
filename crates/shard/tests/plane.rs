//! Integration tests for the sharded metadata plane: epoch/ownership
//! fencing, router retry, online migration (bulk copy → flip → gc),
//! flowserver-scheduled transfers, persistence, and the full
//! [`ShardedCluster`] data path.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mayflower_flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower_fs::nameserver::NameserverConfig;
use mayflower_fs::{ClusterConfig, FsError, MetadataService, NsOp, Redundancy};
use mayflower_net::{Topology, TreeParams};
use mayflower_shard::{
    migrate, FlowserverScheduler, Handoff, RebalanceConfig, Rebalancer, ShardError,
    ShardPlaneConfig, ShardRouter, ShardedCluster, ShardedNameserver,
};
use mayflower_simcore::SimTime;
use mayflower_telemetry::Registry;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "mayflower-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn small_topo() -> Arc<Topology> {
    Arc::new(Topology::three_tier(&TreeParams {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 2,
        ..TreeParams::paper_testbed()
    }))
}

fn open_plane(dir: &TempDir, shards: u32) -> (Arc<ShardedNameserver>, Registry) {
    let registry = Registry::new();
    let plane = ShardedNameserver::open(
        &dir.0,
        small_topo(),
        ShardPlaneConfig {
            shards,
            vnodes: 32,
            ..ShardPlaneConfig::default()
        },
        &registry,
    )
    .unwrap();
    (Arc::new(plane), registry)
}

#[test]
fn fenced_ops_reject_stale_epoch_and_wrong_shard() {
    let dir = TempDir::new("fence");
    let (plane, _reg) = open_plane(&dir, 4);
    let map = plane.shard_map();
    let ring = map.ring();
    let owner = ring.owner("a/file");
    plane
        .create_with_at(owner, map.epoch, "a/file", Default::default())
        .unwrap();

    match plane.lookup_at(owner, map.epoch + 7, "a/file") {
        Err(ShardError::StaleMap { current_epoch }) => assert_eq!(current_epoch, map.epoch),
        other => panic!("expected StaleMap, got {other:?}"),
    }

    let wrong = map.shards.iter().copied().find(|s| *s != owner).unwrap();
    match plane.lookup_at(wrong, map.epoch, "a/file") {
        Err(ShardError::NotOwner { owner: o }) => assert_eq!(o, owner),
        other => panic!("expected NotOwner, got {other:?}"),
    }

    // Correct route still works, and shard-level errors pass through.
    plane.lookup_at(owner, map.epoch, "a/file").unwrap();
    let missing_owner = ring.owner("no/such");
    match plane.lookup_at(missing_owner, map.epoch, "no/such") {
        Err(ShardError::Fs(FsError::NotFound(_))) => {}
        other => panic!("expected NotFound, got {other:?}"),
    }
}

#[test]
fn router_rides_out_a_migration_under_a_long_lease() {
    let dir = TempDir::new("router");
    let (plane, reg) = open_plane(&dir, 2);
    let router = ShardRouter::new(plane.clone(), &reg.scope("shard_router"));
    router.set_lease(Duration::from_secs(3600));
    for i in 0..50 {
        router
            .create_with(&format!("dir/file-{i}"), Default::default())
            .unwrap();
    }
    let before = router.cached_epoch();

    let map = plane.shard_map();
    let grown = map.with_shard_added(map.next_shard_id());
    migrate(&plane, grown, 16, None).unwrap();
    assert_eq!(plane.epoch(), before + 1);

    // The router's cache is now stale for every key, and its lease
    // won't expire; the fences force exactly one refresh.
    for i in 0..50 {
        let meta = router.lookup(&format!("dir/file-{i}")).unwrap();
        assert_eq!(meta.name, format!("dir/file-{i}"));
    }
    assert_eq!(router.cached_epoch(), before + 1);
}

#[test]
fn migration_moves_keys_schedules_flows_and_gcs_sources() {
    let dir = TempDir::new("migrate");
    let (plane, _reg) = open_plane(&dir, 2);
    let map = plane.shard_map();
    for i in 0..200 {
        let name = format!("data/file-{i}");
        let shard = map.ring().owner(&name);
        plane
            .create_with_at(shard, map.epoch, &name, Default::default())
            .unwrap();
    }
    assert_eq!(plane.file_count(), 200);

    let topo = plane.topology().clone();
    let mut fsrv = Flowserver::new(topo, FlowserverConfig::default());
    let registry = Registry::new();
    fsrv.attach_metrics(&registry);
    let mut sched = FlowserverScheduler::new(&mut fsrv, SimTime::ZERO);

    let grown = map.with_shard_added(map.next_shard_id());
    let new_ring = grown.ring();
    let report = migrate(&plane, grown.clone(), 16, Some(&mut sched)).unwrap();

    assert!(report.keys_copied > 0, "a third shard must take some keys");
    assert!(report.bytes_copied > 0);
    assert!(!sched.selections.is_empty(), "transfers must be scheduled");
    for (src, dst, bits, sel) in &sched.selections {
        assert_ne!(src, dst);
        assert!(*bits > 0.0);
        assert!(
            matches!(sel, Selection::Single(_) | Selection::Local),
            "background migration paths should be available on an idle net"
        );
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("flowserver_migration_selections_total"),
        Some(sched.selections.len() as u64)
    );

    // No file lost, no file duplicated, every copy on its new owner.
    assert_eq!(plane.file_count(), 200);
    assert_eq!(plane.epoch(), grown.epoch);
    for (id, _files, _ops) in plane.shard_stats() {
        assert!(grown.shards.contains(&id));
    }
    for meta in plane.list() {
        let owner = new_ring.owner(&meta.name);
        let m = plane
            .lookup_at(owner, grown.epoch, &meta.name)
            .expect("every file is served by its new owner");
        assert_eq!(m.name, meta.name);
    }
    assert_eq!(report.keys_gced, report.keys_copied);
}

#[test]
fn flip_reconciles_writes_that_raced_the_bulk_copy() {
    let dir = TempDir::new("delta");
    let (plane, _reg) = open_plane(&dir, 2);
    let map = plane.shard_map();
    let ring = map.ring();
    for i in 0..120 {
        let name = format!("delta/file-{i}");
        plane
            .create_with_at(ring.owner(&name), map.epoch, &name, Default::default())
            .unwrap();
    }
    let grown = map.with_shard_added(map.next_shard_id());
    let new_ring = grown.ring();
    // Pick one moving key to delete mid-copy and one to mutate.
    let moving: Vec<String> = (0..120)
        .map(|i| format!("delta/file-{i}"))
        .filter(|n| new_ring.owner(n) != ring.owner(n))
        .collect();
    assert!(moving.len() >= 2, "need racing keys for this test");

    let mut handoff = Handoff::begin(&plane, grown.clone(), 8).unwrap();
    // Copy everything in bulk first, so the racing writes land after
    // their keys were copied — the flip's delta pass must fix both.
    while handoff.remaining() > 0 {
        handoff.copy_batch().unwrap();
    }
    let deleted = &moving[0];
    let resized = &moving[1];
    plane
        .submit_at(
            ring.owner(deleted),
            map.epoch,
            &NsOp::Delete(deleted.clone()),
        )
        .unwrap();
    let resize = NsOp::RecordSize {
        name: resized.clone(),
        size: 4096,
    };
    plane
        .submit_at(ring.owner(resized), map.epoch, &resize)
        .unwrap();

    handoff.flip().unwrap();
    handoff.gc().unwrap();

    // The deleted key stays deleted; the resized key's new size
    // survived the handoff.
    match plane.lookup_at(new_ring.owner(deleted), grown.epoch, deleted) {
        Err(ShardError::Fs(FsError::NotFound(_))) => {}
        other => panic!("deleted key resurrected by migration: {other:?}"),
    }
    let meta = plane
        .lookup_at(new_ring.owner(resized), grown.epoch, resized)
        .unwrap();
    assert_eq!(meta.size, 4096);
    assert_eq!(plane.file_count(), 119);
}

#[test]
fn plane_reopens_with_its_persisted_post_migration_map() {
    let dir = TempDir::new("persist");
    let grown_epoch;
    let grown_shards;
    {
        let (plane, _reg) = open_plane(&dir, 2);
        let map = plane.shard_map();
        let ring = map.ring();
        for i in 0..40 {
            let name = format!("p/file-{i}");
            plane
                .create_with_at(ring.owner(&name), map.epoch, &name, Default::default())
                .unwrap();
        }
        let grown = map.with_shard_added(map.next_shard_id());
        migrate(&plane, grown.clone(), 16, None).unwrap();
        grown_epoch = grown.epoch;
        grown_shards = grown.shards.len();
    }
    // Reopen with a config that says 2 shards: the persisted 3-shard
    // map must win.
    let (plane, _reg) = open_plane(&dir, 2);
    assert_eq!(plane.epoch(), grown_epoch);
    assert_eq!(plane.shard_map().shards.len(), grown_shards);
    assert_eq!(plane.file_count(), 40);
}

/// A map file no ring can be built from is an error value, never a
/// panic in the ring's constructor, and `open` leaves it as found.
#[test]
fn plane_over_a_zero_vnode_map_is_corrupt_metadata() {
    let dir = TempDir::new("zero-vnodes");
    std::fs::create_dir_all(&dir.0).unwrap();
    let body = r#"{"epoch": 3, "vnodes": 0, "shards": [0, 1]}"#;
    std::fs::write(dir.0.join("shardmap.json"), body).unwrap();
    let opened = ShardedNameserver::open(
        &dir.0,
        small_topo(),
        ShardPlaneConfig::default(),
        &Registry::new(),
    );
    assert!(matches!(opened, Err(FsError::CorruptMetadata(_))));
    let kept = std::fs::read_to_string(dir.0.join("shardmap.json")).unwrap();
    assert_eq!(kept, body, "a refused map is left as found");
}

#[test]
fn rebalancer_grows_the_ring_only_when_a_shard_runs_hot() {
    let dir = TempDir::new("hot");
    let (plane, _reg) = open_plane(&dir, 2);
    let map = plane.shard_map();
    let ring = map.ring();
    let hot_name = "hot/key";
    let hot_shard = ring.owner(hot_name);
    plane
        .create_with_at(hot_shard, map.epoch, hot_name, Default::default())
        .unwrap();

    let rb = Rebalancer::new(RebalanceConfig {
        min_total_ops: 100,
        ..RebalanceConfig::default()
    });
    // Below the activity floor: no plan, however skewed.
    assert!(rb.plan(&plane).is_none());
    for _ in 0..500 {
        plane.lookup_at(hot_shard, map.epoch, hot_name).unwrap();
    }
    let planned = rb.plan(&plane).expect("hot shard must trigger a plan");
    assert_eq!(planned.epoch, map.epoch + 1);
    assert_eq!(planned.shards.len(), map.shards.len() + 1);

    let report = rb.rebalance(&plane, None).unwrap().unwrap();
    assert_eq!(report.to_epoch, map.epoch + 1);
    assert_eq!(plane.epoch(), map.epoch + 1);
}

#[test]
fn sharded_cluster_appends_and_reads_across_shards_and_migrations() {
    let dir = TempDir::new("cluster");
    let topo = small_topo();
    let hosts = topo.hosts();
    let sc = ShardedCluster::create(
        &dir.0,
        topo.clone(),
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: 16,
                ..NameserverConfig::default()
            },
            ..ClusterConfig::default()
        },
        ShardPlaneConfig {
            shards: 4,
            vnodes: 32,
            ..ShardPlaneConfig::default()
        },
    )
    .unwrap();

    let mut writer = sc.client(hosts[0]);
    for i in 0..12 {
        let name = format!("app/log-{i}");
        writer.create(&name).unwrap();
        writer.append(&name, b"hello sharded world").unwrap();
    }

    // A second client (own router, own cache) reads everything back.
    let (mut reader, router) = sc.client_with_router(hosts[5]);
    router.set_lease(Duration::from_secs(3600));
    for i in 0..12 {
        assert_eq!(
            reader.read(&format!("app/log-{i}")).unwrap(),
            b"hello sharded world"
        );
    }

    // Grow the plane mid-flight; both clients keep working through
    // their stale caches.
    let map = sc.plane().shard_map();
    migrate(
        sc.plane(),
        map.with_shard_added(map.next_shard_id()),
        8,
        None,
    )
    .unwrap();
    writer.append("app/log-0", b"!").unwrap();
    assert_eq!(reader.read("app/log-0").unwrap(), b"hello sharded world!");
    assert_eq!(sc.plane().file_count(), 12);
}

#[test]
fn rename_across_shards_moves_the_entry() {
    let dir = TempDir::new("rename");
    let (plane, reg) = open_plane(&dir, 4);
    let router = ShardRouter::new(plane.clone(), &reg.scope("shard_router"));
    router.create_with("old/name", Default::default()).unwrap();
    router.record_size("old/name", 77).unwrap();

    assert!(router
        .rename("old/name", "new/name", false)
        .unwrap()
        .is_none());
    assert!(matches!(
        router.lookup("old/name"),
        Err(FsError::NotFound(_))
    ));
    assert_eq!(router.lookup("new/name").unwrap().size, 77);

    // Overwrite semantics: refused without the flag, displaced with it.
    router.create_with("third", Default::default()).unwrap();
    assert!(matches!(
        router.rename("new/name", "third", false),
        Err(FsError::AlreadyExists(_))
    ));
    let displaced = router.rename("new/name", "third", true).unwrap();
    assert!(displaced.is_some());
    assert_eq!(router.lookup("third").unwrap().size, 77);
    assert_eq!(plane.file_count(), 1);
}

/// A sharded deployment whose files have 16-byte chunks (the shards'
/// own nameserver settings decide that, not the data-path cluster's).
fn small_sharded_cluster(dir: &TempDir) -> ShardedCluster {
    ShardedCluster::create(
        &dir.0,
        small_topo(),
        ClusterConfig::default(),
        ShardPlaneConfig {
            shards: 4,
            vnodes: 32,
            nameserver: NameserverConfig {
                chunk_size: 16,
                ..NameserverConfig::default()
            },
        },
    )
    .unwrap()
}

/// A self-rename must reach the nameserver's self-rename guard. The
/// cross-shard decomposition has none: it would displace the name by
/// itself and lose the entry — and, once the client garbage-collects
/// the "displaced" file, its bytes.
#[test]
fn self_rename_through_a_sharded_client_keeps_the_file_and_its_bytes() {
    let dir = TempDir::new("self-rename");
    let sc = small_sharded_cluster(&dir);
    let mut client = sc.client(small_topo().hosts()[0]);
    client.create("a").unwrap();
    client.append("a", b"still here").unwrap();
    client.rename("a", "a").unwrap();
    assert_eq!(client.read("a").unwrap(), b"still here");
    assert_eq!(sc.plane().file_count(), 1);
}

#[test]
fn same_shard_rename_is_one_op_under_the_nameserver_rules() {
    let dir = TempDir::new("rename-same");
    let (plane, reg) = open_plane(&dir, 4);
    let router = ShardRouter::new(plane.clone(), &reg.scope("shard_router"));
    let ring = plane.shard_map().ring();
    // Three names one shard owns, and one it does not.
    let home = ring.owner("n0");
    let mut here = (0..)
        .map(|i| format!("n{i}"))
        .filter(|n| ring.owner(n) == home);
    let (a, b, c) = (
        here.next().unwrap(),
        here.next().unwrap(),
        here.next().unwrap(),
    );
    let away = (0..)
        .map(|i| format!("m{i}"))
        .find(|n| ring.owner(n) != home)
        .unwrap();

    let created = router.create_with(&a, Default::default()).unwrap();
    router.record_size(&a, 7).unwrap();
    let routed = reg.scope("shard_router").counter("routed_ops_total");
    let before = routed.get();
    assert!(router.rename(&a, &b, false).unwrap().is_none());
    assert_eq!(routed.get(), before + 1, "one routed op, not four");
    assert!(matches!(router.lookup(&a), Err(FsError::NotFound(_))));
    let moved = router.lookup(&b).unwrap();
    assert_eq!((moved.id, moved.size), (created.id, 7));

    // Overwrite: refused without the flag, displaced with it.
    let other = router.create_with(&c, Default::default()).unwrap();
    assert!(matches!(
        router.rename(&b, &c, false),
        Err(FsError::AlreadyExists(_))
    ));
    assert_eq!(router.rename(&b, &c, true).unwrap(), Some(other));
    assert_eq!(router.lookup(&c).unwrap().id, created.id);
    // Guards only the nameserver has.
    assert!(matches!(
        router.rename(&c, "", true),
        Err(FsError::InvalidArgument(_))
    ));
    assert!(router.rename(&c, &c, true).unwrap().is_none());
    assert_eq!(plane.file_count(), 1);

    // Across shards the entry still moves, through the decomposition.
    let before = routed.get();
    assert!(router.rename(&c, &away, false).unwrap().is_none());
    assert!(routed.get() > before + 1);
    assert_eq!(router.lookup(&away).unwrap().id, created.id);
    assert!(matches!(router.lookup(&c), Err(FsError::NotFound(_))));
    assert_eq!(plane.file_count(), 1);

    // A rename handed to a shard that owns only one of its names is
    // fenced off, not half-applied.
    let map = plane.shard_map();
    let split = NsOp::Rename {
        from: away.clone(),
        to: a.clone(),
        overwrite: false,
    };
    assert!(matches!(
        plane.submit_at(ring.owner(&away), map.epoch, &split),
        Err(ShardError::NotOwner { owner }) if owner == home
    ));
    assert!(router.lookup(&away).is_ok());
}

/// The one coded create → append → read → seal through a
/// `ShardedCluster`: the shard's nameserver places the fragments, and
/// the seal's watermark goes back through the router.
#[test]
fn coded_files_create_and_seal_on_sharded_clusters() {
    let dir = TempDir::new("coded");
    let sc = small_sharded_cluster(&dir);
    let hosts = small_topo().hosts();
    let mut writer = sc.client(hosts[0]);
    let policy = Redundancy::Coded { k: 4, m: 2 };
    let meta = writer.create_with("coded/log", policy).unwrap();
    assert_eq!(meta.fragments.len(), 6);
    let payload: Vec<u8> = (0..40u8).collect(); // 2.5 chunks of 16 bytes
    writer.append("coded/log", &payload).unwrap();

    let mut reader = sc.client(hosts[5]);
    assert_eq!(reader.read("coded/log").unwrap(), payload);
    let sealed = reader.meta("coded/log").unwrap();
    assert_eq!(sealed.sealed_chunks, 2, "both complete chunks sealed");
    assert_eq!(sealed.redundancy, policy);
}
