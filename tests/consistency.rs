//! Cross-crate consistency and recovery tests: the §3.4 consistency
//! semantics across clients, and the §3.3.1 nameserver recovery paths
//! over the real kvstore and dataservers.

use std::sync::Arc;

use mayflower::fs::nameserver::NameserverConfig;
use mayflower::fs::{Cluster, ClusterConfig, Consistency, Nameserver};
use mayflower::net::{HostId, Topology, TreeParams};
use mayflower::simcore::testutil::TempDir;

fn cluster(dir: &TempDir, consistency: Consistency, chunk: u64) -> Cluster {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    Cluster::create(
        dir.path(),
        topo,
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: chunk,
                ..NameserverConfig::default()
            },
            consistency,
        },
    )
    .expect("cluster creation")
}

#[test]
fn sequential_consistency_replicas_agree_after_concurrent_appends() {
    let dir = TempDir::new("seq");
    let c = Arc::new(cluster(&dir, Consistency::Sequential, 64));
    let mut setup = c.client(HostId(0));
    let meta = setup.create("seq/file").unwrap();

    let writers: Vec<_> = (0..4u8)
        .map(|w| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut client = c.client(HostId(u32::from(w)));
                for i in 0..25u8 {
                    let tag = w.wrapping_mul(25).wrapping_add(i);
                    client.append("seq/file", &[tag; 8]).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    // Every replica stored the same interleaving (sequential
    // consistency: one primary-imposed order).
    let total = 4 * 25 * 8;
    let reference = c
        .dataserver(meta.replicas[0])
        .unwrap()
        .read_local(meta.id, 0, total)
        .unwrap()
        .0;
    for r in &meta.replicas[1..] {
        let other = c
            .dataserver(*r)
            .unwrap()
            .read_local(meta.id, 0, total)
            .unwrap()
            .0;
        assert_eq!(other, reference, "replica {r} saw a different order");
    }
    // No torn records.
    for rec in reference.chunks(8) {
        assert!(rec.iter().all(|b| *b == rec[0]), "torn append {rec:?}");
    }
}

#[test]
fn strong_consistency_read_after_append_from_any_client() {
    let dir = TempDir::new("strong");
    let c = cluster(&dir, Consistency::Strong, 32);
    let mut writer = c.client(HostId(2));
    writer.create("strong/file").unwrap();

    let mut reader = c.client(HostId(50));
    // Interleave appends and reads; every read must reflect all
    // completed appends (reads of the mutable last chunk go to the
    // primary, §3.4).
    let mut expected = Vec::new();
    for i in 0..30u8 {
        writer.append("strong/file", &[i; 5]).unwrap();
        expected.extend_from_slice(&[i; 5]);
        let seen = reader.read("strong/file").unwrap();
        assert_eq!(seen, expected, "read-after-append violated at {i}");
    }
}

#[test]
fn nameserver_graceful_restart_preserves_namespace() {
    let dir = TempDir::new("graceful");
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let db = dir.path().join("ns");
    let metas: Vec<_> = {
        let ns = Nameserver::open(topo.clone(), &db, NameserverConfig::default()).unwrap();
        let metas: Vec<_> = (0..20)
            .map(|i| ns.create(&format!("file-{i}")).unwrap())
            .collect();
        ns.flush().unwrap();
        metas
    };
    let ns = Nameserver::open(topo, &db, NameserverConfig::default()).unwrap();
    assert_eq!(ns.file_count(), 20);
    for m in metas {
        let found = ns.lookup(&m.name).unwrap();
        assert_eq!(found.id, m.id);
        assert_eq!(found.replicas, m.replicas);
    }
}

#[test]
fn nameserver_crash_rebuild_matches_dataserver_truth() {
    let dir = TempDir::new("rebuild");
    let c = cluster(&dir, Consistency::Sequential, 128);
    let mut client = c.client(HostId(0));
    let mut expected: Vec<(String, u64)> = Vec::new();
    for i in 0..10 {
        let name = format!("rb/f{i}");
        client.create(&name).unwrap();
        let payload = vec![i as u8; 40 + i * 3];
        client.append(&name, &payload).unwrap();
        expected.push((name, payload.len() as u64));
    }

    // "Crash": a brand-new nameserver with an empty database rebuilds
    // from the dataservers (§3.3.1).
    let fresh = Nameserver::open(
        c.topology().clone(),
        &dir.path().join("fresh-ns"),
        NameserverConfig::default(),
    )
    .unwrap();
    fresh.rebuild_from_dataservers(&c.dataservers()).unwrap();
    assert_eq!(fresh.file_count(), 10);
    for (name, size) in expected {
        let meta = fresh.lookup(&name).unwrap();
        assert_eq!(meta.size, size, "{name} size diverged after rebuild");
        // Replica set survives too, so reads keep working.
        assert_eq!(meta.replicas.len(), 3);
    }
}

#[test]
fn deleted_files_stay_deleted_across_restart() {
    let dir = TempDir::new("deleted");
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let db = dir.path().join("ns");
    {
        let ns = Nameserver::open(topo.clone(), &db, NameserverConfig::default()).unwrap();
        ns.create("keep").unwrap();
        ns.create("drop").unwrap();
        ns.delete("drop").unwrap();
        ns.flush().unwrap();
    }
    let ns = Nameserver::open(topo, &db, NameserverConfig::default()).unwrap();
    assert!(ns.lookup("keep").is_ok());
    assert!(ns.lookup("drop").is_err());
}

#[test]
fn strong_last_chunk_reads_route_to_the_primary() {
    // §3.4: the last chunk of an append-mode file is mutable, so under
    // strong consistency every read of it must be served by the
    // primary. Prove the routing by corrupting the last-chunk file of
    // BOTH secondaries on disk: if any last-chunk read ever touched a
    // secondary, the garbage would surface.
    let dir = TempDir::new("strong-route");
    let c = cluster(&dir, Consistency::Strong, 16);
    let mut writer = c.client(HostId(1));
    let meta = writer.create("strong/routed").unwrap();
    let mut expected = Vec::new();
    for i in 0..5u8 {
        writer.append("strong/routed", &[i; 8]).unwrap();
        expected.extend_from_slice(&[i; 8]);
    }

    // 40 bytes at chunk 16 → chunks 1, 2 full, chunk 3 (bytes 32..40)
    // is the mutable last chunk.
    let fresh = writer.meta("strong/routed").unwrap();
    let last_chunk = fresh.last_chunk().expect("file is non-empty");
    assert_eq!(last_chunk, 2, "layout the test assumes");
    for r in &fresh.replicas[1..] {
        let chunk_file = c
            .dataserver(*r)
            .unwrap()
            .root()
            .join(meta.id.as_hex())
            .join(format!("{}", last_chunk + 1));
        assert!(chunk_file.exists(), "secondary {r} holds the last chunk");
        std::fs::write(&chunk_file, [0xEE; 8]).unwrap();
    }

    let mut reader = c.client(HostId(50));
    for _ in 0..3 {
        let seen = reader.read("strong/routed").unwrap();
        assert_eq!(
            seen, expected,
            "a strong last-chunk read was served by a corrupted secondary"
        );
    }
}

#[test]
fn strong_reads_observe_a_prefix_of_the_primary_order_under_a_concurrent_appender() {
    // §3.4: with an appender racing the reader, every strong read must
    // return a record-aligned prefix of the order the primary imposed,
    // and successive reads by one client can only move forward.
    const REC: usize = 7;
    const RECORDS: u8 = 60;
    let dir = TempDir::new("strong-race");
    let c = Arc::new(cluster(&dir, Consistency::Strong, 32));
    let mut setup = c.client(HostId(3));
    let meta = setup.create("strong/raced").unwrap();

    let appender = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            let mut w = c.client(HostId(4));
            for i in 0..RECORDS {
                w.append("strong/raced", &[i; REC]).unwrap();
            }
        })
    };
    let mut reader = c.client(HostId(40));
    let mut reads = Vec::new();
    while !appender.is_finished() {
        reads.push(reader.read("strong/raced").unwrap());
    }
    appender.join().unwrap();
    reads.push(reader.read("strong/raced").unwrap());

    let total = u64::from(RECORDS) * REC as u64;
    let (primary_order, size) = c
        .dataserver(meta.replicas[0])
        .unwrap()
        .read_local(meta.id, 0, total)
        .unwrap();
    assert_eq!(size, total, "all appends reached the primary");

    let mut prev_len = 0usize;
    for (i, read) in reads.iter().enumerate() {
        assert_eq!(read.len() % REC, 0, "read {i} tore a record");
        assert!(read.len() >= prev_len, "read {i} went backwards");
        prev_len = read.len();
        assert_eq!(
            read[..],
            primary_order[..read.len()],
            "read {i} is not a prefix of the primary's append order"
        );
    }
    assert_eq!(
        reads.last().unwrap().len() as u64,
        total,
        "the final read observes every acknowledged append"
    );
}

#[test]
fn append_only_cache_semantics_survive_other_writers() {
    // A client's cached chunk map can only be behind, never wrong: an
    // old cache plus size discovery equals fresh metadata (§3.3).
    let dir = TempDir::new("cache");
    let c = cluster(&dir, Consistency::Sequential, 16);
    let mut a = c.client(HostId(0));
    let mut b = c.client(HostId(9));
    a.create("shared").unwrap();
    // b caches the empty file.
    assert_eq!(b.read("shared").unwrap(), b"");
    // a appends enough to create several new chunks.
    for i in 0..8u8 {
        a.append("shared", &[i; 10]).unwrap();
    }
    // b's stale cache still yields the full current content.
    let seen = b.read("shared").unwrap();
    assert_eq!(seen.len(), 80);
    for (i, chunk) in seen.chunks(10).enumerate() {
        assert!(chunk.iter().all(|x| *x == i as u8));
    }
}
