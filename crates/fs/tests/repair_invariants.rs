//! Targeted repairs under concurrency: racing `Cluster::repair_to`
//! calls are idempotent and never corrupt the replica list. The
//! placement invariants of a repair run through the recovery pipeline
//! and are checked there (`crates/recovery/tests/repair_invariants.rs`).

use std::collections::BTreeSet;
use std::sync::Arc;

use mayflower_fs::{Cluster, ClusterConfig};
use mayflower_net::{Topology, TreeParams};
use mayflower_simcore::testutil::TempDir;

fn cluster_in(dir: &TempDir) -> Cluster {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    Cluster::create(dir.path(), topo, ClusterConfig::default()).unwrap()
}

fn put(c: &Cluster, name: &str, data: &[u8]) -> mayflower_fs::FileMeta {
    let meta = c.nameserver().create(name).unwrap();
    for r in &meta.replicas {
        c.dataserver(*r).unwrap().create_file(&meta).unwrap();
    }
    c.client(meta.primary()).append(name, data).unwrap();
    c.nameserver().lookup(name).unwrap()
}

#[test]
fn concurrent_identical_repairs_copy_once() {
    let dir = TempDir::new("concurrent-same");
    let c = Arc::new(cluster_in(&dir));
    let meta = put(&c, "files/a", b"payload");
    c.dataserver(meta.replicas[2]).unwrap().crash();
    let dest = c
        .topology()
        .hosts()
        .into_iter()
        .find(|h| !meta.replicas.contains(h))
        .unwrap();
    let source = meta.replicas[0];

    let results: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                s.spawn(move || c.repair_to("files/a", source, dest).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one racer copied; the other saw a healthy file.
    let copied: Vec<_> = results.iter().filter(|b| **b > 0).collect();
    assert_eq!(copied, vec![&7u64], "results: {results:?}");

    let healed = c.nameserver().lookup("files/a").unwrap();
    let distinct: BTreeSet<_> = healed.replicas.iter().collect();
    assert_eq!(distinct.len(), 3, "no duplicate replicas: {healed:?}");
    assert!(healed.replicas.contains(&dest));
    for r in &healed.replicas {
        assert!(c.dataserver(*r).unwrap().has_file(healed.id));
        let (data, _) = c
            .dataserver(*r)
            .unwrap()
            .read_local(healed.id, 0, 7)
            .unwrap();
        assert_eq!(data, b"payload");
    }
}

#[test]
fn concurrent_distinct_repairs_fill_distinct_slots() {
    let dir = TempDir::new("concurrent-two");
    let c = Arc::new(cluster_in(&dir));
    let meta = put(&c, "files/a", b"ab");
    // Two replicas lost, two racing targeted repairs to two new hosts.
    c.dataserver(meta.replicas[1]).unwrap().crash();
    c.dataserver(meta.replicas[2]).unwrap().crash();
    let mut fresh = c
        .topology()
        .hosts()
        .into_iter()
        .filter(|h| !meta.replicas.contains(h));
    let dest_a = fresh.next().unwrap();
    let dest_b = fresh.next().unwrap();
    let source = meta.replicas[0];

    let results: Vec<u64> = std::thread::scope(|s| {
        let ha = {
            let c = Arc::clone(&c);
            s.spawn(move || c.repair_to("files/a", source, dest_a).unwrap())
        };
        let hb = {
            let c = Arc::clone(&c);
            s.spawn(move || c.repair_to("files/a", source, dest_b).unwrap())
        };
        vec![ha.join().unwrap(), hb.join().unwrap()]
    });
    assert_eq!(results, vec![2, 2], "each racer fills its own slot");

    let healed = c.nameserver().lookup("files/a").unwrap();
    let distinct: BTreeSet<_> = healed.replicas.iter().copied().collect();
    assert_eq!(distinct.len(), 3);
    assert!(distinct.contains(&dest_a) && distinct.contains(&dest_b));
    assert!(distinct.contains(&source));
    for r in &healed.replicas {
        assert!(c.dataserver(*r).unwrap().has_file(healed.id));
    }
}
