//! Repair invariants under arbitrary replica loss.
//!
//! Property: however replicas are killed (up to replication − 1 per
//! cluster), repairing every file restores the replication factor,
//! lands every copy on a live host with the right bytes, and — when
//! enough racks survive — places every *replacement* in a rack no
//! other replica of the same file occupies (the §3.1
//! no-two-replicas-per-rack constraint re-checked against the whole
//! final set). Plus: concurrent targeted repairs are idempotent and
//! never corrupt the replica list.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use mayflower_fs::{Cluster, ClusterConfig};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::testutil::SeedGuard;
use mayflower_simcore::SimRng;
use proptest::prelude::*;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "mayfs-repair-inv-{tag}-{}-{:?}",
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

fn cluster_in(dir: &TempDir, params: &TreeParams) -> Cluster {
    let topo = Arc::new(Topology::three_tier(params));
    Cluster::create(&dir.0, topo, ClusterConfig::default()).unwrap()
}

fn put(c: &Cluster, name: &str, data: &[u8]) -> mayflower_fs::FileMeta {
    let meta = c.nameserver().create(name).unwrap();
    for r in &meta.replicas {
        c.dataserver(*r).create_file(&meta).unwrap();
    }
    c.client(meta.primary()).append(name, data).unwrap();
    c.nameserver().lookup(name).unwrap()
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
        for h in &killed {
            c.dataserver(*h).crash();
        }

        let mut rng = SimRng::seed_from(seed);
        let topo = Arc::clone(c.topology());
        for (i, original) in originals.iter().enumerate() {
            let name = format!("files/f{i}");
            let new_hosts = c.repair(&name, &mut rng).unwrap();
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

            // Rack spread: the 16-rack testbed minus ≤2 hosts always
            // has fresh racks, so each replacement must occupy a rack
            // no other replica of this file uses.
            for n in &new_hosts {
                prop_assert!(!original.replicas.contains(n));
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
    c.dataserver(victim).crash();
    let mut rng = SimRng::seed_from(3);
    let new_hosts = c.repair("files/a", &mut rng).unwrap();
    assert_eq!(new_hosts.len(), 1);
    let healed = c.nameserver().lookup("files/a").unwrap();
    assert_eq!(healed.replicas.len(), 3);
    assert!(!healed.replicas.contains(&victim));
    for r in &healed.replicas {
        assert!(c.dataserver(*r).has_file(healed.id));
    }
}

#[test]
fn concurrent_identical_repairs_copy_once() {
    let dir = TempDir::new("concurrent-same");
    let c = Arc::new(cluster_in(&dir, &TreeParams::paper_testbed()));
    let meta = put(&c, "files/a", b"payload");
    c.dataserver(meta.replicas[2]).crash();
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
        assert!(c.dataserver(*r).has_file(healed.id));
        let (data, _) = c.dataserver(*r).read_local(healed.id, 0, 7).unwrap();
        assert_eq!(data, b"payload");
    }
}

#[test]
fn concurrent_distinct_repairs_fill_distinct_slots() {
    let dir = TempDir::new("concurrent-two");
    let c = Arc::new(cluster_in(&dir, &TreeParams::paper_testbed()));
    let meta = put(&c, "files/a", b"ab");
    // Two replicas lost, two racing targeted repairs to two new hosts.
    c.dataserver(meta.replicas[1]).crash();
    c.dataserver(meta.replicas[2]).crash();
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
        assert!(c.dataserver(*r).has_file(healed.id));
    }
}
