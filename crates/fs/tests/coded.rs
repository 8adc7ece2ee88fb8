//! End-to-end tests of the erasure-coded storage tier: seal-and-encode
//! on append, degraded reads with up to `m` fragments lost, checksum
//! detection of silent corruption, and coded repair.

use std::sync::Arc;

use mayflower_fs::{
    Cluster, ClusterConfig, Consistency, FsError, NameserverConfig, ReadAssignment, Redundancy,
    ReplicaSelector,
};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::testutil::TempDir;

fn cluster(dir: &TempDir, consistency: Consistency) -> Cluster {
    let topo = Arc::new(Topology::three_tier(&TreeParams {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 2,
        ..TreeParams::paper_testbed()
    }));
    Cluster::create(
        dir.path(),
        topo,
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: 16,
                ..NameserverConfig::default()
            },
            consistency,
        },
    )
    .unwrap()
}

/// Deterministic payload bytes.
fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
        .collect()
}

#[test]
fn append_seals_complete_chunks_into_fragments() {
    let dir = TempDir::new("seal");
    let c = cluster(&dir, Consistency::Sequential);
    let mut client = c.client(HostId(0));
    let meta = client
        .create_with("coded", Redundancy::Coded { k: 4, m: 2 })
        .unwrap();
    assert_eq!(meta.fragments.len(), 6);
    assert_eq!(meta.redundancy, Redundancy::Coded { k: 4, m: 2 });

    let data = payload(40); // 2 complete chunks + 8-byte tail
    client.append("coded", &data).unwrap();

    let sealed = c.nameserver().lookup("coded").unwrap();
    assert_eq!(sealed.sealed_chunks, 2);
    // Every fragment host holds its fragment of every sealed chunk.
    for chunk in 0..2 {
        for (i, host) in sealed.fragments.iter().enumerate() {
            assert!(
                c.dataserver(*host).has_fragment(meta.id, chunk, i),
                "fragment {i} of chunk {chunk} missing on host {host}"
            );
        }
    }
    // The replicas reclaimed the sealed chunks but keep the tail.
    for r in &sealed.replicas {
        assert_eq!(c.dataserver(*r).local_size(meta.id).unwrap(), 8);
    }
    // And the read is byte-identical across the sealed/tail boundary.
    assert_eq!(client.read("coded").unwrap(), data);
    assert_eq!(client.read_range("coded", 10, 20).unwrap(), &data[10..30]);

    let snap = c.registry().snapshot();
    assert_eq!(snap.counter("ec_chunks_sealed_total"), Some(2));
    assert_eq!(snap.counter("ec_encode_bytes_total"), Some(32));
    // All data fragments were live: no decode was needed.
    assert_eq!(snap.counter("ec_degraded_reads_total"), Some(0));
}

#[test]
fn degraded_read_survives_m_fragment_losses() {
    let dir = TempDir::new("degraded");
    let c = cluster(&dir, Consistency::Sequential);
    let mut client = c.client(HostId(0));
    let meta = client
        .create_with("frail", Redundancy::Coded { k: 4, m: 2 })
        .unwrap();
    let data = payload(64); // 4 sealed chunks, empty tail
    client.append("frail", &data).unwrap();
    let sealed = c.nameserver().lookup("frail").unwrap();
    assert_eq!(sealed.sealed_chunks, 4);

    // Lose m = 2 fragments: crash one non-replica fragment host (the
    // fault subsystem's failure mode) and silently corrupt another
    // fragment's bytes on disk (the checksum frame must catch it).
    let crashed = sealed
        .fragments
        .iter()
        .enumerate()
        .find(|(_, h)| !sealed.replicas.contains(h))
        .map(|(i, h)| (i, *h))
        .expect("a non-replica fragment host exists");
    c.dataserver(crashed.1).crash();
    let corrupt_idx = (0..sealed.fragments.len())
        .find(|i| *i != crashed.0)
        .unwrap();
    for chunk in 0..sealed.sealed_chunks {
        let path =
            c.dataserver(sealed.fragments[corrupt_idx])
                .fragment_path(meta.id, chunk, corrupt_idx);
        let mut frame = std::fs::read(&path).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        std::fs::write(&path, &frame).unwrap();
    }

    // Still byte-identical, for clients anywhere in the fabric.
    for host in [0u32, 3, 7] {
        let mut reader = c.client(HostId(host));
        assert_eq!(reader.read("frail").unwrap(), data, "client on {host}");
    }
    let snap = c.registry().snapshot();
    assert!(snap.counter("ec_degraded_reads_total").unwrap() >= 1);
    assert!(snap.counter("ec_decode_bytes_total").unwrap() >= 16);

    // A third loss exceeds m: the read must fail, not mis-decode.
    let third = sealed
        .fragments
        .iter()
        .enumerate()
        .find(|(i, h)| *i != crashed.0 && *i != corrupt_idx && !sealed.replicas.contains(h))
        .map(|(_, h)| *h)
        .expect("another non-replica fragment host");
    c.dataserver(third).crash();
    let mut reader = c.client(HostId(0));
    reader.set_retry_policy(1, std::time::Duration::ZERO);
    assert!(matches!(reader.read("frail"), Err(FsError::Unavailable(_))));
}

#[test]
fn repair_fragment_rebuilds_onto_a_new_host() {
    let dir = TempDir::new("frag-repair");
    let c = cluster(&dir, Consistency::Sequential);
    let mut client = c.client(HostId(0));
    let meta = client
        .create_with("mend", Redundancy::Coded { k: 4, m: 2 })
        .unwrap();
    let data = payload(48); // 3 sealed chunks
    client.append("mend", &data).unwrap();
    let sealed = c.nameserver().lookup("mend").unwrap();

    // Nothing lost: the repair is a no-op.
    assert_eq!(
        c.repair_fragment("mend", 1, sealed.fragments[1]).unwrap(),
        0
    );

    // Wipe fragment 1's host and rebuild onto a host holding nothing.
    let victim = sealed.fragments[1];
    c.dataserver(victim).delete_file(meta.id).ok();
    c.dataserver(victim).crash();
    let dest = c
        .topology()
        .hosts()
        .into_iter()
        .find(|h| !sealed.fragments.contains(h) && !sealed.replicas.contains(h))
        .expect("a free host exists");
    let written = c.repair_fragment("mend", 1, dest).unwrap();
    assert!(written > 0);

    let mended = c.nameserver().lookup("mend").unwrap();
    assert_eq!(mended.fragments[1], dest);
    for chunk in 0..mended.sealed_chunks {
        assert!(c.dataserver(dest).has_fragment(meta.id, chunk, 1));
    }
    // Repaired state reads clean even with the victim still down.
    let mut reader = c.client(HostId(5));
    assert_eq!(reader.read("mend").unwrap(), data);
    let snap = c.registry().snapshot();
    assert_eq!(snap.counter("ec_fragment_repairs_total"), Some(1));

    // Idempotent: the fragment is whole again.
    assert_eq!(c.repair_fragment("mend", 1, dest).unwrap(), 0);
}

#[test]
fn seal_defers_while_a_fragment_host_is_down() {
    let dir = TempDir::new("defer");
    let c = cluster(&dir, Consistency::Sequential);
    let mut client = c.client(HostId(0));
    let meta = client
        .create_with("patient", Redundancy::Coded { k: 2, m: 1 })
        .unwrap();

    // Crash a fragment host that is not also a tail replica, so the
    // append itself still succeeds.
    let down = meta
        .fragments
        .iter()
        .copied()
        .find(|h| !meta.replicas.contains(h))
        .expect("a non-replica fragment host exists");
    c.dataserver(down).crash();
    let data = payload(32); // 2 complete chunks
    client.append("patient", &data).unwrap();
    // Durability never regresses: the chunks stay replicated.
    assert_eq!(c.nameserver().lookup("patient").unwrap().sealed_chunks, 0);
    assert_eq!(client.read("patient").unwrap(), data);

    // Once the host returns, an explicit seal catches up.
    c.dataserver(down).restart();
    assert_eq!(c.seal("patient").unwrap(), 2);
    assert_eq!(client.read("patient").unwrap(), data);
    for r in &c.nameserver().lookup("patient").unwrap().replicas {
        assert_eq!(c.dataserver(*r).local_size(meta.id).unwrap(), 0);
    }
}

#[test]
fn strong_consistency_reads_span_fragments_and_primary_tail() {
    let dir = TempDir::new("strong-coded");
    let c = cluster(&dir, Consistency::Strong);
    let mut client = c.client(HostId(2));
    client
        .create_with("strict", Redundancy::Coded { k: 3, m: 2 })
        .unwrap();
    let data = payload(42); // 2 sealed chunks + 10-byte tail
    client.append("strict", &data).unwrap();
    assert_eq!(c.nameserver().lookup("strict").unwrap().sealed_chunks, 2);
    assert_eq!(client.read("strict").unwrap(), data);
    // A range crossing the sealed/tail boundary.
    assert_eq!(client.read_range("strict", 24, 18).unwrap(), &data[24..42]);
}

/// A selector that names a fragment twice must not make the client
/// count it twice: `[0, 2, 0]` used to reach `k` with `k - 1` distinct
/// shards and fail a healthy chunk as unavailable.
#[test]
fn repeated_fragment_preferences_are_fetched_once() {
    struct Repeats(Vec<usize>);
    impl ReplicaSelector for Repeats {
        fn select_read(
            &mut self,
            _: HostId,
            replicas: &[HostId],
            bytes: u64,
        ) -> Vec<ReadAssignment> {
            vec![ReadAssignment {
                replica: replicas[0],
                bytes,
            }]
        }
        fn select_fragments(&mut self, _: HostId, _: &[(usize, HostId)], _: usize) -> Vec<usize> {
            self.0.clone()
        }
    }

    let dir = TempDir::new("repeats");
    let c = cluster(&dir, Consistency::Sequential);
    let data = payload(40);
    let mut writer = c.client(HostId(0));
    writer
        .create_with("twice", Redundancy::Coded { k: 4, m: 2 })
        .unwrap();
    writer.append("twice", &data).unwrap();
    // All-data preference (served without a decode), a preference that
    // pulls in parity (decoded), and out-of-range noise.
    for preference in [vec![0, 2, 0], vec![0, 4, 0], vec![9, 1, 1, 9, 5, 5]] {
        let mut reader = c.client_with_selector(HostId(3), Box::new(Repeats(preference.clone())));
        reader.set_retry_policy(1, std::time::Duration::ZERO);
        assert_eq!(reader.read("twice").unwrap(), data, "{preference:?}");
    }
}

#[test]
fn replicated_files_are_untouched_by_the_coded_tier() {
    let dir = TempDir::new("replicated");
    let c = cluster(&dir, Consistency::Sequential);
    let mut client = c.client(HostId(0));
    let meta = client.create("plain").unwrap();
    assert_eq!(meta.redundancy, Redundancy::Replicated { n: 3 });
    assert!(meta.fragments.is_empty());
    let data = payload(40);
    client.append("plain", &data).unwrap();
    assert_eq!(c.nameserver().lookup("plain").unwrap().sealed_chunks, 0);
    assert_eq!(client.read("plain").unwrap(), data);
    let snap = c.registry().snapshot();
    assert_eq!(snap.counter("ec_chunks_sealed_total"), Some(0));
}
