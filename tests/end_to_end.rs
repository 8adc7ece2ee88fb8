//! Integration tests spanning the whole stack: the real filesystem
//! driven by Flowserver-backed replica selection, and the nameserver
//! served over real TCP RPC.

use std::sync::Arc;

use mayflower::flowserver::{Flowserver, FlowserverConfig};
use mayflower::fs::nameserver::NameserverConfig;
use mayflower::fs::remote::{NameserverService, RemoteNameserver};
use mayflower::fs::{Cluster, ClusterConfig};
use mayflower::net::{HostId, Topology, TreeParams};
use mayflower::rpc::{TcpServer, TcpTransport};
use mayflower::simcore::testutil::TempDir;
use mayflower::simcore::SimTime;

mod common;
use common::FlowserverSelector;

fn testbed_cluster(dir: &TempDir) -> Cluster {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    Cluster::create(
        dir.path(),
        topo,
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: 1 << 16,
                ..NameserverConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .expect("cluster creation")
}

#[test]
fn flowserver_steered_reads_return_correct_bytes() {
    let dir = TempDir::new("steered");
    let cluster = testbed_cluster(&dir);
    let topo = cluster.topology().clone();

    // Write through an ordinary client.
    let mut writer = cluster.client(HostId(3));
    writer.create("steered/file").unwrap();
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    writer.append("steered/file", &payload).unwrap();

    // Read through a Flowserver-backed selector, single-flow mode.
    let selector = FlowserverSelector {
        fs: Flowserver::new(topo.clone(), FlowserverConfig::default()),
    };
    let mut reader = cluster.client_with_selector(HostId(40), Box::new(selector));
    assert_eq!(reader.read("steered/file").unwrap(), payload);

    // And in multipath mode: a split read stitches ranges from two
    // replicas back into the identical byte sequence.
    let selector = FlowserverSelector {
        fs: Flowserver::new(
            topo,
            FlowserverConfig {
                multipath: true,
                ..FlowserverConfig::default()
            },
        ),
    };
    let mut reader = cluster.client_with_selector(HostId(40), Box::new(selector));
    assert_eq!(reader.read("steered/file").unwrap(), payload);
}

#[test]
fn flowserver_installs_and_removes_rules_per_read() {
    let dir = TempDir::new("rules");
    let cluster = testbed_cluster(&dir);
    let topo = cluster.topology().clone();
    let mut fs = Flowserver::new(topo, FlowserverConfig::default());

    let mut writer = cluster.client(HostId(0));
    let meta = writer.create("rules/file").unwrap();
    writer.append("rules/file", b"payload").unwrap();

    // A remote client (one that holds no replica) requests a
    // selection: the Flowserver tracks the flow.
    let client = (0..64)
        .map(HostId)
        .find(|h| !meta.replicas.contains(h))
        .expect("64 hosts, 3 replicas");
    let sel = fs.select_replica_path(client, &meta.replicas, 7.0 * 8.0, SimTime::ZERO);
    assert!(fs.tracked_flows() >= 1);
    let a = &sel.assignments()[0];
    assert!(meta.replicas.contains(&a.replica));
    assert_eq!(a.path.dst(), client);
    // The transfer finishes: the flow is forgotten.
    for a in sel.assignments() {
        fs.flow_completed(a.cookie);
    }
    assert_eq!(fs.tracked_flows(), 0);
}

#[test]
fn nameserver_over_tcp_serves_a_real_cluster() {
    let dir = TempDir::new("tcp");
    let cluster = testbed_cluster(&dir);

    // Expose the cluster's nameserver over real TCP.
    let service = Arc::new(NameserverService::new(cluster.nameserver().clone()));
    let mut server = TcpServer::bind("127.0.0.1:0", service).unwrap();
    let remote = RemoteNameserver::new(TcpTransport::connect(server.local_addr()).unwrap());

    // Create through RPC; materialize replicas; write and read real
    // bytes through the local dataservers.
    let meta = remote.create("tcp/data").unwrap();
    for r in &meta.replicas {
        cluster.dataserver(*r).create_file(&meta).unwrap();
    }
    cluster
        .client(meta.primary())
        .append("tcp/data", b"over the wire")
        .unwrap();
    assert_eq!(remote.lookup("tcp/data").unwrap().size, 13);

    let (data, size) = cluster
        .dataserver(meta.replicas[1])
        .read_local(meta.id, 0, 64)
        .unwrap();
    assert_eq!(data, b"over the wire");
    assert_eq!(size, 13);

    remote.delete("tcp/data").unwrap();
    assert!(remote.lookup("tcp/data").is_err());
    server.shutdown();
}

#[test]
fn many_files_many_clients() {
    let dir = TempDir::new("many");
    let cluster = testbed_cluster(&dir);
    // Every fourth host writes a file; every seventh host reads them
    // all back.
    let mut names = Vec::new();
    for (i, host) in (0..64u32).step_by(4).enumerate() {
        let mut client = cluster.client(HostId(host));
        let name = format!("many/f{i}");
        client.create(&name).unwrap();
        client
            .append(&name, format!("content-{i}").as_bytes())
            .unwrap();
        names.push(name);
    }
    for host in (0..64u32).step_by(7) {
        let mut client = cluster.client(HostId(host));
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                client.read(name).unwrap(),
                format!("content-{i}").as_bytes()
            );
        }
    }
    assert_eq!(cluster.nameserver().file_count(), names.len());
}
