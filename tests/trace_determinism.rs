//! Trace reproducibility and well-formedness (DESIGN.md §17).
//!
//! Three guarantees, end to end:
//!
//! * **byte determinism** — a fixed-seed traced sim run renders
//!   byte-identical span-tree JSON (and Chrome export) every time, so
//!   trace diffs are meaningful;
//! * **well-formedness** — every capture the stack produces builds a
//!   valid forest: one root per trace, no orphan parents, child
//!   intervals nested within their parent's;
//! * **width independence** — a filesystem operation records the same
//!   span tree at every data-plane pool width.

use std::collections::BTreeMap;

use mayflower::flowserver::{Flowserver, FlowserverConfig};
use mayflower::fs::{Cluster, ClusterConfig, NameserverConfig, Redundancy};
use mayflower::net::{HostId, Topology, TreeParams};
use mayflower::recovery::{ExecutorConfig, RepairExecutor, RepairTask};
use mayflower::sim::timeline::timeline;
use mayflower::simcore::testutil::SeedGuard;
use mayflower::simcore::SimTime;
use mayflower::telemetry::trace::{SpanEvent, TraceTree, Tracer};
use proptest::prelude::*;

#[test]
fn fixed_seed_timeline_renders_byte_identical_json() {
    let a = timeline(0x4D41_5946);
    let b = timeline(0x4D41_5946);
    assert_eq!(a.arms.len(), b.arms.len());
    for (x, y) in a.arms.iter().zip(&b.arms) {
        assert_eq!(x.trace_json, y.trace_json, "{}/{}", x.op, x.scheduler);
        assert_eq!(x.trace_chrome, y.trace_chrome, "{}/{}", x.op, x.scheduler);
        assert_eq!(x.critical_path, y.critical_path);
        assert_eq!(x.decision, y.decision);
    }
}

#[test]
fn timeline_critical_paths_name_the_dominant_hop() {
    let rep = timeline(0x4D41_5946);
    for arm in &rep.arms {
        let expect = if arm.op == "read" {
            "datapath/piece"
        } else {
            "datapath/relay"
        };
        assert_eq!(arm.dominant, expect, "{}/{}", arm.op, arm.scheduler);
        assert!(arm.critical_path.contains(expect));
    }
}

/// A real filesystem capture (wall clock, thread-pool fan-out) must
/// still build a well-formed forest — span ids are planned on the
/// caller thread, so even racy interleavings cannot orphan a child.
#[test]
fn fs_capture_is_well_formed() {
    let topo = Topology::three_tier(&TreeParams {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 2,
        ..TreeParams::paper_testbed()
    });
    let dir = std::env::temp_dir().join(format!("mayflower-trace-det-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cluster = Cluster::create(&dir, topo.into(), ClusterConfig::default()).unwrap();
    let tracer = cluster.tracer().clone();
    tracer.begin_capture();

    let mut client = cluster.client(HostId(0));
    client.create("traced.dat").unwrap();
    client.append("traced.dat", &vec![7u8; 96 * 1024]).unwrap();
    assert_eq!(client.read("traced.dat").unwrap().len(), 96 * 1024);

    let tree = TraceTree::build(tracer.take_capture());
    tree.validate().expect("fs capture is a well-formed forest");
    let names: Vec<&str> = tree.events().iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"create"));
    assert!(names.contains(&"append"));
    assert!(names.contains(&"read"));
    drop(client);
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
}

/// One capture's spans in id order, one line each, times masked:
/// `trace span <parent> component/name ok|FAILED key=value...`.
fn render_spans(events: &[SpanEvent]) -> String {
    let mut events: Vec<&SpanEvent> = events.iter().collect();
    events.sort_by_key(|e| e.span);
    let mut out = String::new();
    for e in events {
        let parent = e
            .parent
            .map_or_else(|| "-".to_string(), |p| p.0.to_string());
        let ok = if e.ok { "ok" } else { "FAILED" };
        out += &format!(
            "{} {} <{parent}> {}/{} {ok}",
            e.trace.0, e.span.0, e.component, e.name
        );
        for (k, v) in &e.annotations {
            out += &format!(" {k}={v}");
        }
        out.push('\n');
    }
    out
}

/// Runs `ops` inside one capture and appends its rendering under `title`.
fn capture(tracer: &Tracer, golden: &mut String, title: &str, ops: impl FnOnce()) {
    tracer.begin_capture();
    ops();
    *golden += &format!("# {title}\n{}", render_spans(&tracer.take_capture()));
}

/// Every fs span tree, pinned: ids, names, parents, ok bits and
/// annotations of each traced step the filesystem takes, with only the
/// times masked. A width-1 pool plans every span id on one thread, so
/// the trees are the same on every run. `fs_capture_is_well_formed`
/// checks shape; this checks that no step lost an error mark, an
/// annotation or its place in the tree.
#[test]
fn fs_span_trees_match_the_golden() {
    let topo = Topology::three_tier(&TreeParams {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 2,
        ..TreeParams::paper_testbed()
    });
    let dir = std::env::temp_dir().join(format!("mayflower-trace-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ClusterConfig {
        nameserver: NameserverConfig {
            chunk_size: 16,
            ..NameserverConfig::default()
        },
        ..ClusterConfig::default()
    };
    let cluster = Cluster::create(&dir, topo.into(), config).unwrap();
    let tracer = cluster.tracer().clone();
    let client_on = |host: HostId| {
        let mut client = cluster.client(host);
        client.set_parallelism(1);
        client
    };
    let data: Vec<u8> = (0..40u8).collect();
    let mut golden = String::new();
    let mut writer = client_on(HostId(0));

    capture(
        &tracer,
        &mut golden,
        "replicated create, append, read",
        || {
            writer.create("r").unwrap();
            assert_eq!(writer.append("r", &data).unwrap(), 40);
            assert_eq!(writer.read("r").unwrap(), data);
        },
    );

    // The reader's own host holds a replica and is down: the nearest
    // choice fails and the piece fails over.
    let meta = cluster.nameserver().lookup("r").unwrap();
    let down = meta.replicas[1];
    cluster.dataserver(down).unwrap().crash();
    let mut reader = client_on(down);
    capture(
        &tracer,
        &mut golden,
        "read failing over from a crashed replica",
        || {
            assert_eq!(reader.read("r").unwrap(), data);
        },
    );
    capture(&tracer, &mut golden, "failing create and append", || {
        assert!(writer.create("r").is_err());
        // The relay to the crashed replica exhausts its retries.
        assert!(writer.append("r", &data[..8]).is_err());
    });
    cluster.dataserver(down).unwrap().restart();

    capture(&tracer, &mut golden, "read_range", || {
        assert_eq!(writer.read_range("r", 5, 20).unwrap(), &data[5..25]);
    });

    capture(
        &tracer,
        &mut golden,
        "coded create, sealing append, read",
        || {
            writer
                .create_with("c", Redundancy::Coded { k: 4, m: 2 })
                .unwrap();
            assert_eq!(writer.append("c", &data).unwrap(), 40);
            assert_eq!(writer.read("c").unwrap(), data);
        },
    );

    // A fragment host down defers the next seal; back up, an explicit
    // seal catches up.
    let coded = cluster.nameserver().lookup("c").unwrap();
    let frag_host = *coded
        .fragments
        .iter()
        .find(|h| !coded.replicas.contains(h))
        .unwrap();
    cluster.dataserver(frag_host).unwrap().crash();
    writer.append("c", &data[..8]).unwrap();
    cluster.dataserver(frag_host).unwrap().restart();
    let free = |taken: &[HostId]| {
        (0..8)
            .map(HostId)
            .find(|h| !taken.contains(h) && *h != frag_host)
            .unwrap()
    };
    let coded = cluster.nameserver().lookup("c").unwrap();
    let mut taken = coded.replicas.clone();
    taken.extend(&coded.fragments);
    let frag_dest = free(&taken);
    let victim = coded.fragments[1];
    cluster
        .dataserver(victim)
        .unwrap()
        .delete_file(coded.id)
        .unwrap();
    cluster
        .dataserver(down)
        .unwrap()
        .delete_file(meta.id)
        .unwrap();
    let copy_dest = free(&meta.replicas);
    capture(
        &tracer,
        &mut golden,
        "seal, repair_to, repair_fragment",
        || {
            assert_eq!(cluster.seal("c").unwrap(), 3);
            assert!(cluster.repair_to("r", meta.replicas[0], copy_dest).unwrap() > 0);
            assert!(cluster
                .repair_to("missing", meta.replicas[0], copy_dest)
                .is_err());
            assert!(cluster.repair_fragment("c", 1, frag_dest).unwrap() > 0);
        },
    );

    // One executor tick: a replica copy, then a fragment repair the
    // replicated file refuses.
    let meta = cluster.nameserver().lookup("r").unwrap();
    cluster
        .dataserver(meta.replicas[2])
        .unwrap()
        .delete_file(meta.id)
        .unwrap();
    let task = |dest, fragment| RepairTask {
        name: "r".into(),
        id: meta.id,
        source: meta.primary(),
        dest,
        bytes: 48,
        cookie: None,
        fragment,
    };
    let mut executor = RepairExecutor::new(
        ExecutorConfig::default(),
        &cluster.registry().scope("recovery"),
    );
    executor.enqueue(vec![
        task(free(&meta.replicas), None),
        task(frag_dest, Some(0)),
    ]);
    let mut flowserver = Flowserver::new(cluster.topology().clone(), FlowserverConfig::default());
    capture(&tracer, &mut golden, "repair executor step", || {
        assert_eq!(
            executor
                .step(&cluster, &mut flowserver, SimTime::ZERO)
                .len(),
            2
        );
    });

    capture(&tracer, &mut golden, "read of a missing file", || {
        assert!(writer.read("missing").is_err());
    });

    drop((writer, reader));
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(golden, include_str!("golden/fs_span_trees.txt"));
}

/// One capture as an indented forest with every id masked: a span is
/// its `component/name ok|FAILED key=value...` line, its children sit
/// under it, and the children of each span (and the roots) are sorted
/// by their rendered subtrees. Which worker ran a job, and so the order
/// in which sibling spans took their ids, does not show.
fn render_tree(events: &[SpanEvent]) -> String {
    fn subtree(
        e: &SpanEvent,
        children: &BTreeMap<Option<u64>, Vec<&SpanEvent>>,
        depth: usize,
    ) -> String {
        let ok = if e.ok { "ok" } else { "FAILED" };
        let mut out = format!("{}{}/{} {ok}", "  ".repeat(depth), e.component, e.name);
        for (k, v) in &e.annotations {
            out += &format!(" {k}={v}");
        }
        out.push('\n');
        out + &forest(children.get(&Some(e.span.0)), children, depth + 1)
    }
    fn forest(
        spans: Option<&Vec<&SpanEvent>>,
        children: &BTreeMap<Option<u64>, Vec<&SpanEvent>>,
        depth: usize,
    ) -> String {
        let mut trees: Vec<String> = spans
            .into_iter()
            .flatten()
            .map(|e| subtree(e, children, depth))
            .collect();
        trees.sort();
        trees.concat()
    }
    let mut children: BTreeMap<Option<u64>, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        children.entry(e.parent.map(|p| p.0)).or_default().push(e);
    }
    forest(children.get(&None), &children, 0)
}

/// Every width records the span trees width 1 records: each pool job
/// runs under the trace context its caller had, on a helper thread and
/// on the caller alike. Coded reads are the case that needs it — their
/// fragment fetches open no span of their own, so a job that ran
/// without the caller's context would record no `fragment_read`.
#[test]
fn fs_span_trees_do_not_depend_on_pool_width() {
    let dir = std::env::temp_dir().join(format!("mayflower-trace-width-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let data: Vec<u8> = (0..40u8).collect();
    let trees: Vec<String> = [1, 2, 4]
        .into_iter()
        .map(|width| {
            let topo = Topology::three_tier(&TreeParams {
                pods: 2,
                racks_per_pod: 2,
                hosts_per_rack: 2,
                ..TreeParams::paper_testbed()
            });
            let config = ClusterConfig {
                nameserver: NameserverConfig {
                    chunk_size: 16,
                    ..NameserverConfig::default()
                },
                ..ClusterConfig::default()
            };
            let cluster =
                Cluster::create(&dir.join(width.to_string()), topo.into(), config).unwrap();
            let tracer = cluster.tracer().clone();
            let mut client = cluster.client(HostId(0));
            client.set_parallelism(width);
            let mut trees = String::new();
            tracer.begin_capture();
            client.create("r").unwrap();
            assert_eq!(client.append("r", &data).unwrap(), 40);
            assert_eq!(client.read("r").unwrap(), data);
            trees += &render_tree(&tracer.take_capture());
            tracer.begin_capture();
            client
                .create_with("c", Redundancy::Coded { k: 4, m: 2 })
                .unwrap();
            assert_eq!(client.append("c", &data).unwrap(), 40);
            assert_eq!(client.read("c").unwrap(), data);
            trees += &render_tree(&tracer.take_capture());
            trees
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(trees[0].matches("dataserver/fragment_read").count(), 8);
    assert_eq!(trees[1], trees[0], "width 2 against width 1");
    assert_eq!(trees[2], trees[0], "width 4 against width 1");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every timeline seed yields well-formed trees and byte-identical
    /// re-renders: single root per trace, no orphan parents, children
    /// nested inside their parents (checked by `TraceTree::validate`
    /// on the parsed-back span set), and a second run reproduces the
    /// same bytes.
    #[test]
    fn timeline_trees_are_well_formed_for_any_seed(seed in any::<u64>()) {
        let _guard = SeedGuard::new("trace_determinism::timeline_trees", seed);
        let rep = timeline(seed);
        prop_assert_eq!(rep.arms.len(), 4);
        for arm in &rep.arms {
            // One root per arm's trace: the rendered JSON carries
            // exactly one `"parent": null` span.
            let roots = arm.trace_json.matches("\"parent\": null").count();
            prop_assert_eq!(roots, 1, "{}/{}", &arm.op, &arm.scheduler);
            prop_assert!(arm.completion_us > 0);
        }
        let again = timeline(seed);
        for (x, y) in rep.arms.iter().zip(&again.arms) {
            prop_assert_eq!(&x.trace_json, &y.trace_json);
        }
    }
}
