//! Trace reproducibility and well-formedness (DESIGN.md §17).
//!
//! Two guarantees, end to end:
//!
//! * **byte determinism** — a fixed-seed traced sim run renders
//!   byte-identical span-tree JSON (and Chrome export) every time, so
//!   trace diffs are meaningful;
//! * **well-formedness** — every capture the stack produces builds a
//!   valid forest: one root per trace, no orphan parents, child
//!   intervals nested within their parent's.

use mayflower::fs::{Cluster, ClusterConfig};
use mayflower::net::{HostId, Topology, TreeParams};
use mayflower::sim::timeline::timeline;
use mayflower::simcore::testutil::SeedGuard;
use mayflower::telemetry::trace::TraceTree;
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
