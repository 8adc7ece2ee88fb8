//! Span sets and span files are well formed: child inside parent, one
//! root per op, self time never negative, ids unique.

use std::sync::Arc;

use mfbench::spans::{read_file, totals_by_name, validate, write_file, Recorder, Span};

fn busy() {
    std::hint::black_box((0..2000u64).sum::<u64>());
}

fn record() -> Vec<Span> {
    let rec = Arc::new(Recorder::new());
    // Disabled: nothing is recorded, handles are inert.
    let op = rec.begin_op("client.read");
    let child = rec.begin("router.lookup");
    rec.end(child);
    rec.end(op);
    assert!(rec.spans().is_empty());

    rec.set_enabled(true);
    // A child outside any op records nothing.
    assert!(rec.begin("router.lookup").is_none());
    for _ in 0..20 {
        let op = rec.begin_op("client.read");
        busy();
        let lookup = rec.begin("router.lookup");
        busy();
        rec.end(lookup);
        let transport = rec.begin("rpc.transport");
        let server = {
            let rec = rec.clone();
            std::thread::spawn(move || {
                let s = rec.begin_detached("rpc.service");
                busy();
                rec.end(s);
            })
        };
        server.join().unwrap();
        rec.end(transport);
        busy();
        rec.end(op);
    }
    rec.set_enabled(false);
    rec.spans()
}

#[test]
fn recorded_spans_are_well_formed() {
    let spans = record();
    assert_eq!(spans.len(), 20 * 4);
    validate(&spans).unwrap();
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "ids are unique");
    let roots = spans.iter().filter(|s| s.parent == 0).count();
    assert_eq!(roots, 20, "one root per op");
    // The service span hangs under the transport span in flight.
    for s in spans.iter().filter(|s| s.name == "rpc.service") {
        let parent = spans.iter().find(|p| p.id == s.parent).unwrap();
        assert_eq!(parent.name, "rpc.transport");
    }
}

#[test]
fn self_time_is_duration_minus_children_and_never_negative() {
    let spans = record();
    let totals = totals_by_name(&spans);
    let root = totals["client.read"];
    let children = totals["router.lookup"].total_ns + totals["rpc.transport"].total_ns;
    assert_eq!(root.self_ns, root.total_ns - children);
    let transport = totals["rpc.transport"];
    assert_eq!(
        transport.self_ns,
        transport.total_ns - totals["rpc.service"].total_ns
    );
    for t in totals.values() {
        assert!(t.self_ns <= t.total_ns);
    }
    // Self times add up to the root time: nothing is counted twice.
    let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
    assert_eq!(all_self, root.total_ns);
}

#[test]
fn overlapping_children_are_not_subtracted_twice() {
    let span = |id, parent, start_ns, end_ns| Span {
        id,
        parent,
        op: 1,
        name: if parent == 0 { "root" } else { "kid" }.into(),
        start_ns,
        end_ns,
    };
    let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)];
    validate(&spans).unwrap();
    assert_eq!(totals_by_name(&spans)["root"].self_ns, 100 - 70);
}

#[test]
fn span_files_round_trip_and_validate() {
    let spans = record();
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("span-files");
    let path = dir.join("fs_bulk.trace.json");
    write_file(&path, "fs_bulk", 42, &spans).unwrap();
    let file = read_file(&path).unwrap();
    assert_eq!((file.workload.as_str(), file.seed), ("fs_bulk", 42));
    let back = file.to_spans().unwrap();
    assert_eq!(back, spans);
    validate(&back).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_span_sets_are_rejected() {
    let span = |id, parent, op, start_ns, end_ns| Span {
        id,
        parent,
        op,
        name: "x".into(),
        start_ns,
        end_ns,
    };
    let cases = [
        (
            "duplicate id",
            vec![span(1, 0, 1, 0, 9), span(1, 0, 2, 0, 9)],
        ),
        ("two roots", vec![span(1, 0, 1, 0, 9), span(2, 0, 1, 0, 9)]),
        ("no root", vec![span(1, 0, 1, 0, 9), span(2, 7, 2, 1, 2)]),
        (
            "missing parent",
            vec![span(1, 0, 1, 0, 9), span(2, 5, 1, 1, 2)],
        ),
        (
            "child outside parent",
            vec![span(1, 0, 1, 0, 9), span(2, 1, 1, 5, 12)],
        ),
        (
            "child in another op",
            vec![
                span(1, 0, 1, 0, 9),
                span(2, 0, 2, 0, 9),
                span(3, 1, 2, 1, 2),
            ],
        ),
        ("ends before it starts", vec![span(1, 0, 1, 9, 0)]),
        ("id zero", vec![span(0, 0, 1, 0, 9)]),
    ];
    for (what, spans) in cases {
        assert!(validate(&spans).is_err(), "{what} must be rejected");
    }
}
