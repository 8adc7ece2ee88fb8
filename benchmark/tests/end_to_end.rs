//! The whole command, small: an untraced and a traced run of the real
//! phases against the real program, for a fraction of the usual time.

use std::path::PathBuf;

use mfbench::report::{END_TO_END, PER_LAYER};
use mfbench::run::{run, share, RunArgs};
use mfbench::spans::{read_file, validate};

#[test]
fn shares_of_a_run_add_up() {
    for workload in 0..4 {
        let total: f64 = (0..4).map(|phase| share(workload, phase)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for phase in 0..4 {
            assert!(share(workload, workload) > share(workload, phase) || phase == workload);
        }
    }
}

#[test]
fn a_short_run_of_each_mode_is_correct_and_leaves_nothing_behind() {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("end-to-end");
    let args = |trace: bool| RunArgs {
        workload: "ctl_rpc".into(),
        seed: 5,
        seconds: 2.0,
        trace,
        data_base: base.join("data"),
        out_dir: base.join("out"),
    };

    let report = run(&args(false)).unwrap();
    assert!(report.correct(), "{}", report.table());
    assert!(report.attempted > 1000 && report.failed == 0);
    for d in &END_TO_END {
        let s = report
            .get(d.name)
            .unwrap_or_else(|| panic!("{} missing", d.name));
        assert!(
            s.value.is_finite() && s.value > 0.0,
            "{} = {}",
            d.name,
            s.value
        );
    }
    let line = report.json_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!line.contains('\n'));

    let report = run(&args(true)).unwrap();
    assert!(report.correct(), "{}", report.table());
    for d in &PER_LAYER {
        let s = report
            .get(d.name)
            .unwrap_or_else(|| panic!("{} missing", d.name));
        assert!(s.value.is_finite(), "{} = {}", d.name, s.value);
    }
    let file = read_file(&base.join("out/ctl_rpc.trace.json")).unwrap();
    assert_eq!(file.seed, 5);
    let spans = file.to_spans().unwrap();
    validate(&spans).unwrap();
    for name in [
        "client.read",
        "client.small_append",
        "client.meta_op",
        "router.lookup",
        "flowserver.select",
        "ctl.lookup",
        "rpc.transport",
        "rpc.service",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }

    assert_eq!(
        std::fs::read_dir(base.join("data")).unwrap().count(),
        0,
        "run directories are removed"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn an_unknown_workload_is_an_error_not_a_report() {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("end-to-end-unknown");
    let err = run(&RunArgs {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        data_base: base.join("data"),
        out_dir: base.join("out"),
    })
    .unwrap_err();
    assert!(err.contains("unknown workload"));
    assert!(!base.exists());
}
