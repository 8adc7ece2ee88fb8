//! `BENCHMARK.json` and the tables in `report.rs` say the same thing.

use mfbench::report::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Deserialize;

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

fn load() -> Benchmark {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(bytes.len() <= 64 << 10, "BENCHMARK.json is over 64 KiB");
    serde_json::from_slice(&bytes).expect("BENCHMARK.json parses")
}

fn good_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn good_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn the_file_matches_the_code() {
    let b = load();
    assert_eq!(b.paths, ["benchmark"]);
    assert_eq!(
        b.run_seconds, 28,
        "main.rs defaults --seconds to run_seconds"
    );
    assert!(b.command.iter().any(|a| a == "benchmark/Cargo.toml"));
    assert!(b
        .command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));

    let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for w in &b.workloads {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    let same = |d: &Def, name: &str, unit: &str, better: &str| {
        assert_eq!(d.name, name);
        assert_eq!(d.unit, unit, "{name}");
        assert_eq!(d.better.word(), better, "{name}");
        assert!(good_name(name) && good_unit(unit), "{name} [{unit}]");
    };
    assert_eq!(b.end_to_end.len(), END_TO_END.len());
    for (d, j) in END_TO_END.iter().zip(&b.end_to_end) {
        same(d, &j.name, &j.unit, &j.better);
        assert_eq!(d.bound, Some(j.bound), "{}", j.name);
        assert!(j.bound > 0.0 && j.bound <= 0.25, "{}", j.name);
    }
    assert_eq!(b.per_layer.len(), PER_LAYER.len());
    for (d, j) in PER_LAYER.iter().zip(&b.per_layer) {
        same(d, &j.name, &j.unit, &j.better);
    }
    let setup = b.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(b.end_to_end.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn names_are_used_once() {
    let mut all: Vec<&str> = WORKLOADS.to_vec();
    all.extend(END_TO_END.iter().map(|d| d.name));
    all.extend(PER_LAYER.iter().map(|d| d.name));
    let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len());
}
