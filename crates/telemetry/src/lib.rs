#![warn(missing_docs)]

//! Zero-dependency observability layer for the Mayflower reproduction.
//!
//! Mayflower's Flowserver is itself a monitoring component — it polls
//! switch counters and models per-flow bandwidth (§4, Pseudocode 2) —
//! yet the reproduction had no first-class way to observe its *own*
//! behavior. This crate provides that layer for every runtime crate:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars.
//! * [`Histogram`] — log2-bucketed distribution with deterministic
//!   p50/p95/p99 extraction; records latencies, sizes, or costs.
//! * [`Registry`] / [`Scope`] — hierarchical metric registration and
//!   byte-deterministic snapshot rendering as Prometheus text format
//!   and JSON.
//!
//! The crate is **std-only** (no external dependencies) so the offline
//! vendored build stays intact, and every data structure is lock-free
//! on the record path: counters and histogram buckets are plain
//! relaxed atomics, so instrumentation can sit on hot paths.
//!
//! # Determinism
//!
//! Snapshots render metrics in sorted `(name, labels)` order with
//! fixed integer formatting. A registry fed only deterministic values
//! (e.g. simulation time) therefore renders **byte-identical**
//! snapshots across runs — the property `tests/determinism.rs`
//! asserts for fixed-seed simulations. Wall-clock durations are
//! recorded only by the live filesystem/RPC layers, which are never
//! part of a simulation snapshot.
//!
//! # Example
//!
//! ```
//! use mayflower_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let rpc = registry.scope("rpc");
//! let calls = rpc.counter_with("calls_total", &[("method", "lookup")]);
//! let latency = rpc.histogram("call_latency_us");
//! calls.inc();
//! latency.record(420);
//! let text = registry.snapshot().render_prometheus();
//! assert!(text.contains("rpc_calls_total{method=\"lookup\"} 1"));
//! assert!(text.contains("rpc_call_latency_us_count 1"));
//! ```

pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{MetricId, Registry, Scope, Snapshot, SnapshotEntry, SnapshotValue};
pub use trace::{
    ActiveSpan, CriticalHop, SpanEvent, SpanId, TraceHandle, TraceId, TraceTree, Tracer,
};

/// Converts a non-negative duration in seconds to whole microseconds,
/// saturating — the canonical unit for every `*_us` metric.
#[must_use]
pub fn secs_to_us(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        let us = secs * 1e6;
        if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us.round() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_to_us_rounds_and_saturates() {
        assert_eq!(secs_to_us(0.0), 0);
        assert_eq!(secs_to_us(-1.0), 0);
        assert_eq!(secs_to_us(1.0), 1_000_000);
        assert_eq!(secs_to_us(0.000_001_4), 1);
        assert_eq!(secs_to_us(0.000_001_6), 2);
        assert_eq!(secs_to_us(f64::MAX), u64::MAX);
    }
}
