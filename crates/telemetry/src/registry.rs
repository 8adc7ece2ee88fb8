//! Hierarchical metric registry and deterministic snapshot rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A metric's identity: its fully-qualified name plus sorted label
/// pairs. Ordering is lexicographic on `(name, labels)`, which is what
/// makes snapshot rendering deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Fully-qualified metric name (`layer_noun_unit`).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}: use [a-zA-Z0-9_:]"
        );
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders the id in Prometheus exposition syntax:
    /// `name{key="value",...}` (bare name without labels).
    #[must_use]
    pub fn render(&self) -> String {
        self.render_with_extra_label(None)
    }

    fn render_with_extra_label(&self, extra: Option<(&str, &str)>) -> String {
        if self.labels.is_empty() && extra.is_none() {
            return self.name.clone();
        }
        let mut out = format!("{}{{", self.name);
        let mut first = true;
        for (k, v) in &self.labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
        out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// JSON string escaping, shared by the registry's and the tracer's
/// renderers.
pub(crate) fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A shared, hierarchical metric registry.
///
/// Cloning is cheap (the state is behind one `Arc`); components hold
/// [`Scope`]s carved out of one cluster- or run-wide registry so all
/// layers land in a single taxonomy. Registration is idempotent:
/// asking for the same `(name, labels)` returns the same underlying
/// metric.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<MetricId, Metric>>>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A sub-registry whose metric names are prefixed `prefix_`.
    #[must_use]
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Registers (or fetches) a counter.
    ///
    /// # Panics
    ///
    /// Panics if the name is invalid or already registered as a
    /// different metric type.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Registers (or fetches) a labeled counter.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let m = self.entry(MetricId::new(name, labels), || {
            Metric::Counter(Arc::new(Counter::new()))
        });
        match m {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or fetches) a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let m = self.entry(MetricId::new(name, &[]), || {
            Metric::Gauge(Arc::new(Gauge::new()))
        });
        match m {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or fetches) a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let m = self.entry(MetricId::new(name, &[]), || {
            Metric::Histogram(Arc::new(Histogram::new()))
        });
        match m {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    fn entry(&self, id: MetricId, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        metrics.entry(id).or_insert_with(make).clone()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry lock poisoned").len()
    }

    /// Whether nothing is registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every metric, in deterministic order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        Snapshot {
            entries: metrics
                .iter()
                .map(|(id, m)| SnapshotEntry {
                    id: id.clone(),
                    value: match m {
                        Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                        Metric::Histogram(h) => SnapshotValue::Histogram(Box::new(h.snapshot())),
                    },
                })
                .collect(),
        }
    }
}

/// A name-prefixing view of a [`Registry`]; see [`Registry::scope`].
#[derive(Debug, Clone)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    /// A nested scope: `registry.scope("fs").scope("client")` prefixes
    /// `fs_client_`.
    #[must_use]
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.registry.clone(),
            prefix: format!("{}_{prefix}", self.prefix),
        }
    }

    /// The underlying registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn qualify(&self, name: &str) -> String {
        format!("{}_{name}", self.prefix)
    }

    /// Registers (or fetches) a counter under the scope's prefix.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.qualify(name))
    }

    /// Registers (or fetches) a labeled counter under the prefix.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.registry.counter_with(&self.qualify(name), labels)
    }

    /// Registers (or fetches) a gauge under the prefix.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&self.qualify(name))
    }

    /// Registers (or fetches) a histogram under the prefix.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&self.qualify(name))
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram state (boxed: a bucket array dwarfs the scalar
    /// variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One `(id, value)` pair inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The metric's identity.
    pub id: MetricId,
    /// The metric's value at snapshot time.
    pub value: SnapshotValue,
}

/// A point-in-time copy of a whole registry, in sorted order.
///
/// Renders as Prometheus text exposition format or JSON; both renders
/// are pure functions of the snapshot contents, so registries fed
/// deterministic values render byte-identical output across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// All metrics, sorted by `(name, labels)`.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Looks up a metric by rendered id (e.g. `name` or
    /// `name{k="v"}`).
    #[must_use]
    pub fn get(&self, rendered_id: &str) -> Option<&SnapshotValue> {
        self.entries
            .iter()
            .find(|e| e.id.render() == rendered_id)
            .map(|e| &e.value)
    }

    /// Counter value by rendered id, `None` if absent or not a
    /// counter.
    #[must_use]
    pub fn counter(&self, rendered_id: &str) -> Option<u64> {
        match self.get(rendered_id)? {
            SnapshotValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by rendered id.
    #[must_use]
    pub fn gauge(&self, rendered_id: &str) -> Option<i64> {
        match self.get(rendered_id)? {
            SnapshotValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state by rendered id.
    #[must_use]
    pub fn histogram(&self, rendered_id: &str) -> Option<&HistogramSnapshot> {
        match self.get(rendered_id)? {
            SnapshotValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot in Prometheus text exposition format.
    /// Histograms render cumulative `_bucket{le=...}` series (only
    /// non-empty buckets, plus `+Inf`), `_sum`, and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for e in &self.entries {
            let kind = match &e.value {
                SnapshotValue::Counter(_) => "counter",
                SnapshotValue::Gauge(_) => "gauge",
                SnapshotValue::Histogram(_) => "histogram",
            };
            if last_name != Some(e.id.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {kind}", e.id.name);
                last_name = Some(e.id.name.as_str());
            }
            match &e.value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", e.id.render());
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", e.id.render());
                }
                SnapshotValue::Histogram(h) => {
                    let bucket_id = MetricId {
                        name: format!("{}_bucket", e.id.name),
                        labels: e.id.labels.clone(),
                    };
                    for (le, cumulative) in h.cumulative_buckets() {
                        let le = le.to_string();
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            bucket_id.render_with_extra_label(Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        bucket_id.render_with_extra_label(Some(("le", "+Inf"))),
                        h.count
                    );
                    let sum_id = MetricId {
                        name: format!("{}_sum", e.id.name),
                        labels: e.id.labels.clone(),
                    };
                    let _ = writeln!(out, "{} {}", sum_id.render(), h.sum);
                    let count_id = MetricId {
                        name: format!("{}_count", e.id.name),
                        labels: e.id.labels.clone(),
                    };
                    let _ = writeln!(out, "{} {}", count_id.render(), h.count);
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object with `counters`,
    /// `gauges`, and `histograms` maps keyed by rendered metric id.
    /// Histogram values carry count, sum, p50/p95/p99, and the
    /// non-empty `[upper_bound, count]` bucket pairs.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for e in &self.entries {
            let key = escape_json(&e.id.render());
            match &e.value {
                SnapshotValue::Counter(v) => counters.push(format!("\"{key}\":{v}")),
                SnapshotValue::Gauge(v) => gauges.push(format!("\"{key}\":{v}")),
                SnapshotValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c > 0)
                        .map(|(i, c)| format!("[{},{c}]", crate::metrics::bucket_upper(i)))
                        .collect();
                    histograms.push(format!(
                        "\"{key}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
                        h.count,
                        h.sum,
                        h.percentile(50.0),
                        h.percentile(95.0),
                        h.percentile(99.0),
                        buckets.join(",")
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("requests_total");
        let b = r.counter("requests_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn labels_distinguish_metrics() {
        let r = Registry::new();
        let read = r.counter_with("ops_total", &[("op", "read")]);
        let write = r.counter_with("ops_total", &[("op", "write")]);
        read.inc();
        assert_eq!(read.get(), 1);
        assert_eq!(write.get(), 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        let a = r.counter_with("x_total", &[("b", "2"), ("a", "1")]);
        let b = r.counter_with("x_total", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "same metric regardless of label order");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("thing");
        let _ = r.gauge("thing");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let _ = Registry::new().counter("bad name!");
    }

    #[test]
    fn scopes_prefix_and_nest() {
        let r = Registry::new();
        let fs = r.scope("fs");
        let client = fs.scope("client");
        client.counter("reads_total").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("fs_client_reads_total"), Some(1));
    }

    #[test]
    fn snapshot_orders_deterministically() {
        let r = Registry::new();
        r.counter("z_total").add(1);
        r.counter("a_total").add(2);
        r.gauge("m_gauge").set(-7);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.entries[0].id.name, "a_total");
        assert_eq!(s1.entries[2].id.name, "z_total");
        assert_eq!(s1.render_prometheus(), s2.render_prometheus());
        assert_eq!(s1.render_json(), s2.render_json());
    }

    #[test]
    fn prometheus_render_shape() {
        let r = Registry::new();
        r.counter_with("rpc_calls_total", &[("method", "lookup")])
            .add(3);
        r.gauge("flows").set(12);
        let h = r.histogram("lat_us");
        h.record(0);
        h.record(5);
        h.record(5);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE rpc_calls_total counter"));
        assert!(text.contains("rpc_calls_total{method=\"lookup\"} 3"));
        assert!(text.contains("# TYPE flows gauge"));
        assert!(text.contains("flows 12"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"0\"} 1"));
        // 5 has bit length 3 → bucket upper 7; cumulative 3.
        assert!(text.contains("lat_us_bucket{le=\"7\"} 3"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum 10"));
        assert!(text.contains("lat_us_count 3"));
    }

    #[test]
    fn json_render_is_valid_shape() {
        let r = Registry::new();
        r.counter_with("c_total", &[("k", "v\"q")]).add(1);
        let h = r.histogram("h_us");
        h.record(100);
        let json = r.snapshot().render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"c_total{k=\\\"v\\\\\\\"q\\\"}\":1"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"p95\":127"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let r = Registry::new();
        r.counter("c_total").add(4);
        r.gauge("g").set(-1);
        r.histogram("h_us").record(9);
        let s = r.snapshot();
        assert_eq!(s.counter("c_total"), Some(4));
        assert_eq!(s.gauge("g"), Some(-1));
        assert_eq!(s.histogram("h_us").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.counter("g"), None, "type-checked lookup");
    }
}
