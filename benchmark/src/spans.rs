//! The benchmark's own span recorder.
//!
//! Spans are recorded from `benchmark/` files only, around the calls
//! into each layer: an op span per traced client operation, child
//! spans from the decorators in `adapters.rs`. They stay in memory and
//! are written to `out/<workload>.trace.json` when the run ends.
//!
//! The load is one closed loop, so one stack of open spans is enough:
//! a child opened on the client thread nests under the top of the
//! stack, and a span opened on an RPC server thread
//! ([`Recorder::begin_detached`]) parents under the call in flight.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::Deserialize;

/// One recorded span. `parent` is 0 for an op's root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation all spans of one request share.
    pub op: u64,
    /// Layer-qualified name, e.g. `router.lookup`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

struct Inner {
    spans: Vec<RawSpan>,
    next_op: u64,
    /// Open spans of the client thread, innermost last: `(index, op)`.
    stack: Vec<(usize, u64)>,
}

struct RawSpan {
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A handle to an open span; give it back to [`Recorder::end`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    index: usize,
    stacked: bool,
}

/// Collects spans while enabled; costs one atomic load when not.
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                next_op: 1,
                stack: Vec::new(),
            }),
        }
    }

    /// Turns recording on or off (between ops, never inside one).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, root: bool, stacked: bool) -> Option<Open> {
        if !self.enabled.load(Ordering::SeqCst) {
            return None;
        }
        let mut inner = self.inner.lock();
        let (parent, op) = if root {
            let op = inner.next_op;
            inner.next_op += 1;
            (0, op)
        } else {
            // A decorator called outside any traced op (set-up,
            // verification) records nothing.
            let &(top, op) = inner.stack.last()?;
            (top as u64 + 1, op)
        };
        let index = inner.spans.len();
        let start_ns = self.now_ns();
        inner.spans.push(RawSpan {
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        if stacked {
            inner.stack.push((index, op));
        }
        Some(Open { index, stacked })
    }

    /// Whether a span opened now would be recorded: recording is on
    /// and an op is open.
    #[must_use]
    pub fn in_op(&self) -> bool {
        self.enabled.load(Ordering::SeqCst) && !self.inner.lock().stack.is_empty()
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&self, name: &'static str) -> Option<Open> {
        self.open(name, true, true)
    }

    /// Opens a child of the innermost open span, on the client thread.
    pub fn begin(&self, name: &'static str) -> Option<Open> {
        self.open(name, false, true)
    }

    /// Opens a child of the innermost open span from another thread
    /// (an RPC server thread serving the call in flight).
    pub fn begin_detached(&self, name: &'static str) -> Option<Open> {
        self.open(name, false, false)
    }

    /// Closes a span.
    pub fn end(&self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end_ns = self.now_ns();
        let mut inner = self.inner.lock();
        inner.spans[open.index].end_ns = end_ns;
        if open.stacked {
            let popped = inner.stack.pop();
            debug_assert_eq!(
                popped.map(|p| p.0),
                Some(open.index),
                "spans close in order"
            );
        }
    }

    /// Everything recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.inner.lock();
        inner
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| Span {
                id: i as u64 + 1,
                parent: s.parent,
                op: s.op,
                name: s.name.to_string(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            })
            .collect()
    }
}

/// Time totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// How many spans.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus what children cover.
    pub self_ns: u64,
}

/// Per-name totals. A span's self time is its duration minus the part
/// of its interval that its children cover (their union, so
/// overlapping children are not subtracted twice).
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns - s.start_ns;
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// Checks that a span set is well formed: ids unique and non-zero,
/// every parent present and in the same op, every child inside its
/// parent's interval, exactly one root per op, no span ending before
/// it starts.
///
/// # Errors
///
/// Describes the first violation found.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut by_id: BTreeMap<u64, &Span> = BTreeMap::new();
    for s in spans {
        if s.id == 0 {
            return Err("span id 0".into());
        }
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
    }
    let mut roots: BTreeSet<u64> = BTreeSet::new();
    let mut ops: BTreeSet<u64> = BTreeSet::new();
    for s in spans {
        ops.insert(s.op);
        if s.parent == 0 {
            if !roots.insert(s.op) {
                return Err(format!("op {} has two roots", s.op));
            }
            continue;
        }
        let Some(p) = by_id.get(&s.parent) else {
            return Err(format!("span {} has no parent {}", s.id, s.parent));
        };
        if p.op != s.op {
            return Err(format!("span {} is in another op than its parent", s.id));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!("span {} is not inside its parent {}", s.id, p.id));
        }
    }
    if let Some(op) = ops.difference(&roots).next() {
        return Err(format!("op {op} has no root"));
    }
    Ok(())
}

const COLUMNS: [&str; 6] = ["id", "parent", "op", "name", "start_ns", "end_ns"];

/// The on-disk form: a name table plus one six-number row per span,
/// in the order of [`COLUMNS`]; `name` indexes `names`.
#[derive(Debug, Deserialize)]
pub struct TraceFile {
    /// What the run was: workload name.
    pub workload: String,
    /// The seed of the run.
    pub seed: u64,
    /// Column names of `spans`.
    pub columns: Vec<String>,
    /// Span names, indexed by the `name` column.
    pub names: Vec<String>,
    /// One row per span.
    pub spans: Vec<[u64; 6]>,
}

impl TraceFile {
    /// The rows as [`Span`]s.
    ///
    /// # Errors
    ///
    /// Fails on an unknown column layout or a name index out of range.
    pub fn to_spans(&self) -> Result<Vec<Span>, String> {
        if self.columns != COLUMNS {
            return Err(format!("unexpected columns {:?}", self.columns));
        }
        self.spans
            .iter()
            .map(|r| {
                let name = self
                    .names
                    .get(r[3] as usize)
                    .ok_or_else(|| format!("name index {} out of range", r[3]))?;
                Ok(Span {
                    id: r[0],
                    parent: r[1],
                    op: r[2],
                    name: name.clone(),
                    start_ns: r[4],
                    end_ns: r[5],
                })
            })
            .collect()
    }
}

/// Writes `spans` to `path` in the [`TraceFile`] layout.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut names: Vec<&str> = Vec::new();
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    for s in spans {
        index.entry(&s.name).or_insert_with(|| {
            names.push(&s.name);
            names.len() - 1
        });
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[{}],\"names\":[{}],\"spans\":[",
        quoted(&COLUMNS),
        quoted(&names)
    )?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n[{},{},{},{},{},{}]",
            s.id,
            s.parent,
            s.op,
            index[s.name.as_str()],
            s.start_ns,
            s.end_ns
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

/// Reads a trace file back.
///
/// # Errors
///
/// Describes the I/O or parse failure.
pub fn read_file(path: &Path) -> Result<TraceFile, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    serde_json::from_slice(&bytes).map_err(|e| e.to_string())
}
