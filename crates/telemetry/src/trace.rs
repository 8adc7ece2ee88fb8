//! Causal tracing: per-operation span trees across the client,
//! datapath, dataserver, flowserver, shard-router, and recovery
//! layers (DESIGN.md §17).
//!
//! A [`Tracer`] allocates trace/span ids and timestamps span events
//! from either a wall clock (live clusters) or a manually driven
//! simulation clock (byte-deterministic sim traces). Components hold a
//! [`TraceHandle`] — the tracer plus their name — and open
//! [`ActiveSpan`]s that record a [`SpanEvent`] on drop. Causality
//! propagates two ways:
//!
//! * **in-process** through a thread-local ambient context
//!   ([`current_context`]; [`in_span`] enters a span for the step it
//!   runs and marks it failed on `Err`), which also carries
//!   across the datapath worker pool because piece spans are created
//!   on the caller's thread (in planning order, so ids are stable) and
//!   entered by whichever worker runs the job;
//! * **cross-process** through the rpc envelope: the client stamps
//!   [`ActiveSpan::ctx`] into the request, the server re-enters it
//!   with [`with_context`].
//!
//! There is one switch and one record: spans open only inside a
//! [`Tracer::begin_capture`] … [`Tracer::take_capture`] window, and
//! every span finished inside it lands in the capture. Outside a window
//! a would-be span costs one atomic load and allocates nothing.
//!
//! The analyzer ([`TraceTree`]) rebuilds the span forest from events,
//! checks well-formedness, extracts the **critical path** (from each
//! root, repeatedly descend into the child that finishes last), and
//! exports byte-deterministic JSON plus Chrome `traceEvents` JSON
//! loadable in `about:tracing` / Perfetto.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::registry::escape_json;

/// Identifies one end-to-end operation; every span of the operation
/// shares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// A finished span: one timed step of an operation, with its causal
/// parent and structured annotations.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Operation this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Causal parent, `None` for the operation root.
    pub parent: Option<SpanId>,
    /// Component that emitted the span (`"client"`, `"flowserver"`, ...).
    pub component: &'static str,
    /// What the span timed (`"read"`, `"piece"`, `"attempt"`, ...).
    pub name: String,
    /// Start, in microseconds of the tracer's clock.
    pub start_us: u64,
    /// End, in microseconds of the tracer's clock.
    pub end_us: u64,
    /// `false` when the spanned step failed.
    pub ok: bool,
    /// Key/value annotations in insertion order.
    pub annotations: Vec<(String, String)>,
}

impl SpanEvent {
    /// Span duration in microseconds.
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// First annotation value for `key`, if any.
    #[must_use]
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Orders events deterministically for export.
fn sort_events(events: &mut [SpanEvent]) {
    events.sort_by_key(|e| (e.trace, e.start_us, e.span));
}

#[derive(Debug)]
enum TraceClock {
    Wall(Instant),
    Manual(AtomicU64),
}

/// The tracing root: id allocation, the clock, and the capture sink.
/// Spans open only inside a capture window; outside one the tracer
/// never allocates a span.
#[derive(Debug)]
pub struct Tracer {
    clock: TraceClock,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    capturing: AtomicBool,
    sink: Mutex<Vec<SpanEvent>>,
}

impl Tracer {
    /// A wall-clock tracer for live clusters; timestamps are
    /// microseconds since creation.
    #[must_use]
    pub fn new_wall() -> Arc<Tracer> {
        Tracer::with_clock(TraceClock::Wall(Instant::now()))
    }

    /// A manually clocked tracer for simulations: timestamps come from
    /// [`Tracer::set_time_us`], so fixed-seed runs trace
    /// byte-identically.
    #[must_use]
    pub fn new_manual() -> Arc<Tracer> {
        Tracer::with_clock(TraceClock::Manual(AtomicU64::new(0)))
    }

    fn with_clock(clock: TraceClock) -> Arc<Tracer> {
        Arc::new(Tracer {
            clock,
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            capturing: AtomicBool::new(false),
            sink: Mutex::new(Vec::new()),
        })
    }

    /// Whether a capture window is open, i.e. whether spans open.
    fn capturing(&self) -> bool {
        self.capturing.load(Ordering::Acquire)
    }

    /// Advances the manual clock (no-op on a wall-clock tracer).
    pub fn set_time_us(&self, us: u64) {
        if let TraceClock::Manual(t) = &self.clock {
            t.store(us, Ordering::Relaxed);
        }
    }

    /// Current clock reading in microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        match &self.clock {
            TraceClock::Wall(origin) => {
                u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
            }
            TraceClock::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    /// A handle for `component`.
    #[must_use]
    pub fn handle(self: &Arc<Tracer>, component: &'static str) -> TraceHandle {
        TraceHandle {
            tracer: self.clone(),
            component,
        }
    }

    /// Opens the capture window: from now until [`Tracer::take_capture`]
    /// spans open and every finished one is collected.
    pub fn begin_capture(&self) {
        self.sink.lock().expect("trace sink poisoned").clear();
        self.capturing.store(true, Ordering::Release);
    }

    /// Closes the capture window and returns the collected events
    /// ordered by `(trace, start, span)`.
    pub fn take_capture(&self) -> Vec<SpanEvent> {
        self.capturing.store(false, Ordering::Release);
        let mut events = std::mem::take(&mut *self.sink.lock().expect("trace sink poisoned"));
        sort_events(&mut events);
        events
    }

    fn next_trace_id(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    fn next_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    fn finish(&self, event: SpanEvent) {
        if self.capturing() {
            self.sink.lock().expect("trace sink poisoned").push(event);
        }
    }
}

thread_local! {
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// The ambient `(trace, span)` context of the calling thread — what a
/// client stamps into an rpc envelope.
#[must_use]
pub fn current_context() -> Option<(u64, u64)> {
    CURRENT.with(Cell::get)
}

/// Runs `f` with the ambient context set to `ctx` (the server side of
/// envelope propagation), restoring the previous context after.
pub fn with_context<T>(ctx: Option<(u64, u64)>, f: impl FnOnce() -> T) -> T {
    let prev = CURRENT.with(|c| c.replace(ctx));
    let out = f();
    CURRENT.with(|c| c.set(prev));
    out
}

/// Restores the previous ambient context on drop (see
/// [`ActiveSpan::enter`]).
#[derive(Debug)]
pub struct EnterGuard {
    prev: Option<(u64, u64)>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// One component's entry point into a [`Tracer`]: the tracer plus the
/// component's name. Cheap to clone.
#[derive(Clone, Debug)]
pub struct TraceHandle {
    tracer: Arc<Tracer>,
    component: &'static str,
}

impl TraceHandle {
    /// The underlying tracer.
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Opens a new root span (a fresh trace), or `None` outside a
    /// capture.
    #[must_use]
    pub fn root(&self, name: &str) -> Option<ActiveSpan> {
        if !self.tracer.capturing() {
            return None;
        }
        let trace = self.tracer.next_trace_id();
        Some(self.open(trace, None, name))
    }

    /// Opens a child of the calling thread's ambient span; `None`
    /// outside a capture or when no ambient span exists (spans never
    /// float unparented).
    #[must_use]
    pub fn child(&self, name: &str) -> Option<ActiveSpan> {
        if !self.tracer.capturing() {
            return None;
        }
        let (trace, parent) = current_context()?;
        Some(self.open(TraceId(trace), Some(SpanId(parent)), name))
    }

    /// Opens a child of the ambient span when one exists, else a new
    /// root — the right shape for operation entry points that may
    /// themselves be nested (e.g. a client op invoked under a traced
    /// rpc serve).
    #[must_use]
    pub fn span(&self, name: &str) -> Option<ActiveSpan> {
        if !self.tracer.capturing() {
            return None;
        }
        match current_context() {
            Some((trace, parent)) => Some(self.open(TraceId(trace), Some(SpanId(parent)), name)),
            None => self.root(name),
        }
    }

    fn open(&self, trace: TraceId, parent: Option<SpanId>, name: &str) -> ActiveSpan {
        ActiveSpan {
            tracer: self.tracer.clone(),
            component: self.component,
            trace,
            span: self.tracer.next_span_id(),
            parent,
            name: name.to_string(),
            start_us: self.tracer.now_us(),
            ok: true,
            annotations: Vec::new(),
        }
    }
}

/// An open span; records a [`SpanEvent`] when dropped.
#[derive(Debug)]
pub struct ActiveSpan {
    tracer: Arc<Tracer>,
    component: &'static str,
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_us: u64,
    ok: bool,
    annotations: Vec<(String, String)>,
}

impl ActiveSpan {
    /// This span's `(trace, span)` context, for envelope propagation.
    #[must_use]
    pub fn ctx(&self) -> (u64, u64) {
        (self.trace.0, self.span.0)
    }

    /// Makes this span the calling thread's ambient parent until the
    /// guard drops.
    #[must_use]
    pub fn enter(&self) -> EnterGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self.ctx())));
        EnterGuard { prev }
    }

    /// Attaches a key/value annotation.
    pub fn annotate(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.annotations.push((key.into(), value.into()));
    }

    /// Marks the spanned step as failed.
    pub fn set_error(&mut self) {
        self.ok = false;
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let event = SpanEvent {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            component: self.component,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            end_us: self.tracer.now_us(),
            ok: self.ok,
            annotations: std::mem::take(&mut self.annotations),
        };
        self.tracer.finish(event);
    }
}

/// Annotates the span if one is open — the pervasive call-site idiom
/// for `Option<ActiveSpan>`. `value` is formatted only then, so with
/// tracing off a call allocates nothing: pass the value itself, or
/// `format_args!`, never a `String` built for the call.
pub fn annotate(span: &mut Option<ActiveSpan>, key: &str, value: impl std::fmt::Display) {
    if let Some(s) = span.as_mut() {
        s.annotate(key, value.to_string());
    }
}

/// Runs one traced step inside `span`, the one way a step is traced:
/// the span is the thread's ambient parent while `step` runs, `step`
/// gets the span to annotate, an `Err` marks it failed, and the span
/// ends as this returns the step's result unchanged. With tracing off
/// (`span` is `None`) the step runs bare: no allocation, no branch but
/// the `Option` checks.
#[inline]
pub fn in_span<T, E>(
    mut span: Option<ActiveSpan>,
    step: impl FnOnce(&mut Option<ActiveSpan>) -> Result<T, E>,
) -> Result<T, E> {
    let entered = span.as_ref().map(ActiveSpan::enter);
    let out = step(&mut span);
    drop(entered);
    if let (Some(s), Err(_)) = (span.as_mut(), &out) {
        s.set_error();
    }
    out
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/// A reconstructed span forest: events indexed by id with parent/child
/// links, ready for well-formedness checks, critical-path extraction,
/// and export.
#[derive(Debug)]
pub struct TraceTree {
    events: Vec<SpanEvent>,
    children: BTreeMap<u64, Vec<usize>>,
    roots: Vec<usize>,
}

/// One hop of a critical path: a span plus its exclusive (self) time —
/// the part of its duration not covered by the next hop down.
#[derive(Clone, Debug)]
pub struct CriticalHop {
    /// Index into [`TraceTree::events`].
    pub index: usize,
    /// Exclusive time in microseconds.
    pub self_us: u64,
}

impl TraceTree {
    /// Builds the forest from finished events (sorted deterministically
    /// on the way in).
    #[must_use]
    pub fn build(mut events: Vec<SpanEvent>) -> TraceTree {
        sort_events(&mut events);
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (i, e) in events.iter().enumerate() {
            match e.parent {
                Some(p) => children.entry(p.0).or_default().push(i),
                None => roots.push(i),
            }
        }
        TraceTree {
            events,
            children,
            roots,
        }
    }

    /// The events, ordered by `(trace, start, span)`.
    #[must_use]
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Root spans (one per trace in a well-formed forest).
    #[must_use]
    pub fn roots(&self) -> &[usize] {
        self.roots.as_slice()
    }

    /// Direct children of span `id`, in deterministic order.
    #[must_use]
    pub fn children_of(&self, id: SpanId) -> &[usize] {
        self.children.get(&id.0).map_or(&[], Vec::as_slice)
    }

    /// Checks well-formedness: every trace has exactly one root, every
    /// parent id resolves to a span of the same trace, and child
    /// intervals nest within their parent's interval.
    pub fn validate(&self) -> Result<(), String> {
        let mut by_span: BTreeMap<u64, &SpanEvent> = BTreeMap::new();
        for e in &self.events {
            if by_span.insert(e.span.0, e).is_some() {
                return Err(format!("duplicate span id {}", e.span.0));
            }
        }
        let mut roots_per_trace: BTreeMap<u64, usize> = BTreeMap::new();
        for e in &self.events {
            if e.end_us < e.start_us {
                return Err(format!("span {} ends before it starts", e.span.0));
            }
            match e.parent {
                None => *roots_per_trace.entry(e.trace.0).or_insert(0) += 1,
                Some(p) => {
                    let Some(parent) = by_span.get(&p.0) else {
                        return Err(format!("span {} has orphan parent {}", e.span.0, p.0));
                    };
                    if parent.trace != e.trace {
                        return Err(format!(
                            "span {} crosses traces ({} -> {})",
                            e.span.0, e.trace.0, parent.trace.0
                        ));
                    }
                    if e.start_us < parent.start_us || e.end_us > parent.end_us {
                        return Err(format!(
                            "span {} [{}, {}] escapes parent {} [{}, {}]",
                            e.span.0, e.start_us, e.end_us, p.0, parent.start_us, parent.end_us
                        ));
                    }
                }
            }
        }
        for e in &self.events {
            match roots_per_trace.get(&e.trace.0) {
                Some(1) => {}
                Some(n) => return Err(format!("trace {} has {n} roots", e.trace.0)),
                None => return Err(format!("trace {} has no root", e.trace.0)),
            }
        }
        Ok(())
    }

    /// The critical path of `trace`: starting at its root, repeatedly
    /// descend into the child that finishes last (ties broken by later
    /// start, then larger span id — deterministic). Each hop carries
    /// its exclusive time: its duration minus the next hop's.
    #[must_use]
    pub fn critical_path(&self, trace: TraceId) -> Vec<CriticalHop> {
        let Some(&root) = self.roots.iter().find(|&&i| self.events[i].trace == trace) else {
            return Vec::new();
        };
        let mut path = vec![root];
        let mut at = root;
        loop {
            let next = self
                .children_of(self.events[at].span)
                .iter()
                .copied()
                .max_by_key(|&i| {
                    let e = &self.events[i];
                    (e.end_us, e.start_us, e.span.0)
                });
            match next {
                Some(i) => {
                    path.push(i);
                    at = i;
                }
                None => break,
            }
        }
        path.iter()
            .enumerate()
            .map(|(depth, &index)| {
                let own = self.events[index].duration_us();
                let child = path
                    .get(depth + 1)
                    .map_or(0, |&c| self.events[c].duration_us());
                CriticalHop {
                    index,
                    self_us: own.saturating_sub(child),
                }
            })
            .collect()
    }

    /// Renders a critical path as indented text, one hop per line.
    #[must_use]
    pub fn render_critical_path(&self, trace: TraceId) -> String {
        let mut out = String::new();
        for (depth, hop) in self.critical_path(trace).iter().enumerate() {
            let e = &self.events[hop.index];
            let mut line = format!(
                "{}{}/{} {}us (self {}us){}",
                "  ".repeat(depth),
                e.component,
                e.name,
                e.duration_us(),
                hop.self_us,
                if e.ok { "" } else { " [error]" },
            );
            for (k, v) in &e.annotations {
                line.push_str(&format!(" {k}={v}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Byte-deterministic JSON export: spans sorted by
    /// `(trace, start, span)`, annotations in insertion order.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"trace\": {}, ", e.trace.0));
            out.push_str(&format!("\"span\": {}, ", e.span.0));
            match e.parent {
                Some(p) => out.push_str(&format!("\"parent\": {}, ", p.0)),
                None => out.push_str("\"parent\": null, "),
            }
            out.push_str(&format!(
                "\"component\": \"{}\", ",
                escape_json(e.component)
            ));
            out.push_str(&format!("\"name\": \"{}\", ", escape_json(&e.name)));
            out.push_str(&format!("\"start_us\": {}, ", e.start_us));
            out.push_str(&format!("\"end_us\": {}, ", e.end_us));
            out.push_str(&format!("\"ok\": {}, ", e.ok));
            out.push_str("\"annotations\": {");
            for (j, (k, v)) in e.annotations.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)));
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Chrome trace-event export (`about:tracing` / Perfetto): one
    /// complete (`"ph": "X"`) event per span, `pid` = trace id, `tid`
    /// = stable per-component index.
    #[must_use]
    pub fn render_chrome(&self) -> String {
        let mut tids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in &self.events {
            let next = tids.len() + 1;
            tids.entry(e.component).or_insert(next);
        }
        let mut out = String::from("{\"traceEvents\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{",
                escape_json(&e.name),
                escape_json(e.component),
                e.start_us,
                e.duration_us(),
                e.trace.0,
                tids[e.component],
            ));
            out.push_str(&format!("\"span\": \"{}\", ", e.span.0));
            out.push_str(&format!("\"ok\": \"{}\"", e.ok));
            for (k, v) in &e.annotations {
                out.push_str(&format!(", \"{}\": \"{}\"", escape_json(k), escape_json(v)));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_span_opens_outside_a_capture() {
        let tracer = Tracer::new_wall();
        let handle = tracer.handle("test");
        assert!(handle.root("op").is_none());
        assert!(handle.span("op").is_none());
        tracer.begin_capture();
        let root = handle.root("op").expect("a capture opens spans");
        assert!(
            handle.child("op").is_none(),
            "no ambient context, no orphan child"
        );
        let _g = root.enter();
        let late = handle.child("late").expect("child inside the capture");
        drop(root);
        assert_eq!(tracer.take_capture().len(), 1);
        assert!(handle.child("op").is_none(), "capture closed");
        drop(late);
        assert!(
            tracer.take_capture().is_empty(),
            "a span finished after the window is not recorded"
        );
    }

    #[test]
    fn spans_nest_through_ambient_context_and_capture() {
        let tracer = Tracer::new_manual();
        tracer.begin_capture();
        let handle = tracer.handle("test");
        tracer.set_time_us(10);
        let root = handle.root("op").unwrap();
        let root_ctx = root.ctx();
        {
            let _g = root.enter();
            tracer.set_time_us(20);
            let mut child = handle.child("step").unwrap();
            child.annotate("k", "v");
            assert_eq!(current_context().unwrap().0, root_ctx.0);
            tracer.set_time_us(30);
            drop(child);
        }
        assert!(current_context().is_none(), "guard restored");
        tracer.set_time_us(40);
        drop(root);
        let events = tracer.take_capture();
        assert_eq!(events.len(), 2);
        let tree = TraceTree::build(events);
        tree.validate().expect("well-formed");
        let root_ev = &tree.events()[0];
        assert_eq!((root_ev.name.as_str(), root_ev.parent), ("op", None));
        assert_eq!((root_ev.start_us, root_ev.end_us), (10, 40));
        let child_ev = &tree.events()[1];
        assert_eq!(child_ev.parent, Some(root_ev.span));
        assert_eq!(child_ev.annotation("k"), Some("v"));
    }

    #[test]
    fn in_span_parents_annotates_and_marks_a_failed_step() {
        let tracer = Tracer::new_manual();
        let handle = tracer.handle("test");
        let off = in_span(handle.root("off"), |span| {
            assert!(span.is_none(), "tracing off: no span");
            Err::<(), _>(7)
        });
        assert_eq!(off, Err(7));
        tracer.begin_capture();
        let ok = in_span(handle.root("ok"), |span| {
            annotate(span, "k", "v");
            assert!(
                handle.child("inner").is_some(),
                "the span is the ambient parent"
            );
            Ok::<_, ()>(1)
        });
        assert_eq!(ok, Ok(1));
        assert!(current_context().is_none(), "left on return");
        assert_eq!(
            in_span(handle.root("failed"), |_| Err::<(), _>("no")),
            Err("no")
        );
        let events = tracer.take_capture();
        let named = |n: &str| events.iter().find(|e| e.name == n).expect("recorded");
        assert!(named("ok").ok && named("inner").ok && !named("failed").ok);
        assert_eq!(named("inner").parent, Some(named("ok").span));
        assert_eq!(named("ok").annotation("k"), Some("v"));
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn annotate_formats_only_into_a_live_span() {
        /// Counts its `fmt` calls.
        struct Counted<'a>(&'a std::cell::Cell<u32>);
        impl std::fmt::Display for Counted<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("v")
            }
        }
        let calls = std::cell::Cell::new(0);
        let tracer = Tracer::new_manual();
        let handle = tracer.handle("test");
        let mut off = handle.root("off");
        assert!(off.is_none(), "tracing off: no span");
        annotate(&mut off, "k", Counted(&calls));
        assert_eq!(calls.get(), 0, "formatted with no span to hold it");
        tracer.begin_capture();
        let mut live = handle.root("live");
        annotate(&mut live, "k", Counted(&calls));
        assert_eq!(calls.get(), 1);
        drop(live);
        assert_eq!(tracer.take_capture()[0].annotation("k"), Some("v"));
    }

    #[test]
    fn cross_thread_parenting_via_explicit_enter() {
        let tracer = Tracer::new_wall();
        tracer.begin_capture();
        let handle = tracer.handle("test");
        let root = handle.root("op").unwrap();
        let pieces: Vec<ActiveSpan> = {
            let _g = root.enter();
            (0..2)
                .map(|i| handle.child(&format!("piece{i}")).unwrap())
                .collect()
        };
        std::thread::scope(|s| {
            for piece in pieces {
                let h = handle.clone();
                s.spawn(move || {
                    let _g = piece.enter();
                    let attempt = h.child("attempt").unwrap();
                    drop(attempt);
                    drop(piece);
                });
            }
        });
        drop(root);
        let tree = TraceTree::build(tracer.take_capture());
        tree.validate().expect("well-formed across threads");
        assert_eq!(tree.events().len(), 5);
        assert_eq!(tree.roots().len(), 1);
    }

    fn demo_events() -> Vec<SpanEvent> {
        let mk = |span: u64, parent: Option<u64>, name: &str, s: u64, e: u64| SpanEvent {
            trace: TraceId(1),
            span: SpanId(span),
            parent: parent.map(SpanId),
            component: "c",
            name: name.into(),
            start_us: s,
            end_us: e,
            ok: true,
            annotations: vec![("host".into(), format!("h{span}"))],
        };
        vec![
            mk(1, None, "read", 0, 100),
            mk(2, Some(1), "piece0", 0, 40),
            mk(3, Some(1), "piece1", 5, 90),
            mk(4, Some(3), "attempt", 5, 80),
        ]
    }

    #[test]
    fn critical_path_follows_latest_finisher() {
        let tree = TraceTree::build(demo_events());
        tree.validate().unwrap();
        let path = tree.critical_path(TraceId(1));
        let names: Vec<&str> = path
            .iter()
            .map(|h| tree.events()[h.index].name.as_str())
            .collect();
        assert_eq!(names, vec!["read", "piece1", "attempt"]);
        assert_eq!(path[0].self_us, 100 - 85, "root exclusive of piece1");
        assert_eq!(path[2].self_us, 75, "leaf keeps full duration");
        let text = tree.render_critical_path(TraceId(1));
        assert!(
            text.contains("c/piece1") && text.contains("host=h3"),
            "{text}"
        );
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        let mut orphan = demo_events();
        orphan[3].parent = Some(SpanId(99));
        assert!(TraceTree::build(orphan).validate().is_err());

        let mut escaped = demo_events();
        escaped[1].end_us = 500;
        assert!(TraceTree::build(escaped).validate().is_err());

        let mut two_roots = demo_events();
        two_roots[1].parent = None;
        assert!(TraceTree::build(two_roots).validate().is_err());
    }

    #[test]
    fn exports_are_deterministic_and_escaped() {
        let mut shuffled = demo_events();
        shuffled.reverse();
        let a = TraceTree::build(demo_events());
        let b = TraceTree::build(shuffled);
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.render_chrome(), b.render_chrome());
        assert!(a.render_json().contains("\"name\": \"piece1\""));
        assert!(a.render_chrome().contains("\"ph\": \"X\""));
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn with_context_sets_and_restores() {
        assert!(current_context().is_none());
        let seen = with_context(Some((7, 9)), current_context);
        assert_eq!(seen, Some((7, 9)));
        assert!(current_context().is_none());
    }
}
