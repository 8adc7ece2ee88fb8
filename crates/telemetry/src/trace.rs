//! Causal tracing: per-operation span trees across the client,
//! datapath, dataserver, flowserver, shard-router, and recovery
//! layers (DESIGN.md §17).
//!
//! A [`Tracer`] allocates trace/span ids and timestamps span events
//! from either a wall clock (live clusters) or a manually driven
//! simulation clock (byte-deterministic sim traces). Components hold a
//! [`TraceHandle`] — their name plus a bounded lock-free
//! [`FlightRecorder`] ring — and open [`ActiveSpan`]s that record a
//! [`SpanEvent`] on drop. Causality propagates two ways:
//!
//! * **in-process** through a thread-local ambient context
//!   ([`current_context`] / [`ActiveSpan::enter`]), which also carries
//!   across the datapath worker pool because piece spans are created
//!   on the caller's thread (in planning order, so ids are stable) and
//!   entered by whichever worker runs the job;
//! * **cross-process** through the rpc envelope: the client stamps
//!   [`ActiveSpan::ctx`] into the request, the server re-enters it
//!   with [`with_context`].
//!
//! The record path is cheap by construction: a disabled tracer costs
//! one relaxed atomic load per would-be span, and an enabled one costs
//! a ring push (one `fetch_add` plus one pointer swap) per finished
//! span — full event collection only happens inside an explicit
//! [`Tracer::begin_capture`] window. The benchmark's
//! `bench.trace_overhead_ratio.*` metrics set traced batches against
//! untraced ones.
//!
//! The analyzer ([`TraceTree`]) rebuilds the span forest from events,
//! checks well-formedness, extracts the **critical path** (from each
//! root, repeatedly descend into the child that finishes last), and
//! exports byte-deterministic JSON plus Chrome `traceEvents` JSON
//! loadable in `about:tracing` / Perfetto.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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

/// A bounded lock-free ring of the most recent [`SpanEvent`]s of one
/// component — the flight recorder dumped on failure or on demand.
/// Push is a `fetch_add` on the head plus an `AtomicPtr` swap on the
/// slot; older events in a contended slot are freed by the pusher.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<AtomicPtr<SpanEvent>>,
    head: AtomicUsize,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity.max(1))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Event capacity of the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events evicted before ever being dumped.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn push(&self, event: SpanEvent) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let fresh = Box::into_raw(Box::new(event));
        let old = self.slots[slot].swap(fresh, Ordering::AcqRel);
        if !old.is_null() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `old` came from `Box::into_raw` in `push` and the
            // swap transferred exclusive ownership back to us.
            drop(unsafe { Box::from_raw(old) });
        }
    }

    /// Drains the ring, returning the retained events ordered by
    /// `(trace, start, span)`.
    pub fn dump(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let ptr = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !ptr.is_null() {
                // SAFETY: the swap took exclusive ownership of a
                // pointer produced by `Box::into_raw`.
                out.push(*unsafe { Box::from_raw(ptr) });
            }
        }
        sort_events(&mut out);
        out
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        for slot in &self.slots {
            let ptr = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !ptr.is_null() {
                // SAFETY: exclusive ownership as in `dump`.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

/// Orders events deterministically for export and dumps.
fn sort_events(events: &mut [SpanEvent]) {
    events.sort_by_key(|e| (e.trace, e.start_us, e.span));
}

#[derive(Debug)]
enum TraceClock {
    Wall(Instant),
    Manual(AtomicU64),
}

/// Events each component's flight recorder retains by default.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// The tracing root: id allocation, the clock, per-component flight
/// recorders, and the optional capture sink. Disabled by default —
/// a disabled tracer never allocates a span.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    clock: TraceClock,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    capturing: AtomicBool,
    sink: Mutex<Vec<SpanEvent>>,
    rings: Mutex<BTreeMap<&'static str, Arc<FlightRecorder>>>,
    ring_capacity: usize,
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
            enabled: AtomicBool::new(false),
            clock,
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            capturing: AtomicBool::new(false),
            sink: Mutex::new(Vec::new()),
            rings: Mutex::new(BTreeMap::new()),
            ring_capacity: DEFAULT_RING_CAPACITY,
        })
    }

    /// Turns span recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
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

    /// A handle for `component`, creating its flight recorder on first
    /// use (all handles of one component share the ring).
    #[must_use]
    pub fn handle(self: &Arc<Tracer>, component: &'static str) -> TraceHandle {
        let ring = self
            .rings
            .lock()
            .expect("tracer ring registry poisoned")
            .entry(component)
            .or_insert_with(|| Arc::new(FlightRecorder::new(self.ring_capacity)))
            .clone();
        TraceHandle {
            tracer: self.clone(),
            ring,
            component,
        }
    }

    /// Starts collecting every finished span (in addition to the
    /// flight-recorder rings) until [`Tracer::take_capture`].
    pub fn begin_capture(&self) {
        self.sink.lock().expect("trace sink poisoned").clear();
        self.capturing.store(true, Ordering::Release);
    }

    /// Stops capture and returns the collected events ordered by
    /// `(trace, start, span)`.
    pub fn take_capture(&self) -> Vec<SpanEvent> {
        self.capturing.store(false, Ordering::Release);
        let mut events = std::mem::take(&mut *self.sink.lock().expect("trace sink poisoned"));
        sort_events(&mut events);
        events
    }

    /// Drains every component's flight recorder into one ordered dump.
    pub fn dump_flight_recorders(&self) -> Vec<SpanEvent> {
        let rings: Vec<Arc<FlightRecorder>> = self
            .rings
            .lock()
            .expect("tracer ring registry poisoned")
            .values()
            .cloned()
            .collect();
        let mut out = Vec::new();
        for ring in rings {
            out.extend(ring.dump());
        }
        sort_events(&mut out);
        out
    }

    fn next_trace_id(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    fn next_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    fn finish(&self, ring: &FlightRecorder, event: SpanEvent) {
        if self.capturing.load(Ordering::Acquire) {
            self.sink
                .lock()
                .expect("trace sink poisoned")
                .push(event.clone());
        }
        ring.push(event);
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

/// One component's entry point into a [`Tracer`]: its name plus its
/// flight-recorder ring. Cheap to clone; clones share the ring.
#[derive(Clone, Debug)]
pub struct TraceHandle {
    tracer: Arc<Tracer>,
    ring: Arc<FlightRecorder>,
    component: &'static str,
}

impl TraceHandle {
    /// Whether the underlying tracer records spans right now.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The underlying tracer.
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// This component's flight recorder.
    #[must_use]
    pub fn ring(&self) -> &Arc<FlightRecorder> {
        &self.ring
    }

    /// Opens a new root span (a fresh trace), or `None` when tracing
    /// is disabled.
    #[must_use]
    pub fn root(&self, name: &str) -> Option<ActiveSpan> {
        if !self.enabled() {
            return None;
        }
        let trace = self.tracer.next_trace_id();
        Some(self.open(trace, None, name))
    }

    /// Opens a child of the calling thread's ambient span; `None` when
    /// tracing is disabled or no ambient span exists (spans never
    /// float unparented).
    #[must_use]
    pub fn child(&self, name: &str) -> Option<ActiveSpan> {
        if !self.enabled() {
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
        if !self.enabled() {
            return None;
        }
        match current_context() {
            Some((trace, parent)) => Some(self.open(TraceId(trace), Some(SpanId(parent)), name)),
            None => self.root(name),
        }
    }

    /// Opens a child of an explicit `(trace, span)` context — the
    /// receiving side of envelope propagation.
    #[must_use]
    pub fn child_of(&self, ctx: (u64, u64), name: &str) -> Option<ActiveSpan> {
        if !self.enabled() {
            return None;
        }
        Some(self.open(TraceId(ctx.0), Some(SpanId(ctx.1)), name))
    }

    fn open(&self, trace: TraceId, parent: Option<SpanId>, name: &str) -> ActiveSpan {
        ActiveSpan {
            tracer: self.tracer.clone(),
            ring: self.ring.clone(),
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
    ring: Arc<FlightRecorder>,
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
    /// This span's `(trace, span)` context, for envelope propagation
    /// or explicit [`TraceHandle::child_of`] parenting.
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
        self.tracer.finish(&self.ring, event);
    }
}

/// Annotates the span if one is open — the pervasive call-site idiom
/// for `Option<ActiveSpan>`.
pub fn annotate(span: &mut Option<ActiveSpan>, key: &str, value: impl Into<String>) {
    if let Some(s) = span.as_mut() {
        s.annotate(key, value);
    }
}

/// Marks the span failed if one is open.
pub fn mark_error(span: &mut Option<ActiveSpan>) {
    if let Some(s) = span.as_mut() {
        s.set_error();
    }
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
            out.push_str(&format!("\"component\": \"{}\", ", escape(e.component)));
            out.push_str(&format!("\"name\": \"{}\", ", escape(&e.name)));
            out.push_str(&format!("\"start_us\": {}, ", e.start_us));
            out.push_str(&format!("\"end_us\": {}, ", e.end_us));
            out.push_str(&format!("\"ok\": {}, ", e.ok));
            out.push_str("\"annotations\": {");
            for (j, (k, v)) in e.annotations.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
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
                escape(&e.name),
                escape(e.component),
                e.start_us,
                e.duration_us(),
                e.trace.0,
                tids[e.component],
            ));
            out.push_str(&format!("\"span\": \"{}\", ", e.span.0));
            out.push_str(&format!("\"ok\": \"{}\"", e.ok));
            for (k, v) in &e.annotations {
                out.push_str(&format!(", \"{}\": \"{}\"", escape(k), escape(v)));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// JSON string escaping (mirrors the registry's renderer).
fn escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_opens_no_spans() {
        let tracer = Tracer::new_wall();
        let handle = tracer.handle("test");
        assert!(handle.root("op").is_none());
        assert!(handle.child("op").is_none());
        tracer.set_enabled(true);
        assert!(handle.root("op").is_some());
        assert!(
            handle.child("op").is_none(),
            "no ambient context, no orphan child"
        );
    }

    #[test]
    fn spans_nest_through_ambient_context_and_capture() {
        let tracer = Tracer::new_manual();
        tracer.set_enabled(true);
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
    fn cross_thread_parenting_via_explicit_enter() {
        let tracer = Tracer::new_wall();
        tracer.set_enabled(true);
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

    #[test]
    fn flight_recorder_bounds_and_dumps() {
        let ring = FlightRecorder::new(4);
        let tracer = Tracer::new_manual();
        tracer.set_enabled(true);
        let handle = tracer.handle("ringed");
        for i in 0..10 {
            tracer.set_time_us(i);
            drop(handle.root(&format!("op{i}")));
        }
        let dump = handle.ring().dump();
        assert_eq!(dump.len(), DEFAULT_RING_CAPACITY.min(10));
        assert!(handle.ring().dump().is_empty(), "dump drains");
        drop(ring);
    }

    #[test]
    fn flight_recorder_evicts_oldest() {
        let ring = FlightRecorder::new(3);
        for i in 0..5u64 {
            ring.push(SpanEvent {
                trace: TraceId(1),
                span: SpanId(i),
                parent: None,
                component: "t",
                name: "op".into(),
                start_us: i,
                end_us: i,
                ok: true,
                annotations: Vec::new(),
            });
        }
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.dump().iter().map(|e| e.span.0).collect();
        assert_eq!(kept, vec![2, 3, 4]);
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
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn with_context_sets_and_restores() {
        assert!(current_context().is_none());
        let seen = with_context(Some((7, 9)), current_context);
        assert_eq!(seen, Some((7, 9)));
        assert!(current_context().is_none());
    }
}
