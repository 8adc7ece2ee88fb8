//! The Flowserver service: joint replica–path selection, flow
//! lifecycle, stats ingestion, and multi-replica split reads.

use std::collections::HashMap;
use std::sync::Arc;

use mayflower_net::fairshare::new_flow_share_into;
use mayflower_net::{HostId, LinkId, Path, PathCache, PathSet, Topology};
use mayflower_sdn::{CounterSource, FlowCookie, FlowStat, StatsReport};
use mayflower_simcore::SimTime;
use mayflower_telemetry::trace::{ActiveSpan, TraceHandle};
use mayflower_telemetry::{Counter, Gauge, Histogram, Scope};
use serde::{Deserialize, Serialize};

use crate::cost::{flow_cost_into, PathCost};
use crate::scratch::SelectionScratch;
use crate::tracker::{FlowTracker, TrackedFlow};

/// Flowserver telemetry. Every recorded value derives from simulation
/// time or model state — never wall clock — so fixed-seed runs render
/// byte-identical snapshots.
#[derive(Debug, Clone)]
struct FlowserverMetrics {
    selections_local: Arc<Counter>,
    selections_single: Arc<Counter>,
    selections_split: Arc<Counter>,
    selections_unavailable: Arc<Counter>,
    /// Distribution of the winning Eq. 2 cost (estimated completion
    /// seconds, recorded as microseconds).
    selection_cost_us: Arc<Histogram>,
    polls: Arc<Counter>,
    update_freezes: Arc<Counter>,
    split_accepted: Arc<Counter>,
    split_rejected: Arc<Counter>,
    tracked_flows: Arc<Gauge>,
    frozen_flows: Arc<Gauge>,
    /// Background-priority shard-migration selections served.
    migration_selections: Arc<Counter>,
    /// Shortest-path cache lookups served from / filled into the memo.
    path_cache_hits: Arc<Counter>,
    path_cache_misses: Arc<Counter>,
}

impl FlowserverMetrics {
    fn new(scope: &Scope) -> FlowserverMetrics {
        FlowserverMetrics {
            selections_local: scope.counter_with("selections_total", &[("outcome", "local")]),
            selections_single: scope.counter_with("selections_total", &[("outcome", "single")]),
            selections_split: scope.counter_with("selections_total", &[("outcome", "split")]),
            selections_unavailable: scope
                .counter_with("selections_total", &[("outcome", "unavailable")]),
            selection_cost_us: scope.histogram("selection_cost_us"),
            polls: scope.counter("polls_total"),
            update_freezes: scope.counter("update_freezes_total"),
            split_accepted: scope.counter("split_accepted_total"),
            split_rejected: scope.counter("split_rejected_total"),
            tracked_flows: scope.gauge("tracked_flows"),
            frozen_flows: scope.gauge("frozen_flows"),
            migration_selections: scope.counter("migration_selections_total"),
            path_cache_hits: scope.counter("path_cache_hits_total"),
            path_cache_misses: scope.counter("path_cache_misses_total"),
        }
    }

    /// Handles on a private, unrendered registry — the default until a
    /// run attaches the Flowserver to its own registry.
    fn detached() -> FlowserverMetrics {
        FlowserverMetrics::new(&mayflower_telemetry::Registry::new().scope("flowserver"))
    }
}

/// Flowserver tuning knobs.
///
/// The two `*_enabled` switches exist for the ablation study: the
/// paper argues that charging the *impact on existing flows* (Eq. 2's
/// second term) and the *update-freeze* protection of fresh estimates
/// (Pseudocode 2) are both essential; turning either off quantifies
/// its contribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowserverConfig {
    /// How often edge-switch statistics are polled, seconds (§3.3.3).
    pub poll_interval_secs: f64,
    /// Whether reads may be split across two replicas (§4.3).
    pub multipath: bool,
    /// Whether path cost includes the slowdown inflicted on existing
    /// flows (Eq. 2's Σ term). When off, selection greedily maximizes
    /// the new flow's own bandwidth — the strawman the paper argues
    /// against ("the path with the most bandwidth share ... is not
    /// always the best choice").
    pub impact_aware: bool,
    /// Whether freshly-set bandwidth estimates are shielded from the
    /// next stats poll (Pseudocode 2's update-freeze state).
    pub freeze_enabled: bool,
}

impl Default for FlowserverConfig {
    fn default() -> FlowserverConfig {
        FlowserverConfig {
            poll_interval_secs: 1.0,
            multipath: false,
            impact_aware: true,
            freeze_enabled: true,
        }
    }
}

/// One replica/path assignment returned to a client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Assignment {
    /// The fabric cookie identifying the flow.
    pub cookie: FlowCookie,
    /// Which replica host serves this (sub)flow.
    pub replica: HostId,
    /// The installed network path (replica → client).
    pub path: Path,
    /// How many bits to read over this path.
    pub size_bits: f64,
    /// The Flowserver's bandwidth estimate at selection time.
    pub est_bw: f64,
}

/// Scheduling class of a flow request (§4's cost model applied to the
/// control plane's own traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FlowPriority {
    /// Client reads: minimize the full Eq. 2 cost (own completion
    /// plus inflicted slowdown).
    #[default]
    Foreground,
    /// Repair / re-replication traffic: minimize the slowdown
    /// inflicted on existing flows *first* and own completion time
    /// second, so repair bandwidth is steered away from loaded links
    /// instead of clobbering client reads.
    Background,
}

/// The outcome of a replica selection request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Selection {
    /// A replica lives on the client's own host: read locally, no
    /// network flow (the paper excludes this case from experiments).
    Local,
    /// Read everything from one replica over one path.
    Single(Assignment),
    /// Split the read across multiple replicas (§4.3); sizes are
    /// proportioned so all subflows finish together.
    Split(Vec<Assignment>),
    /// No usable path exists right now — every candidate path crosses
    /// a link the controller knows to be down. The client should fall
    /// back (nearest replica, retry with backoff); nothing was
    /// installed.
    Unavailable,
}

impl Selection {
    /// The assignments, if any.
    #[must_use]
    pub fn assignments(&self) -> &[Assignment] {
        match self {
            Selection::Local | Selection::Unavailable => &[],
            Selection::Single(a) => std::slice::from_ref(a),
            Selection::Split(v) => v,
        }
    }

    /// The outcome carrying one or more committed flows.
    fn of(mut assignments: Vec<Assignment>) -> Selection {
        match assignments.len() {
            1 => Selection::Single(assignments.remove(0)),
            _ => Selection::Split(assignments),
        }
    }
}

/// What one selection request asks the admission funnel to commit.
enum Picks {
    /// The cheapest candidate at this priority.
    One(FlowPriority),
    /// §4.3: the cheapest candidate, then a second replica if it
    /// raises the combined bandwidth.
    Split,
    /// Exactly this many distinct sources, or nothing (a coded read's
    /// remote fragments).
    Exactly(usize),
}

/// The candidate routes of a read-shaped request: every source toward
/// the one `client`.
fn routes_to(client: HostId, sources: &[HostId]) -> impl Iterator<Item = (HostId, HostId)> + '_ {
    sources.iter().map(move |&s| (s, client))
}

/// A memoized per-link "share a new flow would get" value, stamped
/// with the tracker epoch it was computed under. The default epoch
/// `u64::MAX` can never equal a real tracker epoch (epochs start at 0
/// and increment), so fresh slots always miss.
#[derive(Debug, Clone, Copy)]
struct ShareSlot {
    epoch: u64,
    share: f64,
}

impl Default for ShareSlot {
    fn default() -> ShareSlot {
        ShareSlot {
            epoch: u64::MAX,
            share: 0.0,
        }
    }
}

/// The Mayflower Flowserver (§3.3.3): runs inside the SDN controller,
/// models every Mayflower flow's bandwidth, and serves
/// `SELECTREPLICAANDPATH` requests.
///
/// Also usable as a **path-only** scheduler for a pre-selected replica
/// ([`Flowserver::select_path_for_replica`]) — that is how the paper
/// builds its `Nearest Mayflower` and `Sinbad-R Mayflower` baselines.
#[derive(Debug, Clone)]
pub struct Flowserver {
    topo: Arc<Topology>,
    /// The one record of installed flows: selection commits to it,
    /// completion removes from it, and the stats poll walks it.
    tracker: FlowTracker,
    config: FlowserverConfig,
    next_cookie: u64,
    /// Memoized shortest-path sets plus the down-link overlay
    /// (OpenFlow port-status events). Candidate paths crossing a
    /// down link are skipped via the severed bitmap.
    path_cache: PathCache,
    /// Reusable evaluation buffers for the selection fast path.
    scratch: SelectionScratch,
    /// Per-link new-flow-share memo, validated by tracker epoch.
    share_cache: Vec<ShareSlot>,
    /// When the model was last refreshed by a stats poll.
    last_stats_at: SimTime,
    /// Each flow's counter reading at the previous poll, the baseline
    /// the next poll differences against.
    prev_flow_bits: HashMap<FlowCookie, f64>,
    /// Polls the controller expected but never received (fault
    /// injection: switch→controller message loss).
    missed_polls: u64,
    metrics: FlowserverMetrics,
    /// Tracing handle for decision-record spans (DESIGN.md §17);
    /// `None` keeps selection entirely trace-free.
    trace: Option<TraceHandle>,
    /// Scratch for the decision record of the selection in flight:
    /// per-candidate rows captured by [`Flowserver::best_path`] while
    /// a decision span is open, `None` otherwise (the hot path checks
    /// one `Option` and formats nothing).
    decision: Option<DecisionRecord>,
}

/// Accumulates what a selection looked at before choosing: one row per
/// candidate replica×path (capped), plus evaluated/pruned counts and
/// the winner's Eq. 2 cost.
#[derive(Debug, Clone, Default)]
struct DecisionRecord {
    rows: Vec<String>,
    truncated: usize,
    evaluated: u64,
    pruned: u64,
    chosen_cost: f64,
}

/// Candidate rows kept verbatim in a decision span before truncation
/// to a count.
const DECISION_ROW_CAP: usize = 16;

/// Renders a chosen assignment for a decision-span annotation.
fn render_assignment(a: &Assignment) -> String {
    let links: Vec<String> = a
        .path
        .links()
        .iter()
        .map(|l| l.index().to_string())
        .collect();
    format!(
        "replica={} links={} bw={:.3e} size_bits={:.3e}",
        a.replica.0,
        links.join("->"),
        a.est_bw,
        a.size_bits
    )
}

impl Flowserver {
    /// Creates a Flowserver controlling the given topology.
    #[must_use]
    pub fn new(topo: Arc<Topology>, config: FlowserverConfig) -> Flowserver {
        Flowserver {
            tracker: FlowTracker::new(),
            share_cache: vec![ShareSlot::default(); topo.links().len()],
            topo,
            config,
            next_cookie: 0,
            path_cache: PathCache::new(),
            scratch: SelectionScratch::new(),
            last_stats_at: SimTime::ZERO,
            prev_flow_bits: HashMap::new(),
            missed_polls: 0,
            metrics: FlowserverMetrics::detached(),
            trace: None,
            decision: None,
        }
    }

    /// Re-homes the Flowserver's telemetry onto `registry` (under the
    /// `flowserver` prefix). Call before driving traffic; counts
    /// accumulated on the private default registry are not migrated.
    pub fn attach_metrics(&mut self, registry: &mayflower_telemetry::Registry) {
        self.metrics = FlowserverMetrics::new(&registry.scope("flowserver"));
    }

    /// Attaches a tracing handle: every selection running under a
    /// traced operation then leaves a decision-record span naming the
    /// candidates it evaluated or pruned, each one's bottleneck share
    /// and Eq. 2 cost, and the chosen path.
    pub fn attach_tracer(&mut self, handle: TraceHandle) {
        self.trace = Some(handle);
    }

    /// Opens a decision-record span (child of the ambient traced op)
    /// and arms the candidate scratch. `None` — no tracer, tracing
    /// disabled, or no ambient op — records nothing.
    fn decision_span(&mut self, name: &str) -> Option<ActiveSpan> {
        let span = self.trace.as_ref()?.child(name)?;
        self.decision = Some(DecisionRecord::default());
        Some(span)
    }

    /// Captures one candidate row while a decision span is open.
    fn push_decision_row(&mut self, row: String, pruned: bool) {
        let Some(rec) = self.decision.as_mut() else {
            return;
        };
        if pruned {
            rec.pruned += 1;
        } else {
            rec.evaluated += 1;
        }
        if rec.rows.len() < DECISION_ROW_CAP {
            rec.rows.push(row);
        } else {
            rec.truncated += 1;
        }
    }

    /// Drains the decision scratch into the span's annotations.
    fn finish_decision(&mut self, span: &mut Option<ActiveSpan>, sel: &Selection) {
        let Some(rec) = self.decision.take() else {
            return;
        };
        let Some(s) = span.as_mut() else {
            return;
        };
        for (i, row) in rec.rows.iter().enumerate() {
            s.annotate(format!("cand{i}"), row.clone());
        }
        if rec.truncated > 0 {
            s.annotate("cand_truncated", rec.truncated.to_string());
        }
        s.annotate("evaluated", rec.evaluated.to_string());
        s.annotate("pruned", rec.pruned.to_string());
        match sel {
            Selection::Local => s.annotate("outcome", "local"),
            Selection::Unavailable => {
                s.annotate("outcome", "unavailable");
                s.set_error();
            }
            Selection::Single(a) => {
                s.annotate("outcome", "single");
                s.annotate("chosen", render_assignment(a));
                s.annotate("cost", format!("{:.6}", rec.chosen_cost));
            }
            Selection::Split(asgs) => {
                s.annotate("outcome", "split");
                for (i, a) in asgs.iter().enumerate() {
                    s.annotate(format!("subflow{i}"), render_assignment(a));
                }
            }
        }
    }

    /// Refreshes the tracked/frozen flow gauges from model state.
    pub(crate) fn refresh_flow_gauges(&self) {
        self.metrics.tracked_flows.set(self.tracker.len() as i64);
        self.metrics
            .frozen_flows
            .set(self.tracker.iter().filter(|f| f.frozen).count() as i64);
    }

    /// Records a port-status event: the controller now considers
    /// `link` down (`up == false`) or restored. Down links are
    /// excluded from path selection; flows already routed over them
    /// are the client's problem (retry → reselect).
    pub fn set_link_state(&mut self, link: LinkId, up: bool) {
        self.path_cache.set_link_state(link, up);
    }

    /// The links currently marked down.
    #[must_use]
    pub fn down_links(&self) -> &std::collections::BTreeSet<LinkId> {
        self.path_cache.down_links()
    }

    /// Records that an expected stats poll never arrived (lost
    /// switch→controller message). The model simply stays stale for
    /// another interval; freeze windows keep expiring on wall time, so
    /// [`Flowserver::expire_stale_freezes`] may still unfreeze flows.
    pub fn note_poll_missed(&mut self, _now: SimTime) {
        self.missed_polls += 1;
    }

    /// How many expected polls were lost so far.
    #[must_use]
    pub fn missed_polls(&self) -> u64 {
        self.missed_polls
    }

    /// Seconds since the model was last refreshed by a stats report —
    /// the model's staleness bound (§3.3.3 assumes one poll interval).
    #[must_use]
    pub fn staleness_secs(&self, now: SimTime) -> f64 {
        now.secs_since(self.last_stats_at)
    }

    /// Expires update-freeze windows that have lapsed **without** a
    /// stats poll arriving (Pseudocode 2 expires freezes on the next
    /// `UPDATEBW`; when polls are lost there is no such update, so the
    /// expiry must be driven by the clock instead). Returns how many
    /// flows were unfrozen.
    pub fn expire_stale_freezes(&mut self, now: SimTime) -> usize {
        let expired = self.tracker.expire_frozen(now);
        self.refresh_flow_gauges();
        expired
    }

    /// The topology under control.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Read access to the flow model, for the naive oracle in the
    /// differential tests and the naive-vs-fast benchmarks.
    #[must_use]
    pub fn tracker(&self) -> &FlowTracker {
        &self.tracker
    }

    /// The flow model itself, for the admission loops the differential
    /// oracle keeps (every mutator keeps the link index exact).
    #[cfg(test)]
    pub(crate) fn tracker_mut(&mut self) -> &mut FlowTracker {
        &mut self.tracker
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FlowserverConfig {
        &self.config
    }

    /// Number of flows currently tracked.
    #[must_use]
    pub fn tracked_flows(&self) -> usize {
        self.tracker.len()
    }

    /// The model state for one flow.
    #[must_use]
    pub fn flow_model(&self, cookie: FlowCookie) -> Option<&TrackedFlow> {
        self.tracker.get(cookie)
    }

    /// `SELECTREPLICAANDPATH` (Pseudocode 1): evaluates every shortest
    /// path from every replica to the client and installs the cheapest,
    /// optionally splitting across replicas when [`FlowserverConfig::
    /// multipath`] is on and splitting increases aggregate bandwidth
    /// (§4.3).
    ///
    /// Returns [`Selection::Local`] if a replica is co-located with the
    /// client. Data flows replica → client, so paths are enumerated in
    /// that direction.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or `size_bits` is not positive.
    pub fn select_replica_path(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        let picks = if self.config.multipath && replicas.len() >= 2 {
            Picks::Split
        } else {
            Picks::One(FlowPriority::Foreground)
        };
        self.select(
            "select_replica_path",
            client,
            replicas,
            size_bits,
            now,
            picks,
        )
    }

    /// Path-only scheduling for a pre-selected replica: the dynamic
    /// network load balancing the paper grafts onto `Nearest` and
    /// `Sinbad-R` ("the optimization space is limited to the
    /// pre-selected source and destination pairs", §6.2).
    ///
    /// # Panics
    ///
    /// Panics if `size_bits` is not positive.
    pub fn select_path_for_replica(
        &mut self,
        client: HostId,
        replica: HostId,
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        let picks = Picks::One(FlowPriority::Foreground);
        self.select(
            "select_path_for_replica",
            client,
            &[replica],
            size_bits,
            now,
            picks,
        )
    }

    /// Joint source-replica + path selection for a **repair flow** at
    /// [`FlowPriority::Background`]: evaluates every live source
    /// replica × path toward the repair destination with the same
    /// Eq. 2 machinery as client reads, but ranks candidates by the
    /// slowdown they inflict on existing flows first. The winning flow
    /// is installed and tracked like any other; the repair executor
    /// reports it finished via [`Flowserver::flow_completed`].
    ///
    /// Data flows source → destination, so `dest` takes the client
    /// position in path enumeration. Returns [`Selection::Local`] if a
    /// source is co-located with the destination (nothing crosses the
    /// network) and [`Selection::Unavailable`] when every candidate
    /// path is severed.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or `size_bits` is not positive.
    pub fn select_repair_flow(
        &mut self,
        dest: HostId,
        sources: &[HostId],
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        let picks = Picks::One(FlowPriority::Background);
        self.select("select_repair_flow", dest, sources, size_bits, now, picks)
    }

    /// Joint source + path selection for a **shard-migration flow**:
    /// the bulk metadata batches the rebalancer streams from an old
    /// shard owner to a new one (DESIGN.md §15). The same request as
    /// [`Flowserver::select_repair_flow`] — the transfer rides
    /// [`FlowPriority::Background`], so rebalancing never competes with
    /// client reads — but accounted separately so operators can tell
    /// repair traffic from rebalancing traffic.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or `size_bits` is not positive.
    pub fn select_migration_flow(
        &mut self,
        dest: HostId,
        sources: &[HostId],
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        self.metrics.migration_selections.inc();
        let picks = Picks::One(FlowPriority::Background);
        self.select(
            "select_migration_flow",
            dest,
            sources,
            size_bits,
            now,
            picks,
        )
    }

    /// Joint `k`-source + path selection for a **degraded coded read**
    /// (DESIGN.md §14): a client reconstructing a sealed chunk needs
    /// any `k` of its surviving fragments, so the Flowserver greedily
    /// commits the cheapest source×path pair `k` times — each pick
    /// seeing the load the previous subflows added — with every
    /// subflow carrying one fragment's share (`size_bits / k`).
    ///
    /// A fragment co-located with the client is served locally and
    /// reduces the remote picks needed; [`Selection::Local`] is
    /// returned when that already satisfies `k`. Whether a source can
    /// be reached depends on severed paths, never on load, so the
    /// reachable sources are counted before the first pick: with fewer
    /// than `k` nothing is installed and [`Selection::Unavailable`] is
    /// returned — the read must not start if it cannot finish.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, `sources` has fewer than `k` hosts, or
    /// `size_bits` is not positive.
    pub fn select_coded_read(
        &mut self,
        client: HostId,
        sources: &[HostId],
        k: usize,
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        assert!(k >= 1, "need at least one fragment");
        assert!(sources.len() >= k, "need at least k candidate sources");
        let picks = Picks::Exactly(k - usize::from(sources.contains(&client)));
        let shard_bits = size_bits / k as f64;
        self.select("select_coded_read", client, sources, shard_bits, now, picks)
    }

    /// The one admission funnel behind every `select_*` entry point:
    /// decision span, local short-circuit, the picks (each flow
    /// carrying `size_bits`, source → `client`), outcome counters.
    fn select(
        &mut self,
        name: &str,
        client: HostId,
        sources: &[HostId],
        size_bits: f64,
        now: SimTime,
        picks: Picks,
    ) -> Selection {
        assert!(!sources.is_empty(), "need at least one replica or source");
        assert!(size_bits > 0.0, "request size must be positive");
        let mut span = self.decision_span(name);
        let sel = match picks {
            // A coded read already counted its local fragment.
            Picks::Exactly(0) => Selection::Local,
            Picks::Exactly(n) => self.pick_exactly(client, sources, n, size_bits, now),
            _ if sources.contains(&client) => Selection::Local,
            Picks::One(priority) => {
                match self.best_path(routes_to(client, sources), size_bits, now, priority) {
                    Some((path, pc)) => Selection::Single(self.commit(path, pc, size_bits, now)),
                    // With all links up this cannot happen on a
                    // connected topology; with down links it means
                    // every candidate path is severed right now.
                    None => Selection::Unavailable,
                }
            }
            Picks::Split => self.pick_split(client, sources, size_bits, now),
        };
        match sel {
            Selection::Local => self.metrics.selections_local.inc(),
            Selection::Single(_) => self.metrics.selections_single.inc(),
            Selection::Split(_) => self.metrics.selections_split.inc(),
            Selection::Unavailable => self.metrics.selections_unavailable.inc(),
        }
        self.refresh_flow_gauges();
        self.finish_decision(&mut span, &sel);
        sel
    }

    /// Cached shortest-path lookup (`src → dst`), counting hits and
    /// misses.
    fn lookup_paths(&mut self, src: HostId, dst: HostId) -> PathSet {
        let (set, hit) = self.path_cache.lookup(&self.topo, src, dst);
        if hit {
            self.metrics.path_cache_hits.inc();
        } else {
            self.metrics.path_cache_misses.inc();
        }
        set
    }

    /// The exact bottleneck share `b_j` a new flow would get on
    /// `links`, served from the per-link share memo where the tracker
    /// epoch proves it fresh. Bit-identical to
    /// [`crate::bandwidth::new_flow_share_on_path_into`]: idle links
    /// contribute their raw capacity (`waterfill(cap, [∞]) ≡ cap`),
    /// loaded links re-run the same waterfill over the same
    /// cookie-ordered demands.
    fn path_share(&mut self, links: &[LinkId]) -> f64 {
        let mut share = f64::INFINITY;
        for l in links {
            let cap = self.topo.link(*l).capacity();
            let link_share = match self.tracker.link_load(*l) {
                None => cap,
                Some(load) if load.is_empty() => cap,
                Some(load) => {
                    let slot = &mut self.share_cache[l.index()];
                    if slot.epoch != load.epoch() {
                        slot.share =
                            new_flow_share_into(cap, load.demands(), &mut self.scratch.fair);
                        slot.epoch = load.epoch();
                    }
                    slot.share
                }
            };
            share = share.min(link_share);
        }
        share
    }

    /// The one loop over candidate paths: evaluates every live
    /// shortest path of every `(src, dst)` route and returns the best
    /// one with its Eq. 2 evaluation. Mutates only caches and scratch
    /// buffers — never the flow model itself.
    ///
    /// Foreground flows minimize the full Eq. 2 cost. Background
    /// (repair, migration) flows rank candidates by the **slowdown
    /// inflicted on existing flows** first and their own completion
    /// time second, so they are steered onto idle links and only
    /// compete with client reads when every path is loaded.
    ///
    /// Fast path: candidate paths come from the [`PathCache`] (severed
    /// ones pre-flagged and skipped), the bottleneck share comes from
    /// the per-link share memo, and a candidate whose **optimistic
    /// lower bound** already loses to the incumbent is pruned before
    /// any waterfill runs. See `DESIGN.md` §11 for the soundness
    /// argument; the differential tests prove selection-identical
    /// behaviour against the naive implementation.
    pub(crate) fn best_path(
        &mut self,
        routes: impl Iterator<Item = (HostId, HostId)>,
        size_bits: f64,
        now: SimTime,
        priority: FlowPriority,
    ) -> Option<(Path, PathCost)> {
        let mut best: Option<(Path, PathCost)> = None;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (src, dst) in routes {
            if src == dst {
                continue;
            }
            let set = self.lookup_paths(src, dst);
            for (i, path) in set.paths().iter().enumerate() {
                if set.is_severed(i) {
                    continue; // severed by a known-down link
                }
                let est_bw = self.path_share(path.links());
                // Never prune while no incumbent exists: the naive
                // loop accepts the first candidate unconditionally
                // (even at infinite cost) and commits its impacted
                // list, so we must evaluate it fully.
                if best.is_some() && prune_candidate(priority, est_bw, size_bits, best_key) {
                    if self.decision.is_some() {
                        let row = format!("replica={} path={i} bw={est_bw:.3e} pruned", src.0);
                        self.push_decision_row(row, true);
                    }
                    continue;
                }
                // Impacted rows are left in the scratch and
                // materialized only for a winning candidate.
                let (est_bw, cost) = flow_cost_into(
                    &self.topo,
                    &self.tracker,
                    path.links(),
                    size_bits,
                    now,
                    self.config.impact_aware,
                    Some(est_bw),
                    &mut self.scratch,
                );
                if self.decision.is_some() {
                    let row = format!("replica={} path={i} bw={est_bw:.3e} cost={cost:.6}", src.0);
                    self.push_decision_row(row, false);
                }
                let k = selection_key(priority, size_bits, est_bw, cost);
                if best.is_none() || k < best_key {
                    best_key = k;
                    if let Some(rec) = self.decision.as_mut() {
                        rec.chosen_cost = cost;
                    }
                    let pc = PathCost {
                        est_bw,
                        cost,
                        impacted: self.scratch.take_impacted(),
                    };
                    best = Some((path.clone(), pc));
                }
            }
        }
        best
    }

    /// Applies a chosen path: `SETBW` on impacted flows (Pseudocode 1
    /// lines 9–11) and registration of the new flow (itself frozen at
    /// its estimate). The only place a selection changes the model, and
    /// nothing it does is undone: callers decide first.
    pub(crate) fn commit(
        &mut self,
        path: Path,
        pc: PathCost,
        size_bits: f64,
        now: SimTime,
    ) -> Assignment {
        self.metrics.selection_cost_us.record_secs(pc.cost);
        self.metrics.update_freezes.add(pc.impacted.len() as u64);
        for (cookie, new_bw) in &pc.impacted {
            self.tracker.set_flow_bw(*cookie, *new_bw, now);
        }
        let cookie = FlowCookie(self.next_cookie);
        self.next_cookie += 1;
        let mut flow = TrackedFlow {
            cookie,
            path: path.clone(),
            size_bits,
            remaining_bits: size_bits,
            bw: pc.est_bw,
            updated_at: now,
            frozen: false,
            freeze_until: SimTime::ZERO,
        };
        flow.set_bw(pc.est_bw, now);
        self.tracker.insert(flow);
        Assignment {
            cookie,
            replica: path.src(),
            path,
            size_bits,
            est_bw: pc.est_bw,
        }
    }

    /// §4.3's multiple-replica selection: greedily pick and admit
    /// `p1`; pick `p2` from the remaining replicas and decide before
    /// admitting it. The candidate's impact list already says what
    /// bandwidth `p1` would keep (`b'_1`), so `p2` is committed only if
    /// the combined share `b'_1 + b_2` beats `b_1` alone; the two
    /// subflows then get sizes `S_i = d · b_i / b`. A declined `p2` is
    /// never installed.
    fn pick_split(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        let fg = FlowPriority::Foreground;
        let Some((path, pc)) = self.best_path(routes_to(client, replicas), size_bits, now, fg)
        else {
            return Selection::Unavailable;
        };
        let b1 = pc.est_bw;
        let first = self.commit(path, pc, size_bits, now);
        let rest: Vec<HostId> = replicas
            .iter()
            .copied()
            .filter(|r| *r != first.replica)
            .collect();
        let Some((path, pc)) = self
            .best_path(routes_to(client, &rest), size_bits, now, fg)
            .filter(|(_, pc)| pc.est_bw > 0.0)
        else {
            return Selection::Single(first);
        };
        let b2 = pc.est_bw;
        // Admitting p2 may shrink p1. It was committed above, so the
        // tracker holds it.
        let b1_kept = match pc.impacted.iter().find(|(c, _)| *c == first.cookie) {
            Some((_, new_bw)) => *new_bw,
            None => self.tracker.get(first.cookie).map_or(0.0, |f| f.bw),
        };
        let total_b = b1_kept + b2;
        if total_b > b1 + 1e-9 {
            self.metrics.split_accepted.inc();
        } else {
            self.metrics.split_rejected.inc();
            return Selection::Single(first);
        }
        let mut parts = vec![first, self.commit(path, pc, size_bits, now)];
        // Proportion sizes so subflows finish together: S_i = d·b_i/b.
        for (a, b_i) in parts.iter_mut().zip([b1_kept, b2]) {
            a.size_bits = size_bits * b_i / total_b;
            a.est_bw = b_i;
            // Also refreshes the freeze window for the reduced size.
            self.tracker.resize_flow(a.cookie, a.size_bits, now);
        }
        Selection::Split(parts)
    }

    /// Exactly `needed` flows of `shard_bits` each from distinct
    /// sources, or none at all.
    fn pick_exactly(
        &mut self,
        client: HostId,
        sources: &[HostId],
        needed: usize,
        shard_bits: f64,
        now: SimTime,
    ) -> Selection {
        let mut remaining: Vec<HostId> = Vec::with_capacity(sources.len());
        for &s in sources {
            if s != client
                && !remaining.contains(&s)
                && self.lookup_paths(s, client).live().next().is_some()
            {
                remaining.push(s);
            }
        }
        if remaining.len() < needed {
            return Selection::Unavailable;
        }
        let mut assignments = Vec::with_capacity(needed);
        for _ in 0..needed {
            let fg = FlowPriority::Foreground;
            // Every remaining source had a live path when listed above,
            // a commit severs no link, and `best_path` takes the first
            // live candidate it meets: each round finds one.
            let Some((path, pc)) =
                self.best_path(routes_to(client, &remaining), shard_bits, now, fg)
            else {
                break;
            };
            remaining.retain(|s| *s != path.src());
            assignments.push(self.commit(path, pc, shard_bits, now));
        }
        Selection::of(assignments)
    }

    /// Ingests a stats report: `UPDATEBW` per flow (respecting freeze
    /// windows) plus remaining-size refresh from flow byte counters.
    pub fn on_stats(&mut self, report: &StatsReport) {
        let now = report.measured_at;
        self.metrics.polls.inc();
        self.last_stats_at = now;
        for stat in &report.flows {
            // Force-unfreeze in ablation mode: estimates are never
            // shielded when freezing is disabled.
            self.tracker.apply_stats(
                stat.cookie,
                stat.rate_bps,
                stat.total_bits,
                now,
                !self.config.freeze_enabled,
            );
        }
    }

    /// Runs one poll cycle against a counter source and ingests it.
    /// The experiment driver calls this every
    /// [`FlowserverConfig::poll_interval_secs`].
    ///
    /// Reads one counter per tracked flow, in cookie order — the byte
    /// counter of the flow's rule at its ingress edge switch (§4: edge
    /// switches report the flows that originate from their hosts) —
    /// and differences it against the flow's reading at the previous
    /// poll. A flow seen for the first time is differenced from 0; a
    /// flow whose counter is gone is skipped and its reading
    /// forgotten; a zero interval gives rate 0.
    pub fn poll_stats<C: CounterSource>(&mut self, counters: &C, now: SimTime) -> StatsReport {
        let dt = now.secs_since(self.last_stats_at);
        let mut flows = Vec::with_capacity(self.tracker.len());
        for f in self.tracker.iter() {
            let Some(total_bits) = counters.flow_bits(f.cookie) else {
                continue;
            };
            let prev = self.prev_flow_bits.get(&f.cookie).copied().unwrap_or(0.0);
            let rate_bps = if dt > 0.0 {
                (total_bits - prev).max(0.0) / dt
            } else {
                0.0
            };
            flows.push(FlowStat {
                cookie: f.cookie,
                total_bits,
                rate_bps,
            });
        }
        self.prev_flow_bits = flows.iter().map(|s| (s.cookie, s.total_bits)).collect();
        let report = StatsReport {
            measured_at: now,
            flows,
        };
        self.on_stats(&report);
        report
    }

    /// Notification that a flow finished: drops its model state.
    pub fn flow_completed(&mut self, cookie: FlowCookie) {
        self.tracker.remove(cookie);
        self.refresh_flow_gauges();
    }
}

/// The lexicographic ranking key of a fully-evaluated candidate, per
/// priority class (identical to the naive implementation's closure).
fn selection_key(priority: FlowPriority, size_bits: f64, est_bw: f64, cost: f64) -> (f64, f64) {
    match priority {
        FlowPriority::Foreground => (cost, 0.0),
        FlowPriority::Background => {
            if est_bw <= 0.0 {
                (f64::INFINITY, f64::INFINITY)
            } else {
                let own = size_bits / est_bw;
                // Eq. 2's second term alone: Σ (r/b' − r/b).
                (cost - own, own)
            }
        }
    }
}

/// Whether a candidate with bottleneck share `est_bw` can be skipped
/// without running the full evaluation, given the incumbent's key.
/// Sound because the impact term is non-negative (every impacted flow
/// strictly *loses* bandwidth), so `size/est_bw` is an exact lower
/// bound on the Foreground cost — and for Background the second key
/// component `own = size/est_bw` is known exactly while the first is
/// bounded below by zero. Must only be called when an incumbent
/// exists; keys of pruned candidates can provably never win:
///
/// * Foreground: `k = (cost, 0.0)` with `cost ≥ size/est_bw`; the
///   incumbent's second component is also `0.0`, so `k` wins iff
///   `cost < best.0`. If `est_bw ≤ 0` the cost is `∞` and never wins.
/// * Background: `k = (impact, own)` with `impact ≥ 0`, or `(∞, ∞)`
///   when `est_bw ≤ 0` (never wins). Since `impact` could be `0`, a
///   candidate is only provably beaten when the incumbent's impact is
///   already `0` and `own ≥ best.1`.
fn prune_candidate(
    priority: FlowPriority,
    est_bw: f64,
    size_bits: f64,
    best_key: (f64, f64),
) -> bool {
    if est_bw <= 0.0 {
        return true;
    }
    let own = size_bits / est_bw;
    match priority {
        FlowPriority::Foreground => own >= best_key.0,
        FlowPriority::Background => best_key.0 == 0.0 && own >= best_key.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::{FatTreeParams, TreeParams, GBPS};
    use mayflower_sdn::counters::StaticCounters;
    use mayflower_simcore::SimRng;

    fn server() -> Flowserver {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        Flowserver::new(topo, FlowserverConfig::default())
    }

    #[test]
    fn decision_record_names_candidates_and_chosen_path() {
        use mayflower_telemetry::trace::{TraceTree, Tracer};
        let mut fs = server();
        let tracer = Tracer::new_manual();
        fs.attach_tracer(tracer.handle("flowserver"));

        // Untraced selections record nothing (no ambient op).
        fs.select_replica_path(HostId(0), &[HostId(5)], MB256, SimTime::ZERO);

        tracer.begin_capture();
        let op = tracer.handle("client").root("read").unwrap();
        let sel = {
            let _g = op.enter();
            fs.select_replica_path(HostId(0), &[HostId(5), HostId(20)], MB256, SimTime::ZERO)
        };
        drop(op);
        let Selection::Single(chosen) = sel else {
            panic!("expected a single assignment, got {sel:?}")
        };

        let tree = TraceTree::build(tracer.take_capture());
        tree.validate().expect("well-formed decision trace");
        let decision = tree
            .events()
            .iter()
            .find(|e| e.name == "select_replica_path")
            .expect("decision span recorded");
        assert_eq!(decision.component, "flowserver");
        assert!(
            decision.annotation("cand0").is_some(),
            "candidate rows kept"
        );
        assert!(decision.annotation("evaluated").is_some());
        assert!(decision.annotation("pruned").is_some());
        assert!(decision.annotation("cost").is_some(), "Eq. 2 cost recorded");
        let rendered = decision.annotation("chosen").expect("chosen path recorded");
        assert!(
            rendered.contains(&format!("replica={}", chosen.replica.0)),
            "{rendered}"
        );
    }

    fn server_multipath() -> Flowserver {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        Flowserver::new(
            topo,
            FlowserverConfig {
                multipath: true,
                ..FlowserverConfig::default()
            },
        )
    }

    const MB256: f64 = 256.0 * 8e6;

    #[test]
    fn idle_network_prefers_near_replica() {
        let mut fs = server();
        let sel = fs.select_replica_path(
            HostId(0),
            &[HostId(1), HostId(5), HostId(20)],
            MB256,
            SimTime::ZERO,
        );
        let Selection::Single(a) = sel else {
            panic!("expected single")
        };
        // All replicas reach 1 Gbps on an idle net; cost ties break to
        // the first minimal candidate, the same-rack replica.
        assert_eq!(a.replica, HostId(1));
        assert!((a.est_bw - GBPS).abs() < 1.0);
        assert_eq!(fs.tracked_flows(), 1);
    }

    #[test]
    fn local_replica_short_circuits() {
        let mut fs = server();
        let sel = fs.select_replica_path(HostId(3), &[HostId(3), HostId(9)], MB256, SimTime::ZERO);
        assert!(matches!(sel, Selection::Local));
        assert_eq!(fs.tracked_flows(), 0);
    }

    #[test]
    fn congested_near_replica_is_avoided() {
        let mut fs = server();
        // Saturate host 1's rack: six big flows out of host 1.
        for dst in [2u32, 3, 5, 6, 7, 9] {
            fs.select_path_for_replica(HostId(dst), HostId(1), 10.0 * MB256, SimTime::ZERO);
        }
        // Now a read with replicas at host 1 (same rack, hot) and
        // host 20 (cross pod, idle): Mayflower should go remote.
        let sel = fs.select_replica_path(HostId(0), &[HostId(1), HostId(20)], MB256, SimTime::ZERO);
        let Selection::Single(a) = sel else {
            panic!("expected single")
        };
        assert_eq!(a.replica, HostId(20), "remote replica must win");
    }

    #[test]
    fn repair_flow_is_installed_and_tracked() {
        let mut fs = server();
        let sel = fs.select_repair_flow(HostId(0), &[HostId(1), HostId(20)], MB256, SimTime::ZERO);
        let Selection::Single(a) = sel else {
            panic!("expected single repair assignment")
        };
        assert!(a.est_bw > 0.0);
        assert_eq!(fs.tracked_flows(), 1);
        fs.flow_completed(a.cookie);
        assert_eq!(fs.tracked_flows(), 0);
    }

    #[test]
    fn repair_flow_local_source_short_circuits() {
        let mut fs = server();
        let sel = fs.select_repair_flow(HostId(4), &[HostId(4), HostId(9)], MB256, SimTime::ZERO);
        assert!(matches!(sel, Selection::Local));
        assert_eq!(fs.tracked_flows(), 0);
    }

    #[test]
    fn background_priority_yields_to_loaded_links() {
        let mut fs = server();
        // Saturate the path toward host 1 (same rack as the dest).
        for dst in [2u32, 3, 5, 6, 7, 9] {
            fs.select_path_for_replica(HostId(dst), HostId(1), 10.0 * MB256, SimTime::ZERO);
        }
        // Repair sources: hot same-rack host 1 vs idle cross-pod host
        // 20. Background priority minimizes inflicted slowdown, so the
        // idle source must win even though it is farther.
        let sel = fs.select_repair_flow(HostId(0), &[HostId(1), HostId(20)], MB256, SimTime::ZERO);
        let Selection::Single(a) = sel else {
            panic!("expected single repair assignment")
        };
        assert_eq!(a.replica, HostId(20), "repair must avoid the hot rack");
    }

    #[test]
    fn coded_read_schedules_k_distinct_sources() {
        let mut fs = server();
        let sources = [HostId(1), HostId(5), HostId(9), HostId(20), HostId(25)];
        let sel = fs.select_coded_read(HostId(0), &sources, 3, MB256, SimTime::ZERO);
        let Selection::Split(assignments) = sel else {
            panic!("expected a 3-way split, got {sel:?}")
        };
        assert_eq!(assignments.len(), 3);
        let mut picked: Vec<HostId> = assignments.iter().map(|a| a.replica).collect();
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 3, "sources must be distinct");
        for a in &assignments {
            assert!(sources.contains(&a.replica));
            assert!((a.size_bits - MB256 / 3.0).abs() < 1.0, "one shard each");
            assert!(a.est_bw > 0.0);
        }
        assert_eq!(fs.tracked_flows(), 3);
        for a in &assignments {
            fs.flow_completed(a.cookie);
        }
        assert_eq!(fs.tracked_flows(), 0);
    }

    #[test]
    fn coded_read_counts_a_local_fragment_toward_k() {
        let mut fs = server();
        // k = 1 and the client holds a fragment: nothing crosses the
        // network.
        let sel = fs.select_coded_read(HostId(3), &[HostId(3), HostId(9)], 1, MB256, SimTime::ZERO);
        assert!(matches!(sel, Selection::Local));
        assert_eq!(fs.tracked_flows(), 0);
        // k = 2 with one local fragment: exactly one remote subflow.
        let sel = fs.select_coded_read(
            HostId(3),
            &[HostId(3), HostId(9), HostId(20)],
            2,
            MB256,
            SimTime::ZERO,
        );
        let Selection::Single(a) = sel else {
            panic!("expected one remote subflow, got {sel:?}")
        };
        assert_ne!(a.replica, HostId(3));
        assert_eq!(fs.tracked_flows(), 1);
    }

    #[test]
    fn coded_read_short_of_k_installs_and_counts_nothing() {
        let registry = mayflower_telemetry::Registry::new();
        let mut fs = server();
        fs.attach_metrics(&registry);
        // A flow into the client that any fragment subflow would slow.
        let bystander = fs.select_path_for_replica(HostId(0), HostId(2), MB256, SimTime::ZERO);
        let bystander = bystander.assignments()[0].cookie;
        // Sever two of three sources: only host 20 stays reachable, so
        // a k = 2 schedule cannot complete and nothing may be admitted
        // on the way to finding that out.
        fs.set_link_state(fs.topology().host_uplink(HostId(1)), false);
        fs.set_link_state(fs.topology().host_uplink(HostId(5)), false);
        let sel = fs.select_coded_read(
            HostId(0),
            &[HostId(1), HostId(5), HostId(20)],
            2,
            MB256,
            SimTime::from_secs(0.5),
        );
        assert!(matches!(sel, Selection::Unavailable), "got {sel:?}");
        assert_eq!(fs.tracked_flows(), 1, "only the bystander");
        let f = fs.flow_model(bystander).unwrap();
        assert_eq!(
            (f.bw, f.updated_at),
            (GBPS, SimTime::ZERO),
            "never re-frozen"
        );

        let snap = registry.snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(
            count("flowserver_selections_total{outcome=\"unavailable\"}"),
            1
        );
        assert_eq!(count("flowserver_update_freezes_total"), 0);
        let cost = snap.histogram("flowserver_selection_cost_us").unwrap();
        assert_eq!(cost.count, 1, "the bystander's commit only");
        // No cookie was spent on a subflow that was never admitted.
        let next = fs.select_path_for_replica(HostId(8), HostId(9), MB256, SimTime::ZERO);
        assert_eq!(next.assignments()[0].cookie, FlowCookie(1));
    }

    #[test]
    fn coded_read_spreads_away_from_loaded_links() {
        let mut fs = server();
        // Saturate host 1's rack.
        for dst in [2u32, 3, 5, 6, 7, 9] {
            fs.select_path_for_replica(HostId(dst), HostId(1), 10.0 * MB256, SimTime::ZERO);
        }
        // Two fragments needed, three candidates: the hot same-rack
        // source must lose to the two idle cross-pod ones.
        let sel = fs.select_coded_read(
            HostId(0),
            &[HostId(1), HostId(20), HostId(25)],
            2,
            MB256,
            SimTime::ZERO,
        );
        let Selection::Split(assignments) = sel else {
            panic!("expected split, got {sel:?}")
        };
        for a in &assignments {
            assert_ne!(a.replica, HostId(1), "hot source must be avoided");
        }
    }

    #[test]
    fn impacted_flows_get_frozen_with_new_bw() {
        let mut fs = server();
        // One flow into host 0's rack neighbour.
        let s1 = fs.select_path_for_replica(HostId(0), HostId(1), MB256, SimTime::ZERO);
        let c1 = s1.assignments()[0].cookie;
        assert!((fs.flow_model(c1).unwrap().bw - GBPS).abs() < 1.0);
        // Second flow sharing host 0's downlink halves the first.
        let s2 = fs.select_path_for_replica(HostId(0), HostId(2), MB256, SimTime::ZERO);
        let c2 = s2.assignments()[0].cookie;
        let f1 = fs.flow_model(c1).unwrap();
        assert!((f1.bw - GBPS / 2.0).abs() < 1.0, "bw {}", f1.bw);
        assert!(f1.frozen);
        let f2 = fs.flow_model(c2).unwrap();
        assert!((f2.bw - GBPS / 2.0).abs() < 1.0);
    }

    #[test]
    fn completion_cleans_up() {
        let mut fs = server();
        let sel = fs.select_replica_path(HostId(0), &[HostId(1)], MB256, SimTime::ZERO);
        let cookie = sel.assignments()[0].cookie;
        fs.flow_completed(cookie);
        assert_eq!(fs.tracked_flows(), 0);
        assert!(fs.flow_model(cookie).is_none());
    }

    #[test]
    fn multipath_splits_when_beneficial() {
        let mut fs = server_multipath();
        // Cross-pod read: core links are 0.5 Gbps (8:1 oversub), so a
        // single path caps at 0.5 Gbps while the client downlink is
        // 1 Gbps. Two replicas in two other pods can drive ~1 Gbps.
        let sel =
            fs.select_replica_path(HostId(0), &[HostId(20), HostId(36)], MB256, SimTime::ZERO);
        let Selection::Split(parts) = sel else {
            panic!("expected split, got {sel:?}")
        };
        assert_eq!(parts.len(), 2);
        let total: f64 = parts.iter().map(|a| a.size_bits).sum();
        assert!((total - MB256).abs() < 1.0, "split conserves size");
        // Different replicas per subflow (§4.3).
        assert_ne!(parts[0].replica, parts[1].replica);
        assert_eq!(fs.tracked_flows(), 2);
    }

    #[test]
    fn multipath_declines_when_single_path_saturates_client() {
        let mut fs = server_multipath();
        // Same-rack replica already reaches the client's full 1 Gbps
        // downlink; splitting cannot help.
        let sel = fs.select_replica_path(HostId(0), &[HostId(1), HostId(2)], MB256, SimTime::ZERO);
        assert!(
            matches!(sel, Selection::Single(_)),
            "split of a line-rate read must be declined: {sel:?}"
        );
        assert_eq!(
            fs.tracked_flows(),
            1,
            "the declined subflow is not installed"
        );
    }

    #[test]
    fn declined_split_is_not_counted_as_if_it_happened() {
        let registry = mayflower_telemetry::Registry::new();
        let mut fs = server_multipath();
        fs.attach_metrics(&registry);
        let sel = fs.select_replica_path(HostId(0), &[HostId(1), HostId(2)], MB256, SimTime::ZERO);
        let Selection::Single(kept) = sel else {
            panic!("split of a line-rate read must be declined: {sel:?}")
        };
        assert_eq!(kept.cookie, FlowCookie(0));

        let snap = registry.snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(count("flowserver_split_rejected_total"), 1);
        // The second subflow would have halved the first; it was never
        // admitted, so nothing was re-frozen, costed or numbered.
        assert_eq!(count("flowserver_update_freezes_total"), 0);
        let cost = snap.histogram("flowserver_selection_cost_us").unwrap();
        assert_eq!(cost.count, 1);
        let next = fs.select_path_for_replica(HostId(8), HostId(9), MB256, SimTime::ZERO);
        assert_eq!(next.assignments()[0].cookie, FlowCookie(1));
        // The kept flow is what a Flowserver that never splits installs.
        let mut plain = server();
        plain.select_replica_path(HostId(0), &[HostId(1), HostId(2)], MB256, SimTime::ZERO);
        let (got, want) = (
            fs.flow_model(kept.cookie).unwrap(),
            plain.flow_model(kept.cookie).unwrap(),
        );
        assert_eq!(got.path, want.path);
        assert_eq!(
            (got.bw, got.remaining_bits, got.freeze_until),
            (want.bw, want.remaining_bits, want.freeze_until)
        );
    }

    #[test]
    fn split_sizes_proportional_to_bandwidth() {
        let mut fs = server_multipath();
        let sel =
            fs.select_replica_path(HostId(0), &[HostId(20), HostId(36)], MB256, SimTime::ZERO);
        let Selection::Split(parts) = sel else {
            panic!("expected split")
        };
        let b: f64 = parts.iter().map(|a| a.est_bw).sum();
        for a in &parts {
            let expected = MB256 * a.est_bw / b;
            assert!((a.size_bits - expected).abs() < 1.0);
        }
        // Equal bandwidths here → subflows finish simultaneously.
        let t0 = parts[0].size_bits / parts[0].est_bw;
        let t1 = parts[1].size_bits / parts[1].est_bw;
        assert!((t0 - t1).abs() < 1e-6);
    }

    #[test]
    fn stats_poll_reanchors_unfrozen_flows() {
        let mut fs = server();
        let sel = fs.select_replica_path(HostId(0), &[HostId(20)], MB256, SimTime::ZERO);
        let cookie = sel.assignments()[0].cookie;
        // Force the freeze window open.
        let far_future = SimTime::from_secs(1e6);
        let mut counters = StaticCounters::default();
        counters.flows.insert(cookie, MB256 / 2.0);
        let _ = fs.poll_stats(&counters, far_future);
        let f = fs.flow_model(cookie).unwrap();
        assert!((f.remaining_bits - MB256 / 2.0).abs() < 1.0);
        assert!(!f.frozen);
    }

    #[test]
    fn frozen_flow_ignores_stats_within_window() {
        let mut fs = server();
        let sel = fs.select_replica_path(HostId(0), &[HostId(20)], MB256, SimTime::ZERO);
        let cookie = sel.assignments()[0].cookie;
        let bw_before = fs.flow_model(cookie).unwrap().bw;
        let mut counters = StaticCounters::default();
        counters.flows.insert(cookie, 1.0);
        // Poll immediately: the flow was just frozen by selection.
        let _ = fs.poll_stats(&counters, SimTime::from_millis(1.0));
        let f = fs.flow_model(cookie).unwrap();
        assert_eq!(f.bw, bw_before, "freeze must shield the estimate");
        assert!(f.frozen);
    }

    /// One cross-pod flow, 0 → 20: it leaves through host 0's edge
    /// switch and arrives through host 20's.
    fn cross_pod_flow(fs: &mut Flowserver) -> FlowCookie {
        let sel = fs.select_path_for_replica(HostId(20), HostId(0), MB256, SimTime::ZERO);
        sel.assignments()[0].cookie
    }

    #[test]
    fn poll_rate_is_the_counter_delta_over_the_interval() {
        let mut fs = server();
        let cookie = cross_pod_flow(&mut fs);
        let mut counters = StaticCounters::default();
        counters.flows.insert(cookie, 1e9);
        let r1 = fs.poll_stats(&counters, SimTime::from_secs(1.0));
        assert_eq!(r1.flow(cookie).unwrap().rate_bps, 1e9);

        counters.flows.insert(cookie, 1.5e9);
        let r2 = fs.poll_stats(&counters, SimTime::from_secs(2.0));
        let f2 = r2.flow(cookie).unwrap();
        assert_eq!((f2.rate_bps, f2.total_bits), (0.5e9, 1.5e9));
    }

    #[test]
    fn a_vanished_counter_is_skipped_and_restarts_from_zero() {
        let mut fs = server();
        let cookie = cross_pod_flow(&mut fs);
        let mut counters = StaticCounters::default();
        counters.flows.insert(cookie, 4e8);
        let r = fs.poll_stats(&counters, SimTime::from_secs(1.0));
        assert_eq!(r.flows.len(), 1);

        // The counter is gone: the flow is skipped and its reading
        // forgotten, so when the counter returns it is differenced
        // from 0 again, not from 4e8.
        counters.flows.remove(&cookie);
        assert!(fs
            .poll_stats(&counters, SimTime::from_secs(2.0))
            .flows
            .is_empty());
        counters.flows.insert(cookie, 6e8);
        let r = fs.poll_stats(&counters, SimTime::from_secs(3.0));
        assert_eq!(r.flow(cookie).unwrap().rate_bps, 6e8);

        // A completed flow is not polled, whatever its counter reads.
        fs.flow_completed(cookie);
        let r = fs.poll_stats(&counters, SimTime::from_secs(4.0));
        assert!(r.flows.is_empty());
    }

    #[test]
    fn a_zero_interval_poll_gives_rate_zero() {
        let mut fs = server();
        let cookie = cross_pod_flow(&mut fs);
        let mut counters = StaticCounters::default();
        counters.flows.insert(cookie, 5.0);
        let r = fs.poll_stats(&counters, SimTime::ZERO);
        assert_eq!(r.flow(cookie).unwrap().rate_bps, 0.0);
    }

    #[test]
    fn a_flow_across_two_edge_racks_is_reported_once() {
        let mut fs = server();
        let cookie = cross_pod_flow(&mut fs);
        let mut counters = StaticCounters::default();
        counters.flows.insert(cookie, 10.0);
        let r = fs.poll_stats(&counters, SimTime::from_secs(1.0));
        assert_eq!(r.flows.len(), 1);
    }

    /// A seeded walk of selections (splits included), completions and
    /// polls on both topology builders: every poll reports each
    /// tracked flow exactly once and nothing else.
    #[test]
    fn every_poll_reports_each_tracked_flow_once() {
        let fat = FatTreeParams {
            k: 4,
            link_capacity: GBPS,
        };
        for topo in [
            Topology::three_tier(&TreeParams::paper_testbed()),
            Topology::fat_tree(&fat),
        ] {
            let hosts = topo.hosts();
            let mut fs = Flowserver::new(
                Arc::new(topo),
                FlowserverConfig {
                    multipath: true,
                    ..FlowserverConfig::default()
                },
            );
            let mut rng = SimRng::seed_from(23);
            let mut counters = StaticCounters::default();
            let mut polled = 0;
            for step in 1..=600u32 {
                let now = SimTime::from_millis(10.0 * f64::from(step));
                match rng.index(4) {
                    0 | 1 => {
                        let client = *rng.choose(&hosts);
                        let replicas: Vec<HostId> =
                            (0..=rng.index(3)).map(|_| *rng.choose(&hosts)).collect();
                        fs.select_replica_path(client, &replicas, MB256, now);
                    }
                    2 => {
                        let live: Vec<FlowCookie> = fs.tracker().iter().map(|f| f.cookie).collect();
                        if !live.is_empty() {
                            fs.flow_completed(live[rng.index(live.len())]);
                        }
                    }
                    _ => {
                        for f in fs.tracker().iter() {
                            *counters.flows.entry(f.cookie).or_default() += 1e6;
                        }
                        let report = fs.poll_stats(&counters, now);
                        let mut got: Vec<FlowCookie> =
                            report.flows.iter().map(|s| s.cookie).collect();
                        got.sort_unstable();
                        let want: Vec<FlowCookie> = fs.tracker().iter().map(|f| f.cookie).collect();
                        assert_eq!(got, want, "poll at step {step}");
                        polled += want.len();
                    }
                }
            }
            assert!(polled > 1000, "the walk kept flows in flight: {polled}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_replicas_rejected() {
        let mut fs = server();
        fs.select_replica_path(HostId(0), &[], MB256, SimTime::ZERO);
    }

    #[test]
    fn down_link_steers_selection_around_it() {
        let mut fs = server();
        // Fail the same-rack replica's uplink: selection must route
        // from the cross-pod replica instead of the usual HostId(1).
        let uplink = fs.topology().host_uplink(HostId(1));
        fs.set_link_state(uplink, false);
        let sel = fs.select_replica_path(HostId(0), &[HostId(1), HostId(20)], MB256, SimTime::ZERO);
        let Selection::Single(a) = sel else {
            panic!("expected single, got {sel:?}")
        };
        assert_eq!(a.replica, HostId(20), "avoid the severed replica");
        assert!(!a.path.links().contains(&uplink));
        // Heal: the near replica wins again.
        fs.set_link_state(uplink, true);
        assert!(fs.down_links().is_empty());
        let sel = fs.select_replica_path(HostId(2), &[HostId(1), HostId(20)], MB256, SimTime::ZERO);
        assert_eq!(sel.assignments()[0].replica, HostId(1));
    }

    #[test]
    fn fully_severed_replica_set_reports_unavailable() {
        let mut fs = server();
        // Down the client's own downlink: no path can reach it.
        let downlink = fs.topology().host_downlink(HostId(0));
        fs.set_link_state(downlink, false);
        let sel = fs.select_replica_path(HostId(0), &[HostId(1), HostId(20)], MB256, SimTime::ZERO);
        assert!(matches!(sel, Selection::Unavailable), "got {sel:?}");
        assert!(sel.assignments().is_empty());
        assert_eq!(fs.tracked_flows(), 0, "nothing installed");
    }

    #[test]
    fn missed_polls_are_counted_and_staleness_grows() {
        let mut fs = server();
        assert_eq!(fs.missed_polls(), 0);
        fs.note_poll_missed(SimTime::from_secs(1.0));
        fs.note_poll_missed(SimTime::from_secs(2.0));
        assert_eq!(fs.missed_polls(), 2);
        assert_eq!(fs.staleness_secs(SimTime::from_secs(2.0)), 2.0);
    }

    #[test]
    fn stale_freezes_expire_on_the_clock_without_polls() {
        let mut fs = server();
        let sel = fs.select_replica_path(HostId(0), &[HostId(20)], MB256, SimTime::ZERO);
        let cookie = sel.assignments()[0].cookie;
        let f = fs.flow_model(cookie).unwrap();
        assert!(f.frozen);
        let expires = f.freeze_until;
        // Before expiry nothing changes even with lost polls.
        assert_eq!(fs.expire_stale_freezes(SimTime::from_millis(1.0)), 0);
        assert!(fs.flow_model(cookie).unwrap().frozen);
        // After the freeze window lapses, the clock-driven expiry
        // unfreezes the flow so the *next* poll can re-anchor it.
        let after = expires + SimTime::from_millis(1.0);
        assert_eq!(fs.expire_stale_freezes(after), 1);
        assert!(!fs.flow_model(cookie).unwrap().frozen);
    }

    #[test]
    fn metrics_cover_selection_polls_and_freezes() {
        let registry = mayflower_telemetry::Registry::new();
        let mut fs = server_multipath();
        fs.attach_metrics(&registry);

        // Local short-circuit, a beneficial cross-pod split, then a
        // plain single-path pick that later completes.
        fs.select_replica_path(HostId(3), &[HostId(3)], MB256, SimTime::ZERO);
        let split =
            fs.select_replica_path(HostId(0), &[HostId(20), HostId(36)], MB256, SimTime::ZERO);
        assert!(matches!(split, Selection::Split(_)));
        let single = fs.select_replica_path(HostId(2), &[HostId(1)], MB256, SimTime::ZERO);
        let cookie = single.assignments()[0].cookie;
        fs.flow_completed(cookie);

        fs.on_stats(&StatsReport {
            measured_at: SimTime::from_secs(1.0),
            ..StatsReport::default()
        });
        fs.note_poll_missed(SimTime::from_secs(2.0));

        let snap = registry.snapshot();
        let outcome = |o: &str| {
            snap.counter(&format!("flowserver_selections_total{{outcome=\"{o}\"}}"))
                .unwrap_or(0)
        };
        assert_eq!(outcome("local"), 1);
        assert_eq!(outcome("split"), 1);
        assert_eq!(outcome("single"), 1);
        assert_eq!(outcome("unavailable"), 0);
        assert_eq!(snap.counter("flowserver_split_accepted_total"), Some(1));
        assert_eq!(snap.counter("flowserver_polls_total"), Some(1));
        assert_eq!(fs.missed_polls(), 1);
        // One commit per subflow plus the single pick.
        let cost = snap.histogram("flowserver_selection_cost_us").unwrap();
        assert_eq!(cost.count, 3);
        // The split pair is still in flight after the single completed.
        assert_eq!(snap.gauge("flowserver_tracked_flows"), Some(2));

        // The fast path's own counters: every selection above went
        // through the path cache and the candidate loop.
        let misses = snap
            .counter("flowserver_path_cache_misses_total")
            .unwrap_or(0);
        assert!(misses > 0, "first lookups must miss");
    }

    #[test]
    fn fast_path_tracks_the_path_cache_and_prunes() {
        use mayflower_telemetry::trace::{TraceTree, Tracer};
        let registry = mayflower_telemetry::Registry::new();
        let mut fs = server();
        fs.attach_metrics(&registry);
        let c = |snap: &mayflower_telemetry::Snapshot, name: &str| snap.counter(name).unwrap_or(0);
        // Every selection below leaves a decision record, which counts
        // the candidates the lower-bound prune skipped.
        let tracer = Tracer::new_manual();
        fs.attach_tracer(tracer.handle("flowserver"));
        tracer.begin_capture();
        let op = tracer.handle("client").root("read").unwrap();
        let _g = op.enter();

        // Two identical selections: the second is served from the
        // path cache.
        fs.select_replica_path(HostId(0), &[HostId(20)], MB256, SimTime::ZERO);
        let snap = registry.snapshot();
        let misses_after_first = c(&snap, "flowserver_path_cache_misses_total");
        assert!(misses_after_first > 0);
        assert_eq!(c(&snap, "flowserver_path_cache_hits_total"), 0);

        fs.select_replica_path(HostId(0), &[HostId(20)], MB256, SimTime::ZERO);
        let snap = registry.snapshot();
        assert_eq!(
            c(&snap, "flowserver_path_cache_misses_total"),
            misses_after_first,
            "repeat lookup must not miss"
        );
        assert!(c(&snap, "flowserver_path_cache_hits_total") > 0);

        // A multi-replica selection over a loaded network exercises
        // the prune: once a finite incumbent exists, hopeless
        // candidates are skipped before evaluation.
        for dst in [2u32, 3, 5, 6, 7, 9] {
            fs.select_path_for_replica(HostId(dst), HostId(1), 10.0 * MB256, SimTime::ZERO);
        }
        fs.select_replica_path(
            HostId(0),
            &[HostId(1), HostId(20), HostId(36), HostId(52)],
            MB256,
            SimTime::ZERO,
        );
        drop(_g);
        drop(op);
        let pruned: u64 = TraceTree::build(tracer.take_capture())
            .events()
            .iter()
            .filter_map(|e| e.annotation("pruned"))
            .map(|n| n.parse::<u64>().unwrap())
            .sum();
        assert!(pruned > 0, "loaded candidates must be pruned");
    }
}
