//! Traced operation timelines: one scheduled (Mayflower) and one ECMP
//! arm each for a split read and a relay-pipeline append, exported as
//! causal span trees (DESIGN.md §17).
//!
//! Unlike the throughput experiments, this module cares about *where
//! the time goes inside one operation*: every arm runs a single
//! operation under a manual-clock [`Tracer`], takes span end times
//! from the fluid network every other figure runs on, and exports the
//! byte-deterministic JSON / Chrome trace-event renderings plus the
//! critical path. The scheduled arms use the real
//! [`Flowserver`] (with its decision-record spans: candidates
//! evaluated, Eq. 2 costs, chosen path), so the trace *explains* the
//! path choice; the ECMP arms hash onto shortest paths with
//! [`mayflower_net::ecmp_path`], oblivious to the same background
//! load.
//!
//! Both arms of an operation face the same scenario — same client,
//! same replicas, same background flow endpoints — but each arm routes
//! the background its own way (a fabric is ECMP end to end or
//! scheduled end to end). Every flow, background included, is admitted
//! to the arm's fabric (`driver::Driver`) at t = 0 and the fabric is
//! run empty: a span ends when its flow completes at max-min rates, so
//! a background flow that finishes gives its share back.

use std::fmt;
use std::sync::Arc;

use mayflower_flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower_net::{ecmp_path, FlowKey, HostId, Path, Topology, TreeParams};
use mayflower_sdn::FlowCookie;
use mayflower_simcore::{SimRng, SimTime};
use mayflower_telemetry::trace::{self, TraceHandle, TraceTree, Tracer};
use serde::{Deserialize, Serialize};

use crate::driver::Driver;

/// Bits moved by the traced operation (a 256 MB chunk read / append,
/// the paper's file size).
const OP_BITS: f64 = 256.0 * 8e6;

/// Bits claimed by each background flow.
const BG_BITS: f64 = 64.0 * 8e6;

/// How many background flows congest the fabric.
const BG_FLOWS: usize = 6;

/// Driver tag of the background flows; the operation's own flows are
/// tagged with their span index.
const BG: usize = usize::MAX;

/// One traced arm: an operation under one scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineArm {
    /// `"read"` or `"append"`.
    pub op: String,
    /// `"mayflower"` or `"ecmp"`.
    pub scheduler: String,
    /// Operation completion time in microseconds (root span length).
    pub completion_us: u64,
    /// `component/name` of the dominant hop — the critical path's
    /// largest exclusive-time span below the root.
    pub dominant: String,
    /// Rendered critical path (indented text, annotations inline).
    pub critical_path: String,
    /// Byte-deterministic span-tree JSON ([`TraceTree::render_json`]).
    pub trace_json: String,
    /// Chrome trace-event export ([`TraceTree::render_chrome`]).
    pub trace_chrome: String,
    /// Flowserver decision-record lines (empty for ECMP arms): one
    /// `key=value` summary per recorded annotation, in span order.
    pub decision: Vec<String>,
}

/// The four arms: read and append, each scheduled and ECMP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineReport {
    /// Arms in fixed order: read/mayflower, read/ecmp,
    /// append/mayflower, append/ecmp.
    pub arms: Vec<TimelineArm>,
}

/// The shared scenario both arms of an operation face.
struct Scenario {
    topo: Arc<Topology>,
    client: HostId,
    replicas: Vec<HostId>,
    /// Background flow endpoints, data flowing `src → dst`.
    background: Vec<(HostId, HostId)>,
}

impl Scenario {
    /// Deterministically picks distinct, non-colocated endpoints.
    fn generate(seed: u64) -> Scenario {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let hosts = topo.hosts();
        let mut rng = SimRng::seed_from(seed);
        let client = *rng.choose(&hosts);
        let mut replicas = Vec::new();
        while replicas.len() < 3 {
            let h = *rng.choose(&hosts);
            if h != client && !replicas.contains(&h) {
                replicas.push(h);
            }
        }
        let mut background = Vec::new();
        while background.len() < BG_FLOWS {
            let src = *rng.choose(&hosts);
            let dst = *rng.choose(&hosts);
            if src != dst {
                background.push((src, dst));
            }
        }
        Scenario {
            topo,
            client,
            replicas,
            background,
        }
    }
}

/// Runs the arm's fabric empty and returns when each of the
/// operation's `spans` flows completed, in whole microseconds (at least
/// one, so a transfer never renders as a zero-length span).
fn span_ends_us(fabric: &mut Driver, spans: usize) -> Vec<u64> {
    let mut ends = vec![0; spans];
    for (tag, c) in fabric.drain() {
        if tag != BG {
            ends[tag] = mayflower_telemetry::secs_to_us(c.duration_secs()).max(1);
        }
    }
    ends
}

/// One planned child span of the operation: opened at t=0, closed at
/// `end_us` (manual clock), annotations applied up front.
struct PlannedSpan {
    span: Option<trace::ActiveSpan>,
    end_us: u64,
}

/// Closes planned spans in ascending end-time order, advancing the
/// manual clock before each drop, and returns the completion time.
fn close_in_order(tracer: &Arc<Tracer>, mut planned: Vec<PlannedSpan>) -> u64 {
    planned.sort_by_key(|p| (p.end_us, p.span.as_ref().map(|s| s.ctx().1)));
    let mut completion = 0;
    for p in planned {
        tracer.set_time_us(p.end_us);
        completion = completion.max(p.end_us);
        drop(p.span);
    }
    completion
}

/// A path's link indices, displayed as `a->b->c`.
struct Links<'a>(&'a Path);

impl fmt::Display for Links<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.0.links().iter().enumerate() {
            if i > 0 {
                f.write_str("->")?;
            }
            write!(f, "{}", l.index())?;
        }
        Ok(())
    }
}

/// A fabric scheduled end to end: a fresh Flowserver (its decision
/// records going to `tracer`) routes and admits the background flows.
fn scheduled_fabric(tracer: &Arc<Tracer>, sc: &Scenario, multipath: bool) -> Driver {
    let mut fs = Flowserver::new(
        sc.topo.clone(),
        FlowserverConfig {
            multipath,
            ..FlowserverConfig::default()
        },
    );
    fs.attach_tracer(tracer.handle("flowserver"));
    let mut fabric = Driver::new(&sc.topo, Some(fs));
    for &(src, dst) in &sc.background {
        let fs = fabric.flowserver();
        if let Selection::Single(a) = fs.select_path_for_replica(dst, src, BG_BITS, SimTime::ZERO) {
            fabric.admit(BG, a.path, BG_BITS, Some(a.cookie), SimTime::ZERO);
        }
    }
    fabric
}

/// A fabric with no scheduler: the background flows are pinned by ECMP
/// hashing.
fn ecmp_fabric(sc: &Scenario) -> Driver {
    let mut fabric = Driver::new(&sc.topo, None);
    for (i, &(src, dst)) in sc.background.iter().enumerate() {
        if let Some(path) = ecmp_path(&sc.topo, FlowKey::new(src, dst, 1000 + i as u64)) {
            fabric.admit(BG, path, BG_BITS, None, SimTime::ZERO);
        }
    }
    fabric
}

/// Extracts Flowserver decision-record lines from a finished tree.
fn decision_lines(tree: &TraceTree) -> Vec<String> {
    let mut out = Vec::new();
    for e in tree.events() {
        if e.component != "flowserver" {
            continue;
        }
        for (k, v) in &e.annotations {
            out.push(format!("{}: {k}={v}", e.name));
        }
    }
    out
}

/// Builds one finished arm from a capture.
fn finish_arm(op: &str, scheduler: &str, completion_us: u64, tree: &TraceTree) -> TimelineArm {
    tree.validate().expect("timeline trace is well-formed");
    let root = tree.roots()[0];
    let trace_id = tree.events()[root].trace;
    let hops = tree.critical_path(trace_id);
    // Dominant hop: below the root, the critical-path span with the
    // most exclusive time (the piece/relay where the operation's
    // clock actually went).
    let dominant = hops
        .iter()
        .skip(1)
        .max_by_key(|h| h.self_us)
        .or_else(|| hops.first())
        .map(|h| {
            let e = &tree.events()[h.index];
            format!("{}/{}", e.component, e.name)
        })
        .unwrap_or_default();
    TimelineArm {
        op: op.to_string(),
        scheduler: scheduler.to_string(),
        completion_us,
        dominant,
        critical_path: tree.render_critical_path(trace_id),
        trace_json: tree.render_json(),
        trace_chrome: tree.render_chrome(),
        decision: decision_lines(tree),
    }
}

/// Runs the scheduled read: `SELECTREPLICAANDPATH` with multipath on,
/// one `piece` span per subflow.
fn scheduled_read(tracer: &Arc<Tracer>, sc: &Scenario) -> TimelineArm {
    let mut fabric = scheduled_fabric(tracer, sc, true);

    let client: TraceHandle = tracer.handle("client");
    let datapath: TraceHandle = tracer.handle("datapath");
    tracer.begin_capture();
    tracer.set_time_us(0);
    let mut root = client.root("read");
    trace::annotate(&mut root, "file", "timeline.dat");
    trace::annotate(&mut root, "scheduler", "mayflower");
    let completion = {
        let _g = root.as_ref().map(trace::ActiveSpan::enter);
        let fs = fabric.flowserver();
        let sel = fs.select_replica_path(sc.client, &sc.replicas, OP_BITS, SimTime::ZERO);
        let assignments = sel.assignments();
        assert!(
            !assignments.is_empty(),
            "scheduled read must select at least one subflow"
        );
        for (i, a) in assignments.iter().enumerate() {
            fabric.admit(
                i,
                a.path.clone(),
                a.size_bits,
                Some(a.cookie),
                SimTime::ZERO,
            );
        }
        let ends = span_ends_us(&mut fabric, assignments.len());
        let planned = assignments
            .iter()
            .zip(ends)
            .enumerate()
            .map(|(i, (a, end_us))| {
                let mut span = datapath.child("piece");
                trace::annotate(&mut span, "index", i);
                trace::annotate(&mut span, "replica", a.replica.0);
                trace::annotate(&mut span, "links", Links(&a.path));
                trace::annotate(&mut span, "est_bw", format_args!("{:.3e}", a.est_bw));
                trace::annotate(&mut span, "bits", format_args!("{:.3e}", a.size_bits));
                PlannedSpan { span, end_us }
            })
            .collect();
        close_in_order(tracer, planned)
    };
    drop(root);
    let tree = TraceTree::build(tracer.take_capture());
    finish_arm("read", "mayflower", completion, &tree)
}

/// Runs the ECMP read: whole chunk from the nearest replica over the
/// ECMP-hashed shortest path.
fn ecmp_read(tracer: &Arc<Tracer>, sc: &Scenario) -> TimelineArm {
    let mut fabric = ecmp_fabric(sc);
    let replica = *sc
        .replicas
        .iter()
        .min_by_key(|r| (sc.topo.distance(sc.client, **r), r.0))
        .expect("scenario has replicas");

    let client: TraceHandle = tracer.handle("client");
    let datapath: TraceHandle = tracer.handle("datapath");
    tracer.begin_capture();
    tracer.set_time_us(0);
    let mut root = client.root("read");
    trace::annotate(&mut root, "file", "timeline.dat");
    trace::annotate(&mut root, "scheduler", "ecmp");
    let completion = {
        let _g = root.as_ref().map(trace::ActiveSpan::enter);
        let path = ecmp_path(&sc.topo, FlowKey::new(replica, sc.client, 1))
            .expect("distinct hosts have a path");
        fabric.admit(0, path.clone(), OP_BITS, None, SimTime::ZERO);
        let mut span = datapath.child("piece");
        trace::annotate(&mut span, "index", "0");
        trace::annotate(&mut span, "replica", replica.0);
        trace::annotate(&mut span, "links", Links(&path));
        trace::annotate(&mut span, "bits", format_args!("{OP_BITS:.3e}"));
        let planned = vec![PlannedSpan {
            span,
            end_us: span_ends_us(&mut fabric, 1)[0],
        }];
        close_in_order(tracer, planned)
    };
    drop(root);
    let tree = TraceTree::build(tracer.take_capture());
    finish_arm("read", "ecmp", completion, &tree)
}

/// The append's relay chain: writer → r1 → r2 → r3, cut-through, so
/// hops run concurrently and the append completes at the slowest hop.
fn relay_hops(sc: &Scenario) -> Vec<(HostId, HostId)> {
    let mut chain = vec![sc.client];
    chain.extend(&sc.replicas);
    chain.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Runs one append arm on `fabric`; `route` chooses each hop's path
/// (and returns the Flowserver's cookie for it, if it scheduled it).
fn append_arm(
    tracer: &Arc<Tracer>,
    sc: &Scenario,
    scheduler: &str,
    mut fabric: Driver,
    mut route: impl FnMut(&mut Driver, usize, HostId, HostId) -> (Path, Option<FlowCookie>),
) -> TimelineArm {
    let hops = relay_hops(sc);
    let client: TraceHandle = tracer.handle("client");
    let datapath: TraceHandle = tracer.handle("datapath");
    tracer.begin_capture();
    tracer.set_time_us(0);
    let mut root = client.root("append");
    trace::annotate(&mut root, "file", "timeline.dat");
    trace::annotate(&mut root, "scheduler", scheduler);
    trace::annotate(&mut root, "bits", format_args!("{OP_BITS:.3e}"));
    let completion = {
        let _g = root.as_ref().map(trace::ActiveSpan::enter);
        let paths: Vec<Path> = hops
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| {
                let (path, cookie) = route(&mut fabric, i, src, dst);
                fabric.admit(i, path.clone(), OP_BITS, cookie, SimTime::ZERO);
                path
            })
            .collect();
        let ends = span_ends_us(&mut fabric, paths.len());
        let planned = paths
            .iter()
            .zip(ends)
            .enumerate()
            .map(|(i, (path, end_us))| {
                let mut span = datapath.child("relay");
                trace::annotate(&mut span, "stage", i);
                trace::annotate(&mut span, "src", hops[i].0 .0);
                trace::annotate(&mut span, "dst", hops[i].1 .0);
                trace::annotate(&mut span, "links", Links(path));
                PlannedSpan { span, end_us }
            })
            .collect();
        close_in_order(tracer, planned)
    };
    drop(root);
    let tree = TraceTree::build(tracer.take_capture());
    finish_arm("append", scheduler, completion, &tree)
}

/// The full traced timeline comparison.
///
/// # Panics
///
/// Panics if a selection fails on the healthy testbed topology (it
/// cannot: all links are up).
#[must_use]
pub fn timeline(seed: u64) -> TimelineReport {
    let sc = Scenario::generate(seed);
    let tracer = Tracer::new_manual();

    let read_sched = scheduled_read(&tracer, &sc);
    let read_ecmp = ecmp_read(&tracer, &sc);

    // Scheduled append: a fresh Flowserver per arm, loaded with the
    // same background endpoints, schedules each relay hop.
    let fabric = scheduled_fabric(&tracer, &sc, false);
    let append_sched = append_arm(&tracer, &sc, "mayflower", fabric, |fabric, _, src, dst| {
        let fs = fabric.flowserver();
        match fs.select_path_for_replica(dst, src, OP_BITS, SimTime::ZERO) {
            Selection::Single(a) => (a.path, Some(a.cookie)),
            other => panic!("hop selection on a healthy fabric returned {other:?}"),
        }
    });

    let append_ecmp = append_arm(&tracer, &sc, "ecmp", ecmp_fabric(&sc), |_, i, src, dst| {
        let key = FlowKey::new(src, dst, 2 + i as u64);
        let path = ecmp_path(&sc.topo, key).expect("distinct hosts have a path");
        (path, None)
    });

    TimelineReport {
        arms: vec![read_sched, read_ecmp, append_sched, append_ecmp],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_byte_deterministic() {
        let a = timeline(42);
        let b = timeline(42);
        assert_eq!(a.arms.len(), 4);
        for (x, y) in a.arms.iter().zip(&b.arms) {
            assert_eq!(x.trace_json, y.trace_json);
            assert_eq!(x.trace_chrome, y.trace_chrome);
            assert_eq!(x.critical_path, y.critical_path);
            assert_eq!(x.completion_us, y.completion_us);
        }
    }

    #[test]
    fn critical_paths_name_dominant_hops() {
        let r = timeline(7);
        for arm in &r.arms {
            let expect = match arm.op.as_str() {
                "read" => "datapath/piece",
                _ => "datapath/relay",
            };
            assert_eq!(arm.dominant, expect, "arm {}/{}", arm.op, arm.scheduler);
            assert!(arm.critical_path.contains(expect));
            assert!(arm.completion_us > 0);
        }
    }

    #[test]
    fn scheduled_arms_carry_decision_records() {
        let r = timeline(7);
        for arm in &r.arms {
            if arm.scheduler == "mayflower" {
                assert!(
                    arm.decision.iter().any(|l| l.contains("evaluated=")),
                    "{}/{} should record evaluated candidates",
                    arm.op,
                    arm.scheduler
                );
                assert!(arm.decision.iter().any(|l| l.contains("cand0=")));
            } else {
                assert!(arm.decision.is_empty());
            }
        }
    }

    /// The oracle: `flows` on a bare [`FluidNet`], run empty. Returns
    /// when the last flow after the first `background` ones completed,
    /// in whole microseconds.
    fn bare_fluid_us(topo: &Arc<Topology>, flows: &[(Path, f64)], background: usize) -> u64 {
        let mut net = mayflower_simnet::FluidNet::new(topo.clone());
        let ids: Vec<_> = flows
            .iter()
            .map(|(path, bits)| net.add_flow(path.clone(), *bits, SimTime::ZERO))
            .collect();
        let mut last = SimTime::ZERO;
        while net.flow_count() > 0 {
            let t = net.next_completion_time();
            for c in net.advance_to(t) {
                if ids[background..].contains(&c.flow) {
                    last = last.max(c.at);
                }
            }
        }
        mayflower_telemetry::secs_to_us(last.as_secs())
    }

    /// One hop scheduled by `fs` on a healthy fabric.
    fn scheduled_hop(fs: &mut Flowserver, src: HostId, dst: HostId, bits: f64) -> (Path, f64) {
        match fs.select_path_for_replica(dst, src, bits, SimTime::ZERO) {
            Selection::Single(a) => (a.path, bits),
            other => panic!("hop selection on a healthy fabric returned {other:?}"),
        }
    }

    /// A fresh Flowserver that has scheduled the background, and the
    /// flows it chose — what `scheduled_fabric` does, without a fabric.
    fn scheduled_background(sc: &Scenario, multipath: bool) -> (Flowserver, Vec<(Path, f64)>) {
        let config = FlowserverConfig {
            multipath,
            ..FlowserverConfig::default()
        };
        let mut fs = Flowserver::new(sc.topo.clone(), config);
        let background = sc.background.iter();
        let flows = background
            .map(|&(src, dst)| scheduled_hop(&mut fs, src, dst, BG_BITS))
            .collect();
        (fs, flows)
    }

    #[test]
    fn every_arm_completes_when_a_bare_fluid_net_says_it_does() {
        for seed in [0x4D41_5946, 7, 42] {
            let sc = Scenario::generate(seed);
            let arms = timeline(seed).arms;
            let hops = relay_hops(&sc);
            let oracle = |flows: &[(Path, f64)]| bare_fluid_us(&sc.topo, flows, BG_FLOWS);

            // Scheduled arms: a fresh Flowserver makes the same
            // selections in the same order, background first.
            let (mut fs, mut flows) = scheduled_background(&sc, true);
            let sel = fs.select_replica_path(sc.client, &sc.replicas, OP_BITS, SimTime::ZERO);
            let pieces = sel.assignments().iter();
            flows.extend(pieces.map(|a| (a.path.clone(), a.size_bits)));
            assert_eq!(arms[0].completion_us, oracle(&flows), "read/mayflower");

            let (mut fs, mut flows) = scheduled_background(&sc, false);
            for &(src, dst) in &hops {
                flows.push(scheduled_hop(&mut fs, src, dst, OP_BITS));
            }
            assert_eq!(arms[2].completion_us, oracle(&flows), "append/mayflower");

            // ECMP arms: the hash keys the arms use.
            let hashed = |src, dst, key| ecmp_path(&sc.topo, FlowKey::new(src, dst, key)).unwrap();
            let background: Vec<(Path, f64)> = sc
                .background
                .iter()
                .enumerate()
                .map(|(i, &(src, dst))| (hashed(src, dst, 1000 + i as u64), BG_BITS))
                .collect();
            let nearest = *sc
                .replicas
                .iter()
                .min_by_key(|r| (sc.topo.distance(sc.client, **r), r.0))
                .unwrap();
            let mut flows = background.clone();
            flows.push((hashed(nearest, sc.client, 1), OP_BITS));
            assert_eq!(arms[1].completion_us, oracle(&flows), "read/ecmp");

            let mut flows = background;
            for (i, &(src, dst)) in hops.iter().enumerate() {
                flows.push((hashed(src, dst, 2 + i as u64), OP_BITS));
            }
            assert_eq!(arms[3].completion_us, oracle(&flows), "append/ecmp");
        }
    }

    #[test]
    fn arms_face_the_same_scenario() {
        // Different seeds give different scenarios; the same seed must
        // pin client/replicas across arms (the reads disagree on
        // routing, not on endpoints).
        let r = timeline(3);
        let read = &r.arms[0];
        let append = &r.arms[2];
        assert_eq!(read.scheduler, "mayflower");
        assert_eq!(append.op, "append");
    }
}
