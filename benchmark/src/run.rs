//! One run: set-up, the four phases with the named workload's phase
//! given most of the time, the correctness passes, and the readings.
//!
//! Every run measures every phase, because the builder's contract
//! reads every end-to-end metric from every workload's run. A
//! *workload* is therefore a mix: its own phase gets the time the
//! other three leave over, and those get just enough batches to have
//! some in every quiet spell of the host. Metric definitions never
//! depend on the workload.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::affinity::Cpus;
use crate::ctlphase::{CtlClass, CtlPhase};
use crate::datadir::DataDir;
use crate::fsphase::{BulkClass, FsPhases, SmallClass, META_CLASSES};
use crate::layers::{direct_drives, Costs};
use crate::ops::{CtlConfig, FsConfig};
use crate::phase::{Batch, PhaseRun, Schedule, Tally};
use crate::report::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use crate::simphase::{SimConfig, SimPhase, SimRun, SizeRun};
use crate::spans::{self, NameTotals, Recorder};
use crate::stats::{percentile, Summary};

/// Share of `--seconds` a phase gets when it is *not* the workload's
/// own, in [`WORKLOADS`] order. A reading is the best batch's, so what
/// a phase needs is a batch every second or so of the run, to have one
/// in whatever quiet spell the host grants: some 25 bulk batches, 90
/// small-ops and 50 RPC batches, 25 replays at 64 hosts and 20 at
/// 1024, which take a third of a second each.
const OFF_SHARE: [f64; 4] = [0.10, 0.08, 0.08, 0.40];

/// Share of `--seconds` each phase gets in a traced run; the direct
/// drives take the rest.
const TRACED_SHARE: f64 = 0.15;

/// Share of the simulator phase's time given to the 64-host replays.
const SIM_64_SHARE: f64 = 0.33;

/// How many times an untraced run sets everything up; `setup_s` is the
/// median.
const SET_UP_REPEATS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Feeds the generators only.
    pub seed: u64,
    /// How long the phases measure, in total.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead.
    pub trace: bool,
    /// Where run directories are created (and removed).
    pub data_base: PathBuf,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// The share of `--seconds` phase `phase` gets under `workload`.
#[must_use]
pub fn share(workload: usize, phase: usize) -> f64 {
    if workload == phase {
        1.0 - (0..4)
            .filter(|p| *p != phase)
            .map(|p| OFF_SHARE[p])
            .sum::<f64>()
    } else {
        OFF_SHARE[phase]
    }
}

struct Rigs {
    fs: FsPhases,
    ctl: CtlPhase,
    sim: SimPhase,
    // Declared last: the directories go after the rigs using them.
    fs_dir: DataDir,
    ctl_dir: DataDir,
}

fn set_up(
    base: &Path,
    seed: u64,
    width: usize,
    rec: &Arc<Recorder>,
) -> Result<(Rigs, f64), String> {
    let io = |e: std::io::Error| format!("creating a run directory: {e}");
    let started = Instant::now();
    let fs_dir = DataDir::create(base, "fs").map_err(io)?;
    let fs = FsPhases::set_up(fs_dir.path(), seed, &FsConfig::default(), width, rec)?;
    let ctl_dir = DataDir::create(base, "ctl").map_err(io)?;
    let ctl = CtlPhase::set_up(ctl_dir.path(), seed, &CtlConfig::default(), rec)?;
    let sim = SimPhase::set_up(seed, &SimConfig::default());
    let seconds = started.elapsed().as_secs_f64();
    Ok((
        Rigs {
            fs,
            ctl,
            sim,
            fs_dir,
            ctl_dir,
        },
        seconds,
    ))
}

/// Whether batch `index` of a lane records spans (or goes through
/// `replay_with_telemetry`) in a traced run: about half of them, by
/// the golden-ratio sequence rather than by turns. Plain alternation
/// lines up with anything periodic in a phase — the bulk append
/// targets rotate every fourth batch, always an even one, and that
/// alone made the traced batches look 6% *faster*.
fn traced_batch(index: usize) -> bool {
    (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1
}

/// Puts the allocator in the state a long-running client reaches.
///
/// glibc serves a large allocation from a fresh mapping, whose pages
/// fault in one by one, until a larger mapped block has once been
/// freed; after that it reuses heap memory. An 8 MiB read buffer sits
/// exactly on that edge, and whether an earlier op had tipped it
/// depended on the seed's op order: whole-file reads measured 1.4 GB/s
/// under some seeds and 3.8 GB/s under others. Freeing one 24 MiB
/// block (the rule applies up to 32 MiB) tips it for good.
fn settle_allocator() {
    let mut block = vec![0u8; 24 << 20];
    block[0] = 1;
    drop(std::hint::black_box(block));
}

/// Where the run's wall time went, for the person watching stderr.
struct Stopwatch {
    last: Instant,
    line: String,
}

impl Stopwatch {
    fn start(since: Instant, first: &str) -> Stopwatch {
        let mut watch = Stopwatch {
            last: since,
            line: "wall seconds:".into(),
        };
        watch.lap(first);
        watch
    }

    fn lap(&mut self, name: &str) {
        use std::fmt::Write as _;
        let now = Instant::now();
        let _ = write!(self.line, "  {name} {:.1}", (now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// The metadata-op median: the mean of the four kinds' own medians.
/// The kinds come in equal shares and differ widely (an uncached
/// lookup is tens of times cheaper than a create), so the median of
/// the pooled samples lies on the boundary between two kinds and
/// jumps from one to the other between runs.
fn meta_op_p50_us(run: &PhaseRun<6>) -> Summary {
    let kinds: Vec<Summary> = META_CLASSES
        .iter()
        .map(|c| run.class_p50_us(*c as usize))
        .collect();
    let mean = |f: fn(&Summary) -> f64| kinds.iter().map(f).sum::<f64>() / kinds.len() as f64;
    Summary {
        n: kinds.iter().map(|k| k.n).sum(),
        q1: mean(|k| k.q1),
        median: mean(|k| k.median),
        q3: mean(|k| k.q3),
        value: mean(|k| k.value),
    }
}

/// The 99th percentile over the pooled metadata ops.
fn meta_op_p99_us(run: &PhaseRun<6>) -> Summary {
    let mut v: Vec<f64> = META_CLASSES
        .iter()
        .flat_map(|c| run.latencies_us(*c as usize, None))
        .collect();
    Summary::point(v.len(), percentile(&mut v, 99.0))
}

fn p99_us<const N: usize>(run: &PhaseRun<N>, class: usize) -> Summary {
    let mut v = run.latencies_us(class, None);
    Summary::point(v.len(), percentile(&mut v, 99.0))
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Describes a failure that stopped the run (as opposed to a failed
/// op, which the report counts).
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let workload = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}; one of {WORKLOADS:?}", args.workload))?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    settle_allocator();
    // The client's fan-out width follows the CPUs the process was
    // given; then everything runs on one of them at a time (see
    // `affinity.rs`).
    let cpus = Cpus::detect();
    let width = cpus.count().min(4);
    let mut confined = cpus.confine();
    let run_dir = DataDir::create(&args.data_base, "run").map_err(|e| e.to_string())?;
    let rec = Arc::new(Recorder::new());
    let mut tally = Tally::default();

    let repeats = if args.trace { 1 } else { SET_UP_REPEATS };
    let process_started = Instant::now();
    let mut set_up_seconds = Vec::new();
    let mut rigs = None;
    for _ in 0..repeats {
        if let Some(Rigs { ctl, .. }) = rigs.take() {
            CtlPhase::shut_down(ctl);
        }
        confined.turn();
        let (fresh, seconds) = set_up(run_dir.path(), args.seed, width, &rec)?;
        set_up_seconds.push(seconds);
        rigs = Some(fresh);
    }
    let Rigs {
        mut fs,
        mut ctl,
        sim,
        fs_dir,
        ctl_dir,
    } = rigs.expect("set up at least once");

    // Lanes of the schedule: the first three phases, then the two
    // sizes of the simulator phase.
    let phase_share = |phase: usize| {
        if args.trace {
            TRACED_SHARE
        } else {
            share(workload, phase)
        }
    };
    let measured: f64 = (0..4).map(phase_share).sum();
    let shares = vec![
        phase_share(0) / measured,
        phase_share(1) / measured,
        phase_share(2) / measured,
        phase_share(3) / measured * SIM_64_SHARE,
        phase_share(3) / measured * (1.0 - SIM_64_SHARE),
    ];
    // Enough batches for a median (and, traced, for both kinds of
    // batch); every 64-host matrix at least once.
    let minimum = vec![4, 4, 4, sim.matrices_64(), 2];
    let mut clock = Stopwatch::start(process_started, &format!("set-up x{repeats}"));
    let counts_before = fs.counts()?;
    let (mut bulk, mut small, mut rpc) = (
        PhaseRun::<3>::default(),
        PhaseRun::<6>::default(),
        PhaseRun::<3>::default(),
    );
    let mut replays = sim.warm_up(&mut tally);
    let mut schedule = Schedule::new(
        Duration::from_secs_f64(args.seconds * measured),
        shares,
        minimum,
    );
    while let Some((lane, index)) = schedule.next() {
        let traced = args.trace && traced_batch(index);
        confined.turn();
        let started = Instant::now();
        match lane {
            0 => fs.bulk_batch(traced, &mut bulk, &mut tally),
            1 => fs.small_batch(traced, &mut small, &mut tally),
            2 => ctl.batch(traced, &mut rpc, &mut tally),
            3 => sim.replay_64(index, traced, &mut replays, &mut tally)?,
            _ => sim.replay_1024(traced, &mut replays, &mut tally)?,
        }
        schedule.ran(lane, started.elapsed());
    }
    let counts_after = fs.counts()?;
    let wire = ctl.wire();
    clock.lap("phases");

    fs.verify(&mut tally);
    ctl.verify_and_shut_down(&mut tally);
    sim.paper_check(&mut tally);
    clock.lap("checks");
    let (mean_completion_s, p95_completion_s) = replays.completion_s();

    let readings = if args.trace {
        let recorded = rec.spans();
        tally.note(spans::validate(&recorded));
        let path = args.out_dir.join(format!("{}.trace.json", args.workload));
        spans::write_file(&path, &args.workload, args.seed, &recorded)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let concurrency = (
            mean_concurrency(&replays.at_64),
            mean_concurrency(&replays.at_1024),
        );
        let direct = direct_drives(
            run_dir.path(),
            args.seed,
            &sim.rigs_64[0],
            &sim.rig_1024,
            concurrency,
        )?;
        let totals = spans::totals_by_name(&recorded);
        let mut readings = direct.readings;
        readings.extend(traced_readings(&Traced {
            bulk: &bulk,
            small: &small,
            rpc: &rpc,
            replays: &replays,
            totals: &totals,
            costs: &direct.costs,
            counts: counts_after.since(&counts_before),
            wire,
            sim: &sim,
        }));
        readings
    } else {
        vec![
            ("read_mb_s", bulk.class_mb_s(BulkClass::Read as usize, None)),
            (
                "coded_read_mb_s",
                bulk.class_mb_s(BulkClass::CodedRead as usize, None),
            ),
            (
                "bulk_append_mb_s",
                bulk.class_mb_s(BulkClass::Append as usize, None),
            ),
            (
                "stored_bytes_per_user_byte",
                Summary::exact(fs.stored_bytes_per_user_byte),
            ),
            ("small_ops_per_s", small.ops_per_s(None)),
            (
                "small_read_p50_us",
                small.class_p50_us(SmallClass::Read as usize),
            ),
            (
                "small_append_p50_us",
                small.class_p50_us(SmallClass::Append as usize),
            ),
            ("meta_op_p50_us", meta_op_p50_us(&small)),
            ("ctl_ops_per_s", rpc.ops_per_s(None)),
            (
                "ctl_lookup_p50_us",
                rpc.class_p50_us(CtlClass::Lookup as usize),
            ),
            (
                "ctl_select_p50_us",
                rpc.class_p50_us(CtlClass::Select as usize),
            ),
            (
                "sim64_jobs_per_s",
                replays.at_64.jobs_per_s().expect("plain replays ran"),
            ),
            (
                "sim1024_jobs_per_s",
                replays.at_1024.jobs_per_s().expect("plain replays ran"),
            ),
            ("sim64_mean_completion_s", Summary::exact(mean_completion_s)),
            ("sim64_p95_completion_s", Summary::exact(p95_completion_s)),
            ("setup_s", Summary::of(&set_up_seconds)),
        ]
    };

    clock.lap("readings");
    // Everything under the run directory goes before the report does.
    drop((fs, fs_dir, ctl_dir));
    let leftover = run_dir.path().to_path_buf();
    drop(run_dir);
    clock.lap("clean-up");
    eprintln!("{}", clock.line);
    tally.require(!leftover.exists(), || {
        format!("{} was left behind", leftover.display())
    });

    Ok(Report {
        defs: if args.trace { &PER_LAYER } else { &END_TO_END },
        readings,
        attempted: tally.attempted,
        failed: tally.failed,
        reasons: tally.reasons,
    })
}

fn mean_concurrency(size: &SizeRun) -> f64 {
    let all: Vec<f64> = size
        .plain
        .iter()
        .chain(size.counted.iter().map(|(o, _)| o))
        .map(|o| o.mean_concurrency)
        .collect();
    all.iter().sum::<f64>() / all.len().max(1) as f64
}

struct Traced<'a> {
    bulk: &'a PhaseRun<3>,
    small: &'a PhaseRun<6>,
    rpc: &'a PhaseRun<3>,
    replays: &'a SimRun,
    totals: &'a std::collections::BTreeMap<String, NameTotals>,
    costs: &'a Costs,
    /// Registry counts over the measured part of the run.
    counts: crate::adapters::FsCounts,
    wire: (u64, u64),
    sim: &'a SimPhase,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer readings that come from spans, registry counts and
/// the traced phases (the direct drives add theirs separately).
fn traced_readings(t: &Traced<'_>) -> Vec<(&'static str, Summary)> {
    let total = |name: &str| t.totals.get(name).copied().unwrap_or_default();
    let prefixed = |prefix: &str| {
        t.totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold(NameTotals::default(), |acc, (_, n)| NameTotals {
                count: acc.count + n.count,
                total_ns: acc.total_ns + n.total_ns,
                self_ns: acc.self_ns + n.self_ns,
            })
    };
    let seconds = |ns: u64| ns as f64 / 1e9;
    let counted = t.counts;

    // What the decorators' child spans cover, plus direct-drive
    // estimates of the dataserver and EC calls on the blocking path
    // (on one CPU all of them are: fetches and relays take turns); the
    // rest of the op time is unattributed.
    let (read, coded, append) = (
        total("client.read"),
        total("client.coded_read"),
        total("client.bulk_append"),
    );
    let bulk_total = seconds(read.total_ns + coded.total_ns + append.total_ns);
    let bulk_children = bulk_total - seconds(read.self_ns + coded.self_ns + append.self_ns);
    let bulk_driven = read.count as f64 * 8.0 * t.costs.ds_read_1m
        + coded.count as f64 * 8.0 * 4.0 * t.costs.ds_fragment_read
        // Primary write, then the two relays; every second append
        // seals one chunk.
        + append.count as f64 * (3.0 * t.costs.ds_append_1m + 0.5 * t.costs.ec_encode_4_2);
    let (sread, sappend, smeta) = (
        total("client.small_read"),
        total("client.small_append"),
        total("client.meta_op"),
    );
    let small_total = seconds(sread.total_ns + sappend.total_ns + smeta.total_ns);
    let small_children = small_total - seconds(sread.self_ns + sappend.self_ns + smeta.self_ns);
    let small_driven =
        sread.count as f64 * t.costs.ds_read_4k + sappend.count as f64 * 3.0 * t.costs.ds_append_4k;

    let router = prefixed("router.");
    let select = total("flowserver.select");
    let transport = total("rpc.transport");
    let service = total("rpc.service");
    let client_ops: u64 = t.bulk.batches.iter().map(Batch::ops).sum::<u64>()
        + t.small.batches.iter().map(Batch::ops).sum::<u64>();

    let sim_share = |size: &SizeRun, fluid: f64| {
        // One selection per job, one admission and one completion per
        // remote job (each a global max-min recompute, which the fluid
        // drive already contains), one queue op per arrival and poll.
        let (explained, wall) = size.counted.iter().fold((0.0, 0.0), |(e, w), (o, c)| {
            let remote = o.remote_durations.len() as f64;
            (
                e + c.selections as f64 * t.costs.select_sim
                    + c.polls as f64 * t.costs.poll
                    + remote * fluid
                    + (o.jobs as f64 + c.polls as f64) * t.costs.queue_op,
                w + o.wall_s,
            )
        });
        1.0 - ratio(explained, wall)
    };
    fn overhead<const N: usize>(run: &PhaseRun<N>) -> f64 {
        ratio(
            run.ops_per_s(Some(true)).value,
            run.ops_per_s(Some(false)).value,
        )
    }
    let first_counts = t.replays.at_64.counted.first().map(|(_, c)| *c);
    let generate_64: Vec<f64> = t.sim.rigs_64.iter().map(|r| r.generate_s * 1e3).collect();

    vec![
        (
            "client.read.p99_us",
            p99_us(t.bulk, BulkClass::Read as usize),
        ),
        (
            "client.coded_read.p99_us",
            p99_us(t.bulk, BulkClass::CodedRead as usize),
        ),
        (
            "client.bulk_append.p99_us",
            p99_us(t.bulk, BulkClass::Append as usize),
        ),
        (
            "client.small_read.p99_us",
            p99_us(t.small, SmallClass::Read as usize),
        ),
        (
            "client.small_append.p99_us",
            p99_us(t.small, SmallClass::Append as usize),
        ),
        ("client.meta_op.p99_us", meta_op_p99_us(t.small)),
        (
            "client.cache_hit_ratio",
            Summary::exact(ratio(
                counted.cache_hits as f64,
                (counted.cache_hits + counted.cache_misses) as f64,
            )),
        ),
        ("client.retries", Summary::exact(counted.retries as f64)),
        (
            "client.bulk.unattributed_share",
            Summary::exact(1.0 - ratio(bulk_children + bulk_driven, bulk_total)),
        ),
        (
            "client.small.unattributed_share",
            Summary::exact(1.0 - ratio(small_children + small_driven, small_total)),
        ),
        (
            "router.calls",
            Summary::exact(ratio(counted.router_calls as f64, client_ops as f64)),
        ),
        (
            "router.busy_us_per_call",
            Summary::point(
                router.count as usize,
                ratio(seconds(router.total_ns) * 1e6, router.count as f64),
            ),
        ),
        (
            "router.map_refreshes",
            Summary::exact(counted.router_map_refreshes as f64),
        ),
        (
            "flowserver.select_ns.fs",
            Summary::point(
                select.count as usize,
                ratio(select.total_ns as f64, select.count as f64),
            ),
        ),
        (
            "flowserver.path_cache_hit_ratio",
            Summary::exact(ratio(
                counted.path_cache_hits as f64,
                (counted.path_cache_hits + counted.path_cache_misses) as f64,
            )),
        ),
        (
            "rpc.bytes_per_call",
            Summary::point(t.wire.0 as usize, ratio(t.wire.1 as f64, t.wire.0 as f64)),
        ),
        (
            "rpc.overhead_us_per_call",
            Summary::point(
                transport.count as usize,
                ratio(
                    seconds(transport.total_ns.saturating_sub(service.total_ns)) * 1e6,
                    transport.count as f64,
                ),
            ),
        ),
        ("workload.generate_ms.64", Summary::of(&generate_64)),
        (
            "workload.generate_ms.1024",
            Summary::exact(t.sim.rig_1024.generate_s * 1e3),
        ),
        (
            "net.topology_build_ms.1024",
            Summary::exact(t.sim.rig_1024.topology_build_s * 1e3),
        ),
        (
            "sim.selections",
            Summary::exact(first_counts.map_or(f64::NAN, |c| c.selections as f64)),
        ),
        (
            "sim.polls",
            Summary::exact(first_counts.map_or(f64::NAN, |c| c.polls as f64)),
        ),
        (
            "sim.update_freezes",
            Summary::exact(first_counts.map_or(f64::NAN, |c| c.update_freezes as f64)),
        ),
        (
            "sim.unattributed_share.64",
            Summary::exact(sim_share(&t.replays.at_64, t.costs.fluid_event_64)),
        ),
        (
            "sim.unattributed_share.1024",
            Summary::exact(sim_share(&t.replays.at_1024, t.costs.fluid_event_1024)),
        ),
        (
            "bench.trace_overhead_ratio.fs_bulk",
            Summary::exact(overhead(t.bulk)),
        ),
        (
            "bench.trace_overhead_ratio.fs_small_ops",
            Summary::exact(overhead(t.small)),
        ),
        (
            "bench.trace_overhead_ratio.ctl_rpc",
            Summary::exact(overhead(t.rpc)),
        ),
        (
            "bench.trace_overhead_ratio.sim_replay",
            Summary::exact(ratio(
                t.replays
                    .at_64
                    .counted_jobs_per_s()
                    .map_or(f64::NAN, |s| s.value),
                t.replays.at_64.jobs_per_s().map_or(f64::NAN, |s| s.value),
            )),
        ),
    ]
}
