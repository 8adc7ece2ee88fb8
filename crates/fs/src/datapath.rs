//! The parallel data-plane pipeline (DESIGN.md §16): a bounded
//! scoped-thread worker pool for a read's piece fetches and fragment
//! reads, plus the [`DataPlane`] every client of a cluster shares.
//!
//! The data plane is in-process, so a "round trip" to a dataserver is
//! a function call that copies through the page cache: what the pool
//! overlaps is those copies on a multi-core host, and disk waits on a
//! real disk. Pool width is a client policy knob
//! ([`crate::client::Client::set_parallelism`]) rather than a function
//! of core count. Thread starts are the pool's cost — pinned to one
//! CPU a scoped spawn and join takes ~22 µs, a 4 KiB relay write
//! ~5–6 µs — so an append's relays stay off the pool, on the caller's
//! thread, and in a fan-out the caller is one of the workers: `w`
//! wide spawns `w − 1` threads. Results are position-addressed: every
//! job's value is returned under its index (and a read fills its
//! caller-provided buffer slice), so output bytes are identical
//! regardless of completion order and a width-1 pool runs the exact
//! same code inline. Every job runs under the caller's trace context,
//! so span trees do not depend on width either. The fluid simulator
//! and the model checker never thread through this pool, so their
//! determinism is untouched.
//!
//! [`DataPlane`] owns what is the cluster's rather than one client's:
//! the host → dataserver map and the one lookup into it, the per-file
//! append locks, the pipeline and coded-tier metrics, the retry
//! counter and the datapath trace handle. A client brings only its
//! own knobs to it: pool width and retry policy.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mayflower_net::HostId;
use mayflower_telemetry::trace::{self, TraceHandle, Tracer};
use mayflower_telemetry::{Counter, Gauge, Histogram, Registry, Scope};
use parking_lot::Mutex;

use crate::coding::EcMetrics;
use crate::dataserver::Dataserver;
use crate::error::FsError;
use crate::types::{FileId, FileMeta};

/// Backoff growth is capped so a long retry budget cannot make a
/// client hang for seconds on a dead component.
const MAX_RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(16);

/// Telemetry for the parallel pipeline, shared by every client of a
/// cluster (the registry dedups by metric name).
#[derive(Debug)]
pub(crate) struct DatapathMetrics {
    /// Piece and fragment fetches currently running on the pool.
    pub(crate) inflight_fetches: Arc<Gauge>,
    /// Jobs dispatched per parallel operation (1 = serial path).
    pub(crate) fan_out_width: Arc<Histogram>,
}

impl DatapathMetrics {
    pub(crate) fn new(scope: &Scope) -> DatapathMetrics {
        DatapathMetrics {
            inflight_fetches: scope.gauge("inflight_fetches"),
            fan_out_width: scope.histogram("fan_out_width"),
        }
    }
}

/// Runs `jobs` with at most `width` of them at once and returns their
/// results **in job order**. The caller is one of the workers: it
/// spawns `width − 1` scoped helpers (fewer if there are fewer jobs)
/// and pops jobs beside them, so a fan-out of two spawns one thread.
/// Width ≤ 1 (or a single job) runs inline on the caller's thread —
/// the serial baseline goes through the identical code path. Every
/// job runs under the trace context the caller had on entry, whichever
/// thread runs it.
pub(crate) fn fan_out<T, F>(width: usize, jobs: Vec<F>, metrics: &DatapathMetrics) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    metrics.fan_out_width.record(n as u64);
    let workers = width.max(1).min(n);
    if workers == 1 {
        return jobs.into_iter().map(|job| run_one(job, metrics)).collect();
    }

    // Work queue popped from the back; jobs are pushed reversed so the
    // lowest index dispatches first. Each worker hands back the
    // `(index, value)` pairs it ran; every index is popped exactly once.
    let queue: Mutex<Vec<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().rev().collect());
    let drain = || {
        let mut ran = Vec::new();
        loop {
            let next = queue.lock().pop();
            let Some((index, job)) = next else { break ran };
            ran.push((index, run_one(job, metrics)));
        }
    };
    let ctx = trace::current_context();
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| s.spawn(|| trace::with_context(ctx, drain)))
            .collect();
        // A panic in a job the caller runs unwinds out of the scope,
        // which joins the helpers (they drain the rest) before it
        // re-raises.
        let mut done = drain();
        for helper in helpers {
            // A helper's job panic reaches the caller, as an unjoined
            // scoped thread's would.
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, value)| value).collect()
}

fn run_one<T>(job: impl FnOnce() -> T, metrics: &DatapathMetrics) -> T {
    /// Leaves the gauge on drop, so a job that unwinds leaves it too.
    struct Inflight<'a>(&'a Gauge);
    impl Drop for Inflight<'_> {
        fn drop(&mut self) {
            self.0.sub(1);
        }
    }
    metrics.inflight_fetches.add(1);
    let _inflight = Inflight(&metrics.inflight_fetches);
    job()
}

/// The client's retry policy, detached from the (`!Sync`) client so
/// pool jobs can retry independently.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryPolicy {
    pub(crate) attempts: u32,
    pub(crate) backoff: std::time::Duration,
}

/// Runs `op`, retrying transient [`FsError::Unavailable`] failures;
/// after `policy.attempts` tries (at least one) the last one's error is
/// the result. A free function (not a `Client` method) so a read's
/// piece jobs can call it on worker threads.
pub(crate) fn with_retry<T>(
    policy: RetryPolicy,
    retries: &Counter,
    mut op: impl FnMut() -> Result<T, FsError>,
) -> Result<T, FsError> {
    let mut delay = policy.backoff;
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(FsError::Unavailable(_)) if attempt < policy.attempts => {}
            Err(e) => return Err(e),
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
            delay = (delay * 2).min(MAX_RETRY_BACKOFF);
        }
        retries.inc();
        attempt += 1;
    }
}

/// Outcome of one piece fetch: how much of the piece buffer was
/// filled, the file size the serving dataserver reported, and which
/// host that size came from (the primary's size is authoritative under
/// strong consistency).
#[derive(Debug)]
pub(crate) struct PieceDone {
    pub(crate) filled: usize,
    pub(crate) reported_size: u64,
    pub(crate) size_from: HostId,
}

/// What every client of a cluster shares, and the only way to a
/// dataserver: the cluster builds one and hands each client a clone of
/// the `Arc`. It is `Sync`, so pool jobs use it directly — the client
/// itself holds `!Sync` state (the selector, the metadata cache).
#[derive(Debug)]
pub(crate) struct DataPlane {
    dataservers: BTreeMap<HostId, Arc<Dataserver>>,
    /// Serializes appends per file: the "primary dataserver is
    /// responsible for ordering all of the append requests for the
    /// file" (§3.3.2). Seal and repair hold the same lock.
    append_locks: Mutex<HashMap<FileId, Arc<Mutex<()>>>>,
    pub(crate) metrics: DatapathMetrics,
    pub(crate) ec: EcMetrics,
    /// Retries of transient failures, by every client (the
    /// `fs_client_retries_total` series).
    pub(crate) retries: Arc<Counter>,
    /// Datapath tracing: piece spans, created on the client thread in
    /// planning order (deterministic ids) and entered by pool workers;
    /// piece fetches open per-host `attempt` spans under them, so a
    /// failover sweep leaves sibling attempts (failed and successful)
    /// in the trace.
    pub(crate) trace: TraceHandle,
}

impl DataPlane {
    pub(crate) fn new(
        dataservers: BTreeMap<HostId, Arc<Dataserver>>,
        registry: &Registry,
        tracer: &Arc<Tracer>,
    ) -> DataPlane {
        let fs = registry.scope("fs");
        DataPlane {
            dataservers,
            append_locks: Mutex::default(),
            metrics: DatapathMetrics::new(&fs.scope("datapath")),
            ec: EcMetrics::new(&registry.scope("ec")),
            retries: fs.scope("client").counter("retries_total"),
            trace: tracer.handle("datapath"),
        }
    }

    /// The dataserver on `host`.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::InvalidArgument`] for a host the cluster does
    /// not run — metadata can name one, since placement is not checked
    /// against the topology.
    pub(crate) fn get(&self, host: HostId) -> Result<&Arc<Dataserver>, FsError> {
        self.dataservers
            .get(&host)
            .ok_or_else(|| FsError::InvalidArgument(format!("no dataserver on host {host}")))
    }

    /// Every dataserver, in host order.
    pub(crate) fn dataservers(&self) -> impl Iterator<Item = &Arc<Dataserver>> {
        self.dataservers.values()
    }

    /// Runs `f` holding the append lock of file `id`. An entry lives in
    /// the table only while someone holds or awaits it: every clone is
    /// taken and dropped under the table lock, so the last one out sees
    /// the table's own reference alone and removes the entry (file ids
    /// are never reused). A panic in `f` leaves the entry to the file's
    /// next holder to remove.
    pub(crate) fn with_file_lock<T>(&self, id: FileId, f: impl FnOnce() -> T) -> T {
        let lock = self.append_locks.lock().entry(id).or_default().clone();
        let out = {
            let _held = lock.lock();
            f()
        };
        let mut table = self.append_locks.lock();
        drop(lock);
        if table.get(&id).is_some_and(|l| Arc::strong_count(l) == 1) {
            table.remove(&id);
        }
        out
    }

    #[cfg(test)]
    pub(crate) fn locked_files(&self) -> usize {
        self.append_locks.lock().len()
    }

    /// Reads one contiguous piece into `buf`, sweeping the hosts in
    /// `order` (the chosen replica first, primary last) under the
    /// retry policy. Keeps the per-piece failover semantics of the
    /// serial path: a crashed dataserver that restarts within the
    /// retry budget turns a transient outage into a slower read.
    pub(crate) fn read_piece_into(
        &self,
        policy: RetryPolicy,
        meta: &FileMeta,
        order: &[HostId],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<PieceDone, FsError> {
        let mut round = 0u32;
        with_retry(policy, &self.retries, || {
            let mut last_err = None;
            for host in order {
                let attempt = trace::in_span(self.trace.child("attempt"), |span| {
                    trace::annotate(span, "host", host.0);
                    if round > 0 {
                        trace::annotate(span, "retry_round", round);
                    }
                    let out = self.try_read_piece_into(meta, *host, offset, &mut *buf);
                    match &out {
                        Ok(done) => trace::annotate(span, "filled", done.filled),
                        Err(e) => trace::annotate(span, "error", e),
                    }
                    out
                });
                match attempt {
                    Ok(done) => return Ok(done),
                    Err(e) => last_err = Some(e),
                }
            }
            round += 1;
            Err(last_err.unwrap_or_else(|| FsError::NotFound(meta.name.clone())))
        })
    }

    fn try_read_piece_into(
        &self,
        meta: &FileMeta,
        host: HostId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<PieceDone, FsError> {
        let (mut filled, size) = self.get(host)?.read_local_into(meta.id, offset, buf)?;
        let mut done = PieceDone {
            filled,
            reported_size: size,
            size_from: host,
        };
        if filled < buf.len() {
            // A lagging replica returned a short read; the primary is
            // never behind — fetch the remainder there. Its size
            // report supersedes the laggard's.
            let (more, primary_size) = self.get(meta.primary())?.read_local_into(
                meta.id,
                offset + filled as u64,
                &mut buf[filled..],
            )?;
            filled += more;
            done.filled = filled;
            done.reported_size = primary_size;
            done.size_from = meta.primary();
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics for a fan-out whose series no test reads.
    fn unread() -> DatapathMetrics {
        DatapathMetrics::new(&Registry::new().scope("dp"))
    }

    #[test]
    fn fan_out_returns_results_in_job_order() {
        for width in [1, 2, 4, 9] {
            let jobs: Vec<_> = (0..7)
                .map(|i| {
                    move || {
                        // Stagger completion so later jobs often finish
                        // first under real parallelism.
                        std::thread::sleep(std::time::Duration::from_micros(700 - 100 * i));
                        i
                    }
                })
                .collect();
            let out = fan_out(width, jobs, &unread());
            assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6], "width {width}");
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single_job_inline() {
        let none: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        assert!(fan_out(8, none, &unread()).is_empty());
        let caller = std::thread::current().id();
        let on_caller = move || std::thread::current().id() == caller;
        let out = fan_out(8, vec![on_caller], &unread());
        assert_eq!(out, vec![true], "single job runs on the caller's thread");
        let out = fan_out(1, vec![on_caller; 3], &unread());
        assert_eq!(out, vec![true; 3], "width 1 runs on the caller's thread");
    }

    /// Runs `jobs` jobs at `width` that each wait until all `jobs` have
    /// started, and returns the thread and trace context each ran
    /// under. They can only finish if the pool really runs them at the
    /// same time: run one after another, the first would wait for
    /// ever. The wait has a deadline so that regression fails instead
    /// of hanging. `fail` decides from the running thread whether a job
    /// panics once every job is in.
    fn rendezvous(
        width: usize,
        jobs: usize,
        fail: impl Fn(std::thread::ThreadId) -> bool + Sync,
    ) -> Vec<(std::thread::ThreadId, Option<(u64, u64)>)> {
        use std::sync::{Condvar, Mutex};
        let started = (Mutex::new(0usize), Condvar::new());
        let job = || {
            let (count, all_in) = &started;
            let mut n = count.lock().expect("no job panics holding the count");
            *n += 1;
            all_in.notify_all();
            let (n, wait) = all_in
                .wait_timeout_while(n, std::time::Duration::from_secs(20), |n| *n < jobs)
                .expect("no job panics holding the count");
            drop(n);
            assert!(
                !wait.timed_out(),
                "width {width}: {jobs} jobs did not overlap"
            );
            let thread = std::thread::current().id();
            assert!(!fail(thread), "the chosen job fails");
            (thread, trace::current_context())
        };
        fan_out(width, vec![job; jobs], &unread())
    }

    /// The caller is one of the workers: `width` overlapping jobs run on
    /// exactly `width` threads, the caller's among them, and a fan-out
    /// never runs on more threads than it has jobs. Every job, on a
    /// helper or on the caller, sees the caller's trace context.
    #[test]
    fn fan_out_overlaps_jobs_up_to_width() {
        let caller = std::thread::current().id();
        let ctx = Some((7, 9));
        for width in [2usize, 3, 4] {
            let ran = trace::with_context(ctx, || rendezvous(width, width, |_| false));
            let threads: std::collections::HashSet<_> = ran.iter().map(|&(t, _)| t).collect();
            assert_eq!(threads.len(), width, "width {width}: one thread per job");
            assert!(
                threads.contains(&caller),
                "width {width}: the caller runs a job"
            );
            assert!(ran.iter().all(|&(_, c)| c == ctx), "width {width}: {ran:?}");
        }
        let ran = rendezvous(4, 2, |_| false);
        let threads: std::collections::HashSet<_> = ran.iter().map(|&(t, _)| t).collect();
        assert!(threads.len() <= 2, "2 jobs at width 4 ran on {threads:?}");
        assert!(ran.iter().all(|&(_, c)| c.is_none()), "no context leaks");
    }

    /// A job that panics fails the whole fan-out with its own payload,
    /// after the other jobs have run, and leaves the in-flight gauge
    /// where it found it — whichever job fails, at any width.
    #[test]
    fn fan_out_reraises_a_jobs_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let registry = Registry::new();
        let metrics = DatapathMetrics::new(&registry.scope("dp"));
        for width in [2, 3, 4] {
            for bad in 0..6 {
                let ran = AtomicUsize::new(0);
                let jobs: Vec<_> = (0..6)
                    .map(|i| {
                        let ran = &ran;
                        move || {
                            ran.fetch_add(1, Ordering::Relaxed);
                            assert_ne!(i, bad, "job {bad} fails");
                            i
                        }
                    })
                    .collect();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fan_out(width, jobs, &metrics)
                }));
                let payload = caught.expect_err("the panic reaches the caller");
                let message = payload.downcast_ref::<String>().unwrap();
                assert!(message.contains(&format!("job {bad} fails")), "{message}");
                assert_eq!(ran.load(Ordering::Relaxed), 6, "width {width}, job {bad}");
                assert_eq!(
                    metrics.inflight_fetches.get(),
                    0,
                    "width {width}, job {bad}"
                );
            }
        }
        // Pinned: two overlapping jobs run one on the caller and one on
        // a helper, so each side's panic is exercised for certain.
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rendezvous(2, 2, |thread| (thread == caller) == on_caller)
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<&str>().unwrap();
            assert_eq!(
                *message, "the chosen job fails",
                "on the caller: {on_caller}"
            );
        }
    }

    #[test]
    fn fan_out_records_width_stall_and_inflight() {
        let registry = Registry::new();
        let metrics = DatapathMetrics::new(&registry.scope("dp"));
        let jobs: Vec<_> = (0..4).map(|i| move || i * 2).collect();
        let out = fan_out(2, jobs, &metrics);
        assert_eq!(out, vec![0, 2, 4, 6]);
        let snap = registry.snapshot();
        let width = snap.histogram("dp_fan_out_width").unwrap();
        assert_eq!((width.count, width.sum), (1, 4));
        assert_eq!(metrics.inflight_fetches.get(), 0, "gauge drains to zero");
    }

    /// A lock's entry stays in the table while anyone else holds a
    /// clone of it: removed early, a third caller would make a fresh
    /// lock and run beside the second.
    #[test]
    fn a_file_lock_stays_while_a_waiter_holds_it() {
        use std::sync::mpsc::channel;
        let plane = &DataPlane::new(BTreeMap::new(), &Registry::new(), &Tracer::new_wall());
        let id = FileId(7);
        let clones = || plane.append_locks.lock().get(&id).map(Arc::strong_count);
        std::thread::scope(|s| {
            // Made in the scope, so a failed assert drops the senders
            // and frees the threads before the scope joins them.
            let ((a_in, a_inside), (a_go, a_wait)) = (channel(), channel::<()>());
            let ((b_in, b_inside), (b_go, b_wait)) = (channel(), channel::<()>());
            let a = s.spawn(move || {
                plane.with_file_lock(id, || {
                    a_in.send(()).unwrap();
                    a_wait.recv().unwrap();
                });
            });
            a_inside.recv().unwrap();
            let b = s.spawn(move || {
                plane.with_file_lock(id, || {
                    b_in.send(()).unwrap();
                    b_wait.recv().unwrap();
                });
            });
            // The table's reference, A's and B's.
            while clones() != Some(3) {
                std::thread::yield_now();
            }
            a_go.send(()).unwrap();
            a.join().unwrap();
            assert_eq!(plane.locked_files(), 1, "B awaits or holds the lock");
            b_inside.recv().unwrap();
            b_go.send(()).unwrap();
            b.join().unwrap();
        });
        assert_eq!(plane.locked_files(), 0);
    }

    #[test]
    fn with_retry_counts_and_gives_up() {
        let retries = Counter::new();
        let policy = RetryPolicy {
            attempts: 3,
            backoff: std::time::Duration::ZERO,
        };
        let mut calls = 0;
        let out: Result<(), FsError> = with_retry(policy, &retries, || {
            calls += 1;
            Err(FsError::Unavailable(format!("down {calls}")))
        });
        assert!(matches!(out, Err(FsError::Unavailable(m)) if m == "down 3"));
        assert_eq!(calls, 3);
        assert_eq!(retries.get(), 2);
        // Zero attempts still runs the op once.
        let once = RetryPolicy {
            attempts: 0,
            ..policy
        };
        let mut calls = 0;
        let out: Result<(), FsError> = with_retry(once, &retries, || {
            calls += 1;
            Err(FsError::Unavailable("down".into()))
        });
        assert!(matches!(out, Err(FsError::Unavailable(_))));
        assert_eq!((calls, retries.get()), (1, 2));
        // Non-retryable errors propagate immediately.
        let out: Result<(), FsError> =
            with_retry(policy, &retries, || Err(FsError::NotFound("gone".into())));
        assert!(matches!(out, Err(FsError::NotFound(_))));
        assert_eq!(retries.get(), 2);
    }
}
