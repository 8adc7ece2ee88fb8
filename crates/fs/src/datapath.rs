//! The parallel data-plane pipeline (DESIGN.md §16): a bounded
//! scoped-thread worker pool for piece fetches, append relays, and
//! fragment reads, plus the shared fetch context those jobs run with.
//!
//! Parallelism here overlaps *I/O latency* — dataserver RPC round
//! trips — not CPU work, so pool width is a client policy knob
//! ([`crate::client::Client::set_parallelism`]) rather than a function
//! of core count. Results are position-addressed: every job's value is
//! returned under its index (and a read fills its caller-provided
//! buffer slice), so output bytes are identical regardless of
//! completion order and a width-1 pool runs the exact same code
//! inline. The fluid simulator and the model checker never thread
//! through this pool, so their determinism is untouched.

use std::collections::BTreeMap;
use std::sync::Arc;

use mayflower_net::HostId;
use mayflower_telemetry::trace::{self, TraceHandle};
use mayflower_telemetry::{Counter, Gauge, Histogram, Scope};
use parking_lot::Mutex;

use crate::dataserver::Dataserver;
use crate::error::FsError;
use crate::types::FileMeta;

/// Backoff growth is capped so a long retry budget cannot make a
/// client hang for seconds on a dead component.
const MAX_RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(16);

/// Telemetry for the parallel pipeline, shared by every client of a
/// cluster (the registry dedups by metric name).
#[derive(Debug)]
pub(crate) struct DatapathMetrics {
    /// Piece / relay / fragment fetches currently running on the pool.
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

/// Runs `jobs` on a bounded pool of at most `width` scoped worker
/// threads and returns their results **in job order**. Width ≤ 1 (or a
/// single job) runs inline on the caller's thread — the serial
/// baseline goes through the identical code path.
pub(crate) fn fan_out<T, F>(width: usize, jobs: Vec<F>, metrics: Option<&DatapathMetrics>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    if let Some(m) = metrics {
        m.fan_out_width.record(n as u64);
    }
    let workers = width.max(1).min(n);
    if workers == 1 {
        return jobs.into_iter().map(|job| run_one(job, metrics)).collect();
    }

    // Work queue popped from the back; jobs are pushed reversed so the
    // lowest index dispatches first. Each worker hands back the
    // `(index, value)` pairs it ran; every index is popped exactly once.
    let queue: Mutex<Vec<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().rev().collect());
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut ran = Vec::new();
                    loop {
                        let next = queue.lock().pop();
                        let Some((index, job)) = next else { break ran };
                        ran.push((index, run_one(job, metrics)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                // A job's panic reaches the caller, as an unjoined
                // scoped thread's would.
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, value)| value).collect()
}

fn run_one<T>(job: impl FnOnce() -> T, metrics: Option<&DatapathMetrics>) -> T {
    if let Some(m) = metrics {
        m.inflight_fetches.add(1);
    }
    let value = job();
    if let Some(m) = metrics {
        m.inflight_fetches.sub(1);
    }
    value
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
/// the result. A free function (not a `Client` method) so worker threads can call
/// it too.
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

/// The `Sync` subset of client state a piece fetch needs — the client
/// itself holds `!Sync` state (the selector, the metadata cache) and
/// cannot be shared with the pool.
pub(crate) struct FetchCtx<'a> {
    pub(crate) dataservers: &'a BTreeMap<HostId, Arc<Dataserver>>,
    pub(crate) policy: RetryPolicy,
    pub(crate) retries: &'a Counter,
    /// Datapath tracing handle: piece fetches open per-host `attempt`
    /// spans under the ambient piece span, so a failover sweep leaves
    /// sibling attempts (failed and successful) in the trace.
    pub(crate) trace: &'a TraceHandle,
}

impl FetchCtx<'_> {
    pub(crate) fn dataserver(&self, host: HostId) -> Result<&Arc<Dataserver>, FsError> {
        self.dataservers
            .get(&host)
            .ok_or_else(|| FsError::InvalidArgument(format!("no dataserver on host {host}")))
    }

    /// Reads one contiguous piece into `buf`, sweeping the hosts in
    /// `order` (the chosen replica first, primary last) under the
    /// retry policy. Keeps the per-piece failover semantics of the
    /// serial path: a crashed dataserver that restarts within the
    /// retry budget turns a transient outage into a slower read.
    pub(crate) fn read_piece_into(
        &self,
        meta: &FileMeta,
        order: &[HostId],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<PieceDone, FsError> {
        let mut round = 0u32;
        with_retry(self.policy, self.retries, || {
            let mut last_err = None;
            for host in order {
                let mut span = self.trace.child("attempt");
                trace::annotate(&mut span, "host", host.0.to_string());
                if round > 0 {
                    trace::annotate(&mut span, "retry_round", round.to_string());
                }
                let out = {
                    let _g = span.as_ref().map(trace::ActiveSpan::enter);
                    self.try_read_piece_into(meta, *host, offset, &mut *buf)
                };
                match out {
                    Ok(done) => {
                        trace::annotate(&mut span, "filled", done.filled.to_string());
                        return Ok(done);
                    }
                    Err(e) => {
                        trace::annotate(&mut span, "error", e.to_string());
                        trace::mark_error(&mut span);
                        last_err = Some(e);
                    }
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
        let (mut filled, size) = self
            .dataserver(host)?
            .read_local_into(meta.id, offset, buf)?;
        let mut done = PieceDone {
            filled,
            reported_size: size,
            size_from: host,
        };
        if filled < buf.len() {
            // A lagging replica returned a short read; the primary is
            // never behind — fetch the remainder there. Its size
            // report supersedes the laggard's.
            let (more, primary_size) = self.dataserver(meta.primary())?.read_local_into(
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
            let out = fan_out(width, jobs, None);
            assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6], "width {width}");
        }
    }

    #[test]
    fn fan_out_handles_empty_and_single_job_inline() {
        let none: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        assert!(fan_out(8, none, None).is_empty());
        let caller = std::thread::current().id();
        let on_caller = move || std::thread::current().id() == caller;
        let out = fan_out(8, vec![on_caller], None);
        assert_eq!(out, vec![true], "single job runs on the caller's thread");
        let out = fan_out(1, vec![on_caller; 3], None);
        assert_eq!(out, vec![true; 3], "width 1 runs on the caller's thread");
    }

    /// `width` jobs that each wait until all `width` have started can
    /// only finish if the pool really runs them at the same time: run
    /// one after another, the first would wait for ever. The wait has
    /// a deadline so that regression fails instead of hanging.
    #[test]
    fn fan_out_overlaps_jobs_up_to_width() {
        use std::sync::{Condvar, Mutex};
        for width in [2usize, 4] {
            let started = (Mutex::new(0usize), Condvar::new());
            let rendezvous = || {
                let (count, all_in) = &started;
                let mut n = count.lock().expect("no job panics holding the count");
                *n += 1;
                all_in.notify_all();
                let (_n, wait) = all_in
                    .wait_timeout_while(n, std::time::Duration::from_secs(20), |n| *n < width)
                    .expect("no job panics holding the count");
                !wait.timed_out()
            };
            let met = fan_out(width, vec![rendezvous; width], None);
            assert_eq!(met, vec![true; width], "width {width} did not overlap");
        }
    }

    /// A job that panics fails the whole fan-out with its own payload,
    /// after the other jobs have run.
    #[test]
    fn fan_out_reraises_a_jobs_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..6)
            .map(|i| {
                let ran = &ran;
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert_ne!(i, 3, "job 3 fails");
                    i
                }
            })
            .collect();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fan_out(2, jobs, None)));
        let payload = caught.expect_err("the panic reaches the caller");
        let message = payload.downcast_ref::<String>().unwrap();
        assert!(message.contains("job 3 fails"), "{message}");
        assert_eq!(ran.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn fan_out_records_width_stall_and_inflight() {
        let registry = mayflower_telemetry::Registry::new();
        let metrics = DatapathMetrics::new(&registry.scope("dp"));
        let jobs: Vec<_> = (0..4).map(|i| move || i * 2).collect();
        let out = fan_out(2, jobs, Some(&metrics));
        assert_eq!(out, vec![0, 2, 4, 6]);
        let snap = registry.snapshot();
        let width = snap.histogram("dp_fan_out_width").unwrap();
        assert_eq!((width.count, width.sum), (1, 4));
        assert_eq!(metrics.inflight_fetches.get(), 0, "gauge drains to zero");
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
