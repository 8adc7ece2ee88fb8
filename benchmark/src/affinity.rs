//! Which CPU the process runs on.
//!
//! A run is confined to one CPU at a time, for two reasons found on
//! the 2-vCPU VM this was written on.
//!
//! A hand-off between two threads on different vCPUs wakes an idle
//! vCPU through the hypervisor, which costs more than the program's
//! whole share of an RPC, and which vCPU the kernel picks for the
//! woken thread flips from batch to batch: loopback RPCs measured
//! 10 000/s or 23 000/s by turns. On one CPU they measure 24 000/s.
//!
//! And each vCPU is by turns a third slower for seconds to tens of
//! seconds (a neighbour on the same core: a 64-host replay, which does
//! no I/O and takes no page fault, runs at 28 000 or 41 000 jobs/s and
//! little in between, while a dependent chain of shifts does not
//! notice). The two vCPUs are slowed at different times, so the
//! process hops between them and every phase gets batches on both.
//!
//! Threads inherit the mask of the thread that spawns them, and a hop
//! moves every thread the process has, so the program's server, relay
//! and fetch threads follow. Elsewhere than on Linux nothing is
//! confined.

use std::time::{Duration, Instant};

/// How long the process stays on one CPU before it hops to the next.
const SLICE: Duration = Duration::from_millis(250);

/// A `cpu_set_t`: 1024 bits.
type Mask = [u64; 16];

/// The CPUs this process started with.
#[derive(Debug, Clone)]
pub struct Cpus {
    all: Mask,
    each: Vec<usize>,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Gives every thread of the process `mask`; the calling thread first,
/// so threads spawned meanwhile inherit it.
#[cfg(target_os = "linux")]
fn set_all_threads(mask: &Mask) {
    let set = |tid: i32| {
        // SAFETY: `mask` is a readable buffer of the size passed. A
        // refusal (the thread just ended) leaves things as they were,
        // which costs steadiness, not correctness.
        let _ = unsafe { sched_setaffinity(tid, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    };
    set(0);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
    {
        set(tid);
    }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_all_threads(_: &Mask) {}

impl Cpus {
    /// Reads the calling thread's mask. Call before anything is
    /// confined.
    #[must_use]
    pub fn detect() -> Cpus {
        let all = get().unwrap_or([0; 16]);
        let each = (0..1024)
            .filter(|cpu| all[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        Cpus { all, each }
    }

    /// How many CPUs the process may use (`nproc`), at least 1.
    #[must_use]
    pub fn count(&self) -> usize {
        self.each.len().max(1)
    }

    /// Confines the process to the first of its CPUs until the guard
    /// drops.
    #[must_use]
    pub fn confine(&self) -> Confined {
        let confined = Confined {
            cpus: self.clone(),
            on: 0,
            since: Instant::now(),
        };
        confined.apply();
        confined
    }
}

/// The process is on one CPU; gives it all of them back when dropped.
#[derive(Debug)]
pub struct Confined {
    cpus: Cpus,
    on: usize,
    since: Instant,
}

impl Confined {
    fn apply(&self) {
        if let Some(cpu) = self.cpus.each.get(self.on) {
            let mut one = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            set_all_threads(&one);
        }
    }

    /// Call between batches: moves the process to its next CPU once it
    /// has spent its slice on this one.
    pub fn turn(&mut self) {
        if self.cpus.each.len() > 1 && self.since.elapsed() >= SLICE {
            self.on = (self.on + 1) % self.cpus.each.len();
            self.apply();
            self.since = Instant::now();
        }
    }
}

impl Drop for Confined {
    fn drop(&mut self) {
        if !self.cpus.each.is_empty() {
            set_all_threads(&self.cpus.all);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn allowed() -> Vec<usize> {
        Cpus::detect().each
    }

    #[test]
    fn confining_narrows_every_thread_to_one_cpu_hops_and_gives_them_back() {
        let cpus = Cpus::detect();
        let before = allowed();
        assert_eq!(cpus.count(), before.len());
        // A thread that exists before the process is confined.
        let (ask, asked) = std::sync::mpsc::channel::<()>();
        let (answer, answered) = std::sync::mpsc::channel();
        let old = std::thread::spawn(move || {
            while asked.recv().is_ok() {
                answer.send(allowed()).unwrap();
            }
        });
        let seen_by_old = || {
            ask.send(()).unwrap();
            answered.recv().unwrap()
        };

        let mut confined = cpus.confine();
        let first = allowed();
        assert_eq!(first, before[..1]);
        assert_eq!(seen_by_old(), first);
        assert_eq!(std::thread::spawn(allowed).join().unwrap(), first);

        confined.turn();
        assert_eq!(allowed(), first, "no hop before the slice is spent");
        std::thread::sleep(SLICE);
        confined.turn();
        let second = allowed();
        assert_eq!(second, [before[1 % before.len()]]);
        assert_eq!(seen_by_old(), second);

        drop(confined);
        assert_eq!(allowed(), before);
        assert_eq!(seen_by_old(), before);
        drop(ask);
        old.join().unwrap();
    }
}
