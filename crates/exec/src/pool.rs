//! The executor seam: *who* runs a batch of ready slices.
//!
//! Every backend in this reproduction executes ranks cooperatively —
//! one OS thread interleaving resumable [`Thread`]s under a seeded
//! per-round service order. That made determinism trivial but left
//! "speed" a purely virtual number. This module splits the *policy*
//! (which ranks run this round, in what order their yields are
//! serviced — still owned by the scheduler) from the *mechanism*
//! (which OS thread burns the cycles of each slice):
//!
//! - [`SimExecutor`] runs the batch serially on the calling thread, in
//!   batch order. This is byte-for-byte the historical loop, just
//!   routed through the seam.
//! - [`ThreadExecutor`] fans the batch out over real `std::thread`
//!   workers with a work-stealing deque (zero external deps, zero
//!   `unsafe`). In [`ExecMode::Replay`] it hands results back in batch
//!   order — the seeded schedule the scheduler chose — so the world is
//!   bit-identical to [`SimExecutor`]. In [`ExecMode::Free`] results
//!   come back in completion order: raw throughput, still
//!   value-identical on exact-arithmetic workloads because world
//!   *results* are schedule-independent by construction (the invariant
//!   the conformance suite already enforces for arbitrary seeds).
//!
//! Why batching is sound: within one scheduler round, executing a
//! rank's slice touches only that rank's own [`Thread`] and
//! [`Machine`]. Cross-rank effects (message delivery, collective
//! completion, fault draws) happen when the scheduler *services* the
//! returned yield, never during slice execution itself. So "run all
//! ready slices, possibly in parallel, then service yields in the
//! chosen order" is observably identical to the historical
//! run-one-service-one loop.
//!
//! The same pool backs the translator's parallel per-function lowering
//! via [`parallel_map`], which preserves input-index order so FuncId
//! assignment stays deterministic.

use crate::{run, Code, ExecError, Machine, Thread, Yield};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a [`ThreadExecutor`] hands results back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Results return in batch (seeded-schedule) order: bit-identical
    /// to [`SimExecutor`], so warm caches and `.wckpt` chains survive.
    Replay,
    /// Results return in completion order: opt-in raw throughput.
    /// Values stay identical on exact-arithmetic workloads; virtual
    /// timing may legitimately diverge.
    Free,
}

/// Executor selection, carried by world builders and [`RunRequest`]s
/// (a config, not a trait object, so it stays `Copy` and wire-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecutorCfg {
    /// The historical single-threaded cooperative loop.
    #[default]
    Sim,
    /// Real OS-thread workers over a work-stealing deque.
    Threads { workers: u32, mode: ExecMode },
}

impl ExecutorCfg {
    /// Read the `WJ_EXECUTOR` override: `threads` / `threads:<N>`
    /// selects replay-mode OS threads (bit-identical, safe to apply to
    /// an entire test suite); anything else keeps `self`.
    pub fn from_env_or(self) -> Self {
        match std::env::var("WJ_EXECUTOR") {
            Ok(v) if v == "threads" => ExecutorCfg::Threads {
                workers: default_workers(),
                mode: ExecMode::Replay,
            },
            Ok(v) => match v.strip_prefix("threads:").and_then(|n| n.parse().ok()) {
                Some(workers) => ExecutorCfg::Threads {
                    workers,
                    mode: ExecMode::Replay,
                },
                None => self,
            },
            Err(_) => self,
        }
    }

    /// Build the executor this configuration names.
    pub fn build(self) -> Box<dyn Executor> {
        match self {
            ExecutorCfg::Sim => Box::new(SimExecutor),
            ExecutorCfg::Threads { workers, mode } => Box::new(ThreadExecutor { workers, mode }),
        }
    }
}

/// Worker count when the override doesn't name one: the machine's
/// available parallelism, floored at 2 so "threads" always means
/// threads even on a single-core box.
pub fn default_workers() -> u32 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
        .max(2)
}

/// One ready slice: a rank's thread + machine, moved out of the pool
/// for the duration of the batch (slice execution owns them — that
/// exclusivity is what makes parallel batches sound).
pub struct SliceJob {
    pub rank: u32,
    pub thread: Thread,
    pub machine: Machine,
    pub slice: u64,
}

/// A finished slice: the rank's state handed back, plus how it
/// stopped. Fallible — executors never unwrap execution errors.
pub struct SliceDone {
    pub rank: u32,
    pub thread: Thread,
    pub machine: Machine,
    pub outcome: Result<Yield, ExecError>,
}

/// Runs one scheduler round's batch of ready slices.
///
/// The result order *is* the contract: [`SimExecutor`] and replay-mode
/// [`ThreadExecutor`] return results in batch order (the seeded
/// schedule); free-running mode returns completion order.
pub trait Executor: Send + Sync {
    fn run_batch(&self, code: &Code, jobs: Vec<SliceJob>) -> Vec<SliceDone>;

    /// Stable name for reports (`sim`, `threads-replay`, `threads-free`).
    fn name(&self) -> &'static str;
}

fn exec_one(code: &Code, job: SliceJob) -> SliceDone {
    let SliceJob {
        rank,
        mut thread,
        mut machine,
        slice,
    } = job;
    let outcome = run(&mut thread, code, &mut machine, slice);
    SliceDone {
        rank,
        thread,
        machine,
        outcome,
    }
}

/// The historical loop behind the seam: the calling thread runs each
/// slice in batch order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimExecutor;

impl Executor for SimExecutor {
    fn run_batch(&self, code: &Code, jobs: Vec<SliceJob>) -> Vec<SliceDone> {
        jobs.into_iter().map(|j| exec_one(code, j)).collect()
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}

/// Real `std::thread` workers over a work-stealing deque.
///
/// Workers are scoped per batch (not persistent), which keeps every
/// borrow safe — no `unsafe`, no channels, no external crates. The fuel
/// bounds a slice at millions of instructions, but most slices end far
/// sooner, at the rank's next MPI yield (often after a few hundred), so
/// on short-slice workloads the per-batch spawn costs more than the
/// slices it runs. Each worker owns a deque, pops its own front, and
/// steals from other deques' backs when empty.
#[derive(Debug, Clone, Copy)]
pub struct ThreadExecutor {
    pub workers: u32,
    pub mode: ExecMode,
}

impl ThreadExecutor {
    pub fn new(workers: u32, mode: ExecMode) -> Self {
        ThreadExecutor { workers, mode }
    }
}

impl Executor for ThreadExecutor {
    fn run_batch(&self, code: &Code, jobs: Vec<SliceJob>) -> Vec<SliceDone> {
        let n = jobs.len();
        let workers = (self.workers.max(1) as usize).min(n);
        if workers <= 1 {
            // One worker (or one job) degenerates to the serial loop.
            return SimExecutor.run_batch(code, jobs);
        }
        // Seed the deques round-robin so every worker starts loaded.
        let queues: Vec<Mutex<VecDeque<(usize, SliceJob)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            queues[i % workers].lock().unwrap().push_back((i, job));
        }
        let done: Mutex<Vec<(usize, SliceDone)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for w in 0..workers {
                let queues = &queues;
                let done = &done;
                s.spawn(move || loop {
                    // Own deque first (front), then steal (back) —
                    // the classic deque discipline, mutexed because
                    // batches are coarse enough that contention is
                    // irrelevant next to slice cost.
                    let mut job = queues[w].lock().unwrap().pop_front();
                    if job.is_none() {
                        for o in 1..workers {
                            let victim = (w + o) % workers;
                            job = queues[victim].lock().unwrap().pop_back();
                            if job.is_some() {
                                break;
                            }
                        }
                    }
                    match job {
                        Some((i, j)) => {
                            let r = exec_one(code, j);
                            done.lock().unwrap().push((i, r));
                        }
                        // All deques drained: no new work arrives
                        // mid-batch, so empty means finished.
                        None => break,
                    }
                });
            }
        });
        let mut results = done.into_inner().unwrap();
        if self.mode == ExecMode::Replay {
            // Hand-off follows the seeded schedule: batch order.
            results.sort_by_key(|(i, _)| *i);
        }
        results.into_iter().map(|(_, r)| r).collect()
    }

    fn name(&self) -> &'static str {
        match self.mode {
            ExecMode::Replay => "threads-replay",
            ExecMode::Free => "threads-free",
        }
    }
}

/// Map `f` over `items` on up to `workers` OS threads, returning
/// results in input-index order regardless of completion order.
///
/// This is the translator's half of the pool: independent per-function
/// lowerings fan out here, and index-order results are what keep
/// FuncId assignment and stats aggregation bit-identical to serial.
pub fn parallel_map<T, R, F>(workers: u32, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = (workers.max(1) as usize).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i].lock().unwrap().take().expect("claimed twice");
                *slots[i].lock().unwrap() = Some(f(i, item));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker died before filling slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        for workers in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..100).collect();
            let out = parallel_map(workers, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn executor_cfg_env_override_parses() {
        // Can't set the env var here (tests share a process), but the
        // identity path must hold.
        let cfg = ExecutorCfg::Threads {
            workers: 3,
            mode: ExecMode::Free,
        };
        assert_eq!(cfg.build().name(), "threads-free");
        assert_eq!(ExecutorCfg::Sim.build().name(), "sim");
        assert!(default_workers() >= 2);
    }
}
