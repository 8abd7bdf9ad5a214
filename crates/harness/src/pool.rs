//! `pool` — a deterministic parallel trial executor.
//!
//! Every trial in this repository is an independent, seeded, pure
//! function of its [`crate::TrialConfig`] — the ideal fan-out workload.
//! The pool runs `n` indexed tasks across worker threads
//! (`std::thread::scope`, no external dependencies) and returns their
//! results **in index order**, so any reduction over the results is
//! bit-identical regardless of worker count:
//!
//! * work is handed out through one shared atomic cursor: each worker
//!   claims the next chunk-sized index range with `fetch_add` until
//!   the cursor passes `n`, so a worker that finishes early simply
//!   claims more — which *worker* runs task `i` varies between runs,
//!   but task `i` itself is a pure function of `i` (trial seeds come
//!   from [`crate::seed::derive_trial_seed`], never from execution
//!   order);
//! * each worker buffers `(start, results)` runs; after the scope
//!   joins, runs are scattered back into an index-ordered `Vec`.
//!
//! Workers that need per-worker state — scratch arenas the trial loop
//! reuses across its whole share of the batch — go through
//! [`Pool::map_indexed_scratch`]: the scratch factory runs once per
//! worker, not once per task, so the allocation cost of worker state
//! is `O(workers)`, never `O(n)`.
//!
//! Nested calls (an experiment parallelizes over cells, and each cell's
//! `success_rate` would parallelize over trials) degrade gracefully:
//! a `map_indexed` issued *from inside a pool worker* runs serially on
//! that worker, capping total threads at the configured job count.
//!
//! The process-wide default worker count is set once at startup from
//! `--jobs N` (see [`set_jobs`]); `0`/unset means "available
//! parallelism". Tests that compare worker counts construct explicit
//! [`Pool`]s instead of touching the global.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use strata::json::Json;

/// Process-wide default job count; 0 = auto (available parallelism).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Trials executed since process start (throughput instrumentation).
static TRIALS_RUN: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// True while the current thread is a pool worker: nested
    /// `map_indexed` calls run serially instead of spawning again.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Set the process-wide default worker count (the CLI's `--jobs N`).
/// `0` restores "available parallelism".
pub fn set_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The effective default worker count.
pub fn jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Record `n` executed trials (throughput instrumentation). Called by
/// every trial-running loop, serial or parallel.
pub fn record_trials(n: u64) {
    TRIALS_RUN.fetch_add(n, Ordering::Relaxed);
}

/// Trials executed since process start.
pub fn trials_run() -> u64 {
    TRIALS_RUN.load(Ordering::Relaxed)
}

/// A deterministic fan-out executor with a fixed worker count.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` workers (clamped to ≥ 1).
    pub fn with_jobs(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The process-default pool (`--jobs N`, else available
    /// parallelism).
    pub fn global() -> Pool {
        Pool::with_jobs(jobs())
    }

    /// This pool's worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The chunk size used for a batch of `n` tasks over `workers`
    /// workers: ~8 chunks per worker capped at 64 tasks — small enough
    /// that a slow chunk leaves the other workers plenty to claim,
    /// large enough that cursor traffic stays negligible.
    fn chunk_for(n: usize, workers: usize) -> usize {
        (n / (workers * 8)).clamp(1, 64)
    }

    /// Run `f(0..n)` across the pool and return results in index
    /// order. The output is bit-identical for any worker count because
    /// `f` must be a pure function of its index — the pool only
    /// changes *where* each index runs, never *what* it computes.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_indexed_scratch(n, || (), |(), i| f(i))
    }

    /// [`Pool::map_indexed`] with a per-worker scratch arena:
    /// `make_scratch` runs **once per worker** (once total on the
    /// serial path) and the resulting state is threaded through every
    /// task that worker runs, so buffers warmed by one trial are
    /// reused by the next instead of being re-created `n` times.
    ///
    /// Determinism contract: `f(scratch, i)` must return the same
    /// value for a fresh scratch and a reused one — scratch holds
    /// *capacity* (buffers, arenas), never *state* that leaks between
    /// tasks. Under that contract the output is bit-identical for any
    /// worker count and any order in which workers claim chunks.
    pub fn map_indexed_scratch<T, S, F, G>(&self, n: usize, make_scratch: G, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut S, usize) -> T + Sync,
        G: Fn() -> S + Sync,
    {
        let serial = self.workers == 1 || n <= 1 || IN_POOL_WORKER.with(std::cell::Cell::get);
        if serial {
            let mut scratch = make_scratch();
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }

        // One shared cursor: each worker claims the next chunk-sized
        // range of `0..n` until the cursor passes `n`. A worker that
        // finishes early claims more, so a slow chunk gates only its
        // own worker. `Relaxed` suffices: the cursor publishes no
        // data, and the scope join publishes the results.
        let workers = self.workers.min(n);
        let chunk = Pool::chunk_for(n, workers);
        let cursor = AtomicUsize::new(0);
        let mut buckets: Vec<Vec<(usize, Vec<T>)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let f = &f;
                    let make_scratch = &make_scratch;
                    scope.spawn(move || {
                        IN_POOL_WORKER.with(|flag| flag.set(true));
                        let mut scratch = make_scratch();
                        let mut local = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            let mut run = Vec::with_capacity(end - start);
                            run.extend((start..end).map(|i| f(&mut scratch, i)));
                            local.push((start, run));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                buckets.push(handle.join().expect("pool worker panicked"));
            }
        });

        // Scatter back into index order — the step that makes the
        // reduction independent of scheduling. Runs are disjoint and
        // cover `0..n`, so sorting by start index and concatenating
        // reproduces the serial order.
        let mut runs: Vec<(usize, Vec<T>)> = buckets.into_iter().flatten().collect();
        runs.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(n);
        for (_, run) in runs {
            out.extend(run);
        }
        debug_assert_eq!(out.len(), n);
        out
    }
}

/// Wall-clock + trial-count instrumentation for one run, emitted as
/// JSON (through [`strata::json::Json`]) so `BENCH_*.json`
/// trajectories can track throughput across changes.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// What ran (experiment or subcommand name).
    pub label: String,
    /// Trials executed during the measured run.
    pub trials: u64,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Trials per wall-clock second.
    pub trials_per_sec: f64,
    /// Worker count in effect.
    pub workers: usize,
}

impl Throughput {
    /// Measure `f`, counting the trials it records via
    /// [`record_trials`].
    pub fn measure<T>(label: &str, f: impl FnOnce() -> T) -> (T, Throughput) {
        let trials_before = trials_run();
        let start = Instant::now();
        let value = f();
        let wall = start.elapsed();
        let trials = trials_run() - trials_before;
        let wall_ms = wall.as_secs_f64() * 1e3;
        (
            value,
            Throughput {
                label: label.to_string(),
                trials,
                wall_ms,
                trials_per_sec: if wall.as_secs_f64() > 0.0 {
                    trials as f64 / wall.as_secs_f64()
                } else {
                    0.0
                },
                workers: jobs(),
            },
        )
    }

    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        Json::object(|j| self.json_members(j))
    }

    /// Write [`Throughput::to_json`]'s members into `j`, so a caller
    /// can append its own members to the same object.
    pub fn json_members(&self, j: &mut Json) {
        j.str("label", &self.label)
            .num("trials", self.trials)
            .num("wall_ms", format_args!("{:.1}", self.wall_ms))
            .num("trials_per_sec", format_args!("{:.1}", self.trials_per_sec))
            .num("workers", self.workers);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let pool = Pool::with_jobs(workers);
            let out = pool.map_indexed(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let serial = Pool::with_jobs(1).map_indexed(257, f);
        for workers in [2, 4, 8] {
            assert_eq!(Pool::with_jobs(workers).map_indexed(257, f), serial);
        }
    }

    #[test]
    fn nested_map_runs_serially_not_exponentially() {
        let pool = Pool::with_jobs(4);
        let out = pool.map_indexed(8, |i| {
            // Inner call from a worker thread: must not spawn again.
            let inner = Pool::with_jobs(4).map_indexed(8, |j| i * 8 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let pool = Pool::with_jobs(8);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn throughput_json_matches_the_golden() {
        let t = Throughput {
            label: "table2".into(),
            trials: 1200,
            wall_ms: 1234.56,
            trials_per_sec: 972.0483,
            workers: 8,
        };
        assert_eq!(
            t.to_json(),
            "{\"label\":\"table2\",\"trials\":1200,\"wall_ms\":1234.6,\"trials_per_sec\":972.0,\"workers\":8}"
        );
    }

    #[test]
    fn throughput_counts_recorded_trials() {
        let (sum, t) = Throughput::measure("unit", || {
            record_trials(17);
            21 + 21
        });
        assert_eq!(sum, 42);
        assert_eq!(t.trials, 17);
        assert!(t.workers >= 1);
        let json = t.to_json();
        assert!(json.contains("\"label\":\"unit\""), "{json}");
        assert!(json.contains("\"trials\":17"), "{json}");
        assert!(json.contains("\"workers\":"), "{json}");
    }
}
