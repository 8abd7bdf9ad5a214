//! Property tests for the trial pool: outputs are bit-identical to the
//! serial map for *any* worker count and batch size — the determinism
//! contract `map_indexed`/`map_indexed_scratch` promise.
//!
//! The order in which workers claim chunks is not controllable from
//! here (it depends on OS scheduling), so each case runs the same batch
//! several times: every run exercises a different interleaving and
//! every run must reproduce the serial output exactly.

#![allow(clippy::unwrap_used)] // test code

use harness::Pool;
use proptest::prelude::*;

/// A cheap but index-sensitive task: any lost, duplicated, or reordered
/// index changes the output vector.
fn task(i: usize) -> u64 {
    let mut x = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cursor handout never changes the result: over these
    /// (n, workers) ranges the chunk rule yields every chunk size from
    /// 1 (small batches) to the 64 cap, and every one reproduces the
    /// serial map.
    #[test]
    fn map_indexed_bit_identical_under_adversarial_chunking(
        n in 0usize..1200,
        workers in 1usize..12,
    ) {
        let serial: Vec<u64> = (0..n).map(task).collect();
        let pool = Pool::with_jobs(workers);
        for _ in 0..3 {
            let parallel = pool.map_indexed(n, task);
            prop_assert_eq!(&parallel, &serial);
        }
    }

    /// Per-worker scratch arenas never leak state between tasks when
    /// used as buffers: a scratch Vec reused across every task a worker
    /// runs still yields the serial output for any topology.
    #[test]
    fn map_indexed_scratch_bit_identical(
        n in 0usize..1200,
        workers in 1usize..10,
    ) {
        let serial: Vec<u64> = (0..n).map(task).collect();
        let pool = Pool::with_jobs(workers);
        let parallel = pool.map_indexed_scratch(
            n,
            Vec::<u64>::new,
            |buf, i| {
                // Scratch holds capacity, not state: overwrite, use,
                // leave contents behind for the next task to overwrite.
                buf.clear();
                buf.extend((0..(i % 7)).map(|k| k as u64));
                task(i).wrapping_add(buf.iter().sum::<u64>())
                    .wrapping_sub((0..(i % 7) as u64).sum::<u64>())
            },
        );
        prop_assert_eq!(&parallel, &serial);
    }
}

/// The scratch factory runs once per worker, not once per task — the
/// whole point of the arena (satellite 2: allocs must not scale with n).
#[test]
fn scratch_factory_runs_once_per_worker() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let made = AtomicUsize::new(0);
    let pool = Pool::with_jobs(4);
    let out = pool.map_indexed_scratch(
        1000,
        || {
            made.fetch_add(1, Ordering::Relaxed);
        },
        |(), i| i,
    );
    assert_eq!(out, (0..1000).collect::<Vec<_>>());
    let factories = made.load(Ordering::Relaxed);
    assert!(
        (1..=4).contains(&factories),
        "scratch built {factories} times for 4 workers"
    );
}

/// A stalled task does not hold up the batch: while index 0 blocks, the
/// other worker keeps claiming chunks and finishes every other index.
/// With 12 tasks over 2 workers (12 < 2·8) every chunk is one index, so
/// a handout that pinned each worker to a fixed half would leave
/// indices 1..6 stuck behind index 0 and hit the deadline.
#[test]
fn a_stalled_task_does_not_gate_the_batch() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};
    const N: usize = 12;
    let done = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(20);
    let out = Pool::with_jobs(2).map_indexed(N, |i| {
        if i == 0 {
            while done.load(Ordering::Acquire) < N - 1 {
                assert!(
                    Instant::now() < deadline,
                    "index 0 stalled the batch: only {} of {} other indices ran",
                    done.load(Ordering::Acquire),
                    N - 1
                );
                std::thread::yield_now();
            }
        } else {
            done.fetch_add(1, Ordering::Release);
        }
        i
    });
    assert_eq!(out, (0..N).collect::<Vec<_>>());
}
