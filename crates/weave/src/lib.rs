//! # weave — deterministic concurrency model checking
//!
//! A std-only, dependency-free model checker in the spirit of
//! [loom](https://github.com/tokio-rs/loom): compile concurrent code
//! against the [`sync`]/[`thread`] shims, wrap a test body in
//! [`explore`] (or [`check`]), and weave runs it under **every**
//! schedule — depth-first over scheduling decisions, pruned by
//! sleep-set partial-order reduction and an optional preemption bound
//! — rather than the handful a stress test happens to sample.
//!
//! Detected failure classes:
//! * **deadlocks** — all unfinished threads blocked, which is also
//!   what a *lost condvar wakeup* looks like (a `notify_one` that no
//!   longer fires leaves its waiter parked forever);
//! * **missed notifies** — `notify` with no waiter is modeled as a
//!   no-op, exactly like the real primitive, so wait/notify races are
//!   explored faithfully; timed waits model their timeout firing, and
//!   [`Config::spurious`] adds spurious wakeups for untimed waits;
//! * **invariant violations** — any panic in model code (a failed
//!   `assert!` and friends).
//!
//! Every counterexample carries a **schedule token** (`w:1.0.2…`, the
//! decision trail) that [`replay`] re-runs deterministically — a bug
//! found once is a bug you can single-step forever.
//!
//! ```
//! let report = weave::check(weave::Config::default(), || {
//!     let m = weave::sync::Arc::new(weave::sync::Mutex::new(0u32));
//!     let m2 = weave::sync::Arc::clone(&m);
//!     let t = weave::thread::spawn(move || {
//!         *m2.lock().unwrap() += 1;
//!     });
//!     *m.lock().unwrap() += 1;
//!     t.join().unwrap();
//!     assert_eq!(*m.lock().unwrap(), 2);
//! });
//! assert!(report.exhausted);
//! ```
//!
//! Outside an [`explore`] execution the shims fall through to plain
//! `std::sync`, so a crate can compile its production types against a
//! cfg-gated facade (see the `sync_shim` module in `harness`) and pay
//! zero cost — in production builds the facade *is* `std::sync`, and
//! weave never appears in the binary.

mod sched;
pub mod sync;
pub mod thread;

pub use sched::{check, explore, replay, Config, Failure, FailureKind, Report};
