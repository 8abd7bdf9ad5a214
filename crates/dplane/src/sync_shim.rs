//! Cfg-gated sync facade: `std::sync` in production, `weave::sync`
//! under the `weave` feature so model tests can explore every
//! interleaving of the program cache's lookups and installs.
//!
//! Production builds never see weave — the aliases below *are*
//! `std::sync` types (zero cost, identical codegen). With
//! `--features weave` the same source compiles against the
//! model-checker shims, which fall through to std outside a
//! `weave::explore` run.
//!
//! The `*_unpoisoned` helpers replace `.expect("program cache
//! poisoned")` cascades: a thread that panics while holding the lock
//! would otherwise take the thread sharing the cache down with a
//! secondary `PoisonError` panic, burying the original backtrace.
//! Recovering the guard is sound for the cache — every critical section
//! leaves the map structurally valid (no partial states are published
//! across an unwind), so the real panic surfaces alone.

#[cfg(feature = "weave")]
pub(crate) use weave::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "weave")]
pub(crate) use weave::sync::atomic;

#[cfg(not(feature = "weave"))]
pub(crate) use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "weave"))]
pub(crate) use std::sync::atomic;

use std::sync::PoisonError;

/// Take a read lock, recovering from poison.
pub(crate) fn read_unpoisoned<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take the write lock, recovering from poison.
pub(crate) fn write_unpoisoned<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
