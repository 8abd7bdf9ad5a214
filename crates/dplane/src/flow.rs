//! The flow table: per-flow strategy state keyed by 4-tuple.
//!
//! ## The table contract
//!
//! For a fixed packet sequence the set of flows created, the set and
//! order of evictions, every flow's (program, seed) state, and
//! therefore the metrics are a pure function of the packets —
//! proptested in `tests/flow_props.rs`. Three mechanisms make it hold:
//!
//! * **Global LRU** — every touch stamps the entry with a monotonic
//!   tick. Capacity eviction removes the least-recent entry (ticks are
//!   unique, so the victim is unambiguous). The victim is found in
//!   amortized O(1): a lazy tick-ordered journal of touches whose front
//!   (after skipping stale records) is the least-recent live flow — no
//!   scan of the flow map, whose iteration order is never observable.
//! * **Exact idle expiry** — a packet arriving after the timeout finds
//!   its stale entry expired and re-classifies, regardless of when the
//!   periodic sweep last ran. The sweep only reclaims memory for flows
//!   that never return.
//! * **Pure re-classification** — a flow's state is a pure function of
//!   its key (the classifier consults a static geo table; the seed is
//!   derived from the key), so an evicted flow that returns rebuilds
//!   the exact state it lost.
//!
//! One table serves one thread: the [`crate::Dplane`] that owns it.

use crate::metrics::ShardMetrics;
use crate::program::Program;
use packet::FlowKey;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a for the flow map. The default SipHash costs more than the
/// rest of the steady-state lookup combined, and its random keying buys
/// nothing here: map iteration order is never observable (eviction
/// picks victims by tick, not by map order).
#[derive(Clone)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Sizing and expiry knobs for a [`FlowTable`].
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Maximum live flows (clamped to ≥ 1).
    pub capacity: usize,
    /// Idle expiry in simulated microseconds: a flow unseen for longer
    /// than this re-classifies on return.
    pub idle_timeout: u64,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            capacity: 65_536,
            idle_timeout: 120_000_000, // 120 s
        }
    }
}

/// Per-flow state: the compiled program (or `None` = pass-through) and
/// the corrupt seed, plus bookkeeping for LRU and idle expiry.
#[derive(Debug, Clone)]
struct FlowEntry {
    program: Option<Arc<Program>>,
    seed: u64,
    last_seen: u64,
    last_tick: u64,
}

/// What a lookup returned: the flow's strategy state.
#[derive(Debug, Clone)]
pub struct Touch {
    /// The flow's compiled program, if any.
    pub program: Option<Arc<Program>>,
    /// The flow's corrupt seed.
    pub seed: u64,
    /// Always 0: a table is one shard. Kept for the callers that pass
    /// it back to [`FlowTable::note_apply`]/[`FlowTable::note_pass`]
    /// (`ledger/src/replay.rs`).
    pub shard: usize,
    /// True when this packet created (or re-created) the flow.
    pub created: bool,
}

/// The flow table. See the module docs for the determinism contract.
pub struct FlowTable {
    flows: HashMap<FlowKey, FlowEntry, FnvBuild>,
    metrics: ShardMetrics,
    /// Lazy LRU journal: one `(tick, key)` record per touch, in tick
    /// order. A record is *current* iff the flow is live and its
    /// `last_tick` still equals the recorded tick; anything else is a
    /// stale leftover from an earlier touch, discarded when eviction
    /// reaches it. The front current record is the least-recently-used
    /// live flow.
    lru_log: VecDeque<(u64, FlowKey)>,
    cfg: FlowConfig,
    tick: u64,
    next_sweep: u64,
}

impl FlowTable {
    /// Build an empty table. Capacity is clamped to at least 1.
    pub fn new(cfg: FlowConfig) -> FlowTable {
        FlowTable {
            flows: HashMap::default(),
            metrics: ShardMetrics::default(),
            lru_log: VecDeque::new(),
            cfg: FlowConfig {
                capacity: cfg.capacity.max(1),
                idle_timeout: cfg.idle_timeout,
            },
            tick: 0,
            next_sweep: 0,
        }
    }

    /// Live flow count.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are live.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Look up (creating if needed) the flow for `key` at time `now`.
    /// `classify` runs only on creation and returns the flow's
    /// (program, seed) — it must be a pure function of the key for the
    /// table contract to hold.
    pub fn touch<F>(&mut self, key: FlowKey, now: u64, classify: F) -> Touch
    where
        F: FnOnce() -> (Option<Arc<Program>>, u64),
    {
        self.maybe_sweep(now);
        self.tick += 1;
        let tick = self.tick;

        // Steady-state fast path: a live, fresh entry costs exactly one
        // map lookup. A stale entry expires here (exact idle expiry for
        // this key, independent of sweep timing) and falls through to
        // the creation path.
        let timeout = self.cfg.idle_timeout;
        match self.flows.get_mut(&key) {
            Some(entry) if now.saturating_sub(entry.last_seen) <= timeout => {
                entry.last_seen = now;
                entry.last_tick = tick;
                let touch = Touch {
                    program: entry.program.clone(),
                    seed: entry.seed,
                    shard: 0,
                    created: false,
                };
                self.metrics.packets += 1;
                self.log_touch(tick, key);
                return touch;
            }
            Some(_) => {
                self.flows.remove(&key);
                self.metrics.evicted_idle += 1;
            }
            None => {}
        }

        if self.flows.len() >= self.cfg.capacity {
            self.evict_lru();
        }
        let (program, seed) = classify();
        let touch = Touch {
            program: program.clone(),
            seed,
            shard: 0,
            created: true,
        };
        self.flows.insert(
            key,
            FlowEntry {
                program,
                seed,
                last_seen: now,
                last_tick: tick,
            },
        );
        self.metrics.flows_created += 1;
        self.metrics.packets += 1;
        self.log_touch(tick, key);
        touch
    }

    /// Count one strategy application. `_shard` is ignored (a table is
    /// one shard); it stays for the callers that pass [`Touch::shard`]
    /// (`ledger/src/replay.rs`).
    pub fn note_apply(&mut self, _shard: usize, key: strata::CanonKey) {
        *self.metrics.applies.entry(key).or_insert(0) += 1;
    }

    /// Count one pass-through packet. `_shard` is ignored, as in
    /// [`FlowTable::note_apply`].
    pub fn note_pass(&mut self, _shard: usize) {
        self.metrics.pass_through += 1;
    }

    /// This table's counters.
    pub fn metrics(&self) -> ShardMetrics {
        self.metrics.clone()
    }

    /// Record a touch in the journal, compacting stale records once
    /// the journal outgrows the live-flow count by 2× (amortized O(1)
    /// per touch, zero steady-state allocation).
    fn log_touch(&mut self, tick: u64, key: FlowKey) {
        self.lru_log.push_back((tick, key));
        if self.lru_log.len() > self.flows.len() * 2 + 8 {
            let flows = &self.flows;
            self.lru_log
                .retain(|&(t, k)| flows.get(&k).is_some_and(|e| e.last_tick == t));
        }
    }

    /// Evict the least-recently-used flow: pop the journal front,
    /// discarding stale records, until a current one names the victim.
    /// Ticks are unique, so the eviction sequence does not depend on
    /// hash-map iteration order.
    fn evict_lru(&mut self) {
        while let Some((tick, key)) = self.lru_log.pop_front() {
            if self.flows.get(&key).is_some_and(|e| e.last_tick == tick) {
                self.flows.remove(&key);
                self.metrics.evicted_lru += 1;
                return;
            }
        }
    }

    /// Periodic reclaim of flows that went idle and never returned.
    /// Runs at most every `idle_timeout / 2` of simulated time; the set
    /// of removed flows is a pure function of packet timestamps.
    fn maybe_sweep(&mut self, now: u64) {
        if now < self.next_sweep {
            return;
        }
        let interval = (self.cfg.idle_timeout / 2).max(1);
        self.next_sweep = now.saturating_add(interval);
        let timeout = self.cfg.idle_timeout;
        let before = self.flows.len();
        self.flows
            .retain(|_, e| now.saturating_sub(e.last_seen) <= timeout);
        self.metrics.evicted_idle += (before - self.flows.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;

    fn key(n: u8) -> FlowKey {
        FlowKey {
            a: ([10, 0, 0, n], 1000),
            b: ([93, 184, 216, 34], 80),
        }
    }

    fn table(capacity: usize, idle: u64) -> FlowTable {
        FlowTable::new(FlowConfig {
            capacity,
            idle_timeout: idle,
        })
    }

    #[test]
    fn capacity_evicts_least_recent_globally() {
        let mut t = table(2, u64::MAX);
        t.touch(key(1), 0, || (None, 1));
        t.touch(key(2), 1, || (None, 2));
        t.touch(key(1), 2, || (None, 1)); // refresh 1: victim is now 2
        t.touch(key(3), 3, || (None, 3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.metrics().evicted_lru, 1);
        // Flow 2 was the victim: touching it again re-creates it.
        let touch = t.touch(key(2), 4, || (None, 2));
        assert!(touch.created);
    }

    #[test]
    fn idle_flows_expire_exactly() {
        let mut t = table(16, 100);
        t.touch(key(1), 0, || (None, 1));
        // 100 µs later: exactly at the timeout, still alive.
        assert!(!t.touch(key(1), 100, || (None, 1)).created);
        // 101 µs of silence: expired, re-created.
        let touch = t.touch(key(1), 201, || (None, 9));
        assert!(touch.created);
        assert_eq!(touch.seed, 9, "re-classified state");
        assert_eq!(t.metrics().evicted_idle, 1);
    }

    #[test]
    fn sweep_reclaims_flows_that_never_return() {
        let mut t = table(16, 100);
        t.touch(key(1), 0, || (None, 1));
        t.touch(key(2), 0, || (None, 2));
        // Much later, a third flow's packet triggers the sweep.
        t.touch(key(3), 10_000, || (None, 3));
        assert_eq!(t.len(), 1, "idle flows reclaimed");
    }

    #[test]
    fn churn_evictions_match_global_lru_model() {
        // A churn workload (more distinct flows than capacity, with
        // refreshes so victims aren't simply FIFO) checked against an
        // independent flat global-LRU reference model: the table must
        // evict exactly as often, and keep live exactly the flows the
        // model keeps.
        const CAPACITY: usize = 8;
        let workload: Vec<(u8, u64)> = (0..300u64)
            .map(|step| ((step * 7 % 41) as u8, step))
            .collect();

        let mut t = table(CAPACITY, u64::MAX);
        // Reference: a flat global LRU over (key, tick).
        let mut live: Vec<(FlowKey, u64)> = Vec::new();
        let mut expect_evicted = 0u64;
        let mut tick = 0u64;
        for &(n, now) in &workload {
            let k = key(n);
            tick += 1;
            if let Some(slot) = live.iter_mut().find(|(lk, _)| *lk == k) {
                slot.1 = tick;
            } else {
                if live.len() >= CAPACITY {
                    let oldest = live
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, lt))| *lt)
                        .map(|(i, _)| i)
                        .unwrap();
                    live.swap_remove(oldest);
                    expect_evicted += 1;
                }
                live.push((k, tick));
            }
            t.touch(k, now, || (None, u64::from(n)));
        }

        let evicted = t.metrics().evicted_lru;
        assert_eq!(evicted, expect_evicted);
        assert!(evicted > 0, "churn workload must actually evict");
        // Touching a live flow creates nothing, so these probes cannot
        // evict one another.
        for (k, _) in live {
            assert!(!t.touch(k, 300, || (None, 0)).created, "{k:?} evicted");
        }
    }

    #[test]
    fn classify_runs_once_per_flow() {
        let mut t = table(16, u64::MAX);
        let mut calls = 0;
        for now in 0..5 {
            t.touch(key(1), now, || {
                calls += 1;
                (None, 0)
            });
        }
        assert_eq!(calls, 1);
    }
}
