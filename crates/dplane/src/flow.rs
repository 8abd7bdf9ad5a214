//! The flow table: per-flow strategy state keyed by 4-tuple.
//!
//! ## The table contract
//!
//! For a fixed packet sequence the set of flows created, the set and
//! order of evictions, every flow's (program, seed) state, and
//! therefore the metrics are a pure function of the packets —
//! proptested in `tests/flow_props.rs`. Three mechanisms make it hold:
//!
//! * **Global LRU** — live flows occupy slots of one slab, linked into
//!   an intrusive doubly-linked list in touch order: every touch moves
//!   its slot to the tail, and capacity eviction removes the head, the
//!   least-recent live flow. Touches are totally ordered, so the victim
//!   is unambiguous and found in O(1), with no scan of the index,
//!   whose bucket order is never observable.
//! * **Exact idle expiry** — a packet arriving after the timeout finds
//!   its stale entry expired and re-classifies, regardless of when the
//!   periodic sweep last ran. The sweep only reclaims memory for flows
//!   that never return.
//! * **Pure re-classification** — a flow's state is a pure function of
//!   its key (the classifier consults a static geo table; the seed is
//!   derived from the key), so an evicted flow that returns rebuilds
//!   the exact state it lost.
//!
//! ## Memory
//!
//! Each key is stored once, in its slab slot. The index is an array of
//! bucket heads over a power-of-two length, at most half loaded: each
//! head is the first live slot whose key homes there, or [`NIL`], and
//! each live slot's `chain` link names the next slot of its bucket. A
//! lookup walks one chain comparing the keys in the slots; a removal
//! unlinks its slot from the head or from its predecessor and touches
//! no other entry. A flow's home bucket is the top bits of its FNV-1a
//! hash times an odd multiplier drawn once per process, so keys a peer
//! crafts to agree in the hash bits some table length would use still
//! spread; only keys whose whole 64-bit hashes collide share a chain.
//!
//! Each table is sized once, when traffic proves it: below `capacity /
//! 8` live flows the slab grows by pushing and the index doubles from
//! 16 buckets; the first time live flows reach `capacity / 8`, the
//! slab is reserved to exactly `capacity` slots and the index grows
//! straight to its final length, the smallest power of two ≥ 2 ×
//! `capacity`; a resize re-links every live slot by walking the LRU
//! list. A full table never resizes again and leaves no trail of
//! doubled-and-freed buffers behind it, and a table that never sees that
//! much traffic never pays for it. A live flow in a full default-size
//! table costs one 48-byte slot (its chain link sits in what would be
//! padding) plus two 4-byte buckets: 56 bytes. Freed slots are reused
//! before the slab grows, so steady traffic never enters the allocator.
//!
//! One table serves one thread: the [`crate::Dplane`] that owns it.

use crate::metrics::ShardMetrics;
use crate::program::Program;
use packet::FlowKey;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// FNV-1a over the canonical flow key's bytes: the input to per-flow
/// seeds and to the index's bucket placement. The default SipHash costs
/// more than the rest of the steady-state lookup combined. It is
/// unkeyed, so seeds are a pure function of the key; the index keys its
/// placement separately (see [`FlowTable::home`]).
pub(crate) fn key_hash(key: &FlowKey) -> u64 {
    let (a, b) = (key.a, key.b);
    let [a0, a1] = a.1.to_be_bytes();
    let [b0, b1] = b.1.to_be_bytes();
    let bytes = [
        a.0[0], a.0[1], a.0[2], a.0[3], a0, a1, b.0[0], b.0[1], b.0[2], b.0[3], b0, b1,
    ];
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The index's placement key: an odd multiplier drawn once per process
/// from the standard library's random hasher seed.
fn placement_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0u64) | 1)
}

/// The index's first length, before the table is sized once.
const MIN_BUCKETS: usize = 16;

/// [`FlowConfig::default`]'s capacity: the live flows one data thread
/// keeps.
pub const DEFAULT_CAPACITY: usize = 65_536;

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
            capacity: DEFAULT_CAPACITY,
            idle_timeout: 120_000_000, // 120 s
        }
    }
}

/// The end of a list: no slot.
const NIL: u32 = u32::MAX;

/// One slab slot. Live, it holds a flow's state — the compiled program
/// (or `None` = pass-through) and the corrupt seed — its LRU links and
/// its bucket's chain link; free, `next` chains the free list and
/// `program` is dropped.
struct Slot {
    key: FlowKey,
    program: Option<Arc<Program>>,
    seed: u64,
    last_seen: u64,
    /// Next-older live slot (toward the head), or [`NIL`].
    prev: u32,
    /// Next-newer live slot (toward the tail), or [`NIL`]; on a free
    /// slot, the next free slot.
    next: u32,
    /// Next live slot in the same index bucket, or [`NIL`].
    chain: u32,
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
    /// Live flows: each bucket's first slot (chained through
    /// [`Slot::chain`]), or [`NIL`]; empty or a power of two long, at
    /// most half loaded. See the module docs.
    index: Vec<u32>,
    /// Placement multiplier ([`placement_key`]).
    mul: u64,
    /// Live flow count.
    live: usize,
    /// The slab; grows to at most `capacity` slots.
    slots: Vec<Slot>,
    /// Free-list head (chained through [`Slot::next`]), or [`NIL`].
    free: u32,
    /// Least-recently-touched live slot, or [`NIL`].
    head: u32,
    /// Most-recently-touched live slot, or [`NIL`].
    tail: u32,
    metrics: ShardMetrics,
    cfg: FlowConfig,
    next_sweep: u64,
}

impl FlowTable {
    /// Build an empty table. Capacity is clamped to at least 1 (and to
    /// the `u32` slot index space). Nothing is allocated until the
    /// first flow arrives.
    pub fn new(cfg: FlowConfig) -> FlowTable {
        FlowTable {
            index: Vec::new(),
            mul: placement_key(),
            live: 0,
            slots: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            metrics: ShardMetrics::default(),
            cfg: FlowConfig {
                capacity: cfg.capacity.clamp(1, NIL as usize),
                idle_timeout: cfg.idle_timeout,
            },
            next_sweep: 0,
        }
    }

    /// Live flow count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no flows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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

        // Steady-state fast path: a live, fresh entry costs one index
        // lookup and a relink. A stale entry expires here (exact idle
        // expiry for this key, independent of sweep timing) and falls
        // through to the creation path.
        if let Some(i) = self.find(&key) {
            let slot = &mut self.slots[i as usize];
            if now.saturating_sub(slot.last_seen) <= self.cfg.idle_timeout {
                slot.last_seen = now;
                let touch = Touch {
                    program: slot.program.clone(),
                    seed: slot.seed,
                    shard: 0,
                    created: false,
                };
                if i != self.tail {
                    self.unlink(i);
                    self.link_tail(i);
                }
                self.metrics.packets += 1;
                return touch;
            }
            self.remove(i);
            self.metrics.evicted_idle += 1;
        }

        if self.live >= self.cfg.capacity {
            self.remove(self.head);
            self.metrics.evicted_lru += 1;
        }
        self.make_room();
        let (program, seed) = classify();
        let touch = Touch {
            program: program.clone(),
            seed,
            shard: 0,
            created: true,
        };
        let slot = Slot {
            key,
            program,
            seed,
            last_seen: now,
            prev: NIL,
            next: NIL,
            chain: NIL,
        };
        let i = if self.free == NIL {
            // No free slot means every slot is live, and fewer than
            // `capacity` (≤ NIL) flows are, so the index fits.
            let i = u32::try_from(self.slots.len()).expect("slab index below capacity");
            self.slots.push(slot);
            i
        } else {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            i
        };
        self.link_tail(i);
        self.insert(i);
        self.live += 1;
        self.metrics.flows_created += 1;
        self.metrics.packets += 1;
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

    /// Detach live slot `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Append slot `i` to the LRU list as the most recent.
    fn link_tail(&mut self, i: u32) {
        let tail = self.tail;
        let slot = &mut self.slots[i as usize];
        slot.prev = tail;
        slot.next = NIL;
        match tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Drop live slot `i`'s flow: unlink it, unindex it, release its
    /// program and push the slot onto the free list.
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        self.unindex(i);
        self.live -= 1;
        let slot = &mut self.slots[i as usize];
        slot.program = None;
        slot.next = self.free;
        self.free = i;
    }

    /// `key`'s home bucket in the (non-empty) index: the top bits of
    /// its keyed hash.
    fn home(&self, key: &FlowKey) -> usize {
        let bits = self.index.len().trailing_zeros();
        // The length is a power of two from 2 to 2^33, so the shift is
        // in range and the result, below the length, fits.
        #[allow(clippy::cast_possible_truncation)]
        let home = (key_hash(key).wrapping_mul(self.mul) >> (64 - bits)) as usize;
        home
    }

    /// The live slot holding `key`, if any.
    fn find(&self, key: &FlowKey) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        let mut i = self.index[self.home(key)];
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.key == *key {
                return Some(i);
            }
            i = slot.chain;
        }
        None
    }

    /// Grow the slab's reservation and the index, if needed, so one
    /// more live flow fits: sized once at `capacity / 8` live flows,
    /// doubling below that (see the module docs).
    fn make_room(&mut self) {
        let cap = self.cfg.capacity;
        let full = (2 * cap).next_power_of_two();
        if self.live + 1 >= cap / 8 {
            if self.slots.capacity() < cap {
                self.slots.reserve_exact(cap - self.slots.len());
            }
            if self.index.len() < full {
                self.rehash(full);
            }
        } else if 2 * (self.live + 1) > self.index.len() {
            self.rehash((2 * self.index.len()).max(MIN_BUCKETS));
        }
    }

    /// Rebuild the index at `len` buckets, re-linking every live slot
    /// by walking the LRU list.
    fn rehash(&mut self, len: usize) {
        self.index = vec![NIL; len];
        let mut i = self.head;
        while i != NIL {
            self.insert(i);
            i = self.slots[i as usize].next;
        }
    }

    /// Index live slot `i`, which is not indexed yet: push it onto its
    /// key's bucket chain.
    fn insert(&mut self, i: u32) {
        let b = self.home(&self.slots[i as usize].key);
        self.slots[i as usize].chain = self.index[b];
        self.index[b] = i;
    }

    /// Unindex live slot `i`: unlink it from its bucket's head or from
    /// its predecessor in the chain.
    fn unindex(&mut self, i: u32) {
        let b = self.home(&self.slots[i as usize].key);
        let after = self.slots[i as usize].chain;
        if self.index[b] == i {
            self.index[b] = after;
        } else {
            let mut p = self.index[b];
            while self.slots[p as usize].chain != i {
                p = self.slots[p as usize].chain;
            }
            self.slots[p as usize].chain = after;
        }
    }

    /// Periodic reclaim of flows that went idle and never returned.
    /// Runs at most every `idle_timeout / 2` of simulated time and
    /// checks every live flow — timestamps need not be monotonic, so
    /// list order says nothing about staleness. The set of removed
    /// flows is a pure function of packet timestamps.
    fn maybe_sweep(&mut self, now: u64) {
        if now < self.next_sweep {
            return;
        }
        let interval = (self.cfg.idle_timeout / 2).max(1);
        self.next_sweep = now.saturating_add(interval);
        let timeout = self.cfg.idle_timeout;
        let mut i = self.head;
        while i != NIL {
            let Slot {
                last_seen, next, ..
            } = self.slots[i as usize];
            if now.saturating_sub(last_seen) > timeout {
                self.remove(i);
                self.metrics.evicted_idle += 1;
            }
            i = next;
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use std::collections::HashMap;

    fn key(n: u8) -> FlowKey {
        FlowKey {
            a: ([10, 0, 0, n], 1000),
            b: ([93, 184, 216, 34], 80),
        }
    }

    /// Flow `n` of a larger population than [`key`]'s.
    fn wide_key(n: u32) -> FlowKey {
        FlowKey {
            a: (n.to_be_bytes(), 40_000),
            b: ([93, 184, 216, 34], 80),
        }
    }

    fn table(capacity: usize, idle: u64) -> FlowTable {
        FlowTable::new(FlowConfig {
            capacity,
            idle_timeout: idle,
        })
    }

    /// The table's live flows, least recent first, read by walking the
    /// LRU list (and checked against the index and the back links).
    fn lru_order(t: &FlowTable) -> Vec<FlowKey> {
        let mut order = Vec::new();
        let (mut prev, mut i) = (NIL, t.head);
        while i != NIL {
            let slot = &t.slots[i as usize];
            assert_eq!(slot.prev, prev, "back link of slot {i}");
            assert_eq!(t.find(&slot.key), Some(i), "index of slot {i}");
            order.push(slot.key);
            (prev, i) = (i, slot.next);
        }
        assert_eq!(t.tail, prev, "tail is the last slot");
        assert_eq!(order.len(), t.len(), "every indexed flow is listed");
        order
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

    /// An independent flat reference for the table contract: live
    /// flows as `(key, last touch order, last_seen)`, swept and evicted
    /// by linear scans, with the table's sweep schedule.
    #[derive(Default)]
    struct Model {
        live: Vec<(FlowKey, u64, u64)>,
        order: u64,
        next_sweep: u64,
        created: u64,
        evicted_lru: u64,
        evicted_idle: u64,
    }

    impl Model {
        fn touch(&mut self, k: FlowKey, now: u64, capacity: usize, timeout: u64) {
            let stale = |seen: u64| now.saturating_sub(seen) > timeout;
            if now >= self.next_sweep {
                self.next_sweep = now.saturating_add((timeout / 2).max(1));
                let before = self.live.len();
                self.live.retain(|&(_, _, seen)| !stale(seen));
                self.evicted_idle += (before - self.live.len()) as u64;
            }
            self.order += 1;
            if let Some(pos) = self.live.iter().position(|(lk, ..)| *lk == k) {
                if !stale(self.live[pos].2) {
                    self.live[pos] = (k, self.order, now);
                    return;
                }
                self.live.swap_remove(pos);
                self.evicted_idle += 1;
            }
            if self.live.len() >= capacity {
                let oldest = (0..self.live.len())
                    .min_by_key(|&i| self.live[i].1)
                    .unwrap();
                self.live.swap_remove(oldest);
                self.evicted_lru += 1;
            }
            self.live.push((k, self.order, now));
            self.created += 1;
        }

        /// Live keys, least recent first.
        fn lru_order(&self) -> Vec<FlowKey> {
            let mut live = self.live.clone();
            live.sort_by_key(|&(_, order, _)| order);
            live.into_iter().map(|(k, ..)| k).collect()
        }
    }

    /// Drive the table and the model through `workload` (flow number,
    /// timestamp) and require identical counters and an identical LRU
    /// order after every packet.
    fn check_against_model(capacity: usize, timeout: u64, workload: &[(u8, u64)]) -> Model {
        let mut t = table(capacity, timeout);
        let mut model = Model::default();
        for (step, &(n, now)) in workload.iter().enumerate() {
            let k = key(n);
            model.touch(k, now, capacity, timeout);
            t.touch(k, now, || (None, u64::from(n)));
            let m = t.metrics();
            assert_eq!(
                (m.flows_created, m.evicted_lru, m.evicted_idle),
                (model.created, model.evicted_lru, model.evicted_idle),
                "counters after step {step}"
            );
            assert_eq!(
                lru_order(&t),
                model.lru_order(),
                "live set after step {step}"
            );
        }
        model
    }

    #[test]
    fn churn_evictions_match_global_lru_model() {
        // A churn workload (more distinct flows than capacity, with
        // refreshes so victims aren't simply FIFO) checked against the
        // flat global-LRU reference model: the table must evict exactly
        // as often, and keep live exactly the flows the model keeps, in
        // the same recency order.
        let workload: Vec<(u8, u64)> = (0..300u64)
            .map(|step| ((step * 7 % 41) as u8, step))
            .collect();
        let model = check_against_model(8, u64::MAX, &workload);
        assert!(model.evicted_lru > 0, "churn workload must actually evict");
    }

    #[test]
    fn idle_gaps_and_sweeps_match_global_lru_model() {
        // The same model with a 100 µs timeout: time advances by gaps
        // on both sides of the timeout (and sometimes steps backward,
        // as a `VecIo` run's timestamps may), so flows expire on touch,
        // expire in sweeps, and get evicted for capacity, interleaved.
        const TIMEOUT: u64 = 100;
        let pauses = [49u64, 50, 51, 99, 100, 101, 150];
        let mut now = 1_000u64;
        let workload: Vec<(u8, u64)> = (0..3_000u64)
            .map(|step| {
                now = match step % 41 {
                    40 => now + pauses[(step / 41 % 7) as usize],
                    20 if step % 3 == 0 => now.saturating_sub(120),
                    _ => now + step % 3,
                };
                (((step * step + step / 3) % 13) as u8, now)
            })
            .collect();
        let model = check_against_model(8, TIMEOUT, &workload);
        assert!(model.evicted_lru > 0, "workload must evict for capacity");
        assert!(model.evicted_idle > 0, "workload must expire idle flows");
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut t = table(4, u64::MAX);
        for n in 0..40 {
            t.touch(key(n), u64::from(n), || (None, 0));
        }
        assert_eq!(t.slots.len(), 4, "the slab never outgrows capacity");
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

    #[test]
    fn slot_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 48);
    }

    /// Each bucket's chain length, checking that every chained slot
    /// homes to its bucket.
    fn chain_lengths(t: &FlowTable) -> Vec<usize> {
        let chains = t.index.iter().enumerate().map(|(b, &head)| {
            let (mut len, mut i) = (0, head);
            while i != NIL {
                let slot = &t.slots[i as usize];
                assert_eq!(t.home(&slot.key), b, "slot {i} chained in bucket {b}");
                (len, i) = (len + 1, slot.chain);
            }
            len
        });
        chains.collect()
    }

    #[test]
    fn index_matches_a_hashmap_model() {
        // Random touches over small tables, whose short indexes make
        // flows share chains, so removals unlink from the middle and
        // the end of a chain as well as from its head. After every
        // step, every key of the population — live or dead — must look
        // up exactly as a HashMap of the reference model's live flows
        // says.
        let mut rng = 0x5eed_u64;
        let (mut shared, mut evicted_lru, mut evicted_idle) = (0, 0, 0);
        for capacity in 1..=64usize {
            let timeout = 40;
            let population = u8::try_from(2 * capacity + 3).unwrap();
            let mut t = table(capacity, timeout);
            let mut model = Model::default();
            let mut now = 0u64;
            for step in 0..300 {
                rng = netsim::splitmix64(rng);
                let n = u8::try_from(rng % u64::from(population)).unwrap();
                now += (rng >> 32) % 9; // idle gaps on both sides of 40
                model.touch(key(n), now, capacity, timeout);
                t.touch(key(n), now, || (None, u64::from(n)));

                let live: HashMap<FlowKey, u64> = model
                    .live
                    .iter()
                    .map(|&(k, ..)| (k, u64::from(k.a.0[3])))
                    .collect();
                assert_eq!(t.len(), live.len(), "cap {capacity} step {step}");
                for m in 0..population {
                    let got = t.find(&key(m)).map(|i| {
                        let slot = &t.slots[i as usize];
                        assert_eq!(slot.key, key(m), "cap {capacity} step {step}");
                        slot.seed
                    });
                    assert_eq!(
                        got,
                        live.get(&key(m)).copied(),
                        "cap {capacity} step {step} key {m}"
                    );
                }
                let chains = chain_lengths(&t);
                let chained: usize = chains.iter().sum();
                assert_eq!(chained, t.len(), "every live flow chained once");
                assert!(2 * t.len() <= t.index.len(), "load ≤ ½");
                shared += chains.iter().filter(|&&len| len >= 2).count();
            }
            evicted_lru += t.metrics().evicted_lru;
            evicted_idle += t.metrics().evicted_idle;
        }
        assert!(shared > 0, "some chains must hold two or more flows");
        assert!(
            evicted_lru > 0 && evicted_idle > 0,
            "both removals must run"
        );
    }

    #[test]
    fn tables_are_sized_once_when_traffic_proves_it() {
        let capacity = 1024;
        let mut t = table(capacity, u64::MAX);
        assert_eq!(
            (t.slots.capacity(), t.index.capacity()),
            (0, 0),
            "new allocates nothing"
        );
        let mut n = 0;
        while t.len() < capacity / 8 {
            assert!(t.slots.capacity() < capacity, "slab reserved early at {n}");
            assert!(
                t.index.len() <= 2 * capacity / 8,
                "index grown early at {n}"
            );
            t.touch(wide_key(n), 0, || (None, 0));
            n += 1;
        }
        assert_eq!(t.slots.capacity(), capacity);
        assert_eq!(t.index.len(), 2 * capacity);
        let sized = (t.slots.as_ptr(), t.index.as_ptr(), t.index.len());
        for m in n..n + u32::try_from(3 * capacity).unwrap() {
            t.touch(wide_key(m), u64::from(m), || (None, 0));
            assert_eq!(
                (t.slots.as_ptr(), t.index.as_ptr(), t.index.len()),
                sized,
                "at {m}"
            );
        }
        assert_eq!((t.len(), t.slots.capacity()), (capacity, capacity));
    }

    #[test]
    fn keyed_placement_spreads_crafted_collisions() {
        // A peer that knows FNV-1a picks keys whose hashes agree in the
        // low bits the index uses at 300 flows, 1,024 buckets (~300k
        // hash evaluations). Placed by those bits they would form one
        // chain; keyed placement must keep every chain short.
        const KEYS: usize = 300;
        let mask = 1023;
        let target = key_hash(&wide_key(0)) & mask;
        let crafted: Vec<FlowKey> = (0..)
            .map(wide_key)
            .filter(|k| key_hash(k) & mask == target)
            .take(KEYS)
            .collect();
        let mut t = table(4096, u64::MAX);
        for (now, &k) in (0..).zip(&crafted) {
            t.touch(k, now, || (None, 0));
        }
        assert_eq!((t.len(), t.index.len()), (KEYS, 1024));
        let longest = chain_lengths(&t).into_iter().max().unwrap();
        assert!(
            longest < 8,
            "longest chain {longest} over {KEYS} crafted keys"
        );
    }
}
