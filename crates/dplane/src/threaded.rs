//! Run-to-completion threaded data plane: worker threads fed by
//! batched packet handoff over bounded SPSC rings.
//!
//! ## Topology
//!
//! ```text
//!            ┌────────────── worker 0: Dplane ──┐
//! dispatcher ┼─ ring ──────► worker 1: Dplane   ├─► ordered merge
//!            └────────────── worker k: Dplane ──┘
//! ```
//!
//! The dispatcher (the calling thread) pulls packets from the
//! [`PacketIo`] source, routes each by an FNV-1a hash of its flow key
//! modulo the worker count, and hands them to workers in `Vec`-batches
//! over bounded SPSC rings ([`crate::ring`]). Placement is known only
//! here. Each worker owns a complete [`Dplane`] — flow table, scratch
//! buffers, classifier — and runs every packet **to completion**
//! (classify → compile-or-hit → rewrite → stage emissions) with no
//! further cross-thread handoff; flow state is partitioned, never
//! shared, so the packet path takes no locks. The only shared state is the [`ProgramCache`] (read-
//! mostly: flow creation takes a read lock, and the write lock is held
//! only while compiling a strategy the cache has never seen, so each
//! canonical strategy compiles exactly once process-wide) and the
//! batch-buffer free list (locked once per ~`batch` packets).
//!
//! ## Determinism contract
//!
//! Emitted packets are **bit-identical to the single-threaded
//! [`Dplane::pump`]** in content *and order*: every input carries its
//! global input index, a flow's packets all land on one worker (which
//! processes them in input order), and the final merge stably sorts
//! staged emissions by input index — so the interleaving of worker
//! execution is unobservable. Per-flow corrupt seeds and
//! classification are pure functions of the flow key, so *where* a
//! flow runs never changes *what* it computes.
//!
//! Aggregate metrics match the single-threaded plane whenever the
//! capacity LRU does not fire (each worker's table holds
//! `capacity/workers` flows, so eviction *timing* can differ near
//! capacity even though packet outputs stay identical thanks to pure
//! re-classification): the report carries one shard entry per worker,
//! and its totals equal the single-threaded plane's — asserted by the
//! threaded equivalence tests.

use crate::ring::{channel, Sender};
use crate::{
    key_hash, Classifier, Dplane, DplaneConfig, FlowConfig, MetricsReport, PacketIo, ProgramCache,
    ShardMetrics,
};
use packet::{FlowKey, Packet};
use std::sync::{Arc, Mutex};

/// One staged input packet: (global input index, receive time, packet).
type Staged = (u64, u64, Packet);
/// A batch of staged packets — the unit of ring handoff.
type Batch = Vec<Staged>;

/// Threaded-plane knobs.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedConfig {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Packets per handoff batch: amortizes the ring's mutex/condvar
    /// cost across a whole batch.
    pub batch: usize,
    /// Ring capacity in *batches* per worker: bounds in-flight memory
    /// and applies backpressure to the dispatcher.
    pub ring_slots: usize,
}

impl Default for ThreadedConfig {
    fn default() -> ThreadedConfig {
        ThreadedConfig {
            workers: 8,
            batch: 64,
            ring_slots: 16,
        }
    }
}

/// Drain a [`PacketIo`] source through `workers` run-to-completion
/// threads. Packets whose IPv4 source is `server_addr` take the
/// outbound ruleset; everything else is inbound — the same split as
/// [`Dplane::pump`], with bit-identical output (see module docs).
///
/// `make_classifier` builds one classifier per worker (workers own
/// their classifier; classification must be a pure function of the
/// first packet's flow identity, same contract as [`Classifier`]).
/// Returns the processed-packet count and the combined metrics report
/// (one shard entry per worker, program-cache totals from the shared
/// cache).
pub fn pump_threaded<I, C, F>(
    io: &mut I,
    server_addr: [u8; 4],
    cfg: DplaneConfig,
    tcfg: ThreadedConfig,
    mut make_classifier: F,
) -> (u64, MetricsReport)
where
    I: PacketIo,
    C: Classifier,
    F: FnMut(usize) -> C,
{
    let workers = tcfg.workers.max(1);
    let batch_size = tcfg.batch.max(1);
    let cache = Arc::new(ProgramCache::new());

    // Each worker's table holds its slice of the global capacity: the
    // worker *is* the shard.
    let worker_cfg = DplaneConfig {
        flow: FlowConfig {
            capacity: cfg.flow.capacity.div_ceil(workers).max(1),
            idle_timeout: cfg.flow.idle_timeout,
        },
        ..cfg
    };
    let planes: Vec<Dplane<C>> = (0..workers)
        .map(|w| Dplane::with_cache(worker_cfg, make_classifier(w), Arc::clone(&cache)))
        .collect();

    // Recycled batch buffers: workers return drained Vecs here, the
    // dispatcher reuses them — steady state allocates nothing per
    // batch, let alone per packet.
    let free: Mutex<Vec<Batch>> = Mutex::new(Vec::new());

    let mut processed = 0u64;
    let mut worker_out: Vec<(Vec<Staged>, ShardMetrics, usize)> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut senders: Vec<Sender<Batch>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for mut dp in planes {
            let (tx, rx) = channel::<Batch>(tcfg.ring_slots);
            senders.push(tx);
            let free = &free;
            handles.push(scope.spawn(move || {
                let mut staged: Vec<Staged> = Vec::new();
                let mut out: Vec<Packet> = Vec::new();
                while let Some(mut batch) = rx.recv() {
                    for (idx, now, pkt) in batch.drain(..) {
                        out.clear();
                        if pkt.ip.src == server_addr {
                            dp.process_outbound(&pkt, now, &mut out);
                        } else {
                            dp.process_inbound(&pkt, now, &mut out);
                        }
                        for emitted in out.drain(..) {
                            staged.push((idx, now, emitted));
                        }
                    }
                    free.lock().expect("free list poisoned").push(batch);
                }
                (staged, dp.flow_metrics(), dp.flows_live())
            }));
        }

        // Dispatch: route by flow, batching per worker.
        let take_buf = || {
            free.lock()
                .expect("free list poisoned")
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(batch_size))
        };
        let mut building: Vec<Batch> = (0..workers).map(|_| take_buf()).collect();
        let mut idx = 0u64;
        'dispatch: while let Some((now, pkt)) = io.recv() {
            let w = worker_of(&pkt.flow_key(), workers);
            building[w].push((idx, now, pkt));
            idx += 1;
            processed += 1;
            if building[w].len() >= batch_size {
                let full = std::mem::replace(&mut building[w], take_buf());
                if senders[w].send(full).is_err() {
                    break 'dispatch; // worker died; join() will re-panic
                }
            }
        }
        for (w, partial) in building.into_iter().enumerate() {
            if !partial.is_empty() {
                let _ = senders[w].send(partial);
            }
        }
        drop(senders); // close every ring: workers drain and exit

        for handle in handles {
            worker_out.push(handle.join().expect("dplane worker panicked"));
        }
    });

    // Index-ordered merge: concatenate per-worker emissions and stably
    // sort by input index. Each input's emissions live on exactly one
    // worker, already in emission order, so the merged stream is the
    // single-threaded emission order exactly.
    let mut shards = Vec::with_capacity(workers);
    let mut flows_live = 0;
    let mut merged: Vec<Staged> = Vec::new();
    for (staged, metrics, live) in worker_out {
        merged.extend(staged);
        shards.push(metrics);
        flows_live += live;
    }
    merged.sort_by_key(|&(idx, _, _)| idx);
    for (_, now, pkt) in merged {
        io.emit(now, pkt);
    }
    io.flush();

    let report = MetricsReport {
        shards,
        flows_live,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        verify_rejects: cache.verify_rejects(),
        strategies: cache.strategies(),
        ..MetricsReport::default()
    };
    (processed, report)
}

/// The worker that owns `key`'s flow: FNV-1a of the canonical key
/// modulo the worker count, so both directions of a flow land on one
/// worker. (With one worker there is nothing to place — skip the hash.)
fn worker_of(key: &FlowKey, workers: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    usize::try_from(key_hash(key) % workers as u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use crate::{FixedClassifier, VecIo};
    use packet::TcpFlags;
    use std::sync::Arc as StdArc;

    const SERVER: [u8; 4] = [93, 184, 216, 34];

    fn workload(flows: u8, rounds: u16) -> Vec<(u64, Packet)> {
        let mut packets = Vec::new();
        let mut t = 0u64;
        for round in 0..rounds {
            for client in 1..=flows {
                let addr = [10, 7, u8::from(round % 2 == 1), client];
                let mut syn_ack = Packet::tcp(
                    SERVER,
                    80,
                    addr,
                    40000,
                    TcpFlags::SYN_ACK,
                    9000 + u32::from(round),
                    1001,
                    vec![],
                );
                syn_ack.finalize();
                packets.push((t, syn_ack));
                t += 100;
                let mut data = Packet::tcp(
                    SERVER,
                    80,
                    addr,
                    40000,
                    TcpFlags::PSH_ACK,
                    9100 + u32::from(round),
                    1001,
                    b"HTTP/1.1 200 OK\r\n\r\nsecret".to_vec(),
                );
                data.finalize();
                packets.push((t, data));
                t += 100;
            }
        }
        packets
    }

    #[test]
    fn threaded_output_is_bit_identical_to_single_threaded() {
        let strategy = StdArc::new(geneva::library::STRATEGY_1.strategy());
        let packets = workload(24, 6);

        let mut single_io = VecIo::new(packets.clone());
        let mut dp = Dplane::new(
            DplaneConfig::default(),
            FixedClassifier(Some(StdArc::clone(&strategy))),
        );
        let single_n = dp.pump(&mut single_io, SERVER);

        for (workers, batch) in [(1usize, 64usize), (4, 7), (4, 1), (8, 64)] {
            let mut io = VecIo::new(packets.clone());
            let (n, _report) = pump_threaded(
                &mut io,
                SERVER,
                DplaneConfig::default(),
                ThreadedConfig {
                    workers,
                    batch,
                    ring_slots: 2,
                },
                |_| FixedClassifier(Some(StdArc::clone(&strategy))),
            );
            assert_eq!(n, single_n, "workers={workers}");
            assert_eq!(
                io.output.len(),
                single_io.output.len(),
                "workers={workers} batch={batch}"
            );
            for (i, ((tw, pw), (ts, ps))) in io.output.iter().zip(&single_io.output).enumerate() {
                assert_eq!(tw, ts, "workers={workers} emission {i}: time");
                assert_eq!(
                    pw.serialize_raw(),
                    ps.serialize_raw(),
                    "workers={workers} batch={batch} emission {i}: bytes"
                );
            }
        }
    }

    #[test]
    fn worker_metrics_match_single_threaded_shards() {
        let strategy = StdArc::new(geneva::library::STRATEGY_1.strategy());
        let packets = workload(16, 4);
        let workers = 4;

        let mut single_io = VecIo::new(packets.clone());
        let mut dp = Dplane::new(
            DplaneConfig::default(),
            FixedClassifier(Some(StdArc::clone(&strategy))),
        );
        dp.pump(&mut single_io, SERVER);
        let single = dp.metrics();

        let mut io = VecIo::new(packets);
        let (_, threaded) = pump_threaded(
            &mut io,
            SERVER,
            DplaneConfig::default(),
            ThreadedConfig {
                workers,
                batch: 16,
                ring_slots: 4,
            },
            |_| FixedClassifier(Some(StdArc::clone(&strategy))),
        );

        // One shard entry per worker, folding to the single table's
        // totals; the cache compiled each strategy exactly once despite
        // four workers racing to create flows.
        assert_eq!(threaded.shards.len(), workers);
        assert_eq!(threaded.totals(), single.totals());
        assert_eq!(threaded.flows_live, single.flows_live);
        assert_eq!(threaded.cache_misses, single.cache_misses);
        assert_eq!(threaded.cache_hits, single.cache_hits);
        assert_eq!(threaded.verify_rejects, single.verify_rejects);
        assert_eq!(threaded.strategies, single.strategies);
    }
}
