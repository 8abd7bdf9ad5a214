//! Component replay: the trace's frames through each layer's public
//! functions, then through `Dplane::pump` whole.
//!
//! The stages are timed *in context*: one pass makes exactly the calls
//! `Dplane::pump` makes, in its order — `RolloutTable::pick` and
//! `ProgramCache::get_or_verify` inside the flow-creation closure,
//! `FlowTable::touch` plus the apply/pass note, then the program (or
//! the pass-through clone) with its emissions handed back to the
//! `VecIo` — with a clock read at each stage boundary. A read costs
//! more inside the loop than alone (it stops the CPU overlapping the
//! work around it), so the pass also runs without the reads; the
//! difference, per read, is taken off every interval.
//! Timing the stages as separate loops instead under-counts the pump by
//! 10–15%: split loops overlap better than the fused one. `Packet::parse` and
//! `serialize_raw_into` are outside the pump (they run in the bridge)
//! and are timed as plain loops.

use crate::gen::Clock;
use crate::oracle::{frame_hash, Oracle};
use crate::stats::median;
use crate::workload::{Trace, SERVER};
use dplane::{
    Dplane, DplaneConfig, FlowConfig, FlowTable, PacketIo, Program, ProgramCache, SeedMode, VecIo,
};
use geneva::Strategy;
use harness::deploy::RolloutTable;
use packet::{FlowKey, Packet};
use std::hint::black_box;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Per-call costs, in ns unless named otherwise.
#[derive(Debug, Default)]
pub struct Replay {
    pub frames: usize,
    pub parse_ns: f64,
    pub serialize_ns: f64,
    pub pick_ns: f64,
    /// `get_or_verify` when the program is cached (it still
    /// canonicalizes the strategy).
    pub lookup_ns: f64,
    pub compile_us: f64,
    /// Per frame: the program or pass-through clone, handing the
    /// emissions on, and taking the next frame.
    pub apply_ns: f64,
    pub emissions_per_frame: f64,
    /// `touch` on a live flow, plus the per-packet apply/pass note.
    pub touch_hit_ns: f64,
    /// `touch` creating a flow (evicting when full), without the pick
    /// and lookup it calls.
    pub touch_create_ns: f64,
    pub pump_ns_per_frame: f64,
    /// (pick + lookup + touch + apply) ÷ pump.
    pub accounting_ratio: f64,
}

/// Mirror of dplane's private per-flow seed derivation (`flow_seed` in
/// crates/dplane/src/lib.rs). The replay's emissions are checked
/// against the oracle, so a drift here fails the replay.
fn flow_seed(base: u64, key: &FlowKey) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&key.a.0);
    eat(&key.a.1.to_be_bytes());
    eat(&key.b.0);
    eat(&key.b.1.to_be_bytes());
    let mut z = (base ^ hash).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SEED_BASE: u64 = 0x0D1A;

fn client_of(pkt: &Packet) -> [u8; 4] {
    if pkt.ip.src == SERVER {
        pkt.ip.dst
    } else {
        pkt.ip.src
    }
}

fn ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Raw interval sums (ns) and interval counts of one in-context pass.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    pick: f64,
    picks: u64,
    lookup: f64,
    lookup_hit: f64,
    lookup_hits: u64,
    touch_hit: f64,
    touch_hits: u64,
    /// Two intervals per creation: before and after pick + lookup.
    touch_create: f64,
    touch_creates: u64,
    apply: f64,
    /// Wall time of the whole pass.
    elapsed: f64,
}

impl Stages {
    /// Clock reads taken (one per interval; the intervals tile the pass):
    /// touch and apply for a hit; touch, pick, lookup, touch and apply
    /// for a creation.
    fn reads(&self) -> f64 {
        (2 * self.touch_hits + 5 * self.touch_creates) as f64
    }
}

/// The frames as a [`VecIo`] stamped with their index, with room for
/// every emission.
fn vec_io(pkts: &[Packet], emitted: usize) -> VecIo {
    let mut io = VecIo::new(pkts.iter().enumerate().map(|(i, p)| (i as u64, p.clone())));
    io.output.reserve(emitted);
    io
}

/// One pass doing what `Dplane::pump` does, with a clock read at every
/// stage boundary when `timed` (untimed, only the whole pass is timed:
/// that is how the cost of the reads in this loop is measured).
fn in_context<F>(pkts: &[Packet], classify: &F, emitted: usize, timed: bool) -> (Stages, VecIo)
where
    F: Fn(&Packet) -> Option<Arc<Strategy>>,
{
    let clock = Clock::new();
    let stamp = || if timed { clock.ns() } else { 0 };
    let cache = ProgramCache::new();
    let mut flows = FlowTable::new(FlowConfig::default());
    let mut io = vec_io(pkts, emitted);
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let mut st = Stages::default();
    let gap = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let mut next = io.recv();
    let start = clock.ns();
    let mut s0 = stamp();
    while let Some((now, p)) = next {
        out.clear();
        let key = p.flow_key();
        // (before pick, after pick, after lookup, a cached program hit)
        let mut created = None;
        let touch = flows.touch(key, now, || {
            let ta = stamp();
            let strategy = classify(&p);
            let tb = stamp();
            let misses = cache.misses();
            let program = strategy.as_ref().and_then(|s| cache.get_or_verify(s).ok());
            let tc = stamp();
            let hit = strategy.is_some() && cache.misses() == misses;
            created = Some((ta, tb, tc, hit));
            (program, flow_seed(SEED_BASE, &key))
        });
        // Shaped like `Dplane::process`: one match, the program moved.
        let s1;
        match touch.program {
            Some(program) => {
                flows.note_apply(touch.shard, program.key);
                s1 = stamp();
                if p.ip.src == SERVER {
                    program.apply_outbound(&p, touch.seed, &mut out, &mut scratch);
                } else {
                    program.apply_inbound(&p, touch.seed, &mut out, &mut scratch);
                }
            }
            None => {
                flows.note_pass(touch.shard);
                s1 = stamp();
                out.push(p.clone());
            }
        }
        for e in out.drain(..) {
            io.emit(now, e);
        }
        drop(p);
        next = io.recv();
        if !timed {
            continue;
        }
        let s2 = stamp();
        match created {
            None => {
                st.touch_hit += gap(s0, s1);
                st.touch_hits += 1;
            }
            Some((ta, tb, tc, hit)) => {
                st.touch_create += gap(s0, ta) + gap(tc, s1);
                st.touch_creates += 1;
                st.pick += gap(ta, tb);
                st.picks += 1;
                let lookup = gap(tb, tc);
                st.lookup += lookup;
                if hit {
                    st.lookup_hit += lookup;
                    st.lookup_hits += 1;
                }
            }
        }
        st.apply += gap(s1, s2);
        s0 = s2;
    }
    st.elapsed = gap(start, clock.ns());
    (st, io)
}

/// Frames a replay covers at least (short cycles repeat), so a pass
/// lasts long enough that one interruption does not skew it.
const MIN_FRAMES: usize = 1 << 18;

/// The fastest of several timings: a shared host only ever adds time.
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Replay `trace` (warm-up then one cycle) `reps` times; per-call costs
/// and the accounting ratio are medians, the pump the fastest pass.
pub fn run(
    trace: &Trace,
    table: &RolloutTable,
    oracle: &Oracle,
    reps: usize,
) -> Result<Replay, String> {
    // Trace indices in replay order: the warm-up, then the cycle as
    // often as it takes to reach MIN_FRAMES.
    let cycle = trace.cycle();
    let rounds = MIN_FRAMES
        .saturating_sub(cycle.start)
        .div_ceil(cycle.len())
        .max(1);
    let order: Vec<usize> = (0..cycle.start)
        .chain((0..rounds).flat_map(|_| cycle.clone()))
        .collect();
    let n = order.len();
    let pkts: Vec<Packet> = order
        .iter()
        .map(|&i| Packet::parse(trace.frame(i)).expect("generated frames parse"))
        .collect();
    let rollout = RwLock::new(Arc::new(table.clone()));
    // What svc's RolloutClassifier does for a flow's first packet.
    let classify =
        |pkt: &Packet| -> Option<Arc<Strategy>> { rollout.read().ok()?.pick(client_of(pkt)) };
    // Emissions are known exactly; every VecIo gets room for them up
    // front so none pays for growth.
    let emitted: usize = order
        .iter()
        .map(|&i| usize::from(oracle.expect(i)[0]))
        .sum();
    let cfg = DplaneConfig {
        seed: SeedMode::PerFlow(SEED_BASE),
        ..DplaneConfig::default()
    };
    let pump_pass = || {
        let mut dp = Dplane::new(cfg, |p: &Packet| classify(p));
        let mut io = vec_io(&pkts, emitted);
        let t0 = Instant::now();
        dp.pump(&mut io, SERVER);
        ns(t0)
    };
    let (mut parse, mut ser, mut pump, mut compile) = (vec![], vec![], vec![], vec![]);
    let (mut passes, mut reads, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let t0 = Instant::now();
        for &i in &order {
            black_box(Packet::parse(black_box(trace.frame(i))).ok());
        }
        parse.push(ns(t0) / n as f64);

        // The untimed pass and the pump back to back, in turns, so a
        // slow stretch of the host hits both alike.
        let (untimed, pumped) = if rep % 2 == 0 {
            let (untimed, _) = in_context(&pkts, &classify, emitted, false);
            (untimed, pump_pass())
        } else {
            let pumped = pump_pass();
            (in_context(&pkts, &classify, emitted, false).0, pumped)
        };
        let (stages, io) = in_context(&pkts, &classify, emitted, true);
        if rep == 0 {
            check_against_oracle(&io.output, &order, oracle)?;
        }
        // What one read costs inside this loop, lost overlap included.
        // Taken off every interval, it leaves the untimed pass's time,
        // so the stages' total over the pump is untimed over pump.
        reads.push((stages.elapsed - untimed.elapsed) / stages.reads());
        ratios.push(untimed.elapsed / pumped);
        passes.push(stages);
        pump.push(pumped);
        let mut buf = Vec::with_capacity(2048);
        let t0 = Instant::now();
        for (_, e) in &io.output {
            buf.clear();
            e.serialize_raw_into(&mut buf);
            black_box(&buf);
        }
        ser.push(ns(t0) / io.output.len().max(1) as f64);
        drop(io);

        let arms: Vec<_> = table.rules().iter().flat_map(|r| &r.arms).collect();
        let t0 = Instant::now();
        for arm in &arms {
            black_box(Program::compile(&arm.strategy).ok());
        }
        compile.push(ns(t0) / 1e3 / arms.len().max(1) as f64);
    }
    let read = median(&reads).max(0.0);
    // Each stage's intervals, less one read each, per call.
    let per = |f: fn(&Stages) -> (f64, u64, u64)| {
        let each: Vec<f64> = passes
            .iter()
            .map(|s| {
                let (total, intervals, calls) = f(s);
                (total - intervals as f64 * read) / calls.max(1) as f64
            })
            .collect();
        median(&each)
    };
    Ok(Replay {
        frames: n,
        parse_ns: median(&parse),
        serialize_ns: median(&ser),
        pick_ns: per(|s| (s.pick, s.picks, s.picks)),
        lookup_ns: per(|s| (s.lookup_hit, s.lookup_hits, s.lookup_hits)),
        compile_us: median(&compile),
        apply_ns: per(|s| {
            let frames = s.touch_hits + s.touch_creates;
            (s.apply, frames, frames)
        }),
        emissions_per_frame: emitted as f64 / n as f64,
        touch_hit_ns: per(|s| (s.touch_hit, s.touch_hits, s.touch_hits)),
        touch_create_ns: per(|s| (s.touch_create, 2 * s.touch_creates, s.touch_creates)),
        pump_ns_per_frame: fastest(&pump) / n as f64,
        accounting_ratio: median(&ratios),
    })
}

/// Every emission of the replay is the oracle's, for the right frame —
/// which also pins the seed mirror above. Emissions are stamped with
/// their frame's position in `order`.
fn check_against_oracle(
    out: &[(u64, Packet)],
    order: &[usize],
    oracle: &Oracle,
) -> Result<(), String> {
    let mut buf = Vec::new();
    for (at, pkt) in out {
        let frame = order[*at as usize];
        buf.clear();
        pkt.serialize_raw_into(&mut buf);
        match oracle.lookup(frame_hash(&buf)) {
            Some(slot) if slot.frame as usize == frame => {}
            _ => {
                return Err(format!(
                    "replayed emission of frame {frame} disagrees with the oracle"
                ))
            }
        }
    }
    Ok(())
}
