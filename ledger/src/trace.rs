//! The traced run: an in-process `svc::Bridge` + `svc::Core` driven by
//! a mirror of svc's private data loop, with spans around every call
//! into the layers.
//!
//! Spans are per loop iteration (one *batch*): `bridge.poll`,
//! `core.pump`, `core.publish`, `svc.stats`, `bridge.wait`. Inside
//! `core.pump`, a timing [`PacketIo`] wrapper records `io.recv` and
//! `io.emit` as per-batch aggregates (count and total ns) and `io.flush`
//! as a span. `Core::pump` publishes right after the plane's flush, so
//! the publish span runs from the end of `io.flush` to the end of
//! `core.pump`. Everything stays in memory and is written as JSONL when
//! the run ends.

use crate::gen::Clock;
use crate::server::{pin_self, thread_runnable_ns};
use dplane::PacketIo;
use packet::Packet;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, SocketAddrV4};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use svc::{BackendChoice, Bridge, BridgeConfig, Core, CoreConfig, SvcShared};

/// Records kept for the JSONL file; totals keep counting past it.
const MAX_RECORDS: usize = 500_000;

/// `parent`'s duration minus the part of it its child spans cover
/// (children may overlap; only the union counts) and minus the total of
/// its aggregated children, which never overlap anything.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)], aggregated_ns: u64) -> u64 {
    let mut spans: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in spans {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.1 - parent.0).saturating_sub(covered + aggregated_ns)
}

/// One span (`count == 0`) or per-batch aggregate of per-frame calls.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub id: u64,
    pub name: &'static str,
    pub batch: u64,
    pub parent: Option<u64>,
    pub start: u64,
    pub end: u64,
    pub count: u64,
    pub total: u64,
}

/// Per-name totals over the traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sum {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
pub struct TraceLog {
    pub records: Vec<Rec>,
    pub dropped: u64,
    pub sums: BTreeMap<&'static str, Sum>,
    /// Frames pumped while traced.
    pub frames: u64,
    /// How long the loop thread was runnable (on a CPU or waiting for
    /// one) while traced.
    pub runnable_ns: u64,
    next_id: u64,
    batch: Vec<Rec>,
}

impl TraceLog {
    fn span(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        batch: u64,
        start: u64,
        end: u64,
    ) -> u64 {
        self.push(Rec {
            id: 0,
            name,
            batch,
            parent,
            start,
            end,
            count: 0,
            total: end.saturating_sub(start),
        })
    }

    fn agg(&mut self, name: &'static str, parent: u64, batch: u64, (count, total): (u64, u64)) {
        self.push(Rec {
            id: 0,
            name,
            batch,
            parent: Some(parent),
            start: 0,
            end: 0,
            count,
            total,
        });
    }

    fn push(&mut self, mut rec: Rec) -> u64 {
        self.next_id += 1;
        rec.id = self.next_id;
        self.batch.push(rec);
        rec.id
    }

    /// Close the current batch: compute self-times, fold into the
    /// totals, keep the records.
    fn close_batch(&mut self) {
        let batch = std::mem::take(&mut self.batch);
        for r in &batch {
            let kids = batch.iter().filter(|c| c.parent == Some(r.id));
            let spans: Vec<(u64, u64)> = kids
                .clone()
                .filter(|c| c.count == 0)
                .map(|c| (c.start, c.end))
                .collect();
            let aggregated: u64 = kids.filter(|c| c.count > 0).map(|c| c.total).sum();
            let own = if r.count == 0 {
                self_time((r.start, r.end), &spans, aggregated)
            } else {
                r.total
            };
            let sum = self.sums.entry(r.name).or_default();
            sum.calls += r.count.max(1);
            sum.total_ns += r.total;
            sum.self_ns += own;
        }
        if self.records.len() + batch.len() <= MAX_RECORDS {
            self.records.extend_from_slice(&batch);
        } else {
            self.dropped += batch.len() as u64;
        }
        self.batch = batch;
        self.batch.clear();
    }

    pub fn sum(&self, name: &str) -> Sum {
        self.sums.get(name).copied().unwrap_or_default()
    }

    /// Sum of every record's self-time, except the blocking waits.
    pub fn covered_ns(&self) -> u64 {
        self.sums
            .iter()
            .filter(|(&name, _)| name != "bridge.wait")
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"kind\":\"meta\",\"records\":{},\"dropped\":{}}}",
            self.records.len(),
            self.dropped
        )?;
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            if r.count == 0 {
                writeln!(
                    out,
                    "{{\"kind\":\"span\",\"id\":{},\"name\":\"{}\",\"batch\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    r.id, r.name, r.batch, r.start, r.end
                )?;
            } else {
                writeln!(
                    out,
                    "{{\"kind\":\"agg\",\"id\":{},\"name\":\"{}\",\"batch\":{},\"parent\":{parent},\"count\":{},\"total_ns\":{}}}",
                    r.id, r.name, r.batch, r.count, r.total
                )?;
            }
        }
        out.flush()
    }
}

/// Times the plane's calls into the bridge.
struct TimedIo<'a> {
    io: &'a mut Bridge,
    clock: Clock,
    recv: (u64, u64),
    emit: (u64, u64),
    flush: Option<(u64, u64)>,
}

impl PacketIo for TimedIo<'_> {
    fn recv(&mut self) -> Option<(u64, Packet)> {
        let t0 = self.clock.ns();
        let pkt = self.io.recv();
        self.recv.0 += 1;
        self.recv.1 += self.clock.ns() - t0;
        pkt
    }
    fn emit(&mut self, now: u64, pkt: Packet) {
        let t0 = self.clock.ns();
        self.io.emit(now, pkt);
        self.emit.0 += 1;
        self.emit.1 += self.clock.ns() - t0;
    }
    fn flush(&mut self) {
        let t0 = self.clock.ns();
        self.io.flush();
        self.flush = Some((t0, self.clock.ns()));
    }
}

struct Ctl {
    stop: AtomicBool,
    traced: AtomicBool,
}

/// An in-process service core on its own thread.
pub struct Mirror {
    pub udp: SocketAddrV4,
    pub shared: Arc<SvcShared>,
    ctl: Arc<Ctl>,
    handle: JoinHandle<io::Result<TraceLog>>,
}

impl Mirror {
    /// Start the loop on its own thread, pinned to `cpus` when given
    /// (the CPU `cay-data` gets in the real run).
    pub fn start(
        cfg: CoreConfig,
        upstream: SocketAddr,
        clock: Clock,
        cpus: Option<String>,
    ) -> io::Result<Mirror> {
        let mut bridge = Bridge::bind(&BridgeConfig {
            udp: "127.0.0.1:0".parse().expect("literal address"),
            tcp: None,
            upstream,
            backend: BackendChoice::Epoll,
        })?;
        let SocketAddr::V4(udp) = bridge.udp_addr()? else {
            return Err(io::Error::other("bridge bound a non-IPv4 address"));
        };
        let core = Core::new(cfg);
        let shared = core.shared.clone();
        bridge.attach_waker(shared.data_waker.clone())?;
        let ctl = Arc::new(Ctl {
            stop: AtomicBool::new(false),
            traced: AtomicBool::new(false),
        });
        let loop_ctl = ctl.clone();
        let handle = std::thread::Builder::new()
            .name("ledger-core".into())
            .spawn(move || {
                if let Some(cpus) = cpus {
                    pin_self(&cpus)?;
                }
                Ok(data_loop(core, bridge, &loop_ctl, clock))
            })?;
        Ok(Mirror {
            udp,
            shared,
            ctl,
            handle,
        })
    }

    /// Record spans from the next loop iteration on (or stop).
    pub fn set_traced(&self, on: bool) {
        self.ctl.traced.store(on, Ordering::Relaxed);
    }

    pub fn stop(self) -> io::Result<TraceLog> {
        self.ctl.stop.store(true, Ordering::Relaxed);
        self.shared.data_waker.wake();
        self.handle.join().expect("mirror loop panicked")
    }
}

/// A mirror of svc's private `data_loop` (crates/svc/src/lib.rs), step
/// for step: poll the sockets, pump the plane, publish the bridge
/// counters after work or every 250 ms, and wait when idle. Keep it in
/// step with the original. Spans are recorded while traced.
fn data_loop(mut core: Core, mut bridge: Bridge, ctl: &Ctl, clock: Clock) -> TraceLog {
    let shared = core.shared.clone();
    let mut log = TraceLog::default();
    let mut last_publish = Instant::now();
    let mut batch = 0u64;
    // Loop-thread runnable time is summed over the traced stretches.
    let mut cpu_mark = None;
    loop {
        let traced = ctl.traced.load(Ordering::Relaxed);
        match (traced, cpu_mark) {
            (true, None) => cpu_mark = Some(thread_runnable_ns()),
            (false, Some(mark)) => {
                log.runnable_ns += thread_runnable_ns() - mark;
                cpu_mark = None;
            }
            _ => {}
        }
        let n;
        if traced {
            batch += 1;
            let t0 = clock.ns();
            bridge.poll();
            log.span("bridge.poll", None, batch, t0, clock.ns());
            let mut io = TimedIo {
                io: &mut bridge,
                clock,
                recv: (0, 0),
                emit: (0, 0),
                flush: None,
            };
            let t0 = clock.ns();
            n = core.pump(&mut io);
            let t1 = clock.ns();
            let pump = log.span("core.pump", None, batch, t0, t1);
            let (recv, emit, flush) = (io.recv, io.emit, io.flush);
            log.agg("io.recv", pump, batch, recv);
            log.agg("io.emit", pump, batch, emit);
            if let Some((fs, fe)) = flush {
                log.span("io.flush", Some(pump), batch, fs, fe);
                if n > 0 {
                    log.span("core.publish", Some(pump), batch, fe, t1);
                }
            }
            log.frames += n;
        } else {
            bridge.poll();
            n = core.pump(&mut bridge);
        }
        if n > 0 || last_publish.elapsed() > Duration::from_millis(250) {
            if n == 0 {
                let t0 = clock.ns();
                core.publish();
                if traced {
                    log.span("core.publish", None, batch, t0, clock.ns());
                }
            }
            let t0 = clock.ns();
            *shared.bridge_stats.lock().expect("stats lock poisoned") = bridge.stats;
            last_publish = Instant::now();
            if traced {
                log.span("svc.stats", None, batch, t0, clock.ns());
            }
        }
        if ctl.stop.load(Ordering::Relaxed) {
            if traced {
                log.close_batch();
            }
            break;
        }
        if n == 0 {
            let t0 = clock.ns();
            bridge.wait(250);
            if traced {
                log.span("bridge.wait", None, batch, t0, clock.ns());
            }
        }
        if traced {
            log.close_batch();
        }
    }
    if let Some(mark) = cpu_mark {
        log.runnable_ns += thread_runnable_ns() - mark;
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_union_of_children() {
        // Children [10,30] and [20,50] overlap: together they cover 40.
        // [60,70] adds 10, and [95,120] counts only up to the parent's end.
        let children = [(10, 30), (20, 50), (60, 70), (95, 120)];
        assert_eq!(self_time((0, 100), &children, 0), 100 - 40 - 10 - 5);
        // Aggregated per-frame children subtract their total.
        assert_eq!(self_time((0, 100), &[(10, 30)], 15), 65);
        assert_eq!(self_time((0, 100), &[], 0), 100);
        // A child wholly outside the parent covers nothing.
        assert_eq!(self_time((0, 100), &[(200, 300)], 0), 100);
    }
}
