//! One benchmark run: the untraced end-to-end run (`--trace 0`) or the
//! traced per-layer run (`--trace 1`).
//!
//! A run measures one server in one-second rounds: 0.4 s of saturation,
//! 0.6 s at the fixed rate, then — on every workload but `ops`, whose
//! control schedule runs throughout — a control-plane burst on the idle
//! server. The host the ledger was built on is shared and its CPUs slow
//! down for seconds to minutes at a time, so each part is scaled by the
//! host's slowness around it ([`crate::speed`]), and each end-to-end
//! metric is the best quartile of the scaled values over the rounds
//! (see [`crate::stats::best_quartile`]).

use crate::check::{Checker, Counts};
use crate::control::{self, ControlTimes};
use crate::gen::{Clock, Gen};
use crate::oracle::{core_config, Oracle};
use crate::replay;
use crate::server::{pin_self, Cpu, Pins, Server, Status};
use crate::speed::Probe;
use crate::stats::{best_quartile, median, metric, percentile, ratio, tail_percentile, Metric};
use crate::trace::Mirror;
use crate::workload::{Tables, Trace, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Each round's saturation and fixed-rate parts, seconds.
const SAT_SECS: f64 = 0.4;
const FIXED_SECS: f64 = 0.6;

/// A fault `selftest` injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Re-key one emission of the first cycle frame in the oracle.
    CorruptOracle,
    /// Withhold the 100th frame of the first fixed-rate part.
    DropFrame,
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub cay: PathBuf,
    pub work: PathBuf,
    pub setups: usize,
    pub fault: Option<Fault>,
}

impl Opts {
    pub fn new(workload: Workload, seed: u64, seconds: f64, cay: PathBuf, work: PathBuf) -> Opts {
        Opts {
            workload,
            seed,
            seconds,
            cay,
            work,
            setups: SETUPS,
            fault: None,
        }
    }

    /// Rounds in a run of `share` × `--seconds`.
    fn rounds(&self, share: f64) -> usize {
        (share * self.seconds).round().max(1.0) as usize
    }
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Frames lost (not delivered within 500 ms of due).
    pub failed: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// Control-plane answers that were wrong.
    pub control_errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context printed with the result (not part of the result line).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.control_errors.is_empty()
    }
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Everything a run needs before it starts a server.
struct Setup {
    trace: Trace,
    tables: Tables,
    checker: Checker,
    gen: Gen,
    geo_path: PathBuf,
    rollout_path: PathBuf,
    pins: Option<Pins>,
    probe: Probe,
}

fn prepare(o: &Opts) -> Res<Setup> {
    let pins = Pins::from_allowed();
    if let Some(p) = &pins {
        pin_self(&p.generator).map_err(err("pin the generator"))?;
    }
    let trace = Trace::generate(o.workload, o.seed);
    let tables = Tables::new();
    std::fs::create_dir_all(&o.work).map_err(err("work dir"))?;
    let geo_path = o.work.join("geo.txt");
    let rollout_path = o.work.join("rollout.txt");
    std::fs::write(&geo_path, &tables.geo_text).map_err(err("geo file"))?;
    std::fs::write(&rollout_path, &tables.a_text).map_err(err("rollout file"))?;
    // `ops` reloads between two tables; a frame may follow either.
    let mut accepted = vec![&tables.a];
    if o.workload == Workload::Ops {
        accepted.push(&tables.b);
    }
    let mut oracle = Oracle::build(&trace, &tables.geo, &accepted)?;
    if o.fault == Some(Fault::CorruptOracle) && !oracle.corrupt(trace.setup) {
        return Err("first cycle frame has no emission to corrupt".into());
    }
    let checker = Checker::new(oracle, trace.len());
    let gen = Gen::new(Clock::new()).map_err(err("generator sockets"))?;
    let probe = Probe::new(pins.as_ref()).map_err(err("probe sockets"))?;
    Ok(Setup {
        trace,
        tables,
        checker,
        gen,
        geo_path,
        rollout_path,
        pins,
        probe,
    })
}

impl Setup {
    /// Spawn `cay serve`, wait for `/ready`, and warm it up; returns the
    /// server and the seconds all of that took (pinning its threads
    /// excluded).
    fn start_server(&mut self, o: &Opts) -> Res<(Server, f64)> {
        let t0 = Instant::now();
        let upstream = self.gen.origin_addr().map_err(err("origin socket"))?;
        let server = Server::spawn(&o.cay, &self.geo_path, &self.rollout_path, upstream)
            .map_err(err("spawn cay serve"))?;
        let pinning = Instant::now();
        if let Some(p) = &self.pins {
            server.pin_threads(p).map_err(err("pin cay serve"))?;
        }
        let pinning = pinning.elapsed();
        server.wait_ready().map_err(err("ready"))?;
        self.gen
            .warmup(
                &self.trace,
                &mut self.checker,
                server.udp,
                o.workload.window(),
            )
            .map_err(err("warm-up"))?;
        Ok((server, (t0.elapsed() - pinning).as_secs_f64()))
    }
}

/// Server counters at one moment.
#[derive(Clone, Copy)]
struct Snap {
    at: Instant,
    status: Status,
    cpu: Cpu,
}

impl Snap {
    fn take(server: &Server) -> Res<Snap> {
        Ok(Snap {
            at: Instant::now(),
            status: server.status().map_err(err("/status"))?,
            cpu: server.cpu().map_err(err("/proc"))?,
        })
    }

    fn wall_ns(&self, earlier: &Snap) -> f64 {
        self.at.duration_since(earlier.at).as_nanos() as f64
    }
}

/// One round on the real server.
struct Round {
    sat_pps: f64,
    /// Share of the saturation part the generator was not blocked.
    gen_busy: f64,
    /// Share of the saturation part `cay-data` ran.
    data_busy: f64,
    /// Fixed-rate latencies, ns, sorted.
    latencies: Vec<u32>,
    /// `cay serve` CPU time (all threads) per fixed-rate frame, ns.
    cpu_per_frame: f64,
    /// Counter growth and CPU time over the fixed-rate part (with its
    /// drain), and how long that took.
    status: Status,
    cpu: Cpu,
    wall_ns: f64,
    /// Datagrams the generator put on / took off the wire meanwhile.
    wire: (u64, u64),
    /// Host slowness ([`Probe::slowness`]) over each part: the mean of
    /// the probes before and after it.
    sat_slowness: f64,
    fixed_slowness: f64,
}

/// A run's rounds and totals.
struct Rounds {
    rounds: Vec<Round>,
    /// Frames sent and lost, all parts.
    counts: Counts,
    fixed_sent: u64,
    fixed_lost: u64,
    /// How late the generator sent each fixed-rate frame, ns.
    lag_ns: Vec<u32>,
    control: ControlTimes,
}

/// `n` rounds on `server`; `ops` runs its control schedule throughout.
fn run_rounds(s: &mut Setup, o: &Opts, server: &Server, n: usize) -> Res<Rounds> {
    let w = o.workload;
    let stop = AtomicBool::new(false);
    let Setup {
        trace,
        tables,
        checker,
        gen,
        pins,
        probe,
        ..
    } = s;
    let (stop, tables) = (&stop, &*tables);
    let any = pins.as_ref().map(|p| p.any.clone());
    std::thread::scope(|scope| {
        let ops = (w == Workload::Ops).then(|| {
            scope.spawn(move || -> Res<ControlTimes> {
                // Off the generator's CPU, which it would inherit.
                if let Some(cpus) = &any {
                    pin_self(cpus).map_err(err("pin the control client"))?;
                }
                Ok(control::schedule(server.control, tables, stop))
            })
        });
        let result = (|| -> Res<Rounds> {
            let mut burst =
                (w != Workload::Ops).then(|| control::Driver::new(server.control, tables, false));
            let mut out = Rounds {
                rounds: Vec::with_capacity(n),
                counts: Counts::default(),
                fixed_sent: 0,
                fixed_lost: 0,
                lag_ns: Vec::new(),
                control: ControlTimes::default(),
            };
            for r in 0..n {
                let h0 = probe.slowness().map_err(err("probe"))?;
                let a = Snap::take(server)?;
                let sat = gen
                    .saturate(trace, checker, server.udp, w.window(), SAT_SECS)
                    .map_err(err("saturation"))?;
                let sat_counts = gen.drain(checker);
                let b = Snap::take(server)?;
                let h1 = probe.slowness().map_err(err("probe"))?;
                let wire = (gen.wire_sent, gen.wire_received);
                checker.latencies = Some(Vec::with_capacity(
                    (FIXED_SECS * w.rate_pps() as f64) as usize,
                ));
                let drop = (o.fault == Some(Fault::DropFrame) && r == 0).then_some(100);
                let mut fixed = gen
                    .fixed_rate(trace, checker, server.udp, w.rate_pps(), FIXED_SECS, drop)
                    .map_err(err("fixed rate"))?;
                let fixed_counts = gen.drain(checker);
                let c = Snap::take(server)?;
                let h2 = probe.slowness().map_err(err("probe"))?;
                if let Some(d) = &mut burst {
                    d.burst();
                }
                let mut latencies = checker.latencies.take().unwrap_or_default();
                latencies.sort_unstable();
                let cpu_ns = (c.cpu.total_ns - b.cpu.total_ns) as f64;
                out.rounds.push(Round {
                    sat_pps: sat.delivered as f64 / sat.secs,
                    gen_busy: sat.busy_frac,
                    data_busy: ratio((b.cpu.data_ns - a.cpu.data_ns) as f64, b.wall_ns(&a)),
                    latencies,
                    cpu_per_frame: ratio(cpu_ns, fixed_counts.sent as f64),
                    status: c.status.since(&b.status),
                    cpu: Cpu {
                        total_ns: c.cpu.total_ns - b.cpu.total_ns,
                        data_ns: c.cpu.data_ns - b.cpu.data_ns,
                        control_ns: c.cpu.control_ns - b.cpu.control_ns,
                    },
                    wall_ns: c.wall_ns(&b),
                    wire: (gen.wire_sent - wire.0, gen.wire_received - wire.1),
                    sat_slowness: (h0 + h1) / 2.0,
                    fixed_slowness: (h1 + h2) / 2.0,
                });
                for counts in [sat_counts, fixed_counts] {
                    out.counts.sent += counts.sent;
                    out.counts.lost += counts.lost;
                }
                out.fixed_sent += fixed_counts.sent;
                out.fixed_lost += fixed_counts.lost;
                out.lag_ns.append(&mut fixed.lag_ns);
            }
            if let Some(d) = burst {
                out.control = d.out;
            }
            Ok(out)
        })();
        stop.store(true, Ordering::Relaxed);
        let times = ops
            .map(|h| h.join().expect("control thread panicked"))
            .transpose()?;
        result.map(|mut rounds| {
            if let Some(times) = times {
                rounds.control = times;
            }
            rounds
        })
    })
}

impl Rounds {
    /// Best quartile over rounds of a per-round value.
    fn best(&self, higher_is_better: bool, f: impl Fn(&Round) -> f64) -> f64 {
        best_quartile(
            &self.rounds.iter().map(f).collect::<Vec<_>>(),
            higher_is_better,
        )
    }

    /// Best quartile over rounds of a fixed-rate latency percentile, us,
    /// each round's multiplied by `scale` of it.
    fn latency(&self, pct: f64, scale: impl Fn(&Round) -> f64) -> f64 {
        let per: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.latencies.len() >= 100)
            .map(|r| us(percentile(&r.latencies, pct)) * scale(r))
            .collect();
        best_quartile(&per, false)
    }

    fn loss_frac(&self) -> f64 {
        ratio(self.fixed_lost as f64, self.fixed_sent as f64)
    }

    fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// Flags `sat_pps` as generator-bound when the generator was busy for
    /// more than 90% of the saturation parts.
    fn generator_note(&self) -> String {
        let gen_busy = self.median_of(|r| r.gen_busy);
        let data_busy = self.median_of(|r| r.data_busy);
        let verdict = if gen_busy > 0.9 {
            "WARNING sat_pps is generator-bound"
        } else {
            "sat_pps measures the server"
        };
        format!("{verdict}: in saturation the generator was busy {gen_busy:.3}, cay-data {data_busy:.3}")
    }
}

/// `--trace 0`: every end-to-end metric, from the real `cay serve`.
pub fn end_to_end(o: &Opts) -> Res<Outcome> {
    let mut s = prepare(o)?;
    // Each set-up as measured and scaled to the reference host speed.
    let (mut setup_raw, mut setup_s) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..o.setups.max(1) {
        // Only the last server is measured; the others are killed.
        drop(server.take());
        let before = s.probe.slowness().map_err(err("probe"))?;
        let (srv, secs) = s.start_server(o)?;
        let after = s.probe.slowness().map_err(err("probe"))?;
        setup_raw.push(secs);
        setup_s.push(secs * 2.0 / (before + after));
        server = Some(srv);
    }
    let server = server.expect("at least one set-up");
    let m = run_rounds(&mut s, o, &server, o.rounds(1.0))?;
    let peak_kib = server.vm_hwm_kib().map_err(err("VmHWM"))?;
    server.shutdown().map_err(err("shutdown"))?;

    let mut out = Outcome {
        attempted: m.counts.sent,
        failed: m.counts.lost,
        mismatches: s.checker.mismatches,
        first_mismatch: s.checker.first_mismatch.take(),
        control_errors: m.control.errors.clone(),
        ..Outcome::default()
    };
    // Scaled to the reference host speed: a slow host's frames/s up,
    // its times down.
    out.metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "sat_pps",
            m.best(true, |r| r.sat_pps * r.sat_slowness),
            "frames/s",
        ),
        metric("p50_us", m.latency(50.0, |r| 1.0 / r.fixed_slowness), "us"),
        metric(
            "cpu_ns_per_frame",
            m.best(false, |r| r.cpu_per_frame / r.fixed_slowness),
            "ns",
        ),
        metric("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB"),
    ];
    let mut all: Vec<u32> = m
        .rounds
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    all.sort_unstable();
    let tail = tail_percentile(all.len()).unwrap_or(50.0);
    let per_round = |f: fn(&Round) -> String| m.rounds.iter().map(f).collect::<Vec<_>>().join(" ");
    out.notes = vec![
        format!(
            "all rounds pooled: p50 {:.2} us, p99 {:.2} us, p{tail} {:.1} us over {} samples",
            us(percentile(&all, 50.0)),
            us(percentile(&all, 99.0)),
            us(percentile(&all, tail)),
            all.len()
        ),
        // Too unsteady on a shared host to bound (see README).
        format!(
            "p90_us {:.3} (scaled, best quartile of rounds)",
            m.latency(90.0, |r| 1.0 / r.fixed_slowness)
        ),
        format!(
            "loss_frac at {} frames/s: {}",
            o.workload.rate_pps(),
            m.loss_frac()
        ),
        format!(
            "as measured, unscaled: setup_s {:.4}, sat_pps {:.0}, p50_us {:.3}, \
             cpu_ns_per_frame {:.0}",
            median(&setup_raw),
            m.best(true, |r| r.sat_pps),
            m.latency(50.0, |_| 1.0),
            m.best(false, |r| r.cpu_per_frame)
        ),
        format!(
            "host slowness per round (saturation/fixed rate): {}",
            per_round(|r| format!("{:.2}/{:.2}", r.sat_slowness, r.fixed_slowness))
        ),
        format!(
            "sat_pps per round, unscaled: {}",
            per_round(|r| format!("{:.0}", r.sat_pps))
        ),
        format!("set-ups (s), unscaled: {setup_raw:?}"),
        format!(
            "trace digest {:016x} ({} frames)",
            s.trace.digest(),
            s.trace.len()
        ),
        m.control.note(),
        m.generator_note(),
    ];
    Ok(out)
}

/// `--trace 1`: every per-layer metric. The real server supplies its
/// thread and socket counters; the in-process mirror supplies spans;
/// the component replay supplies per-call costs.
pub fn traced(o: &Opts) -> Res<Outcome> {
    let mut s = prepare(o)?;
    let w = o.workload;
    let (server, _) = s.start_server(o)?;
    let m = run_rounds(&mut s, o, &server, o.rounds(0.5))?;
    server.shutdown().map_err(err("shutdown"))?;
    // Thread and socket counters, summed over the fixed-rate parts.
    let mut d = Status::default();
    let (mut cpu, mut wall, mut wire) = (Cpu::default(), 0.0, (0, 0));
    for r in &m.rounds {
        d = d.plus(&r.status);
        cpu.data_ns += r.cpu.data_ns;
        cpu.control_ns += r.cpu.control_ns;
        wall += r.wall_ns;
        wire = (wire.0 + r.wire.0, wire.1 + r.wire.1);
    }

    // The in-process mirror, in saturation: untraced, traced, untraced;
    // the overhead compares the traced stretch with the two around it.
    let upstream = s.gen.origin_addr().map_err(err("origin socket"))?;
    let mirror = Mirror::start(
        core_config(&s.tables.geo, s.tables.a.clone()),
        upstream,
        s.gen.clock,
        s.pins.as_ref().map(|p| p.data.clone()),
    )
    .map_err(err("mirror"))?;
    s.gen
        .warmup(&s.trace, &mut s.checker, mirror.udp, w.window())
        .map_err(err("mirror warm-up"))?;
    let secs = 0.1 * o.seconds;
    let mut pps = Vec::new();
    let mut mirror_counts = Counts::default();
    for traced in [false, true, false] {
        mirror.set_traced(traced);
        let phase = s
            .gen
            .saturate(&s.trace, &mut s.checker, mirror.udp, w.window(), secs)
            .map_err(err("mirror"))?;
        let counts = s.gen.drain(&mut s.checker);
        pps.push(phase.delivered as f64 / phase.secs);
        mirror_counts.sent += counts.sent;
        mirror_counts.lost += counts.lost;
    }
    let untraced_pps = (pps[0] + pps[2]) / 2.0;
    let shared = mirror.shared.clone();
    let log = mirror.stop().map_err(err("mirror loop"))?;
    let report = shared
        .snapshot
        .lock()
        .map(|r| r.clone())
        .unwrap_or_default();
    let jsonl = o.work.join(format!("trace-{}-{}.jsonl", w.name(), o.seed));
    log.write_jsonl(&jsonl).map_err(err("trace file"))?;

    let rp = replay::run(&s.trace, &s.tables.a, s.checker.oracle(), 7)?;
    let ctl = control::costs(&s.tables, &shared, &report)?;

    let frames = log.frames as f64;
    let pump = log.sum("core.pump");
    let (poll, publish) = (log.sum("bridge.poll"), log.sum("core.publish"));
    let (flush, emit) = (log.sum("io.flush"), log.sum("io.emit"));
    let totals = report.totals();
    let mut lag = m.lag_ns.clone();
    lag.sort_unstable();
    let mut out = Outcome {
        attempted: m.counts.sent + mirror_counts.sent,
        failed: m.counts.lost + mirror_counts.lost,
        mismatches: s.checker.mismatches,
        first_mismatch: s.checker.first_mismatch.take(),
        control_errors: m.control.errors.clone(),
        ..Outcome::default()
    };
    out.metrics = vec![
        metric("loss_frac", m.loss_frac(), "ratio"),
        metric("gen.lag_p99_us", us(percentile(&lag, 99.0)), "us"),
        metric("gen.busy_frac", m.median_of(|r| r.gen_busy), "ratio"),
        metric(
            "svc.data_busy_frac",
            ratio(cpu.data_ns as f64, wall),
            "ratio",
        ),
        metric(
            "svc.sat_data_busy_frac",
            m.median_of(|r| r.data_busy),
            "ratio",
        ),
        metric(
            "svc.control_busy_frac",
            ratio(cpu.control_ns as f64, wall),
            "ratio",
        ),
        metric(
            "svc.publish_ns",
            ratio(publish.total_ns as f64, publish.calls as f64),
            "ns",
        ),
        metric(
            "svc.publishes_per_kframe",
            ratio(1e3 * publish.calls as f64, frames),
            "count",
        ),
        metric(
            "svc.pump_self_ns_per_frame",
            ratio(pump.self_ns as f64, frames),
            "ns",
        ),
        metric(
            "bridge.syscalls_per_frame",
            ratio(d.syscalls as f64, d.frames_in as f64),
            "count",
        ),
        metric(
            "bridge.frames_per_batch",
            ratio(d.frames_in as f64, d.recv_batches as f64),
            "count",
        ),
        metric(
            "bridge.failed_frames",
            (d.parse_errors + d.unroutable) as f64,
            "count",
        ),
        metric("bridge.backpressure_events", d.backpressure as f64, "count"),
        // Datagrams the kernel dropped on the way in and on the way out.
        metric(
            "bridge.kernel_drops",
            (wire.0.saturating_sub(d.frames_in) + d.frames_out.saturating_sub(wire.1)) as f64,
            "count",
        ),
        metric(
            "bridge.poll_ns_per_frame",
            ratio(poll.total_ns as f64, frames),
            "ns",
        ),
        metric(
            "bridge.emit_ns",
            ratio(emit.total_ns as f64, emit.calls as f64),
            "ns",
        ),
        metric(
            "bridge.flush_ns_per_frame",
            ratio(flush.total_ns as f64, frames),
            "ns",
        ),
        metric("packet.parse_ns", rp.parse_ns, "ns"),
        metric("packet.serialize_ns", rp.serialize_ns, "ns"),
        metric("deploy.pick_ns", rp.pick_ns, "ns"),
        metric(
            "deploy.picks_per_kframe",
            ratio(1e3 * totals.flows_created as f64, totals.packets as f64),
            "count",
        ),
        metric("program.lookup_ns", rp.lookup_ns, "ns"),
        metric("program.compile_us", rp.compile_us, "us"),
        metric(
            "program.cache_hit_ratio",
            ratio(
                report.cache_hits as f64,
                (report.cache_hits + report.cache_misses) as f64,
            ),
            "ratio",
        ),
        metric("program.apply_ns", rp.apply_ns, "ns"),
        metric(
            "program.emissions_per_frame",
            rp.emissions_per_frame,
            "count",
        ),
        metric("flow.touch_hit_ns", rp.touch_hit_ns, "ns"),
        metric("flow.touch_create_ns", rp.touch_create_ns, "ns"),
        metric(
            "flow.evictions_per_kframe",
            ratio(1e3 * totals.evicted_lru as f64, totals.packets as f64),
            "count",
        ),
        metric("flow.live", report.flows_live as f64, "count"),
        metric("dplane.pump_ns_per_frame", rp.pump_ns_per_frame, "ns"),
        metric("dplane.accounting_ratio", rp.accounting_ratio, "ratio"),
        metric("control.ready_p90_ms", m.control.ready_p90_ms(), "ms"),
        metric("control.reload_p50_ms", m.control.reload_p50_ms(), "ms"),
        metric("control.scrape_p50_ms", m.control.scrape_p50_ms(), "ms"),
        metric("control.vet_ms", ctl.vet_ms, "ms"),
        metric("control.apply_ms", ctl.apply_ms, "ms"),
        metric("http.metrics_json_us", ctl.json_us, "us"),
        metric("http.prometheus_us", ctl.prometheus_us, "us"),
        metric(
            "trace.loop_coverage",
            ratio(log.covered_ns() as f64, log.runnable_ns as f64),
            "ratio",
        ),
        metric("trace.overhead", 1.0 - ratio(pps[1], untraced_pps), "ratio"),
    ];
    out.notes = vec![
        format!(
            "trace: {} ({} records, {} beyond the cap)",
            jsonl.display(),
            log.records.len(),
            log.dropped
        ),
        format!(
            "mirror sat_pps untraced {:.0} / traced {:.0} / untraced {:.0}",
            pps[0], pps[1], pps[2]
        ),
        format!("replay over {} frames", rp.frames),
        m.control.note(),
        m.generator_note(),
    ];
    Ok(out)
}
