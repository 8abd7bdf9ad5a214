//! `cay bench`: the harness behind `BENCH_pool.json` and
//! `BENCH_dplane.json`.
//!
//! * **pool** — Strategy 1 vs the GFW over HTTP at jobs 1/2/8 (plus the
//!   host default), asserting the estimates do not depend on the
//!   worker count; speedups are `null` below 2 effective cores.
//! * **dplane** — per-packet strategy application (interpreter vs
//!   compiled program), then the assembled data plane in steady state,
//!   and the flow table's heap footprint per live flow.
//!
//! With the `count-allocs` feature the [`alloc`] module installs a
//! counting global allocator and both files report allocations per
//! trial or packet (and the per-flow footprint); otherwise those
//! fields are `null`. `cay serve` is measured end to end by the ledger
//! (`bash ledger/run.sh`), not here.
//!
//! [`dplane_workload`] and [`geo_classifier`] also drive `cay dplane`'s
//! synthetic run.

#[cfg(feature = "count-allocs")]
pub mod alloc;

use appproto::AppProtocol;
use censor::Country;
use dplane::{Dplane, DplaneConfig, FlowConfig, FlowTable, PcapReplay, Program, SeedMode};
use harness::trial::SERVER_ADDR;
use harness::{Throughput, TrialConfig};
use packet::{FlowKey, Packet, TcpFlags};
use std::sync::Arc;
use std::time::Instant;
use strata::json::Json;

/// Whether the counting global allocator is installed.
const COUNTING: bool = cfg!(feature = "count-allocs");

/// Allocation counter reading (0 when counting is compiled out; the
/// JSON reports `null` in that case so 0 is never mistaken for "no
/// allocations").
fn allocs_now() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        alloc::allocation_count()
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// Live heap bytes (0 when counting is compiled out).
fn live_bytes_now() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        alloc::live_bytes()
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// An allocations-per-unit ratio to three decimals; `None` (JSON
/// `null`) when not counting.
fn allocs_per(delta: u64, units: f64) -> Option<String> {
    (COUNTING && units > 0.0).then(|| format!("{:.3}", delta as f64 / units))
}

/// A worker-scaling ratio to two decimals; `None` (JSON `null`) below
/// 2 effective cores: there extra workers time-share one core, so the
/// ratio measures nothing.
fn scaling(ratio: f64, effective_cores: usize) -> Option<String> {
    (effective_cores >= 2).then(|| format!("{ratio:.2}"))
}

/// `cay bench [trials] [pool.json] [dplane.json] [--only pool|dplane]`
/// — the bench suite; `args` are the operands after `bench`. `--only`
/// runs a single section. Every argument is checked before any section
/// runs; a bad one exits 2.
pub fn run(args: &[String]) {
    let mut only: Option<&str> = None;
    let mut positionals: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg != "--only" {
            positionals.push(arg);
            continue;
        }
        match rest.next().map(String::as_str) {
            Some(section @ ("pool" | "dplane")) => only = Some(section),
            Some("hotpath") => bench_usage(
                "--only hotpath: the hot-path runs and allocation counts are part of \
                 the dplane section (BENCH_dplane.json); use --only dplane",
            ),
            Some("svc") => bench_usage(
                "--only svc: the socket bench is gone; the ledger (bash ledger/run.sh) \
                 measures cay serve end to end",
            ),
            other => bench_usage(&format!(
                "--only {}: expected pool or dplane",
                other.unwrap_or("")
            )),
        }
    }
    if let Some(extra) = positionals.get(3) {
        bench_usage(&format!("unexpected argument {extra}"));
    }
    let section_on = |name: &str| only.is_none_or(|o| o == name);
    // 2000 trials per run amortizes pool spin-up and thread hand-off so
    // the jobs=N numbers reflect steady-state scaling rather than
    // startup costs (300 finished in under 10 ms and measured mostly
    // overhead).
    let trials_per_run: u32 = match positionals.first() {
        None => 2000,
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| bench_usage(&format!("{s} is not a trial count (at least 1)"))),
    };
    let path_at = |idx: usize, default: &'static str| -> String {
        positionals
            .get(idx)
            .map_or_else(|| default.to_string(), |s| (*s).clone())
    };

    if section_on("pool") {
        let out_path = path_at(1, "BENCH_pool.json");
        let cfg = TrialConfig::new(
            Country::China,
            AppProtocol::Http,
            geneva::library::STRATEGY_1.strategy(),
            0,
        );
        let tag = harness::cell_tag("bench/pool");
        let auto = harness::pool::jobs();
        let effective_cores = std::thread::available_parallelism().map_or(1, usize::from);
        // A fixed jobs ladder (1/2/8) keeps the per-level speedups
        // comparable across machines; the jobs=auto run is appended
        // when distinct so the bit-identity contract also covers
        // this machine's default. Every speedup is measured against
        // the *same-invocation* jobs=1 run — never a stale baseline
        // from a different build or load regime.
        let mut worker_counts = vec![1, 2, 8];
        if !worker_counts.contains(&auto) {
            worker_counts.push(auto);
        }
        // One run per jobs level: its throughput, allocations per
        // trial and speedup, printed as it finishes and collected for
        // the file.
        type Run = (Throughput, Option<String>, Option<String>);
        let mut runs: Vec<Run> = Vec::new();
        let run_members = |j: &mut Json, (t, allocs, speedup): &Run| {
            t.json_members(j);
            j.num_or_null("allocs_per_trial", allocs.as_deref())
                .num_or_null("speedup", speedup.as_deref());
        };
        let mut estimates = Vec::new();
        for &workers in &worker_counts {
            let pool = harness::Pool::with_jobs(workers);
            // Warm-up pass so the measured run sees a steady-state
            // pool (threads started, per-worker state allocated).
            harness::success_rate_in(&pool, &cfg, trials_per_run.min(64), 0xBE9C, tag);
            let a0 = allocs_now();
            let (estimate, mut t) = Throughput::measure(&format!("bench/jobs={workers}"), || {
                harness::success_rate_in(&pool, &cfg, trials_per_run, 0xBE9C, tag)
            });
            let allocs_per_trial = allocs_per(allocs_now() - a0, f64::from(trials_per_run));
            t.workers = workers;
            // Per-level speedup vs this invocation's jobs=1 run
            // (the first ladder entry; 1.0 for the baseline itself).
            let speedup = match runs.first() {
                Some((base, ..)) if t.wall_ms > 0.0 => base.wall_ms / t.wall_ms,
                _ => 1.0,
            };
            let run = (t, allocs_per_trial, scaling(speedup, effective_cores));
            println!("{}", Json::object(|j| run_members(j, &run)));
            runs.push(run);
            estimates.push(estimate);
        }
        let identical = estimates.windows(2).all(|w| w[0] == w[1]);
        assert!(identical, "estimates must not depend on worker count");
        // `scaling_factor` is the headline number CI gates on: the
        // jobs=8 speedup over the same-invocation jobs=1 baseline.
        let speedup_of = |workers: usize| -> f64 {
            runs.iter()
                .rposition(|(t, ..)| t.workers == workers)
                .map_or(1.0, |i| {
                    if i > 0 && runs[i].0.wall_ms > 0.0 {
                        runs[0].0.wall_ms / runs[i].0.wall_ms
                    } else {
                        1.0
                    }
                })
        };
        let scaling_factor = scaling(speedup_of(8), effective_cores);
        let json = Json::object(|j| {
            j.str("bench", "pool")
                .num("trials_per_run", trials_per_run)
                .num("effective_cores", effective_cores)
                .num("estimates_identical", identical)
                .num_or_null("scaling_factor", scaling_factor.as_deref())
                .num_or_null("speedup", scaling(speedup_of(auto), effective_cores))
                .arr("runs", |j| {
                    for run in &runs {
                        j.item_obj(|j| run_members(j, run));
                    }
                });
        }) + "\n";
        std::fs::write(&out_path, &json).expect("write bench json");
        println!(
            "wrote {out_path}: scaling_factor {} at jobs=8 \
             ({effective_cores} effective cores), estimates identical",
            scaling_factor.as_deref().unwrap_or("null")
        );
    }

    if section_on("dplane") {
        let dplane_path = path_at(2, "BENCH_dplane.json");
        let json = bench_dplane();
        std::fs::write(&dplane_path, &json).expect("write dplane bench json");
        println!("wrote {dplane_path}");
    }
}

/// Report a `cay bench` usage error and exit 2.
fn bench_usage(msg: &str) -> ! {
    eprintln!(
        "bench: {msg}\nusage: cay bench [trials] [pool.json] [dplane.json] [--only pool|dplane]"
    );
    std::process::exit(2);
}

/// §8-style per-client classification for the data plane, the same
/// way `cay serve` does it: each country in the demo geo table gets
/// its top recommended (client-OS-safe) strategy, picked by the flow's
/// client address whichever direction opened the flow; unknown clients
/// pass through untouched.
pub fn geo_classifier() -> svc::RolloutClassifier {
    let geo = harness::deploy::demo_geo_entries();
    let table = harness::deploy::RolloutTable::from_geo(&geo, AppProtocol::Http);
    svc::RolloutClassifier::new(Arc::new(table), SERVER_ADDR)
}

/// Synthetic multi-country workload: `flows` TCP flows from clients
/// spread over the demo geo table's prefixes (plus unlisted clients
/// that must pass through untouched), each a SYN, a request, and
/// `responses` server data packets.
pub fn dplane_workload(flows: u32, responses: u32) -> Vec<(u64, Packet)> {
    // The 4 demo-table countries, plus one prefix the table does not
    // cover at all.
    let prefixes: [[u8; 2]; 5] = [[10, 7], [10, 91], [10, 98], [10, 77], [172, 16]];
    let mut pkts = Vec::new();
    let mut now = 0u64;
    for i in 0..flows {
        let [p0, p1] = prefixes[usize::try_from(i).unwrap_or(0) % prefixes.len()];
        let client = [
            p0,
            p1,
            1,
            u8::try_from(i % 250).unwrap_or(0).wrapping_add(2),
        ];
        let port = 40_000 + u16::try_from(i % 20_000).unwrap_or(0);
        now += 10;
        let mut syn = Packet::tcp(client, port, SERVER_ADDR, 80, TcpFlags::SYN, 100, 0, vec![]);
        syn.finalize();
        pkts.push((now, syn));
        now += 10;
        let mut req = Packet::tcp(
            client,
            port,
            SERVER_ADDR,
            80,
            TcpFlags::PSH_ACK,
            101,
            9001,
            b"GET /forbidden HTTP/1.1\r\nHost: example.com\r\n\r\n".to_vec(),
        );
        req.finalize();
        pkts.push((now, req));
        let mut seq = 9001u32;
        for _ in 0..responses {
            now += 10;
            let body = vec![b'x'; 200];
            let len = u32::try_from(body.len()).unwrap_or(0);
            let mut resp = Packet::tcp(
                SERVER_ADDR,
                80,
                client,
                port,
                TcpFlags::PSH_ACK,
                seq,
                101,
                body,
            );
            resp.finalize();
            pkts.push((now, resp));
            seq = seq.wrapping_add(len);
        }
    }
    pkts
}

/// Run `f` once, returning its result, the wall seconds it took (never
/// 0), and the allocations it made (0 when counting is compiled out).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let a0 = allocs_now();
    let t0 = Instant::now();
    let value = f();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    (value, secs, allocs_now() - a0)
}

/// Heap bytes per live flow of a default-config [`FlowTable`] after
/// 3 × capacity distinct flows of two packets each went through it (so
/// it is full, has evicted and reused slots, and has served hits as
/// well as creations), to one decimal; `None` (JSON `null`) when not
/// counting.
fn flow_bytes_per_flow() -> Option<String> {
    if !COUNTING {
        return None;
    }
    let cfg = FlowConfig::default();
    let live0 = live_bytes_now();
    let mut table = FlowTable::new(cfg);
    for i in 0..3 * cfg.capacity {
        let n = u32::try_from(i).expect("flow number fits in u32");
        let key = FlowKey {
            a: ((0x0A00_0000 + n).to_be_bytes(), 40_000),
            b: (SERVER_ADDR, 80),
        };
        for _ in 0..2 {
            table.touch(key, u64::from(n), || (None, 0));
        }
    }
    let bytes = live_bytes_now().wrapping_sub(live0);
    assert_eq!(table.len(), cfg.capacity, "the churn fills the table");
    Some(format!("{:.1}", bytes as f64 / cfg.capacity as f64))
}

/// The compiled-data-plane bench behind `cay bench`
/// (BENCH_dplane.json): per-packet strategy application with reused
/// output buffers (interpreter vs. compiled program), then the
/// assembled data plane in steady state, each reported as
/// packets/second; `effective_cores` records the machine. With
/// `--features count-allocs` every run also reports allocator entries
/// per packet, and `flow_bytes_per_flow` the flow table's footprint;
/// otherwise those fields are `null`.
fn bench_dplane() -> String {
    let strategy = geneva::library::STRATEGY_1.strategy();
    let workload = dplane_workload(64, 8);
    let server_pkts: Vec<&Packet> = workload
        .iter()
        .filter(|(_, p)| p.ip.src == SERVER_ADDR)
        .map(|(_, p)| p)
        .collect();
    let reps = 200u32;
    let applications = server_pkts.len() as f64 * f64::from(reps);

    // Per-packet interpreter path, output buffer reused across packets;
    // an untimed first pass sizes it.
    let mut engine = geneva::Engine::new(strategy.clone(), 0xBE9C);
    let mut out = Vec::new();
    let mut interp_pass = || -> usize {
        server_pkts
            .iter()
            .map(|pkt| {
                out.clear();
                engine.apply_outbound_into(pkt, &mut out);
                out.len()
            })
            .sum()
    };
    interp_pass();
    let (interp_sink, secs, allocs) = timed(|| (0..reps).map(|_| interp_pass()).sum::<usize>());
    let interp_pps = applications / secs;
    let interp_allocs = allocs_per(allocs, applications);

    // Per-packet compiled path, out + scratch reused across packets.
    let program = Program::compile(&strategy).expect("library strategy verifies");
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let mut compiled_pass = || -> usize {
        server_pkts
            .iter()
            .map(|pkt| {
                out.clear();
                program.apply_outbound(pkt, 0xBE9C, &mut out, &mut scratch);
                out.len()
            })
            .sum()
    };
    compiled_pass();
    let (compiled_sink, secs, allocs) = timed(|| (0..reps).map(|_| compiled_pass()).sum::<usize>());
    let compiled_pps = applications / secs;
    let compiled_allocs = allocs_per(allocs, applications);
    assert!(
        interp_sink > 0 && compiled_sink > 0,
        "bench produced no packets"
    );

    // Steady-state plane. One pass of the 64-flow workload is ~640
    // packets, too short to time, so the timed region (which the
    // allocs-per-packet budget applies to) is 50 pumps of one pass
    // each, as a long-lived deployment sees them. An untimed warm-up
    // pass admits the flows and sizes every buffer first; building the
    // replays (the workload clones) stays outside the timed region.
    let cfg = DplaneConfig {
        seed: SeedMode::PerFlow(0x0D1A),
        ..DplaneConfig::default()
    };
    let mut dp = Dplane::new(cfg, geo_classifier());
    dp.pump(&mut PcapReplay::from_packets(workload.clone()), SERVER_ADDR);
    let mut replays: Vec<PcapReplay> = (0..50)
        .map(|_| PcapReplay::from_packets(workload.clone()))
        .collect();
    let (n, secs, allocs) = timed(|| {
        replays
            .iter_mut()
            .map(|replay| dp.pump(replay, SERVER_ADDR))
            .sum::<u64>()
    });
    let emitted: u64 = replays.iter().map(|r| r.emitted).sum();
    let flow_bytes = flow_bytes_per_flow();

    let effective_cores = std::thread::available_parallelism().map_or(1, usize::from);
    Json::object(|j| {
        j.str("bench", "dplane")
            .str("strategy", geneva::library::STRATEGY_1.name)
            .num("count_allocs", COUNTING)
            .num("applications", format_args!("{applications:.0}"))
            .num("interp_pps", format_args!("{interp_pps:.0}"))
            .num_or_null("interp_allocs_per_packet", interp_allocs)
            .num("compiled_pps", format_args!("{compiled_pps:.0}"))
            .num_or_null("compiled_allocs_per_packet", compiled_allocs)
            .num(
                "compiled_speedup",
                format_args!("{:.2}", compiled_pps / interp_pps.max(1e-9)),
            )
            .num("effective_cores", effective_cores)
            .num_or_null("flow_bytes_per_flow", flow_bytes.as_deref())
            .obj("plane", |j| {
                j.num("packets", n)
                    .num("emitted", emitted)
                    .num("pps", format_args!("{:.0}", n as f64 / secs))
                    .num_or_null("allocs_per_packet", allocs_per(allocs, n as f64));
            });
    }) + "\n"
}
