//! `cay` — the command-line front end to the reproduction.
//!
//! ```text
//! cay strategies                 list the paper's 11 strategies (+ variants)
//! cay table1                     Table 1 (vantage points / protocols)
//! cay table2 [trials]            Table 2 (success rates)
//! cay waterfalls                 Figures 1 & 2 (packet diagrams)
//! cay multibox [trials]          Figure 3 + §6 TTL probes
//! cay followups [trials]         §3 + §5 follow-ups + residual censorship
//! cay compat                     §7 OS and carrier matrices
//! cay dnsrace                    §2.1 UDP-vs-TCP DNS background
//! cay evolve [country] [proto]   §4.1 genetic algorithm
//! cay lint <strategy-dsl>        static analysis: canonical form + diagnostics
//! cay verify <dsl>|--library     lints + compiled-program proof obligations,
//!                                as text, JSON, or SARIF (--format); add
//!                                --censor <name|all> for per-censor verdicts
//!                                from the censor-product model checker;
//!                                --unsafe-scan checks keyword confinement
//!                                to the workspace's audited files instead
//! cay run <strategy-dsl>         evaluate an arbitrary DSL strategy vs GFW/HTTP
//! cay pcap <file.pcap>           capture one Strategy-1 exchange to pcap
//! cay dplane [file.pcap]         run the compiled data plane (one flow table),
//!                                print metrics JSON
//! cay serve [--udp A] [--tcp A] [--control A] [--upstream A]
//!           [--geo file] [--rollout file] [--backend epoll]
//!                                run the live service (Linux-only): socket
//!                                front end (frame-in-datagram; epoll+recvmmsg
//!                                event loop)
//!                                + operator control plane (/ready /status
//!                                /metrics, POST /config hot reload,
//!                                POST /shutdown graceful drain)
//! cay bench [trials] [pool.json] [dplane.json] [--only pool|dplane]
//!                                pool scaling bench (BENCH_pool.json: jobs 1/2/8
//!                                speedups vs the same-invocation jobs=1 baseline,
//!                                scaling_factor; scaling fields are null below
//!                                2 cores)
//!                                + compiled-data-plane bench (BENCH_dplane.json:
//!                                  interpreter vs compiled, steady-state
//!                                  plane); allocations counted with
//!                                  --features count-allocs; --only runs one
//!                                  section. `cay serve` is measured end to
//!                                  end by the ledger (bash ledger/run.sh)
//! ```
//!
//! Every subcommand accepts `--jobs N` to pin the trial-executor
//! worker count (default: available parallelism); results are
//! bit-identical for any value. Subcommands that simulate trials
//! print one throughput JSON line to stderr.

use appproto::AppProtocol;
use censor::Country;
use dplane::{Dplane, DplaneConfig, PcapReplay, Program, SeedMode};
use harness::experiments;
use harness::{run_trial, success_rate, Throughput, TrialConfig};
use packet::{Packet, TcpFlags};
use std::sync::Arc;
use std::time::Instant;
use strata::json::Json;

/// The public server address every simulated exchange targets.
const SERVER_ADDR: [u8; 4] = [93, 184, 216, 34];

/// With `--features count-allocs`, every allocation in the process is
/// counted so `cay bench` can report allocations per packet.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTING_ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

/// Allocation counter reading (0 when counting is compiled out; the
/// JSON reports `null` in that case so 0 is never mistaken for "no
/// allocations").
fn allocs_now() -> u64 {
    bench::alloc_count().unwrap_or(0)
}

/// An allocations-per-unit ratio to three decimals; `None` (JSON
/// `null`) when not counting.
fn allocs_per(delta: u64, units: f64) -> Option<String> {
    (bench::alloc_count().is_some() && units > 0.0).then(|| format!("{:.3}", delta as f64 / units))
}

/// A worker-scaling ratio to two decimals; `None` (JSON `null`) below
/// 2 effective cores: there extra workers time-share one core, so the
/// ratio measures nothing.
fn scaling(ratio: f64, effective_cores: usize) -> Option<String> {
    (effective_cores >= 2).then(|| format!("{ratio:.2}"))
}

fn main() {
    let args = come_as_you_are::cli::args_with_jobs();
    let command = args.first().cloned().unwrap_or_default();
    let trials =
        |default: u32| -> u32 { args.get(1).and_then(|s| s.parse().ok()).unwrap_or(default) };
    let ((), throughput) = Throughput::measure(&command, || dispatch(&args, &trials));
    if throughput.trials > 0 {
        eprintln!("{}", throughput.to_json());
    }
}

fn dispatch(args: &[String], trials: &dyn Fn(u32) -> u32) {
    match args.first().map(String::as_str) {
        Some("strategies") => {
            println!("The paper's 11 server-side strategies:");
            for named in geneva::library::server_side() {
                println!(
                    "  {:>2}. {:<30} {}",
                    named.id,
                    named.name,
                    named.text.trim()
                );
                print!("      {}", geneva::explain(&named.strategy()));
            }
            println!("\nVariant species (§5):");
            for named in geneva::library::variants() {
                println!(
                    "  {:>2}. {:<30} {}",
                    named.id,
                    named.name,
                    named.text.trim()
                );
            }
        }
        Some("table1") => print!("{}", experiments::table1()),
        Some("table2") => print!("{}", experiments::table2(trials(200), 0xBADC_0FFE).render()),
        Some("waterfalls") => {
            println!("{}", experiments::figure1(7));
            println!("{}", experiments::figure2(7));
        }
        Some("multibox") => {
            println!("{}", experiments::multibox(trials(150), 0x600D).render());
            println!("{}", experiments::ttl_probe(5).render());
        }
        Some("followups") => {
            println!("{}", experiments::section3(trials(100), 0x3333).render());
            println!("{}", experiments::followups(trials(100), 0x5555).render());
            println!("{}", experiments::residual(17).render());
            println!("{}", experiments::overhead(6).render());
        }
        Some("compat") => {
            println!("{}", experiments::client_compat(2024).render());
            println!("{}", experiments::network_compat(4242).render());
        }
        Some("dnsrace") => print!("{}", experiments::dns_race(5).render()),
        Some("evolve") => {
            let country = match args.get(1).map(String::as_str) {
                Some("india") => Country::India,
                Some("iran") => Country::Iran,
                Some("kazakhstan") => Country::Kazakhstan,
                _ => Country::China,
            };
            let protocol = match args.get(2).map(String::as_str) {
                Some("dns") => AppProtocol::DnsTcp,
                Some("ftp") => AppProtocol::Ftp,
                Some("https") => AppProtocol::Https,
                Some("smtp") => AppProtocol::Smtp,
                _ => AppProtocol::Http,
            };
            let mut config = evolve::GaConfig::new(country, protocol, 2020);
            config.population = 120;
            config.generations = 25;
            let result = evolve::evolve(&config);
            println!(
                "best after {} generations: {}\n  evasion {:.0}% (fitness {:.1})",
                result.history.len(),
                result.best.strategy,
                result.best_eval.rate() * 100.0,
                result.best_eval.fitness
            );
            println!(
                "  fitness memo: {:.0}% hit rate ({} hits / {} misses), \
                 {} genomes statically rejected, {} trials simulated",
                result.cache_hit_rate() * 100.0,
                result.cache_hits,
                result.cache_misses,
                result.static_rejects,
                result.trials_spent
            );
            println!(
                "  static prefilter: {:.0}% of misses refuted without simulation",
                result.static_skip_rate() * 100.0
            );
            println!(
                "  censor model: {:.0}% of misses proven inert vs {} without \
                 simulation ({} genomes)",
                result.censor_static_skip_rate() * 100.0,
                country.name(),
                result.censor_static_rejects
            );
        }
        Some("lint") => {
            let Some(text) = args.get(1) else {
                eprintln!("usage: cay lint '<strategy-dsl>'");
                std::process::exit(2);
            };
            match strata::lint(text) {
                Ok(diagnostics) => {
                    let strategy = geneva::parse_strategy(text).expect("lint parsed it");
                    let analysis = strata::analyze(&strategy);
                    if diagnostics.is_empty() {
                        println!("clean: no findings");
                    }
                    for d in &diagnostics {
                        println!("{}", d.render(text));
                    }
                    println!("canonical: {}", analysis.canonical);
                    println!("canon key: {}", analysis.key);
                    if analysis.statically_futile {
                        println!(
                            "verdict:   statically futile — cannot beat the identity strategy"
                        );
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("strategy does not parse: {e}");
                    if let Some(caret) = text.get(e.span.start..).map(|_| e.span.start) {
                        eprintln!("  {text}");
                        eprintln!("  {}^", " ".repeat(caret));
                    }
                    std::process::exit(2);
                }
            }
        }
        Some("verify") => {
            let format = args
                .iter()
                .position(|a| a == "--format")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("text");
            if !matches!(format, "text" | "json" | "sarif") {
                eprintln!("unknown --format {format:?}: expected text, json, or sarif");
                std::process::exit(2);
            }
            if args.iter().any(|a| a == "--unsafe-scan") {
                // Repo-level strata check, not a strategy one: verify
                // that the `unsafe` keyword stays confined to the
                // workspace's audited files. Replaces the old CI shell
                // greps so the gate ships with the tool.
                let report = match strata::scan_unsafe(
                    std::path::Path::new("crates"),
                    strata::UNSAFE_ALLOWLIST,
                ) {
                    Ok(report) => report,
                    Err(e) => {
                        eprintln!("unsafe-scan: cannot walk crates/ from the workspace root: {e}");
                        std::process::exit(2);
                    }
                };
                match format {
                    "json" => print!("{}", strata::report::render_unsafe_json(&report)),
                    "sarif" => print!("{}", strata::report::render_unsafe_sarif(&report)),
                    _ => print!("{}", strata::report::render_unsafe_text(&report)),
                }
                std::process::exit(i32::from(!report.clean()));
            }
            let censors: Vec<strata::CensorId> = match args
                .iter()
                .position(|a| a == "--censor")
                .map(|i| args.get(i + 1).map(String::as_str).unwrap_or(""))
            {
                None => Vec::new(),
                Some("all") => strata::CensorId::all().to_vec(),
                Some(name) => match strata::CensorId::parse(name) {
                    Some(id) => vec![id],
                    None => {
                        eprintln!(
                            "unknown --censor {name:?}: expected all, gfw, airtel, iran, \
                             or kazakhstan"
                        );
                        std::process::exit(2);
                    }
                },
            };
            let mut entries = Vec::new();
            if args.iter().any(|a| a == "--library") {
                for named in geneva::library::server_side()
                    .iter()
                    .chain(geneva::library::variants().iter())
                {
                    let label = format!("library/{}", named.name);
                    match verify_entry(&label, named.text, &censors) {
                        Ok(entry) => entries.push(entry),
                        Err(e) => {
                            eprintln!("{label} does not parse: {e}");
                            std::process::exit(2);
                        }
                    }
                }
            } else {
                // The strategy is the first positional operand: skip
                // the flags and their values (`--censor all '<dsl>'`
                // must still find the DSL).
                let mut positional = None;
                let mut i = 1;
                while i < args.len() {
                    match args[i].as_str() {
                        "--library" => i += 1,
                        "--format" | "--censor" => i += 2,
                        a if a.starts_with("--") => i += 1,
                        _ => {
                            positional = Some(&args[i]);
                            break;
                        }
                    }
                }
                let Some(text) = positional else {
                    eprintln!(
                        "usage: cay verify '<strategy-dsl>' [--format text|json|sarif] \
                         [--censor <name|all>]"
                    );
                    eprintln!(
                        "       cay verify --library [--format text|json|sarif] \
                         [--censor <name|all>]"
                    );
                    eprintln!("       cay verify --unsafe-scan [--format text|json|sarif]");
                    std::process::exit(2);
                };
                match verify_entry("cli", text, &censors) {
                    Ok(entry) => entries.push(entry),
                    Err(e) => {
                        eprintln!("strategy does not parse: {e}");
                        std::process::exit(2);
                    }
                }
            }
            match format {
                "json" => print!("{}", strata::report::render_json(&entries)),
                "sarif" => print!("{}", strata::report::render_sarif(&entries)),
                _ => {
                    print!("{}", strata::report::render_text(&entries));
                    if !censors.is_empty() {
                        println!();
                        print!("{}", strata::render_verdict_matrix(&entries));
                    }
                }
            }
            if entries.iter().any(strata::ReportEntry::failing) {
                std::process::exit(1);
            }
        }
        Some("run") => {
            let Some(text) = args.get(1) else {
                eprintln!("usage: cay run '<strategy-dsl>'");
                std::process::exit(2);
            };
            match geneva::parse_strategy(text) {
                Ok(strategy) => {
                    let cfg = TrialConfig::new(Country::China, AppProtocol::Http, strategy, 0);
                    let rate = success_rate(&cfg, 200, 42);
                    println!("vs GFW/HTTP over 200 trials: {rate}");
                }
                Err(e) => {
                    eprintln!("strategy does not parse: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("pcap") => {
            let path = args.get(1).map(String::as_str).unwrap_or("strategy1.pcap");
            // Capture a run where the strategy actually evades.
            let result = (0..32)
                .map(|seed| {
                    run_trial(&TrialConfig::new(
                        Country::China,
                        AppProtocol::Http,
                        geneva::library::STRATEGY_1.strategy(),
                        seed,
                    ))
                })
                .find(|r| r.evaded())
                .expect("strategy 1 succeeds within 32 seeds");
            let bytes = netsim::pcap::to_pcap(&result.trace, netsim::pcap::CaptureAt::Middlebox);
            std::fs::write(path, &bytes).expect("write pcap");
            println!(
                "wrote {} bytes ({} packets at the censor's vantage) to {path}; outcome {:?}",
                bytes.len(),
                netsim::pcap::parse_pcap(&bytes)
                    .map(|(_, r)| r.len())
                    .unwrap_or(0),
                result.outcome
            );
        }
        Some("dplane") => run_dplane(args),
        Some("serve") => serve(args),
        Some("bench") => bench(args),
        _ => {
            eprintln!(
                "usage: cay [--jobs N] <strategies|table1|table2|waterfalls|multibox|followups|compat|dnsrace|evolve|lint|verify|run|pcap|dplane|serve|bench> [args]"
            );
            std::process::exit(2);
        }
    }
}

/// `cay dplane` runs a synthetic multi-country workload; `cay dplane
/// <file.pcap>` replays a capture (e.g. one written by `cay pcap`).
/// Either way the metrics print as one JSON document. Unknown
/// options, extra arguments and unreadable captures exit 2.
fn run_dplane(args: &[String]) {
    let mut pcap_path: Option<&str> = None;
    for arg in args.iter().skip(1) {
        match arg.as_str() {
            s if s.starts_with("--") => dplane_usage(&format!("unknown option {s}")),
            s if pcap_path.is_none() => pcap_path = Some(s),
            s => dplane_usage(&format!("unexpected argument {s}")),
        }
    }
    let (mut replay, source) = match pcap_path {
        Some(path) => {
            let data = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("dplane: {path}: {e}");
                std::process::exit(2);
            });
            let replay = PcapReplay::from_bytes(&data).unwrap_or_else(|| {
                eprintln!("dplane: {path}: not a µs-pcap stream");
                std::process::exit(2);
            });
            (replay, path)
        }
        None => (
            PcapReplay::from_packets(dplane_workload(64, 8)),
            "a synthetic workload",
        ),
    };
    let cfg = DplaneConfig {
        seed: SeedMode::PerFlow(0x0D1A),
        ..DplaneConfig::default()
    };
    let mut dp = Dplane::new(cfg, geo_classifier());
    let n = dp.pump(&mut replay, SERVER_ADDR);
    let report = dp.metrics();
    eprintln!(
        "replayed {n} packets from {source}: {} emitted, \
         {} records skipped, {} flows live",
        replay.emitted, replay.skipped, report.flows_live
    );
    println!("{}", report.to_json());
}

/// Report a `cay dplane` usage error and exit 2.
fn dplane_usage(msg: &str) -> ! {
    eprintln!("dplane: {msg}\nusage: cay dplane [file.pcap]");
    std::process::exit(2);
}

/// Build one `cay verify` report entry: lint analysis, per-censor
/// model-checker verdicts for the requested censors, plus the compiled
/// program's discharged (or failed) proof obligations.
fn verify_entry(
    label: &str,
    source: &str,
    censors: &[strata::CensorId],
) -> Result<strata::ReportEntry, geneva::ParseError> {
    let strategy = geneva::parse_strategy(source)?;
    let analysis = strata::analyze(&strategy);
    let verdicts = if censors.is_empty() {
        Vec::new()
    } else {
        let summary = strata::summarize(&strategy);
        censors
            .iter()
            .map(|&id| (id, strata::censor_model::check(&summary, id)))
            .collect()
    };
    let program = dplane::proof_facts(&Program::compile(&strategy));
    Ok(strata::ReportEntry {
        label: label.to_string(),
        source: source.to_string(),
        canonical: analysis.canonical.to_string(),
        key: analysis.key,
        statically_futile: analysis.statically_futile,
        diagnostics: analysis.diagnostics,
        verdicts,
        program: Some(program),
    })
}

/// `cay serve` — run the live service until an operator posts
/// `/shutdown` (the SIGTERM stand-in; std cannot observe real signals
/// without a libc binding). Prints the final drained metrics snapshot
/// to stdout on exit, so a supervisor always gets a complete report.
fn serve(args: &[String]) {
    let mut udp = "127.0.0.1:7070".to_string();
    let mut tcp: Option<String> = None;
    let mut control = "127.0.0.1:7071".to_string();
    let mut upstream = "127.0.0.1:7072".to_string();
    let mut geo_path: Option<String> = None;
    let mut rollout_path: Option<String> = None;
    let mut backend = svc::BackendChoice::Epoll;
    let mut i = 1;
    while i < args.len() {
        let value = || -> String {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("serve: {} needs a value", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--udp" => udp = value(),
            "--tcp" => tcp = Some(value()),
            "--control" => control = value(),
            "--upstream" => upstream = value(),
            "--geo" => geo_path = Some(value()),
            "--rollout" => rollout_path = Some(value()),
            "--backend" => {
                let v = value();
                backend = svc::BackendChoice::parse(&v).unwrap_or_else(|| {
                    eprintln!("serve: --backend {v}: expected epoll");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "serve: unknown argument {other}\n\
                     usage: cay serve [--udp A] [--tcp A] [--control A] [--upstream A] \
                     [--geo file] [--rollout file] [--backend epoll]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let addr = |s: &str, what: &str| -> std::net::SocketAddr {
        s.parse().unwrap_or_else(|_| {
            eprintln!("serve: bad {what} address: {s}");
            std::process::exit(2);
        })
    };
    // Geography: operator-supplied prefix table, or the demo table.
    let geo = match &geo_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("serve: --geo {path}: {e}");
                std::process::exit(2);
            });
            match harness::deploy::parse_geo_file(&text) {
                Ok(entries) => entries,
                Err(e) => {
                    // The spanned parse error (line:col) points at the
                    // offending token in the operator's file.
                    eprintln!("serve: --geo {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => harness::deploy::demo_geo_entries(),
    };
    // Initial rollout: an operator table, or 100% arms derived from
    // the geo table's per-country top picks.
    let rollout = match &rollout_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("serve: --rollout {path}: {e}");
                std::process::exit(2);
            });
            match harness::deploy::RolloutTable::parse(&text) {
                Ok(table) => table,
                Err(e) => {
                    eprintln!("serve: --rollout {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => harness::deploy::RolloutTable::from_geo(&geo, AppProtocol::Http),
    };
    let cfg = svc::ServeConfig {
        bridge: svc::BridgeConfig {
            udp: addr(&udp, "--udp"),
            tcp: tcp.as_deref().map(|s| addr(s, "--tcp")),
            upstream: addr(&upstream, "--upstream"),
            backend,
        },
        control: addr(&control, "--control"),
        core: svc::CoreConfig {
            dplane: DplaneConfig {
                seed: SeedMode::PerFlow(0x0D1A),
                ..DplaneConfig::default()
            },
            server_addr: SERVER_ADDR,
            protocol: AppProtocol::Http,
            geo,
            rollout,
        },
    };
    let service = svc::Service::start(cfg).unwrap_or_else(|e| {
        eprintln!("serve: bind failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "serving: udp={} tcp={} control={} upstream={} backend=epoll ({} rollout rules)",
        service.udp_addr,
        service
            .tcp_addr
            .map(|a| a.to_string())
            .unwrap_or_else(|| "off".to_string()),
        service.control_addr,
        upstream,
        service.shared.rollout_rules(),
    );
    let report = service.join();
    println!("{}", report.to_json());
}

/// `cay bench [trials] [pool.json] [dplane.json] [--only pool|dplane]`
/// — the bench suite. `--only` runs a single section. Every argument
/// is checked before any section runs; a bad one exits 2.
fn bench(args: &[String]) {
    let mut only: Option<&str> = None;
    let mut positionals: Vec<&String> = Vec::new();
    let mut rest = args.iter().skip(1);
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
fn geo_classifier() -> svc::RolloutClassifier {
    let geo = harness::deploy::demo_geo_entries();
    let table = harness::deploy::RolloutTable::from_geo(&geo, AppProtocol::Http);
    svc::RolloutClassifier::new(Arc::new(table), SERVER_ADDR)
}

/// Synthetic multi-country workload: `flows` TCP flows from clients
/// spread over the demo geo table's prefixes (plus unlisted clients
/// that must pass through untouched), each a SYN, a request, and
/// `responses` server data packets.
fn dplane_workload(flows: u32, responses: u32) -> Vec<(u64, Packet)> {
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

/// The compiled-data-plane bench behind `cay bench`
/// (BENCH_dplane.json): per-packet strategy application with reused
/// output buffers (interpreter vs. compiled program), then the
/// assembled data plane in steady state, each reported as
/// packets/second; `effective_cores` records the machine. With
/// `--features count-allocs` every run also reports allocator entries
/// per packet; otherwise those fields are `null`.
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

    let effective_cores = std::thread::available_parallelism().map_or(1, usize::from);
    Json::object(|j| {
        j.str("bench", "dplane")
            .str("strategy", geneva::library::STRATEGY_1.name)
            .num("count_allocs", bench::alloc_count().is_some())
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
            .obj("plane", |j| {
                j.num("packets", n)
                    .num("emitted", emitted)
                    .num("pps", format_args!("{:.0}", n as f64 / secs))
                    .num_or_null("allocs_per_packet", allocs_per(allocs, n as f64));
            });
    }) + "\n"
}
