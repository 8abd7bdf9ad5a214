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
//! cay evolve [country] [proto]   §4.1 genetic algorithm + minimization
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
use harness::trial::SERVER_ADDR;
use harness::{run_trial, success_rate, Throughput, TrialConfig};

fn main() {
    let args = args_with_jobs();
    let command = args.first().cloned().unwrap_or_default();
    // The trial count of `table2`, `multibox` and `followups`: absent
    // means the default, anything but a positive integer exits 2.
    let trials = |default: u32| -> u32 {
        let Some(s) = args.get(1) else {
            return default;
        };
        s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            usage(
                &command,
                "[trials]",
                &format!("{s} is not a trial count (at least 1)"),
            )
        })
    };
    let ((), throughput) = Throughput::measure(&command, || dispatch(&args, &trials));
    if throughput.trials > 0 {
        eprintln!("{}", throughput.to_json());
    }
}

/// Collect the process arguments (program name skipped), applying and
/// stripping a `--jobs N` / `--jobs=N` flag if present. The flag pins
/// the trial executor's worker count process-wide; results are
/// bit-identical for any value.
fn args_with_jobs() -> Vec<String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(pos) = args
        .iter()
        .position(|a| a == "--jobs" || a.starts_with("--jobs="))
    else {
        return args;
    };
    let jobs = if let Some(value) = args[pos].strip_prefix("--jobs=") {
        value.parse().ok()
    } else {
        args.get(pos + 1).and_then(|s| s.parse().ok())
    };
    let Some(jobs) = jobs else {
        eprintln!("--jobs needs a worker count, e.g. --jobs 4");
        std::process::exit(2);
    };
    harness::pool::set_jobs(jobs);
    if args[pos] == "--jobs" {
        args.drain(pos..=pos + 1);
    } else {
        args.remove(pos);
    }
    args
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
        Some("table2") => {
            // The paper's numbers came from live censors; ours come
            // from the behavioral censor models. Compare shapes, not
            // decimals.
            println!("{}", experiments::table2(trials(200), 0xBADC_0FFE).render());
            println!("Paper values (Table 2) for comparison:");
            println!("China   S1: 89/52/54/14/70   S2: 83/36/54/55/59   S3: 26/65/4/4/23");
            println!("        S4: 7/33/5/5/22      S5: 15/97/4/3/25     S6: 82/55/52/54/55");
            println!("        S7: 83/85/54/4/66    S8: 3/47/2/3/100     (DNS/FTP/HTTP/HTTPS/SMTP)");
            println!("India   S8: 100 (HTTP)   Iran S8: 100/100 (HTTP/HTTPS)");
            println!("Kazakhstan S8/S9/S10/S11: 100 (HTTP)");
        }
        Some("waterfalls") => {
            println!("==== Figure 1: server-side evasion strategies in China ====\n");
            println!("{}", experiments::figure1(7));
            println!("==== Figure 2: strategies against Kazakhstan's HTTP censor ====\n");
            println!("{}", experiments::figure2(7));
        }
        Some("multibox") => {
            println!("{}", experiments::multibox(trials(150), 0x600D).render());
            println!(
                "reading: under the real (multi-box) GFW the same TCP-level strategy\n\
                 behaves wildly differently per protocol; one shared stack would\n\
                 flatten those differences — which the ablation shows.\n"
            );
            println!("{}", experiments::ttl_probe(5).render());
        }
        Some("followups") => {
            println!("{}", experiments::section3(trials(100), 0x3333).render());
            println!("{}", experiments::followups(trials(100), 0x5555).render());
            println!("{}", experiments::residual(17).render());
            println!("{}", experiments::overhead(6).render());
        }
        Some("compat") => {
            let report = experiments::client_compat(2024);
            println!("{}", report.render());
            println!(
                "strategies breaking any OS: {:?} (paper: 5, 9, 10 — Windows & macOS only)",
                report.broken_strategies()
            );
            for id in report.broken_strategies() {
                println!(
                    "  strategy {id} fails on: {}",
                    report.failing_oses(id).join(", ")
                );
            }
            println!();
            println!("{}", experiments::network_compat(4242).render());
            println!("(paper: wifi all pass; T-Mobile breaks 1 & 3; AT&T breaks 1, 2 & 3)");
        }
        Some("dnsrace") => print!("{}", experiments::dns_race(5).render()),
        Some("evolve") => {
            let operands = "[china|india|iran|kazakhstan] [dns|ftp|http|https|smtp]";
            let country = args.get(1).map_or(Country::China, |s| {
                Country::parse(s)
                    .unwrap_or_else(|| usage("evolve", operands, &format!("unknown country {s}")))
            });
            let protocol = args.get(2).map_or(AppProtocol::Http, |s| {
                AppProtocol::parse(s)
                    .unwrap_or_else(|| usage("evolve", operands, &format!("unknown protocol {s}")))
            });
            evolve_and_report(country, protocol);
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
        Some("bench") => bench::run(&args[1..]),
        _ => {
            eprintln!(
                "usage: cay [--jobs N] <strategies|table1|table2|waterfalls|multibox|followups|compat|dnsrace|evolve|lint|verify|run|pcap|dplane|serve|bench> [args]"
            );
            std::process::exit(2);
        }
    }
}

/// `cay evolve`: the paper's §4.1 methodology. A genetic algorithm
/// triggered on SYN+ACK packets trains against the censor, then
/// `evolve::minimize` prunes vestigial nodes from the winner, like
/// Geneva does before reporting.
fn evolve_and_report(country: Country, protocol: AppProtocol) {
    let mut config = evolve::GaConfig::new(country, protocol, 2020);
    config.population = 120;
    config.generations = 30;
    config.trials_per_eval = 10;
    println!(
        "evolving server-side strategies against {country} / {protocol} \
         (population {}, ≤{} generations, {} trials/eval)…\n",
        config.population, config.generations, config.trials_per_eval
    );
    let result = evolve::evolve(&config);
    let mut cache = evolve::FitnessCache::new(country, protocol, 20, 777);
    let minimized = evolve::minimize(&result.best, &mut cache, 0.05);

    println!("generations run : {}", result.history.len());
    println!("distinct genomes: {}", result.distinct_evaluated);
    println!("trials simulated: {}", result.trials_spent);
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
    println!(
        "fitness history : {}",
        result
            .history
            .iter()
            .map(|f| format!("{f:.0}"))
            .collect::<Vec<_>>()
            .join(" → ")
    );
    println!(
        "\nbest strategy (found at generation {}):",
        result.best_generation
    );
    println!("  {}", result.best.strategy);
    println!("minimized:");
    println!("  {}", minimized.strategy);
    print!("  {}", geneva::explain(&minimized.strategy));
    println!(
        "  evasion rate {:.0}% over {} trials (fitness {:.1})",
        result.best_eval.rate() * 100.0,
        result.best_eval.trials,
        result.best_eval.fitness
    );
    println!("\npaper strategies for comparison:");
    for named in geneva::library::server_side() {
        println!(
            "  {:>2}. {:<28} {}",
            named.id,
            named.name,
            named.text.trim()
        );
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
            s if s.starts_with("--") => {
                usage("dplane", "[file.pcap]", &format!("unknown option {s}"))
            }
            s if pcap_path.is_none() => pcap_path = Some(s),
            s => usage("dplane", "[file.pcap]", &format!("unexpected argument {s}")),
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
            PcapReplay::from_packets(bench::dplane_workload(64, 8)),
            "a synthetic workload",
        ),
    };
    let cfg = DplaneConfig {
        seed: SeedMode::PerFlow(0x0D1A),
        ..DplaneConfig::default()
    };
    let mut dp = Dplane::new(cfg, bench::geo_classifier());
    let n = dp.pump(&mut replay, SERVER_ADDR);
    let report = dp.metrics();
    eprintln!(
        "replayed {n} packets from {source}: {} emitted, \
         {} records skipped, {} flows live",
        replay.emitted, replay.skipped, report.flows_live
    );
    println!("{}", report.to_json());
}

/// Report a usage error in `cay <command> <operands>` and exit 2.
fn usage(command: &str, operands: &str, msg: &str) -> ! {
    eprintln!("{command}: {msg}\nusage: cay {command} {operands}");
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
