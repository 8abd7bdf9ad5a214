//! `ledger` — the end-to-end benchmark for `cay serve`.
//!
//! ```text
//! ledger [run] --workload W --seed N --seconds S --trace 0|1 [--cay PATH]
//! ledger trace --workload W --seed N [--seconds S] [--cay PATH]
//! ledger selftest [--cay PATH]
//! ledger repeat --workload W [--runs 5] [--seed N] [--seconds S] [--trace 0|1] [--cay PATH]
//! ```
//!
//! `run` spawns the real `cay serve`, drives it from one generator
//! thread, checks every frame that comes back against the offline
//! oracle, and prints every metric with its unit; the last line of
//! standard output is the result as JSON. `--trace 1` (or `trace`)
//! prints the per-layer metrics instead. A run whose output disagrees
//! with the oracle exits 1; a run that cannot complete exits 2 without a
//! result. See README.md.

#![forbid(unsafe_code)]

mod check;
mod control;
mod gen;
mod oracle;
mod replay;
mod run;
mod server;
mod speed;
mod stats;
mod trace;
mod workload;

use run::{Fault, Opts, Outcome};
use stats::{median, quartiles, result_json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

struct Args {
    command: String,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut raw = std::env::args().skip(1).peekable();
        let command = match raw.peek() {
            Some(c) if !c.starts_with("--") => raw.next().unwrap_or_default(),
            _ => "run".to_string(),
        };
        let mut flags = BTreeMap::new();
        while let Some(flag) = raw.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = raw
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value);
        }
        Ok(Args { command, flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.get("workload", None)?;
        Workload::parse(&name)
            .ok_or_else(|| format!("unknown workload {name:?} (steady, bulk, churn, ops)"))
    }

    /// The `cay` binary: `--cay`, else the release build in
    /// `$CARGO_TARGET_DIR` (default `target`).
    fn cay(&self) -> PathBuf {
        match self.flags.get("cay") {
            Some(p) => PathBuf::from(p),
            None => {
                PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
                    .join("release")
                    .join("cay")
            }
        }
    }

    fn opts(&self, workload: Workload, seed: u64, seconds: f64) -> Opts {
        Opts::new(workload, seed, seconds, self.cay(), work_dir())
    }
}

/// Scratch files (generated tables, trace JSONL) live in the benchmark's
/// own directory, which the repository ignores.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|args| match args.command.as_str() {
        "run" => {
            let trace: u8 = args.get("trace", Some(0))?;
            run_once(&args, trace == 1)
        }
        "trace" => run_once(&args, true),
        "selftest" => selftest(&args),
        "repeat" => repeat(&args),
        other => Err(format!(
            "unknown command {other:?} (run, trace, selftest, repeat)"
        )),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn measure(o: &Opts, traced: bool) -> Result<Outcome, String> {
    if traced {
        run::traced(o)
    } else {
        run::end_to_end(o)
    }
}

fn run_once(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let o = args.opts(
        args.workload()?,
        args.get("seed", Some(1))?,
        args.get("seconds", Some(20.0))?,
    );
    println!("{}", header(&o, traced));
    let out = measure(&o, traced)?;
    for m in &out.metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    report_problems(&out);
    println!(
        "{}",
        result_json(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn report_problems(out: &Outcome) {
    if out.mismatches > 0 {
        eprintln!(
            "ledger: {} emissions disagree with the oracle; first: {}",
            out.mismatches,
            out.first_mismatch.as_deref().unwrap_or("?")
        );
    }
    for e in &out.control_errors {
        eprintln!("ledger: control plane: {e}");
    }
}

/// The machine and build every result was measured on.
fn header(o: &Opts, traced: bool) -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .ok()
    };
    let quoted = |v: Option<String>| v.map_or("null".to_string(), |s| format!("\"{s}\""));
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pins = server::Pins::from_allowed().map_or("null".to_string(), |p| {
        format!(
            "{{\"generator\": \"{}\", \"cay_data\": \"{}\"}}",
            p.generator, p.data
        )
    });
    format!(
        "{{\"ledger_header\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"available_parallelism\": {cores}, \"build_profile\": \"{}\", \
         \"kernel_release\": {}, \"rmem_default\": {}, \"link\": \"loopback, not a real link\", \
         \"cpu_pins\": {pins}, \"worker_scaling\": null}}}}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(traced),
        quoted(rev),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        quoted(read("/proc/sys/kernel/osrelease")),
        read("/proc/sys/net/core/rmem_default").unwrap_or_else(|| "null".into()),
    )
}

/// Each workload for about 2 s clean, then with one oracle entry
/// corrupted, then with one frame dropped on purpose: the checker must
/// pass the first, report the mismatch in the second, and report the
/// loss in the third.
fn selftest(args: &Args) -> Result<ExitCode, String> {
    let mut failures = 0;
    for w in Workload::ALL {
        for fault in [None, Some(Fault::CorruptOracle), Some(Fault::DropFrame)] {
            let mut o = args.opts(w, 1, 2.0);
            o.setups = 1;
            o.fault = fault;
            let out = run::end_to_end(&o)?;
            let (ok, what) = match fault {
                None => (out.correct() && out.failed == 0, "clean run passes"),
                Some(Fault::CorruptOracle) => {
                    (out.mismatches >= 1, "corrupted oracle entry is reported")
                }
                Some(Fault::DropFrame) => (
                    out.mismatches == 0 && out.failed == 1,
                    "dropped frame is reported lost",
                ),
            };
            println!(
                "{} {:<7} {:<40} mismatches={} lost={}",
                if ok { "ok  " } else { "FAIL" },
                w.name(),
                what,
                out.mismatches,
                out.failed
            );
            failures += usize::from(!ok);
        }
    }
    println!(
        "selftest: {}",
        if failures == 0 {
            "all checks passed"
        } else {
            "FAILED"
        }
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run one workload several times (consecutive seeds) and print each
/// metric's median, quartiles, and spreads; bounds in BENCHMARK.json
/// come from this.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let runs: u64 = args.get("runs", Some(5))?;
    let seed: u64 = args.get("seed", Some(1))?;
    let seconds: f64 = args.get("seconds", Some(20.0))?;
    let traced = args.get::<u8>("trace", Some(0))? == 1;
    let mut values: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut order = Vec::new();
    let mut all_correct = true;
    for k in 0..runs {
        let o = args.opts(w, seed + k, seconds);
        let out = measure(&o, traced)?;
        report_problems(&out);
        all_correct &= out.correct();
        println!(
            "{}",
            result_json(out.correct(), out.attempted, out.failed, &out.metrics)
        );
        for m in out.metrics {
            if !values.contains_key(m.name) {
                order.push(m.name);
            }
            values
                .entry(m.name)
                .or_insert((Vec::new(), m.unit))
                .0
                .push(m.value);
        }
    }
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>9} {:>9}  unit",
        "metric", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    for name in order {
        let (v, unit) = &values[name];
        let med = median(v);
        let (q1, q3) = quartiles(v);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rel = |x: f64| if med == 0.0 { 0.0 } else { x / med };
        println!(
            "{name:<28} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4} {:>9.4}  {unit}",
            rel(q3 - q1),
            rel(hi - lo)
        );
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
