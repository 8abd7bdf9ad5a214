//! # come-as-you-are
//!
//! Facade crate for the reproduction of *"Come as You Are: Helping
//! Unmodified Clients Bypass Censorship with Server-side Evasion"*
//! (Bock et al., SIGCOMM 2020).
//!
//! Re-exports every workspace crate so examples, integration tests, and
//! downstream users can depend on a single package:
//!
//! * [`packet`] — IPv4/TCP/UDP packet model.
//! * [`netsim`] — deterministic discrete-event network simulator.
//! * [`endpoint`] — endpoint TCP state machines + client OS profiles.
//! * [`appproto`] — HTTP/HTTPS/DNS-over-TCP/FTP/SMTP implementations.
//! * [`geneva`] — the Geneva DSL and packet-manipulation engine.
//! * [`censor`] — behavioral models of the GFW, Airtel, Iran, Kazakhstan.
//! * [`evolve`] — the genetic algorithm discovering strategies.
//! * [`strata`] — static analysis over Geneva strategies.
//! * [`dplane`] — the compiled server-side evasion data plane.
//! * [`svc`] — live-traffic socket front end + operator control plane.
//! * [`harness`] — experiment drivers reproducing every table & figure.

pub use appproto;
pub use censor;
pub use dplane;
pub use endpoint;
pub use evolve;
pub use geneva;
pub use harness;
pub use netsim;
pub use packet;
pub use strata;
pub use svc;

/// Shared command-line plumbing for the `cay` binary and the examples.
pub mod cli {
    /// Collect the process arguments (program name skipped), applying
    /// and stripping a `--jobs N` / `--jobs=N` flag if present. The
    /// flag pins the trial executor's worker count process-wide;
    /// results are bit-identical for any value.
    pub fn args_with_jobs() -> Vec<String> {
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
}
