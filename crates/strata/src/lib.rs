//! `strata` — static analysis for Geneva strategies.
//!
//! Three passes over the `geneva::ast` tree, run before a strategy
//! ever reaches the simulator:
//!
//! 1. [`canonicalize`] rewrites a strategy to a normal form that
//!    preserves engine semantics byte-for-byte, collapsing dead
//!    subtrees and folding shadowed tampers, and exposes a stable
//!    [`CanonKey`] equivalence hash;
//! 2. [`lint`] emits a stream of [`Diagnostic`]s — machine-readable
//!    findings with severities, stable codes, and byte-offset spans
//!    into the strategy source;
//! 3. [`analyze`] combines both into the verdict the evolution
//!    harness consumes (canonical form + key + diagnostics + an
//!    is-it-even-worth-simulating flag).
//!
//! Underneath the lints sits [`absint`], an abstract interpreter with
//! two front ends: `FieldEffect` summaries over strategy trees (what
//! each emitted packet provably looks like) and a stack-machine
//! verifier over lowered `dplane` programs (no underflow, forward-only
//! control flow, bounded amplification). [`censor_model`] closes the
//! loop per censor: declarative abstract automata for the paper's four
//! censors plus a product-construction checker over the `absint`
//! summaries, yielding three-valued per-censor verdicts. [`report`]
//! renders the combined verdicts as text, JSON, or SARIF for
//! `cay verify`, writing JSON through [`json::Json`], the workspace's
//! one JSON writer.

#![forbid(unsafe_code)]

pub mod absint;
pub mod canon;
pub mod censor_model;
pub mod diagnostics;
pub mod json;
pub mod lints;
pub mod report;
pub mod unsafe_scan;

pub use absint::{
    summarize, verify_ops, AbsOp, OpsProof, PathEffect, StrategySummary, TamperKind, VerifyError,
};
pub use canon::{canonicalize, canonicalize_strategy, CanonKey};
pub use censor_model::{CensorId, Verdict};
pub use diagnostics::{line_col, Diagnostic, Severity};
pub use lints::{lint, lint_strategy, AMPLIFICATION_LIMIT};
pub use report::{render_verdict_matrix, ProgramFacts, ReportEntry};
pub use unsafe_scan::{scan_unsafe, UnsafeFinding, UnsafeScanReport, UNSAFE_ALLOWLIST};

/// Everything the harness wants to know about a strategy before
/// spending simulator time on it.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The strategy rewritten to canonical form.
    pub canonical: geneva::Strategy,
    /// Equivalence-class hash of the canonical form.
    pub key: CanonKey,
    /// All lint findings, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// True when some `Severity::Error` diagnostic proves the strategy
    /// cannot possibly beat the identity strategy (e.g. it is a
    /// semantic no-op, or every emitted packet dies in transit).
    pub statically_futile: bool,
}

/// Run the full pipeline on one strategy.
pub fn analyze(strategy: &geneva::Strategy) -> Analysis {
    let canonical = canonicalize_strategy(strategy);
    let key = CanonKey::of(&canonical);
    let diagnostics = lint_strategy(strategy);
    let statically_futile = diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error && d.proves_futile);
    Analysis {
        canonical,
        key,
        diagnostics,
        statically_futile,
    }
}
