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
//! 3. [`ReportEntry::from_source`] combines both, plus the per-censor
//!    verdicts, into one strategy's verification record, built from
//!    the very text the report prints (`dplane::verify` adds the
//!    compiled program's proof facts).
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
pub use lints::{lint, lint_strategy};
pub use report::{render_verdict_matrix, ProgramFacts, ReportEntry, AMPLIFICATION_LIMIT};
pub use unsafe_scan::{scan_unsafe, UnsafeFinding, UnsafeScanReport, UNSAFE_ALLOWLIST};
