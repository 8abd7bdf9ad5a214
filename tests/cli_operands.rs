#![allow(clippy::unwrap_used)] // test code
//! Bad operands to `cay evolve`, `table2`, `multibox` and `followups`
//! exit 2 with a usage message before any experiment runs, instead of
//! silently falling back to a default.

use std::process::Output;

fn cay(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(args)
        .output()
        .unwrap()
}

/// Exit status 2, a message naming the bad operand and the usage, no
/// panic, and nothing on stdout (no experiment ran).
fn assert_usage_error(args: &[&str], bad: &str) {
    let out = cay(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(bad), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: cay"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: no experiment output");
}

#[test]
fn evolve_rejects_an_unknown_country() {
    assert_usage_error(&["evolve", "germany"], "unknown country germany");
}

#[test]
fn evolve_rejects_an_unknown_protocol() {
    assert_usage_error(&["evolve", "china", "gopher"], "unknown protocol gopher");
    assert_usage_error(&["evolve", "Iran", "dnsx"], "unknown protocol dnsx");
}

#[test]
fn trial_counts_must_be_positive_integers() {
    assert_usage_error(&["table2", "abc"], "abc is not a trial count");
    assert_usage_error(&["multibox", "0"], "0 is not a trial count");
    assert_usage_error(&["followups", "-5"], "-5 is not a trial count");
}
