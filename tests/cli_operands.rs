#![allow(clippy::unwrap_used)] // test code
//! Bad operands to `cay evolve`, `table2`, `multibox`, `followups`,
//! `verify` and `serve` exit 2 with a usage message before any
//! experiment runs or socket binds, instead of silently falling back to
//! a default.

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

#[test]
fn verify_rejects_unknown_options_and_missing_values() {
    let dsl = "[TCP:flags:SA]-duplicate(,)-| \\/";
    assert_usage_error(&["verify", "--verbose", dsl], "unknown option --verbose");
    assert_usage_error(&["verify", dsl, "--format"], "--format needs a value");
    assert_usage_error(
        &["verify", "--formt", "json", dsl],
        "unknown option --formt",
    );
    assert_usage_error(
        &["verify", "--library", "--censor"],
        "--censor needs a value",
    );
    assert_usage_error(&["verify", dsl, dsl], "unexpected argument");
    assert_usage_error(&["verify", "--format", "yaml", dsl], "unknown --format");
    assert_usage_error(&["verify", "--censor", "gfx", dsl], "unknown --censor");
}

#[test]
fn lint_is_an_unknown_command() {
    let out = cay(&["lint", "x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: cay [--jobs N]"), "{stderr}");
    assert!(!stderr.contains("lint"), "{stderr}");
}

#[test]
fn verify_points_a_caret_at_a_parse_error() {
    // Both inputs end where `)` is expected: the caret sits one past
    // the `(`, counted in characters, not bytes.
    for dsl in ["[TCP:flags:SA]-duplicate(", "[TCP:load:éé]-duplicate("] {
        let out = cay(&["verify", dsl]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("strategy does not parse"), "{stderr}");
        assert!(
            stderr.contains(&format!("at byte {}", dsl.len())),
            "{stderr}"
        );
        let lines: Vec<&str> = stderr.lines().collect();
        let caret = lines.iter().position(|l| l.trim() == "^").unwrap();
        assert_eq!(lines[caret - 1], format!("  {dsl}"), "{stderr}");
        let column = lines[caret].chars().count() - 1;
        assert_eq!(column, 2 + dsl.chars().count(), "{stderr}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn serve_refuses_a_control_address_off_loopback() {
    assert_usage_error(
        &["serve", "--control", "0.0.0.0:0"],
        "--control 0.0.0.0:0 is not a loopback address",
    );
}

/// The bridge sends from an IPv4 socket, so an IPv6 `--upstream` is
/// refused at bind instead of turning every upstream frame unroutable.
#[test]
fn serve_refuses_an_ipv6_upstream_before_serving() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(["serve", "--udp", "127.0.0.1:0", "--control", "127.0.0.1:0"])
        .args(["--upstream", "[::1]:7072"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bind failed"), "{stderr}");
    assert!(!stderr.contains("serving:"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// The table `cay serve` starts with passes the reload gates: an arm a
/// `POST /config` would refuse with 422 stops the service before it
/// binds, with the same body on stdout.
#[test]
fn serve_refuses_a_startup_table_the_reload_gates_refuse() {
    fn duplicate_tree(depth: u32) -> String {
        match depth {
            1 => "duplicate".to_string(),
            _ => {
                let half = duplicate_tree(depth - 1);
                format!("duplicate({half},{half})")
            }
        }
    }
    let path = std::env::temp_dir().join(format!("cay-startup-{}.rollout", std::process::id()));
    let table = format!(
        "10.7.0.0/16 100 [TCP:flags:SA]-{}-| \\/\n",
        duplicate_tree(8)
    );
    std::fs::write(&path, table).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(["serve", "--udp", "127.0.0.1:0", "--control", "127.0.0.1:0"])
        .arg("--rollout")
        .arg(&path)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // A service that started anyway would run until shut down.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("startup rollout table is refused"),
        "{stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("../crates/svc/tests/golden/reload_amplifier.json")
    );
}
