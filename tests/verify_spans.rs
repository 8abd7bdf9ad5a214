#![allow(clippy::unwrap_used)] // test code
//! Every diagnostic span in a verification record indexes the text the
//! record prints, and covers exactly the construct it flags: a part
//! span runs from its `[` to its `-|`, a trigger span is the bracketed
//! trigger, and a node span starts with its action keyword. Checked on
//! both operator surfaces — `cay verify --format json` and the
//! `POST /config` verdict body — over the strategy library, the reload
//! and report golden inputs, and hand-written text that is not in the
//! strategy's display form (extra spaces, bare `duplicate`, a shadowed
//! second part).

use appproto::AppProtocol;
use harness::deploy::{demo_geo_entries, GeoTable};

/// Inputs whose spans differ from their display form's.
const HAND_WRITTEN: &[&str] = &[
    "[TCP:flags:SA]-duplicate(    tamper{IP:ttl:replace:2},)-| \\/",
    "[TCP:flags:SA]-duplicate(duplicate,  tamper{IP:ttl:replace:2})-| \\/",
    "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate,)-|  \\/",
    "[TCP:flags:SA]-duplicate(duplicate(drop,drop),duplicate(drop,))-| \\/",
    "[TCP:flags:SA]-drop-|   [TCP:flags:SA]-duplicate-| \\/",
    "[TCP:sport:70000]-drop-|  [TCP:flags:SA]-fragment{tcp:0:True}( tamper{IP:ttl:replace:2},)-| \\/",
    " \\/  [TCP:flags:R]-tamper{TCP:chksum:corrupt}-|",
    "[TCP:flags:S]-drop-|  [TCP:flags:SA]-duplicate( fragment{udp:0:True}(,),)-| \\/",
];

/// The reload golden inputs (`crates/svc/tests/reload_props.rs`) and
/// the report golden inputs (`crates/strata/tests/report_golden.rs`).
const GOLDEN_INPUTS: &[&str] = &[
    "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/",
    "[TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/",
    "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/",
    "[TCP:flags:SA]-tamper{TCP:load:replace:a\"b}(drop,)-| \\/",
    "[TCP:flags:SA]-duplicate(,)-| \\/",
    "[TCP:flags:SA]-tamper{TCP:load:replace:a\"b\\c}(drop,)-| [TCP:flags:A]-tamper{IP:ttl:replace:2}-| \\/",
    "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/ ",
    "[TCP:flags:SA]-duplicate(,)-| \\/ ",
];

fn inputs() -> Vec<&'static str> {
    geneva::library::server_side()
        .iter()
        .chain(geneva::library::variants().iter())
        .map(|named| named.text)
        .chain(GOLDEN_INPUTS.iter().copied())
        .chain(HAND_WRITTEN.iter().copied())
        .collect()
}

/// `(code, start, end)` of every diagnostic in a report document.
fn diagnostics(doc: &str) -> Vec<(String, usize, usize)> {
    let number = |rest: &str, key: &str| -> usize {
        let at = rest.find(key).unwrap() + key.len();
        let digits: String = rest[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    doc.split("\"code\":\"")
        .skip(1)
        .map(|rest| {
            let code = rest[..rest.find('"').unwrap()].to_string();
            (code, number(rest, "\"start\":"), number(rest, "\"end\":"))
        })
        .collect()
}

const KEYWORDS: &[&str] = &["duplicate", "fragment", "tamper", "drop", "send"];

/// Assert one diagnostic's span is in bounds, on char boundaries, and
/// covers exactly the construct its code flags.
fn check_span(surface: &str, source: &str, (code, start, end): &(String, usize, usize)) {
    let at = format!("{surface}: {code} at {start}..{end} in {source:?}");
    assert!(start <= end && *end <= source.len(), "{at}: out of bounds");
    assert!(
        source.is_char_boundary(*start) && source.is_char_boundary(*end),
        "{at}: not on char boundaries"
    );
    let text = &source[*start..*end];
    let part = text.starts_with('[') && text.ends_with("-|") && text.matches("-|").count() == 1;
    let trigger = text.starts_with('[') && text.ends_with(']') && text.matches(']').count() == 1;
    let node = KEYWORDS.iter().any(|k| text.starts_with(k))
        && !text.ends_with(char::is_whitespace)
        && text.matches('(').count() == text.matches(')').count()
        && text.matches('{').count() == text.matches('}').count();
    let covered = match code.as_str() {
        "dead-branch" | "shadowed-trigger" | "client-side-action-in-server-strategy" => trigger,
        "ttl-unreachable" | "degenerate-fragment" => node,
        "checksum-futile" => node || part,
        _ => part,
    };
    assert!(covered, "{at}: covers {text:?}");
}

#[test]
fn cay_verify_spans_cover_exactly_the_flagged_construct() {
    let mut checked = 0;
    for source in inputs() {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cay"))
            .args(["verify", "--format", "json", source])
            .output()
            .unwrap();
        let found = diagnostics(&String::from_utf8(out.stdout).unwrap());
        assert!(
            !found.is_empty() || !HAND_WRITTEN.contains(&source),
            "{source:?}: a hand-written input must be flagged"
        );
        for d in &found {
            check_span("cay verify", source, d);
            checked += 1;
        }
    }
    assert!(checked >= 18, "only {checked} diagnostics checked");
}

#[test]
fn reload_body_spans_cover_exactly_the_flagged_construct() {
    let geo = GeoTable::new(demo_geo_entries());
    let mut checked = 0;
    for source in inputs() {
        let outcome = svc::vet_config(
            &format!("10.7.0.0/16 100 {source}\n"),
            &geo,
            AppProtocol::Http,
        );
        // The rollout grammar trims the arm's text.
        let arm = source.trim();
        assert!(
            outcome.body.contains("\"strategies\":[{"),
            "{}",
            outcome.body
        );
        for d in &diagnostics(&outcome.body) {
            check_span("POST /config", arm, d);
            checked += 1;
        }
    }
    assert!(checked >= 18, "only {checked} diagnostics checked");
}
