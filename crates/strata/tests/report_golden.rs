#![allow(clippy::unwrap_used)] // test code
//! Byte-identity goldens for the `cay verify` renderers on inputs the
//! built-in library never produces: DSL text with `"` and `\`, a
//! non-ASCII label, a control character in a verifier error, a refused
//! program, an amplification bound, an entry without a program, reload
//! verdict documents, and unsafe-confinement reports. The committed
//! file is the contract; a diff against it is a change to a public
//! output format.

use strata::report::{
    render_json, render_reload_json, render_sarif, render_unsafe_json, render_unsafe_sarif,
};
use strata::{ProgramFacts, ReportEntry, UnsafeFinding, UnsafeScanReport, AMPLIFICATION_LIMIT};

fn entry(label: &str, source: &str, program: Option<ProgramFacts>) -> ReportEntry {
    let (mut entry, _) = ReportEntry::from_source(label, source).unwrap();
    entry.program = program;
    entry
}

fn entries() -> Vec<ReportEntry> {
    vec![
        entry(
            "lib/é \"quoted\"",
            "[TCP:flags:SA]-tamper{TCP:load:replace:a\"b\\c}(drop,)-| \
             [TCP:flags:A]-tamper{IP:ttl:replace:2}-| \\/",
            Some(ProgramFacts {
                verified: false,
                error: Some("op 1 jumps \"backward\"\tto 0\u{1}".into()),
                max_stack: 0,
                max_emit: 0,
            }),
        ),
        entry(
            "cli",
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/ ",
            Some(ProgramFacts {
                verified: true,
                error: None,
                max_stack: 2,
                max_emit: AMPLIFICATION_LIMIT,
            }),
        ),
        entry("no-program", "[TCP:flags:SA]-duplicate(,)-| \\/ ", None),
    ]
}

fn unsafe_reports() -> [UnsafeScanReport; 2] {
    // Assembled at runtime so this file never matches the scanner.
    let kw = ["un", "safe"].concat();
    let source = format!("fn a() {{}}\n{kw} fn b() {{ \"\\\" }}\n");
    let finding = UnsafeFinding {
        file: "crates/x/src/lib.rs".into(),
        source: source.clone(),
        offset: 10,
        len: kw.len(),
        excerpt: source.lines().nth(1).unwrap().to_string(),
    };
    [
        UnsafeScanReport {
            files_scanned: 2,
            allowed_files: vec!["crates/svc/src/sys/ffi.rs".into()],
            findings: vec![finding],
        },
        UnsafeScanReport {
            files_scanned: 7,
            ..UnsafeScanReport::default()
        },
    ]
}

/// Every document, one per line (each renderer ends its document with
/// a newline).
fn documents() -> String {
    let entries = entries();
    let mut out = String::new();
    out.push_str(&render_json(&entries));
    out.push_str(&render_sarif(&entries));
    out.push_str(&render_reload_json(
        false,
        &entries,
        Some("arm0: \"refused\" \\ here"),
    ));
    out.push_str(&render_reload_json(true, &entries[1..2], None));
    out.push_str(&render_reload_json(false, &[], Some("1:4: bad prefix")));
    for report in &unsafe_reports() {
        out.push_str(&render_unsafe_json(report));
        out.push_str(&render_unsafe_sarif(report));
    }
    out
}

#[test]
fn report_documents_match_the_committed_golden() {
    let actual = documents();
    let golden = include_str!("golden/report_documents.jsonl");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "document {i} differs");
    }
    assert_eq!(actual, golden);
}
