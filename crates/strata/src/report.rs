//! Rendering for `cay verify`: one [`ReportEntry`] per strategy,
//! emitted as human-readable text, plain JSON, or SARIF 2.1.0 (the
//! static-analysis interchange format CI annotators consume).
//!
//! JSON is hand-rolled — the workspace deliberately carries no serde —
//! mirroring the `dplane::metrics` idiom.

use crate::canon::CanonKey;
use crate::censor_model::{CensorId, Verdict};
use crate::diagnostics::{line_col, Diagnostic, Severity};
use crate::lints::AMPLIFICATION_LIMIT;
use crate::unsafe_scan::UnsafeScanReport;

/// What the abstract interpreter proved (or failed to prove) about a
/// strategy's compiled program. Kept as plain data so `strata` never
/// needs to see `dplane`'s error types: the binary fills it in.
#[derive(Debug, Clone)]
pub struct ProgramFacts {
    /// All proof obligations discharged.
    pub verified: bool,
    /// The verifier's complaint when `verified` is false.
    pub error: Option<String>,
    /// Proved worst-case packet-stack depth (0 when unverified).
    pub max_stack: usize,
    /// Proved worst-case emissions per trigger packet (0 when
    /// unverified).
    pub max_emit: usize,
}

/// One strategy's verification record.
#[derive(Debug, Clone)]
pub struct ReportEntry {
    /// Display name (library strategy name, or `"cli"` for ad-hoc
    /// input). Doubles as the SARIF artifact URI.
    pub label: String,
    /// The strategy source the diagnostics' spans index into.
    pub source: String,
    /// Canonical form.
    pub canonical: String,
    /// Equivalence key of the canonical form.
    pub key: CanonKey,
    /// Some error diagnostic proves the strategy futile.
    pub statically_futile: bool,
    /// Lint findings, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-censor verdicts from the product model checker
    /// ([`crate::censor_model::check_all`]); empty when no censor was
    /// requested. Verdicts are informational — `ProvablyInert` means
    /// the censor provably sees an identity flow, never that the
    /// strategy is broken — so they do not affect [`failing`].
    ///
    /// [`failing`]: ReportEntry::failing
    pub verdicts: Vec<(CensorId, Verdict)>,
    /// Compiled-program proof facts (`None` when the strategy did not
    /// parse far enough to compile).
    pub program: Option<ProgramFacts>,
}

impl ReportEntry {
    /// This entry should fail a `cay verify` run: a futility proof,
    /// any error-severity diagnostic, or a program that failed
    /// verification.
    pub fn failing(&self) -> bool {
        self.statically_futile
            || self
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error)
            || self.program.as_ref().is_some_and(|p| !p.verified)
    }
}

/// Human-readable report.
pub fn render_text(entries: &[ReportEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!("== {} ==\n", e.label));
        out.push_str(&format!("   source:    {}\n", e.source.trim_end()));
        out.push_str(&format!("   canonical: {}\n", e.canonical.trim_end()));
        out.push_str(&format!("   key:       {}\n", e.key));
        match &e.program {
            Some(p) if p.verified => {
                out.push_str(&format!(
                    "   program:   verified (max stack {}, max emit {})\n",
                    p.max_stack, p.max_emit
                ));
                if p.max_emit >= AMPLIFICATION_LIMIT {
                    out.push_str(&format!(
                        "   warning[program-amplification]: proved emission bound {} \
                         meets the amplification threshold {}\n",
                        p.max_emit, AMPLIFICATION_LIMIT
                    ));
                }
            }
            Some(p) => {
                out.push_str(&format!(
                    "   program:   VERIFY FAILED: {}\n",
                    p.error.as_deref().unwrap_or("unknown")
                ));
            }
            None => {}
        }
        if !e.verdicts.is_empty() {
            let cells: Vec<String> = e
                .verdicts
                .iter()
                .map(|(id, v)| format!("{}={}", id.name(), v.token()))
                .collect();
            out.push_str(&format!("   censors:   {}\n", cells.join(" ")));
        }
        if e.statically_futile {
            out.push_str("   verdict:   statically futile\n");
        }
        for d in &e.diagnostics {
            for line in d.render(&e.source).lines() {
                out.push_str(&format!("   {line}\n"));
            }
        }
        if e.diagnostics.is_empty() {
            out.push_str("   no findings\n");
        }
    }
    let failing = entries.iter().filter(|e| e.failing()).count();
    out.push_str(&format!(
        "{} strategies, {} failing\n",
        entries.len(),
        failing
    ));
    out
}

/// Render the per-censor verdict matrix: one row per strategy, one
/// column per checked censor. The shape `cay verify --censor all`
/// prints (and CI diffs against its committed snapshot).
pub fn render_verdict_matrix(entries: &[ReportEntry]) -> String {
    let censors: Vec<CensorId> = entries
        .iter()
        .find(|e| !e.verdicts.is_empty())
        .map(|e| e.verdicts.iter().map(|(id, _)| *id).collect())
        .unwrap_or_default();
    if censors.is_empty() {
        return "no per-censor verdicts (run with --censor)\n".to_string();
    }
    let label_w = entries
        .iter()
        .map(|e| e.label.len())
        .chain(std::iter::once("strategy".len()))
        .max()
        .unwrap_or(0);
    let col_w = censors
        .iter()
        .map(|id| id.name().len())
        .chain(std::iter::once("desynced".len()))
        .max()
        .unwrap_or(0);
    let mut out = format!("{:label_w$}", "strategy");
    for id in &censors {
        out.push_str(&format!("  {:col_w$}", id.name()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(label_w + censors.len() * (col_w + 2)));
    out.push('\n');
    for e in entries {
        out.push_str(&format!("{:label_w$}", e.label));
        for id in &censors {
            let token = e
                .verdicts
                .iter()
                .find(|(v_id, _)| v_id == id)
                .map_or("-", |(_, v)| v.token());
            out.push_str(&format!("  {token:col_w$}"));
        }
        out.push('\n');
    }
    out
}

/// Minimal JSON string escaping — strategy DSL text contains `\` and
/// could contain `"` via replace values.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn opt_str(s: &Option<String>) -> String {
    match s {
        Some(s) => format!("\"{}\"", esc(s)),
        None => "null".into(),
    }
}

/// Plain JSON report: `{"strategies": [...], "failing": n}`.
pub fn render_json(entries: &[ReportEntry]) -> String {
    let items: Vec<String> = entries.iter().map(entry_json).collect();
    let failing = entries.iter().filter(|e| e.failing()).count();
    format!(
        "{{\"strategies\":[{}],\"failing\":{}}}\n",
        items.join(","),
        failing
    )
}

/// One [`ReportEntry`] as a JSON object — shared by [`render_json`]
/// and the control plane's reload responses ([`render_reload_json`]).
fn entry_json(e: &ReportEntry) -> String {
    {
        let diags: Vec<String> = e
            .diagnostics
            .iter()
            .map(|d| {
                let (line, col) = line_col(&e.source, d.span.start);
                format!(
                    "{{\"severity\":\"{}\",\"code\":\"{}\",\"start\":{},\"end\":{},\
                     \"line\":{line},\"col\":{col},\"message\":\"{}\",\
                     \"suggestion\":{},\"proves_futile\":{}}}",
                    d.severity,
                    d.code,
                    d.span.start,
                    d.span.end,
                    esc(&d.message),
                    opt_str(&d.suggestion),
                    d.proves_futile
                )
            })
            .collect();
        let program = match &e.program {
            Some(p) => format!(
                "{{\"verified\":{},\"error\":{},\"max_stack\":{},\"max_emit\":{}}}",
                p.verified,
                opt_str(&p.error),
                p.max_stack,
                p.max_emit
            ),
            None => "null".into(),
        };
        let verdicts: Vec<String> = e
            .verdicts
            .iter()
            .map(|(id, v)| {
                format!(
                    "{{\"censor\":\"{}\",\"verdict\":\"{}\"}}",
                    id.name(),
                    v.token()
                )
            })
            .collect();
        format!(
            "{{\"label\":\"{}\",\"source\":\"{}\",\"canonical\":\"{}\",\"key\":\"{}\",\
             \"statically_futile\":{},\"diagnostics\":[{}],\"verdicts\":[{}],\"program\":{}}}",
            esc(&e.label),
            esc(&e.source),
            esc(&e.canonical),
            e.key,
            e.statically_futile,
            diags.join(","),
            verdicts.join(","),
            program
        )
    }
}

/// The hot-reload verdict document served by `POST /config`: whether
/// the new configuration was applied, the full verification record of
/// every candidate strategy (diagnostics with spans, per-censor
/// verdicts, compiled-program proof facts), and — when refused — the
/// gate's complaint. A refusal response is the operator's only window
/// into *why* the old program stayed live, so it carries the same
/// entry detail as `cay verify --format json`.
pub fn render_reload_json(applied: bool, entries: &[ReportEntry], error: Option<&str>) -> String {
    let items: Vec<String> = entries.iter().map(entry_json).collect();
    format!(
        "{{\"applied\":{applied},\"error\":{},\"strategies\":[{}]}}\n",
        opt_str(&error.map(String::from)),
        items.join(",")
    )
}

/// One SARIF result line. `properties` is a pre-rendered JSON object
/// for the result's property bag, or empty for none.
#[allow(clippy::too_many_arguments)] // flat mirror of the SARIF result shape
fn sarif_result(
    rule: &str,
    level: &str,
    message: &str,
    uri: &str,
    source: &str,
    start: usize,
    end: usize,
    properties: &str,
) -> String {
    let (line, col) = line_col(source, start);
    let props = if properties.is_empty() {
        String::new()
    } else {
        format!(",\"properties\":{properties}")
    };
    format!(
        "{{\"ruleId\":\"{}\",\"level\":\"{level}\",\"message\":{{\"text\":\"{}\"}},\
         \"locations\":[{{\"physicalLocation\":{{\
         \"artifactLocation\":{{\"uri\":\"{}\"}},\
         \"region\":{{\"startLine\":{line},\"startColumn\":{col},\
         \"charOffset\":{start},\"charLength\":{}}}}}}}]{props}}}",
        esc(rule),
        esc(message),
        esc(uri),
        end.saturating_sub(start)
    )
}

/// Rule metadata for the SARIF `tool.driver.rules` table: a
/// one-sentence `fullDescription` plus a `helpUri` into the design
/// docs. Every lint code and synthetic rule the reporter can emit has
/// a row (the `sarif_rules_all_have_help` test enforces it).
fn rule_help(id: &str) -> (&'static str, &'static str) {
    const LINTS_URI: &str = "DESIGN.md#7-strata-static-analysis-of-strategies";
    const ABSINT_URI: &str =
        "DESIGN.md#11-strataabsint-abstract-interpretation-and-proof-gated-compilation";
    const CENSOR_URI: &str = "DESIGN.md#12-stratacensor_model-per-censor-product-model-checking";
    const UNSAFE_URI: &str = "DESIGN.md#17-the-unsafe-confinement-gate";
    match id {
        "dead-branch" => (
            "The trigger compares a field against a value it can never hold, so the part never fires.",
            LINTS_URI,
        ),
        "shadowed-trigger" => (
            "A later part repeats an earlier part's trigger; first-match-wins makes it unreachable.",
            LINTS_URI,
        ),
        "client-side-action-in-server-strategy" => (
            "The outbound tree triggers on a client-sent packet the server never forwards.",
            LINTS_URI,
        ),
        "ttl-unreachable" => (
            "The written TTL dies before the censoring middlebox, so the packet influences nothing.",
            LINTS_URI,
        ),
        "degenerate-fragment" => (
            "The fragment action cannot split the packet (offset 0 or past the payload).",
            LINTS_URI,
        ),
        "checksum-futile" => (
            "Every emitted copy carries a broken checksum, so no endpoint stack accepts any of them.",
            LINTS_URI,
        ),
        "dup-amplification" => (
            "Worst-case emission count per trigger packet meets the amplification threshold.",
            LINTS_URI,
        ),
        "no-op-chain" => (
            "The whole action tree canonicalizes to a bare send — it does exactly nothing.",
            LINTS_URI,
        ),
        "handshake-severed" => (
            "No emitted packet can advance the client out of SYN_SENT; no connection ever completes.",
            LINTS_URI,
        ),
        "seq-desync-kills-client" => (
            "Every handshake-advancing packet rewrites TCP seq; the server ignores the client's ack forever.",
            LINTS_URI,
        ),
        "ack-desync-kills-client" => (
            "Every handshake-advancing packet rewrites TCP ack; the client answers with a RST.",
            LINTS_URI,
        ),
        "deliverable-rst-resets-client" => (
            "A valid RST+ACK definitely reaches the client before any handshake-completing packet.",
            LINTS_URI,
        ),
        "window-zero-stalls-client" => (
            "The delivered SYN+ACK advertises a zero receive window; the client cannot send data.",
            LINTS_URI,
        ),
        "checksum-left-broken-reaches-client" => (
            "A data-bearing packet reaches the client with its checksum still broken and is dropped there.",
            LINTS_URI,
        ),
        "synack-payload-compat" => (
            "The real SYN+ACK is delivered carrying a payload; client stacks differ on accepting it.",
            LINTS_URI,
        ),
        "resync-invariant" => (
            "The part injects a RST to resynchronize the censor, but the modeled censor ignores RSTs.",
            LINTS_URI,
        ),
        "program-verify-failed" => (
            "The abstract interpreter could not discharge the compiled program's proof obligations.",
            ABSINT_URI,
        ),
        "program-amplification" => (
            "The proved worst-case emission bound meets the amplification threshold.",
            ABSINT_URI,
        ),
        "censor-verdict" => (
            "Per-censor verdicts from the censor-product model checker: provably inert, provably desynced, or unknown.",
            CENSOR_URI,
        ),
        "unsafe-confinement" => (
            "The `unsafe` keyword appears outside the workspace's audited files (the svc FFI shim and the bench counting allocator).",
            UNSAFE_URI,
        ),
        _ => ("", LINTS_URI),
    }
}

/// SARIF 2.1.0 report. Diagnostics map one-to-one onto results; three
/// synthetic rules surface analysis-level facts: `program-verify-failed`
/// (the abstract interpreter refused the compiled program),
/// `program-amplification` (the proved emission bound meets the
/// [`AMPLIFICATION_LIMIT`] threshold), and `censor-verdict` (one
/// note-level result per entry carrying the per-censor verdict matrix
/// in its property bag). Every rule in `tool.driver.rules` carries a
/// `fullDescription` and a `helpUri` into `DESIGN.md`.
pub fn render_sarif(entries: &[ReportEntry]) -> String {
    let mut rules: Vec<&str> = Vec::new();
    let note_rule = |rules: &mut Vec<&str>, id: &'static str| {
        if !rules.contains(&id) {
            rules.push(id);
        }
    };
    let mut results = Vec::new();
    for e in entries {
        for d in &e.diagnostics {
            let level = match d.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            results.push(sarif_result(
                d.code,
                level,
                &d.message,
                &e.label,
                &e.source,
                d.span.start,
                d.span.end,
                "",
            ));
        }
        if !e.verdicts.is_empty() {
            note_rule(&mut rules, "censor-verdict");
            let summary: Vec<String> = e
                .verdicts
                .iter()
                .map(|(id, v)| format!("{}={}", id.name(), v.token()))
                .collect();
            let props: Vec<String> = e
                .verdicts
                .iter()
                .map(|(id, v)| format!("\"{}\":\"{}\"", id.name(), v.token()))
                .collect();
            results.push(sarif_result(
                "censor-verdict",
                "note",
                &format!("per-censor static verdicts: {}", summary.join(", ")),
                &e.label,
                &e.source,
                0,
                e.source.len(),
                &format!("{{\"verdicts\":{{{}}}}}", props.join(",")),
            ));
        }
        match &e.program {
            Some(p) if !p.verified => {
                note_rule(&mut rules, "program-verify-failed");
                results.push(sarif_result(
                    "program-verify-failed",
                    "error",
                    &format!(
                        "compiled program failed verification: {}",
                        p.error.as_deref().unwrap_or("unknown")
                    ),
                    &e.label,
                    &e.source,
                    0,
                    e.source.len(),
                    "",
                ));
            }
            Some(p) if p.max_emit >= AMPLIFICATION_LIMIT => {
                note_rule(&mut rules, "program-amplification");
                results.push(sarif_result(
                    "program-amplification",
                    "warning",
                    &format!(
                        "proved worst-case emission bound {} meets the amplification \
                         threshold {AMPLIFICATION_LIMIT}",
                        p.max_emit
                    ),
                    &e.label,
                    &e.source,
                    0,
                    e.source.len(),
                    "",
                ));
            }
            _ => {}
        }
    }
    for e in entries {
        for d in &e.diagnostics {
            note_rule(&mut rules, d.code);
        }
    }
    rules.sort_unstable();
    let rules_json: Vec<String> = rules
        .iter()
        .map(|id| {
            let (description, help_uri) = rule_help(id);
            format!(
                "{{\"id\":\"{}\",\"fullDescription\":{{\"text\":\"{}\"}},\
                 \"helpUri\":\"{}\"}}",
                esc(id),
                esc(description),
                esc(help_uri)
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"cay-verify\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}\n",
        rules_json.join(","),
        results.join(",")
    )
}

/// Human-readable unsafe-confinement report.
pub fn render_unsafe_text(report: &UnsafeScanReport) -> String {
    let mut out = format!(
        "unsafe-confinement: {} files scanned, {} audited files, {} findings\n",
        report.files_scanned,
        report.allowed_files.len(),
        report.findings.len()
    );
    for file in &report.allowed_files {
        out.push_str(&format!("   audited:  {file}\n"));
    }
    for f in &report.findings {
        let (line, col) = line_col(&f.source, f.offset);
        out.push_str(&format!(
            "   error[unsafe-confinement]: {}:{line}:{col}: {}\n",
            f.file, f.excerpt
        ));
    }
    if report.clean() {
        out.push_str("   confinement holds\n");
    }
    out
}

/// Plain JSON unsafe-confinement report.
pub fn render_unsafe_json(report: &UnsafeScanReport) -> String {
    let allowed: Vec<String> = report
        .allowed_files
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            let (line, col) = line_col(&f.source, f.offset);
            format!(
                "{{\"file\":\"{}\",\"offset\":{},\"line\":{line},\"col\":{col},\
                 \"excerpt\":\"{}\"}}",
                esc(&f.file),
                f.offset,
                esc(&f.excerpt)
            )
        })
        .collect();
    format!(
        "{{\"files_scanned\":{},\"allowed_files\":[{}],\"findings\":[{}],\"clean\":{}}}\n",
        report.files_scanned,
        allowed.join(","),
        findings.join(","),
        report.clean()
    )
}

/// SARIF 2.1.0 unsafe-confinement report: one `unsafe-confinement`
/// result per escaped keyword, under the same tool driver as the
/// strategy reports so CI annotators treat both uniformly.
pub fn render_unsafe_sarif(report: &UnsafeScanReport) -> String {
    let results: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            sarif_result(
                "unsafe-confinement",
                "error",
                &format!("keyword escaped the audited files: {}", f.excerpt),
                &f.file,
                &f.source,
                f.offset,
                f.offset + f.len,
                "",
            )
        })
        .collect();
    let (description, help_uri) = rule_help("unsafe-confinement");
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"cay-verify\",\"rules\":[{{\"id\":\"unsafe-confinement\",\
         \"fullDescription\":{{\"text\":\"{}\"}},\"helpUri\":\"{}\"}}]}}}},\
         \"results\":[{}]}}]}}\n",
        esc(description),
        esc(help_uri),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use crate::analyze;
    use geneva::parse_strategy;

    fn entry(source: &str, verified: bool) -> ReportEntry {
        let strategy = parse_strategy(source).unwrap();
        let a = analyze(&strategy);
        ReportEntry {
            label: "test".into(),
            source: source.into(),
            canonical: a.canonical.to_string(),
            key: a.key,
            statically_futile: a.statically_futile,
            diagnostics: a.diagnostics,
            verdicts: crate::censor_model::check_all(&crate::summarize(&strategy)),
            program: Some(ProgramFacts {
                verified,
                error: (!verified).then(|| "op 1 jumps backward to 0".into()),
                max_stack: 2,
                max_emit: 2,
            }),
        }
    }

    #[test]
    fn text_report_counts_failures() {
        let ok = entry("[TCP:flags:SA]-duplicate(,)-| \\/ ", true);
        let bad = entry("[TCP:flags:SA]-drop-| \\/ ", true);
        let text = render_text(&[ok, bad]);
        assert!(text.contains("2 strategies, 1 failing"), "{text}");
        assert!(text.contains("handshake-severed"), "{text}");
    }

    #[test]
    fn json_report_is_structurally_sound() {
        let json = render_json(&[entry("[TCP:flags:SA]-drop-| \\/ ", true)]);
        assert!(json.contains("\"statically_futile\":true"), "{json}");
        assert!(json.contains("\"code\":\"handshake-severed\""), "{json}");
        assert!(json.contains("\"line\":1"), "{json}");
        // Balanced braces/brackets — the usual hand-rolled-JSON slip.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn sarif_report_carries_rules_and_locations() {
        let sarif = render_sarif(&[entry("[TCP:flags:SA]-drop-| \\/ ", true)]);
        assert!(sarif.contains("\"version\":\"2.1.0\""), "{sarif}");
        assert!(
            sarif.contains("\"ruleId\":\"handshake-severed\""),
            "{sarif}"
        );
        assert!(sarif.contains("\"startLine\":1"), "{sarif}");
        assert!(sarif.contains("{\"id\":\"handshake-severed\""), "{sarif}");
        // Rule metadata: every rule row documents itself.
        assert!(
            sarif.contains("\"fullDescription\":{\"text\":\"No emitted packet"),
            "{sarif}"
        );
        assert!(
            sarif.contains("\"helpUri\":\"DESIGN.md#7-strata-static-analysis-of-strategies\""),
            "{sarif}"
        );
    }

    #[test]
    fn sarif_rules_all_have_help() {
        for id in [
            "dead-branch",
            "shadowed-trigger",
            "client-side-action-in-server-strategy",
            "ttl-unreachable",
            "degenerate-fragment",
            "checksum-futile",
            "dup-amplification",
            "no-op-chain",
            "handshake-severed",
            "seq-desync-kills-client",
            "ack-desync-kills-client",
            "deliverable-rst-resets-client",
            "window-zero-stalls-client",
            "checksum-left-broken-reaches-client",
            "synack-payload-compat",
            "resync-invariant",
            "program-verify-failed",
            "program-amplification",
            "censor-verdict",
            "unsafe-confinement",
        ] {
            let (description, uri) = rule_help(id);
            assert!(!description.is_empty(), "no fullDescription for {id}");
            assert!(uri.starts_with("DESIGN.md#"), "bad helpUri for {id}");
        }
    }

    #[test]
    fn verdicts_render_in_every_format() {
        // Strategy 11's shape: provably desynced against Kazakhstan,
        // unknown against the stochastic GFW.
        let e = entry(
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/ ",
            true,
        );
        assert!(!e.verdicts.is_empty());

        let text = render_text(std::slice::from_ref(&e));
        assert!(text.contains("censors:"), "{text}");
        assert!(text.contains("Kazakhstan=desynced"), "{text}");
        assert!(text.contains("GFW=unknown"), "{text}");

        let json = render_json(std::slice::from_ref(&e));
        assert!(
            json.contains("{\"censor\":\"Kazakhstan\",\"verdict\":\"desynced\"}"),
            "{json}"
        );

        let sarif = render_sarif(std::slice::from_ref(&e));
        assert!(sarif.contains("\"ruleId\":\"censor-verdict\""), "{sarif}");
        assert!(sarif.contains("\"level\":\"note\""), "{sarif}");
        assert!(sarif.contains("\"properties\":{\"verdicts\":{"), "{sarif}");
        assert!(sarif.contains("\"Kazakhstan\":\"desynced\""), "{sarif}");
        assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());

        let matrix = render_verdict_matrix(std::slice::from_ref(&e));
        assert!(matrix.starts_with("strategy"), "{matrix}");
        assert!(matrix.contains("GFW"), "{matrix}");
        assert!(matrix.contains("desynced"), "{matrix}");
    }

    #[test]
    fn verdict_matrix_without_verdicts_points_at_the_flag() {
        let mut e = entry("[TCP:flags:SA]-duplicate(,)-| \\/ ", true);
        e.verdicts.clear();
        let matrix = render_verdict_matrix(&[e]);
        assert!(matrix.contains("--censor"), "{matrix}");
    }

    #[test]
    fn unsafe_scan_renders_in_every_format() {
        use crate::unsafe_scan::{UnsafeFinding, UnsafeScanReport};
        // Assembled at runtime so this test file never matches its own
        // scanner.
        let kw = ["un", "safe"].concat();
        let source = format!("fn a() {{}}\n{kw} fn b() {{}}\n");
        let report = UnsafeScanReport {
            files_scanned: 2,
            allowed_files: vec!["crates/svc/src/sys/ffi.rs".into()],
            findings: vec![UnsafeFinding {
                file: "crates/x/src/lib.rs".into(),
                source: source.clone(),
                offset: 10,
                len: kw.len(),
                excerpt: source.lines().nth(1).unwrap().to_string(),
            }],
        };

        let text = render_unsafe_text(&report);
        assert!(text.contains("2 files scanned"), "{text}");
        assert!(
            text.contains("audited:  crates/svc/src/sys/ffi.rs"),
            "{text}"
        );
        assert!(
            text.contains("error[unsafe-confinement]: crates/x/src/lib.rs:2:1"),
            "{text}"
        );

        let json = render_unsafe_json(&report);
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"line\":2"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let sarif = render_unsafe_sarif(&report);
        assert!(
            sarif.contains("\"ruleId\":\"unsafe-confinement\""),
            "{sarif}"
        );
        assert!(sarif.contains("\"startLine\":2"), "{sarif}");
        assert!(
            sarif.contains("\"helpUri\":\"DESIGN.md#17-the-unsafe-confinement-gate\""),
            "{sarif}"
        );
        assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());

        let clean = UnsafeScanReport {
            files_scanned: 2,
            allowed_files: Vec::new(),
            findings: Vec::new(),
        };
        assert!(render_unsafe_text(&clean).contains("confinement holds"));
        assert!(render_unsafe_json(&clean).contains("\"clean\":true"));
    }

    #[test]
    fn sarif_reports_verify_failures() {
        let sarif = render_sarif(&[entry("[TCP:flags:SA]-duplicate(,)-| \\/ ", false)]);
        assert!(
            sarif.contains("\"ruleId\":\"program-verify-failed\""),
            "{sarif}"
        );
        assert!(sarif.contains("\"level\":\"error\""), "{sarif}");
    }
}
