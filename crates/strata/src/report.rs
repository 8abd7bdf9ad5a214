//! Rendering for `cay verify`: one [`ReportEntry`] per strategy,
//! emitted as human-readable text, plain JSON, or SARIF 2.1.0 (the
//! static-analysis interchange format CI annotators consume).
//!
//! JSON and SARIF are written through [`crate::json::Json`], the
//! workspace's one JSON writer.

use crate::canon::CanonKey;
use crate::censor_model::{CensorId, Verdict};
use crate::diagnostics::{line_col, Diagnostic, Severity};
use crate::json::Json;
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

/// Plain JSON report: `{"strategies": [...], "failing": n}`.
pub fn render_json(entries: &[ReportEntry]) -> String {
    let failing = entries.iter().filter(|e| e.failing()).count();
    Json::object(|j| {
        entry_array(j, entries);
        j.num("failing", failing);
    }) + "\n"
}

/// The `strategies` array of [`ReportEntry`] objects — shared by
/// [`render_json`] and the control plane's reload responses
/// ([`render_reload_json`]).
fn entry_array(j: &mut Json, entries: &[ReportEntry]) {
    j.arr("strategies", |j| {
        for e in entries {
            j.item_obj(|j| entry_members(j, e));
        }
    });
}

fn entry_members(j: &mut Json, e: &ReportEntry) {
    j.str("label", &e.label)
        .str("source", &e.source)
        .str("canonical", &e.canonical)
        .str("key", &e.key.to_string())
        .num("statically_futile", e.statically_futile)
        .arr("diagnostics", |j| {
            for d in &e.diagnostics {
                let (line, col) = line_col(&e.source, d.span.start);
                j.item_obj(|j| {
                    j.str("severity", &d.severity.to_string())
                        .str("code", d.code)
                        .num("start", d.span.start)
                        .num("end", d.span.end)
                        .num("line", line)
                        .num("col", col)
                        .str("message", &d.message)
                        .str_or_null("suggestion", d.suggestion.as_deref())
                        .num("proves_futile", d.proves_futile);
                });
            }
        })
        .arr("verdicts", |j| {
            for (id, v) in &e.verdicts {
                j.item_obj(|j| {
                    j.str("censor", id.name()).str("verdict", v.token());
                });
            }
        });
    match &e.program {
        Some(p) => j.obj("program", |j| {
            j.num("verified", p.verified)
                .str_or_null("error", p.error.as_deref())
                .num("max_stack", p.max_stack)
                .num("max_emit", p.max_emit);
        }),
        None => j.str_or_null("program", None),
    };
}

/// The hot-reload verdict document served by `POST /config`: whether
/// the new configuration was applied, the full verification record of
/// every candidate strategy (diagnostics with spans, per-censor
/// verdicts, compiled-program proof facts), and — when refused — the
/// gate's complaint. A refusal response is the operator's only window
/// into *why* the old program stayed live, so it carries the same
/// entry detail as `cay verify --format json`.
pub fn render_reload_json(applied: bool, entries: &[ReportEntry], error: Option<&str>) -> String {
    Json::object(|j| {
        j.num("applied", applied).str_or_null("error", error);
        entry_array(j, entries);
    }) + "\n"
}

/// One SARIF result: `rule` fired at bytes `start..end` of `source`,
/// the text of the artifact `uri`.
struct SarifResult<'a> {
    rule: &'a str,
    level: &'a str,
    message: String,
    uri: &'a str,
    source: &'a str,
    start: usize,
    end: usize,
    /// Per-censor verdicts for the result's property bag; empty for
    /// none.
    verdicts: &'a [(CensorId, Verdict)],
}

impl SarifResult<'_> {
    /// A result spanning all of entry `e`'s source.
    fn whole<'a>(
        rule: &'a str,
        level: &'a str,
        message: String,
        e: &'a ReportEntry,
    ) -> SarifResult<'a> {
        SarifResult {
            rule,
            level,
            message,
            uri: &e.label,
            source: &e.source,
            start: 0,
            end: e.source.len(),
            verdicts: &[],
        }
    }

    fn members(&self, j: &mut Json) {
        let (line, col) = line_col(self.source, self.start);
        j.str("ruleId", self.rule)
            .str("level", self.level)
            .obj("message", |j| {
                j.str("text", &self.message);
            })
            .arr("locations", |j| {
                j.item_obj(|j| {
                    j.obj("physicalLocation", |j| {
                        j.obj("artifactLocation", |j| {
                            j.str("uri", self.uri);
                        })
                        .obj("region", |j| {
                            j.num("startLine", line)
                                .num("startColumn", col)
                                .num("charOffset", self.start)
                                .num("charLength", self.end.saturating_sub(self.start));
                        });
                    });
                });
            });
        if !self.verdicts.is_empty() {
            j.obj("properties", |j| {
                j.obj("verdicts", |j| {
                    for (id, v) in self.verdicts {
                        j.str(id.name(), v.token());
                    }
                });
            });
        }
    }
}

/// A SARIF 2.1.0 document from the `cay-verify` tool driver: `rules`
/// (each with its [`rule_help`] metadata) and `results`.
fn sarif_doc(rules: &[&str], results: &[SarifResult]) -> String {
    Json::object(|j| {
        j.str("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
            .str("version", "2.1.0")
            .arr("runs", |j| {
                j.item_obj(|j| {
                    j.obj("tool", |j| {
                        j.obj("driver", |j| {
                            j.str("name", "cay-verify").arr("rules", |j| {
                                for id in rules {
                                    let (description, help_uri) = rule_help(id);
                                    j.item_obj(|j| {
                                        j.str("id", id)
                                            .obj("fullDescription", |j| {
                                                j.str("text", description);
                                            })
                                            .str("helpUri", help_uri);
                                    });
                                }
                            });
                        });
                    })
                    .arr("results", |j| {
                        for r in results {
                            j.item_obj(|j| r.members(j));
                        }
                    });
                });
            });
    }) + "\n"
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
    let mut results = Vec::new();
    for e in entries {
        for d in &e.diagnostics {
            let level = match d.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            rules.push(d.code);
            results.push(SarifResult {
                rule: d.code,
                level,
                message: d.message.clone(),
                uri: &e.label,
                source: &e.source,
                start: d.span.start,
                end: d.span.end,
                verdicts: &[],
            });
        }
        if !e.verdicts.is_empty() {
            let summary: Vec<String> = e
                .verdicts
                .iter()
                .map(|(id, v)| format!("{}={}", id.name(), v.token()))
                .collect();
            rules.push("censor-verdict");
            results.push(SarifResult {
                verdicts: &e.verdicts,
                ..SarifResult::whole(
                    "censor-verdict",
                    "note",
                    format!("per-censor static verdicts: {}", summary.join(", ")),
                    e,
                )
            });
        }
        match &e.program {
            Some(p) if !p.verified => {
                rules.push("program-verify-failed");
                results.push(SarifResult::whole(
                    "program-verify-failed",
                    "error",
                    format!(
                        "compiled program failed verification: {}",
                        p.error.as_deref().unwrap_or("unknown")
                    ),
                    e,
                ));
            }
            Some(p) if p.max_emit >= AMPLIFICATION_LIMIT => {
                rules.push("program-amplification");
                results.push(SarifResult::whole(
                    "program-amplification",
                    "warning",
                    format!(
                        "proved worst-case emission bound {} meets the amplification \
                         threshold {AMPLIFICATION_LIMIT}",
                        p.max_emit
                    ),
                    e,
                ));
            }
            _ => {}
        }
    }
    rules.sort_unstable();
    rules.dedup();
    sarif_doc(&rules, &results)
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
    Json::object(|j| {
        j.num("files_scanned", report.files_scanned)
            .arr("allowed_files", |j| {
                for f in &report.allowed_files {
                    j.item_str(f);
                }
            })
            .arr("findings", |j| {
                for f in &report.findings {
                    let (line, col) = line_col(&f.source, f.offset);
                    j.item_obj(|j| {
                        j.str("file", &f.file)
                            .num("offset", f.offset)
                            .num("line", line)
                            .num("col", col)
                            .str("excerpt", &f.excerpt);
                    });
                }
            })
            .num("clean", report.clean());
    }) + "\n"
}

/// SARIF 2.1.0 unsafe-confinement report: one `unsafe-confinement`
/// result per escaped keyword, under the same tool driver as the
/// strategy reports so CI annotators treat both uniformly.
pub fn render_unsafe_sarif(report: &UnsafeScanReport) -> String {
    let results: Vec<SarifResult> = report
        .findings
        .iter()
        .map(|f| SarifResult {
            rule: "unsafe-confinement",
            level: "error",
            message: format!("keyword escaped the audited files: {}", f.excerpt),
            uri: &f.file,
            source: &f.source,
            start: f.offset,
            end: f.offset + f.len,
            verdicts: &[],
        })
        .collect();
    sarif_doc(&["unsafe-confinement"], &results)
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
