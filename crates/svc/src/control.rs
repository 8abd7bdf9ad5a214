//! Hot strategy reload through the proof gate.
//!
//! `POST /config` carries a rollout table (the
//! [`harness::deploy::RolloutTable::parse`] grammar). Before anything
//! touches the live plane, every arm is vetted **outside** the shared
//! program cache:
//!
//! 1. the DSL must parse (spanned [`TableParseError`] otherwise),
//! 2. `strata::analyze` must not prove the strategy statically futile,
//! 3. [`dplane::Program::compile`] must produce an abstract-
//!    interpretation proof (stack/emission bounds),
//! 4. the censor-product model checker must not return
//!    `ProvablyInert` against the censor governing the rule's prefix
//!    (per the geo table) — shipping a provably do-nothing strategy to
//!    the clients it was aimed at is a misconfiguration, not a rollout.
//!
//! Any refusal leaves the running table, the program cache, and every
//! metric byte-identical (asserted by proptest); the response still
//! carries the full per-arm verification report so the operator can
//! see exactly which arm failed and why. On success the pre-compiled
//! programs are seeded into the shared cache with the counter-neutral
//! [`dplane::ProgramCache::insert`], so post-reload flows hit without
//! skewing hit/miss parity against an offline run.

use dplane::Program;
use harness::deploy::{GeoTable, RolloutTable};
use std::sync::Arc;
use strata::censor_model::{CensorId, Verdict};
use strata::report::render_reload_json;

use crate::{unpoisoned, SvcShared};

/// The result of vetting (and possibly applying) a config body.
pub struct ReloadOutcome {
    /// Did the new table go live?
    pub applied: bool,
    /// HTTP status for the control plane (200 applied, 400 parse
    /// refusal, 422 verification refusal).
    pub status: u16,
    /// JSON body: `{"applied":…,"error":…,"strategies":[…]}`.
    pub body: String,
    /// On success, the vetted table and its compiled programs.
    pub table: Option<(RolloutTable, Vec<Arc<Program>>)>,
}

/// The censor-model identity for a geo-located country.
pub fn censor_id(country: censor::Country) -> CensorId {
    match country {
        censor::Country::China => CensorId::Gfw,
        censor::Country::India => CensorId::Airtel,
        censor::Country::Iran => CensorId::Iran,
        censor::Country::Kazakhstan => CensorId::Kazakhstan,
    }
}

/// Vet a config body without touching any live state.
pub fn vet_config(text: &str, geo: &GeoTable, protocol: appproto::AppProtocol) -> ReloadOutcome {
    let table = match RolloutTable::parse(text) {
        Ok(table) => table,
        Err(e) => {
            return ReloadOutcome {
                applied: false,
                status: 400,
                body: render_reload_json(false, &[], Some(&e.to_string())),
                table: None,
            }
        }
    };
    let mut entries = Vec::new();
    let mut programs = Vec::new();
    let mut refusal: Option<String> = None;
    for rule in table.rules() {
        // The censor this prefix's clients sit behind — only censors
        // that actually censor the serving protocol gate the rollout.
        let governing = geo
            .locate(rule.prefix)
            .filter(|c| c.censored_protocols().contains(&protocol))
            .map(censor_id);
        for (ai, arm) in rule.arms.iter().enumerate() {
            let label = format!(
                "{}.{}.{}.{}/{} arm{} ({}%)",
                rule.prefix[0],
                rule.prefix[1],
                rule.prefix[2],
                rule.prefix[3],
                rule.len,
                ai,
                arm.percent
            );
            let analysis = strata::analyze(&arm.strategy);
            let facts;
            let mut verdicts = Vec::new();
            match Program::compile(&arm.strategy) {
                Ok(program) => {
                    let (max_stack, max_emit) =
                        program.proof.map_or((0, 0), |p| (p.max_stack, p.max_emit));
                    facts = strata::ProgramFacts {
                        verified: true,
                        error: None,
                        max_stack,
                        max_emit,
                    };
                    verdicts.clone_from(&program.verdicts);
                    programs.push(Arc::new(program));
                }
                Err(e) => {
                    facts = strata::ProgramFacts {
                        verified: false,
                        error: Some(e.to_string()),
                        max_stack: 0,
                        max_emit: 0,
                    };
                    if refusal.is_none() {
                        refusal = Some(format!("{label}: absint refused: {e}"));
                    }
                }
            }
            if analysis.statically_futile && refusal.is_none() {
                refusal = Some(format!("{label}: strategy is statically futile"));
            }
            if let Some(id) = governing {
                let inert = verdicts
                    .iter()
                    .any(|&(v_id, v)| v_id == id && v == Verdict::ProvablyInert);
                if inert && refusal.is_none() {
                    refusal = Some(format!(
                        "{label}: provably inert against {} (the censor governing this prefix)",
                        id.name()
                    ));
                }
            }
            entries.push(strata::ReportEntry {
                label,
                source: arm.text.clone(),
                canonical: analysis.canonical.to_string(),
                key: analysis.key,
                statically_futile: analysis.statically_futile,
                diagnostics: analysis.diagnostics,
                verdicts,
                program: Some(facts),
            });
        }
    }
    match refusal {
        Some(msg) => ReloadOutcome {
            applied: false,
            status: 422,
            body: render_reload_json(false, &entries, Some(&msg)),
            table: None,
        },
        None => ReloadOutcome {
            applied: true,
            status: 200,
            body: render_reload_json(true, &entries, None),
            table: Some((table, programs)),
        },
    }
}

/// Vet a config body and, if it passes every gate, swap it live:
/// pre-seed the shared program cache (counter-neutral) and publish the
/// new rollout table for *new* flows. Existing flows keep the program
/// they classified to — rollouts never rewrite a flow mid-stream.
pub fn apply_config(shared: &SvcShared, text: &str) -> ReloadOutcome {
    let mut outcome = vet_config(text, &shared.geo, shared.protocol);
    match outcome.table.take() {
        Some((table, programs)) => {
            for program in programs {
                shared.cache.insert(program);
            }
            *unpoisoned(shared.rollout.write()) = Arc::new(table);
            shared
                .reloads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Kick an idle data thread so the swap is visible in the
            // next published snapshot, not after the idle-wait timeout.
            shared.data_waker.wake();
        }
        None => {
            shared
                .reload_rejects
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
    outcome
}
