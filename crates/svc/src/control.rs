//! Hot strategy reload through the proof gate.
//!
//! `POST /config` carries a rollout table (the
//! [`harness::deploy::RolloutTable::parse`] grammar). Before anything
//! touches the live plane, every arm is vetted on the control thread,
//! **outside** the data plane's program cache:
//!
//! 1. the DSL must parse (spanned [`TableParseError`] otherwise),
//! 2. [`dplane::verify`] builds the arm's verification record from
//!    its DSL text — the same record `cay verify` prints — and the
//!    compiled program must carry an abstract-interpretation proof
//!    (stack/emission bounds),
//! 3. the proved emission bound must stay under
//!    [`strata::AMPLIFICATION_LIMIT`] packets per trigger packet — a
//!    server answers SYNs from spoofable sources, so a program that
//!    multiplies them is a reflection amplifier,
//! 4. the lints must not prove the strategy statically futile,
//! 5. the record's censor-product verdicts must not say
//!    `ProvablyInert` against the censor governing the rule's prefix
//!    (per the geo table) — shipping a provably do-nothing strategy to
//!    the clients it was aimed at is a misconfiguration, not a rollout.
//!
//! [`vet_table`] runs these gates over a parsed table; `cay serve`
//! runs it over the table it starts with too, so no table goes live
//! without them.
//!
//! Any refusal leaves the running table, the program cache, and every
//! metric byte-identical (asserted by proptest); the response still
//! carries the full per-arm verification report so the operator can
//! see exactly which arm failed and why. On success the table and its
//! pre-compiled programs replace [`crate::SvcShared::rollout`] as one
//! [`LiveRollout`]. The data thread, which alone owns the program
//! cache, sees the new table at the top of its next pump and installs
//! the programs with the counter-neutral
//! [`dplane::ProgramCache::insert`], so post-reload flows hit without
//! skewing hit/miss parity against an offline run.

use harness::deploy::{censor_id, GeoTable, RolloutTable};
use std::sync::Arc;
use strata::censor_model::Verdict;
use strata::report::render_reload_json;

use crate::{unpoisoned, LiveRollout, SvcShared};

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
    pub table: Option<LiveRollout>,
}

/// Vet a config body without touching any live state: parse it, then
/// [`vet_table`].
pub fn vet_config(text: &str, geo: &GeoTable, protocol: appproto::AppProtocol) -> ReloadOutcome {
    match RolloutTable::parse(text) {
        Ok(table) => vet_table(&table, geo, protocol),
        Err(e) => ReloadOutcome {
            applied: false,
            status: 400,
            body: render_reload_json(false, &[], Some(&e.to_string())),
            table: None,
        },
    }
}

/// Run every gate over a parsed table's arms (200 with the table and
/// its programs, or 422 naming the first refusal). Every table that
/// goes live passes here: a `POST /config` body and the table
/// `cay serve` starts with.
pub fn vet_table(
    table: &RolloutTable,
    geo: &GeoTable,
    protocol: appproto::AppProtocol,
) -> ReloadOutcome {
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
            // The table parser accepted this text, so it parses here.
            let (entry, program) = match dplane::verify(&label, &arm.text) {
                Ok(verified) => verified,
                Err(e) => {
                    refusal.get_or_insert(format!("{label}: {e}"));
                    continue;
                }
            };
            match program {
                Some(program) => programs.push(Arc::new(program)),
                None => {
                    let error = entry.program.as_ref().and_then(|p| p.error.as_deref());
                    refusal.get_or_insert(format!(
                        "{label}: absint refused: {}",
                        error.unwrap_or("unknown")
                    ));
                }
            }
            if let Some(why) = entry.program.as_ref().and_then(|p| p.amplification()) {
                refusal.get_or_insert(format!("{label}: {why}"));
            }
            if entry.statically_futile {
                refusal.get_or_insert(format!("{label}: strategy is statically futile"));
            }
            if let Some(id) = governing {
                if entry.verdicts.contains(&(id, Verdict::ProvablyInert)) {
                    refusal.get_or_insert(format!(
                        "{label}: provably inert against {} (the censor governing this prefix)",
                        id.name()
                    ));
                }
            }
            entries.push(entry);
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
            table: Some(LiveRollout {
                table: Arc::new(table.clone()),
                programs,
            }),
        },
    }
}

/// Vet a config body and, if it passes every gate, swap it live: the
/// table and its verified programs replace the live rollout for *new*
/// flows. Existing flows keep the program they classified to —
/// rollouts never rewrite a flow mid-stream.
pub fn apply_config(shared: &SvcShared, text: &str) -> ReloadOutcome {
    let mut outcome = vet_config(text, &shared.geo, shared.protocol);
    match outcome.table.take() {
        Some(live) => {
            *unpoisoned(shared.rollout.write()) = Arc::new(live);
            shared
                .reloads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Kick an idle data thread so it takes the reload up now,
            // not after the idle-wait timeout.
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
