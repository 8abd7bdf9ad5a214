//! The product-construction model checker: a strategy's emission
//! summaries × a censor automaton → a per-censor [`Verdict`].
//!
//! All claims are scoped to the modeled topology the rest of the
//! workspace simulates: an *unmodified* client talking HTTP through
//! the censor to a strategic server, with the censor's shipped
//! default blacklist. Within that scope each verdict is a theorem
//! about the `crates/censor` models; the soundness tests check the
//! theorems against the implementations.
//!
//! Proof sketches (full argument in DESIGN.md §12):
//!
//! * **Inert, stateless censors (Airtel, Iran).** Both observe only
//!   client→server traffic and match per-packet on payload. The
//!   client is unmodified, so the only way a *server-side* strategy
//!   changes what the censor sees is by changing what the client's
//!   stack receives. If every outbound emission is either the
//!   identity packet or checksum-broken (dropped by the client's
//!   stack), and every inbound path is the identity (so the server
//!   also behaves as baseline), the client's wire behavior — in
//!   particular its forbidden request — is byte-identical to
//!   baseline, and the censor deterministically censors it.
//! * **Inert, Kazakhstan.** Same argument, but KZ also watches
//!   server→client packets and does not verify checksums, so
//!   checksum-broken extras are *not* invisible to it: outbound must
//!   be pure identity. Identity duplicates are safe: pre-request the
//!   modeled server emits only payload-free SYN+ACKs, which KZ's
//!   monitor passes without a state change.
//! * **Desynced, Kazakhstan only.** KZ's monitor runs until the
//!   client's first payload. The strategy's SYN+ACK-triggered
//!   emissions all cross the censor before that (the client cannot
//!   send its request before receiving the SYN+ACK), so we execute
//!   exactly those abstract packets through [`KzAbstractFlow`]; if
//!   the flow is provably `ignored` afterwards, the censor provably
//!   never acts on the flow.
//! * **GFW: always [`Verdict::Unknown`].** Its per-flow censorship
//!   probability (`baseline_miss`) and resync arming are sampled at
//!   flow creation — even the identity strategy evades a sampled
//!   fraction of flows, so neither inertness nor desync is provable.

use geneva::Strategy;
use packet::{Proto, TcpFlags};

use crate::absint::{summarize, PartSummary, PathEffect, StrategySummary};
use crate::censor_model::alphabet::{AbsDirection, AbsPacket};
use crate::censor_model::automata::{automaton, AbsState};
use crate::censor_model::{CensorId, Verdict};

/// Summarize and check a strategy against one censor.
pub fn check_strategy(strategy: &Strategy, id: CensorId) -> Verdict {
    check(&summarize(strategy), id)
}

/// Check one summary against every censor, in display order.
pub fn check_all(summary: &StrategySummary) -> Vec<(CensorId, Verdict)> {
    CensorId::all()
        .into_iter()
        .map(|id| (id, check(summary, id)))
        .collect()
}

/// Check one strategy summary against one censor on the simulated
/// path (`lints::HOPS_TO_MIDDLEBOX`, `lints::DEFAULT_TTL`).
pub fn check(summary: &StrategySummary, id: CensorId) -> Verdict {
    match id {
        CensorId::Gfw => Verdict::Unknown,
        CensorId::Airtel | CensorId::Iran => {
            if stateless_inert(summary) {
                Verdict::ProvablyInert
            } else {
                Verdict::Unknown
            }
        }
        CensorId::Kazakhstan => {
            if kz_desynced(summary) {
                Verdict::ProvablyDesynced
            } else if kz_inert(summary) {
                Verdict::ProvablyInert
            } else {
                Verdict::Unknown
            }
        }
    }
}

/// The path is byte-for-byte the packet that triggered it.
fn is_identity(path: &PathEffect) -> bool {
    path.fields.is_empty() && !path.via_fragment && !path.checksum_broken()
}

/// Every inbound path is the identity (parts that drop everything are
/// fine for inertness: losing packets can only lose the exchange, not
/// conjure forbidden content to the client). Tampered inbound packets
/// void all claims — rewriting an arriving handshake segment can forge
/// a request *at the server* that the censor never saw.
fn inbound_all_identity(summary: &StrategySummary) -> bool {
    summary
        .inbound
        .iter()
        .all(|part| part.paths.iter().all(is_identity))
}

/// Inertness against the stateless to-server-only censors.
fn stateless_inert(summary: &StrategySummary) -> bool {
    summary.outbound.iter().all(|part| {
        part.paths
            .iter()
            .all(|p| is_identity(p) || p.checksum_broken())
    }) && inbound_all_identity(summary)
}

/// Inertness against Kazakhstan: outbound pure identity (KZ ignores
/// checksums, so broken extras still drive its monitor), inbound
/// identity.
fn kz_inert(summary: &StrategySummary) -> bool {
    summary
        .outbound
        .iter()
        .all(|part| part.paths.iter().all(is_identity))
        && inbound_all_identity(summary)
}

/// The part's trigger, parsed as exact TCP flags.
fn trigger_flags(part: &PartSummary) -> Option<TcpFlags> {
    (part.trigger.field.proto == Proto::Tcp && part.trigger.field.name == "flags")
        .then(|| TcpFlags::from_geneva(&part.trigger.value))
        .flatten()
}

/// Kazakhstan desync proof: find the (first-match-wins) part that
/// fires on the server's SYN+ACK, prove every earlier part provably
/// disjoint from it, and product-execute its emissions through the KZ
/// automaton from the initial state.
fn kz_desynced(summary: &StrategySummary) -> bool {
    // The handshake must run as baseline on the way in: the client's
    // SYN has to reach the server stack unmodified so the SYN+ACK is
    // emitted at all, and no inbound rewrite may forge server-visible
    // data. Identity-only, and no part may silently drop.
    let inbound_sound = summary
        .inbound
        .iter()
        .all(|part| !part.paths.is_empty() && part.paths.iter().all(is_identity));
    if !inbound_sound {
        return false;
    }
    let kz = automaton(CensorId::Kazakhstan);
    for part in &summary.outbound {
        let flags = trigger_flags(part);
        if flags != Some(TcpFlags::SYN_ACK) {
            // An earlier part shields the SYN+ACK part unless it
            // provably cannot match a SYN+ACK: an exact-match trigger
            // on the same flags field with a different known value.
            if flags.is_some() {
                continue;
            }
            return false;
        }
        // This part fires on the server's SYN+ACK — the first
        // server→client packet of the flow, so its emissions all
        // cross the censor before the client can send data.
        let mut state = kz.initial();
        for path in &part.paths {
            let pkt = AbsPacket::of_effect(path, &part.trigger, AbsDirection::ToClient);
            kz.step(&mut state, &pkt);
        }
        let AbsState::Kz(flow) = state else {
            return false;
        };
        return flow.must_ignored();
    }
    false
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use geneva::parse_strategy;

    fn verdicts(source: &str) -> Vec<(CensorId, Verdict)> {
        let strategy = parse_strategy(source).unwrap();
        check_all(&summarize(&strategy))
    }

    fn verdict(source: &str, id: CensorId) -> Verdict {
        check_strategy(&parse_strategy(source).unwrap(), id)
    }

    #[test]
    fn gfw_is_always_unknown() {
        // Stochastic per-flow censorship: even the identity strategy
        // evades a sampled fraction, so no claim is ever sound.
        for source in ["\\/", "[TCP:flags:SA]-duplicate(,)-| \\/"] {
            assert_eq!(verdict(source, CensorId::Gfw), Verdict::Unknown, "{source}");
        }
    }

    #[test]
    fn identity_is_inert_against_deterministic_censors() {
        for id in [CensorId::Airtel, CensorId::Iran, CensorId::Kazakhstan] {
            assert_eq!(verdict("\\/", id), Verdict::ProvablyInert, "{id}");
        }
    }

    #[test]
    fn identity_duplicates_are_inert() {
        let source = "[TCP:flags:SA]-duplicate(,)-| \\/";
        for id in [CensorId::Airtel, CensorId::Iran, CensorId::Kazakhstan] {
            assert_eq!(verdict(source, id), Verdict::ProvablyInert, "{id}");
        }
    }

    #[test]
    fn broken_checksum_extras_are_inert_only_where_checksums_gate_delivery() {
        // The RST copy never reaches the client stack (bad checksum)
        // and Airtel/Iran never watch server→client traffic; KZ does,
        // and processes the RST copy, so no KZ claim.
        let source =
            "[TCP:flags:A]-duplicate(,tamper{TCP:flags:replace:R}(tamper{TCP:chksum:corrupt},))-| \\/";
        assert_eq!(verdict(source, CensorId::Airtel), Verdict::ProvablyInert);
        assert_eq!(verdict(source, CensorId::Iran), Verdict::ProvablyInert);
        assert_eq!(verdict(source, CensorId::Kazakhstan), Verdict::Unknown);
    }

    #[test]
    fn window_tampering_is_never_inert() {
        // Strategy 8 changes what the client *receives*, which changes
        // how the unmodified client segments its request — it really
        // does evade Iran/Airtel/KZ, and the checker must not claim
        // otherwise.
        let source = "[TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/";
        for id in [CensorId::Airtel, CensorId::Iran, CensorId::Kazakhstan] {
            assert_eq!(verdict(source, id), Verdict::Unknown, "{id}");
        }
    }

    #[test]
    fn null_flags_provably_desyncs_kazakhstan() {
        // Strategy 11: the empty flags value is written as no flags at
        // all; KZ's monitor writes the flow off on sight.
        let source = "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/";
        assert_eq!(
            verdict(source, CensorId::Kazakhstan),
            Verdict::ProvablyDesynced
        );
        // ...but says nothing about the stateless censors.
        assert_eq!(verdict(source, CensorId::Airtel), Verdict::Unknown);
    }

    #[test]
    fn triple_and_quadruple_load_provably_desync_kazakhstan() {
        for source in [
            "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,),)-| \\/",
            "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,duplicate),)-| \\/",
        ] {
            assert_eq!(
                verdict(source, CensorId::Kazakhstan),
                Verdict::ProvablyDesynced,
                "{source}"
            );
        }
    }

    #[test]
    fn double_get_provably_desyncs_kazakhstan() {
        let source = "[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}(duplicate,)-| \\/";
        assert_eq!(
            verdict(source, CensorId::Kazakhstan),
            Verdict::ProvablyDesynced
        );
    }

    #[test]
    fn forbidden_double_get_withholds_the_desync_claim() {
        // The second forbidden GET draws an injected probe response:
        // the flow ends up ignored, but the censor *acted*, so the
        // clean desync claim (zero censor events) is withheld.
        let source =
            "[TCP:flags:SA]-tamper{TCP:load:replace:GET http://youtube.com/ HTTP1.}(duplicate,)-| \\/";
        assert_eq!(verdict(source, CensorId::Kazakhstan), Verdict::Unknown);
    }

    #[test]
    fn double_load_is_not_enough_to_desync() {
        // Two payload-bearing handshake packets are tolerated — that's
        // the paper's control for Strategy 9.
        let source = "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate,)-| \\/";
        assert_eq!(verdict(source, CensorId::Kazakhstan), Verdict::Unknown);
    }

    #[test]
    fn ttl_limited_emissions_cannot_prove_desync() {
        // Null-flags copy that dies before the middlebox: the censor
        // provably never sees it, so no desync claim — and the strategy
        // is not inert either (a tampered copy exists).
        let source =
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:}(tamper{IP:ttl:replace:1},),)-| \\/";
        assert_eq!(verdict(source, CensorId::Kazakhstan), Verdict::Unknown);
    }

    #[test]
    fn shielding_part_blocks_the_desync_proof() {
        // An earlier part whose trigger is not provably disjoint from
        // the SYN+ACK could intercept it; first-match-wins means the
        // desync emissions might never happen. (A same-trigger shield
        // is folded away by canonicalization, so use a different
        // field's trigger, whose overlap is unknown.)
        let source = "[TCP:window:8192]-tamper{TCP:seq:corrupt}-| [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/";
        assert_eq!(verdict(source, CensorId::Kazakhstan), Verdict::Unknown);
        // A provably-disjoint earlier trigger does not shield.
        let disjoint =
            "[TCP:flags:A]-duplicate(,)-| [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/";
        assert_eq!(
            verdict(disjoint, CensorId::Kazakhstan),
            Verdict::ProvablyDesynced
        );
    }

    #[test]
    fn inbound_tampering_voids_all_claims() {
        // Rewriting arriving packets can forge server-visible data the
        // censor never saw; nothing is provable then.
        let source = "\\/ [TCP:flags:A]-tamper{TCP:load:corrupt}-|";
        for id in [CensorId::Airtel, CensorId::Iran, CensorId::Kazakhstan] {
            assert_eq!(verdict(source, id), Verdict::Unknown, "{id}");
        }
    }

    #[test]
    fn library_matrix_matches_the_papers_deployment() {
        // The paper's §5 per-censor results, statically: the GFW
        // column is all unknown (stochastic), strategies 9–11 and
        // their variants provably desync Kazakhstan, and nothing
        // working is claimed inert anywhere.
        let mut desynced = Vec::new();
        for named in geneva::library::server_side()
            .iter()
            .chain(geneva::library::variants().iter())
        {
            for (id, v) in verdicts(named.text) {
                match id {
                    CensorId::Gfw => assert_eq!(v, Verdict::Unknown, "{}", named.name),
                    // Every library strategy beats at least one censor
                    // in the paper; none may be proven inert against
                    // one it beats. The only inert-eligible rows are
                    // the GFW-only checksum-insertion teardowns, which
                    // are invisible to the stateless censors.
                    _ => {
                        if v == Verdict::ProvablyDesynced {
                            assert_eq!(id, CensorId::Kazakhstan, "{}", named.name);
                            desynced.push(named.name);
                        }
                    }
                }
            }
        }
        for expected in ["Triple Load", "Double GET", "Null Flags", "Quadruple Load"] {
            assert!(
                desynced.contains(&expected),
                "{expected} not proven desynced"
            );
        }
    }

    #[test]
    fn chksum_fixed_compat_variants_still_desync_kazakhstan() {
        // The client-compat fixes hide the injected loads from the
        // client behind broken checksums; KZ ignores checksums, so
        // the desync proof must survive the fix.
        for id in [9, 10] {
            let named = geneva::library::client_compat_fix(id).unwrap();
            assert_eq!(
                check_strategy(&named.strategy(), CensorId::Kazakhstan),
                Verdict::ProvablyDesynced,
                "{}",
                named.name
            );
        }
    }
}
