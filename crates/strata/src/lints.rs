//! Lint rules over Geneva strategy trees.
//!
//! Each rule has a stable machine-readable code and fires
//! [`Diagnostic`]s with byte-offset spans into the strategy's DSL
//! source. Rules fall into three groups:
//!
//! * **trigger rules** look only at a part's trigger
//!   (`dead-branch`, `shadowed-trigger`,
//!   `client-side-action-in-server-strategy`);
//! * **node rules** look at one action node at a time
//!   (`ttl-unreachable`, `degenerate-fragment`, `dup-amplification`,
//!   `checksum-futile` on inbound);
//! * **path rules** reason about the abstract packet each
//!   root-to-`send` path emits, using the [`crate::absint`]
//!   `FieldEffect` summaries (`checksum-futile`,
//!   `synack-payload-compat`, `handshake-severed`,
//!   `seq-desync-kills-client`, `ack-desync-kills-client`,
//!   `deliverable-rst-resets-client`, `window-zero-stalls-client`,
//!   `checksum-left-broken-reaches-client`, `no-op-chain`).
//!
//! Futility proofs about one part are suppressed when an *earlier*
//! part could intercept the same packets (see `shielded_by_earlier`):
//! first-match-wins means a proof about a shielded part says nothing
//! about the strategy as a whole.
//!
//! Severity is [`Severity::Warning`] unless the rule *proves* the
//! strategy cannot beat the identity strategy, in which case it is
//! [`Severity::Error`] with `proves_futile` set — the signal
//! `evolve`'s fitness cache uses to skip simulation entirely.

use geneva::{
    parse_strategy_spanned, Action, ParseError, PartSpans, Span, Strategy, StrategyPart,
    StrategySpans, TamperMode, Trigger,
};
use packet::field::{FieldKind, FieldValue};
use packet::{Proto, TcpFlags};

use crate::absint::{action_effects, max_emission, FieldEffect, PathEffect};
use crate::canon::{canonicalize, is_inert};
use crate::diagnostics::{Diagnostic, Severity};

/// Emission count at which `dup-amplification` starts complaining.
/// `cay verify` flags the compiled program's proved bound
/// (`OpsProof::max_emit`) against the same threshold, so the tree walk
/// and the abstract interpreter can never disagree about what counts
/// as amplified.
pub const AMPLIFICATION_LIMIT: usize = 8;

/// Router hops from the strategic server to the censoring middlebox
/// on the simulated path (`netsim::PathConfig::DEFAULT`). A
/// server-emitted packet with TTL below this dies before the censor
/// ever sees it.
pub(crate) const HOPS_TO_MIDDLEBOX: u8 = netsim::PathConfig::DEFAULT.mb_to_server_hops;

/// Router hops from the server all the way to the client. A packet
/// with TTL below this can influence the censor but never reaches the
/// client.
pub(crate) const HOPS_TO_CLIENT: u8 =
    netsim::PathConfig::DEFAULT.mb_to_server_hops + netsim::PathConfig::DEFAULT.client_to_mb_hops;

/// TTL the engine's packets carry when no tamper touches it.
pub(crate) const DEFAULT_TTL: u8 = 64;

/// Parse strategy text and lint it. The returned spans index straight
/// into `source`, so [`Diagnostic::render`] can quote the offending
/// snippet.
pub fn lint(source: &str) -> Result<Vec<Diagnostic>, ParseError> {
    let (strategy, spans) = parse_strategy_spanned(source)?;
    Ok(lint_spanned(&strategy, &spans))
}

/// Lint an already-parsed strategy. Spans are recovered by re-parsing
/// the strategy's canonical `Display` text (Display/parse round-trips
/// exactly), so they index into `strategy.to_string()`.
pub fn lint_strategy(strategy: &Strategy) -> Vec<Diagnostic> {
    let text = strategy.to_string();
    match parse_strategy_spanned(&text) {
        Ok((reparsed, spans)) => lint_spanned(&reparsed, &spans),
        // Display text always re-parses; if it somehow does not, lint
        // with empty spans rather than losing the findings.
        Err(_) => lint_spanned(strategy, &StrategySpans::default()),
    }
}

/// The real worker: strategy + node spans → findings.
pub fn lint_spanned(strategy: &Strategy, spans: &StrategySpans) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_direction(&strategy.outbound, &spans.outbound, true, &mut out);
    lint_direction(&strategy.inbound, &spans.inbound, false, &mut out);
    out.sort_by_key(|d| (d.span.start, d.span.end));
    out
}

fn lint_direction(
    parts: &[StrategyPart],
    spans: &[PartSpans],
    outbound: bool,
    out: &mut Vec<Diagnostic>,
) {
    for (i, part) in parts.iter().enumerate() {
        let ps = spans.get(i);
        let part_span = ps.map(|s| s.part).unwrap_or_default();
        let trigger_span = ps.map(|s| s.trigger).unwrap_or_default();
        let node_spans: &[Span] = ps.map(|s| s.actions.as_slice()).unwrap_or(&[]);

        // -- trigger rules ------------------------------------------------
        lint_dead_branch(&part.trigger, trigger_span, out);
        lint_shadowed_trigger(parts, i, trigger_span, out);
        if outbound {
            lint_client_side_trigger(&part.trigger, trigger_span, out);
        }

        // -- node rules ---------------------------------------------------
        let mut nodes = Vec::new();
        part.action.walk(&mut |a| nodes.push(a));
        for (j, node) in nodes.iter().enumerate() {
            let span = node_spans.get(j).copied().unwrap_or(part_span);
            lint_node(node, span, outbound, out);
        }
        lint_dup_amplification(&part.action, part_span, out);

        // -- path rules ---------------------------------------------------
        if outbound {
            let paths = action_effects(&part.action);
            let shielded = shielded_by_earlier(parts, i);
            lint_no_op_chain(&part.action, part_span, out);
            lint_checksum_futile_part(&paths, part_span, out);
            lint_synack_payload(part, &paths, part_span, out);
            lint_window_zero(part, &paths, part_span, out);
            // The TCP-state-machine futility proofs are sound only
            // because every application exchange rides a TCP handshake
            // plus data flow (`appproto::AppProtocol`: DNS here is DNS
            // over TCP, RFC 7766). A non-TCP protocol must make them
            // stand down.
            if !shielded {
                lint_handshake_flow(part, &paths, part_span, out);
                lint_data_flow_severed(part, &paths, part_span, out);
            }
        } else {
            lint_no_op_chain(&part.action, part_span, out);
        }
    }
}

/// Could an *earlier* part intercept packets this part would match?
/// An earlier part with the same trigger makes this part unreachable;
/// an earlier part on a *different* field may co-match the same packet
/// (e.g. `[IP:ttl:64]` before `[TCP:flags:SA]` can swallow the
/// SYN+ACK first). Only an earlier part on the same field with a
/// different value is provably disjoint (triggers are exact matches).
/// A futility proof about a shielded part does not transfer to the
/// whole strategy, so the proving lints stand down.
fn shielded_by_earlier(parts: &[StrategyPart], index: usize) -> bool {
    let me = &parts[index].trigger;
    parts[..index]
        .iter()
        .any(|p| p.trigger.field != me.field || p.trigger.value == me.value)
}

fn diag(
    severity: Severity,
    code: &'static str,
    span: Span,
    message: String,
    suggestion: Option<String>,
    proves_futile: bool,
) -> Diagnostic {
    Diagnostic {
        severity,
        code,
        span,
        message,
        suggestion,
        proves_futile,
    }
}

// ---------------------------------------------------------------------------
// Trigger rules
// ---------------------------------------------------------------------------

/// `dead-branch`: the trigger compares against a value the field can
/// never render as, so the part can never fire.
///
/// Triggers match by *exact string equality* against the field's
/// canonical syntax (`Trigger::matches` compares `to_syntax()`
/// output), so `TCP:sport:070` (leading zero), `TCP:sport:99999`
/// (exceeds u16) and `TCP:flags:AS` (non-canonical letter order — the
/// stack renders `SA`) are all unmatchable.
fn lint_dead_branch(trigger: &Trigger, span: Span, out: &mut Vec<Diagnostic>) {
    let Ok(kind) = trigger.field.kind() else {
        return;
    };
    let value = trigger.value.as_str();
    let reason: Option<String> = match kind {
        FieldKind::U8 | FieldKind::U16 | FieldKind::U32 | FieldKind::OptionNum => {
            let max: u64 = match kind {
                FieldKind::U8 => u64::from(u8::MAX),
                FieldKind::U16 => u64::from(u16::MAX),
                _ => u64::from(u32::MAX),
            };
            match value.parse::<u64>() {
                Err(_) => Some(format!("`{value}` is not a decimal number")),
                Ok(n) if n.to_string() != value => {
                    Some(format!("`{value}` is not canonical decimal (use `{n}`)"))
                }
                Ok(n) if n > max => Some(format!(
                    "{n} exceeds the field's maximum of {max}, no packet can carry it"
                )),
                Ok(_) => None,
            }
        }
        FieldKind::Flags => match TcpFlags::from_geneva(value) {
            None => Some(format!("`{value}` is not a valid TCP flag combination")),
            Some(flags) if flags.to_geneva() != value => Some(format!(
                "`{value}` is not in canonical flag order (the stack renders `{}`)",
                flags.to_geneva()
            )),
            Some(_) => None,
        },
        FieldKind::Bytes => None,
    };
    if let Some(reason) = reason {
        out.push(diag(
            Severity::Warning,
            "dead-branch",
            span,
            format!(
                "trigger [{}:{}] can never match: {}",
                trigger.field.to_syntax(),
                value,
                reason
            ),
            None,
            false,
        ));
    }
}

/// `shadowed-trigger`: a later part repeats an earlier part's trigger.
/// The engine applies the *first* matching part, so the later one is
/// unreachable.
fn lint_shadowed_trigger(
    parts: &[StrategyPart],
    index: usize,
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    let me = &parts[index].trigger;
    let shadowed_by = parts[..index]
        .iter()
        .position(|p| p.trigger.field == me.field && p.trigger.value == me.value);
    if let Some(first) = shadowed_by {
        out.push(diag(
            Severity::Warning,
            "shadowed-trigger",
            span,
            format!(
                "trigger [{}:{}] is shadowed by part {} with the same trigger; \
                 only the first matching part runs",
                me.field.to_syntax(),
                me.value,
                first + 1
            ),
            Some("delete this part or merge its action into the earlier one".into()),
            false,
        ));
    }
}

/// `client-side-action-in-server-strategy`: an outbound trigger on a
/// bare SYN. Servers never *emit* bare SYNs (their handshake packet is
/// the SYN+ACK), so this is client-side genetic material that can
/// never fire when the strategy is deployed server-side — the paper's
/// §3 observation that client strategies do not transplant directly.
fn lint_client_side_trigger(trigger: &Trigger, span: Span, out: &mut Vec<Diagnostic>) {
    if trigger.field.proto == Proto::Tcp && trigger.field.name == "flags" && trigger.value == "S" {
        out.push(diag(
            Severity::Warning,
            "client-side-action-in-server-strategy",
            span,
            "outbound trigger on a bare SYN: servers do not emit SYNs, so this part \
             never fires server-side"
                .into(),
            Some("trigger on the server's SYN+ACK instead: [TCP:flags:SA]".into()),
            false,
        ));
    }
}

// ---------------------------------------------------------------------------
// Node rules
// ---------------------------------------------------------------------------

fn lint_node(node: &Action, span: Span, outbound: bool, out: &mut Vec<Diagnostic>) {
    match node {
        // `ttl-unreachable`: the tampered packet dies before the
        // middlebox, so it cannot even confuse the censor.
        Action::Tamper {
            field,
            mode: TamperMode::Replace(value),
            ..
        } if field.proto == Proto::Ip && field.name == "ttl" => {
            let ttl = match value {
                FieldValue::Num(n) => Some(*n),
                FieldValue::Str(s) => s.parse::<u64>().ok(),
                _ => None,
            };
            if let Some(ttl) = ttl {
                if ttl < u64::from(HOPS_TO_MIDDLEBOX) {
                    out.push(diag(
                        Severity::Warning,
                        "ttl-unreachable",
                        span,
                        format!(
                            "TTL {ttl} is below the {HOPS_TO_MIDDLEBOX} hops to the middlebox; \
                             the packet expires before the censor sees it"
                        ),
                        Some(format!(
                            "use a TTL in {HOPS_TO_MIDDLEBOX}..{HOPS_TO_CLIENT} to reach the \
                             censor but not the client"
                        )),
                        false,
                    ));
                }
            }
        }
        // `degenerate-fragment`: the engine only splits TCP segments
        // and IP datagrams; for UDP/DNS/FTP it runs the first subtree
        // on the whole packet and the second subtree never executes.
        Action::Fragment { proto, .. } if matches!(proto, Proto::Udp | Proto::Dns | Proto::Ftp) => {
            out.push(diag(
                Severity::Warning,
                "degenerate-fragment",
                span,
                format!(
                    "fragment{{{}}} never splits: only the first subtree runs and the \
                     second is dead code",
                    proto.token()
                ),
                Some("fragment on TCP or IP, or replace with the first subtree".into()),
                false,
            ));
        }
        // `checksum-futile` (inbound flavour): packets we *receive*
        // already cleared the censor; corrupting their checksum only
        // makes our own stack discard them.
        Action::Tamper { field, .. } if !outbound && field.name == "chksum" => {
            out.push(diag(
                Severity::Warning,
                "checksum-futile",
                span,
                format!(
                    "corrupting {} on an inbound packet is futile: the censor already \
                     processed it, only this host's stack sees the damage",
                    field.to_syntax()
                ),
                None,
                false,
            ));
        }
        _ => {}
    }
}

/// `dup-amplification`: worst-case emitted-packet count of the tree.
/// Strategies that explode one trigger packet into many are slow to
/// simulate and trivially fingerprintable on the wire.
fn lint_dup_amplification(action: &Action, span: Span, out: &mut Vec<Diagnostic>) {
    let n = max_emission(action);
    if n >= AMPLIFICATION_LIMIT {
        out.push(diag(
            Severity::Warning,
            "dup-amplification",
            span,
            format!(
                "this tree can emit up to {n} packets per trigger packet \
                 (amplification threshold {AMPLIFICATION_LIMIT})"
            ),
            Some("collapse duplicate/fragment chains".into()),
            false,
        ));
    }
}

// ---------------------------------------------------------------------------
// Path rules (over `absint::PathEffect` summaries)
// ---------------------------------------------------------------------------

/// Does the trigger fire on the server's SYN+ACK?
fn on_synack(part: &StrategyPart) -> bool {
    let t = &part.trigger;
    t.field.proto == Proto::Tcp && t.field.name == "flags" && t.value == "SA"
}

/// Can a packet with these flags advance a client out of SYN_SENT?
/// Any SYN-carrying, non-RST combination can: with ACK it is (a
/// possibly option-decorated) SYN+ACK, without ACK it triggers
/// simultaneous open (the client's state machine ignores the ack field
/// on a bare SYN). Checking flag *bits* rather than exact strings is
/// what keeps e.g. `SPA` — which establishes just like `SA` — from
/// being "proven" dead.
fn flags_advance_handshake(flags: TcpFlags) -> bool {
    flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::RST)
}

/// The path's packet is not provably destroyed before the client:
/// checksum not definitely broken and TTL not definitely short.
fn reaches_client(p: &PathEffect) -> bool {
    !p.checksum_broken()
        && p.ttl(DEFAULT_TTL)
            .is_none_or(|ttl| ttl >= u64::from(HOPS_TO_CLIENT))
}

/// The path's packet *definitely* arrives at the client: checksum
/// provably verifying and TTL provably sufficient. (Corrupted TTLs
/// make [`reaches_client`] true but this false.)
fn definitely_reaches_client(p: &PathEffect) -> bool {
    !p.checksum_broken()
        && matches!(p.ttl(DEFAULT_TTL), Some(ttl) if ttl >= u64::from(HOPS_TO_CLIENT))
}

/// `no-op-chain`: the whole action tree canonicalizes to a bare
/// `send` — elaborate genetic material that does exactly nothing.
fn lint_no_op_chain(action: &Action, span: Span, out: &mut Vec<Diagnostic>) {
    if !matches!(action, Action::Send) && matches!(canonicalize(action), Action::Send) {
        out.push(diag(
            Severity::Warning,
            "no-op-chain",
            span,
            "this action tree is semantically `send`: every branch either forwards \
             the packet unchanged or cancels out"
                .into(),
            Some("replace the tree with `send` (or delete the part)".into()),
            false,
        ));
    }
}

/// `checksum-futile` (outbound flavour): *every* packet this part
/// emits leaves with a broken checksum, so the client's stack drops
/// them all and the part degenerates to `drop`.
fn lint_checksum_futile_part(paths: &[PathEffect], span: Span, out: &mut Vec<Diagnostic>) {
    if !paths.is_empty() && paths.iter().all(PathEffect::checksum_broken) {
        out.push(diag(
            Severity::Warning,
            "checksum-futile",
            span,
            "every packet this part emits has a corrupted checksum; the client drops \
             them all, so the part behaves like `drop`"
                .into(),
            Some(
                "keep at least one branch with a valid checksum so the client still \
                 receives the real packet"
                    .into(),
            ),
            false,
        ));
    }
}

/// The TCP handshake-flow family: `handshake-severed`,
/// `seq-desync-kills-client`, `ack-desync-kills-client`,
/// `deliverable-rst-resets-client`. All fire on parts triggering on
/// the server's SYN+ACK, and all prove futility — the caller already
/// checked the part is unshielded and the exchange is TCP.
///
/// * **severed** — no emitted packet can even *carry* flags that
///   advance a client out of SYN_SENT (tree inert, every copy
///   destroyed in transit, or every surviving copy RST/FIN/ACK-only).
///   "Can advance" includes a bare SYN: clients answer it with a
///   SYN+ACK of their own (simultaneous open, paper §5 — exactly how
///   Strategy 1's `replace:S` branch completes). Corrupted flags are
///   unknowable at lint time and never prove severance.
/// * **seq/ack desync** — some packet advances by flags, but every
///   such packet desynchronizes the sequence space. A SYN+ACK with a
///   rewritten `seq` makes the client ack `bogus+1`, which the server
///   (expecting `iss+1`) ignores forever — it stays in SYN_RCVD
///   retransmitting, and retransmissions are re-tampered identically
///   (the corrupt PRNG is pure in the packet bytes), so the desync is
///   permanent. A SYN+ACK with a rewritten `ack` fails the client's
///   `ack == snd_nxt` check and is answered with a RST. Only paths
///   with the relevant fields *untouched* are viable (a rewritten
///   value landing on the true one is a ~2⁻³² accident, the same
///   tolerance the engine's corrupt semantics already accept). A bare
///   SYN needs only `seq` untouched — the client ignores its ack
///   field.
/// * **deliverable RST** — before any viable packet arrives, the
///   client *definitely* receives a RST+ACK whose ack field is the
///   engine's own (hence valid): SYN_SENT processes it as a valid
///   reset and the connection dies permanently.
///
/// Fragments make per-path field facts approximate (the split may
/// shift `seq`), so the desync/RST rules stand down on parts with any
/// fragment path; severance (which only needs flags + deliverability)
/// does not.
fn lint_handshake_flow(
    part: &StrategyPart,
    paths: &[PathEffect],
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    if !on_synack(part) {
        return;
    }
    let flags_ok = |p: &PathEffect| match p.emitted_flags(&part.trigger) {
        // Corrupt leaves the flags unknowable — possibly viable.
        None => true,
        Some(f) => flags_advance_handshake(f),
    };
    let severed = if paths.is_empty() {
        // Inert tree: the SYN+ACK is swallowed entirely.
        is_inert(&part.action)
    } else {
        !paths.iter().any(|p| reaches_client(p) && flags_ok(p))
    };
    if severed {
        let why = if paths.is_empty() {
            "it drops every SYN+ACK"
        } else {
            "every emitted packet is checksum-broken, TTL-dead before the client, \
             or flagged so it cannot advance the handshake (no SYN bit, or a RST \
             alongside it)"
        };
        out.push(diag(
            Severity::Error,
            "handshake-severed",
            span,
            format!(
                "this part destroys the handshake: {why}; no connection can ever \
                 complete, so the strategy cannot beat the identity strategy"
            ),
            Some("keep one untampered branch that delivers the real SYN+ACK".into()),
            true,
        ));
        return;
    }
    if paths.iter().any(|p| p.via_fragment) {
        return;
    }

    // A path that actually completes the handshake: reaches the
    // client, advances by flags, and keeps the sequence space intact.
    let advances = |p: &PathEffect| {
        if !reaches_client(p) {
            return false;
        }
        let seq_ok = p.effect("TCP:seq").is_none();
        let ack_ok = p.effect("TCP:ack").is_none();
        match p.emitted_flags(&part.trigger) {
            // Unknown flags: viable only if they can land on a bare
            // SYN (ack ignored) or a SYN+ACK with both fields intact.
            None => seq_ok,
            Some(f) if flags_advance_handshake(f) => {
                if f.contains(TcpFlags::ACK) {
                    seq_ok && ack_ok
                } else {
                    seq_ok
                }
            }
            Some(_) => false,
        }
    };
    let advancing: Vec<usize> = (0..paths.len()).filter(|&i| advances(&paths[i])).collect();

    if advancing.is_empty() {
        // Not severed, so some path survives by flags — each such path
        // must have been blocked by a seq/ack rewrite.
        let blocked_on_seq = paths
            .iter()
            .any(|p| reaches_client(p) && flags_ok(p) && p.effect("TCP:seq").is_some());
        let (code, field, consequence) = if blocked_on_seq {
            (
                "seq-desync-kills-client",
                "seq",
                "the client acknowledges the bogus sequence number, which the \
                 server ignores forever — it stays in SYN_RCVD and no data can flow",
            )
        } else {
            (
                "ack-desync-kills-client",
                "ack",
                "the client rejects the wrong acknowledgment with a RST and the \
                 handshake never completes",
            )
        };
        out.push(diag(
            Severity::Error,
            code,
            span,
            format!(
                "every handshake-advancing packet this part emits has a rewritten \
                 TCP {field}: {consequence}; the strategy cannot beat the identity \
                 strategy"
            ),
            Some(format!(
                "keep one branch that leaves TCP:{field} untouched on a delivered \
                 SYN+ACK (or bare SYN)"
            )),
            true,
        ));
        return;
    }

    // Handshake-viable packets exist — but does a lethal RST+ACK
    // definitely arrive before the first of them?
    let kills = |p: &PathEffect| {
        definitely_reaches_client(p)
            && p.effect("TCP:ack").is_none()
            && matches!(
                p.emitted_flags(&part.trigger),
                Some(f) if f.contains(TcpFlags::RST) && f.contains(TcpFlags::ACK)
            )
    };
    if let Some(k) = (0..paths.len()).find(|&i| kills(&paths[i])) {
        if advancing.iter().all(|&i| i > k) {
            out.push(diag(
                Severity::Error,
                "deliverable-rst-resets-client",
                span,
                "a RST+ACK with a valid acknowledgment definitely reaches the \
                 client before any handshake-completing packet: SYN_SENT treats \
                 it as a genuine reset and the connection dies; the strategy \
                 cannot beat the identity strategy"
                    .into(),
                Some(
                    "break the RST copy's checksum or shorten its TTL so only the \
                     censor sees it (the paper's insertion shape)"
                        .into(),
                ),
                true,
            ));
        }
    }
}

/// `window-zero-stalls-client`: a delivered, handshake-advancing
/// SYN+ACK advertises a zero receive window. The connection opens but
/// the client cannot send data until a window update arrives —
/// zombie-like stalls that waste the whole exchange timeout. Not a
/// futility proof (persist-timer probes may eventually open the
/// window), hence a warning.
fn lint_window_zero(
    part: &StrategyPart,
    paths: &[PathEffect],
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    if !on_synack(part) {
        return;
    }
    let stalls = paths.iter().any(|p| {
        !p.checksum_broken()
            && matches!(
                p.emitted_flags(&part.trigger),
                Some(f) if flags_advance_handshake(f)
            )
            && p.effect("TCP:window") == Some(&FieldEffect::Written(FieldValue::Num(0)))
    });
    if stalls {
        out.push(diag(
            Severity::Warning,
            "window-zero-stalls-client",
            span,
            "a handshake-advancing packet advertises a zero receive window; the \
             client connects but stalls waiting for a window update"
                .into(),
            Some("advertise a nonzero window on the delivered copy".into()),
            false,
        ));
    }
}

/// `checksum-left-broken-reaches-client`: the part triggers on the
/// server's data segments (`PSH+ACK` — every data-bearing packet the
/// simulated server sends) and destroys all of them: each emitted copy
/// is checksum-broken or TTL-dead before the client, or the tree emits
/// nothing at all. Retransmissions re-match the same trigger and are
/// re-tampered identically, so the client can never receive the
/// response — the strategy cannot beat the identity strategy.
fn lint_data_flow_severed(
    part: &StrategyPart,
    paths: &[PathEffect],
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    let t = &part.trigger;
    let on_data = t.field.proto == Proto::Tcp && t.field.name == "flags" && t.value == "PA";
    if !on_data {
        return;
    }
    let severed = if paths.is_empty() {
        is_inert(&part.action)
    } else {
        !paths.iter().any(reaches_client)
    };
    if severed {
        let why = if paths.is_empty() {
            "it drops every data segment"
        } else {
            "every emitted copy is checksum-broken or TTL-dead before the client"
        };
        out.push(diag(
            Severity::Error,
            "checksum-left-broken-reaches-client",
            span,
            format!(
                "this part destroys the server's data segments: {why}; the client \
                 can never receive the response, so the strategy cannot beat the \
                 identity strategy"
            ),
            Some("keep one copy that delivers the real segment intact".into()),
            true,
        ));
    }
}

/// `synack-payload-compat`: a path delivers the real SYN+ACK *with
/// payload attached*. Linux-family clients ignore SYN+ACK payloads,
/// but Windows and macOS stacks break the connection (§7 of the
/// paper), so the strategy silently loses those client populations.
fn lint_synack_payload(
    part: &StrategyPart,
    paths: &[PathEffect],
    span: Span,
    out: &mut Vec<Diagnostic>,
) {
    if !on_synack(part) {
        return;
    }
    let risky = paths.iter().any(|p| {
        p.adds_payload()
            && !p.checksum_broken()
            && p.emitted_flags(&part.trigger) == Some(TcpFlags::SYN_ACK)
    });
    if risky {
        let intolerant: Vec<&str> = endpoint::profile::all_profiles()
            .iter()
            .filter(|p| !p.ignores_synack_payload)
            .map(|p| p.name)
            .collect();
        if !intolerant.is_empty() {
            out.push(diag(
                Severity::Warning,
                "synack-payload-compat",
                span,
                format!(
                    "a delivered SYN+ACK carries payload; {} client profiles \
                     (e.g. {}) abort the handshake on that",
                    intolerant.len(),
                    intolerant.first().copied().unwrap_or("?")
                ),
                Some(
                    "corrupt the checksum of the payload-bearing copy so clients \
                     discard it (the paper's §7 fix)"
                        .into(),
                ),
                false,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use geneva::parse_strategy;

    fn codes(src: &str) -> Vec<&'static str> {
        lint(src).expect("parses").iter().map(|d| d.code).collect()
    }

    #[test]
    fn no_op_chain_fires_on_cancelling_tree() {
        let c = codes("[TCP:flags:SA]-duplicate(drop,)-| \\/ ");
        assert!(c.contains(&"no-op-chain"), "{c:?}");
    }

    #[test]
    fn no_op_chain_quiet_on_real_duplicate() {
        let c = codes("[TCP:flags:SA]-duplicate(,)-| \\/ ");
        assert!(!c.contains(&"no-op-chain"), "{c:?}");
    }

    #[test]
    fn dead_branch_fires_on_out_of_range_port() {
        let c = codes("[TCP:sport:70000]-drop-| \\/ ");
        assert!(c.contains(&"dead-branch"), "{c:?}");
    }

    #[test]
    fn dead_branch_fires_on_non_canonical_flags() {
        let c = codes("[TCP:flags:AS]-duplicate(,)-| \\/ ");
        assert!(c.contains(&"dead-branch"), "{c:?}");
    }

    #[test]
    fn dead_branch_quiet_on_matchable_trigger() {
        let c = codes("[TCP:flags:SA]-duplicate(,)-| \\/ ");
        assert!(!c.contains(&"dead-branch"), "{c:?}");
    }

    #[test]
    fn shadowed_trigger_fires_on_repeat() {
        let c = codes("[TCP:ack:0]-duplicate(,)-|[TCP:ack:0]-drop-| \\/ ");
        assert!(c.contains(&"shadowed-trigger"), "{c:?}");
    }

    #[test]
    fn shadowed_trigger_quiet_on_distinct_triggers() {
        let c = codes("[TCP:ack:0]-duplicate(,)-|[TCP:ack:1]-drop-| \\/ ");
        assert!(!c.contains(&"shadowed-trigger"), "{c:?}");
    }

    #[test]
    fn checksum_futile_fires_when_every_path_is_broken() {
        let c = codes("[TCP:ack:0]-tamper{TCP:chksum:corrupt}-| \\/ ");
        assert!(c.contains(&"checksum-futile"), "{c:?}");
    }

    #[test]
    fn checksum_futile_fires_on_inbound_checksum_tamper() {
        let c = codes(" \\/ [TCP:flags:SA]-tamper{TCP:chksum:corrupt}-|");
        assert!(c.contains(&"checksum-futile"), "{c:?}");
    }

    #[test]
    fn checksum_futile_quiet_when_a_clean_copy_survives() {
        // The paper's insertion shape: corrupt only the duplicate.
        let c = codes("[TCP:flags:SA]-duplicate(tamper{TCP:chksum:corrupt},)-| \\/ ");
        assert!(!c.contains(&"checksum-futile"), "{c:?}");
    }

    #[test]
    fn ttl_unreachable_fires_below_middlebox_distance() {
        let c = codes("[TCP:flags:SA]-duplicate(tamper{IP:ttl:replace:2},)-| \\/ ");
        assert!(c.contains(&"ttl-unreachable"), "{c:?}");
    }

    #[test]
    fn ttl_unreachable_quiet_for_insertion_range_ttl() {
        // 10 hops: past the middlebox (8) but short of the client (12).
        let c = codes("[TCP:flags:SA]-duplicate(tamper{IP:ttl:replace:10},)-| \\/ ");
        assert!(!c.contains(&"ttl-unreachable"), "{c:?}");
    }

    #[test]
    fn dup_amplification_fires_at_eight_leaves() {
        let c = codes(
            "[TCP:flags:SA]-duplicate(duplicate(duplicate(,),duplicate(,)),\
             duplicate(duplicate(,),duplicate(,)))-| \\/ ",
        );
        assert!(c.contains(&"dup-amplification"), "{c:?}");
    }

    #[test]
    fn dup_amplification_quiet_below_threshold() {
        let c = codes("[TCP:flags:SA]-duplicate(duplicate(,),)-| \\/ ");
        assert!(!c.contains(&"dup-amplification"), "{c:?}");
    }

    #[test]
    fn client_side_trigger_fires_on_outbound_bare_syn() {
        let c = codes("[TCP:flags:S]-duplicate(,)-| \\/ ");
        assert!(
            c.contains(&"client-side-action-in-server-strategy"),
            "{c:?}"
        );
    }

    #[test]
    fn client_side_trigger_quiet_on_inbound_syn() {
        // Inbound SYNs are exactly what a server receives.
        let c = codes(" \\/ [TCP:flags:S]-duplicate(,)-|");
        assert!(
            !c.contains(&"client-side-action-in-server-strategy"),
            "{c:?}"
        );
    }

    #[test]
    fn synack_payload_fires_on_payload_bearing_synack() {
        let c = codes("[TCP:flags:SA]-tamper{TCP:load:replace:AAA}-| \\/ ");
        assert!(c.contains(&"synack-payload-compat"), "{c:?}");
    }

    #[test]
    fn synack_payload_quiet_when_payload_copy_is_checksum_broken() {
        // §7 fix: the payload-bearing duplicate has a corrupted
        // checksum, so intolerant clients discard it.
        let c = codes(
            "[TCP:flags:SA]-duplicate(tamper{TCP:load:replace:AAA}\
             (tamper{TCP:chksum:corrupt}),)-| \\/ ",
        );
        assert!(!c.contains(&"synack-payload-compat"), "{c:?}");
    }

    #[test]
    fn degenerate_fragment_fires_on_udp() {
        let c = codes("[UDP:sport:53]-fragment{UDP:8:True}(,)-| \\/ ");
        assert!(c.contains(&"degenerate-fragment"), "{c:?}");
    }

    #[test]
    fn degenerate_fragment_quiet_on_tcp_segmentation() {
        let c = codes("[TCP:flags:PA]-fragment{TCP:8:True}(,)-| \\/ ");
        assert!(!c.contains(&"degenerate-fragment"), "{c:?}");
    }

    #[test]
    fn handshake_severed_fires_on_dropped_synack() {
        let diags = lint("[TCP:flags:SA]-drop-| \\/ ").expect("parses");
        let d = diags
            .iter()
            .find(|d| d.code == "handshake-severed")
            .expect("fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.proves_futile);
    }

    #[test]
    fn handshake_severed_fires_when_all_copies_are_broken() {
        let c = codes("[TCP:flags:SA]-tamper{TCP:chksum:corrupt}-| \\/ ");
        assert!(c.contains(&"handshake-severed"), "{c:?}");
    }

    #[test]
    fn handshake_severed_quiet_when_real_synack_survives() {
        let c = codes("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/ ");
        assert!(!c.contains(&"handshake-severed"), "{c:?}");
    }

    #[test]
    fn handshake_severed_fires_when_no_emission_can_advance_syn_sent() {
        // Only a FIN reaches the client: not a SYN+ACK, not a
        // simultaneous-open SYN — the handshake never completes.
        let c = codes("[TCP:flags:SA]-tamper{TCP:flags:replace:F}-| \\/ ");
        assert!(c.contains(&"handshake-severed"), "{c:?}");
    }

    #[test]
    fn handshake_severed_quiet_on_simultaneous_open_and_corrupt_flags() {
        // Strategy 1's `replace:S` branch completes the handshake via
        // simultaneous open; corrupted flags are unknowable. Neither
        // proves severance.
        let sim_open =
            codes("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/ ");
        assert!(!sim_open.contains(&"handshake-severed"), "{sim_open:?}");
        let corrupt = codes("[TCP:flags:SA]-tamper{TCP:flags:corrupt}-| \\/ ");
        assert!(!corrupt.contains(&"handshake-severed"), "{corrupt:?}");
    }

    #[test]
    fn handshake_severed_sound_on_decorated_synack() {
        // SYN+PSH+ACK establishes exactly like SYN+ACK (the client
        // checks flag bits, not exact strings) — must not be refuted.
        let c = codes("[TCP:flags:SA]-tamper{TCP:flags:replace:SPA}-| \\/ ");
        assert!(!c.contains(&"handshake-severed"), "{c:?}");
    }

    #[test]
    fn seq_desync_fires_when_every_advancing_copy_is_desynced() {
        let diags = lint("[TCP:flags:SA]-tamper{TCP:seq:corrupt}-| \\/ ").expect("parses");
        let d = diags
            .iter()
            .find(|d| d.code == "seq-desync-kills-client")
            .expect("fires");
        assert!(d.proves_futile && d.severity == Severity::Error);
    }

    #[test]
    fn seq_desync_quiet_when_clean_copy_survives() {
        let c = codes(
            "[TCP:flags:SA]-duplicate(tamper{TCP:seq:corrupt}(tamper{TCP:chksum:corrupt}),)-| \\/ ",
        );
        assert!(!c.contains(&"seq-desync-kills-client"), "{c:?}");
    }

    #[test]
    fn ack_desync_fires_on_ack_rewrite() {
        let c = codes("[TCP:flags:SA]-tamper{TCP:ack:replace:99}-| \\/ ");
        assert!(c.contains(&"ack-desync-kills-client"), "{c:?}");
    }

    #[test]
    fn ack_rewrite_survives_via_simultaneous_open() {
        // A bare SYN ignores the ack field, so an ack rewrite on a
        // sim-open copy is harmless — must not be refuted.
        let c =
            codes("[TCP:flags:SA]-tamper{TCP:ack:corrupt}(tamper{TCP:flags:replace:S},)-| \\/ ");
        assert!(!c.contains(&"ack-desync-kills-client"), "{c:?}");
        assert!(!c.contains(&"handshake-severed"), "{c:?}");
    }

    #[test]
    fn deliverable_rst_fires_when_rst_ack_precedes_real_synack() {
        let diags =
            lint("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:RA},)-| \\/ ").expect("parses");
        let d = diags
            .iter()
            .find(|d| d.code == "deliverable-rst-resets-client")
            .expect("fires");
        assert!(d.proves_futile);
    }

    #[test]
    fn deliverable_rst_quiet_when_rst_copy_is_censor_only() {
        // Insertion shape: the RST copy is checksum-broken, only the
        // censor processes it.
        let c = codes(
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:RA}\
             (tamper{TCP:chksum:corrupt}),)-| \\/ ",
        );
        assert!(!c.contains(&"deliverable-rst-resets-client"), "{c:?}");
        // Bare RSTs (no ACK) are ignored in SYN_SENT: strategy 1 shape.
        let bare = codes("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/ ");
        assert!(!bare.contains(&"deliverable-rst-resets-client"), "{bare:?}");
    }

    #[test]
    fn window_zero_warns_but_does_not_refute() {
        let diags = lint("[TCP:flags:SA]-tamper{TCP:window:replace:0}-| \\/ ").expect("parses");
        let d = diags
            .iter()
            .find(|d| d.code == "window-zero-stalls-client")
            .expect("fires");
        assert!(d.severity == Severity::Warning && !d.proves_futile);
        let c = codes("[TCP:flags:SA]-tamper{TCP:window:replace:1000}-| \\/ ");
        assert!(!c.contains(&"window-zero-stalls-client"), "{c:?}");
    }

    #[test]
    fn data_flow_severed_fires_when_every_data_copy_dies() {
        let diags = lint("[TCP:flags:PA]-tamper{TCP:chksum:corrupt}-| \\/ ").expect("parses");
        let d = diags
            .iter()
            .find(|d| d.code == "checksum-left-broken-reaches-client")
            .expect("fires");
        assert!(d.proves_futile);
        let dropped = lint("[TCP:flags:PA]-drop-| \\/ ").expect("parses");
        assert!(dropped
            .iter()
            .any(|d| d.code == "checksum-left-broken-reaches-client"));
    }

    #[test]
    fn data_flow_quiet_when_clean_segment_survives() {
        let c = codes("[TCP:flags:PA]-duplicate(tamper{TCP:chksum:corrupt},)-| \\/ ");
        assert!(!c.contains(&"checksum-left-broken-reaches-client"), "{c:?}");
        // Segmentation refinalizes both pieces: deliverable.
        let frag =
            codes("[TCP:flags:PA]-tamper{TCP:chksum:corrupt}(fragment{TCP:8:True}(,),)-| \\/ ");
        assert!(
            !frag.contains(&"checksum-left-broken-reaches-client"),
            "{frag:?}"
        );
    }

    #[test]
    fn futility_proofs_stand_down_on_shielded_parts() {
        // An earlier different-field part may swallow the SYN+ACK
        // first, so the later drop proves nothing about the strategy.
        let c = codes("[IP:ttl:64]-duplicate(,)-|[TCP:flags:SA]-drop-| \\/ ");
        assert!(!c.contains(&"handshake-severed"), "{c:?}");
        // Same field, different value: provably disjoint — the proof
        // stands.
        let c = codes("[TCP:flags:S]-duplicate(,)-|[TCP:flags:SA]-drop-| \\/ ");
        assert!(c.contains(&"handshake-severed"), "{c:?}");
    }

    #[test]
    fn no_paper_strategy_is_statically_futile() {
        // The futility prover must be sound: every §5 strategy beats
        // the identity strategy in the paper's measurements, so none
        // may ever be rejected statically.
        for named in geneva::library::server_side() {
            let analysis = crate::analyze(&named.strategy());
            assert!(
                !analysis.statically_futile,
                "{} wrongly proven futile: {:?}",
                named.name, analysis.diagnostics
            );
        }
    }

    #[test]
    fn spans_point_into_source() {
        let src = "[TCP:sport:70000]-drop-| \\/ ";
        let diags = lint(src).expect("parses");
        let d = diags
            .iter()
            .find(|d| d.code == "dead-branch")
            .expect("fires");
        assert_eq!(&src[d.span.start..d.span.end], "[TCP:sport:70000]");
    }

    #[test]
    fn analysis_marks_futile_strategies() {
        let severed = parse_strategy("[TCP:flags:SA]-drop-| \\/ ").expect("parses");
        assert!(crate::analyze(&severed).statically_futile);
        let fine = parse_strategy("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/ ")
            .expect("parses");
        assert!(!crate::analyze(&fine).statically_futile);
    }
}
