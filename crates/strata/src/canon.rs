//! Canonicalization: rewrite a strategy to a normal form with
//! *byte-identical* engine semantics, then hash it into a [`CanonKey`].
//!
//! Every rewrite below preserves `Engine::apply_outbound` /
//! `apply_inbound` output exactly, for every packet and every seed.
//! That guarantee leans on the engine's per-site corrupt PRNG (a pure
//! function of seed, packet bytes and field name): deleting a dead
//! subtree cannot shift the random values drawn elsewhere.
//!
//! Rewrites, applied bottom-up to a fixed point:
//!
//! * **inert collapse** — a subtree that can never emit a packet
//!   (`drop`, `tamper(..→inert)`, `duplicate(inert,inert)`,
//!   `fragment(inert,inert)`) becomes `drop`;
//! * **duplicate identities** — `duplicate(drop,x) → x`,
//!   `duplicate(x,drop) → x`;
//! * **degenerate fragment** — `fragment{UDP/DNS/FTP:..}(a,b) → a`
//!   (the engine never splits application-layer protos, the second
//!   subtree is unreachable);
//! * **dead store** — `tamper{f:*}(tamper{f:replace:v}(k))` →
//!   `tamper{f:replace:v}(k)`: the first write is fully shadowed
//!   (`finalize` recomputes every derived field from scratch, so no
//!   residue of the shadowed write survives);
//! * **value folding** — replace-values are folded to the
//!   representation `FieldRef::set` actually stores: numeric fields
//!   fold any value through `numeric()` to `Num`, option fields fold
//!   non-empty values to `Num`, byte fields fold `Str("")`/`Bytes([])`
//!   to `Empty`, flag strings fold to `TcpFlags` canonical order;
//! * **part-level cleanup** — parts whose trigger duplicates an
//!   earlier part's are unreachable and dropped; a trailing part whose
//!   action is `send` equals the no-match fallthrough and is dropped.
//!
//! Deliberately *not* done: sorting `duplicate` branches. Emission
//! order is wire-visible (the censor sees the packets in sequence), so
//! `duplicate(a,b)` and `duplicate(b,a)` are different strategies.

use geneva::ast::{Action, StrategyPart, TamperMode};
use geneva::Strategy;
use packet::field::{numeric, FieldKind, FieldRef, FieldValue};
use packet::{Proto, TcpFlags};

/// Equivalence-class hash of a canonical strategy. Two strategies with
/// equal keys produce identical engine output (up to hash collision,
/// ~2⁻⁶⁴ per pair) for every packet and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonKey(pub u64);

impl CanonKey {
    /// Hash an (already canonical) strategy. Call
    /// [`canonicalize_strategy`] first — hashing a non-canonical tree
    /// gives a key that distinguishes equivalent strategies.
    pub fn of(canonical: &Strategy) -> CanonKey {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in canonical.to_string().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        CanonKey(hash)
    }
}

impl std::fmt::Display for CanonKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Can this subtree ever emit a packet? `false` means the subtree is
/// equivalent to `drop` for every input.
pub fn is_inert(action: &Action) -> bool {
    match action {
        Action::Send => false,
        Action::Drop => true,
        Action::Tamper { next, .. } => is_inert(next),
        Action::Duplicate(a, b) => is_inert(a) && is_inert(b),
        // A fragment that doesn't split runs only `first`; one that
        // does runs both. Inert only if both subtrees are.
        Action::Fragment { first, second, .. } => is_inert(first) && is_inert(second),
    }
}

/// Rewrite one action tree to canonical form.
pub fn canonicalize(action: &Action) -> Action {
    let mut current = canon_step(action);
    // Each rewrite can expose another (e.g. collapsing a duplicate
    // branch creates a new dead-store pair), so iterate to a fixed
    // point. Every step strictly shrinks the tree or leaves it
    // unchanged, so this terminates quickly.
    loop {
        let next = canon_step(&current);
        if next == current {
            return current;
        }
        current = next;
    }
}

fn canon_step(action: &Action) -> Action {
    match action {
        Action::Send => Action::Send,
        Action::Drop => Action::Drop,
        Action::Duplicate(a, b) => {
            let a = canon_step(a);
            let b = canon_step(b);
            match (a, b) {
                (Action::Drop, b) => b,
                (a, Action::Drop) => a,
                (a, b) => Action::Duplicate(Box::new(a), Box::new(b)),
            }
        }
        Action::Tamper { field, mode, next } => {
            let next = canon_step(next);
            if is_inert(&next) {
                // The tampered packet is never emitted; the tamper has
                // no observable effect (corrupt PRNGs are per-site, so
                // no draw-order side channel survives either).
                return Action::Drop;
            }
            // Dead store: this tamper's write is fully shadowed by an
            // immediate replace of the same field.
            if let Action::Tamper {
                field: next_field,
                mode: TamperMode::Replace(_),
                ..
            } = &next
            {
                if next_field == field {
                    return next;
                }
            }
            let mode = match mode {
                TamperMode::Corrupt => TamperMode::Corrupt,
                TamperMode::Replace(value) => TamperMode::Replace(fold_value(field, value)),
            };
            Action::Tamper {
                field: field.clone(),
                mode,
                next: Box::new(next),
            }
        }
        Action::Fragment {
            proto,
            offset,
            in_order,
            first,
            second,
        } => {
            let first = canon_step(first);
            let second = canon_step(second);
            // The engine only splits TCP (segmentation) and IP
            // (fragmentation); for application protos it always runs
            // the first subtree on the untouched packet.
            if matches!(proto, Proto::Udp | Proto::Dns | Proto::Ftp) {
                return first;
            }
            if is_inert(&first) && is_inert(&second) {
                return Action::Drop;
            }
            Action::Fragment {
                proto: *proto,
                offset: *offset,
                in_order: *in_order,
                first: Box::new(first),
                second: Box::new(second),
            }
        }
    }
}

/// Fold a replace-value to the representation `FieldRef::set` stores.
///
/// Folds only where `set`'s own conversion proves equivalence:
/// * numeric kinds (`U8`/`U16`/`U32`, excluding `TCP:flags` which has
///   its own string parser) go through the same `numeric()` conversion
///   for every value variant, so everything folds to `Num`;
/// * option kinds treat `Empty` specially (strip the option) but
///   convert everything else through `numeric()`;
/// * byte kinds store `Str` and `Bytes` as raw bytes — empty collapses
///   to `Empty`, and valid-UTF-8 bytes fold to the shorter `Str` form;
/// * flag strings that `TcpFlags` can parse fold to its canonical
///   render order (`Str("AS")` ≡ `Str("SA")`).
pub(crate) fn fold_value(field: &FieldRef, value: &FieldValue) -> FieldValue {
    let kind = match field.kind() {
        Ok(kind) => kind,
        Err(_) => return value.clone(),
    };
    match kind {
        FieldKind::U8 | FieldKind::U16 | FieldKind::U32 => FieldValue::Num(numeric(value)),
        FieldKind::OptionNum => match value {
            FieldValue::Empty => FieldValue::Empty,
            other => FieldValue::Num(numeric(other)),
        },
        FieldKind::Flags => match value {
            FieldValue::Str(s) => match TcpFlags::from_geneva(s) {
                Some(flags) => FieldValue::Str(flags.to_geneva()),
                None => value.clone(),
            },
            other => other.clone(),
        },
        FieldKind::Bytes => match value {
            FieldValue::Str(s) if s.is_empty() => FieldValue::Empty,
            FieldValue::Bytes(b) if b.is_empty() => FieldValue::Empty,
            FieldValue::Bytes(b) => match std::str::from_utf8(b) {
                // `set` stores Str and Bytes identically; prefer the
                // readable form when it round-trips losslessly and
                // parses back as the same value (no '%', no digits-only
                // ambiguity with Num, printable ASCII only).
                Ok(s)
                    if !s.is_empty()
                        && s.bytes().all(|c| (0x20..0x7f).contains(&c) && c != b'%')
                        && s.parse::<u64>().is_err() =>
                {
                    FieldValue::Str(s.to_string())
                }
                _ => value.clone(),
            },
            other => other.clone(),
        },
    }
}

/// Canonicalize every part of a strategy, and drop parts that can
/// never observably fire.
pub fn canonicalize_strategy(strategy: &Strategy) -> Strategy {
    Strategy {
        outbound: canonicalize_parts(&strategy.outbound),
        inbound: canonicalize_parts(&strategy.inbound),
    }
}

fn canonicalize_parts(parts: &[StrategyPart]) -> Vec<StrategyPart> {
    let mut out: Vec<StrategyPart> = Vec::with_capacity(parts.len());
    for part in parts {
        // First matching part wins in the engine: a later part with an
        // identical trigger is unreachable.
        let shadowed = out.iter().any(|prev| {
            prev.trigger.field == part.trigger.field && prev.trigger.value == part.trigger.value
        });
        if shadowed {
            continue;
        }
        out.push(StrategyPart {
            trigger: part.trigger.clone(),
            action: canonicalize(&part.action),
        });
    }
    // A trailing `send` part behaves exactly like the engine's
    // no-match fallthrough (emit the packet unchanged) — but only when
    // no later part could have matched the same packet, i.e. when it
    // is last. Repeat in case stripping one exposes another.
    while matches!(out.last(), Some(part) if part.action == Action::Send) {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use geneva::parse_strategy;

    fn canon_text(text: &str) -> String {
        canonicalize_strategy(&parse_strategy(text).expect("parses")).to_string()
    }

    #[test]
    fn inert_subtrees_collapse_to_drop() {
        assert_eq!(
            canon_text("[TCP:flags:SA]-tamper{TCP:seq:corrupt}(drop,)-| \\/ "),
            "[TCP:flags:SA]-drop-| \\/ "
        );
        assert_eq!(
            canon_text("[TCP:flags:SA]-duplicate(drop,drop)-| \\/ "),
            "[TCP:flags:SA]-drop-| \\/ "
        );
        assert_eq!(
            canon_text("[TCP:flags:SA]-fragment{TCP:8:True}(drop,drop)-| \\/ "),
            "[TCP:flags:SA]-drop-| \\/ "
        );
    }

    #[test]
    fn duplicate_identities() {
        assert_eq!(
            canon_text("[TCP:flags:SA]-duplicate(drop,tamper{TCP:flags:replace:R})-| \\/ "),
            "[TCP:flags:SA]-tamper{TCP:flags:replace:R}-| \\/ "
        );
        assert_eq!(
            canon_text("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},drop)-| \\/ "),
            "[TCP:flags:SA]-tamper{TCP:flags:replace:R}-| \\/ "
        );
    }

    #[test]
    fn nested_collapse_reaches_fixed_point() {
        // duplicate(duplicate(drop,drop), x) → duplicate(drop, x) → x
        assert_eq!(
            canon_text("[TCP:flags:SA]-duplicate(duplicate(drop,drop),)-| \\/ "),
            " \\/ "
        );
    }

    #[test]
    fn dead_store_elimination() {
        assert_eq!(
            canon_text("[TCP:flags:SA]-tamper{TCP:seq:corrupt}(tamper{TCP:seq:replace:5},)-| \\/ "),
            "[TCP:flags:SA]-tamper{TCP:seq:replace:5}-| \\/ "
        );
        // Different fields: both survive.
        assert_eq!(
            canon_text("[TCP:flags:SA]-tamper{TCP:ack:corrupt}(tamper{TCP:seq:replace:5},)-| \\/ "),
            "[TCP:flags:SA]-tamper{TCP:ack:corrupt}(tamper{TCP:seq:replace:5})-| \\/ "
        );
        // Corrupt does not shadow (it reads the packet state).
        assert_eq!(
            canon_text("[TCP:flags:SA]-tamper{TCP:seq:replace:5}(tamper{TCP:seq:corrupt},)-| \\/ "),
            "[TCP:flags:SA]-tamper{TCP:seq:replace:5}(tamper{TCP:seq:corrupt})-| \\/ "
        );
    }

    #[test]
    fn app_layer_fragment_degenerates_to_first() {
        assert_eq!(
            canon_text("[TCP:flags:SA]-fragment{UDP:8:True}(tamper{TCP:flags:replace:R},)-| \\/ "),
            "[TCP:flags:SA]-tamper{TCP:flags:replace:R}-| \\/ "
        );
    }

    #[test]
    fn tcp_fragment_with_live_branch_survives() {
        let text = "[TCP:flags:PA]-fragment{TCP:8:False}(drop,)-| \\/ ";
        assert_eq!(canon_text(text), text);
    }

    #[test]
    fn value_folding() {
        // Flag strings fold to canonical order.
        let a = canon_text("[TCP:flags:SA]-tamper{TCP:flags:replace:AS}-| \\/ ");
        let b = canon_text("[TCP:flags:SA]-tamper{TCP:flags:replace:SA}-| \\/ ");
        assert_eq!(a, b);
    }

    #[test]
    fn shadowed_parts_and_trailing_send_are_dropped() {
        assert_eq!(
            canon_text("[TCP:flags:SA]-drop-|[TCP:flags:SA]-duplicate(,)-| \\/ "),
            "[TCP:flags:SA]-drop-| \\/ "
        );
        assert_eq!(canon_text("[TCP:flags:SA]-send-| \\/ "), " \\/ ");
        // A send part that is NOT last must survive (it shields the
        // packet from later same-field parts... it can't — same field
        // exact-match — but it can shield from later different-field
        // parts).
        let text = "[TCP:flags:SA]-send-|[IP:ttl:64]-drop-| \\/ ";
        assert_eq!(canon_text(text), text);
    }

    #[test]
    fn canonical_key_identifies_equivalent_strategies() {
        let a = parse_strategy("[TCP:flags:SA]-duplicate(drop,tamper{TCP:seq:replace:7})-| \\/ ")
            .unwrap();
        let b = parse_strategy(
            "[TCP:flags:SA]-tamper{TCP:seq:corrupt}(tamper{TCP:seq:replace:7},)-| \\/ ",
        )
        .unwrap();
        let c = parse_strategy("[TCP:flags:SA]-tamper{TCP:seq:replace:8}-| \\/ ").unwrap();
        let key = |s| CanonKey::of(&canonicalize_strategy(s));
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn identity_is_fixed_point() {
        let strategies = [
            " \\/ ",
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/ ",
            "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,))-| \\/ ",
        ];
        for text in strategies {
            let parsed = parse_strategy(text).unwrap();
            let once = canonicalize_strategy(&parsed);
            let twice = canonicalize_strategy(&once);
            assert_eq!(once, twice, "not idempotent on {text}");
        }
    }
}
