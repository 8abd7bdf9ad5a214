//! Abstract interpretation over strategies and compiled programs.
//!
//! Two front ends share this module:
//!
//! * **Front end A** ([`verify_ops`]) walks a lowered instruction
//!   sequence ([`AbsOp`] — the neutral mirror of `dplane::program::Op`)
//!   over an abstract stack domain and discharges three proof
//!   obligations per program body:
//!
//!   1. **stack discipline** — no instruction consumes from an empty
//!      stack, the maximum depth is statically bounded, and the body
//!      consumes exactly its one input packet (final depth zero);
//!   2. **termination** — every `Jump`/`Split` target is strictly
//!      forward, so the control-flow graph is a DAG (trivially
//!      reducible, no back-edges at all) and execution visits each
//!      instruction at most once;
//!   3. **bounded amplification** — a worst-case emitted-packet count
//!      per trigger packet, finite by the DAG property and computed
//!      exactly by joining emission counts over `Split` alternatives.
//!
//!   The per-slot abstract value is a checksum state ([`SlotState`]):
//!   a packet slot is `Valid` when it was provably produced by the
//!   engine's own `finalize` (or its byte-identical RFC 1624
//!   incremental path), which is what licenses the `TrustedValid`
//!   tamper fast path downstream.
//!
//! * **Front end B** ([`summarize`], [`action_effects`]) walks Geneva
//!   strategy trees computing a [`FieldEffect`] summary per emitted
//!   path: for each header field Untouched (absent from the map) /
//!   `Written(value)` / `Corrupted`, plus a three-state checksum
//!   lattice Valid / Broken / Refinalized. [`summarize`] canonicalizes
//!   first, so `CanonKey`-equal strategies get identical summaries by
//!   construction.
//!
//! Soundness conventions (shared with `lints`): a *futility* proof may
//! only rely on facts that hold on every dynamic execution, so unknown
//! values (corrupted flags, corrupted TTLs) always count in the
//! strategy's favour. The analyses treat a `corrupt` draw landing on
//! the field's original value (2⁻³² for seq/ack, 2⁻¹⁶ for checksums)
//! as impossible — the same tolerance the engine's own
//! "corrupt-checksum-stays-broken" semantics already assume.

use std::collections::BTreeMap;
use std::fmt;

use geneva::ast::{Action, TamperMode, Trigger};
use geneva::Strategy;
use packet::field::{FieldRef, FieldValue};
use packet::{Proto, TcpFlags};

use crate::canon::{canonicalize_strategy, fold_value, CanonKey};

// ---------------------------------------------------------------------------
// Front end A: abstract stack machine over lowered programs
// ---------------------------------------------------------------------------

/// Neutral mirror of `dplane::program::Op`, carrying exactly the facts
/// the abstract interpreter needs. `dplane` lowers its ops into this
/// form (`strata` cannot depend on `dplane` — the dependency points the
/// other way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsOp {
    /// Pop the top packet and emit it.
    Emit,
    /// Pop the top packet and discard it.
    Pop,
    /// Push a copy of the top packet.
    Dup,
    /// Rewrite one field of the top packet.
    Tamper(TamperKind),
    /// Try to split the top packet: on success two finalized pieces
    /// replace it and control falls through; otherwise control jumps
    /// to `nosplit` with the stack unchanged.
    Split {
        /// Jump target for the nothing-to-split case.
        nosplit: usize,
    },
    /// Unconditional forward jump.
    Jump(usize),
}

/// What a tamper does to the packet's checksum validity — the only
/// field-level fact front end A tracks per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperKind {
    /// Non-derived field: the engine re-finalizes afterwards (or takes
    /// the byte-identical incremental path), leaving a canonical
    /// packet with verifying checksums.
    Refinalizing,
    /// A checksum field: the stored (bogus) value rides to the wire.
    BreaksChecksum,
    /// Another derived field (`len`, `dataofs`, …): the store is kept
    /// verbatim and the packet's validity is no longer known.
    OtherDerived,
}

/// Abstract checksum state of one stack slot.
///
/// `Valid` is the load-bearing fact: it means the packet is exactly
/// what the engine's own `finalize` produces — derived fields
/// canonical and both checksums verifying — so the two O(n) runtime
/// scans guarding the incremental-checksum fast path are provably
/// redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SlotState {
    /// Nothing is known (the wire input packet, or a join of
    /// disagreeing paths). The conservative top of the lattice.
    Unknown,
    /// Provably a fixed point of `finalize`.
    Valid,
    /// A checksum field holds a stored, almost-certainly-wrong value.
    Broken,
}

impl SlotState {
    fn join(self, other: SlotState) -> SlotState {
        if self == other {
            self
        } else {
            SlotState::Unknown
        }
    }
}

/// Hard cap on the abstract (and therefore concrete) stack depth.
/// Compiled trees reach depth ≈ nesting of `duplicate`/`fragment`;
/// anything past this is pathological.
pub const MAX_STACK: usize = 128;

/// Hard cap on the provable worst-case emission count. The DAG
/// property already makes the bound finite; this rejects programs
/// whose finite bound is still absurd.
pub const MAX_EMIT: usize = 4096;

/// Why a program body failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A `Jump`/`Split` target does not move strictly forward — the
    /// termination proof fails.
    JumpBackward {
        /// Offending instruction index.
        pc: usize,
        /// Its target.
        target: usize,
    },
    /// A `Jump`/`Split` target lies outside the program.
    JumpOutOfBounds {
        /// Offending instruction index.
        pc: usize,
        /// Its target.
        target: usize,
        /// Program length.
        len: usize,
    },
    /// An instruction consumes from a provably empty stack.
    StackUnderflow {
        /// Offending instruction index.
        pc: usize,
    },
    /// The abstract stack exceeds [`MAX_STACK`].
    StackOverflow {
        /// Offending instruction index.
        pc: usize,
        /// Depth reached.
        depth: usize,
    },
    /// The body terminates without consuming its input packet
    /// (final stack depth non-zero).
    LeakedStack {
        /// A reachable final depth ≠ 0.
        depth: usize,
    },
    /// The provable worst-case emission count exceeds [`MAX_EMIT`].
    Amplification {
        /// The count at the point it blew the cap.
        emit: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::JumpBackward { pc, target } => {
                write!(
                    f,
                    "op {pc} jumps backward to {target}: termination unprovable"
                )
            }
            VerifyError::JumpOutOfBounds { pc, target, len } => {
                write!(f, "op {pc} jumps to {target}, past the program end {len}")
            }
            VerifyError::StackUnderflow { pc } => {
                write!(f, "op {pc} consumes from an empty packet stack")
            }
            VerifyError::StackOverflow { pc, depth } => {
                write!(
                    f,
                    "op {pc} grows the packet stack to {depth} (cap {MAX_STACK})"
                )
            }
            VerifyError::LeakedStack { depth } => {
                write!(f, "body ends with {depth} packet(s) still on the stack")
            }
            VerifyError::Amplification { emit } => {
                write!(f, "worst-case emission {emit} exceeds the cap {MAX_EMIT}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The discharged proof obligations of one verified body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsProof {
    /// Maximum packet-stack depth over every path.
    pub max_stack: usize,
    /// Worst-case number of emitted packets per trigger packet.
    pub max_emit: usize,
    /// Per instruction: `true` iff it is a `Tamper` whose top-of-stack
    /// packet is [`SlotState::Valid`] on *every* path reaching it —
    /// the license for the `TrustedValid` fast path.
    pub tamper_valid: Vec<bool>,
}

/// Abstractly interpret one body. See the module docs for the proof
/// obligations; `Err` means installation must be refused.
pub fn verify_ops(ops: &[AbsOp]) -> Result<OpsProof, VerifyError> {
    let len = ops.len();
    // Termination: every control transfer is strictly forward, so pc
    // is strictly increasing along any execution and bounded by `len`.
    for (pc, op) in ops.iter().enumerate() {
        let target = match op {
            AbsOp::Split { nosplit } => Some(*nosplit),
            AbsOp::Jump(t) => Some(*t),
            _ => None,
        };
        if let Some(target) = target {
            if target > len {
                return Err(VerifyError::JumpOutOfBounds { pc, target, len });
            }
            if target <= pc {
                return Err(VerifyError::JumpBackward { pc, target });
            }
        }
    }

    // One abstract state per (pc, stack depth): slot states joined
    // slot-wise, emission count joined by max. Forward-only edges mean
    // a single in-order sweep sees every predecessor before its
    // successors.
    type Stack = (Vec<SlotState>, usize);
    let mut states: Vec<BTreeMap<usize, Stack>> = vec![BTreeMap::new(); len + 1];
    states[0].insert(1, (vec![SlotState::Unknown], 0));
    let mut max_stack = 1usize;
    let mut tamper_tops: Vec<Option<SlotState>> = vec![None; len];

    fn flow(
        states: &mut [BTreeMap<usize, (Vec<SlotState>, usize)>],
        to: usize,
        stack: (Vec<SlotState>, usize),
    ) {
        let depth = stack.0.len();
        match states[to].get_mut(&depth) {
            Some((slots, emits)) => {
                for (slot, new) in slots.iter_mut().zip(stack.0) {
                    *slot = slot.join(new);
                }
                *emits = (*emits).max(stack.1);
            }
            None => {
                states[to].insert(depth, stack);
            }
        }
    }

    for pc in 0..len {
        let here: Vec<Stack> = states[pc].values().cloned().collect();
        for (mut slots, emits) in here {
            max_stack = max_stack.max(slots.len());
            match &ops[pc] {
                AbsOp::Emit => {
                    if slots.pop().is_none() {
                        return Err(VerifyError::StackUnderflow { pc });
                    }
                    let emits = emits + 1;
                    if emits > MAX_EMIT {
                        return Err(VerifyError::Amplification { emit: emits });
                    }
                    flow(&mut states, pc + 1, (slots, emits));
                }
                AbsOp::Pop => {
                    if slots.pop().is_none() {
                        return Err(VerifyError::StackUnderflow { pc });
                    }
                    flow(&mut states, pc + 1, (slots, emits));
                }
                AbsOp::Dup => {
                    let Some(top) = slots.last().copied() else {
                        return Err(VerifyError::StackUnderflow { pc });
                    };
                    slots.push(top);
                    if slots.len() > MAX_STACK {
                        return Err(VerifyError::StackOverflow {
                            pc,
                            depth: slots.len(),
                        });
                    }
                    flow(&mut states, pc + 1, (slots, emits));
                }
                AbsOp::Tamper(kind) => {
                    let Some(top) = slots.last_mut() else {
                        return Err(VerifyError::StackUnderflow { pc });
                    };
                    let entry = *top;
                    tamper_tops[pc] = Some(match tamper_tops[pc] {
                        None => entry,
                        Some(seen) => seen.join(entry),
                    });
                    *top = match kind {
                        TamperKind::Refinalizing => SlotState::Valid,
                        TamperKind::BreaksChecksum => SlotState::Broken,
                        TamperKind::OtherDerived => SlotState::Unknown,
                    };
                    flow(&mut states, pc + 1, (slots, emits));
                }
                AbsOp::Split { nosplit } => {
                    if slots.is_empty() {
                        return Err(VerifyError::StackUnderflow { pc });
                    }
                    // No-split edge: the packet stays put, untouched.
                    flow(&mut states, *nosplit, (slots.clone(), emits));
                    // Split edge: two freshly finalized pieces.
                    slots.pop();
                    slots.push(SlotState::Valid);
                    slots.push(SlotState::Valid);
                    if slots.len() > MAX_STACK {
                        return Err(VerifyError::StackOverflow {
                            pc,
                            depth: slots.len(),
                        });
                    }
                    flow(&mut states, pc + 1, (slots, emits));
                }
                AbsOp::Jump(target) => {
                    flow(&mut states, *target, (slots, emits));
                }
            }
        }
    }

    let mut max_emit = 0usize;
    for (depth, (_, emits)) in &states[len] {
        if *depth != 0 {
            return Err(VerifyError::LeakedStack { depth: *depth });
        }
        max_emit = max_emit.max(*emits);
    }
    let tamper_valid = ops
        .iter()
        .enumerate()
        .map(|(pc, op)| matches!(op, AbsOp::Tamper(_)) && tamper_tops[pc] == Some(SlotState::Valid))
        .collect();
    Ok(OpsProof {
        max_stack,
        max_emit,
        tamper_valid,
    })
}

// ---------------------------------------------------------------------------
// Front end B: FieldEffect summaries over strategy trees
// ---------------------------------------------------------------------------

/// What one emitted path did to a single header field. A field absent
/// from the map is *Untouched*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldEffect {
    /// Replaced with a statically known value (folded the same way
    /// `FieldRef::set` stores it).
    Written(FieldValue),
    /// Overwritten with a value unknowable at analysis time (`corrupt`,
    /// whose per-site PRNG depends on the dynamic packet bytes).
    Corrupted,
}

/// Checksum state of one emitted path's packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumEffect {
    /// Never touched: the wire checksums the host's stack wrote.
    Valid,
    /// A checksum field holds a stored bogus value; the client's stack
    /// drops the packet.
    Broken,
    /// Was broken (or split) and then repaired by a re-finalizing
    /// tamper or a fragment finalize. Verifies like `Valid`.
    Refinalized,
}

/// The abstract packet one root-to-`send` path emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEffect {
    /// Per-field effects, keyed by `FieldRef::to_syntax()` (e.g.
    /// `"TCP:seq"`). Absent key = untouched.
    pub fields: BTreeMap<String, FieldEffect>,
    /// Checksum validity at emission.
    pub checksum: ChecksumEffect,
    /// The path crosses a `fragment` node, so its field facts describe
    /// a superset of dynamic behaviours (the split may or may not
    /// happen, and the second piece's `seq` shifts by the cut).
    /// Order-sensitive proofs must skip such parts.
    pub via_fragment: bool,
}

impl PathEffect {
    fn untouched() -> PathEffect {
        PathEffect {
            fields: BTreeMap::new(),
            checksum: ChecksumEffect::Valid,
            via_fragment: false,
        }
    }

    /// The effect on one field (`None` = untouched).
    pub fn effect(&self, field_syntax: &str) -> Option<&FieldEffect> {
        self.fields.get(field_syntax)
    }

    /// The checksum is *definitely* wrong at emission.
    pub fn checksum_broken(&self) -> bool {
        self.checksum == ChecksumEffect::Broken
    }

    /// The packet's TTL when statically known; `None` = unknowable
    /// (corrupted or non-numeric write).
    pub fn ttl(&self, default_ttl: u8) -> Option<u64> {
        match self.effect("IP:ttl") {
            None => Some(u64::from(default_ttl)),
            Some(FieldEffect::Written(FieldValue::Num(n))) => Some(*n),
            Some(FieldEffect::Written(FieldValue::Str(s))) => s.parse().ok(),
            Some(_) => None,
        }
    }

    /// A non-clearing write touched the TCP payload on this path.
    pub fn adds_payload(&self) -> bool {
        match self.effect("TCP:load") {
            None => false,
            Some(FieldEffect::Written(FieldValue::Empty)) => false,
            // Corrupting an empty payload invents a short random one.
            Some(_) => true,
        }
    }

    /// Canonical TCP flags at emission, inheriting from the trigger
    /// when untouched. `None` = statically unknown.
    pub fn emitted_flags(&self, trigger: &Trigger) -> Option<TcpFlags> {
        match self.effect("TCP:flags") {
            None => {
                if trigger.field.proto == Proto::Tcp && trigger.field.name == "flags" {
                    TcpFlags::from_geneva(&trigger.value)
                } else {
                    None
                }
            }
            Some(FieldEffect::Written(FieldValue::Str(s))) => TcpFlags::from_geneva(s),
            Some(_) => None,
        }
    }
}

/// Enumerate the [`PathEffect`] of every `send` leaf of `action`,
/// in emission order (`duplicate` left-to-right; `fragment` respects
/// its `in_order` flag). `drop` leaves emit nothing.
pub fn action_effects(action: &Action) -> Vec<PathEffect> {
    let mut out = Vec::new();
    walk_effects(action, PathEffect::untouched(), &mut out);
    out
}

fn walk_effects(action: &Action, mut eff: PathEffect, out: &mut Vec<PathEffect>) {
    match action {
        Action::Send => out.push(eff),
        Action::Drop => {}
        Action::Duplicate(a, b) => {
            walk_effects(a, eff.clone(), out);
            walk_effects(b, eff, out);
        }
        Action::Fragment {
            proto,
            in_order,
            first,
            second,
            ..
        } => {
            // Application-layer fragments never split: only `first`
            // runs, on the untouched packet.
            if matches!(proto, Proto::Udp | Proto::Dns | Proto::Ftp) {
                walk_effects(first, eff, out);
                return;
            }
            // When the split happens both pieces are re-finalized; when
            // it does not, only `first` runs on the untouched packet.
            // Either way the checksum is no longer *definitely* broken,
            // and field facts become a superset of dynamic behaviour —
            // `via_fragment` tells order-sensitive proofs to stand down.
            eff.via_fragment = true;
            if eff.checksum == ChecksumEffect::Broken {
                eff.checksum = ChecksumEffect::Refinalized;
            }
            if *in_order {
                walk_effects(first, eff.clone(), out);
                walk_effects(second, eff, out);
            } else {
                walk_effects(second, eff.clone(), out);
                walk_effects(first, eff, out);
            }
        }
        Action::Tamper { field, mode, next } => {
            if field.name == "chksum" {
                // Both corrupt and replace leave a wrong sum with
                // overwhelming probability.
                eff.checksum = ChecksumEffect::Broken;
            } else if !field.is_derived() {
                // A plain-field tamper re-finalizes: earlier checksum
                // damage is repaired and every stored derived-field
                // write is recomputed from scratch.
                if eff.checksum == ChecksumEffect::Broken {
                    eff.checksum = ChecksumEffect::Refinalized;
                }
                eff.fields.retain(|key, _| !derived_syntax(key));
            }
            let effect = match mode {
                TamperMode::Corrupt => FieldEffect::Corrupted,
                TamperMode::Replace(value) => FieldEffect::Written(fold_value(field, value)),
            };
            eff.fields.insert(field.to_syntax(), effect);
            walk_effects(next, eff, out);
        }
    }
}

fn derived_syntax(key: &str) -> bool {
    FieldRef::parse(key)
        .map(|f| f.is_derived())
        .unwrap_or(false)
}

/// Worst-case number of packets a subtree emits for one trigger
/// packet. This is the tree-level twin of [`OpsProof::max_emit`]; the
/// two bounds agree for every compilable tree (`Split`'s no-split arm
/// runs `first` alone, which never emits more than `first + second`).
pub fn max_emission(action: &Action) -> usize {
    match action {
        Action::Send => 1,
        Action::Drop => 0,
        Action::Tamper { next, .. } => max_emission(next),
        Action::Duplicate(a, b) => max_emission(a) + max_emission(b),
        Action::Fragment { first, second, .. } => max_emission(first) + max_emission(second),
    }
}

/// Static summary of one strategy part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartSummary {
    /// The part's trigger, verbatim.
    pub trigger: Trigger,
    /// One [`PathEffect`] per emitted path, in emission order.
    pub paths: Vec<PathEffect>,
    /// Worst-case emissions per trigger packet.
    pub max_emit: usize,
}

/// Static summary of a whole strategy, computed on its canonical form
/// so `CanonKey`-equal strategies share summaries by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategySummary {
    /// Equivalence key of the canonical form the summary describes.
    pub key: CanonKey,
    /// Outbound part summaries.
    pub outbound: Vec<PartSummary>,
    /// Inbound part summaries.
    pub inbound: Vec<PartSummary>,
}

/// Summarize a strategy. Canonicalizes first: two strategies with the
/// same [`CanonKey`] get byte-identical summaries.
pub fn summarize(strategy: &Strategy) -> StrategySummary {
    let canonical = canonicalize_strategy(strategy);
    let key = CanonKey::of(&canonical);
    let part_summary = |part: &geneva::StrategyPart| PartSummary {
        trigger: part.trigger.clone(),
        paths: action_effects(&part.action),
        max_emit: max_emission(&part.action),
    };
    StrategySummary {
        key,
        outbound: canonical.outbound.iter().map(part_summary).collect(),
        inbound: canonical.inbound.iter().map(part_summary).collect(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use geneva::parse_strategy;

    fn effects(text: &str) -> Vec<PathEffect> {
        let s = parse_strategy(text).unwrap();
        action_effects(&s.outbound[0].action)
    }

    // -- front end A --------------------------------------------------------

    #[test]
    fn straight_line_body_verifies() {
        // tamper(seq) then emit: depth never exceeds 1, one emission.
        let ops = [AbsOp::Tamper(TamperKind::Refinalizing), AbsOp::Emit];
        let proof = verify_ops(&ops).unwrap();
        assert_eq!((proof.max_stack, proof.max_emit), (1, 1));
        assert_eq!(
            proof.tamper_valid,
            vec![false, false],
            "wire packet is Unknown"
        );
    }

    #[test]
    fn chained_tampers_earn_trusted_valid() {
        // The first tamper refinalizes, so the second sees Valid.
        let ops = [
            AbsOp::Tamper(TamperKind::Refinalizing),
            AbsOp::Tamper(TamperKind::Refinalizing),
            AbsOp::Emit,
        ];
        let proof = verify_ops(&ops).unwrap();
        assert_eq!(proof.tamper_valid, vec![false, true, false]);
    }

    #[test]
    fn checksum_break_poisons_trust() {
        let ops = [
            AbsOp::Tamper(TamperKind::BreaksChecksum),
            AbsOp::Tamper(TamperKind::Refinalizing),
            AbsOp::Emit,
        ];
        let proof = verify_ops(&ops).unwrap();
        assert_eq!(proof.tamper_valid, vec![false, false, false]);
    }

    #[test]
    fn duplicate_body_counts_both_emissions() {
        // Dup; Emit; Emit = duplicate(,).
        let ops = [AbsOp::Dup, AbsOp::Emit, AbsOp::Emit];
        let proof = verify_ops(&ops).unwrap();
        assert_eq!((proof.max_stack, proof.max_emit), (2, 2));
    }

    #[test]
    fn split_takes_max_over_alternatives() {
        // fragment(,): Split; Emit; Emit; Jump end; Emit (nosplit body).
        let ops = [
            AbsOp::Split { nosplit: 4 },
            AbsOp::Emit,
            AbsOp::Emit,
            AbsOp::Jump(5),
            AbsOp::Emit,
        ];
        let proof = verify_ops(&ops).unwrap();
        assert_eq!(proof.max_emit, 2, "split path emits 2, no-split path 1");
        assert_eq!(proof.max_stack, 2);
    }

    #[test]
    fn backward_jump_is_refused() {
        let ops = [AbsOp::Emit, AbsOp::Jump(0)];
        assert_eq!(
            verify_ops(&ops),
            Err(VerifyError::JumpBackward { pc: 1, target: 0 })
        );
    }

    #[test]
    fn out_of_bounds_jump_is_refused() {
        let ops = [AbsOp::Jump(9)];
        assert_eq!(
            verify_ops(&ops),
            Err(VerifyError::JumpOutOfBounds {
                pc: 0,
                target: 9,
                len: 1
            })
        );
    }

    #[test]
    fn underflow_is_refused() {
        let ops = [AbsOp::Emit, AbsOp::Emit];
        assert_eq!(verify_ops(&ops), Err(VerifyError::StackUnderflow { pc: 1 }));
    }

    #[test]
    fn leaked_stack_is_refused() {
        let ops = [AbsOp::Dup, AbsOp::Emit];
        assert_eq!(verify_ops(&ops), Err(VerifyError::LeakedStack { depth: 1 }));
    }

    #[test]
    fn empty_body_leaks_its_input() {
        assert_eq!(verify_ops(&[]), Err(VerifyError::LeakedStack { depth: 1 }));
    }

    // -- front end B --------------------------------------------------------

    #[test]
    fn untouched_send_has_empty_effect() {
        let paths = effects("[TCP:flags:SA]-duplicate(,)-| \\/ ");
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert!(p.fields.is_empty());
            assert_eq!(p.checksum, ChecksumEffect::Valid);
            assert!(!p.via_fragment);
        }
    }

    #[test]
    fn checksum_tamper_breaks_then_refinalizes() {
        let paths =
            effects("[TCP:flags:SA]-tamper{TCP:chksum:corrupt}(tamper{TCP:seq:replace:5},)-| \\/ ");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].checksum, ChecksumEffect::Refinalized);
        assert_eq!(
            paths[0].effect("TCP:seq"),
            Some(&FieldEffect::Written(FieldValue::Num(5)))
        );
        // The refinalize recomputed the stored checksum: no stale entry.
        assert_eq!(paths[0].effect("TCP:chksum"), None);
    }

    #[test]
    fn corrupt_marks_field_corrupted() {
        let paths = effects("[TCP:flags:SA]-tamper{TCP:ack:corrupt}-| \\/ ");
        assert_eq!(paths[0].effect("TCP:ack"), Some(&FieldEffect::Corrupted));
        assert_eq!(paths[0].checksum, ChecksumEffect::Valid);
    }

    #[test]
    fn fragment_marks_paths_and_repairs_checksum() {
        let paths = effects(
            "[TCP:flags:PA]-tamper{TCP:chksum:corrupt}(fragment{TCP:8:False}(,drop),)-| \\/ ",
        );
        assert_eq!(paths.len(), 1, "second subtree drops");
        assert!(paths[0].via_fragment);
        assert_eq!(paths[0].checksum, ChecksumEffect::Refinalized);
    }

    #[test]
    fn emitted_flags_inherit_from_trigger() {
        let s = parse_strategy("[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/ ")
            .unwrap();
        let part = &s.outbound[0];
        let paths = action_effects(&part.action);
        assert_eq!(
            paths[0].emitted_flags(&part.trigger),
            TcpFlags::from_geneva("R")
        );
        assert_eq!(
            paths[1].emitted_flags(&part.trigger),
            TcpFlags::from_geneva("SA")
        );
    }

    #[test]
    fn summaries_are_canonicalization_invariant() {
        let a = parse_strategy("[TCP:flags:SA]-duplicate(drop,tamper{TCP:seq:replace:7})-| \\/ ")
            .unwrap();
        let b = parse_strategy(
            "[TCP:flags:SA]-tamper{TCP:seq:corrupt}(tamper{TCP:seq:replace:7},)-| \\/ ",
        )
        .unwrap();
        assert_eq!(summarize(&a), summarize(&b));
    }

    #[test]
    fn tree_and_program_amplification_agree_on_duplicates() {
        let s = parse_strategy("[TCP:flags:SA]-duplicate(duplicate(,),)-| \\/ ").unwrap();
        assert_eq!(max_emission(&s.outbound[0].action), 3);
    }
}
