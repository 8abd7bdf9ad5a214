//! The strategy compiler: Geneva action trees lowered to flat programs.
//!
//! The interpreter (`geneva::Engine`) walks the strategy AST for every
//! packet: each trigger test renders the packet field *and* the trigger
//! value to fresh `String`s, every application allocates a fresh output
//! `Vec`, and the recursive tree walk touches cold `Box`ed nodes. At
//! data-plane rates that is the whole budget. A [`Program`] pays those
//! costs once, at compile time:
//!
//! * Triggers become [`Matcher`]s — the common cases (`TCP:flags:SA`,
//!   numeric equality) compile to branch-and-compare with **zero**
//!   allocation; impossible triggers (a non-canonical value spelling
//!   that the engine's string comparison can never produce) compile to
//!   [`Matcher::Never`] and cost one enum discriminant test.
//! * Action trees become a flat instruction vector for a small stack
//!   machine ([`Op`]). Each compiled subtree consumes exactly the
//!   top-of-stack packet; `fragment`'s runtime "nothing to split" case
//!   is a conditional jump to a duplicated copy of the `first` body.
//!
//! Compilation goes through `strata::canonicalize_strategy`, so the
//! program executes the *canonical* form and [`CanonKey`] is the cache
//! identity. Equivalence with the interpreter is structural, not
//! hopeful: the tamper/corrupt/split primitives are the exported
//! `geneva::engine` functions themselves, and the per-site corrupt PRNG
//! makes their output independent of execution order. A differential
//! proptest (`tests/differential.rs`) pins `compiled(pkt) ==
//! Engine::apply_*(pkt)` byte-for-byte across the strategy library and
//! generated strategies.

use geneva::ast::{Action, StrategyPart, TamperMode, Trigger};
use geneva::engine::TamperHint;
use geneva::Strategy;
use packet::field::{FieldKind, FieldRef, FieldValue};
use packet::{Packet, Proto, TcpFlags};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use strata::absint::{AbsOp, TamperKind};
use strata::{CanonKey, ProgramFacts, ReportEntry};

/// One instruction of the packet stack machine.
///
/// The machine's invariant: the compiled body of an action consumes
/// exactly one stack packet (net) and appends its emissions to the
/// output vector. Jump targets are absolute indices into the program.
#[derive(Debug, Clone)]
pub enum Op {
    /// Pop the top packet and append it to the output (`send`).
    Emit,
    /// Pop the top packet and discard it (`drop`).
    Pop,
    /// Push a copy of the top packet (`duplicate` — the copy is
    /// processed first, exactly like the engine's left branch).
    Dup,
    /// Rewrite one field of the top packet via
    /// `geneva::engine::tamper_hinted`.
    Tamper {
        /// The field to rewrite.
        field: FieldRef,
        /// Replace-with-value or corrupt-with-site-PRNG.
        mode: TamperMode,
        /// Static validity of the packet this op receives, proved by
        /// `strata::absint::verify_ops` during compilation.
        /// `TrustedValid` lets the tamper skip the runtime
        /// canonicality scans guarding the incremental-checksum patch.
        hint: TamperHint,
    },
    /// Try to split the top packet (`fragment`). On a successful split
    /// the two pieces replace it — execution-order piece on top — and
    /// control falls through. When the packet is too small to split it
    /// stays put and control jumps to `nosplit`, which addresses a
    /// duplicated compilation of the `first` subtree (the engine runs
    /// `first` on the unsplit packet).
    Split {
        /// Split layer (`TCP` segmentation or `IP` fragmentation).
        proto: Proto,
        /// Byte offset of the cut.
        offset: usize,
        /// Paper's `in_order` flag: `false` swaps emission order, i.e.
        /// the `second` piece is processed first.
        in_order: bool,
        /// Jump target for the nothing-to-split case.
        nosplit: usize,
    },
    /// Unconditional jump (skips the duplicated no-split tail).
    Jump(usize),
}

/// A compiled trigger. Variants are ordered hottest-first: the paper's
/// strategies trigger on `TCP:flags`, so the data plane's per-packet
/// cost is one `Option` test and a byte compare.
#[derive(Debug, Clone)]
pub enum Matcher {
    /// `TCP:flags` equality against a canonical flag set. Non-TCP
    /// packets read the field as `Empty` (renders `""`), so they match
    /// exactly when the expected set is empty.
    Flags(TcpFlags),
    /// Numeric field equality. Only canonical decimal spellings can
    /// ever match the engine's string compare, so the comparison is
    /// `u64 == u64` with no rendering.
    Num(FieldRef, u64),
    /// The empty value `""` on a numeric/option field: matches exactly
    /// when the field reads [`FieldValue::Empty`] (absent option, or a
    /// transport mismatch).
    Empty(FieldRef),
    /// Statically impossible: the trigger value is a spelling the
    /// field's renderer never produces (e.g. `TCP:seq:007`).
    Never,
    /// Fallback for cold field kinds (payload bytes, app-layer): the
    /// engine's own string comparison.
    Generic(Trigger),
}

impl Matcher {
    /// Compile one trigger. Equivalence contract: for every packet,
    /// `compile(t).matches(pkt) == t.matches(pkt)`.
    fn compile(trigger: &Trigger) -> Matcher {
        let value = trigger.value.as_str();
        match trigger.field.kind() {
            Ok(FieldKind::Flags) => match TcpFlags::from_geneva(value) {
                // The engine compares against `to_geneva` output, so a
                // non-canonical letter order (`AS`) can never match.
                Some(flags) if flags.to_geneva() == value => Matcher::Flags(flags),
                _ => Matcher::Never,
            },
            Ok(FieldKind::U8 | FieldKind::U16 | FieldKind::U32 | FieldKind::OptionNum) => {
                if value.is_empty() {
                    return Matcher::Empty(trigger.field.clone());
                }
                match value.parse::<u64>() {
                    Ok(n) if n.to_string() == value => Matcher::Num(trigger.field.clone(), n),
                    _ => Matcher::Never,
                }
            }
            _ => Matcher::Generic(trigger.clone()),
        }
    }

    /// Does the packet satisfy this trigger?
    pub fn matches(&self, pkt: &Packet) -> bool {
        match self {
            Matcher::Flags(expect) => match pkt.tcp_header() {
                Some(tcp) => tcp.flags == *expect,
                None => *expect == TcpFlags::NONE,
            },
            Matcher::Num(field, n) => {
                matches!(field.get(pkt), Ok(FieldValue::Num(m)) if m == *n)
            }
            Matcher::Empty(field) => matches!(field.get(pkt), Ok(FieldValue::Empty)),
            Matcher::Never => false,
            Matcher::Generic(trigger) => trigger.matches(pkt),
        }
    }
}

/// One compiled `trigger => ops` rule.
#[derive(Debug, Clone)]
pub struct CompiledPart {
    /// The compiled trigger.
    pub matcher: Matcher,
    /// The flat action body.
    pub ops: Vec<Op>,
}

/// A verification failure pinned to the part that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// `"outbound"` or `"inbound"`.
    pub direction: &'static str,
    /// Zero-based part index within that ruleset.
    pub part: usize,
    /// The abstract interpreter's complaint.
    pub error: strata::absint::VerifyError,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} part {}: {}", self.direction, self.part, self.error)
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// The aggregated proof obligations of a verified program: every part
/// of both rulesets passed `strata::absint::verify_ops`, and these are
/// the worst bounds over all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramProof {
    /// Maximum packet-stack depth any part can reach.
    pub max_stack: usize,
    /// Worst-case packets emitted per trigger packet.
    pub max_emit: usize,
}

/// Mirror a compiled body into the neutral form `strata`'s abstract
/// interpreter consumes. Field facts collapse to [`TamperKind`]: what
/// the tamper does to checksum validity is the only per-op fact the
/// stack-domain verifier needs.
pub fn lower_ops(ops: &[Op]) -> Vec<AbsOp> {
    ops.iter()
        .map(|op| match op {
            Op::Emit => AbsOp::Emit,
            Op::Pop => AbsOp::Pop,
            Op::Dup => AbsOp::Dup,
            Op::Tamper { field, .. } => AbsOp::Tamper(if field.name == "chksum" {
                TamperKind::BreaksChecksum
            } else if field.is_derived() {
                TamperKind::OtherDerived
            } else {
                TamperKind::Refinalizing
            }),
            Op::Split { nosplit, .. } => AbsOp::Split { nosplit: *nosplit },
            Op::Jump(target) => AbsOp::Jump(*target),
        })
        .collect()
}

/// A whole strategy lowered to flat form: two rulesets plus the
/// canonical identity that names it in caches and metrics.
#[derive(Debug, Clone)]
pub struct Program {
    /// Compiled outbound ruleset (first match wins, no match = pass).
    pub outbound: Vec<CompiledPart>,
    /// Compiled inbound ruleset.
    pub inbound: Vec<CompiledPart>,
    /// Equivalence-class key of the canonical strategy.
    pub key: CanonKey,
    /// The canonical DSL text (metrics/debug labels).
    pub canonical_text: String,
    /// Discharged proof obligations: every compiled body verified, so
    /// a `Program` value is itself the proof that it passed the gate.
    pub proof: ProgramProof,
}

/// One strategy's whole verification record, built from the text it
/// prints: [`ReportEntry::from_source`] (spanned lints, canonical form,
/// per-censor verdicts) plus the compiled program's proof facts. The
/// program comes back too when it verified, so a reload can queue
/// exactly what it reported on. `cay verify` and `POST /config` both
/// build their reports here.
pub fn verify(
    label: &str,
    source: &str,
) -> Result<(ReportEntry, Option<Program>), geneva::ParseError> {
    let (mut entry, strategy) = ReportEntry::from_source(label, source)?;
    let compiled = Program::compile(&strategy);
    entry.program = Some(match &compiled {
        Ok(program) => ProgramFacts {
            verified: true,
            error: None,
            max_stack: program.proof.max_stack,
            max_emit: program.proof.max_emit,
        },
        Err(e) => ProgramFacts {
            verified: false,
            error: Some(e.to_string()),
            max_stack: 0,
            max_emit: 0,
        },
    });
    Ok((entry, compiled.ok()))
}

impl Program {
    /// Canonicalize, compile, and *verify* a strategy: every compiled
    /// body must discharge the stack-discipline, termination, and
    /// bounded-amplification obligations, or the program is refused.
    pub fn compile(strategy: &Strategy) -> Result<Program, VerifyError> {
        let canonical = strata::canonicalize_strategy(strategy);
        let key = CanonKey::of(&canonical);
        let canonical_text = canonical.to_string();
        let mut outbound: Vec<CompiledPart> = canonical.outbound.iter().map(compile_part).collect();
        let mut inbound: Vec<CompiledPart> = canonical.inbound.iter().map(compile_part).collect();
        let mut proof = ProgramProof {
            max_stack: 0,
            max_emit: 0,
        };
        for (direction, parts) in [("outbound", &mut outbound), ("inbound", &mut inbound)] {
            for (index, part) in parts.iter_mut().enumerate() {
                let part_proof =
                    strata::verify_ops(&lower_ops(&part.ops)).map_err(|error| VerifyError {
                        direction,
                        part: index,
                        error,
                    })?;
                // The per-pc Valid facts become TrustedValid hints on
                // the tamper ops they license.
                for (op, valid) in part.ops.iter_mut().zip(&part_proof.tamper_valid) {
                    if let (Op::Tamper { hint, .. }, true) = (op, *valid) {
                        *hint = TamperHint::TrustedValid;
                    }
                }
                proof.max_stack = proof.max_stack.max(part_proof.max_stack);
                proof.max_emit = proof.max_emit.max(part_proof.max_emit);
            }
        }
        Ok(Program {
            outbound,
            inbound,
            key,
            canonical_text,
            proof,
        })
    }

    /// Apply the outbound ruleset, appending emissions to `out`.
    /// `scratch` is the reusable stack (left empty on return).
    pub fn apply_outbound(
        &self,
        pkt: &Packet,
        seed: u64,
        out: &mut Vec<Packet>,
        scratch: &mut Vec<Packet>,
    ) {
        apply(&self.outbound, pkt, seed, out, scratch);
    }

    /// Apply the inbound ruleset, appending emissions to `out`.
    pub fn apply_inbound(
        &self,
        pkt: &Packet,
        seed: u64,
        out: &mut Vec<Packet>,
        scratch: &mut Vec<Packet>,
    ) {
        apply(&self.inbound, pkt, seed, out, scratch);
    }

    /// Convenience wrapper returning a fresh vector (tests, cold paths).
    pub fn run_outbound(&self, pkt: &Packet, seed: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        self.apply_outbound(pkt, seed, &mut out, &mut Vec::new());
        out
    }

    /// Convenience wrapper returning a fresh vector (tests, cold paths).
    pub fn run_inbound(&self, pkt: &Packet, seed: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        self.apply_inbound(pkt, seed, &mut out, &mut Vec::new());
        out
    }
}

fn apply(
    parts: &[CompiledPart],
    pkt: &Packet,
    seed: u64,
    out: &mut Vec<Packet>,
    scratch: &mut Vec<Packet>,
) {
    for part in parts {
        if part.matcher.matches(pkt) {
            execute(&part.ops, pkt.clone(), seed, out, scratch);
            return;
        }
    }
    out.push(pkt.clone());
}

/// Run one compiled body on one packet.
fn execute(ops: &[Op], pkt: Packet, seed: u64, out: &mut Vec<Packet>, stack: &mut Vec<Packet>) {
    stack.clear();
    stack.push(pkt);
    let mut pc = 0;
    while let Some(op) = ops.get(pc) {
        pc += 1;
        match op {
            Op::Emit => {
                if let Some(top) = stack.pop() {
                    out.push(top);
                }
            }
            Op::Pop => {
                stack.pop();
            }
            Op::Dup => {
                if let Some(top) = stack.last().cloned() {
                    stack.push(top);
                }
            }
            Op::Tamper { field, mode, hint } => {
                if let Some(top) = stack.pop() {
                    stack.push(geneva::engine::tamper_hinted(top, field, mode, seed, *hint));
                }
            }
            Op::Split {
                proto,
                offset,
                in_order,
                nosplit,
            } => {
                let Some(top) = stack.pop() else { break };
                match geneva::engine::split(top, *proto, *offset) {
                    (a, Some(b)) => {
                        // Execution-order piece ends up on top.
                        if *in_order {
                            stack.push(b);
                            stack.push(a);
                        } else {
                            stack.push(a);
                            stack.push(b);
                        }
                    }
                    (a, None) => {
                        stack.push(a);
                        pc = *nosplit;
                    }
                }
            }
            Op::Jump(target) => pc = *target,
        }
    }
}

fn compile_part(part: &StrategyPart) -> CompiledPart {
    let mut ops = Vec::new();
    compile_action(&part.action, &mut ops);
    CompiledPart {
        matcher: Matcher::compile(&part.trigger),
        ops,
    }
}

/// Lower one action subtree. Contract: the emitted code consumes the
/// top-of-stack packet and mirrors `geneva::engine`'s tree walk.
fn compile_action(action: &Action, ops: &mut Vec<Op>) {
    match action {
        Action::Send => ops.push(Op::Emit),
        Action::Drop => ops.push(Op::Pop),
        Action::Duplicate(first, second) => {
            ops.push(Op::Dup);
            compile_action(first, ops);
            compile_action(second, ops);
        }
        Action::Tamper { field, mode, next } => {
            ops.push(Op::Tamper {
                field: field.clone(),
                mode: mode.clone(),
                // Upgraded to TrustedValid after verification proves
                // the incoming packet canonical on every path.
                hint: TamperHint::Checked,
            });
            compile_action(next, ops);
        }
        Action::Fragment {
            proto,
            offset,
            in_order,
            first,
            second,
        } => {
            let split_at = ops.len();
            ops.push(Op::Split {
                proto: *proto,
                offset: *offset,
                in_order: *in_order,
                nosplit: usize::MAX, // patched below
            });
            if *in_order {
                compile_action(first, ops);
                compile_action(second, ops);
            } else {
                compile_action(second, ops);
                compile_action(first, ops);
            }
            let jump_at = ops.len();
            ops.push(Op::Jump(usize::MAX)); // patched below
            let nosplit = ops.len();
            // The unsplit packet runs `first` alone, exactly like the
            // engine's `None` arm — a duplicated body, not a shared one,
            // because the split path must also run `second`.
            compile_action(first, ops);
            let end = ops.len();
            if let Some(Op::Split {
                nosplit: target, ..
            }) = ops.get_mut(split_at)
            {
                *target = nosplit;
            }
            if let Some(Op::Jump(target)) = ops.get_mut(jump_at) {
                *target = end;
            }
        }
    }
}

/// A compile cache keyed by canonical equivalence class. Strategies
/// that canonicalize identically (e.g. the same strategy deployed to
/// two countries, or a mutated genome that collapses to a known form)
/// share one compiled program.
///
/// ## One owner
///
/// The cache belongs to the thread that runs its [`crate::Dplane`].
/// Flow creation looks programs up ([`ProgramCache::get_or_verify`]);
/// a live service's verified reloads are handed to that same thread,
/// which installs them ([`ProgramCache::insert`]). Nothing else touches
/// the cache, so it has no locks and no atomics: the map is a
/// `RefCell` and the counters are `Cell`s. Methods take `&self` so a
/// shared borrow of the plane can still look programs up.
///
/// The cache can move to another thread (it is `Send`):
///
/// ```
/// fn owned<T: Send>() {}
/// owned::<dplane::ProgramCache>();
/// ```
///
/// but it is not `Sync`, so the compiler refuses to share it:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<dplane::ProgramCache>();
/// ```
#[derive(Default)]
pub struct ProgramCache {
    map: RefCell<HashMap<CanonKey, Arc<Program>>>,
    /// Lookups that found an existing program.
    hits: Cell<u64>,
    /// Lookups that compiled a new program.
    misses: Cell<u64>,
    /// Lookups refused because verification failed (rejects are never
    /// cached, so a repeat offender counts every time).
    verify_rejects: Cell<u64>,
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Lookups that found an existing program.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that compiled a new program.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Lookups refused by the proof gate.
    pub fn verify_rejects(&self) -> u64 {
        self.verify_rejects.get()
    }

    /// Fetch the verified compiled form of `strategy`, compiling at
    /// most once per equivalence class. A strategy whose program fails
    /// verification is refused and *not* cached. Everything in the
    /// cache is verified (a [`Program`] carries its proof), so hits
    /// stay cheap.
    pub fn get_or_verify(&self, strategy: &Strategy) -> Result<Arc<Program>, VerifyError> {
        let key = CanonKey::of(&strata::canonicalize_strategy(strategy));
        if let Some(program) = self.map.borrow().get(&key) {
            bump(&self.hits);
            return Ok(Arc::clone(program));
        }
        match Program::compile(strategy) {
            Ok(program) => {
                bump(&self.misses);
                let program = Arc::new(program);
                self.map.borrow_mut().insert(key, Arc::clone(&program));
                Ok(program)
            }
            Err(error) => {
                bump(&self.verify_rejects);
                Err(error)
            }
        }
    }

    /// Install an already-compiled program under its own canonical
    /// key, without touching the counters. This is the hot-reload
    /// surface: the control plane verifies a candidate with
    /// [`Program::compile`] *outside* the cache (a refusal must leave
    /// every counter byte-identical) and hands the verified programs to
    /// the cache's owner, which installs them here so the first flow of
    /// the new rollout takes a cache hit instead of recompiling.
    pub fn insert(&self, program: Arc<Program>) {
        self.map.borrow_mut().insert(program.key, program);
    }

    /// Number of distinct compiled programs.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical DSL text per program key — the metrics labels, as the
    /// ordered snapshot [`crate::MetricsReport`] embeds.
    pub fn strategies(&self) -> std::collections::BTreeMap<CanonKey, String> {
        self.map
            .borrow()
            .iter()
            .map(|(key, program)| (*key, program.canonical_text.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use geneva::parse_strategy;
    use geneva::Engine;

    fn syn_ack() -> Packet {
        let mut p = Packet::tcp(
            [93, 184, 216, 34],
            80,
            [10, 7, 0, 2],
            40000,
            TcpFlags::SYN_ACK,
            9000,
            1001,
            vec![],
        );
        p.tcp_header_mut().unwrap().options = vec![
            packet::TcpOption::Mss(1460),
            packet::TcpOption::WindowScale(7),
        ];
        p.finalize();
        p
    }

    fn data(payload: &[u8]) -> Packet {
        let mut p = Packet::tcp(
            [93, 184, 216, 34],
            80,
            [10, 7, 0, 2],
            40000,
            TcpFlags::PSH_ACK,
            9000,
            1001,
            payload.to_vec(),
        );
        p.finalize();
        p
    }

    fn assert_equiv(text: &str, pkt: &Packet, seed: u64) {
        let strategy = parse_strategy(text).unwrap();
        let program = Program::compile(&strategy).unwrap();
        let mut engine = Engine::new(strategy, seed);
        assert_eq!(
            program.run_outbound(pkt, seed),
            engine.apply_outbound(pkt),
            "compiled != interpreted for {text}"
        );
    }

    #[test]
    fn library_strategies_compile_equivalent() {
        for named in geneva::library::server_side() {
            let strategy = named.strategy();
            let program = Program::compile(&strategy).unwrap();
            let mut engine = Engine::new(strategy, 7);
            for pkt in [syn_ack(), data(b"GET / HTTP/1.1\r\n\r\n")] {
                assert_eq!(
                    program.run_outbound(&pkt, 7),
                    engine.apply_outbound(&pkt),
                    "strategy {} diverged",
                    named.id
                );
            }
        }
    }

    #[test]
    fn fragment_no_split_takes_first_branch() {
        // A 1-byte payload cannot split: the engine runs `first` on the
        // whole packet. `second` here would drop, so divergence shows.
        assert_equiv(
            "[TCP:flags:PA]-fragment{TCP:8:True}(tamper{TCP:window:replace:5},drop)-| \\/ ",
            &data(b"x"),
            3,
        );
        assert_equiv(
            "[TCP:flags:PA]-fragment{TCP:8:False}(tamper{TCP:window:replace:5},drop)-| \\/ ",
            &data(b"x"),
            3,
        );
    }

    #[test]
    fn out_of_order_fragment_swaps_emission() {
        assert_equiv(
            "[TCP:flags:PA]-fragment{TCP:4:False}(,)-| \\/ ",
            &data(b"abcdefgh"),
            3,
        );
    }

    #[test]
    fn never_matcher_for_non_canonical_spellings() {
        // "AS" parses as SYN+ACK but the engine renders "SA": no match.
        let t = Trigger {
            field: FieldRef::parse("TCP:flags").unwrap(),
            value: "AS".to_string(),
        };
        assert!(matches!(Matcher::compile(&t), Matcher::Never));
        assert!(!Matcher::compile(&t).matches(&syn_ack()));
        assert!(!t.matches(&syn_ack()));

        let t = Trigger {
            field: FieldRef::parse("TCP:dport").unwrap(),
            value: "080".to_string(),
        };
        assert!(matches!(Matcher::compile(&t), Matcher::Never));
    }

    #[test]
    fn empty_matcher_tracks_absent_options() {
        let t = Trigger {
            field: FieldRef::parse("TCP:options-sackok").unwrap(),
            value: String::new(),
        };
        let m = Matcher::compile(&t);
        let pkt = syn_ack(); // mss + wscale, no sackok
        assert_eq!(m.matches(&pkt), t.matches(&pkt));
        assert!(m.matches(&pkt), "absent option reads Empty");
    }

    #[test]
    fn cache_dedups_by_canonical_class() {
        let cache = ProgramCache::new();
        // Strategy plus a dead tail: same canonical class.
        let a = parse_strategy("[TCP:flags:SA]-duplicate(,)-| \\/ ").unwrap();
        let b = parse_strategy("[TCP:flags:SA]-duplicate(,)-| [TCP:flags:R]-send-| \\/ ").unwrap();
        let pa = cache.get_or_verify(&a).unwrap();
        let pb = cache.get_or_verify(&b).unwrap();
        assert_eq!(pa.key, pb.key);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn insert_preseeds_without_counting() {
        // The reload surface: a program verified outside the cache is
        // installed silently, and the first flow that wants it hits.
        let s = parse_strategy("[TCP:flags:SA]-duplicate(,)-| \\/ ").unwrap();
        let program = Arc::new(Program::compile(&s).unwrap());
        let cache = ProgramCache::new();
        cache.insert(Arc::clone(&program));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 1));
        assert!(cache.strategies().contains_key(&program.key));
        let hit = cache.get_or_verify(&s).unwrap();
        assert_eq!(hit.key, program.key);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn verify_records_verdicts_and_returns_the_program() {
        use strata::{CensorId, Verdict};
        // Strategy 11 (null flags): the record carries all four
        // verdicts, and the program it returns is the one its facts
        // describe.
        let text = "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/ ";
        let (entry, program) = verify("s11", text).unwrap();
        let program = program.unwrap();
        assert!(entry
            .verdicts
            .contains(&(CensorId::Kazakhstan, Verdict::ProvablyDesynced)));
        assert_eq!(entry.verdicts.len(), 4);
        assert_eq!(entry.key, program.key);
        let facts = entry.program.unwrap();
        assert!(facts.verified);
        assert_eq!(
            (facts.max_stack, facts.max_emit),
            (program.proof.max_stack, program.proof.max_emit)
        );

        // A refused program still gets its strategy's verdicts.
        let mut bomb = "duplicate".to_string();
        for _ in 0..=strata::absint::MAX_STACK {
            bomb = format!("duplicate({bomb},)");
        }
        let (entry, program) = verify("bomb", &format!("[TCP:flags:SA]-{bomb}-| \\/")).unwrap();
        assert!(program.is_none());
        assert!(!entry.program.unwrap().verified);
        assert_eq!(entry.verdicts.len(), 4);
    }
}
