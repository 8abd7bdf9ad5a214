//! The proof gate over real programs: every built-in strategy's
//! compiled program discharges its proof obligations, the proved
//! emission bound agrees with the tree-level bound
//! `absint::max_emission` computes, and the static checksum-validity
//! facts place `TamperHint::TrustedValid` exactly where the dynamic
//! fast-path precondition holds.

use dplane::{lower_ops, Op, Program, ProgramCache};
use geneva::engine::TamperHint;
use geneva::library;
use geneva::Strategy;
use std::sync::Arc;
use strata::{canonicalize_strategy, verify_ops};

fn all_library() -> Vec<(String, Strategy)> {
    library::server_side()
        .iter()
        .chain(library::variants().iter())
        .map(|named| (named.name.to_string(), named.strategy()))
        .collect()
}

#[test]
fn every_library_program_verifies() {
    for (name, strategy) in all_library() {
        let program = Program::compile(&strategy)
            .unwrap_or_else(|e| panic!("{name} failed verification: {e}"));
        assert!(
            program.proof.max_stack >= 1,
            "{name}: degenerate stack bound"
        );
    }
}

/// Satellite cross-check: the abstract interpreter's per-part emission
/// bound must equal the tree-level `absint::max_emission` — two
/// independent derivations of the same worst case (one over compiled
/// ops, one over the AST). A disagreement means one of them is unsound.
#[test]
fn proved_emission_bound_matches_tree_bound() {
    for (name, strategy) in all_library() {
        // Compile canonicalizes first; compare against the same tree.
        let canonical = canonicalize_strategy(&strategy);
        let program = Program::compile(&strategy).expect("library verifies");
        for (direction, compiled, parts) in [
            ("outbound", &program.outbound, &canonical.outbound),
            ("inbound", &program.inbound, &canonical.inbound),
        ] {
            assert_eq!(compiled.len(), parts.len(), "{name} {direction}");
            for (i, (part, source)) in compiled.iter().zip(parts).enumerate() {
                let proof = verify_ops(&lower_ops(&part.ops))
                    .unwrap_or_else(|e| panic!("{name} {direction} part {i}: {e}"));
                let tree = strata::absint::max_emission(&source.action);
                assert_eq!(
                    proof.max_emit, tree,
                    "{name} {direction} part {i}: ops proof {} != tree bound {}",
                    proof.max_emit, tree
                );
            }
        }
    }
}

/// The abstract interpreter starts every body with the input packet
/// `Unknown` (the data plane makes no promise about wire packets'
/// checksums), so the first tamper of a chain runs Checked; every
/// tamper downstream of a refinalizing tamper is provably `Valid` and
/// carries the fast-path license — until a checksum corruption
/// poisons the trust again.
#[test]
fn trusted_valid_hints_follow_the_static_proof() {
    let chain = geneva::parse_strategy(
        "[TCP:flags:SA]-tamper{TCP:window:replace:9}(tamper{IP:ttl:replace:7}(tamper{TCP:chksum:corrupt}(tamper{TCP:urgptr:replace:3},)),)-| \\/ ",
    )
    .expect("parses");
    let program = Program::compile(&chain).expect("verifies");
    let hints: Vec<(String, TamperHint)> = program.outbound[0]
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Tamper { field, hint, .. } => Some((field.to_syntax(), *hint)),
            _ => None,
        })
        .collect();
    assert_eq!(hints.len(), 4, "{hints:?}");
    // Ops execute in compile order: window, ttl, chksum, urgptr.
    // The first tamper sees the raw wire packet: no promise.
    assert_eq!(hints[0], ("TCP:window".into(), TamperHint::Checked));
    // Downstream of a refinalizing tamper the packet is provably Valid.
    assert_eq!(hints[1], ("IP:ttl".into(), TamperHint::TrustedValid));
    // The corrupt itself still sees a valid packet...
    assert_eq!(hints[2], ("TCP:chksum".into(), TamperHint::TrustedValid));
    // ...but everything after it must re-check at run time.
    assert_eq!(hints[3], ("TCP:urgptr".into(), TamperHint::Checked));
}

#[test]
fn unverifiable_strategies_are_refused_and_counted() {
    // 13 nested duplicates: 2^13 = 8192 emitted packets per trigger,
    // over the 4096 amplification ceiling.
    let mut text = String::from("duplicate");
    for _ in 0..12 {
        text = format!("duplicate({text},{text})");
    }
    let bomb = geneva::parse_strategy(&format!("[TCP:flags:SA]-{text}-| \\/ ")).expect("parses");
    let err = Program::compile(&bomb).expect_err("amplification bomb must be refused");
    assert!(
        err.to_string().contains("exceeds the cap"),
        "unexpected error: {err}"
    );

    let cache = ProgramCache::new();
    assert!(cache.get_or_verify(&Arc::new(bomb.clone())).is_err());
    assert_eq!(cache.verify_rejects(), 1);
    // A reject leaves nothing behind: no hit, no miss, nothing cached.
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
}
