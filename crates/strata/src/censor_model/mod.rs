//! Per-censor model checking for server-side strategies.
//!
//! `absint::summarize` reduces a strategy to, per trigger, the set of
//! abstract packets it can emit ([`crate::absint::PathEffect`]s). This
//! module closes the loop with the *censor* side: each of the paper's
//! four censors is written down as a declarative abstract automaton
//! ([`automata::CensorAutomaton`]) over an abstract packet alphabet
//! ([`alphabet::AbsPacket`]), and a product-construction checker
//! ([`check::check`]) symbolically executes the strategy's emission
//! summaries against each automaton.
//!
//! The result is a three-valued per-censor verdict:
//!
//! * [`Verdict::ProvablyInert`] — the censor's view of the flow, and
//!   the unmodified client's behavior, are provably indistinguishable
//!   from the identity strategy, so the strategy cannot evade this
//!   censor. `evolve`'s fitness cache uses this to skip simulation.
//! * [`Verdict::ProvablyDesynced`] — on every abstract path the censor
//!   provably loses stream tracking (writes the flow off) before the
//!   client's request crosses it, so the censor takes no action against
//!   the flow at all.
//! * [`Verdict::Unknown`] — neither proof goes through. This is the
//!   honest answer for every strategy against the GFW, whose per-flow
//!   censorship probability and resynchronization arming are sampled
//!   stochastically: no deterministic claim survives.
//!
//! Soundness is guarded twice: `strata/tests/censor_model_sim.rs`
//! replays random concrete packet traces through the real `Middlebox`
//! models and the abstract automata and asserts simulation, and
//! `evolve/tests/soundness.rs` checks 520 random genomes' verdicts
//! against actual trial outcomes. See DESIGN.md §12 for the alphabet,
//! the product construction, and the soundness argument.

pub mod alphabet;
pub mod automata;
pub mod check;

pub use alphabet::{AbsDirection, AbsPacket, Tri};
pub use automata::{automaton, AbsState, CensorAutomaton, KzAbstractFlow};
pub use check::{check, check_all, check_strategy};

/// The four modeled censors, named independently of `crates/censor`
/// (which depends on nothing in `strata`; the automata here are
/// hand-derived from its models, not linked against them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CensorId {
    /// China's Great Firewall (the §6 multi-box model).
    Gfw,
    /// India's Airtel middlebox (§5.2): stateless on-path injector.
    Airtel,
    /// Iran's protocol filter (§5.1): stateless on-path blackholer.
    Iran,
    /// Kazakhstan's in-path HTTP MITM (§5.3).
    Kazakhstan,
}

impl CensorId {
    /// Every modeled censor, in display order.
    pub fn all() -> [CensorId; 4] {
        [
            CensorId::Gfw,
            CensorId::Airtel,
            CensorId::Iran,
            CensorId::Kazakhstan,
        ]
    }

    /// Display name (matrix column header).
    pub fn name(self) -> &'static str {
        match self {
            CensorId::Gfw => "GFW",
            CensorId::Airtel => "Airtel",
            CensorId::Iran => "Iran",
            CensorId::Kazakhstan => "Kazakhstan",
        }
    }

    /// Parse a CLI spelling: censor name or the country it censors
    /// for, case-insensitive.
    pub fn parse(s: &str) -> Option<CensorId> {
        match s.to_ascii_lowercase().as_str() {
            "gfw" | "china" => Some(CensorId::Gfw),
            "airtel" | "india" => Some(CensorId::Airtel),
            "iran" => Some(CensorId::Iran),
            "kazakhstan" | "kz" => Some(CensorId::Kazakhstan),
            _ => None,
        }
    }
}

impl std::fmt::Display for CensorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Three-valued per-censor verdict. Only the two `Provably*` arms
/// carry claims; `Unknown` is the safe default and the only verdict
/// ever returned for the stochastic GFW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The censor's behavior against this flow provably equals its
    /// behavior against the identity strategy: no evasion possible.
    ProvablyInert,
    /// The censor provably writes the flow off before the client's
    /// request reaches it: no censorship event possible.
    ProvablyDesynced,
    /// No proof either way; the strategy must be simulated.
    Unknown,
}

impl Verdict {
    /// Short lowercase token (matrix cells, JSON values).
    pub fn token(self) -> &'static str {
        match self {
            Verdict::ProvablyInert => "inert",
            Verdict::ProvablyDesynced => "desynced",
            Verdict::Unknown => "unknown",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}
