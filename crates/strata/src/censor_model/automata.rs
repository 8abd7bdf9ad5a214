//! Hand-written abstract automata for the four modeled censors.
//!
//! Each [`CensorAutomaton`] is a declarative record of what
//! `crates/censor` implements: the censor's abstract states, which
//! directions it observes, how it resynchronizes or tears down
//! tracking state, and which packets it injects on a censorship
//! event.
//!
//! The dynamic part — [`CensorAutomaton::step`] over [`AbsState`] —
//! is the abstract transfer function the product checker and the
//! soundness proptest share. GFW state is deliberately opaque
//! (`stochastic`: its per-flow censorship probability and resync
//! arming are sampled at flow creation, so no deterministic abstract
//! state simulates it). Airtel and Iran are stateless. Kazakhstan's
//! normal-HTTP pattern monitor is tracked precisely as an interval
//! abstraction ([`KzAbstractFlow`]) of the concrete
//! `censor::kazakhstan::KzFlow` counters.

use packet::TcpFlags;

use crate::censor_model::alphabet::{AbsDirection, AbsPacket, Tri};
use crate::censor_model::CensorId;

/// Declarative abstract-automaton record for one censor.
#[derive(Debug, Clone)]
pub struct CensorAutomaton {
    pub id: CensorId,
    /// Human-readable state names, initial state first (documentation
    /// and report rendering; the executable states live in
    /// [`AbsState`]).
    pub states: &'static [&'static str],
    /// Per-flow behavior is sampled from an RNG at flow creation
    /// (GFW's `baseline_miss` / resync arming): every deterministic
    /// claim is off the table.
    pub stochastic: bool,
    /// Keeps per-flow TCB/monitor state at all.
    pub tracks_streams: bool,
    /// Reassembles segments before matching (none of the modeled
    /// censors do on the paths we model; Strategy 8 exploits this).
    pub reassembles: bool,
    pub observes_to_client: bool,
    pub observes_to_server: bool,
    /// Validates transport checksums before processing (none of the
    /// modeled censors do — broken-checksum insertion works — but a
    /// future censor that does would flip this).
    pub verifies_checksums: bool,
    /// Does a *server-sent* RST tear down / resynchronize tracking
    /// state? `Some(false)` for every modeled censor: the GFW's
    /// revised §5 model never deterministically resyncs on server
    /// RSTs, and the other three keep no stream state a RST could
    /// clear. `None` would mean "unknown censor".
    pub resyncs_on_server_rst: Option<bool>,
    /// Injection actions on a censorship event.
    pub injects_rst_to_client: bool,
    pub injects_rst_to_server: bool,
    pub injects_block_page: bool,
}

/// Executable abstract state for one flow through one automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsState {
    /// Nothing is tracked (stochastic censor): every query answers
    /// "maybe".
    Opaque,
    /// Stateless censor: the automaton is a single state.
    Stateless,
    /// Kazakhstan's handshake pattern monitor.
    Kz(KzAbstractFlow),
}

/// Interval abstraction of `censor::kazakhstan::KzFlow`: counter
/// ranges plus three-valued flags. Must-transitions (min counters,
/// `Tri::Yes`) fire only on facts every concretization shares;
/// may-transitions (max counters, `Tri::Maybe`) fire on any possible
/// concretization, so the abstract flow always simulates the concrete
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KzAbstractFlow {
    /// Payload-bearing server→client handshake packets seen.
    pub payloads_min: u32,
    pub payloads_max: u32,
    /// Well-formed server→client GETs seen.
    pub gets_min: u32,
    pub gets_max: u32,
    /// The censor has written the flow off as not-normal-HTTP.
    pub ignored: Tri,
    /// The client has sent payload (handshake monitoring over).
    pub client_data: Tri,
    /// A possibly-forbidden possibly-GET crossed during the handshake
    /// window: the censor *may* answer the second GET with an injected
    /// probe response, so "desynced ⇒ zero censor actions" no longer
    /// holds. Claims are withheld when set.
    pub tainted: bool,
}

impl KzAbstractFlow {
    pub fn new() -> KzAbstractFlow {
        KzAbstractFlow {
            payloads_min: 0,
            payloads_max: 0,
            gets_min: 0,
            gets_max: 0,
            ignored: Tri::No,
            client_data: Tri::No,
            tainted: false,
        }
    }

    /// The censor has provably written the flow off (and provably took
    /// no injection/drop action while getting there).
    pub fn must_ignored(&self) -> bool {
        self.ignored.must() && !self.tainted
    }

    /// The censor may have written the flow off.
    pub fn may_ignored(&self) -> bool {
        self.ignored.may()
    }
}

impl Default for KzAbstractFlow {
    fn default() -> Self {
        KzAbstractFlow::new()
    }
}

static GFW: CensorAutomaton = CensorAutomaton {
    id: CensorId::Gfw,
    states: &[
        "no-tcb",
        "synchronized",
        "desynced",
        "resync-armed",
        "residual",
    ],
    stochastic: true,
    tracks_streams: true,
    reassembles: false,
    observes_to_client: true,
    observes_to_server: true,
    verifies_checksums: false,
    resyncs_on_server_rst: Some(false),
    injects_rst_to_client: true,
    injects_rst_to_server: true,
    injects_block_page: false,
};

static AIRTEL: CensorAutomaton = CensorAutomaton {
    id: CensorId::Airtel,
    states: &["stateless"],
    stochastic: false,
    tracks_streams: false,
    reassembles: false,
    observes_to_client: false,
    observes_to_server: true,
    verifies_checksums: false,
    resyncs_on_server_rst: Some(false),
    injects_rst_to_client: true,
    injects_rst_to_server: false,
    injects_block_page: true,
};

static IRAN: CensorAutomaton = CensorAutomaton {
    id: CensorId::Iran,
    states: &["stateless", "blackholing"],
    stochastic: false,
    tracks_streams: false,
    reassembles: false,
    observes_to_client: false,
    observes_to_server: true,
    verifies_checksums: false,
    resyncs_on_server_rst: Some(false),
    injects_rst_to_client: false,
    injects_rst_to_server: false,
    injects_block_page: false,
};

static KAZAKHSTAN: CensorAutomaton = CensorAutomaton {
    id: CensorId::Kazakhstan,
    states: &["handshake", "ignored", "established", "intercepting"],
    stochastic: false,
    tracks_streams: true,
    reassembles: false,
    observes_to_client: true,
    observes_to_server: true,
    verifies_checksums: false,
    resyncs_on_server_rst: Some(false),
    injects_rst_to_client: false,
    injects_rst_to_server: false,
    injects_block_page: true,
};

/// The automaton for one censor.
pub fn automaton(id: CensorId) -> &'static CensorAutomaton {
    match id {
        CensorId::Gfw => &GFW,
        CensorId::Airtel => &AIRTEL,
        CensorId::Iran => &IRAN,
        CensorId::Kazakhstan => &KAZAKHSTAN,
    }
}

/// Flag bits whose *absence* makes Kazakhstan's monitor write a
/// handshake packet off as not-normal (Strategy 11's null flags).
const KZ_NORMAL_FLAGS: TcpFlags = TcpFlags(0x17); // FIN | RST | SYN | ACK

impl CensorAutomaton {
    /// Fresh abstract state for one flow.
    pub fn initial(&self) -> AbsState {
        match self.id {
            CensorId::Gfw => AbsState::Opaque,
            CensorId::Airtel | CensorId::Iran => AbsState::Stateless,
            CensorId::Kazakhstan => AbsState::Kz(KzAbstractFlow::new()),
        }
    }

    /// Abstract transfer function: fold one packet into the flow
    /// state. Must preserve simulation: for any concrete trace, the
    /// abstract state reached by stepping the trace's abstractions
    /// over-approximates the concrete censor's flow state (the
    /// `censor_model_sim` proptest enforces this against the real
    /// `Middlebox` models).
    pub fn step(&self, state: &mut AbsState, pkt: &AbsPacket) {
        if let AbsState::Kz(flow) = state {
            step_kz(flow, pkt);
        }
        // Opaque and Stateless states have nothing to update.
    }
}

/// Abstract mirror of `censor::kazakhstan`'s per-packet processing.
fn step_kz(flow: &mut KzAbstractFlow, pkt: &AbsPacket) {
    // A packet that provably dies before the middlebox is invisible;
    // one that only *may* reach contributes to may-facts only.
    if !pkt.reaches.may() {
        return;
    }
    let reaches_must = pkt.reaches.must();
    match pkt.dir {
        AbsDirection::ToServer => {
            if pkt.payload.may() {
                let seen = if reaches_must && pkt.payload.must() {
                    Tri::Yes
                } else {
                    Tri::Maybe
                };
                flow.client_data = flow.client_data.join(seen);
            }
        }
        AbsDirection::ToClient => {
            // Concrete guard: `!client_data_seen && !ignored`.
            let monitored_must =
                reaches_must && flow.client_data == Tri::No && flow.ignored == Tri::No;
            let monitored_may = flow.client_data != Tri::Yes && flow.ignored != Tri::Yes;
            if !monitored_may {
                return;
            }
            // Null/esoteric flags: the monitor gives up immediately
            // (and, concretely, skips the payload checks below).
            match pkt.flags {
                Some(f) if !f.intersects(KZ_NORMAL_FLAGS) => {
                    if monitored_must {
                        flow.ignored = Tri::Yes;
                        return;
                    }
                    flow.ignored = flow.ignored.join(Tri::Maybe);
                }
                Some(_) => {}
                None => flow.ignored = flow.ignored.join(Tri::Maybe),
            }
            // Payload-bearing handshake packets. Must-counting needs
            // known non-null flags (else the concrete branch above
            // returned without counting).
            let flags_normal = pkt.flags.is_some_and(|f| f.intersects(KZ_NORMAL_FLAGS));
            if pkt.payload.may() {
                flow.payloads_max += 1;
                if flow.payloads_max >= 3 {
                    flow.ignored = flow.ignored.join(Tri::Maybe);
                }
                if monitored_must && flags_normal && pkt.payload.must() {
                    flow.payloads_min += 1;
                    if flow.payloads_min >= 3 {
                        flow.ignored = Tri::Yes;
                    }
                }
            }
            if pkt.wellformed_get.may() {
                flow.gets_max += 1;
                if flow.gets_max >= 2 {
                    flow.ignored = flow.ignored.join(Tri::Maybe);
                }
                if pkt.forbidden.may() {
                    // The second GET of a forbidden pair draws an
                    // injected probe response: no clean claim left.
                    flow.tainted = true;
                }
                if monitored_must
                    && flags_normal
                    && pkt.wellformed_get.must()
                    && pkt.forbidden == Tri::No
                {
                    flow.gets_min += 1;
                    if flow.gets_min >= 2 {
                        flow.ignored = Tri::Yes;
                    }
                }
            }
        }
    }
}
