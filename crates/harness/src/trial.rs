//! One experimental trial: unmodified client ⇄ censor ⇄ strategic
//! server.

use appproto::{http, tls, AppProtocol};
use censor::{Carrier, CarrierMiddlebox, Country, Gfw};
use dplane::{Dplane, DplaneConfig, FixedClassifier, SeedMode};
use endpoint::{ClientApp, ClientHost, OsProfile, Outcome, ServerApp, ServerHost};
use geneva::{Engine, Rewrite, StrategicEndpoint, Strategy};
use netsim::sim::NullMiddlebox;
use netsim::{Middlebox, PathConfig, Simulation, Trace};
use std::sync::Arc;

/// Addresses used throughout the experiments.
pub const CLIENT_ADDR: [u8; 4] = [10, 7, 0, 2];
/// The out-of-country server.
pub const SERVER_ADDR: [u8; 4] = [93, 184, 216, 34];

/// Everything one trial needs.
#[derive(Clone)]
pub struct TrialConfig {
    /// Which censor sits on the path (`None` = private network, used
    /// by the §7 compatibility experiments).
    pub country: Option<Country>,
    /// The application protocol under test.
    pub protocol: AppProtocol,
    /// The server-side strategy (identity = no evasion). Shared, not
    /// owned: hot loops construct thousands of configs per strategy.
    pub strategy: Arc<Strategy>,
    /// An optional client-side strategy (§3 experiments only; an
    /// unmodified client has none).
    pub client_strategy: Option<Arc<Strategy>>,
    /// Client OS profile.
    pub os: OsProfile,
    /// RNG seed — same seed, same trial, bit for bit.
    pub seed: u64,
    /// Path geometry.
    pub path: PathConfig,
    /// Instrumentation: shift outgoing client data seq (§5 follow-ups).
    pub client_seq_adjust: i32,
    /// Instrumentation: client drops its own RSTs (§5 follow-ups).
    pub client_drop_own_rst: bool,
    /// Override the server port (`None` = the country-appropriate
    /// default: random-ish for China, protocol default elsewhere).
    pub server_port: Option<u16>,
    /// Which censor model variant to run (ablations).
    pub censor_variant: CensorVariant,
    /// Client access network for censor-free §7 runs (`None` = a
    /// clean lab network; carriers only apply when `country` is
    /// `None`, matching the paper's non-censoring-country tests).
    pub carrier: Option<Carrier>,
    /// Override the simulator's event cap (`None` = the default
    /// livelock guard). Tests use a tiny cap to force truncation.
    pub event_cap: Option<u64>,
    /// Route the server's traffic through the compiled `dplane`
    /// instead of the per-trial interpreter. Bit-identical results —
    /// asserted by the Table 2 equivalence tests.
    pub route_via_dplane: bool,
}

/// Censor-model variants for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensorVariant {
    /// The paper's model (five boxes, revised resync rules).
    Standard,
    /// §6 ablation: one shared box/stack for all protocols.
    GfwSingleBox,
    /// Prior work's single-rule resync model (Wang et al. 2017).
    GfwOldResyncModel,
}

impl TrialConfig {
    /// A standard censored-exchange trial. Accepts an owned
    /// [`Strategy`] or a shared `Arc<Strategy>`.
    pub fn new(
        country: Country,
        protocol: AppProtocol,
        strategy: impl Into<Arc<Strategy>>,
        seed: u64,
    ) -> Self {
        TrialConfig {
            country: Some(country),
            protocol,
            strategy: strategy.into(),
            client_strategy: None,
            os: OsProfile::linux(),
            seed,
            path: PathConfig::default(),
            client_seq_adjust: 0,
            client_drop_own_rst: false,
            server_port: None,
            censor_variant: CensorVariant::Standard,
            carrier: None,
            event_cap: None,
            route_via_dplane: false,
        }
    }

    /// A private-network trial (no censor): §7 client compatibility.
    pub fn private_network(
        protocol: AppProtocol,
        strategy: impl Into<Arc<Strategy>>,
        os: OsProfile,
        seed: u64,
    ) -> Self {
        let mut cfg = TrialConfig::new(Country::China, protocol, strategy, seed);
        cfg.country = None;
        cfg.os = os;
        cfg
    }

    fn effective_port(&self) -> u16 {
        if let Some(port) = self.server_port {
            return port;
        }
        match self.country {
            // The GFW censors independent of port; the paper randomizes
            // server ports in China. Derive one from the seed.
            Some(Country::China) => 20000 + (self.seed % 999) as u16,
            // India/Iran/Kazakhstan censor default ports only; a real
            // deployment must sit there to be reachable.
            _ => appproto::default_port(self.protocol),
        }
    }

    /// The forbidden resource for this (country, protocol) pair,
    /// following §4.2's per-country trigger choices.
    pub fn keyword(&self) -> &'static str {
        match (self.country, self.protocol) {
            (Some(Country::China), AppProtocol::Http) => "ultrasurf",
            (_, AppProtocol::Http) => "youtube.com",
            (Some(Country::Iran), AppProtocol::Https) => "youtube.com",
            _ => self.protocol.default_keyword(),
        }
    }

    fn client_app(&self) -> Box<dyn ClientApp> {
        match (self.country, self.protocol) {
            (Some(Country::China), AppProtocol::Http) | (None, AppProtocol::Http) => {
                Box::new(http::HttpClientApp::for_keyword_query(self.keyword()))
            }
            (_, AppProtocol::Http) => {
                Box::new(http::HttpClientApp::for_blocked_host(self.keyword()))
            }
            (Some(Country::Iran), AppProtocol::Https) => {
                Box::new(tls::TlsClientApp::new(self.keyword()))
            }
            _ => appproto::client_app(self.protocol, self.keyword()),
        }
    }
}

/// Recycled per-worker buffers for [`run_trial_scratch`]: the
/// simulator's trace, event queue, and I/O buffers survive from one
/// trial to the next, so a worker that runs thousands of trials grows
/// its buffers once instead of re-allocating them per trial (the fix
/// for allocs_per_trial *rising* with worker count — every worker used
/// to pay the full warm-up for every trial it ran).
///
/// Recycling is invisible to results: buffers are cleared on the way
/// into each simulation, so a scratch trial is bit-identical to a
/// fresh [`run_trial`] — asserted by the pool determinism tests.
#[derive(Debug, Default)]
pub struct TrialScratch {
    buffers: netsim::SimBuffers,
}

impl TrialScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> TrialScratch {
        TrialScratch::default()
    }

    /// The last trial's trace — readable until the next
    /// [`run_trial_scratch`] call reuses the buffer.
    pub fn trace(&self) -> &Trace {
        &self.buffers.trace
    }
}

/// A trial's outcome without its trace ([`run_trial_scratch`]'s
/// return): everything rate estimation folds over. The trace stays
/// readable in the scratch via [`TrialScratch::trace`] until the next
/// trial overwrites it.
#[derive(Debug, Clone, Copy)]
pub struct TrialVerdict {
    /// The client's final outcome.
    pub outcome: Outcome,
    /// Did the server application ever answer a complete request?
    pub server_responded: bool,
    /// Total censorship events the middlebox logged.
    pub censor_events: u64,
    /// Why the simulation stopped.
    pub stop: netsim::StopReason,
    /// The event cap cut this trial short (see [`TrialResult`]).
    pub truncated: bool,
}

impl TrialVerdict {
    /// The paper's success criterion.
    pub fn evaded(&self) -> bool {
        self.outcome.is_success()
    }
}

/// The result of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The client's final outcome.
    pub outcome: Outcome,
    /// The full packet trace.
    pub trace: Trace,
    /// Did the server application ever answer a complete request?
    pub server_responded: bool,
    /// Total censorship events the middlebox logged (0 for the
    /// private network).
    pub censor_events: u64,
    /// Why the simulation stopped.
    pub stop: netsim::StopReason,
    /// The simulator's event cap cut this trial short: the outcome
    /// reflects the cutoff, not the protocols. A pathological strategy
    /// provoking a retransmit/RST storm used to be silently scored
    /// "censored"; consumers now count these separately.
    pub truncated: bool,
}

impl TrialResult {
    /// The paper's success criterion.
    pub fn evaded(&self) -> bool {
        self.outcome.is_success()
    }
}

/// Run one trial to completion (up to 30 simulated seconds).
pub fn run_trial(cfg: &TrialConfig) -> TrialResult {
    let mut scratch = TrialScratch::new();
    let verdict = run_trial_scratch(cfg, &mut scratch);
    TrialResult {
        outcome: verdict.outcome,
        server_responded: verdict.server_responded,
        censor_events: verdict.censor_events,
        stop: verdict.stop,
        truncated: verdict.truncated,
        trace: scratch.buffers.trace,
    }
}

/// [`run_trial`] with recycled buffers: identical results (the scratch
/// is cleared on the way in), but the simulator's trace/queue/IO
/// allocations are reused across calls instead of re-created per
/// trial. This is the hot path [`crate::rates::success_rate_in`] runs
/// through the pool's per-worker scratch arenas.
pub fn run_trial_scratch(cfg: &TrialConfig, scratch: &mut TrialScratch) -> TrialVerdict {
    let port = cfg.effective_port();
    let mut client_host = ClientHost::new(
        cfg.client_app(),
        cfg.os,
        CLIENT_ADDR,
        41000 + (cfg.seed % 499) as u16,
        (SERVER_ADDR, port),
        cfg.seed ^ 0xC11E_57A7,
    );
    client_host.seq_adjust = cfg.client_seq_adjust;
    client_host.drop_own_rst = cfg.client_drop_own_rst;

    let server_host = ServerHost::new(
        server_app_for(cfg.protocol),
        SERVER_ADDR,
        port,
        cfg.seed ^ 0x5E47_ED00,
    );

    let client = StrategicEndpoint::new(
        client_host,
        Engine::new(
            cfg.client_strategy
                .clone()
                .unwrap_or_else(|| Arc::new(Strategy::identity())),
            cfg.seed ^ 0xC0DE,
        ),
    );
    // The server's wire interface: the per-trial interpreter, or the
    // compiled data plane.
    let rewrite: Box<dyn Rewrite> = if cfg.route_via_dplane {
        Box::new(Dplane::new(
            DplaneConfig {
                seed: SeedMode::Fixed(cfg.seed ^ 0x5EED),
                ..DplaneConfig::default()
            },
            FixedClassifier(Some(Arc::clone(&cfg.strategy))),
        ))
    } else {
        Box::new(Engine::new(Arc::clone(&cfg.strategy), cfg.seed ^ 0x5EED))
    };
    let server = StrategicEndpoint::new(server_host, rewrite);

    // The null middlebox never injects or drops, so counting its
    // trace yields the 0 censor events a censor-free path has.
    let middlebox: Box<dyn Middlebox> = match (cfg.country, cfg.censor_variant) {
        (None, _) => match cfg.carrier {
            Some(carrier) => Box::new(CarrierMiddlebox::new(carrier)),
            None => Box::new(NullMiddlebox),
        },
        (Some(Country::China), CensorVariant::GfwSingleBox) => {
            Box::new(Gfw::single_box_ablation(cfg.seed ^ 0xCE50))
        }
        (Some(Country::China), CensorVariant::GfwOldResyncModel) => {
            Box::new(Gfw::old_resync_model(cfg.seed ^ 0xCE50))
        }
        (Some(country), _) => country.build(cfg.seed ^ 0xCE50),
    };

    let buffers = std::mem::take(&mut scratch.buffers);
    let mut sim = Simulation::with_path_buffers(client, server, middlebox, cfg.path, buffers);
    if let Some(cap) = cfg.event_cap {
        sim.max_events = cap;
    }
    let stop = sim.run(30_000_000);
    let verdict = TrialVerdict {
        outcome: sim.client.inner.outcome(),
        server_responded: sim.server.inner.responded_any(),
        censor_events: sim.trace.count(|e| {
            matches!(
                e,
                netsim::TraceEvent::Injected { .. } | netsim::TraceEvent::DroppedByMiddlebox { .. }
            )
        }) as u64,
        stop,
        truncated: stop.truncated(),
    };
    scratch.buffers = sim.into_buffers();
    verdict
}

fn server_app_for(proto: AppProtocol) -> Box<dyn ServerApp> {
    appproto::server_app(proto)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use geneva::library;

    #[test]
    fn no_censor_every_protocol_succeeds() {
        for proto in AppProtocol::all() {
            let cfg =
                TrialConfig::private_network(proto, Strategy::identity(), OsProfile::linux(), 7);
            let result = run_trial(&cfg);
            assert_eq!(result.outcome, Outcome::Success, "{proto}");
            assert!(result.server_responded, "{proto}");
        }
    }

    #[test]
    fn china_censors_every_protocol_without_evasion() {
        // With miss rates a few percent, seed 3 must be censored for
        // all protocols (deterministic given the seed).
        for proto in AppProtocol::all() {
            let mut censored = 0;
            for seed in 0..10 {
                let cfg = TrialConfig::new(Country::China, proto, Strategy::identity(), seed);
                let result = run_trial(&cfg);
                if !result.evaded() {
                    censored += 1;
                }
            }
            assert!(censored >= 6, "{proto}: censored only {censored}/10");
        }
    }

    #[test]
    fn india_iran_kazakhstan_censor_http() {
        for country in [Country::India, Country::Iran, Country::Kazakhstan] {
            let cfg = TrialConfig::new(country, AppProtocol::Http, Strategy::identity(), 5);
            let result = run_trial(&cfg);
            assert!(!result.evaded(), "{country}");
            match country {
                Country::India | Country::Kazakhstan => {
                    assert_eq!(result.outcome, Outcome::BlockPage, "{country}")
                }
                Country::Iran => assert_eq!(result.outcome, Outcome::Timeout, "{country}"),
                _ => {}
            }
        }
    }

    #[test]
    fn strategy_8_beats_india_iran_kazakhstan() {
        let strategy = library::STRATEGY_8.strategy();
        for country in [Country::India, Country::Iran, Country::Kazakhstan] {
            for seed in 0..5 {
                let cfg = TrialConfig::new(country, AppProtocol::Http, strategy.clone(), seed);
                let result = run_trial(&cfg);
                assert!(
                    result.evaded(),
                    "{country} seed {seed}: {:?}",
                    result.outcome
                );
            }
        }
    }

    #[test]
    fn strategy_8_beats_iran_https() {
        let strategy = library::STRATEGY_8.strategy();
        for seed in 0..5 {
            let cfg = TrialConfig::new(Country::Iran, AppProtocol::Https, strategy.clone(), seed);
            assert!(run_trial(&cfg).evaded(), "seed {seed}");
        }
    }

    #[test]
    fn kazakhstan_strategies_9_10_11_work() {
        for named in [
            library::STRATEGY_9,
            library::STRATEGY_10,
            library::STRATEGY_11,
        ] {
            for seed in 0..5 {
                let cfg = TrialConfig::new(
                    Country::Kazakhstan,
                    AppProtocol::Http,
                    named.strategy(),
                    seed,
                );
                let result = run_trial(&cfg);
                assert!(
                    result.evaded(),
                    "strategy {} seed {seed}: {:?}",
                    named.id,
                    result.outcome
                );
            }
        }
    }

    #[test]
    fn kazakhstan_strategies_9_10_11_unmodified_fails() {
        // Control: without a strategy Kazakhstan censors.
        let cfg = TrialConfig::new(
            Country::Kazakhstan,
            AppProtocol::Http,
            Strategy::identity(),
            9,
        );
        assert!(!run_trial(&cfg).evaded());
    }

    #[test]
    fn iran_off_port_hosting_is_uncensored() {
        let mut cfg = TrialConfig::new(Country::Iran, AppProtocol::Http, Strategy::identity(), 5);
        cfg.server_port = Some(8080);
        assert!(run_trial(&cfg).evaded(), "non-default port escapes Iran");
    }

    #[test]
    fn tiny_event_cap_forces_and_flags_truncation() {
        let mut cfg = TrialConfig::new(
            Country::China,
            AppProtocol::Http,
            library::STRATEGY_1.strategy(),
            3,
        );
        cfg.event_cap = Some(4); // a handshake alone needs more events
        let result = run_trial(&cfg);
        assert!(result.truncated, "4-event cap must truncate");
        assert_eq!(result.stop, netsim::StopReason::EventLimit);

        // The same trial under the default guard completes untruncated.
        cfg.event_cap = None;
        let result = run_trial(&cfg);
        assert!(!result.truncated);
        assert_ne!(result.stop, netsim::StopReason::EventLimit);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_trials() {
        // One scratch recycled across censored/uncensored/dplane-routed
        // trials must reproduce every fresh result, including traces:
        // recycling is capacity-only, never state.
        let mut scratch = TrialScratch::new();
        let mut cfgs = vec![
            TrialConfig::new(
                Country::China,
                AppProtocol::Http,
                library::STRATEGY_1.strategy(),
                77,
            ),
            TrialConfig::private_network(
                AppProtocol::Http,
                Strategy::identity(),
                OsProfile::linux(),
                3,
            ),
            TrialConfig::new(
                Country::Kazakhstan,
                AppProtocol::Http,
                Strategy::identity(),
                9,
            ),
        ];
        let mut routed = TrialConfig::new(
            Country::India,
            AppProtocol::Http,
            library::STRATEGY_8.strategy(),
            5,
        );
        routed.route_via_dplane = true;
        cfgs.push(routed);

        for cfg in &cfgs {
            let fresh = run_trial(cfg);
            let recycled = run_trial_scratch(cfg, &mut scratch);
            assert_eq!(fresh.outcome, recycled.outcome);
            assert_eq!(fresh.server_responded, recycled.server_responded);
            assert_eq!(fresh.censor_events, recycled.censor_events);
            assert_eq!(fresh.stop, recycled.stop);
            assert_eq!(fresh.truncated, recycled.truncated);
            assert_eq!(
                fresh.trace.events.len(),
                scratch.trace().events.len(),
                "recycled trace diverged"
            );
        }
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let cfg = TrialConfig::new(
            Country::China,
            AppProtocol::Http,
            library::STRATEGY_1.strategy(),
            1234,
        );
        let a = run_trial(&cfg);
        let b = run_trial(&cfg);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace.events.len(), b.trace.events.len());
    }
}
