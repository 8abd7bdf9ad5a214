//! `dplane` — a compiled server-side evasion data plane.
//!
//! The paper's deployment story (§8) is an ESNI-style provider applying
//! evasion strategies *server-side* for millions of unmodified clients,
//! choosing a strategy per client from the SYN alone. The per-trial
//! interpreter (`geneva::Engine`) is the semantics; this crate is the
//! production-shaped path:
//!
//! * [`Program`] — strategies canonicalized through `strata` and
//!   lowered to flat, allocation-free instruction programs
//!   ([`program`]).
//! * [`FlowTable`] — a 4-tuple-keyed flow table with idle timeout and
//!   a deterministic capacity LRU ([`flow`]).
//! * [`PacketIo`] — the packet boundary, with an in-memory
//!   ([`io::VecIo`]) and a pcap-replay ([`io::PcapReplay`]) backend; in
//!   the simulator a [`Dplane`] is a `geneva::Rewrite`, so it slots
//!   into `geneva::StrategicEndpoint` where the interpreter would.
//! * [`MetricsReport`] — flow-table counters exported as JSON
//!   (`cay dplane`).
//!
//! [`Dplane`] ties them together: classify a new flow's client (via any
//! [`Classifier`], e.g. `svc::RolloutClassifier` or a closure),
//! compile-or-reuse its strategy through the proof gate, and rewrite
//! its packets. A plane, its flow table and its [`ProgramCache`]
//! belong to one thread; nothing in this crate is shared between
//! threads. Everything is deterministic: same packets in, same packets
//! and same metrics out — byte-identical to the interpreter.

pub mod flow;
pub mod io;
pub mod metrics;
pub mod program;

pub use flow::{FlowConfig, FlowTable, Touch};
pub use io::{PacketIo, PcapReplay, VecIo};
pub use metrics::{MetricsReport, ShardMetrics};
pub use program::{
    lower_ops, verify, CompiledPart, Matcher, Op, Program, ProgramCache, ProgramProof, VerifyError,
};

use flow::key_hash;
use geneva::Strategy;
use packet::{FlowKey, Packet};
use std::sync::Arc;

/// Decides the strategy for a newly seen flow. Runs once per flow
/// (on the first packet — the client's SYN in every experiment); must
/// be a pure function of the packet's flow identity so that evicted
/// flows re-classify identically on return.
pub trait Classifier: Send {
    /// The strategy for the flow `first_pkt` opened, or `None` for
    /// pass-through.
    fn classify(&mut self, first_pkt: &Packet) -> Option<Arc<Strategy>>;
}

impl<F> Classifier for F
where
    F: FnMut(&Packet) -> Option<Arc<Strategy>> + Send,
{
    fn classify(&mut self, first_pkt: &Packet) -> Option<Arc<Strategy>> {
        self(first_pkt)
    }
}

/// The trivial classifier: every flow gets the same strategy (or
/// none). This is how a single-strategy trial routes through the data
/// plane.
pub struct FixedClassifier(pub Option<Arc<Strategy>>);

impl Classifier for FixedClassifier {
    fn classify(&mut self, _first_pkt: &Packet) -> Option<Arc<Strategy>> {
        self.0.clone()
    }
}

/// How per-flow corrupt seeds are derived.
#[derive(Debug, Clone, Copy)]
pub enum SeedMode {
    /// Every flow uses this exact seed — the interpreter-equivalence
    /// mode (a trial's engine has one seed).
    Fixed(u64),
    /// Each flow's seed is a splitmix64 mix of this base with the flow
    /// key, so corruption differs across clients but is reproducible
    /// per flow (and identical after eviction + return).
    PerFlow(u64),
}

/// Data-plane configuration.
#[derive(Debug, Clone, Copy)]
pub struct DplaneConfig {
    /// Flow-table sizing and expiry.
    pub flow: FlowConfig,
    /// Corrupt-seed derivation.
    pub seed: SeedMode,
}

impl Default for DplaneConfig {
    fn default() -> DplaneConfig {
        DplaneConfig {
            flow: FlowConfig::default(),
            seed: SeedMode::PerFlow(0),
        }
    }
}

/// The assembled data plane: classifier → program cache → flow table →
/// compiled execution, with flow-table metrics.
///
/// The plane owns its classifier, flow table and program cache, and
/// belongs to one thread. The live service installs a reload's
/// verified programs on that thread, through [`Dplane::programs`],
/// before it points the classifier at the new rollout table.
pub struct Dplane<C: Classifier> {
    classifier: C,
    programs: ProgramCache,
    flows: FlowTable,
    scratch: Vec<Packet>,
    /// [`Dplane::pump`]'s emission buffer, kept across calls.
    out: Vec<Packet>,
    seed_mode: SeedMode,
}

impl<C: Classifier> Dplane<C> {
    /// Build a data plane with an empty program cache.
    pub fn new(cfg: DplaneConfig, classifier: C) -> Dplane<C> {
        Dplane {
            classifier,
            programs: ProgramCache::new(),
            flows: FlowTable::new(cfg.flow),
            scratch: Vec::new(),
            out: Vec::new(),
            seed_mode: cfg.seed,
        }
    }

    /// The plane's program cache (install verified programs with
    /// [`ProgramCache::insert`]).
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// The plane's classifier, for swapping what new flows classify
    /// against. Live flows keep the program they classified to.
    pub fn classifier_mut(&mut self) -> &mut C {
        &mut self.classifier
    }

    /// Rewrite one packet the server is sending; emissions append to
    /// `out`.
    pub fn process_outbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>) {
        self.process(pkt, now, out, true);
    }

    /// Rewrite one packet arriving at the server; emissions append to
    /// `out`.
    pub fn process_inbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>) {
        self.process(pkt, now, out, false);
    }

    fn process(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>, outbound: bool) {
        let key = pkt.flow_key();
        let seed_mode = self.seed_mode;
        let Dplane {
            classifier,
            programs,
            flows,
            scratch,
            ..
        } = self;
        // Seed derivation happens inside the creation closure: it is a
        // pure function of the key, and the steady-state path (flow
        // already live) never needs it.
        let touch = flows.touch(key, now, || {
            let seed = match seed_mode {
                SeedMode::Fixed(seed) => seed,
                SeedMode::PerFlow(base) => flow_seed(base, &key),
            };
            // The proof gate refuses unverifiable programs: the flow
            // passes through unmodified (fail-safe — clients keep
            // working, they just get no evasion) and the reject is
            // counted in metrics.
            let program = classifier
                .classify(pkt)
                .and_then(|s| programs.get_or_verify(&s).ok());
            (program, seed)
        });
        match touch.program {
            Some(program) => {
                flows.note_apply(touch.shard, program.key);
                if outbound {
                    program.apply_outbound(pkt, touch.seed, out, scratch);
                } else {
                    program.apply_inbound(pkt, touch.seed, out, scratch);
                }
            }
            None => {
                flows.note_pass(touch.shard);
                out.push(pkt.clone());
            }
        }
    }

    /// Drain a [`PacketIo`] source through the data plane. Packets
    /// whose IPv4 source is `server_addr` take the outbound ruleset;
    /// everything else is inbound. Returns the number of packets
    /// processed.
    pub fn pump<I: PacketIo>(&mut self, io: &mut I, server_addr: [u8; 4]) -> u64 {
        let mut out = std::mem::take(&mut self.out);
        let mut processed = 0;
        while let Some((now, pkt)) = io.recv() {
            if pkt.ip.src == server_addr {
                self.process_outbound(&pkt, now, &mut out);
            } else {
                self.process_inbound(&pkt, now, &mut out);
            }
            for emitted in out.drain(..) {
                io.emit(now, emitted);
            }
            processed += 1;
        }
        self.out = out;
        io.flush();
        processed
    }

    /// Live flow count.
    pub fn flows_live(&self) -> usize {
        self.flows.len()
    }

    /// Export all counters.
    pub fn metrics(&self) -> MetricsReport {
        MetricsReport {
            table: self.flows.metrics(),
            flows_live: self.flows.len(),
            cache_hits: self.programs.hits(),
            cache_misses: self.programs.misses(),
            verify_rejects: self.programs.verify_rejects(),
            strategies: self.programs.strategies(),
            ..MetricsReport::default()
        }
    }
}

/// The compiled rewriter behind a `geneva::StrategicEndpoint`: with a
/// [`FixedClassifier`] carrying a trial's strategy and a fixed seed
/// equal to the trial's engine seed, the wrapped host emits the same
/// packets as under the interpreter (`harness` asserts this for the
/// full Table 2 experiment).
impl<C: Classifier> geneva::Rewrite for Dplane<C> {
    fn outbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>) {
        self.process_outbound(pkt, now, out);
    }

    fn inbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>) {
        self.process_inbound(pkt, now, out);
    }
}

/// Per-flow seed: splitmix64 over the base XOR [`key_hash`]. Pure in
/// (base, key), so eviction and return rebuild the same seed.
fn flow_seed(base: u64, key: &FlowKey) -> u64 {
    netsim::splitmix64(base ^ key_hash(key))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use geneva::StrategicEndpoint;
    use netsim::{Endpoint, Io};
    use packet::TcpFlags;

    fn syn(client: [u8; 4]) -> Packet {
        let mut p = Packet::tcp(
            client,
            40000,
            [93, 184, 216, 34],
            80,
            TcpFlags::SYN,
            1,
            0,
            vec![],
        );
        p.finalize();
        p
    }

    fn syn_ack(client: [u8; 4]) -> Packet {
        let mut p = Packet::tcp(
            [93, 184, 216, 34],
            80,
            client,
            40000,
            TcpFlags::SYN_ACK,
            100,
            2,
            vec![],
        );
        p.finalize();
        p
    }

    #[test]
    fn classifies_once_and_rewrites_outbound() {
        let strategy = Arc::new(geneva::library::STRATEGY_1.strategy());
        let mut dp = Dplane::new(DplaneConfig::default(), FixedClassifier(Some(strategy)));
        let client = [10, 7, 0, 2];
        let mut out = Vec::new();
        dp.process_inbound(&syn(client), 0, &mut out);
        assert_eq!(out.len(), 1, "no inbound rules: SYN passes");
        out.clear();
        dp.process_outbound(&syn_ack(client), 10, &mut out);
        assert_eq!(out.len(), 2, "strategy 1 emits RST then SYN");
        assert_eq!(out[0].flags(), TcpFlags::RST);
        let m = dp.metrics();
        assert_eq!(m.totals().flows_created, 1, "one flow, both directions");
        assert_eq!((m.cache_hits, m.cache_misses), (0, 1));
    }

    #[test]
    fn per_flow_seeds_are_stable_across_eviction() {
        let key = syn([10, 7, 0, 2]).flow_key();
        assert_eq!(flow_seed(42, &key), flow_seed(42, &key));
        assert_ne!(flow_seed(42, &key), flow_seed(43, &key));
        // Both directions share the canonical key, hence the seed.
        assert_eq!(
            syn([10, 7, 0, 2]).flow_key(),
            syn_ack([10, 7, 0, 2]).flow_key()
        );
    }

    #[test]
    fn pump_splits_directions_by_server_addr() {
        let strategy = Arc::new(geneva::library::STRATEGY_1.strategy());
        let mut dp = Dplane::new(DplaneConfig::default(), FixedClassifier(Some(strategy)));
        let client = [10, 7, 0, 2];
        let mut io = VecIo::new([(0, syn(client)), (10, syn_ack(client))]);
        let processed = dp.pump(&mut io, [93, 184, 216, 34]);
        assert_eq!(processed, 2);
        // SYN passed through + RST & SYN from the rewritten SYN+ACK.
        assert_eq!(io.output.len(), 3);
    }

    /// An endpoint that replies to any packet with a SYN+ACK.
    struct SynAcker;

    impl Endpoint for SynAcker {
        fn on_start(&mut self, _now: u64, _io: &mut Io) {}
        fn on_packet(&mut self, pkt: Packet, _now: u64, io: &mut Io) {
            let mut sa = Packet::tcp(
                pkt.ip.dst,
                pkt.dst_port(),
                pkt.ip.src,
                pkt.src_port(),
                TcpFlags::SYN_ACK,
                100,
                pkt.tcp_header().map(|t| t.seq + 1).unwrap_or(0),
                vec![],
            );
            sa.finalize();
            io.send(sa);
        }
        fn on_wake(&mut self, _now: u64, _io: &mut Io) {}
    }

    #[test]
    fn matches_strategic_endpoint_byte_for_byte() {
        let strategy = geneva::library::STRATEGY_1.strategy();
        let seed = 7;

        let mut interpreted =
            StrategicEndpoint::new(SynAcker, geneva::Engine::new(strategy.clone(), seed));
        let mut compiled = StrategicEndpoint::new(
            SynAcker,
            Dplane::new(
                DplaneConfig {
                    seed: SeedMode::Fixed(seed),
                    ..DplaneConfig::default()
                },
                FixedClassifier(Some(Arc::new(strategy))),
            ),
        );

        let mut syn = Packet::tcp(
            [10, 7, 0, 2],
            1111,
            [2; 4],
            80,
            TcpFlags::SYN,
            50,
            0,
            vec![],
        );
        syn.finalize();
        let (mut io_a, mut io_b) = (Io::default(), Io::default());
        interpreted.on_packet(syn.clone(), 0, &mut io_a);
        compiled.on_packet(syn, 0, &mut io_b);
        assert_eq!(io_a.out, io_b.out);
        assert_eq!(io_b.out.len(), 2, "strategy 1 emits RST then SYN");
    }

    #[test]
    fn inbound_rules_shield_the_inner_host() {
        let strategy = geneva::parse_strategy(" \\/ [TCP:flags:R]-drop-|").unwrap();
        let mut wrapped = StrategicEndpoint::new(
            SynAcker,
            Dplane::new(
                DplaneConfig::default(),
                FixedClassifier(Some(Arc::new(strategy))),
            ),
        );
        let mut rst = Packet::tcp([1; 4], 1, [2; 4], 2, TcpFlags::RST, 0, 0, vec![]);
        rst.finalize();
        let mut io = Io::default();
        wrapped.on_packet(rst, 0, &mut io);
        assert!(io.out.is_empty(), "inner never saw the RST");
    }
}
