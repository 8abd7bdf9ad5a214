//! Deploying a strategy at an endpoint: the "run Geneva server-side"
//! shim.
//!
//! [`StrategicEndpoint`] wraps any `netsim::Endpoint` (in practice the
//! stock `endpoint::ServerHost`) and rewrites the packets it emits
//! through a [`Rewrite`] — exactly how the paper deploys evasion: the
//! server's TCP stack is unmodified; a packet-level shim (their
//! extended Geneva) intercepts outbound packets and applies the
//! strategy. Inbound rules, when present, rewrite received packets
//! before the stack sees them. The rewriter is the strategy [`Engine`]
//! by default; the compiled data plane (`dplane::Dplane`) is the other
//! one, and emits the same packets.

use crate::engine::Engine;
use netsim::{Endpoint, Io};
use packet::Packet;

/// What rewrites the packets crossing a [`StrategicEndpoint`]'s wire
/// interface. Both methods append their emissions to `out`.
pub trait Rewrite: Send {
    /// Rewrite one packet the inner host sent.
    fn outbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>);
    /// Rewrite one received packet before the inner host sees it.
    fn inbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>);
}

impl Rewrite for Engine {
    fn outbound(&mut self, pkt: &Packet, _now: u64, out: &mut Vec<Packet>) {
        self.apply_outbound_into(pkt, out);
    }

    fn inbound(&mut self, pkt: &Packet, _now: u64, out: &mut Vec<Packet>) {
        self.apply_inbound_into(pkt, out);
    }
}

impl<R: Rewrite + ?Sized> Rewrite for Box<R> {
    fn outbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>) {
        (**self).outbound(pkt, now, out);
    }

    fn inbound(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Packet>) {
        (**self).inbound(pkt, now, out);
    }
}

/// An endpoint with a strategy bolted onto its wire interface.
pub struct StrategicEndpoint<E, R = Engine> {
    /// The unmodified inner host.
    pub inner: E,
    /// What rewrites its packets.
    pub rewrite: R,
    /// Steady-state scratch: the emitted packets are swapped in here
    /// while the rewritten stream is built back into `io.out`, so the
    /// per-call buffer churn of `mem::take` never hits the allocator.
    scratch: Vec<Packet>,
    /// Scratch for the inbound rewrite of one received packet.
    in_scratch: Vec<Packet>,
}

impl<E: Endpoint, R: Rewrite> StrategicEndpoint<E, R> {
    /// Wrap `inner` with `rewrite`.
    pub fn new(inner: E, rewrite: R) -> Self {
        StrategicEndpoint {
            inner,
            rewrite,
            scratch: Vec::new(),
            in_scratch: Vec::new(),
        }
    }

    fn transform_out(&mut self, now: u64, io: &mut Io) {
        std::mem::swap(&mut io.out, &mut self.scratch);
        io.out.clear();
        for pkt in self.scratch.drain(..) {
            self.rewrite.outbound(&pkt, now, &mut io.out);
        }
    }
}

impl<E: Endpoint, R: Rewrite> Endpoint for StrategicEndpoint<E, R> {
    fn on_start(&mut self, now: u64, io: &mut Io) {
        self.inner.on_start(now, io);
        self.transform_out(now, io);
    }

    fn on_packet(&mut self, pkt: Packet, now: u64, io: &mut Io) {
        let mut rewritten = std::mem::take(&mut self.in_scratch);
        rewritten.clear();
        self.rewrite.inbound(&pkt, now, &mut rewritten);
        for p in rewritten.drain(..) {
            self.inner.on_packet(p, now, io);
        }
        self.in_scratch = rewritten;
        self.transform_out(now, io);
    }

    fn on_wake(&mut self, now: u64, io: &mut Io) {
        self.inner.on_wake(now, io);
        self.transform_out(now, io);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use crate::library::STRATEGY_1;
    use packet::TcpFlags;

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
    fn outbound_syn_ack_is_rewritten() {
        let mut wrapped = StrategicEndpoint::new(SynAcker, Engine::new(STRATEGY_1.strategy(), 7));
        let syn = Packet::tcp([1; 4], 1111, [2; 4], 80, TcpFlags::SYN, 50, 0, vec![]);
        let mut io = Io::default();
        wrapped.on_packet(syn, 0, &mut io);
        assert_eq!(io.out.len(), 2);
        assert_eq!(io.out[0].flags(), TcpFlags::RST);
        assert_eq!(io.out[1].flags(), TcpFlags::SYN);
    }

    #[test]
    fn identity_engine_is_transparent() {
        let mut wrapped =
            StrategicEndpoint::new(SynAcker, Engine::new(crate::ast::Strategy::identity(), 7));
        let syn = Packet::tcp([1; 4], 1111, [2; 4], 80, TcpFlags::SYN, 50, 0, vec![]);
        let mut io = Io::default();
        wrapped.on_packet(syn, 0, &mut io);
        assert_eq!(io.out.len(), 1);
        assert!(io.out[0].flags().is_syn_ack());
    }

    #[test]
    fn inbound_drop_rule_shields_inner() {
        let strategy = crate::parse_strategy(" \\/ [TCP:flags:R]-drop-|").unwrap();
        let mut wrapped = StrategicEndpoint::new(SynAcker, Engine::new(strategy, 7));
        let rst = Packet::tcp([1; 4], 1, [2; 4], 2, TcpFlags::RST, 0, 0, vec![]);
        let mut io = Io::default();
        wrapped.on_packet(rst, 0, &mut io);
        assert!(io.out.is_empty(), "inner never saw the RST");
    }
}
