//! The simulation driver: two endpoints, one middlebox, one path.
//!
//! ## Path and TTL model
//!
//! The path is `client —(c2m hops)— middlebox —(m2s hops)— server`.
//! Hop counts use traceroute semantics measured at the packet's origin:
//!
//! * a packet **reaches the middlebox** iff its TTL ≥ the hop count of
//!   the segment between its origin and the middlebox;
//! * it **reaches the far endpoint** iff its TTL ≥ the total hop count.
//!
//! So a client probe with `ttl = c2m` elicits censorship but never
//! reaches the server — exactly the TTL-limited probing the paper uses
//! to localize censorship boxes (§6), and the reason TTL-limited
//! insertion packets are processed by censors but not by endpoints.
//!
//! ## Scheduling model
//!
//! Endpoints are callbacks ([`Endpoint`]) invoked with an [`Io`] they
//! fill with outbound packets and an optional wake-up request. The
//! middlebox ([`Middlebox`]) renders a [`Verdict`] per packet: forward
//! (possibly rewritten — in-path censors may do that), drop, and/or
//! inject packets toward either side. Injections are delivered with the
//! segment latency of the targeted side.

use crate::event::{Event, EventQueue};
use crate::trace::{Trace, TraceEvent};
use crate::{Direction, Side};
use packet::Packet;

/// What an endpoint produced during one callback.
#[derive(Debug, Default)]
pub struct Io {
    /// Packets to transmit, in order.
    pub out: Vec<Packet>,
    /// Absolute time at which to call [`Endpoint::on_wake`], if any.
    pub wake_at: Option<u64>,
}

impl Io {
    /// Queue a packet for transmission.
    pub fn send(&mut self, pkt: Packet) {
        self.out.push(pkt);
    }

    /// Empty the buffer for reuse, keeping the `out` allocation.
    pub fn reset(&mut self) {
        self.out.clear();
        self.wake_at = None;
    }

    /// Request a wake-up at absolute simulated time `at`.
    pub fn wake_at(&mut self, at: u64) {
        self.wake_at = Some(match self.wake_at {
            Some(existing) => existing.min(at),
            None => at,
        });
    }
}

/// A host stack attached to one end of the path.
///
/// `Send` is a supertrait so whole simulations (endpoints, middlebox,
/// queue) can be moved into `harness::pool` worker threads.
pub trait Endpoint: Send {
    /// Called once at t=0 before any packet flows.
    fn on_start(&mut self, now: u64, io: &mut Io);

    /// Called for every packet delivered to this endpoint.
    fn on_packet(&mut self, pkt: Packet, now: u64, io: &mut Io);

    /// Called when a previously requested wake-up time arrives.
    fn on_wake(&mut self, now: u64, io: &mut Io);
}

/// The middlebox's decision about one packet.
#[derive(Debug, Default)]
pub struct Verdict {
    /// The packet to forward onward (`None` = swallowed / in-path drop).
    pub forward: Option<Packet>,
    /// Packets fabricated toward the client.
    pub inject_to_client: Vec<Packet>,
    /// Packets fabricated toward the server.
    pub inject_to_server: Vec<Packet>,
}

impl Verdict {
    /// Forward the packet untouched, inject nothing. What an on-path
    /// censor does when it doesn't act.
    pub fn pass(pkt: Packet) -> Verdict {
        Verdict {
            forward: Some(pkt),
            ..Verdict::default()
        }
    }

    /// Swallow the packet (in-path drop), inject nothing.
    pub fn drop() -> Verdict {
        Verdict::default()
    }
}

/// A censor (or any middlebox) on the path.
///
/// `Send` is a supertrait so boxed censor models can cross into
/// `harness::pool` worker threads.
pub trait Middlebox: Send {
    /// Render a verdict for one packet crossing the box.
    fn process(&mut self, pkt: &Packet, dir: Direction, now: u64) -> Verdict;
}

impl Middlebox for Box<dyn Middlebox> {
    fn process(&mut self, pkt: &Packet, dir: Direction, now: u64) -> Verdict {
        (**self).process(pkt, dir, now)
    }
}

/// A transparent middlebox that forwards everything: the no-censor
/// baseline.
#[derive(Debug, Default, Clone)]
pub struct NullMiddlebox;

impl Middlebox for NullMiddlebox {
    fn process(&mut self, pkt: &Packet, _dir: Direction, _now: u64) -> Verdict {
        Verdict::pass(pkt.clone())
    }
}

/// Path geometry and latency.
#[derive(Debug, Clone, Copy)]
pub struct PathConfig {
    /// Router hops between client and middlebox.
    pub client_to_mb_hops: u8,
    /// Router hops between middlebox and server.
    pub mb_to_server_hops: u8,
    /// One-way latency client↔middlebox, microseconds.
    pub client_to_mb_latency: u64,
    /// One-way latency middlebox↔server, microseconds.
    pub mb_to_server_latency: u64,
}

impl Default for PathConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl PathConfig {
    /// A censor a few hops into the client's country; a far server.
    /// A `const` so static analyses can read the path facts at compile
    /// time.
    pub const DEFAULT: PathConfig = PathConfig {
        client_to_mb_hops: 4,
        mb_to_server_hops: 8,
        client_to_mb_latency: 10_000, // 10 ms
        mb_to_server_latency: 40_000, // 40 ms
    };

    /// Hops from `side`'s origin to the middlebox.
    fn hops_to_mb(&self, from: Side) -> u8 {
        match from {
            Side::Client => self.client_to_mb_hops,
            Side::Server => self.mb_to_server_hops,
        }
    }

    /// Latency from `side` to the middlebox.
    fn latency_to_mb(&self, from: Side) -> u64 {
        match from {
            Side::Client => self.client_to_mb_latency,
            Side::Server => self.mb_to_server_latency,
        }
    }

    /// Latency from the middlebox to `side`.
    fn latency_from_mb(&self, to: Side) -> u64 {
        match to {
            Side::Client => self.client_to_mb_latency,
            Side::Server => self.mb_to_server_latency,
        }
    }
}

/// Why [`Simulation::run`] stopped.
///
/// Callers that score trial outcomes must distinguish a drained queue
/// (the exchange genuinely finished) from a horizon or event-cap stop
/// (the exchange was *truncated* — its outcome is a property of the
/// cutoff, not of the protocols). Before this enum existed, a
/// pathological strategy that provoked a retransmit/RST storm was
/// silently cut at `max_events` and scored as if the client had been
/// censored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained: every scheduled event was processed.
    Drained,
    /// The next event lies beyond `max_time`. The event is left in the
    /// queue (not discarded), so a subsequent `run` with a larger
    /// horizon continues exactly where this one stopped.
    TimeLimit,
    /// `max_events` was reached with work still pending — a livelock
    /// guard, and a signal the trial result is truncated.
    EventLimit,
}

impl StopReason {
    /// True when the simulation stopped with events still pending
    /// because of the livelock guard.
    pub fn truncated(self) -> bool {
        matches!(self, StopReason::EventLimit)
    }
}

/// The heap-backed buffers a simulation churns through: the trace, the
/// event queue, and the per-event endpoint I/O buffer.
///
/// A simulation built from recycled buffers
/// ([`Simulation::with_path_buffers`]) reuses their allocations instead
/// of growing fresh ones, and [`Simulation::into_buffers`] hands them
/// back when the run is over — the loop that lets a trial harness run
/// millions of simulations with O(workers) buffer growth instead of
/// O(trials). Recycling is invisible to results: every buffer is
/// cleared on the way in (including the event queue's FIFO-tiebreak
/// counter), so a recycled simulation is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct SimBuffers {
    /// The captured trace (still readable after `into_buffers`).
    pub trace: Trace,
    /// The time-ordered event queue.
    pub queue: EventQueue,
    /// The per-event endpoint I/O buffer.
    pub io: Io,
}

impl SimBuffers {
    /// Clear every buffer, keeping allocations.
    fn reset(&mut self) {
        self.trace.clear();
        self.queue.clear();
        self.io.reset();
    }
}

/// A complete two-endpoint, one-middlebox simulation.
pub struct Simulation<C, S, M> {
    /// The client stack.
    pub client: C,
    /// The server stack.
    pub server: S,
    /// The middlebox (censor model or [`NullMiddlebox`]).
    pub middlebox: M,
    /// Path geometry.
    pub path: PathConfig,
    /// Captured trace.
    pub trace: Trace,
    queue: EventQueue,
    now: u64,
    events_processed: u64,
    booted: bool,
    /// Reused per-event endpoint I/O buffer: the `out` vector's
    /// capacity survives across events, so steady-state dispatch never
    /// re-allocates it.
    io: Io,
    /// Hard cap on processed events, guarding against livelock.
    pub max_events: u64,
}

impl<C: Endpoint, S: Endpoint, M: Middlebox> Simulation<C, S, M> {
    /// Build a simulation with the default path.
    pub fn new(client: C, server: S, middlebox: M) -> Self {
        Self::with_path(client, server, middlebox, PathConfig::default())
    }

    /// Build a simulation with explicit path geometry.
    pub fn with_path(client: C, server: S, middlebox: M, path: PathConfig) -> Self {
        Self::with_path_buffers(client, server, middlebox, path, SimBuffers::default())
    }

    /// [`Simulation::with_path`] reusing recycled [`SimBuffers`] (e.g.
    /// from a previous run's [`Simulation::into_buffers`]). The buffers
    /// are cleared on the way in, so results are bit-identical to a
    /// fresh simulation — only the allocations are recycled.
    pub fn with_path_buffers(
        client: C,
        server: S,
        middlebox: M,
        path: PathConfig,
        mut buffers: SimBuffers,
    ) -> Self {
        buffers.reset();
        Simulation {
            client,
            server,
            middlebox,
            path,
            trace: buffers.trace,
            queue: buffers.queue,
            now: 0,
            events_processed: 0,
            booted: false,
            io: buffers.io,
            max_events: 100_000,
        }
    }

    /// Tear the simulation down, handing its buffers (including the
    /// final trace, still readable) back for recycling.
    pub fn into_buffers(self) -> SimBuffers {
        SimBuffers {
            trace: self.trace,
            queue: self.queue,
            io: self.io,
        }
    }

    /// Current simulated time (microseconds).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events dispatched so far (diagnostics; compare `max_events`).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Run until the event queue drains, `max_time` passes, or the
    /// `max_events` livelock guard trips. Returns why it stopped; the
    /// simulated end time stays readable via [`Simulation::now`].
    ///
    /// Horizon stops *peek* rather than pop: the first over-horizon
    /// event stays queued, so calling `run` again with a larger
    /// horizon resumes losslessly.
    pub fn run(&mut self, max_time: u64) -> StopReason {
        if !self.booted {
            self.booted = true;
            let mut io = std::mem::take(&mut self.io);
            self.server.on_start(0, &mut io);
            self.flush(Side::Server, &mut io);
            self.client.on_start(0, &mut io);
            self.flush(Side::Client, &mut io);
            self.io = io;
        }

        loop {
            let Some(t) = self.queue.peek_time() else {
                return StopReason::Drained;
            };
            if t > max_time {
                return StopReason::TimeLimit;
            }
            if self.events_processed >= self.max_events {
                return StopReason::EventLimit;
            }
            let (t, event) = self.queue.pop().expect("peeked above");
            self.now = t;
            self.events_processed += 1;
            self.dispatch(event);
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::AtMiddlebox { pkt, dir } => self.at_middlebox(pkt, dir),
            Event::AtEndpoint { side, pkt } => {
                self.trace.push(TraceEvent::Delivered {
                    t: self.now,
                    side,
                    pkt: pkt.clone(),
                });
                let mut io = std::mem::take(&mut self.io);
                match side {
                    Side::Client => self.client.on_packet(pkt, self.now, &mut io),
                    Side::Server => self.server.on_packet(pkt, self.now, &mut io),
                }
                self.flush(side, &mut io);
                self.io = io;
            }
            Event::Wake { side } => {
                let mut io = std::mem::take(&mut self.io);
                match side {
                    Side::Client => self.client.on_wake(self.now, &mut io),
                    Side::Server => self.server.on_wake(self.now, &mut io),
                }
                self.flush(side, &mut io);
                self.io = io;
            }
        }
    }

    /// Transmit an endpoint's output and schedule its wake-up. Drains
    /// `io` so the caller can reuse its buffers for the next event.
    fn flush(&mut self, from: Side, io: &mut Io) {
        for pkt in io.out.drain(..) {
            self.trace.push(TraceEvent::Sent {
                t: self.now,
                side: from,
                pkt: pkt.clone(),
            });
            self.transmit(from, pkt);
        }
        if let Some(at) = io.wake_at.take() {
            self.queue
                .schedule(at.max(self.now), Event::Wake { side: from });
        }
    }

    /// First segment: origin → middlebox, with TTL check.
    fn transmit(&mut self, from: Side, pkt: Packet) {
        let dir = from.outbound_direction();
        let hops = self.path.hops_to_mb(from);
        if pkt.ip.ttl < hops {
            self.trace.push(TraceEvent::TtlExpired {
                t: self.now,
                dir,
                reached_middlebox: false,
                pkt,
            });
            return;
        }
        let mut pkt = pkt;
        pkt.ip.decrement_ttl(hops);
        self.queue.schedule(
            self.now + self.path.latency_to_mb(from),
            Event::AtMiddlebox { pkt, dir },
        );
    }

    /// Middlebox processing and second-segment forwarding.
    fn at_middlebox(&mut self, pkt: Packet, dir: Direction) {
        let verdict = self.middlebox.process(&pkt, dir, self.now);
        match verdict.forward {
            Some(fwd) => {
                self.trace.push(TraceEvent::Forwarded {
                    t: self.now,
                    dir,
                    pkt: fwd.clone(),
                });
                self.forward_to_destination(fwd, dir);
            }
            None => {
                self.trace.push(TraceEvent::DroppedByMiddlebox {
                    t: self.now,
                    dir,
                    pkt,
                });
            }
        }
        for inj in verdict.inject_to_client {
            self.inject(inj, Side::Client);
        }
        for inj in verdict.inject_to_server {
            self.inject(inj, Side::Server);
        }
    }

    fn forward_to_destination(&mut self, pkt: Packet, dir: Direction) {
        let to = Side::destination_of(dir);
        let hops = self.path.hops_to_mb(to); // same count from mb to that side
        if pkt.ip.ttl < hops {
            self.trace.push(TraceEvent::TtlExpired {
                t: self.now,
                dir,
                reached_middlebox: true,
                pkt,
            });
            return;
        }
        let mut pkt = pkt;
        pkt.ip.decrement_ttl(hops);
        self.queue.schedule(
            self.now + self.path.latency_from_mb(to),
            Event::AtEndpoint { side: to, pkt },
        );
    }

    fn inject(&mut self, pkt: Packet, toward: Side) {
        self.trace.push(TraceEvent::Injected {
            t: self.now,
            toward,
            pkt: pkt.clone(),
        });
        self.queue.schedule(
            self.now + self.path.latency_from_mb(toward),
            Event::AtEndpoint { side: toward, pkt },
        );
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use packet::TcpFlags;

    /// An endpoint that fires one SYN at start and records deliveries.
    #[derive(Default)]
    struct Pinger {
        ttl: u8,
        received: Vec<Packet>,
    }

    impl Endpoint for Pinger {
        fn on_start(&mut self, _now: u64, io: &mut Io) {
            if self.ttl > 0 {
                let mut p = Packet::tcp(
                    [10, 0, 0, 1],
                    1000,
                    [20, 0, 0, 1],
                    80,
                    TcpFlags::SYN,
                    1,
                    0,
                    vec![],
                );
                p.ip.ttl = self.ttl;
                io.send(p);
            }
        }
        fn on_packet(&mut self, pkt: Packet, _now: u64, _io: &mut Io) {
            self.received.push(pkt);
        }
        fn on_wake(&mut self, _now: u64, _io: &mut Io) {}
    }

    /// Echoes every packet back with flags RST (to test server→client path).
    #[derive(Default)]
    struct Echoer {
        received: Vec<Packet>,
    }

    impl Endpoint for Echoer {
        fn on_start(&mut self, _now: u64, _io: &mut Io) {}
        fn on_packet(&mut self, pkt: Packet, _now: u64, io: &mut Io) {
            self.received.push(pkt.clone());
            let reply = Packet::tcp(
                pkt.ip.dst,
                pkt.dst_port(),
                pkt.ip.src,
                pkt.src_port(),
                TcpFlags::SYN_ACK,
                7,
                8,
                vec![],
            );
            io.send(reply);
        }
        fn on_wake(&mut self, _now: u64, _io: &mut Io) {}
    }

    fn path() -> PathConfig {
        PathConfig {
            client_to_mb_hops: 3,
            mb_to_server_hops: 5,
            client_to_mb_latency: 10,
            mb_to_server_latency: 20,
        }
    }

    #[test]
    fn packet_travels_end_to_end_and_back() {
        let mut sim = Simulation::with_path(
            Pinger {
                ttl: 64,
                ..Default::default()
            },
            Echoer::default(),
            NullMiddlebox,
            path(),
        );
        sim.run(1_000_000);
        assert_eq!(sim.server.received.len(), 1);
        assert_eq!(sim.client.received.len(), 1);
        // TTL decremented by total hops (3 + 5).
        assert_eq!(sim.server.received[0].ip.ttl, 64 - 8);
        // Reply travels 5 + 3.
        assert_eq!(sim.client.received[0].ip.ttl, 64 - 8);
        // Latency: 10 + 20 out, 20 + 10 back = 60.
        assert_eq!(sim.now(), 60);
    }

    #[test]
    fn ttl_expires_before_middlebox() {
        let mut sim = Simulation::with_path(
            Pinger {
                ttl: 2, // needs 3 to reach the middlebox
                ..Default::default()
            },
            Echoer::default(),
            NullMiddlebox,
            path(),
        );
        sim.run(1_000_000);
        assert!(sim.server.received.is_empty());
        assert_eq!(
            sim.trace.count(|e| matches!(
                e,
                TraceEvent::TtlExpired {
                    reached_middlebox: false,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn ttl_reaches_middlebox_but_not_server() {
        struct DropCounter(usize);
        impl Middlebox for DropCounter {
            fn process(&mut self, pkt: &Packet, _dir: Direction, _now: u64) -> Verdict {
                self.0 += 1;
                Verdict::pass(pkt.clone())
            }
        }
        let mut sim = Simulation::with_path(
            Pinger {
                ttl: 4, // reaches mb (3 hops), dies before server (needs 8)
                ..Default::default()
            },
            Echoer::default(),
            DropCounter(0),
            path(),
        );
        sim.run(1_000_000);
        assert_eq!(sim.middlebox.0, 1, "middlebox must see the packet");
        assert!(sim.server.received.is_empty());
        assert_eq!(
            sim.trace.count(|e| matches!(
                e,
                TraceEvent::TtlExpired {
                    reached_middlebox: true,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn exact_boundary_ttls() {
        // ttl == c2m hops: reaches middlebox. ttl == total: reaches server.
        for (ttl, reaches_server) in [(3u8, false), (7, false), (8, true)] {
            let mut sim = Simulation::with_path(
                Pinger {
                    ttl,
                    ..Default::default()
                },
                Echoer::default(),
                NullMiddlebox,
                path(),
            );
            sim.run(1_000_000);
            assert_eq!(!sim.server.received.is_empty(), reaches_server, "ttl={ttl}");
        }
    }

    #[test]
    fn inpath_drop_and_injection() {
        /// Drops everything client→server and injects a RST to the client.
        struct Blackholer;
        impl Middlebox for Blackholer {
            fn process(&mut self, pkt: &Packet, dir: Direction, _now: u64) -> Verdict {
                if dir == Direction::ToServer {
                    let mut v = Verdict::drop();
                    let rst = Packet::tcp(
                        pkt.ip.dst,
                        pkt.dst_port(),
                        pkt.ip.src,
                        pkt.src_port(),
                        TcpFlags::RST,
                        0,
                        0,
                        vec![],
                    );
                    v.inject_to_client.push(rst);
                    v
                } else {
                    Verdict::pass(pkt.clone())
                }
            }
        }
        let mut sim = Simulation::with_path(
            Pinger {
                ttl: 64,
                ..Default::default()
            },
            Echoer::default(),
            Blackholer,
            path(),
        );
        sim.run(1_000_000);
        assert!(sim.server.received.is_empty());
        assert_eq!(sim.client.received.len(), 1);
        assert_eq!(sim.client.received[0].flags(), TcpFlags::RST);
        assert!(sim.trace.middlebox_dropped_any());
        assert_eq!(sim.trace.injected_toward(Side::Client).len(), 1);
    }

    #[test]
    fn wake_requests_fire_in_order() {
        #[derive(Default)]
        struct Waker {
            fired: Vec<u64>,
        }
        impl Endpoint for Waker {
            fn on_start(&mut self, _now: u64, io: &mut Io) {
                io.wake_at(100);
            }
            fn on_packet(&mut self, _pkt: Packet, _now: u64, _io: &mut Io) {}
            fn on_wake(&mut self, now: u64, io: &mut Io) {
                self.fired.push(now);
                if self.fired.len() < 3 {
                    io.wake_at(now + 50);
                }
            }
        }
        let mut sim =
            Simulation::with_path(Waker::default(), Echoer::default(), NullMiddlebox, path());
        sim.run(1_000_000);
        assert_eq!(sim.client.fired, vec![100, 150, 200]);
    }

    #[test]
    fn max_events_guards_against_livelock() {
        /// Two endpoints that ping-pong forever.
        struct Forever;
        impl Endpoint for Forever {
            fn on_start(&mut self, _now: u64, io: &mut Io) {
                io.wake_at(1);
            }
            fn on_packet(&mut self, _pkt: Packet, _now: u64, _io: &mut Io) {}
            fn on_wake(&mut self, now: u64, io: &mut Io) {
                io.wake_at(now + 1);
            }
        }
        let mut sim = Simulation::with_path(Forever, Echoer::default(), NullMiddlebox, path());
        sim.max_events = 500;
        let stop = sim.run(u64::MAX);
        // Terminates despite the endless wake chain — and says why.
        assert_eq!(stop, StopReason::EventLimit);
        assert!(stop.truncated());
        assert_eq!(sim.events_processed(), 500);
    }

    #[test]
    fn stop_reasons_distinguish_drain_from_horizon() {
        let mut sim = Simulation::with_path(
            Pinger {
                ttl: 64,
                ..Default::default()
            },
            Echoer::default(),
            NullMiddlebox,
            path(),
        );
        assert_eq!(sim.run(1_000_000), StopReason::Drained);
        assert!(!StopReason::Drained.truncated());
    }

    #[test]
    fn horizon_stop_requeues_the_over_horizon_event() {
        // The SYN takes 10 µs to reach the middlebox; a 5 µs horizon
        // stops before it. The event must NOT be discarded: resuming
        // with a larger horizon delivers it and the echo comes back.
        let mut sim = Simulation::with_path(
            Pinger {
                ttl: 64,
                ..Default::default()
            },
            Echoer::default(),
            NullMiddlebox,
            path(),
        );
        assert_eq!(sim.run(5), StopReason::TimeLimit);
        assert!(sim.server.received.is_empty());
        assert_eq!(sim.run(1_000_000), StopReason::Drained);
        assert_eq!(sim.server.received.len(), 1, "horizon stop lost the SYN");
        assert_eq!(sim.client.received.len(), 1);
        assert_eq!(sim.now(), 60);
    }
}
