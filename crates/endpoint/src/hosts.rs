//! Client and server hosts: `netsim` endpoints wiring a TCP connection
//! to an application session.
//!
//! The [`ClientHost`] models the paper's *unmodified client*: it
//! connects, sends its protocol request, and reads the response, with
//! stock behaviors — checksum validation, SYN retransmission,
//! per-attempt timeouts, and application-level retries (DNS-over-TCP
//! clients retry on premature connection close, RFC 7766; the paper
//! tests with 3 total tries).
//!
//! Two *instrumentation knobs* ([`ClientHost::seq_adjust`],
//! [`ClientHost::drop_own_rst`]) reproduce the paper's §5 follow-up
//! experiments ("we instrumented a client-side request to decrement
//! the sequence number of the forbidden request by 1", "if we
//! instrument the client to drop this induced RST"). They default off;
//! an unmodified client never uses them.
//!
//! The [`ServerHost`] is a plain multi-connection server. Server-side
//! evasion is **not** implemented here — the whole point of the paper
//! is that the server's stack is also stock, and only a packet-level
//! shim (the `geneva` crate's `StrategicEndpoint`) rewrites what it
//! emits.

// Wire formats truncate by definition: length, checksum, and offset
// fields are specified modulo their width.
#![allow(clippy::cast_possible_truncation)]
use crate::conn::{BreakReason, TcpConn, TcpState};
use crate::profile::OsProfile;
use netsim::{splitmix64, Endpoint, Io};
use packet::{Packet, TcpFlags};
use std::collections::HashMap;

/// Client-side application session (one protocol exchange).
///
/// `Send` is a supertrait: boxed apps ride inside hosts that
/// `harness::pool` moves onto worker threads.
pub trait ClientApp: Send {
    /// The request bytes for the given attempt (0-based). DNS retries
    /// re-issue the same query; other protocols are single-attempt.
    /// Server-greets-first protocols (FTP, SMTP) return nothing here
    /// and speak through [`ClientApp::pending_output`] instead.
    fn request(&mut self, attempt: u32) -> Vec<u8>;

    /// Further bytes to send, polled after every received chunk —
    /// the mechanism for interactive protocols (FTP command/response,
    /// SMTP envelope exchange). Return `None` when nothing is ready.
    fn pending_output(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Feed response bytes as they arrive.
    fn on_data(&mut self, data: &[u8]);

    /// Has the correct, unaltered response been received (the paper's
    /// success criterion)?
    fn satisfied(&self) -> bool;

    /// Did we receive a censor block page or otherwise wrong content?
    fn poisoned(&self) -> bool {
        false
    }

    /// Total connection attempts allowed (DNS-over-TCP: 3).
    fn max_attempts(&self) -> u32 {
        1
    }

    /// Clear response state before a retry.
    fn reset_for_retry(&mut self) {}
}

/// Server-side application: a factory of per-connection sessions.
/// `Send` for the same reason as [`ClientApp`].
pub trait ServerApp: Send {
    /// Create a session for a freshly accepted connection.
    fn new_session(&mut self) -> Box<dyn ServerSession>;
}

/// One server-side protocol conversation. `Send` for the same reason
/// as [`ClientApp`].
pub trait ServerSession: Send {
    /// Bytes the server volunteers as soon as the handshake completes
    /// (FTP's `220` banner, SMTP's greeting). Default: silent.
    fn greeting(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Called after every delivery with the *entire* client stream so
    /// far; returns any new bytes to transmit (empty = nothing yet).
    fn on_data(&mut self, stream_so_far: &[u8]) -> Vec<u8>;
}

/// Blanket adapter: a closure `Fn(&[u8]) -> Option<Vec<u8>>` acts as a
/// one-shot request→response server (handy in tests).
pub struct OneShotServer<F>(pub F);

impl<F> ServerApp for OneShotServer<F>
where
    F: Fn(&[u8]) -> Option<Vec<u8>> + Clone + Send + 'static,
{
    fn new_session(&mut self) -> Box<dyn ServerSession> {
        Box::new(OneShotSession {
            f: self.0.clone(),
            done: false,
        })
    }
}

struct OneShotSession<F> {
    f: F,
    done: bool,
}

impl<F> ServerSession for OneShotSession<F>
where
    F: Fn(&[u8]) -> Option<Vec<u8>> + Send,
{
    fn on_data(&mut self, stream_so_far: &[u8]) -> Vec<u8> {
        if self.done {
            return Vec::new();
        }
        match (self.f)(stream_so_far) {
            Some(resp) => {
                self.done = true;
                resp
            }
            None => Vec::new(),
        }
    }
}

/// Final status of a client's exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Correct, unaltered response received — censorship evaded.
    Success,
    /// Connection torn down by a RST before completion.
    Reset,
    /// A block page (or corrupted content) was served.
    BlockPage,
    /// No (complete) response before the deadline — blackholed/stalled.
    Timeout,
    /// The client stack itself broke (e.g. SYN+ACK payload on Windows).
    StackBroken(BreakReason),
}

impl Outcome {
    /// Did the client get what it wanted?
    pub fn is_success(self) -> bool {
        self == Outcome::Success
    }
}

/// An unmodified client host.
pub struct ClientHost<A: ClientApp> {
    /// The application session.
    pub app: A,
    /// OS behavior profile.
    pub profile: OsProfile,
    addr: [u8; 4],
    base_port: u16,
    server: ([u8; 4], u16),
    isn_seed: u64,

    conn: Option<TcpConn>,
    attempt: u32,
    request_sent: bool,
    attempt_deadline: u64,
    next_syn_retx: u64,
    outcome: Option<Outcome>,

    /// Per-attempt deadline, microseconds (default 2 s).
    pub timeout_us: u64,
    /// SYN retransmission interval, microseconds (default 1 s).
    pub syn_retx_us: u64,

    /// INSTRUMENTATION (paper §5 follow-ups): add this to the sequence
    /// number of outgoing *data* packets. `-1` reproduces the
    /// desync-confirmation experiment. Default 0 (unmodified client).
    pub seq_adjust: i32,
    /// INSTRUMENTATION: drop outgoing RST packets (the "induced RST"
    /// ablation for Strategies 5/6). Default false.
    pub drop_own_rst: bool,
}

impl<A: ClientApp> ClientHost<A> {
    /// Build a client at `addr` targeting `server`, with deterministic
    /// per-attempt ISNs derived from `isn_seed`.
    pub fn new(
        app: A,
        profile: OsProfile,
        addr: [u8; 4],
        base_port: u16,
        server: ([u8; 4], u16),
        isn_seed: u64,
    ) -> Self {
        ClientHost {
            app,
            profile,
            addr,
            base_port,
            server,
            isn_seed,
            conn: None,
            attempt: 0,
            request_sent: false,
            attempt_deadline: 0,
            next_syn_retx: 0,
            outcome: None,
            timeout_us: 2_000_000,
            syn_retx_us: 1_000_000,
            seq_adjust: 0,
            drop_own_rst: false,
        }
    }

    /// The exchange's outcome (Timeout while still pending).
    pub fn outcome(&self) -> Outcome {
        self.outcome.unwrap_or(Outcome::Timeout)
    }

    /// Has the exchange concluded one way or another?
    pub fn finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// The connection currently in use, if any (tests/waterfalls).
    pub fn conn(&self) -> Option<&TcpConn> {
        self.conn.as_ref()
    }

    fn isn(&self, attempt: u32) -> u32 {
        (splitmix64(self.isn_seed ^ (u64::from(attempt) << 32)) >> 16) as u32
    }

    fn start_attempt(&mut self, now: u64, io: &mut Io) {
        let port = self.base_port.wrapping_add(self.attempt as u16);
        let mut conn = TcpConn::client(
            (self.addr, port),
            self.server,
            self.isn(self.attempt),
            self.profile,
        );
        let mut out = Vec::new();
        conn.open(&mut out);
        self.conn = Some(conn);
        self.request_sent = false;
        self.attempt_deadline = now + self.timeout_us;
        self.next_syn_retx = now + self.syn_retx_us;
        self.emit(out, io);
        io.wake_at(self.next_syn_retx.min(self.attempt_deadline));
    }

    fn emit(&mut self, out: Vec<Packet>, io: &mut Io) {
        for mut pkt in out {
            if self.drop_own_rst && pkt.flags().contains(TcpFlags::RST) {
                continue;
            }
            if self.seq_adjust != 0 && !pkt.payload.is_empty() {
                if let Some(tcp) = pkt.tcp_header_mut() {
                    tcp.seq = tcp.seq.wrapping_add(self.seq_adjust as u32);
                }
                pkt.finalize();
            }
            io.send(pkt);
        }
    }

    fn fail_or_retry(&mut self, failure: Outcome, now: u64, io: &mut Io) {
        if self.attempt + 1 < self.app.max_attempts() {
            self.attempt += 1;
            self.app.reset_for_retry();
            self.start_attempt(now, io);
        } else {
            self.outcome = Some(failure);
        }
    }

    /// Evaluate app/conn state after any packet or timer activity.
    fn settle(&mut self, now: u64, io: &mut Io) {
        if self.outcome.is_some() {
            return;
        }
        let Some(conn) = self.conn.as_mut() else {
            return;
        };

        // Pull freshly delivered bytes into the app.
        let data = conn.take_received();
        if !data.is_empty() {
            self.app.on_data(&data);
        }

        if self.app.satisfied() {
            self.outcome = Some(Outcome::Success);
            return;
        }
        if self.app.poisoned() {
            self.outcome = Some(Outcome::BlockPage);
            return;
        }

        // Send the request once the handshake completes.
        let established = conn.is_established();
        if established && !self.request_sent {
            self.request_sent = true;
            let request = self.app.request(self.attempt);
            if !request.is_empty() {
                let mut out = Vec::new();
                self.conn
                    .as_mut()
                    .expect("conn present")
                    .queue_data(&request, &mut out);
                self.emit(out, io);
            }
        }

        // Interactive protocols: drain whatever the app wants to say.
        if established {
            while let Some(bytes) = self.app.pending_output() {
                let mut out = Vec::new();
                self.conn
                    .as_mut()
                    .expect("conn present")
                    .queue_data(&bytes, &mut out);
                self.emit(out, io);
            }
        }

        // Handle breakage.
        let broken = self.conn.as_ref().and_then(|c| c.broken);
        match broken {
            Some(BreakReason::RstReceived) => self.fail_or_retry(Outcome::Reset, now, io),
            Some(reason @ BreakReason::SynAckPayload) => {
                self.outcome = Some(Outcome::StackBroken(reason));
            }
            None => {}
        }
    }
}

impl<A: ClientApp> Endpoint for ClientHost<A> {
    fn on_start(&mut self, now: u64, io: &mut Io) {
        self.start_attempt(now, io);
    }

    fn on_packet(&mut self, pkt: Packet, now: u64, io: &mut Io) {
        if self.outcome.is_some() {
            return;
        }
        // Unmodified stacks validate checksums; insertion packets with
        // corrupted checksums die here on EVERY operating system.
        if !pkt.checksums_ok() {
            return;
        }
        if let Some(conn) = self.conn.as_mut() {
            let mut out = Vec::new();
            conn.on_packet(&pkt, &mut out);
            self.emit(out, io);
        }
        self.settle(now, io);
    }

    fn on_wake(&mut self, now: u64, io: &mut Io) {
        if self.outcome.is_some() {
            return;
        }
        if now >= self.attempt_deadline {
            // Deadline: classify the stall.
            let failure = if self
                .conn
                .as_ref()
                .map(|c| c.broken.is_some())
                .unwrap_or(false)
            {
                Outcome::Reset
            } else {
                Outcome::Timeout
            };
            self.fail_or_retry(failure, now, io);
            return;
        }
        // Retransmission timer: SYN while connecting, unacked data
        // (or our sim-open SYN+ACK) afterwards.
        if now >= self.next_syn_retx {
            if let Some(conn) = self.conn.as_mut() {
                if conn.state == TcpState::SynSent
                    || conn.state == TcpState::SynRcvd
                    || conn.has_unacked()
                {
                    let mut out = Vec::new();
                    conn.retransmit_pending(&mut out);
                    self.emit(out, io);
                }
            }
            self.next_syn_retx = now + self.syn_retx_us;
        }
        io.wake_at(self.next_syn_retx.min(self.attempt_deadline));
        self.settle(now, io);
    }
}

/// A plain multi-connection server host.
pub struct ServerHost<A: ServerApp> {
    /// The application responder (session factory).
    pub app: A,
    addr: [u8; 4],
    port: u16,
    isn_seed: u64,
    conns: HashMap<([u8; 4], u16), ServerConn>,
}

struct ServerConn {
    conn: TcpConn,
    session: Box<dyn ServerSession>,
    request_buf: Vec<u8>,
    greeted: bool,
    responded: bool,
}

impl<A: ServerApp> ServerHost<A> {
    /// A server listening at `addr:port`.
    pub fn new(app: A, addr: [u8; 4], port: u16, isn_seed: u64) -> Self {
        ServerHost {
            app,
            addr,
            port,
            isn_seed,
            conns: HashMap::new(),
        }
    }

    /// Number of connections the server has seen.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Did any connection deliver a complete request and get a response?
    pub fn responded_any(&self) -> bool {
        self.conns.values().any(|c| c.responded)
    }
}

impl<A: ServerApp> Endpoint for ServerHost<A> {
    fn on_start(&mut self, _now: u64, _io: &mut Io) {}

    fn on_packet(&mut self, pkt: Packet, _now: u64, io: &mut Io) {
        if !pkt.checksums_ok() {
            return; // servers validate checksums too
        }
        let Some(tcp) = pkt.tcp_header() else { return };
        if tcp.dst_port != self.port {
            return;
        }
        let key = (pkt.ip.src, tcp.src_port);
        if !self.conns.contains_key(&key) {
            if !tcp.flags.is_syn() {
                return; // stray packet for an unknown connection
            }
            let isn = (splitmix64(
                self.isn_seed ^ u64::from(tcp.src_port) ^ ((self.conns.len() as u64) << 40),
            ) >> 16) as u32;
            let session = self.app.new_session();
            self.conns.insert(
                key,
                ServerConn {
                    conn: TcpConn::server((self.addr, self.port), isn, OsProfile::linux()),
                    session,
                    request_buf: Vec::new(),
                    greeted: false,
                    responded: false,
                },
            );
        }
        let entry = self.conns.get_mut(&key).expect("present");

        let mut out = Vec::new();
        entry.conn.on_packet(&pkt, &mut out);
        if entry.conn.is_established() && !entry.greeted {
            entry.greeted = true;
            let hello = entry.session.greeting();
            if !hello.is_empty() {
                entry.conn.queue_data(&hello, &mut out);
            }
        }
        let data = entry.conn.take_received();
        if !data.is_empty() || entry.conn.is_established() {
            if !data.is_empty() {
                entry.request_buf.extend_from_slice(&data);
            }
            let reply = entry.session.on_data(&entry.request_buf);
            if !reply.is_empty() {
                entry.responded = true;
                entry.conn.queue_data(&reply, &mut out);
            }
        }
        for pkt in out {
            io.send(pkt);
        }
        if entry.conn.has_unacked() {
            io.wake_at(_now + 700_000);
        }
    }

    fn on_wake(&mut self, now: u64, io: &mut Io) {
        let mut any_pending = false;
        for entry in self.conns.values_mut() {
            if entry.conn.has_unacked() {
                let mut out = Vec::new();
                entry.conn.retransmit_pending(&mut out);
                for pkt in out {
                    io.send(pkt);
                }
                any_pending = true;
            }
        }
        if any_pending {
            io.wake_at(now + 700_000);
        }
    }
}

// Boxed sessions plug directly into the hosts: `Box<dyn ClientApp>`
// and `Box<dyn ServerApp>` are themselves apps.
impl ClientApp for Box<dyn ClientApp> {
    fn request(&mut self, attempt: u32) -> Vec<u8> {
        (**self).request(attempt)
    }
    fn pending_output(&mut self) -> Option<Vec<u8>> {
        (**self).pending_output()
    }
    fn on_data(&mut self, data: &[u8]) {
        (**self).on_data(data)
    }
    fn satisfied(&self) -> bool {
        (**self).satisfied()
    }
    fn poisoned(&self) -> bool {
        (**self).poisoned()
    }
    fn max_attempts(&self) -> u32 {
        (**self).max_attempts()
    }
    fn reset_for_retry(&mut self) {
        (**self).reset_for_retry()
    }
}

impl ServerApp for Box<dyn ServerApp> {
    fn new_session(&mut self) -> Box<dyn ServerSession> {
        (**self).new_session()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use netsim::sim::NullMiddlebox;
    use netsim::Simulation;

    /// A toy echo-ish protocol: client sends a fixed line, server
    /// replies with a fixed banner once the full line arrived.
    struct ToyClient {
        got: Vec<u8>,
        attempts_allowed: u32,
        requests_made: u32,
    }

    impl ClientApp for ToyClient {
        fn request(&mut self, _attempt: u32) -> Vec<u8> {
            self.requests_made += 1;
            b"HELLO toy\r\n".to_vec()
        }
        fn on_data(&mut self, data: &[u8]) {
            self.got.extend_from_slice(data);
        }
        fn satisfied(&self) -> bool {
            self.got.ends_with(b"WORLD\r\n")
        }
        fn max_attempts(&self) -> u32 {
            self.attempts_allowed
        }
        fn reset_for_retry(&mut self) {
            self.got.clear();
        }
    }

    fn toy_server_app() -> OneShotServer<impl Fn(&[u8]) -> Option<Vec<u8>> + Clone> {
        // Strict like a real parser: a request shifted by one byte
        // (the seq_adjust experiment) must NOT be recognized.
        OneShotServer(|request: &[u8]| {
            (request.starts_with(b"HELLO") && request.windows(2).any(|w| w == b"\r\n"))
                .then(|| b"WORLD\r\n".to_vec())
        })
    }

    const CLIENT_ADDR: [u8; 4] = [10, 0, 0, 1];
    const SERVER_ADDR: [u8; 4] = [93, 184, 216, 34];

    fn toy_client(attempts: u32) -> ClientHost<ToyClient> {
        ClientHost::new(
            ToyClient {
                got: vec![],
                attempts_allowed: attempts,
                requests_made: 0,
            },
            OsProfile::linux(),
            CLIENT_ADDR,
            40000,
            (SERVER_ADDR, 7777),
            42,
        )
    }

    fn toy_server() -> ServerHost<impl ServerApp> {
        ServerHost::new(toy_server_app(), SERVER_ADDR, 7777, 99)
    }

    #[test]
    fn full_exchange_succeeds_without_censor() {
        let mut sim = Simulation::new(toy_client(1), toy_server(), NullMiddlebox);
        sim.run(10_000_000);
        assert_eq!(sim.client.outcome(), Outcome::Success);
        assert!(sim.server.responded_any());
    }

    #[test]
    fn rst_injection_fails_without_retries() {
        /// Injects a RST to the client as soon as client data crosses.
        struct RstOnData;
        impl netsim::Middlebox for RstOnData {
            fn process(
                &mut self,
                pkt: &Packet,
                dir: netsim::Direction,
                _now: u64,
            ) -> netsim::Verdict {
                let mut v = netsim::Verdict::pass(pkt.clone());
                if dir == netsim::Direction::ToServer && !pkt.payload.is_empty() {
                    let tcp = pkt.tcp_header().unwrap();
                    let mut rst = Packet::tcp(
                        pkt.ip.dst,
                        tcp.dst_port,
                        pkt.ip.src,
                        tcp.src_port,
                        TcpFlags::RST,
                        tcp.ack,
                        0,
                        vec![],
                    );
                    rst.finalize();
                    v.inject_to_client.push(rst);
                }
                v
            }
        }
        let mut sim = Simulation::new(toy_client(1), toy_server(), RstOnData);
        sim.run(30_000_000);
        assert_eq!(sim.client.outcome(), Outcome::Reset);
    }

    #[test]
    fn retries_open_new_connections_with_new_ports() {
        /// RSTs the first two connections, lets the third through.
        struct RstFirstTwo {
            seen_ports: std::collections::HashSet<u16>,
        }
        impl netsim::Middlebox for RstFirstTwo {
            fn process(
                &mut self,
                pkt: &Packet,
                dir: netsim::Direction,
                _now: u64,
            ) -> netsim::Verdict {
                let mut v = netsim::Verdict::pass(pkt.clone());
                if dir == netsim::Direction::ToServer && !pkt.payload.is_empty() {
                    let tcp = pkt.tcp_header().unwrap();
                    self.seen_ports.insert(tcp.src_port);
                    if self.seen_ports.len() <= 2 {
                        let mut rst = Packet::tcp(
                            pkt.ip.dst,
                            tcp.dst_port,
                            pkt.ip.src,
                            tcp.src_port,
                            TcpFlags::RST,
                            tcp.ack,
                            0,
                            vec![],
                        );
                        rst.finalize();
                        v.inject_to_client.push(rst);
                    }
                }
                v
            }
        }
        let mut sim = Simulation::new(
            toy_client(3),
            toy_server(),
            RstFirstTwo {
                seen_ports: Default::default(),
            },
        );
        sim.run(60_000_000);
        assert_eq!(sim.client.outcome(), Outcome::Success);
        assert_eq!(sim.client.app.requests_made, 3);
        assert!(sim.server.connection_count() >= 3);
    }

    #[test]
    fn blackhole_times_out() {
        /// Swallows all client data packets (Iran-style, simplified).
        struct Blackhole;
        impl netsim::Middlebox for Blackhole {
            fn process(
                &mut self,
                pkt: &Packet,
                dir: netsim::Direction,
                _now: u64,
            ) -> netsim::Verdict {
                if dir == netsim::Direction::ToServer && !pkt.payload.is_empty() {
                    netsim::Verdict::drop()
                } else {
                    netsim::Verdict::pass(pkt.clone())
                }
            }
        }
        let mut sim = Simulation::new(toy_client(1), toy_server(), Blackhole);
        sim.run(30_000_000);
        assert_eq!(sim.client.outcome(), Outcome::Timeout);
    }

    #[test]
    fn corrupted_checksum_packets_are_invisible_to_endpoints() {
        /// Injects a payload-bearing garbage packet with a broken
        /// checksum at handshake time; the client must shrug it off.
        struct BadChecksumInjector {
            done: bool,
        }
        impl netsim::Middlebox for BadChecksumInjector {
            fn process(
                &mut self,
                pkt: &Packet,
                dir: netsim::Direction,
                _now: u64,
            ) -> netsim::Verdict {
                let mut v = netsim::Verdict::pass(pkt.clone());
                if dir == netsim::Direction::ToClient && !self.done {
                    self.done = true;
                    let tcp = pkt.tcp_header().unwrap();
                    let mut junk = Packet::tcp(
                        pkt.ip.src,
                        tcp.src_port,
                        pkt.ip.dst,
                        tcp.dst_port,
                        TcpFlags::SYN_ACK,
                        tcp.seq,
                        tcp.ack,
                        b"JUNKJUNK".to_vec(),
                    );
                    junk.finalize();
                    junk.tcp_header_mut().unwrap().checksum ^= 0xFFFF;
                    v.inject_to_client.push(junk);
                }
                v
            }
        }
        // Even a Windows client (which would break on a SYN+ACK payload)
        // survives, because the checksum fails validation first.
        let mut client = toy_client(1);
        client.profile = OsProfile::windows();
        let mut sim = Simulation::new(client, toy_server(), BadChecksumInjector { done: false });
        sim.run(10_000_000);
        assert_eq!(sim.client.outcome(), Outcome::Success);
    }

    #[test]
    fn seq_adjust_desynchronizes_from_server() {
        let mut client = toy_client(1);
        client.seq_adjust = -1;
        let mut sim = Simulation::new(client, toy_server(), NullMiddlebox);
        sim.run(10_000_000);
        // The server can't reassemble the shifted request, so no
        // response ever comes: the client times out.
        assert_eq!(sim.client.outcome(), Outcome::Timeout);
        assert!(!sim.server.responded_any());
    }
}
