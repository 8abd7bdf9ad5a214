//! The socket front end: live frames in and out of the data plane.
//!
//! [`Bridge`] implements [`dplane::PacketIo`] over nonblocking
//! `std::net` sockets. The encapsulation is *frame-in-datagram*: every
//! UDP datagram carries exactly one raw IPv4 frame (the bytes
//! [`packet::Packet::serialize_raw`] would produce), and a TCP ingress
//! stream carries the same frames behind a 4-byte big-endian length
//! prefix. This keeps the front end deployable without privileges — no
//! raw sockets, no pcap, no tun device — while still moving the exact
//! bytes the evasion programs produce, deliberately broken checksums
//! included.
//!
//! Routing is learned, not configured: when a frame arrives, the
//! bridge remembers *inner source address → socket peer*. Emissions
//! whose inner destination matches a learned address go back to that
//! peer; everything else is forwarded to the configured upstream (the
//! protected origin server in a real deployment, the loopback echo
//! harness in tests). Because the origin's own frames teach the bridge
//! where the origin lives, a symmetric flow needs no static routes at
//! all.
//!
//! ## The event loop
//!
//! A single level-triggered epoll instance watches the UDP socket, the
//! TCP listener, every ingress connection, and a wakeup eventfd. UDP
//! ingress drains in ≤[`RECV_BATCH`]-frame `recvmmsg` batches into a
//! preallocated arena (no per-datagram allocation in the I/O layer),
//! UDP egress leaves in `sendmmsg` batches, and a full socket buffer
//! arms `EPOLLOUT` instead of sleeping. Idle waits block in
//! `epoll_wait` until traffic or a [`crate::sys::Waker`] kick. The
//! bridge is Linux-only.
//!
//! Egress is **queued**: `emit` serializes into a recycled buffer and
//! enqueues; the actual sends happen in `flush` (called by the data
//! plane at the end of every pump via [`dplane::PacketIo::flush`]).
//! A slow TCP peer accumulates into its per-connection write buffer
//! (bounded by [`TCP_EGRESS_CAP`]; beyond that the connection is
//! poisoned) rather than blocking the data thread.
//!
//! Timestamps handed to the data plane are microseconds from a
//! process-local monotonic epoch, so flow idle expiry sees real time.

use crate::sys;
use packet::Packet;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::time::Instant;

/// Largest encapsulated frame we accept (an IPv4 packet cannot exceed
/// 65535 bytes; the TCP framing rejects anything claiming more).
pub const MAX_FRAME: usize = 65_535;

/// Upper bound on concurrently tracked TCP ingress connections.
/// Learned peer routes index into the connection table, so closed
/// slots are retired in place rather than removed; the cap keeps a
/// connect-flood from growing the table without bound.
pub const MAX_CONNS: usize = 1024;

/// Datagrams per `recvmmsg`/`sendmmsg` batch.
pub const RECV_BATCH: usize = 64;

/// Cap on queued-but-unsent UDP egress frames; beyond this the newest
/// frame is dropped (counted unroutable), the same contract a full
/// NIC ring gives a real middlebox.
pub const UDP_EGRESS_CAP: usize = 16_384;

/// Cap on one TCP connection's unsent egress bytes. A peer slower
/// than this is poisoned (connection dropped) rather than allowed to
/// wedge the data thread's memory.
pub const TCP_EGRESS_CAP: usize = 64 * 1024 * 1024;

/// Upper edges of the `frames_per_batch` histogram buckets.
pub const FPB_BUCKET_EDGES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The socket backend. epoll is the only one; this one-variant enum,
/// [`BridgeConfig::backend`], and `cay serve --backend epoll` remain
/// only because the `ledger/` benchmark names them, and can go with
/// the benchmark's next change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// epoll + `recvmmsg`/`sendmmsg` + eventfd.
    #[default]
    Epoll,
}

impl BackendChoice {
    /// Parse an operator-facing name; `epoll` is the only one.
    pub fn parse(s: &str) -> Option<BackendChoice> {
        (s == "epoll").then_some(BackendChoice::Epoll)
    }
}

/// Where the bridge listens and where unroutable emissions go.
#[derive(Debug, Clone)]
pub struct BridgeConfig {
    /// UDP bind address for frame-in-datagram ingress/egress. Must be
    /// IPv4 (`sendmmsg` takes `sockaddr_in`).
    pub udp: SocketAddr,
    /// Optional TCP bind address for length-prefixed frame streams.
    pub tcp: Option<SocketAddr>,
    /// Default egress for emissions whose inner destination has no
    /// learned peer (typically the origin server's bridge).
    pub upstream: SocketAddr,
    /// Socket backend (see [`BackendChoice`]).
    pub backend: BackendChoice,
}

/// Counters the control plane folds into `/status`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BridgeStats {
    /// Frames decapsulated and queued for the data plane.
    pub frames_in: u64,
    /// Frames encapsulated and sent (UDP: handed to the kernel; TCP:
    /// appended to a live connection's write buffer).
    pub frames_out: u64,
    /// Datagrams / stream frames that did not parse as IPv4 packets.
    pub parse_errors: u64,
    /// Emissions dropped because no peer and no upstream would take
    /// them (send failure, closed connection, or egress cap).
    pub unroutable: u64,
    /// TCP ingress connections accepted.
    pub tcp_accepted: u64,
    /// Syscalls made by this bridge (via
    /// [`crate::sys::SyscallCounter`]).
    pub syscalls: u64,
    /// Ingress batches that delivered at least one frame.
    pub recv_batches: u64,
    /// Histogram of frames per ingress batch; bucket upper edges are
    /// [`FPB_BUCKET_EDGES`].
    pub frames_per_batch: [u64; 7],
    /// Egress attempts that hit a full socket buffer and were deferred
    /// to `EPOLLOUT`.
    pub egress_backpressure_events: u64,
}

impl BridgeStats {
    fn note_batch(&mut self, frames: usize) {
        if frames == 0 {
            return;
        }
        self.recv_batches += 1;
        let frames = frames as u64;
        let idx = FPB_BUCKET_EDGES
            .iter()
            .position(|&edge| frames <= edge)
            .unwrap_or(FPB_BUCKET_EDGES.len() - 1);
        self.frames_per_batch[idx] += 1;
    }
}

/// Which socket a learned inner address lives behind.
#[derive(Debug, Clone, Copy)]
enum Peer {
    /// A UDP peer at this socket address.
    Udp(SocketAddr),
    /// A TCP ingress connection, by index into `Bridge::conns`.
    Tcp(usize),
}

/// One TCP ingress connection with its reassembly and write buffers.
struct Conn {
    stream: Option<TcpStream>,
    rd: Vec<u8>,
    /// Unsent egress bytes (length-prefixed frames); `wr_pos` is the
    /// cursor of what the kernel has taken, so draining the front
    /// never memmoves.
    wr: Vec<u8>,
    wr_pos: usize,
    /// EPOLLOUT currently armed for this connection.
    out_armed: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.wr.len() - self.wr_pos
    }
}

/// Event tokens.
const TOKEN_UDP: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_WAKER: u64 = 2;
const TOKEN_CONN_BASE: u64 = 3;

/// A live socket [`dplane::PacketIo`]: `poll` drains the sockets into
/// an internal queue, `recv` hands queued frames to the data plane,
/// `emit` routes rewritten frames into the egress queues, and `flush`
/// pushes those queues to the kernel.
pub struct Bridge {
    udp: UdpSocket,
    tcp: Option<TcpListener>,
    conns: Vec<Conn>,
    peers: HashMap<[u8; 4], Peer>,
    upstream: SocketAddr,
    epoch: Instant,
    queue: VecDeque<(u64, Packet)>,
    /// Read buffer for TCP ingress.
    buf: Vec<u8>,
    /// Queued UDP egress: destination + serialized frame.
    udp_out: VecDeque<(SocketAddr, Vec<u8>)>,
    /// Recycled egress buffers (capacity survives the round trip).
    spare: Vec<Vec<u8>>,
    ctr: sys::SyscallCounter,
    waker: sys::Waker,
    ep: sys::Epoll,
    /// `recvmmsg` buffers, allocated once at bind.
    arena: sys::RecvArena,
    /// `sendmmsg` pointer vectors, reused every batch.
    scratch: sys::SendScratch,
    events: Vec<sys::Event>,
    /// EPOLLOUT currently armed on the UDP socket.
    udp_out_armed: bool,
    /// Live counters, exported via `/status`.
    pub stats: BridgeStats,
}

impl Bridge {
    /// Bind the front-end sockets (nonblocking) and register them with
    /// a fresh epoll instance. Port 0 works; the bound addresses are
    /// readable via [`Bridge::udp_addr`] / [`Bridge::tcp_addr`]. A
    /// non-IPv4 UDP bind is an error.
    pub fn bind(cfg: &BridgeConfig) -> io::Result<Bridge> {
        let udp = UdpSocket::bind(cfg.udp)?;
        if !udp.local_addr()?.is_ipv4() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the bridge requires an IPv4 UDP bind",
            ));
        }
        udp.set_nonblocking(true)?;
        let tcp = match cfg.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let ctr = sys::SyscallCounter::new();
        let ep = sys::Epoll::new(ctr.clone())?;
        ep.add(udp.as_raw_fd(), TOKEN_UDP, sys::EV_READ)?;
        if let Some(listener) = &tcp {
            ep.add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EV_READ)?;
        }
        Ok(Bridge {
            udp,
            tcp,
            conns: Vec::new(),
            peers: HashMap::new(),
            upstream: cfg.upstream,
            epoch: Instant::now(),
            queue: VecDeque::new(),
            buf: vec![0u8; MAX_FRAME],
            udp_out: VecDeque::new(),
            spare: Vec::new(),
            ctr,
            waker: sys::Waker::default(),
            ep,
            arena: sys::RecvArena::new(RECV_BATCH, MAX_FRAME),
            scratch: sys::SendScratch::new(),
            events: Vec::with_capacity(RECV_BATCH),
            udp_out_armed: false,
            stats: BridgeStats::default(),
        })
    }

    /// Resize the `recvmmsg` arena (frames per batch). `cay bench` uses
    /// this to sweep batch sizes.
    pub fn set_recv_batch(&mut self, batch: usize) {
        self.arena = sys::RecvArena::new(batch.clamp(1, RECV_BATCH), MAX_FRAME);
    }

    /// Attach a wakeup handle: [`crate::sys::Waker::wake`] from any
    /// thread interrupts a blocked [`Bridge::wait`]. Fails when the
    /// waker has no eventfd.
    pub fn attach_waker(&mut self, waker: sys::Waker) -> io::Result<()> {
        self.ep.add(waker.fd()?, TOKEN_WAKER, sys::EV_READ)?;
        self.waker = waker;
        Ok(())
    }

    /// The bound UDP address (resolves port 0).
    pub fn udp_addr(&self) -> io::Result<SocketAddr> {
        self.udp.local_addr()
    }

    /// The bound TCP address, if a TCP listener was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Microseconds since the bridge was bound — the data plane's
    /// clock, so flow idle expiry tracks real time.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Frames queued but not yet pulled by the data plane.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Egress frames queued but not yet handed to the kernel.
    pub fn pending_out(&self) -> usize {
        self.udp_out.len() + self.conns.iter().map(Conn::pending_out).sum::<usize>()
    }

    /// Drain every readable socket into the frame queue and push any
    /// queued egress. Returns how many frames were queued (0 means the
    /// sockets were idle).
    pub fn poll(&mut self) -> usize {
        self.wait(0)
    }

    /// Idle wait: block until traffic, a waker kick, or `timeout_ms`.
    /// Anything that arrived is already dispatched into the queues when
    /// this returns. Returns frames queued.
    pub fn wait(&mut self, timeout_ms: i32) -> usize {
        let queued = self.dispatch(timeout_ms);
        self.flush_egress();
        self.stats.syscalls = self.ctr.get();
        queued
    }

    /// One dispatch pass: wait up to `timeout_ms` and service every
    /// returned event.
    fn dispatch(&mut self, timeout_ms: i32) -> usize {
        let mut queued = 0;
        self.events.clear();
        if self.ep.wait(&mut self.events, timeout_ms).is_err() {
            return 0;
        }
        for i in 0..self.events.len() {
            let ev = self.events[i];
            match ev.token {
                TOKEN_UDP => {
                    if ev.readable() {
                        queued += self.drain_udp();
                    }
                    if ev.writable() {
                        self.flush_udp();
                    }
                }
                TOKEN_LISTENER => self.accept_tcp(),
                TOKEN_WAKER => self.waker.drain(),
                token => {
                    let idx = usize::try_from(token - TOKEN_CONN_BASE).unwrap_or(usize::MAX);
                    if idx < self.conns.len() {
                        if ev.readable() {
                            queued += self.read_conn(idx);
                        }
                        if ev.writable() {
                            let blocked = self.flush_conn(idx);
                            self.arm_conn(idx, blocked);
                        }
                    }
                }
            }
        }
        queued
    }

    /// Drain the UDP socket in recvmmsg batches until it reports
    /// empty (a short batch means the kernel queue is drained).
    fn drain_udp(&mut self) -> usize {
        let mut queued = 0;
        while let Ok(n) = sys::recv_batch(self.udp.as_raw_fd(), &mut self.arena, &self.ctr) {
            self.stats.note_batch(n);
            let now = self.now_us();
            for (bytes, from) in self.arena.frames() {
                match Packet::parse(bytes) {
                    Ok(pkt) => {
                        self.peers.insert(pkt.ip.src, Peer::Udp(from));
                        self.queue.push_back((now, pkt));
                        self.stats.frames_in += 1;
                        queued += 1;
                    }
                    Err(_) => self.stats.parse_errors += 1,
                }
            }
            if n < self.arena.batch() {
                break;
            }
        }
        queued
    }

    /// Accept every pending connection and register it with epoll.
    fn accept_tcp(&mut self) {
        let Some(listener) = &self.tcp else { return };
        loop {
            self.ctr.bump();
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.tcp_accepted += 1;
                    let token = TOKEN_CONN_BASE + self.conns.len() as u64;
                    if self.conns.len() >= MAX_CONNS
                        || stream.set_nonblocking(true).is_err()
                        || self
                            .ep
                            .add(stream.as_raw_fd(), token, sys::EV_READ)
                            .is_err()
                    {
                        // Drop it: over cap (or unusable). The peer sees
                        // a closed connection and can retry later.
                        continue;
                    }
                    self.conns.push(Conn {
                        stream: Some(stream),
                        rd: Vec::new(),
                        wr: Vec::new(),
                        wr_pos: 0,
                        out_armed: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Drain one connection's read side, then extract frames. Closing
    /// the stream drops its fd, which also deregisters it from any
    /// epoll watching it.
    fn read_conn(&mut self, idx: usize) -> usize {
        let mut closed = false;
        {
            let Bridge {
                conns, buf, ctr, ..
            } = self;
            let conn = &mut conns[idx];
            if let Some(stream) = &mut conn.stream {
                loop {
                    ctr.bump();
                    match stream.read(buf) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => conn.rd.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
            }
        }
        let queued = self.extract_frames(idx);
        if closed {
            self.conns[idx].stream = None;
        }
        queued
    }

    /// Pull complete `len:u32be ++ frame` records out of a connection's
    /// reassembly buffer.
    fn extract_frames(&mut self, idx: usize) -> usize {
        let mut queued = 0;
        loop {
            let rd = &self.conns[idx].rd;
            if rd.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([rd[0], rd[1], rd[2], rd[3]]) as usize;
            if len == 0 || len > MAX_FRAME {
                // Corrupt framing: poison the connection.
                self.stats.parse_errors += 1;
                self.conns[idx].rd.clear();
                self.conns[idx].stream = None;
                break;
            }
            if rd.len() < 4 + len {
                break;
            }
            let frame: Vec<u8> = rd[4..4 + len].to_vec();
            self.conns[idx].rd.drain(..4 + len);
            let now = self.now_us();
            match Packet::parse(&frame) {
                Ok(pkt) => {
                    self.peers.insert(pkt.ip.src, Peer::Tcp(idx));
                    self.queue.push_back((now, pkt));
                    self.stats.frames_in += 1;
                    queued += 1;
                }
                Err(_) => self.stats.parse_errors += 1,
            }
        }
        queued
    }

    /// Route one serialized frame into the egress queues. UDP frames
    /// are counted `frames_out` when the kernel takes them; TCP frames
    /// when they enter a live connection's write buffer.
    fn route_frame(&mut self, dst: [u8; 4], bytes: Vec<u8>) {
        match self.peers.get(&dst).copied() {
            Some(Peer::Udp(addr)) => self.queue_udp(addr, bytes),
            Some(Peer::Tcp(idx)) => {
                self.queue_tcp(idx, &bytes);
                self.recycle(bytes);
            }
            None => {
                let upstream = self.upstream;
                self.queue_udp(upstream, bytes);
            }
        }
    }

    fn queue_udp(&mut self, addr: SocketAddr, bytes: Vec<u8>) {
        if self.udp_out.len() >= UDP_EGRESS_CAP {
            self.stats.unroutable += 1;
            self.recycle(bytes);
            return;
        }
        self.udp_out.push_back((addr, bytes));
    }

    fn queue_tcp(&mut self, idx: usize, bytes: &[u8]) {
        let conn = &mut self.conns[idx];
        if conn.stream.is_none() {
            self.stats.unroutable += 1;
            return;
        }
        if conn.pending_out() + 4 + bytes.len() > TCP_EGRESS_CAP {
            // Slower than the cap allows: poison the connection rather
            // than buffer without bound.
            conn.stream = None;
            conn.wr.clear();
            conn.wr_pos = 0;
            self.stats.unroutable += 1;
            return;
        }
        conn.wr
            .extend_from_slice(&(u32::try_from(bytes.len()).unwrap_or(0)).to_be_bytes());
        conn.wr.extend_from_slice(bytes);
        self.stats.frames_out += 1;
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < RECV_BATCH * 2 {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// Push every egress queue toward the kernel; what the socket
    /// buffers refuse stays queued behind an armed EPOLLOUT.
    fn flush_egress(&mut self) {
        self.flush_udp();
        for idx in 0..self.conns.len() {
            if self.conns[idx].pending_out() > 0 {
                let blocked = self.flush_conn(idx);
                self.arm_conn(idx, blocked);
            }
        }
    }

    /// sendmmsg the UDP egress queue; a refused batch arms EPOLLOUT so
    /// the event loop resumes exactly when the socket drains.
    fn flush_udp(&mut self) {
        while !self.udp_out.is_empty() {
            // Drop non-IPv4 destinations (the socket is bound IPv4-only,
            // so these cannot be delivered).
            while let Some((SocketAddr::V6(_), _)) = self.udp_out.front() {
                if let Some((_, bytes)) = self.udp_out.pop_front() {
                    self.stats.unroutable += 1;
                    self.recycle(bytes);
                }
            }
            if self.udp_out.is_empty() {
                break;
            }
            let batch: Vec<(std::net::SocketAddrV4, &[u8])> = self
                .udp_out
                .iter()
                .take(RECV_BATCH)
                .map_while(|(addr, bytes)| match addr {
                    SocketAddr::V4(v4) => Some((*v4, bytes.as_slice())),
                    SocketAddr::V6(_) => None,
                })
                .collect();
            let want = batch.len();
            let sent =
                match sys::send_batch(self.udp.as_raw_fd(), &mut self.scratch, &batch, &self.ctr) {
                    Ok(n) => n,
                    Err(_) => {
                        // Hard send error: drop the head frame and
                        // keep going.
                        if let Some((_, bytes)) = self.udp_out.pop_front() {
                            self.stats.unroutable += 1;
                            self.recycle(bytes);
                        }
                        continue;
                    }
                };
            self.stats.frames_out += sent as u64;
            for _ in 0..sent {
                if let Some((_, bytes)) = self.udp_out.pop_front() {
                    self.recycle(bytes);
                }
            }
            if sent < want {
                // Socket buffer full: defer the rest to EPOLLOUT.
                self.stats.egress_backpressure_events += 1;
                if !self.udp_out_armed {
                    let _ = self.ep.modify(
                        self.udp.as_raw_fd(),
                        TOKEN_UDP,
                        sys::EV_READ | sys::EV_WRITE,
                    );
                    self.udp_out_armed = true;
                }
                return;
            }
        }
        if self.udp_out_armed {
            let _ = self
                .ep
                .modify(self.udp.as_raw_fd(), TOKEN_UDP, sys::EV_READ);
            self.udp_out_armed = false;
        }
    }

    /// Write one connection's buffered egress; returns true when the
    /// kernel refused bytes (`WouldBlock`) and some remain queued.
    fn flush_conn(&mut self, idx: usize) -> bool {
        let Bridge {
            conns, ctr, stats, ..
        } = self;
        let conn = &mut conns[idx];
        let Some(stream) = &mut conn.stream else {
            conn.wr.clear();
            conn.wr_pos = 0;
            return false;
        };
        let mut blocked = false;
        let mut dead = false;
        while conn.wr_pos < conn.wr.len() {
            ctr.bump();
            match stream.write(&conn.wr[conn.wr_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => conn.wr_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    blocked = true;
                    stats.egress_backpressure_events += 1;
                    break;
                }
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            conn.stream = None;
        }
        if conn.stream.is_none() || conn.wr_pos >= conn.wr.len() {
            conn.wr.clear();
            conn.wr_pos = 0;
        }
        blocked
    }

    /// Arm (or disarm) EPOLLOUT for one connection after a flush.
    fn arm_conn(&mut self, idx: usize, blocked: bool) {
        let conn = &mut self.conns[idx];
        let token = TOKEN_CONN_BASE + idx as u64;
        let Some(stream) = &conn.stream else { return };
        if blocked && !conn.out_armed {
            if self
                .ep
                .modify(stream.as_raw_fd(), token, sys::EV_READ | sys::EV_WRITE)
                .is_ok()
            {
                conn.out_armed = true;
            }
        } else if !blocked
            && conn.out_armed
            && self
                .ep
                .modify(stream.as_raw_fd(), token, sys::EV_READ)
                .is_ok()
        {
            conn.out_armed = false;
        }
    }
}

impl dplane::PacketIo for Bridge {
    fn recv(&mut self) -> Option<(u64, Packet)> {
        self.queue.pop_front()
    }

    fn emit(&mut self, _now: u64, pkt: Packet) {
        // `serialize_raw`: the program's deliberately broken checksums
        // and lengths must reach the wire verbatim — recomputing them
        // here would undo the evasion.
        let mut bytes = self.spare.pop().unwrap_or_default();
        bytes.clear();
        pkt.serialize_raw_into(&mut bytes);
        self.route_frame(pkt.ip.dst, bytes);
    }

    fn flush(&mut self) {
        self.flush_egress();
        self.stats.syscalls = self.ctr.get();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use dplane::PacketIo;
    use packet::TcpFlags;

    fn frame(src: [u8; 4], dst: [u8; 4]) -> Packet {
        let mut p = Packet::tcp(src, 40000, dst, 80, TcpFlags::SYN, 1, 0, vec![]);
        p.finalize();
        p
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn bind(tcp: bool, upstream: SocketAddr) -> Bridge {
        Bridge::bind(&BridgeConfig {
            udp: loopback(),
            tcp: tcp.then(loopback),
            upstream,
            backend: BackendChoice::Epoll,
        })
        .unwrap()
    }

    #[test]
    fn udp_round_trip_learns_peers() {
        let mut bridge = bind(false, loopback());
        let baddr = bridge.udp_addr().unwrap();
        let client = UdpSocket::bind(loopback()).unwrap();
        let pkt = frame([10, 7, 0, 2], [93, 184, 216, 34]);
        client.send_to(&pkt.serialize_raw(), baddr).unwrap();
        // Nonblocking poll loop: wait for the datagram to land.
        let mut got = 0;
        for _ in 0..200 {
            got = bridge.poll();
            if got > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, 1);
        let (_, rx) = bridge.recv().unwrap();
        assert_eq!(rx.serialize_raw(), pkt.serialize_raw());
        // Emitting toward the learned inner address routes back to
        // the client's socket once flushed.
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let reply = frame([93, 184, 216, 34], [10, 7, 0, 2]);
        bridge.emit(0, reply.clone());
        bridge.flush();
        let mut buf = [0u8; MAX_FRAME];
        let (n, _) = client.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], reply.serialize_raw().as_slice());
        assert_eq!(bridge.stats.frames_in, 1);
        assert_eq!(bridge.stats.frames_out, 1);
        assert!(bridge.stats.recv_batches >= 1);
        assert!(bridge.stats.syscalls > 0);
    }

    #[test]
    fn unknown_destination_goes_upstream() {
        let upstream = UdpSocket::bind(loopback()).unwrap();
        upstream
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let mut bridge = bind(false, upstream.local_addr().unwrap());
        let pkt = frame([10, 7, 0, 2], [93, 184, 216, 34]);
        bridge.emit(0, pkt.clone());
        bridge.flush();
        let mut buf = [0u8; MAX_FRAME];
        let (n, _) = upstream.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], pkt.serialize_raw().as_slice());
    }

    #[test]
    fn tcp_ingress_reassembles_length_prefixed_frames() {
        let mut bridge = bind(true, loopback());
        let taddr = bridge.tcp_addr().unwrap();
        let mut client = TcpStream::connect(taddr).unwrap();
        let pkt = frame([10, 91, 0, 9], [93, 184, 216, 34]);
        let bytes = pkt.serialize_raw();
        let mut msg = (u32::try_from(bytes.len()).unwrap()).to_be_bytes().to_vec();
        msg.extend_from_slice(&bytes);
        // Split the write mid-frame to exercise reassembly.
        client.write_all(&msg[..7]).unwrap();
        client.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        bridge.poll();
        assert_eq!(bridge.pending(), 0, "half a frame must not parse");
        client.write_all(&msg[7..]).unwrap();
        client.flush().unwrap();
        let mut got = 0;
        for _ in 0..200 {
            got = bridge.poll();
            if got > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, 1);
        let (_, rx) = bridge.recv().unwrap();
        assert_eq!(rx.serialize_raw(), bytes);
        // The reply routes back over the same TCP connection.
        let reply = frame([93, 184, 216, 34], [10, 91, 0, 9]);
        bridge.emit(0, reply.clone());
        bridge.flush();
        let mut hdr = [0u8; 4];
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        client.read_exact(&mut hdr).unwrap();
        let len = u32::from_be_bytes(hdr) as usize;
        let mut body = vec![0u8; len];
        client.read_exact(&mut body).unwrap();
        assert_eq!(body, reply.serialize_raw());
    }

    #[test]
    fn garbage_datagrams_count_parse_errors() {
        let mut bridge = bind(false, loopback());
        let baddr = bridge.udp_addr().unwrap();
        let client = UdpSocket::bind(loopback()).unwrap();
        client.send_to(b"not an ipv4 frame", baddr).unwrap();
        for _ in 0..200 {
            bridge.poll();
            if bridge.stats.parse_errors > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(bridge.stats.parse_errors, 1);
        assert_eq!(bridge.pending(), 0);
    }

    #[test]
    fn batched_ingress_fills_histogram_buckets() {
        let mut bridge = bind(false, loopback());
        let baddr = bridge.udp_addr().unwrap();
        let client = UdpSocket::bind(loopback()).unwrap();
        let pkt = frame([10, 7, 0, 3], [93, 184, 216, 34]);
        let bytes = pkt.serialize_raw();
        for _ in 0..32 {
            client.send_to(&bytes, baddr).unwrap();
        }
        let mut total = 0;
        for _ in 0..400 {
            total += bridge.poll();
            if total >= 32 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(total, 32);
        assert!(bridge.stats.recv_batches >= 1);
        // Far fewer batches than frames — the whole point.
        assert!(bridge.stats.recv_batches <= 32);
        let histogram_total: u64 = bridge.stats.frames_per_batch.iter().sum();
        assert_eq!(histogram_total, bridge.stats.recv_batches);
    }

    #[test]
    fn waker_interrupts_blocked_wait() {
        let mut bridge = bind(false, loopback());
        let waker = sys::Waker::new();
        bridge.attach_waker(waker.clone()).unwrap();
        let t0 = Instant::now();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            waker.wake();
        });
        // Blocks far short of the 5s timeout because the waker fires.
        bridge.wait(5_000);
        assert!(t0.elapsed() < std::time::Duration::from_secs(2));
    }
}
