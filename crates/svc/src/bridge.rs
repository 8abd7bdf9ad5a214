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
//! all. The learned table is bounded: it keeps two generations of at
//! most `ROUTE_CAP` addresses, so any address learned within the last
//! `ROUTE_CAP` distinct learnings routes back to its peer, at most
//! `2 × ROUTE_CAP` addresses are held whatever the peers send, and an
//! address that has aged out goes upstream like any unknown one.
//!
//! ## The event loop
//!
//! A single level-triggered epoll instance watches the UDP socket, the
//! TCP listener, every ingress connection, and a wakeup eventfd. UDP
//! ingress drains in ≤[`RECV_BATCH`]-frame `recvmmsg` batches into a
//! preallocated arena (no per-datagram allocation in the I/O layer),
//! UDP egress leaves in `sendmmsg` batches, and a full socket buffer
//! arms `EPOLLOUT` instead of sleeping. Within a batch, each run of
//! consecutive frames to one destination that share one length (the
//! last may be shorter) goes out as one `UDP_SEGMENT` message, which
//! the kernel cuts back into the identical datagrams in order; if the
//! kernel refuses segmentation, the bridge resends plain datagrams and
//! stops segmenting for good. Idle waits block in
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
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::time::Instant;

/// Largest encapsulated frame we accept (an IPv4 packet cannot exceed
/// 65535 bytes; the TCP framing rejects anything claiming more).
pub const MAX_FRAME: usize = 65_535;

/// Bytes read from one TCP connection per dispatch. A peer that keeps
/// its socket full would otherwise hold the data thread (and grow the
/// ingress queue) for as long as it keeps writing; the epoll is
/// level-triggered, so whatever the budget leaves unread is reported
/// again on the next wait.
const TCP_READ_BUDGET: usize = 4 * MAX_FRAME;

/// Upper bound on concurrently open TCP ingress connections. A new
/// connection takes the first closed slot of the connection table, so
/// the cap keeps a connect-flood from growing the table without bound.
pub const MAX_CONNS: usize = 1024;

/// Addresses per generation of learned routes (see [`Routes`]): the
/// flow table's default capacity.
const ROUTE_CAP: usize = dplane::flow::DEFAULT_CAPACITY;

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
    /// learned peer (typically the origin server's bridge). Must be
    /// IPv4, like the UDP socket it is sent from.
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
    /// TCP ingress connections accepted and kept (not over the cap).
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
    /// Segmented (`UDP_SEGMENT`) `sendmmsg` entries the kernel took.
    pub gso_sends: u64,
    /// Datagrams inside those segmented entries.
    pub gso_frames: u64,
    /// 1 once the kernel refused segmentation and the bridge fell back
    /// to one message per datagram; 0 otherwise.
    pub gso_fallbacks: u64,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    /// A UDP peer at this socket address (the socket is IPv4-only).
    Udp(SocketAddrV4),
    /// A TCP ingress connection: its slot in `Bridge::conns` and the
    /// slot's generation when learned, so a route to a closed
    /// connection never reaches the slot's next occupant.
    Tcp { slot: u16, generation: u32 },
}

/// Learned `inner source address → peer` routes in two generations of
/// at most [`ROUTE_CAP`] addresses. Learning writes to `young`; a full
/// `young` becomes `old` and the previous `old` is dropped (its
/// allocation reused for the new `young`). At the first rollover there
/// is no such allocation yet, so the new `young` is reserved to
/// `ROUTE_CAP` at once instead of doubling its way there; from then on
/// the two maps trade places and neither resizes. Lookups try `young`,
/// then `old`, so an address learned within the last `ROUTE_CAP` distinct
/// learnings always resolves, and the table never holds more than
/// `2 × ROUTE_CAP` addresses. The maps keep the default keyed hasher:
/// a peer picks every key, so an unkeyed hash would let it craft
/// colliding addresses.
#[derive(Default)]
struct Routes {
    young: HashMap<[u8; 4], Peer>,
    old: HashMap<[u8; 4], Peer>,
}

impl Routes {
    /// Route `addr` to `peer` from now on.
    fn learn(&mut self, addr: [u8; 4], peer: Peer) {
        if self.young.len() >= ROUTE_CAP && !self.young.contains_key(&addr) {
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
            // Allocates at the first rollover only.
            self.young.reserve(ROUTE_CAP);
        }
        self.young.insert(addr, peer);
    }

    /// The peer `addr` was last learned behind, if it is still held.
    fn get(&self, addr: &[u8; 4]) -> Option<Peer> {
        self.young.get(addr).or_else(|| self.old.get(addr)).copied()
    }
}

/// One TCP ingress connection slot with its reassembly and write
/// buffers; a closed slot (`stream` is `None`) takes the next one.
#[derive(Default)]
struct Conn {
    stream: Option<TcpStream>,
    /// Bumped by each new connection; a slot at `u32::MAX` is never
    /// reused, so no route outlives its connection.
    generation: u32,
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

    /// Close the connection (dropping its fd also deregisters it from
    /// the epoll) and free its buffers.
    fn close(&mut self) {
        *self = Conn {
            generation: self.generation,
            ..Conn::default()
        };
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
    peers: Routes,
    upstream: SocketAddrV4,
    epoch: Instant,
    queue: VecDeque<(u64, Packet)>,
    /// Read buffer for TCP ingress; empty without a TCP listener.
    buf: Vec<u8>,
    /// Queued UDP egress: destination + serialized frame.
    udp_out: VecDeque<(SocketAddrV4, Vec<u8>)>,
    /// Recycled egress buffers (capacity survives the round trip).
    spare: Vec<Vec<u8>>,
    ctr: sys::SyscallCounter,
    waker: sys::Waker,
    ep: sys::Epoll,
    /// `recvmmsg` buffers, reserved at bind and resident where
    /// datagrams land.
    arena: sys::RecvArena,
    /// `sendmmsg` vectors, reused every batch.
    scratch: sys::SendScratch,
    /// Send same-destination runs as `UDP_SEGMENT` messages; cleared
    /// for good when the kernel refuses one.
    segment: bool,
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
    /// non-IPv4 UDP bind or upstream is an error.
    pub fn bind(cfg: &BridgeConfig) -> io::Result<Bridge> {
        let (SocketAddr::V4(_), SocketAddr::V4(upstream)) = (cfg.udp, cfg.upstream) else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the bridge requires an IPv4 UDP bind and upstream",
            ));
        };
        let udp = UdpSocket::bind(cfg.udp)?;
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
        // Only a TCP listener's connections are ever read into `buf`.
        let buf = match tcp {
            Some(_) => vec![0u8; MAX_FRAME],
            None => Vec::new(),
        };
        Ok(Bridge {
            udp,
            tcp,
            conns: Vec::new(),
            peers: Routes::default(),
            upstream,
            epoch: Instant::now(),
            queue: VecDeque::new(),
            buf,
            udp_out: VecDeque::new(),
            spare: Vec::new(),
            ctr,
            waker: sys::Waker::default(),
            ep,
            arena: sys::RecvArena::new(RECV_BATCH, MAX_FRAME),
            scratch: sys::SendScratch::new(),
            segment: true,
            events: Vec::with_capacity(RECV_BATCH),
            udp_out_armed: false,
            stats: BridgeStats::default(),
        })
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

    /// Block until traffic, a waker kick, or `timeout_ms`, then push
    /// any queued egress. Returns at once when a socket is already
    /// ready, and anything that arrived is dispatched into the queues
    /// when this returns. Returns frames queued.
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
                        self.peers.learn(pkt.ip.src, Peer::Udp(from));
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

    /// Accept every pending connection into the first reusable closed
    /// slot, or a new one below [`MAX_CONNS`], and register it.
    fn accept_tcp(&mut self) {
        let Some(listener) = &self.tcp else { return };
        loop {
            self.ctr.bump();
            let Ok((stream, _)) = listener.accept() else {
                break;
            };
            let idx = self
                .conns
                .iter()
                .position(|c| c.stream.is_none() && c.generation < u32::MAX)
                .unwrap_or(self.conns.len());
            let token = TOKEN_CONN_BASE + idx as u64;
            if idx >= MAX_CONNS
                || stream.set_nonblocking(true).is_err()
                || self
                    .ep
                    .add(stream.as_raw_fd(), token, sys::EV_READ)
                    .is_err()
            {
                // Drop it: over cap (or unusable). The peer sees a
                // closed connection and can retry later.
                continue;
            }
            self.stats.tcp_accepted += 1;
            if idx == self.conns.len() {
                self.conns.push(Conn::default());
            }
            let conn = &mut self.conns[idx];
            conn.stream = Some(stream);
            conn.generation += 1;
        }
    }

    /// Read up to [`TCP_READ_BUDGET`] bytes from one connection,
    /// extracting frames after every read so the reassembly buffer
    /// never holds more than one read plus one partial frame. Closing
    /// the stream drops its fd, which also deregisters it from any
    /// epoll watching it.
    fn read_conn(&mut self, idx: usize) -> usize {
        let mut queued = 0;
        let mut budget = TCP_READ_BUDGET;
        while budget > 0 {
            let Bridge {
                conns, buf, ctr, ..
            } = self;
            let conn = &mut conns[idx];
            let Some(stream) = &mut conn.stream else {
                break;
            };
            ctr.bump();
            let want = budget.min(buf.len());
            match stream.read(&mut buf[..want]) {
                Ok(0) => {}
                Ok(n) => {
                    budget -= n;
                    conn.rd.extend_from_slice(&buf[..n]);
                    queued += self.extract_frames(idx);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {}
            }
            // End of stream or a read error.
            self.conns[idx].close();
            break;
        }
        queued
    }

    /// Queue every complete `len:u32be ++ frame` record in a
    /// connection's reassembly buffer, parsing in place behind a
    /// cursor, then drop the consumed bytes with one drain.
    fn extract_frames(&mut self, idx: usize) -> usize {
        let now = self.now_us();
        let slot = u16::try_from(idx).expect("connection index below MAX_CONNS");
        let Bridge {
            conns,
            peers,
            queue,
            stats,
            ..
        } = self;
        let conn = &mut conns[idx];
        let mut queued = 0;
        let mut pos = 0;
        while let Some(&[a, b, c, d]) = conn.rd.get(pos..pos + 4) {
            let len = u32::from_be_bytes([a, b, c, d]) as usize;
            if len == 0 || len > MAX_FRAME {
                // Corrupt framing: poison the connection.
                stats.parse_errors += 1;
                conn.close();
                return queued;
            }
            let Some(frame) = conn.rd.get(pos + 4..pos + 4 + len) else {
                break;
            };
            match Packet::parse(frame) {
                Ok(pkt) => {
                    let generation = conn.generation;
                    peers.learn(pkt.ip.src, Peer::Tcp { slot, generation });
                    queue.push_back((now, pkt));
                    stats.frames_in += 1;
                    queued += 1;
                }
                Err(_) => stats.parse_errors += 1,
            }
            pos += 4 + len;
        }
        conn.rd.drain(..pos);
        queued
    }

    /// Route one serialized frame into the egress queues. UDP frames
    /// are counted `frames_out` when the kernel takes them; TCP frames
    /// when they enter a live connection's write buffer.
    fn route_frame(&mut self, dst: [u8; 4], bytes: Vec<u8>) {
        match self.peers.get(&dst) {
            Some(Peer::Udp(addr)) => self.queue_udp(addr, bytes),
            Some(Peer::Tcp { slot, generation }) => {
                self.queue_tcp(usize::from(slot), generation, &bytes);
                self.recycle(bytes);
            }
            None => self.queue_udp(self.upstream, bytes),
        }
    }

    fn queue_udp(&mut self, addr: SocketAddrV4, bytes: Vec<u8>) {
        if self.udp_out.len() >= UDP_EGRESS_CAP {
            self.stats.unroutable += 1;
            self.recycle(bytes);
            return;
        }
        self.udp_out.push_back((addr, bytes));
    }

    /// Append one frame to slot `idx`'s buffer if `generation` is open.
    fn queue_tcp(&mut self, idx: usize, generation: u32, bytes: &[u8]) {
        let conn = &mut self.conns[idx];
        if conn.stream.is_none() || conn.generation != generation {
            self.stats.unroutable += 1;
            return;
        }
        if conn.pending_out() + 4 + bytes.len() > TCP_EGRESS_CAP {
            // Slower than the cap allows: poison the connection rather
            // than buffer without bound.
            conn.close();
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

    /// sendmmsg the UDP egress queue, up to [`RECV_BATCH`] frames per
    /// call in segmented runs; a refused batch arms EPOLLOUT so the
    /// event loop resumes exactly when the socket drains.
    fn flush_udp(&mut self) {
        while !self.udp_out.is_empty() {
            let window = self
                .udp_out
                .iter()
                .take(RECV_BATCH)
                .map(|(addr, bytes)| (*addr, bytes.as_slice()));
            let sent = match sys::send_frames(
                self.udp.as_raw_fd(),
                &mut self.scratch,
                window,
                self.segment,
                &self.ctr,
            ) {
                Ok(sent) => sent,
                Err(sys::SendError::SegmentationRefused) => {
                    // Nothing was sent: resend the same frames as plain
                    // datagrams, and never segment on this socket again.
                    self.segment = false;
                    self.stats.gso_fallbacks = 1;
                    continue;
                }
                Err(sys::SendError::Io(_)) => {
                    // Hard send error: drop the head frame and keep
                    // going.
                    if let Some((_, bytes)) = self.udp_out.pop_front() {
                        self.stats.unroutable += 1;
                        self.recycle(bytes);
                    }
                    continue;
                }
            };
            self.stats.frames_out += sent.frames as u64;
            self.stats.gso_sends += sent.gso_sends;
            self.stats.gso_frames += sent.gso_frames;
            for _ in 0..sent.frames {
                if let Some((_, bytes)) = self.udp_out.pop_front() {
                    self.recycle(bytes);
                }
            }
            if sent.frames < sent.offered {
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
            conn.close();
        } else if conn.wr_pos >= conn.wr.len() {
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
    fn learned_routes_are_bounded_and_keep_the_recent() {
        let addr = |i: usize| (0x0A00_0000 + u32::try_from(i).unwrap()).to_be_bytes();
        let peer = |i: usize| {
            let port = u16::try_from(i % 65_535 + 1).unwrap();
            Peer::Udp(SocketAddrV4::new([127, 0, 0, 1].into(), port))
        };
        // Every ROUTE_CAP-th learning re-learns the same address; the
        // others are all distinct.
        let sticky = [192, 0, 2, 1];
        let tcp = |slot| Peer::Tcp {
            slot,
            generation: 0,
        };
        let mut routes = Routes::default();
        for i in 0..3 * ROUTE_CAP {
            if i % ROUTE_CAP == 0 {
                if i > 0 {
                    assert_eq!(routes.get(&sticky), Some(tcp(7)), "at {i}");
                }
                routes.learn(sticky, tcp(7));
            } else {
                routes.learn(addr(i), peer(i));
            }
            assert!(routes.young.len() + routes.old.len() <= 2 * ROUTE_CAP);
        }
        assert_eq!(routes.get(&sticky), Some(tcp(7)));
        // The latest ROUTE_CAP learnings all resolve to their peer.
        for i in (2 * ROUTE_CAP + 1)..3 * ROUTE_CAP {
            assert_eq!(routes.get(&addr(i)), Some(peer(i)), "recent {i}");
        }
        // Older than two generations: dropped, so it goes upstream.
        assert_eq!(routes.get(&addr(1)), None);

        // A route that moves from peer A to peer B takes effect, from
        // the young generation and from the old one.
        let moved = addr(3 * ROUTE_CAP - 1);
        routes.learn(moved, tcp(1));
        assert_eq!(routes.get(&moved), Some(tcp(1)));
        for i in 0..ROUTE_CAP {
            routes.learn(addr(4 * ROUTE_CAP + i), peer(i));
        }
        assert!(!routes.young.contains_key(&moved) && routes.old.contains_key(&moved));
        routes.learn(moved, tcp(2));
        assert_eq!(routes.get(&moved), Some(tcp(2)));
    }

    #[test]
    fn routes_reserve_young_once_at_the_first_rollover() {
        let addr = |i: usize| (0x0A00_0000 + u32::try_from(i).unwrap()).to_be_bytes();
        let peer = Peer::Udp(SocketAddrV4::new([127, 0, 0, 1].into(), 9));
        let mut routes = Routes::default();
        for i in 0..=ROUTE_CAP {
            routes.learn(addr(i), peer);
        }
        assert_eq!(routes.young.len(), 1, "rolled over once");
        assert!(routes.young.capacity() >= ROUTE_CAP);
        // Both generations hold the same reservation, so trading places
        // leaves the pair of capacities as it is.
        let caps = (routes.young.capacity(), routes.old.capacity());
        assert_eq!(caps.0, caps.1);
        for i in 0..3 * ROUTE_CAP {
            routes.learn(addr(ROUTE_CAP + 1 + i), peer);
            let now = (routes.young.capacity(), routes.old.capacity());
            assert_eq!(now, caps, "a map resized at learning {i}");
        }
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
        assert_eq!(bridge.queue.len(), 0, "half a frame must not parse");
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
    fn tcp_ingress_drains_a_large_burst_in_order() {
        let mut bridge = bind(true, loopback());
        let mut client = TcpStream::connect(bridge.tcp_addr().unwrap()).unwrap();
        const FRAMES: u32 = 80_000;
        let mut msg = Vec::new();
        for i in 0..FRAMES {
            let bytes = sized([10, 91, 0, 9], i, 40).serialize_raw();
            msg.extend_from_slice(&(u32::try_from(bytes.len()).unwrap()).to_be_bytes());
            msg.extend_from_slice(&bytes);
        }
        // One write; the thread keeps the kernel's buffers full while
        // the bridge reads.
        let writer = std::thread::spawn(move || client.write_all(&msg).map(|()| client));
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let mut next = 0;
        while next < FRAMES && Instant::now() < deadline {
            bridge.wait(100);
            while let Some((_, pkt)) = bridge.recv() {
                assert_eq!(pkt.tcp_header().unwrap().seq, next, "frames out of order");
                next += 1;
            }
        }
        assert_eq!(next, FRAMES);
        // Frames are extracted after every read, so the reassembly
        // buffer never held more than one read plus one partial frame
        // (its capacity is its high-water mark, rounded up by growth).
        let high_water = bridge.conns[0].rd.capacity();
        assert!(high_water <= 4 * (4 + MAX_FRAME), "{high_water} bytes");
        assert_eq!(bridge.stats.frames_in, u64::from(FRAMES));
        assert_eq!(bridge.stats.parse_errors, 0);
        let _client = writer.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_flood_delays_a_udp_frame_by_at_most_one_read_budget() {
        let mut bridge = bind(true, loopback());
        let mut client = TcpStream::connect(bridge.tcp_addr().unwrap()).unwrap();
        // Accept the connection before the flood starts.
        for _ in 0..200 {
            bridge.poll();
            if !bridge.conns.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(bridge.conns.len(), 1);
        let mut msg = Vec::new();
        for i in 0..80_000 {
            let bytes = sized([10, 91, 0, 9], i, 40).serialize_raw();
            msg.extend_from_slice(&(u32::try_from(bytes.len()).unwrap()).to_be_bytes());
            msg.extend_from_slice(&bytes);
        }
        // The writer fills the kernel's socket buffers without blocking,
        // reports that the connection is full, then keeps it full for
        // as long as the bridge reads; it ends when the bridge drops the
        // connection.
        let (report_full, full) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            client.set_nonblocking(true)?;
            let mut sent = 0;
            while sent < msg.len() {
                match client.write(&msg[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            report_full.send(sent).unwrap();
            client.set_nonblocking(false)?;
            client.write_all(&msg[sent..])
        });
        let backlog = full.recv().unwrap();
        let sender = UdpSocket::bind(loopback()).unwrap();
        let datagram = frame([10, 7, 0, 2], [93, 184, 216, 34]);
        // Loopback sends queue synchronously: the datagram is readable
        // when `send_to` returns.
        sender
            .send_to(&datagram.serialize_raw(), bridge.udp_addr().unwrap())
            .unwrap();
        bridge.poll();
        let ahead = bridge
            .queue
            .iter()
            .position(|(_, pkt)| pkt.ip.src == [10, 7, 0, 2])
            .expect("the datagram is queued by the same poll");
        // Every TCP frame is 4 + 40 bytes on the connection.
        let budget_frames = TCP_READ_BUDGET / (4 + 40);
        assert!(
            ahead <= budget_frames,
            "{ahead} TCP frames queued ahead of the datagram \
             (budget {budget_frames}, {backlog} bytes buffered)"
        );
        drop(bridge);
        let _ = writer.join().unwrap();
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
        assert_eq!(bridge.queue.len(), 0);
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

    /// The ingress batching bound: a 192-datagram volley already
    /// queued in the kernel drains in `recvmmsg` batches at no more
    /// than 0.25 syscalls per frame.
    #[test]
    fn batched_ingress_makes_at_most_a_quarter_syscall_per_frame() {
        const VOLLEY: usize = 192;
        let mut bridge = bind(false, loopback());
        let baddr = bridge.udp_addr().unwrap();
        let client = UdpSocket::bind(loopback()).unwrap();
        let bytes = frame([10, 7, 0, 2], [93, 184, 216, 34]).serialize_raw();
        for _ in 0..VOLLEY {
            client.send_to(&bytes, baddr).unwrap();
        }
        let syscalls0 = bridge.ctr.get();
        let mut queued = bridge.wait(250);
        for _ in 0..100 {
            if queued >= VOLLEY {
                break;
            }
            queued += bridge.poll();
        }
        assert_eq!(queued, VOLLEY, "every frame arrived");
        let per_frame = (bridge.stats.syscalls - syscalls0) as f64 / VOLLEY as f64;
        assert!(per_frame <= 0.25, "{per_frame} syscalls per frame");
    }

    /// An idle bridge's wait returns only on its timeout (the data
    /// loop's 250 ms publish cadence): at most 50 wakeups per second.
    #[test]
    fn idle_wait_makes_at_most_50_wakeups_per_second() {
        let mut bridge = bind(false, loopback());
        let window = std::time::Duration::from_millis(400);
        let t0 = Instant::now();
        let mut wakeups = 0u32;
        while t0.elapsed() < window {
            bridge.wait(250);
            wakeups += 1;
        }
        let rate = f64::from(wakeups) / t0.elapsed().as_secs_f64();
        assert!(rate <= 50.0, "idle loop woke {rate:.1} times per second");
    }

    /// Frame `idx` of an egress sequence, `len` bytes on the wire
    /// (40 = bare IPv4 + TCP headers), told apart by its sequence number.
    fn sized(dst: [u8; 4], idx: u32, len: usize) -> Packet {
        let mut p = Packet::tcp(
            [93, 184, 216, 34],
            80,
            dst,
            40000,
            TcpFlags::PSH_ACK,
            idx,
            1,
            vec![u8::try_from(idx % 251).unwrap(); len - 40],
        );
        p.finalize();
        p
    }

    /// Bind a bridge whose upstream is receiver `a`, teach it that
    /// inner address `B_INNER` lives behind receiver `b`, and return
    /// all three.
    fn two_receivers() -> (Bridge, UdpSocket, UdpSocket) {
        let a = UdpSocket::bind(loopback()).unwrap();
        let b = UdpSocket::bind(loopback()).unwrap();
        for r in [&a, &b] {
            r.set_read_timeout(Some(std::time::Duration::from_secs(2)))
                .unwrap();
        }
        let mut bridge = bind(false, a.local_addr().unwrap());
        let hello = frame(B_INNER, [93, 184, 216, 34]);
        b.send_to(&hello.serialize_raw(), bridge.udp_addr().unwrap())
            .unwrap();
        for _ in 0..200 {
            if bridge.poll() > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(bridge.recv().is_some(), "route-teaching frame arrived");
        (bridge, a, b)
    }

    const B_INNER: [u8; 4] = [10, 9, 0, 2];

    /// Emit `frames` (`true` = toward receiver `b`) in chunks small
    /// enough for the receivers' socket buffers, and require each
    /// receiver to get exactly its frames, byte-identical and in emit
    /// order.
    fn deliver_in_order(
        bridge: &mut Bridge,
        a: &UdpSocket,
        b: &UdpSocket,
        frames: &[(bool, Packet)],
    ) {
        let mut buf = [0u8; MAX_FRAME];
        for chunk in frames.chunks(40) {
            for (_, pkt) in chunk {
                bridge.emit(0, pkt.clone());
            }
            bridge.flush();
            for _ in 0..200 {
                if bridge.pending_out() == 0 {
                    break;
                }
                bridge.poll();
            }
            assert_eq!(bridge.pending_out(), 0, "egress drained");
            for (to_b, pkt) in chunk {
                let rx = if *to_b { b } else { a };
                let (n, _) = rx.recv_from(&mut buf).unwrap();
                assert_eq!(&buf[..n], pkt.serialize_raw().as_slice());
            }
        }
        for rx in [a, b] {
            rx.set_nonblocking(true).unwrap();
            assert!(rx.recv_from(&mut buf).is_err(), "no duplicate datagrams");
        }
    }

    /// 240 frames of mixed 40- and 1,500-byte sizes, alternating between
    /// the two receivers in runs of 8 whose sizes change every 4.
    fn mixed_runs() -> Vec<(bool, Packet)> {
        (0..240u32)
            .map(|i| {
                let to_b = (i / 8) % 2 == 1;
                let len = if (i / 4) % 3 == 0 { 1500 } else { 40 };
                let dst = if to_b { B_INNER } else { [10, 9, 0, 1] };
                (to_b, sized(dst, i, len))
            })
            .collect()
    }

    #[test]
    fn segmented_egress_delivers_every_datagram_in_order() {
        let (mut bridge, a, b) = two_receivers();
        let frames = mixed_runs();
        deliver_in_order(&mut bridge, &a, &b, &frames);
        assert_eq!(bridge.stats.frames_out, frames.len() as u64);
        assert_eq!(bridge.stats.unroutable, 0);
        assert!(bridge.stats.gso_sends > 0, "{:?}", bridge.stats);
        assert!(bridge.stats.gso_frames > bridge.stats.gso_sends);
        assert_eq!(bridge.stats.gso_fallbacks, 0);
    }

    #[test]
    fn refused_segmentation_falls_back_without_loss() {
        let (mut bridge, a, b) = two_receivers();
        // Linux refuses UDP_SEGMENT (EINVAL) on a socket that sends
        // without checksums.
        sys::ffi::set_no_check(bridge.udp.as_raw_fd()).unwrap();
        let frames = mixed_runs();
        deliver_in_order(&mut bridge, &a, &b, &frames);
        assert_eq!(bridge.stats.frames_out, frames.len() as u64);
        assert_eq!(bridge.stats.unroutable, 0);
        assert_eq!(bridge.stats.gso_fallbacks, 1);
        assert_eq!(bridge.stats.gso_sends, 0);
    }

    #[test]
    fn bind_refuses_an_ipv6_upstream() {
        let err = Bridge::bind(&BridgeConfig {
            udp: loopback(),
            tcp: None,
            upstream: "[::1]:7072".parse().unwrap(),
            backend: BackendChoice::Epoll,
        })
        .err()
        .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn route_entries_stay_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Peer>(), 8);
        assert_eq!(std::mem::size_of::<([u8; 4], Peer)>(), 12);
    }

    /// Poll until `done` holds; fails after 2 s.
    fn poll_until(bridge: &mut Bridge, done: impl Fn(&Bridge) -> bool) {
        let deadline = Instant::now() + std::time::Duration::from_secs(2);
        while !done(bridge) {
            assert!(Instant::now() < deadline, "timed out: {:?}", bridge.stats);
            bridge.wait(1);
        }
    }

    /// Connect, send one frame from inner address `src`, and poll
    /// until the bridge has queued it; returns the open client.
    fn connect_and_send(bridge: &mut Bridge, src: [u8; 4]) -> TcpStream {
        let mut client = TcpStream::connect(bridge.tcp_addr().unwrap()).unwrap();
        let bytes = frame(src, [93, 184, 216, 34]).serialize_raw();
        client
            .write_all(&(u32::try_from(bytes.len()).unwrap()).to_be_bytes())
            .unwrap();
        client.write_all(&bytes).unwrap();
        poll_until(bridge, |b| !b.queue.is_empty());
        assert_eq!(bridge.recv().unwrap().1.ip.src, src);
        client
    }

    /// Drop the client and poll until the bridge has closed its slot.
    fn hang_up(bridge: &mut Bridge, client: TcpStream) {
        drop(client);
        poll_until(bridge, |b| b.conns.iter().all(|c| c.stream.is_none()));
    }

    #[test]
    fn closed_tcp_slots_are_reused() {
        const CYCLES: u64 = 1_100;
        let mut bridge = bind(true, loopback());
        for i in 0..CYCLES {
            let client = connect_and_send(&mut bridge, [10, 91, 0, 9]);
            hang_up(&mut bridge, client);
            assert_eq!(bridge.stats.frames_in, i + 1);
        }
        assert_eq!(bridge.stats.tcp_accepted, CYCLES);
        assert_eq!(bridge.conns.len(), 1, "one slot, reused every cycle");
        assert_eq!(bridge.conns[0].rd.capacity(), 0, "buffers freed at close");
    }

    #[test]
    fn a_closed_connections_route_never_reaches_the_slots_next_occupant() {
        const OLD: [u8; 4] = [10, 91, 0, 1];
        const NEW: [u8; 4] = [10, 91, 0, 2];
        let upstream = UdpSocket::bind(loopback()).unwrap();
        let mut bridge = bind(true, upstream.local_addr().unwrap());
        let old = connect_and_send(&mut bridge, OLD);
        hang_up(&mut bridge, old);
        let mut new = connect_and_send(&mut bridge, NEW);
        assert_eq!(bridge.conns.len(), 1, "the slot was reused");
        bridge.emit(0, frame([93, 184, 216, 34], OLD));
        bridge.emit(0, frame([93, 184, 216, 34], NEW));
        bridge.flush();
        assert_eq!(bridge.stats.unroutable, 1, "{:?}", bridge.stats);
        assert_eq!(bridge.stats.frames_out, 1);
        // The new occupant gets its own frame and nothing else.
        new.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let mut hdr = [0u8; 4];
        new.read_exact(&mut hdr).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(hdr) as usize];
        new.read_exact(&mut body).unwrap();
        assert_eq!(Packet::parse(&body).unwrap().ip.dst, NEW);
        new.set_nonblocking(true).unwrap();
        assert!(new.read(&mut hdr).is_err(), "no frame for the old peer");

        // A slot whose generation cannot grow is retired, not reused.
        hang_up(&mut bridge, new);
        bridge.conns[0].generation = u32::MAX;
        let _next = connect_and_send(&mut bridge, [10, 91, 0, 3]);
        assert_eq!(bridge.conns.len(), 2);
        assert_eq!(bridge.conns[1].generation, 1);
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
