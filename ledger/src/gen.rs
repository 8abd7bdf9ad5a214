//! The load generator: one thread, two UDP sockets.
//!
//! The *client* socket sends frames whose inner source is a client; the
//! *origin* socket sends the server's frames and is also `cay serve`'s
//! `--upstream`, so the bridge learns a route to each side and every
//! emission comes back to one of the two. Sends and receives go through
//! `svc::sys::send_batch` / `recv_batch` (sendmmsg / recvmmsg).

use crate::check::{Checker, LOSS_TIMEOUT_NS};
use crate::oracle::frame_hash;
use crate::workload::Trace;
use std::io;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::time::Instant;
use svc::sys::{self, Epoll, Event, RecvArena, SendScratch, SyscallCounter};

/// Frames per sendmmsg / recvmmsg.
const BATCH: usize = 64;

/// Monotonic nanoseconds since a shared epoch.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// What one phase measured while it ran. Its loss is known only once
/// the frames still in flight are drained ([`Gen::drain`]).
#[derive(Debug, Default)]
pub struct Phase {
    pub secs: f64,
    /// Frames delivered before the phase ended.
    pub delivered: u64,
    /// Closed loop: share of the phase the generator was not blocked.
    pub busy_frac: f64,
    /// Open loop: how late each frame was sent (ns after it was due).
    pub lag_ns: Vec<u32>,
}

pub struct Gen {
    client: UdpSocket,
    origin: UdpSocket,
    ep: Epoll,
    events: Vec<Event>,
    arena: RecvArena,
    scratch: SendScratch,
    ctr: SyscallCounter,
    pub clock: Clock,
    /// Next cycle frame to send.
    cursor: usize,
    /// Datagrams sent / received on the two sockets, ever.
    pub wire_sent: u64,
    pub wire_received: u64,
}

impl Gen {
    pub fn new(clock: Clock) -> io::Result<Gen> {
        let client = UdpSocket::bind("127.0.0.1:0")?;
        let origin = UdpSocket::bind("127.0.0.1:0")?;
        client.set_nonblocking(true)?;
        origin.set_nonblocking(true)?;
        let ctr = SyscallCounter::new();
        let ep = Epoll::new(ctr.clone())?;
        ep.add(client.as_raw_fd(), 0, sys::EV_READ)?;
        ep.add(origin.as_raw_fd(), 1, sys::EV_READ)?;
        Ok(Gen {
            client,
            origin,
            ep,
            events: Vec::with_capacity(2),
            arena: RecvArena::new(BATCH, 65_536),
            scratch: SendScratch::new(),
            ctr,
            clock,
            cursor: 0,
            wire_sent: 0,
            wire_received: 0,
        })
    }

    /// The origin socket's address: `cay serve --upstream`.
    pub fn origin_addr(&self) -> io::Result<SocketAddr> {
        self.origin.local_addr()
    }

    /// Send the warm-up frames once, at most `window` in flight, and
    /// wait until every one of them is delivered.
    pub fn warmup(
        &mut self,
        trace: &Trace,
        c: &mut Checker,
        to: SocketAddrV4,
        window: usize,
    ) -> io::Result<()> {
        let deadline = self.clock.ns() + 20_000_000_000;
        let mut next = 0;
        let mut batch = Vec::with_capacity(BATCH);
        c.take_counts();
        while next < trace.setup || c.inflight() > 0 {
            let now = self.clock.ns();
            if now > deadline {
                return Err(io::Error::other("warm-up did not complete in 20 s"));
            }
            batch.clear();
            while next < trace.setup && c.inflight() < window && batch.len() < BATCH {
                c.sent(next, now);
                batch.push(next);
                next += 1;
            }
            self.send(trace, &batch, to)?;
            if self.recv(c) == 0 && batch.is_empty() {
                self.block(1);
            }
            c.expire(self.clock.ns());
        }
        let counts = c.take_counts();
        if counts.lost > 0 {
            return Err(io::Error::other(format!(
                "{} warm-up frames lost",
                counts.lost
            )));
        }
        Ok(())
    }

    /// Closed loop: keep up to `window` cycle frames in flight for
    /// `secs`, topping up once a quarter of the window has come back (so
    /// both sides see batches rather than single frames).
    pub fn saturate(
        &mut self,
        trace: &Trace,
        c: &mut Checker,
        to: SocketAddrV4,
        window: usize,
        secs: f64,
    ) -> io::Result<Phase> {
        let start = self.clock.ns();
        let end = start + (secs * 1e9) as u64;
        let mut blocked = 0u64;
        let mut batch = Vec::with_capacity(BATCH);
        let mut next_expire = start;
        c.take_counts();
        loop {
            let now = self.clock.ns();
            if now >= end {
                break;
            }
            batch.clear();
            if c.inflight() <= window - window / 4 {
                while c.inflight() < window && batch.len() < BATCH {
                    let f = self.next_frame(trace);
                    c.sent(f, now);
                    batch.push(f);
                }
            }
            self.send(trace, &batch, to)?;
            if self.recv(c) == 0 && c.inflight() > window - window / 4 {
                blocked += self.block(1);
            }
            if now >= next_expire {
                c.expire(now);
                next_expire = now + 1_000_000;
            }
        }
        Ok(Phase {
            secs: (self.clock.ns() - start) as f64 / 1e9,
            delivered: c.counts.delivered,
            busy_frac: 1.0 - blocked as f64 / (end - start) as f64,
            lag_ns: Vec::new(),
        })
    }

    /// Open loop: frame `k` is due at `start + k / rate`; everything due
    /// goes out in batches of at most 64, never early. Latency is timed
    /// from the due time, so a late generator shows as latency too.
    /// Frame `drop` of the phase is withheld while the checker is told
    /// it was sent (`selftest`'s drop fault).
    pub fn fixed_rate(
        &mut self,
        trace: &Trace,
        c: &mut Checker,
        to: SocketAddrV4,
        rate: u64,
        secs: f64,
        drop: Option<u64>,
    ) -> io::Result<Phase> {
        let start = self.clock.ns();
        let end = start + (secs * 1e9) as u64;
        let due = |k: u64| start + k * 1_000_000_000 / rate;
        let mut k = 0u64;
        let mut lag = Vec::with_capacity((secs * rate as f64) as usize + 1);
        let mut batch = Vec::with_capacity(BATCH);
        let mut next_expire = start;
        c.take_counts();
        while due(k) < end {
            let now = self.clock.ns();
            batch.clear();
            while batch.len() < BATCH && due(k) <= now && due(k) < end {
                let f = self.next_frame(trace);
                c.sent(f, due(k));
                if drop != Some(k) {
                    batch.push(f);
                    lag.push(u32::try_from(now - due(k)).unwrap_or(u32::MAX));
                }
                k += 1;
            }
            self.send(trace, &batch, to)?;
            // Yield, not spin: a spinning generator keeps a server thread
            // that wakes on its CPU waiting out a whole time slice.
            if self.recv(c) == 0 && batch.is_empty() {
                std::thread::yield_now();
            }
            if now >= next_expire {
                c.expire(now);
                next_expire = now + 1_000_000;
            }
        }
        Ok(Phase {
            secs: (end - start) as f64 / 1e9,
            delivered: c.counts.delivered,
            busy_frac: 1.0,
            lag_ns: lag,
        })
    }

    /// Receive until nothing is in flight (stragglers past the loss
    /// timeout are declared lost); returns the ended phase's counts.
    pub fn drain(&mut self, c: &mut Checker) -> crate::check::Counts {
        let deadline = self.clock.ns() + LOSS_TIMEOUT_NS + 50_000_000;
        while c.inflight() > 0 && self.clock.ns() < deadline {
            if self.recv(c) == 0 {
                self.block(1);
            }
            c.expire(self.clock.ns());
        }
        c.take_counts()
    }

    fn next_frame(&mut self, trace: &Trace) -> usize {
        let cycle = trace.cycle();
        let f = cycle.start + self.cursor;
        self.cursor = (self.cursor + 1) % cycle.len();
        f
    }

    /// Send `frames` in order: client-socket frames first, so a flow's
    /// client side is learned before the server's reply is routed.
    fn send(&mut self, trace: &Trace, frames: &[usize], to: SocketAddrV4) -> io::Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        for from_client in [true, false] {
            let msgs: Vec<(SocketAddrV4, &[u8])> = frames
                .iter()
                .filter(|&&f| trace.sent_by_client(f) == from_client)
                .map(|&f| (to, trace.frame(f)))
                .collect();
            let fd = if from_client {
                self.client.as_raw_fd()
            } else {
                self.origin.as_raw_fd()
            };
            let mut done = 0;
            while done < msgs.len() {
                let n = sys::send_batch(fd, &mut self.scratch, &msgs[done..], &self.ctr)?;
                if n == 0 {
                    std::thread::yield_now();
                }
                done += n;
            }
            self.wire_sent += msgs.len() as u64;
        }
        Ok(())
    }

    /// Drain both sockets without blocking; returns frames received.
    fn recv(&mut self, c: &mut Checker) -> usize {
        let mut got = 0;
        for fd in [self.client.as_raw_fd(), self.origin.as_raw_fd()] {
            while let Ok(n) = sys::recv_batch(fd, &mut self.arena, &self.ctr) {
                if n == 0 {
                    break;
                }
                let now = self.clock.ns();
                for (bytes, _) in self.arena.frames() {
                    c.arrived(frame_hash(bytes), now, bytes);
                }
                got += n;
                if n < self.arena.batch() {
                    break;
                }
            }
        }
        self.wire_received += got as u64;
        got
    }

    /// Block until a socket is readable or `ms` pass; returns ns blocked.
    fn block(&mut self, ms: i32) -> u64 {
        let t0 = self.clock.ns();
        self.events.clear();
        let _ = self.ep.wait(&mut self.events, ms);
        self.clock.ns() - t0
    }
}
