//! How slow the host is right now.
//!
//! The host the ledger was built on is a shared VM: each of its two
//! CPUs slows down, on its own, by up to half for seconds to minutes at
//! a time, and every metric of a run moves with it (a fixed loop of
//! loopback sends and receives took 1.8–2.7 µs a datagram over ten
//! minutes). A [`Probe`] times that loop — the kernel path every frame
//! of the benchmark takes, with no code under test in it — on each CPU
//! the measured threads are pinned to, and the end-to-end metrics are
//! scaled by its ratio to [`REFERENCE_NS`].

use crate::server::{pin_self, Pins};
use crate::stats::median;
use std::io;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::time::Instant;
use svc::sys::{self, RecvArena, SendScratch, SyscallCounter};

/// Loopback cost, ns per datagram, of the host at reference speed; a
/// probe reading this much means slowness 1.
pub const REFERENCE_NS: f64 = 2000.0;

/// Datagrams per `sendmmsg` / `recvmmsg`, and batches per timing.
const BATCH: usize = 64;
const BATCHES: usize = 16;
/// Timings per CPU; the probe reports their median.
const TIMINGS: usize = 4;

pub struct Probe {
    from: UdpSocket,
    to: UdpSocket,
    to_addr: SocketAddrV4,
    arena: RecvArena,
    scratch: SendScratch,
    ctr: SyscallCounter,
    payload: [u8; 64],
    /// The CPUs to probe, the generator's last (the calling thread is
    /// left there); empty when nothing is pinned.
    cpus: Vec<String>,
}

impl Probe {
    pub fn new(pins: Option<&Pins>) -> io::Result<Probe> {
        let from = UdpSocket::bind("127.0.0.1:0")?;
        let to = UdpSocket::bind("127.0.0.1:0")?;
        from.set_nonblocking(true)?;
        to.set_nonblocking(true)?;
        let SocketAddr::V4(to_addr) = to.local_addr()? else {
            return Err(io::Error::other("probe socket is not IPv4"));
        };
        Ok(Probe {
            from,
            to,
            to_addr,
            arena: RecvArena::new(BATCH, 2048),
            scratch: SendScratch::new(),
            ctr: SyscallCounter::new(),
            payload: [0x5a; 64],
            cpus: pins.map_or_else(Vec::new, |p| vec![p.data.clone(), p.generator.clone()]),
        })
    }

    /// The host's slowness now: loopback cost per datagram, averaged
    /// over the probed CPUs, over [`REFERENCE_NS`] (1.3 = 30% slower).
    pub fn slowness(&mut self) -> io::Result<f64> {
        let mut sum = 0.0;
        for cpu in self.cpus.clone() {
            pin_self(&cpu)?;
            sum += self.ns_per_datagram()?;
        }
        let mean = if self.cpus.is_empty() {
            self.ns_per_datagram()?
        } else {
            sum / self.cpus.len() as f64
        };
        Ok(mean / REFERENCE_NS)
    }

    /// Median over [`TIMINGS`] of the time to send and receive
    /// [`BATCH`] × [`BATCHES`] datagrams on this thread, per datagram.
    fn ns_per_datagram(&mut self) -> io::Result<f64> {
        let msgs = [(self.to_addr, &self.payload[..]); BATCH];
        let mut timings = [0.0; TIMINGS];
        for t in &mut timings {
            let t0 = Instant::now();
            for _ in 0..BATCHES {
                let mut sent = 0;
                while sent < BATCH {
                    sent += sys::send_batch(
                        self.from.as_raw_fd(),
                        &mut self.scratch,
                        &msgs[sent..],
                        &self.ctr,
                    )?;
                }
                let mut got = 0;
                while got < BATCH {
                    got += sys::recv_batch(self.to.as_raw_fd(), &mut self.arena, &self.ctr)?;
                }
            }
            *t = t0.elapsed().as_nanos() as f64 / (BATCH * BATCHES) as f64;
        }
        Ok(median(&timings))
    }
}
