//! Event-driven I/O primitives for the bridge.
//!
//! This module is the only place in `crates/svc` allowed to touch raw
//! syscalls: [`ffi`] holds the hand-declared bindings and every
//! `unsafe` block; everything exported from here is a safe RAII
//! wrapper. The rest of the crate sees four ideas:
//!
//! * [`SyscallCounter`] — a shared counter every wrapper bumps once
//!   per syscall, so `cay bench` can report *syscalls per packet*
//!   honestly (the bridge bumps it by hand around its `std::net`
//!   accept/read/write calls).
//! * [`Epoll`] / [`EventFd`] — level-triggered readiness and a
//!   cross-thread wakeup fd.
//! * [`RecvArena`] / [`SendScratch`] — preallocated `recvmmsg` /
//!   `sendmmsg` vectors: buffers, sockaddrs, iovecs, and mmsghdrs are
//!   allocated once at bind time and recycled every batch, so the
//!   steady-state datagram path performs no per-packet allocation in
//!   the I/O layer.
//! * [`Waker`] — a clonable handle over an [`EventFd`] that wakes a
//!   blocked epoll loop.

pub mod ffi;

use std::io;
use std::net::{SocketAddr, SocketAddrV4};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Readable-readiness bit in [`Event::events`].
pub const EV_READ: u32 = ffi::EPOLLIN;
/// Writable-readiness bit in [`Event::events`].
pub const EV_WRITE: u32 = ffi::EPOLLOUT;

/// A shared syscall tally. Cloning shares the underlying counter.
#[derive(Clone, Default)]
pub struct SyscallCounter {
    n: Arc<AtomicU64>,
}

impl SyscallCounter {
    pub fn new() -> SyscallCounter {
        SyscallCounter::default()
    }

    /// Record one syscall.
    pub fn bump(&self) {
        self.n.fetch_add(1, Ordering::Relaxed);
    }

    /// Total syscalls recorded so far.
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// One readiness event out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Raw readiness bits ([`EV_READ`] / [`EV_WRITE`] plus error/hup,
    /// which this module folds into "readable" so closed sockets get
    /// drained and retired by the normal read path).
    pub events: u32,
}

impl Event {
    pub fn readable(&self) -> bool {
        self.events & (ffi::EPOLLIN | ffi::EPOLLERR | ffi::EPOLLHUP) != 0
    }

    pub fn writable(&self) -> bool {
        self.events & ffi::EPOLLOUT != 0
    }
}

/// RAII wrapper over a level-triggered epoll instance.
pub struct Epoll {
    fd: RawFd,
    ctr: SyscallCounter,
    raw: Vec<ffi::EpollEvent>,
}

impl Epoll {
    pub fn new(ctr: SyscallCounter) -> io::Result<Epoll> {
        ctr.bump();
        let fd = ffi::epoll_create()?;
        Ok(Epoll {
            fd,
            ctr,
            raw: vec![
                ffi::EpollEvent {
                    events: 0,
                    token: 0
                };
                64
            ],
        })
    }

    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctr.bump();
        ffi::epoll_add(self.fd, fd, events, token)
    }

    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctr.bump();
        ffi::epoll_mod(self.fd, fd, events, token)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctr.bump();
        ffi::epoll_del(self.fd, fd)
    }

    /// Wait up to `timeout_ms` (`<0` = forever, `0` = just poll) and
    /// append ready events to `out`. Returns how many arrived.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        self.ctr.bump();
        let n = match ffi::epoll_pwait(self.fd, &mut self.raw, timeout_ms) {
            Ok(n) => n,
            // A signal interrupting the wait is a spurious wakeup, not
            // an error.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.raw[..n] {
            out.push(Event {
                token: ev.token,
                events: ev.events,
            });
        }
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        ffi::close_fd(self.fd);
    }
}

/// RAII wrapper over a nonblocking eventfd.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        Ok(EventFd {
            fd: ffi::eventfd_create()?,
        })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make the fd readable (wakes any epoll watching it).
    pub fn signal(&self) {
        let _ = ffi::eventfd_signal(self.fd);
    }

    /// Reset to unsignalled (call after the wakeup was observed, or a
    /// level-triggered epoll would spin on it).
    pub fn drain(&self) {
        ffi::eventfd_drain(self.fd);
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        ffi::close_fd(self.fd);
    }
}

/// A cross-thread wakeup handle: [`Waker::wake`] is callable from any
/// thread, and the eventfd behind it is registered on an epoll loop
/// via [`Waker::fd`]. Clones share the eventfd. Eventfd creation
/// failure is reported by [`Waker::fd`], so socket-free users (a
/// [`crate::Core`] over an in-memory queue) never need one, and
/// [`crate::Service::start`] fails loudly instead.
#[derive(Clone, Default)]
pub struct Waker {
    efd: Option<Arc<EventFd>>,
}

impl Waker {
    pub fn new() -> Waker {
        Waker {
            efd: EventFd::new().ok().map(Arc::new),
        }
    }

    /// Wake the loop watching this waker. Sticky: the eventfd stays
    /// readable until drained, so a wake that lands before the loop
    /// blocks is kept.
    pub fn wake(&self) {
        if let Some(efd) = &self.efd {
            efd.signal();
        }
    }

    /// The registrable eventfd.
    pub fn fd(&self) -> io::Result<RawFd> {
        self.efd
            .as_ref()
            .map(|efd| efd.fd())
            .ok_or_else(|| io::Error::other("eventfd could not be created"))
    }

    /// Reset after a wakeup was observed.
    pub fn drain(&self) {
        if let Some(efd) = &self.efd {
            efd.drain();
        }
    }
}

/// Preallocated `recvmmsg` state: `batch` buffers of `buf_size` bytes
/// plus the sockaddr/iovec/mmsghdr vectors describing them. One arena
/// serves every batch for the life of the socket — zero steady-state
/// allocation.
pub struct RecvArena {
    bufs: Vec<Vec<u8>>,
    addrs: Vec<ffi::SockAddrIn>,
    iovs: Vec<ffi::IoVec>,
    hdrs: Vec<ffi::MMsgHdr>,
    filled: usize,
}

impl RecvArena {
    pub fn new(batch: usize, buf_size: usize) -> RecvArena {
        let batch = batch.max(1);
        RecvArena {
            bufs: (0..batch).map(|_| vec![0u8; buf_size]).collect(),
            addrs: vec![ffi::SockAddrIn::zeroed(); batch],
            iovs: vec![
                ffi::IoVec {
                    base: std::ptr::null_mut(),
                    len: 0,
                };
                batch
            ],
            hdrs: vec![ffi::MMsgHdr::zeroed(); batch],
            filled: 0,
        }
    }

    /// Max datagrams per batch.
    pub fn batch(&self) -> usize {
        self.bufs.len()
    }

    /// The datagrams the last [`recv_batch`] filled, with their source
    /// addresses.
    pub fn frames(&self) -> impl Iterator<Item = (&[u8], SocketAddr)> {
        self.hdrs[..self.filled]
            .iter()
            .zip(&self.bufs)
            .zip(&self.addrs)
            .map(|((hdr, buf), addr)| (&buf[..hdr.len as usize], SocketAddr::V4(addr.to_v4())))
    }
}

/// Drain up to one batch of datagrams from `fd` into `arena`. Returns
/// 0 when the socket has nothing ready (`WouldBlock` is not an error).
pub fn recv_batch(fd: RawFd, arena: &mut RecvArena, ctr: &SyscallCounter) -> io::Result<usize> {
    // Rebuild the pointer vectors from fresh borrows each call: the
    // storage never moves (fixed-capacity Vecs allocated in `new`),
    // but re-deriving the pointers keeps the borrows honest.
    for i in 0..arena.bufs.len() {
        arena.iovs[i] = ffi::IoVec {
            base: arena.bufs[i].as_mut_ptr(),
            len: arena.bufs[i].len(),
        };
        arena.addrs[i] = ffi::SockAddrIn::zeroed();
        arena.hdrs[i] = ffi::MMsgHdr {
            hdr: ffi::MsgHdr {
                name: &mut arena.addrs[i],
                namelen: u32::try_from(std::mem::size_of::<ffi::SockAddrIn>()).unwrap_or(16),
                iov: &mut arena.iovs[i],
                iovlen: 1,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        };
    }
    ctr.bump();
    arena.filled = 0;
    match ffi::recvmmsg_nb(fd, &mut arena.hdrs) {
        Ok(n) => {
            arena.filled = n;
            Ok(n)
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
        Err(e) => Err(e),
    }
}

/// Reusable `sendmmsg` pointer vectors (the payload bytes themselves
/// belong to the caller's egress queue).
#[derive(Default)]
pub struct SendScratch {
    addrs: Vec<ffi::SockAddrIn>,
    iovs: Vec<ffi::IoVec>,
    hdrs: Vec<ffi::MMsgHdr>,
}

impl SendScratch {
    pub fn new() -> SendScratch {
        SendScratch::default()
    }
}

/// Send up to one batch of `(destination, payload)` datagrams with a
/// single `sendmmsg`. Returns how many of the first `msgs.len()`
/// messages were sent; `Ok(0)` with a non-empty input means the socket
/// buffer is full (`WouldBlock` folded in, so callers treat it as
/// backpressure rather than an error).
pub fn send_batch(
    fd: RawFd,
    scratch: &mut SendScratch,
    msgs: &[(SocketAddrV4, &[u8])],
    ctr: &SyscallCounter,
) -> io::Result<usize> {
    if msgs.is_empty() {
        return Ok(0);
    }
    scratch.addrs.clear();
    scratch.iovs.clear();
    scratch.hdrs.clear();
    for (dst, payload) in msgs {
        scratch.addrs.push(ffi::SockAddrIn::from_v4(dst));
        scratch.iovs.push(ffi::IoVec {
            base: payload.as_ptr().cast_mut(),
            len: payload.len(),
        });
    }
    for i in 0..msgs.len() {
        scratch.hdrs.push(ffi::MMsgHdr {
            hdr: ffi::MsgHdr {
                name: &mut scratch.addrs[i],
                namelen: u32::try_from(std::mem::size_of::<ffi::SockAddrIn>()).unwrap_or(16),
                iov: &mut scratch.iovs[i],
                iovlen: 1,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        });
    }
    ctr.bump();
    match ffi::sendmmsg_nb(fd, &mut scratch.hdrs) {
        Ok(n) => Ok(n),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
        Err(e) => Err(e),
    }
}
