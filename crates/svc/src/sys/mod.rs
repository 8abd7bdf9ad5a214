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
//!   `sendmmsg` vectors: buffers, sockaddrs, iovecs, control messages
//!   and mmsghdrs are allocated once and recycled every batch, so the
//!   steady-state datagram path performs no per-packet allocation in
//!   the I/O layer. [`send_frames`] sends each same-destination run of
//!   equal-length frames as one `UDP_SEGMENT` (UDP GSO) message.
//! * [`Waker`] — a clonable handle over an [`EventFd`] that wakes a
//!   blocked epoll loop.

pub mod ffi;

use std::io;
use std::net::SocketAddrV4;
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
///
/// The buffers live in one zeroed block, `stride` bytes apart. A block
/// this large comes from fresh zero pages, so it is reserved at
/// construction but resident only where datagrams land: a 40-byte
/// frame faults in one page, not its whole 64 KiB buffer. `stride` is
/// `buf_size` rounded up to a cache line plus one more line, so the
/// heads of a batch's buffers fall in different cache sets (an exact
/// 64 KiB stride would map them all to one).
pub struct RecvArena {
    block: Vec<u8>,
    stride: usize,
    buf_size: usize,
    addrs: Vec<ffi::SockAddrIn>,
    iovs: Vec<ffi::IoVec>,
    hdrs: Vec<ffi::MMsgHdr>,
    filled: usize,
}

/// Cache-line size the arena staggers its buffers by.
const LINE: usize = 64;

impl RecvArena {
    pub fn new(batch: usize, buf_size: usize) -> RecvArena {
        let batch = batch.max(1);
        let stride = buf_size.next_multiple_of(LINE) + LINE;
        RecvArena {
            block: vec![0u8; batch * stride],
            stride,
            buf_size,
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
        self.hdrs.len()
    }

    /// The datagrams the last [`recv_batch`] filled, with their source
    /// addresses.
    pub fn frames(&self) -> impl Iterator<Item = (&[u8], SocketAddrV4)> {
        self.hdrs[..self.filled]
            .iter()
            .zip(self.block.chunks(self.stride))
            .zip(&self.addrs)
            .map(|((hdr, buf), addr)| (&buf[..hdr.len as usize], addr.to_v4()))
    }
}

/// Drain up to one batch of datagrams from `fd` into `arena`. Returns
/// 0 when the socket has nothing ready (`WouldBlock` is not an error).
pub fn recv_batch(fd: RawFd, arena: &mut RecvArena, ctr: &SyscallCounter) -> io::Result<usize> {
    // Rebuild the pointer vectors from fresh borrows each call: the
    // block never moves (allocated once in `new`), but re-deriving the
    // pointers keeps the borrows honest.
    for (i, chunk) in arena.block.chunks_mut(arena.stride).enumerate() {
        let buf = &mut chunk[..arena.buf_size];
        arena.iovs[i] = ffi::IoVec {
            base: buf.as_mut_ptr(),
            len: buf.len(),
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

/// Most datagrams one `UDP_SEGMENT` message carries (the kernel's
/// `UDP_MAX_SEGMENTS` floor).
pub const GSO_MAX_SEGMENTS: usize = 64;

/// Most payload bytes one `UDP_SEGMENT` message carries: a 65,535-byte
/// IPv4 datagram less its 20-byte IP and 8-byte UDP headers.
pub const GSO_MAX_BYTES: usize = 65_507;

/// One staged `sendmmsg` entry: `segments` consecutive payloads to one
/// destination, starting at iovec `first`.
#[derive(Clone, Copy)]
struct Entry {
    dst: SocketAddrV4,
    first: usize,
    segments: usize,
    /// Payload bytes across all segments.
    bytes: usize,
    /// Every segment's length but the last, which may be shorter.
    seg_size: usize,
    /// A shorter segment ended the run; nothing more may join it.
    closed: bool,
}

/// Reusable `sendmmsg` vectors (the payload bytes themselves belong to
/// the caller's egress queue). Both [`send_batch`] and [`send_frames`]
/// stage through [`SendScratch::stage`], so the vectors keep their
/// capacity and steady-state egress allocates nothing.
#[derive(Default)]
pub struct SendScratch {
    entries: Vec<Entry>,
    addrs: Vec<ffi::SockAddrIn>,
    iovs: Vec<ffi::IoVec>,
    cmsgs: Vec<ffi::SegmentCmsg>,
    hdrs: Vec<ffi::MMsgHdr>,
}

impl SendScratch {
    pub fn new() -> SendScratch {
        SendScratch::default()
    }

    /// Lay `frames` out as `sendmmsg` entries, in order. Without
    /// `segment` every frame is its own entry. With it, each run of
    /// consecutive frames to one destination that share one length
    /// (the last may be shorter) becomes one entry carrying an iovec
    /// per frame and a `UDP_SEGMENT` control message, capped at
    /// [`GSO_MAX_SEGMENTS`] frames and [`GSO_MAX_BYTES`] bytes; a
    /// one-frame run carries no control message.
    fn stage<'a>(
        &mut self,
        frames: impl IntoIterator<Item = (SocketAddrV4, &'a [u8])>,
        segment: bool,
    ) {
        self.entries.clear();
        self.iovs.clear();
        for (dst, payload) in frames {
            let len = payload.len();
            let joined = segment
                && self.entries.last_mut().is_some_and(|run| {
                    let fits = !run.closed
                        && run.dst == dst
                        && len > 0
                        && len <= run.seg_size
                        && run.segments < GSO_MAX_SEGMENTS
                        && run.bytes + len <= GSO_MAX_BYTES;
                    if fits {
                        run.segments += 1;
                        run.bytes += len;
                        run.closed = len < run.seg_size;
                    }
                    fits
                });
            if !joined {
                self.entries.push(Entry {
                    dst,
                    first: self.iovs.len(),
                    segments: 1,
                    bytes: len,
                    seg_size: len,
                    closed: false,
                });
            }
            self.iovs.push(ffi::IoVec {
                base: payload.as_ptr().cast_mut(),
                len,
            });
        }
        // Pointers last: every vector they point into is full by now,
        // so none of them moves before the syscall.
        self.addrs.clear();
        self.cmsgs.clear();
        self.hdrs.clear();
        for run in &self.entries {
            self.addrs.push(ffi::SockAddrIn::from_v4(&run.dst));
            self.cmsgs.push(ffi::SegmentCmsg::new(
                u16::try_from(run.seg_size).unwrap_or(u16::MAX),
            ));
        }
        for (i, run) in self.entries.iter().enumerate() {
            let (control, controllen) = if run.segments > 1 {
                (self.cmsgs[i].0.as_mut_ptr(), ffi::SEGMENT_CMSG_SPACE)
            } else {
                (std::ptr::null_mut(), 0)
            };
            self.hdrs.push(ffi::MMsgHdr {
                hdr: ffi::MsgHdr {
                    name: &mut self.addrs[i],
                    namelen: u32::try_from(std::mem::size_of::<ffi::SockAddrIn>()).unwrap_or(16),
                    iov: &mut self.iovs[run.first],
                    iovlen: run.segments,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            });
        }
    }

    /// `sendmmsg` the staged entries; returns how many the kernel took
    /// (`WouldBlock` folded into `Ok(0)`).
    fn send(&mut self, fd: RawFd, ctr: &SyscallCounter) -> io::Result<usize> {
        ctr.bump();
        match ffi::sendmmsg_nb(fd, &mut self.hdrs) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// Send up to one batch of `(destination, payload)` datagrams with a
/// single `sendmmsg`, one message per datagram. Returns how many of the
/// first `msgs.len()` messages were sent; `Ok(0)` with a non-empty
/// input means the socket buffer is full (`WouldBlock` folded in, so
/// callers treat it as backpressure rather than an error).
pub fn send_batch(
    fd: RawFd,
    scratch: &mut SendScratch,
    msgs: &[(SocketAddrV4, &[u8])],
    ctr: &SyscallCounter,
) -> io::Result<usize> {
    if msgs.is_empty() {
        return Ok(0);
    }
    scratch.stage(msgs.iter().copied(), false);
    scratch.send(fd, ctr)
}

/// What one [`send_frames`] call handed to the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    /// Frames offered.
    pub offered: usize,
    /// Frames the kernel took — always a prefix of those offered.
    pub frames: usize,
    /// Segmented messages among those taken.
    pub gso_sends: u64,
    /// Datagrams inside those segmented messages.
    pub gso_frames: u64,
}

/// Why a [`send_frames`] call sent nothing.
#[derive(Debug)]
pub enum SendError {
    /// The kernel refused to segment the first message (see
    /// [`ffi::refuses_segmentation`]); resending unsegmented may work.
    SegmentationRefused,
    /// Any other error on the first message.
    Io(io::Error),
}

/// Send `frames` in order with a single `sendmmsg`, each run of
/// same-destination, same-length frames as one `UDP_SEGMENT` message
/// when `segment` is set (see [`SendScratch::stage`]); the kernel cuts
/// each back into the identical datagrams. `WouldBlock` is
/// `Ok` with fewer frames taken than offered.
pub fn send_frames<'a>(
    fd: RawFd,
    scratch: &mut SendScratch,
    frames: impl IntoIterator<Item = (SocketAddrV4, &'a [u8])>,
    segment: bool,
    ctr: &SyscallCounter,
) -> Result<Sent, SendError> {
    scratch.stage(frames, segment);
    let mut sent = Sent {
        offered: scratch.iovs.len(),
        ..Sent::default()
    };
    let Some(head) = scratch.entries.first().copied() else {
        return Ok(sent);
    };
    match scratch.send(fd, ctr) {
        Ok(n) => {
            for run in &scratch.entries[..n] {
                sent.frames += run.segments;
                if run.segments > 1 {
                    sent.gso_sends += 1;
                    sent.gso_frames += run.segments as u64;
                }
            }
            Ok(sent)
        }
        Err(e) if head.segments > 1 && ffi::refuses_segmentation(&e) => {
            Err(SendError::SegmentationRefused)
        }
        Err(e) => Err(SendError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;
    use std::os::unix::io::AsRawFd;

    fn dst(port: u16) -> SocketAddrV4 {
        SocketAddrV4::new([127, 0, 0, 1].into(), port)
    }

    /// Stage `(destination port, length)` frames with segmentation on
    /// and return the scratch plus each entry as `(port, segment
    /// lengths)`.
    fn stage(frames: &[(u16, usize)]) -> (SendScratch, Vec<(u16, Vec<usize>)>) {
        let buf = vec![0u8; 65_535];
        let mut scratch = SendScratch::new();
        scratch.stage(frames.iter().map(|&(p, len)| (dst(p), &buf[..len])), true);
        let runs = scratch
            .entries
            .iter()
            .map(|run| {
                let lens = scratch.iovs[run.first..run.first + run.segments]
                    .iter()
                    .map(|iov| iov.len)
                    .collect();
                (run.dst.port(), lens)
            })
            .collect();
        (scratch, runs)
    }

    #[test]
    fn a_shorter_frame_closes_its_run() {
        let (_, runs) = stage(&[(1, 100), (1, 100), (1, 60), (1, 60), (1, 60)]);
        assert_eq!(runs, [(1, vec![100, 100, 60]), (1, vec![60, 60])]);
    }

    #[test]
    fn a_longer_frame_starts_a_new_run() {
        let (_, runs) = stage(&[(1, 60), (1, 60), (1, 100), (1, 100)]);
        assert_eq!(runs, [(1, vec![60, 60]), (1, vec![100, 100])]);
    }

    #[test]
    fn runs_stop_at_the_segment_cap() {
        let (_, runs) = stage(&[(1, 40); 130]);
        let sizes: Vec<usize> = runs.iter().map(|(_, lens)| lens.len()).collect();
        assert_eq!(sizes, [GSO_MAX_SEGMENTS, GSO_MAX_SEGMENTS, 2]);
    }

    #[test]
    fn runs_stop_at_the_byte_cap() {
        // 43 × 1,500 = 64,500 fits under 65,507; a 44th would not.
        let (_, runs) = stage(&[(1, 1500); 50]);
        let sizes: Vec<usize> = runs.iter().map(|(_, lens)| lens.len()).collect();
        assert_eq!(sizes, [43, 7]);
        // Exactly at the cap joins; one byte over does not.
        let (_, runs) = stage(&[(1, 32_753), (1, 32_753), (1, 1)]);
        assert_eq!(runs, [(1, vec![32_753, 32_753, 1])]);
        let (_, runs) = stage(&[(1, 32_753), (1, 32_753), (1, 2)]);
        assert_eq!(runs, [(1, vec![32_753, 32_753]), (1, vec![2])]);
    }

    #[test]
    fn same_ip_on_another_port_is_another_destination() {
        let (_, runs) = stage(&[(1, 40), (2, 40), (2, 40), (1, 40)]);
        assert_eq!(runs, [(1, vec![40]), (2, vec![40, 40]), (1, vec![40])]);
    }

    #[test]
    fn only_multi_frame_runs_carry_a_segment_cmsg() {
        let (scratch, runs) = stage(&[(1, 40), (2, 1500), (2, 1500), (2, 700)]);
        assert_eq!(runs, [(1, vec![40]), (2, vec![1500, 1500, 700])]);
        let (single, run) = (&scratch.hdrs[0].hdr, &scratch.hdrs[1].hdr);
        assert!(single.control.is_null());
        assert_eq!((single.controllen, single.iovlen), (0, 1));
        assert_eq!((run.controllen, run.iovlen), (ffi::SEGMENT_CMSG_SPACE, 3));
        assert_eq!(run.control, scratch.cmsgs[1].0.as_ptr().cast_mut());
        // cmsghdr: cmsg_len == CMSG_LEN(2) exactly, SOL_UDP, UDP_SEGMENT,
        // then the segment size.
        let cmsg = scratch.cmsgs[1].0;
        let w = std::mem::size_of::<usize>();
        let len = usize::from_ne_bytes(cmsg[..w].try_into().unwrap_or_default());
        assert_eq!(len, ffi::SEGMENT_CMSG_LEN);
        assert_eq!(cmsg[w..w + 4], 17i32.to_ne_bytes());
        assert_eq!(cmsg[w + 4..w + 8], 103i32.to_ne_bytes());
        assert_eq!(cmsg[len - 2..len], 1500u16.to_ne_bytes());
        #[cfg(target_pointer_width = "64")]
        assert_eq!((ffi::SEGMENT_CMSG_LEN, ffi::SEGMENT_CMSG_SPACE), (18, 24));
    }

    /// The arena's buffers are staggered in one block, but each still
    /// takes a whole datagram: a full batch whose last datagram is the
    /// largest UDP payload IPv4 carries arrives whole and in order.
    #[test]
    fn a_full_batch_ending_in_the_largest_datagram_arrives_whole() {
        use std::net::UdpSocket;
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind receiver");
        rx.set_nonblocking(true).expect("nonblocking");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let sent: Vec<Vec<u8>> = (0..64u8)
            .map(|i| match i {
                63 => (0..=255u8).cycle().take(GSO_MAX_BYTES).collect(),
                _ => vec![i; 40 + usize::from(i)],
            })
            .collect();
        for payload in &sent {
            tx.send_to(payload, rx.local_addr().expect("addr"))
                .expect("send");
        }
        let mut arena = RecvArena::new(64, 65_535);
        let ctr = SyscallCounter::new();
        let n = recv_batch(rx.as_raw_fd(), &mut arena, &ctr).expect("recvmmsg");
        assert_eq!(n, 64);
        let got: Vec<&[u8]> = arena.frames().map(|(bytes, _)| bytes).collect();
        assert_eq!(got[63].len(), GSO_MAX_BYTES);
        assert!(got.iter().zip(&sent).all(|(got, sent)| got == sent));
        let from = tx.local_addr().expect("addr");
        assert!(arena.frames().all(|(_, addr)| SocketAddr::V4(addr) == from));
    }

    #[test]
    fn unsegmented_staging_is_one_message_per_datagram() {
        let buf = [7u8; 64];
        let msgs = [(dst(1), &buf[..]); 5];
        let mut scratch = SendScratch::new();
        scratch.stage(msgs.iter().copied(), false);
        assert_eq!(scratch.hdrs.len(), 5);
        for hdr in &scratch.hdrs {
            assert_eq!((hdr.hdr.iovlen, hdr.hdr.controllen), (1, 0));
        }
    }
}
