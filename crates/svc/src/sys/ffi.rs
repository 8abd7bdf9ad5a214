//! Raw Linux syscall surface for the event-driven bridge backend.
//!
//! This file is the crate's **entire unsafe-FFI audit boundary**: every
//! `unsafe` block in `crates/svc` lives here (CI greps for exactly
//! that). The bindings are hand-declared against the stable Linux
//! syscall wrappers glibc/musl export — the no-new-dependencies rule
//! rules out the `libc` crate — and each wrapper below upholds the
//! narrow contract its syscall needs:
//!
//! * every pointer handed to the kernel is derived from a live Rust
//!   borrow that outlives the call (the call is synchronous; the
//!   kernel keeps no reference after return);
//! * every length passed is the length of the borrow it describes;
//! * file descriptors are owned by the RAII types in [`super`] and
//!   closed exactly once.
//!
//! Struct layouts mirror the kernel ABI for x86-64/aarch64 Linux:
//! `epoll_event` is packed on x86-64 only (a kernel quirk — the struct
//! predates the 64-bit port), and `msghdr` uses `size_t` for
//! `msg_iovlen`/`msg_controllen` per POSIX-on-glibc.
#![allow(unsafe_code)]
#![allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use std::io;
use std::net::SocketAddrV4;
use std::os::unix::io::RawFd;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CLOEXEC: i32 = 0x8_0000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x8_0000;
const MSG_DONTWAIT: i32 = 0x40;
const AF_INET: u16 = 2;
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
#[cfg(test)]
const SOL_SOCKET: i32 = 1;
#[cfg(test)]
const SO_NO_CHECK: i32 = 11;
const EIO: i32 = 5;
const EINVAL: i32 = 22;
const ENOPROTOOPT: i32 = 92;

/// `struct iovec` — one scatter/gather segment.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct IoVec {
    pub base: *mut u8,
    pub len: usize,
}

/// `struct sockaddr_in` — IPv4 socket address, fields in network byte
/// order.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct SockAddrIn {
    pub family: u16,
    pub port_be: u16,
    pub addr_be: u32,
    pub zero: [u8; 8],
}

impl SockAddrIn {
    pub fn zeroed() -> SockAddrIn {
        SockAddrIn {
            family: 0,
            port_be: 0,
            addr_be: 0,
            zero: [0; 8],
        }
    }

    pub fn from_v4(addr: &SocketAddrV4) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET,
            port_be: addr.port().to_be(),
            addr_be: u32::from_be_bytes(addr.ip().octets()).to_be(),
            zero: [0; 8],
        }
    }

    pub fn to_v4(self) -> SocketAddrV4 {
        SocketAddrV4::new(
            u32::from_be(self.addr_be).to_be_bytes().into(),
            u16::from_be(self.port_be),
        )
    }
}

/// `struct msghdr` (glibc layout: `size_t msg_iovlen`).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct MsgHdr {
    pub name: *mut SockAddrIn,
    pub namelen: u32,
    pub iov: *mut IoVec,
    pub iovlen: usize,
    pub control: *mut u8,
    pub controllen: usize,
    pub flags: i32,
}

impl MsgHdr {
    pub fn zeroed() -> MsgHdr {
        MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: std::ptr::null_mut(),
            iovlen: 0,
            control: std::ptr::null_mut(),
            controllen: 0,
            flags: 0,
        }
    }
}

/// `struct mmsghdr` — one slot of a `recvmmsg`/`sendmmsg` vector.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct MMsgHdr {
    pub hdr: MsgHdr,
    pub len: u32,
}

impl MMsgHdr {
    pub fn zeroed() -> MMsgHdr {
        MMsgHdr {
            hdr: MsgHdr::zeroed(),
            len: 0,
        }
    }
}

// SAFETY: these are plain-old-data syscall descriptors. The pointers
// inside are dead between calls — [`super::recv_batch`] /
// [`super::SendScratch`] rebuild every one from live borrows of the
// owning arena immediately before the (synchronous) syscall that
// consumes them — so moving the containing arena across threads moves
// no aliased state.
unsafe impl Send for IoVec {}
unsafe impl Send for MsgHdr {}
unsafe impl Send for MMsgHdr {}

/// Whether `e` is how a kernel refuses to segment a `UDP_SEGMENT`
/// message: `EINVAL` (segment plus headers over the route MTU,
/// `SO_NO_CHECK`, or a pre-4.18 kernel), `EIO` (xfrm route, no checksum
/// offload) or `ENOPROTOOPT`.
pub fn refuses_segmentation(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(EIO | EINVAL | ENOPROTOOPT))
}

/// `CMSG_ALIGN`: control-message parts are padded to `size_t`.
const fn cmsg_align(len: usize) -> usize {
    let a = std::mem::size_of::<usize>();
    (len + a - 1) & !(a - 1)
}

/// `sizeof(struct cmsghdr)`: `size_t cmsg_len; int cmsg_level; int
/// cmsg_type;` (glibc layout).
const CMSG_HDR: usize = cmsg_align(std::mem::size_of::<usize>() + 8);

/// `CMSG_LEN(sizeof(u16))` — the exact `cmsg_len` the kernel demands of
/// a `UDP_SEGMENT` message (anything else is `EINVAL`).
pub const SEGMENT_CMSG_LEN: usize = CMSG_HDR + 2;

/// `CMSG_SPACE(sizeof(u16))` — the `msg_controllen` of a message that
/// carries one `UDP_SEGMENT` control message.
pub const SEGMENT_CMSG_SPACE: usize = CMSG_HDR + cmsg_align(2);

/// One `SOL_UDP`/`UDP_SEGMENT` control message as the kernel reads it:
/// a `cmsghdr`, the `u16` segment size, and padding to `CMSG_SPACE`.
/// Built from plain bytes, so constructing one is safe code.
#[repr(C, align(8))]
#[derive(Clone, Copy)]
pub struct SegmentCmsg(pub [u8; SEGMENT_CMSG_SPACE]);

impl SegmentCmsg {
    /// The control message telling the kernel to cut the message's
    /// payload into `gso_size`-byte datagrams (the last may be short).
    pub fn new(gso_size: u16) -> SegmentCmsg {
        let mut b = [0u8; SEGMENT_CMSG_SPACE];
        let w = std::mem::size_of::<usize>();
        b[..w].copy_from_slice(&SEGMENT_CMSG_LEN.to_ne_bytes());
        b[w..w + 4].copy_from_slice(&SOL_UDP.to_ne_bytes());
        b[w + 4..w + 8].copy_from_slice(&UDP_SEGMENT.to_ne_bytes());
        b[CMSG_HDR..CMSG_HDR + 2].copy_from_slice(&gso_size.to_ne_bytes());
        SegmentCmsg(b)
    }
}

/// `struct epoll_event`. Packed on x86-64 (kernel ABI quirk).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn recvmmsg(
        fd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut core::ffi::c_void,
    ) -> i32;
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
}

#[cfg(test)]
extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

fn rc_to_result(rc: i32) -> io::Result<i32> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// Create a close-on-exec epoll instance.
pub fn epoll_create() -> io::Result<RawFd> {
    // SAFETY: no pointers; returns a new fd or -1.
    rc_to_result(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, token };
    // SAFETY: `ev` lives across the synchronous call; DEL ignores it.
    rc_to_result(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
}

pub fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
}

pub fn epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Wait for events; `timeout_ms < 0` blocks indefinitely. Returns how
/// many slots of `events` were filled.
pub fn epoll_pwait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    let cap = i32::try_from(events.len()).unwrap_or(i32::MAX).max(1);
    // SAFETY: `events` is a live mutable borrow of at least `cap`
    // slots for the duration of the call.
    let rc = unsafe { epoll_wait(epfd, events.as_mut_ptr(), cap, timeout_ms) };
    rc_to_result(rc).map(|n| n as usize)
}

/// Create a nonblocking close-on-exec eventfd.
pub fn eventfd_create() -> io::Result<RawFd> {
    // SAFETY: no pointers.
    rc_to_result(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })
}

/// Add 1 to an eventfd counter (wakes any epoll watching it).
pub fn eventfd_signal(fd: RawFd) -> io::Result<()> {
    let one = 1u64.to_ne_bytes();
    // SAFETY: `one` is 8 live bytes, the size an eventfd write needs.
    let rc = unsafe { write(fd, one.as_ptr(), one.len()) };
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// Reset an eventfd counter to 0 (ignores "already empty").
pub fn eventfd_drain(fd: RawFd) {
    let mut buf = [0u8; 8];
    // SAFETY: `buf` is 8 live bytes; EAGAIN on empty is fine.
    let _ = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
}

/// Close an fd owned by one of the RAII types in [`super`].
pub fn close_fd(fd: RawFd) {
    // SAFETY: the caller owns `fd` and calls this exactly once (Drop).
    let _ = unsafe { close(fd) };
}

/// Nonblocking `recvmmsg`. The caller guarantees every pointer inside
/// `msgs` (names, iovecs, buffers) refers to storage that is live and
/// exclusively borrowed for the duration of the call — the
/// [`super::RecvArena`] rebuilds them from its own buffers immediately
/// before calling. Returns the number of slots filled.
pub fn recvmmsg_nb(fd: RawFd, msgs: &mut [MMsgHdr]) -> io::Result<usize> {
    let vlen = u32::try_from(msgs.len()).unwrap_or(u32::MAX);
    // SAFETY: slot pointers are live per this function's contract; the
    // call is synchronous and the kernel holds no reference after it.
    let rc = unsafe {
        recvmmsg(
            fd,
            msgs.as_mut_ptr(),
            vlen,
            MSG_DONTWAIT,
            std::ptr::null_mut(),
        )
    };
    rc_to_result(rc).map(|n| n as usize)
}

/// Set `SO_NO_CHECK` (send UDP without checksums) on `fd`, a socket
/// state under which Linux refuses `UDP_SEGMENT` with `EINVAL`.
#[cfg(test)]
pub fn set_no_check(fd: RawFd) -> io::Result<()> {
    let one: i32 = 1;
    // SAFETY: `one` is a live 4-byte int for the synchronous call, and
    // the length passed is its size.
    rc_to_result(unsafe { setsockopt(fd, SOL_SOCKET, SO_NO_CHECK, &one, 4) }).map(|_| ())
}

/// Nonblocking `sendmmsg`; same pointer contract as [`recvmmsg_nb`],
/// control-message buffers included ([`super::SendScratch`] rebuilds
/// them alongside the names and iovecs).
/// Returns how many messages were fully sent (datagram sockets send
/// each message atomically — a `UDP_SEGMENT` message included: it is
/// one buffer in the kernel until segmentation).
pub fn sendmmsg_nb(fd: RawFd, msgs: &mut [MMsgHdr]) -> io::Result<usize> {
    let vlen = u32::try_from(msgs.len()).unwrap_or(u32::MAX);
    // SAFETY: as for recvmmsg_nb — pointers live, call synchronous.
    let rc = unsafe { sendmmsg(fd, msgs.as_mut_ptr(), vlen, MSG_DONTWAIT) };
    rc_to_result(rc).map(|n| n as usize)
}
