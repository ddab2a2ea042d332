//! `SCM_RIGHTS` fd passing and the attach-broker hello wire protocol.
//!
//! The attach broker (in `powerdial-control`) hands memfd-backed segments
//! to unrelated connecting processes over a Unix domain socket. This
//! module owns the two low-level pieces both ends share:
//!
//! * [`send_with_fd`] / [`recv_exact_with_fd`] — `sendmsg`/`recvmsg`
//!   wrappers carrying at most one file descriptor in an `SCM_RIGHTS`
//!   ancillary message (Linux only; received fds are opened
//!   close-on-exec via `MSG_CMSG_CLOEXEC`);
//! * [`HelloRequest`] / [`HelloReply`] — the fixed-size, little-endian
//!   hello exchange that precedes the fd transfer.
//!
//! # Wire protocol
//!
//! The connecting client speaks first:
//!
//! ```text
//! HelloRequest (24 bytes):  magic "PDBRKHLO" (u64 LE)
//!                           abi_version (u32 LE)   client's SEGMENT_ABI_VERSION
//!                           flags (u32 LE)         0, or HELLO_FLAG_REATTACH
//!                           capacity (u64 LE)      requested ring capacity
//! HelloReply   (16 bytes):  magic "PDBRKRPY" (u64 LE)
//!                           status (u32 LE)        HelloStatus
//!                           abi_version (u32 LE)   broker's SEGMENT_ABI_VERSION
//! ```
//!
//! On [`HelloStatus::Granted`] the reply bytes travel together with the
//! segment fd in the same `sendmsg`, so a client that read a granted
//! reply is guaranteed the ancillary fd accompanied it (stream sockets
//! deliver ancillary data with the first byte of the paired payload). Any
//! other status carries no fd and the broker closes the connection.
//!
//! # Reattach (daemon crash recovery)
//!
//! A client that survived a daemon crash still holds its mapped segment;
//! re-registering with a fresh segment would discard every beat pushed
//! across the outage. Instead it sends a hello with
//! [`HELLO_FLAG_REATTACH`] set and its *existing* segment fd riding in
//! the hello's own `SCM_RIGHTS` ancillary data (the reverse direction of
//! the grant). The broker validates and adopts that segment — a granted
//! reattach reply carries **no** fd back. Brokers predating this flag
//! refuse any nonzero flags as [`HelloStatus::Malformed`], which a
//! reattaching client treats as "re-register from scratch": cross-version
//! behavior degrades to the old protocol instead of wedging.
//!
//! Everything here is length-prefixed-free and fixed-size on purpose: a
//! malformed, truncated, or hostile peer can produce a *decode failure*
//! (handled, typed) but never an unbounded read.

use std::fmt;

use crate::shm::layout::SEGMENT_ABI_VERSION;

/// First 8 bytes of every [`HelloRequest`].
pub const HELLO_REQUEST_MAGIC: u64 = u64::from_le_bytes(*b"PDBRKHLO");
/// First 8 bytes of every [`HelloReply`].
pub const HELLO_REPLY_MAGIC: u64 = u64::from_le_bytes(*b"PDBRKRPY");
/// Encoded size of a [`HelloRequest`].
pub const HELLO_REQUEST_LEN: usize = 24;
/// Encoded size of a [`HelloReply`].
pub const HELLO_REPLY_LEN: usize = 16;

/// [`HelloRequest::flags`] bit: this hello is a *reattach* — the client's
/// existing segment fd rides in the hello's own `SCM_RIGHTS` ancillary
/// data for the broker to adopt, and a granted reply carries no fd back.
pub const HELLO_FLAG_REATTACH: u32 = 1;

/// Mask of every [`HelloRequest::flags`] bit this build understands;
/// brokers refuse anything outside it as [`HelloStatus::Malformed`].
pub const HELLO_FLAGS_KNOWN: u32 = HELLO_FLAG_REATTACH;

/// The client's opening message: who it is (ABI) and what it wants
/// (ring capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloRequest {
    /// The client's [`SEGMENT_ABI_VERSION`]; the broker refuses a
    /// mismatch ([`HelloStatus::WrongAbi`]) instead of handing over a
    /// segment the client would misinterpret.
    pub abi_version: u32,
    /// Capability bits ([`HELLO_FLAG_REATTACH`] is the only one defined);
    /// brokers reject unknown bits as malformed, so the field stays room
    /// for future negotiation without a magic bump.
    pub flags: u32,
    /// Requested beat-ring capacity in records (the broker clamps to its
    /// configured maximum and rounds to a power of two). On a reattach
    /// the field carries the existing ring's capacity, informationally —
    /// the broker re-derives geometry from the adopted segment itself.
    pub capacity: u64,
}

impl HelloRequest {
    /// A well-formed request for this build's ABI.
    pub fn new(capacity: u64) -> Self {
        HelloRequest {
            abi_version: SEGMENT_ABI_VERSION,
            flags: 0,
            capacity,
        }
    }

    /// A reattach request for this build's ABI: the sender must attach
    /// its existing segment fd to the hello via [`send_with_fd`].
    pub fn reattach(capacity: u64) -> Self {
        HelloRequest {
            abi_version: SEGMENT_ABI_VERSION,
            flags: HELLO_FLAG_REATTACH,
            capacity,
        }
    }

    /// True when this hello asks to reattach an existing segment.
    pub fn is_reattach(&self) -> bool {
        self.flags & HELLO_FLAG_REATTACH != 0
    }

    /// Encodes to the fixed wire form.
    pub fn encode(&self) -> [u8; HELLO_REQUEST_LEN] {
        let mut bytes = [0u8; HELLO_REQUEST_LEN];
        bytes[0..8].copy_from_slice(&HELLO_REQUEST_MAGIC.to_le_bytes());
        bytes[8..12].copy_from_slice(&self.abi_version.to_le_bytes());
        bytes[12..16].copy_from_slice(&self.flags.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.capacity.to_le_bytes());
        bytes
    }

    /// Decodes the fixed wire form; `None` on a bad magic (anything else
    /// in the buffer is structurally valid and judged by the broker).
    pub fn decode(bytes: &[u8; HELLO_REQUEST_LEN]) -> Option<Self> {
        let magic = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        if magic != HELLO_REQUEST_MAGIC {
            return None;
        }
        Some(HelloRequest {
            abi_version: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            flags: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
            capacity: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        })
    }
}

/// The broker's verdict on a [`HelloRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum HelloStatus {
    /// Attach granted; the segment fd rides along in the same message.
    Granted = 0,
    /// The client's ABI version is not this broker's.
    WrongAbi = 1,
    /// The request was structurally invalid (bad magic, nonzero reserved
    /// flags, zero or absurd capacity).
    Malformed = 2,
    /// The broker is at its configured app capacity; retry later.
    Busy = 3,
    /// Segment creation failed (fd exhaustion, memfd failure); the
    /// broker itself survives, the one attach does not.
    Resources = 4,
}

impl HelloStatus {
    /// Decodes the wire value.
    pub fn from_u32(value: u32) -> Option<Self> {
        Some(match value {
            0 => HelloStatus::Granted,
            1 => HelloStatus::WrongAbi,
            2 => HelloStatus::Malformed,
            3 => HelloStatus::Busy,
            4 => HelloStatus::Resources,
            _ => return None,
        })
    }
}

impl fmt::Display for HelloStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            HelloStatus::Granted => "granted",
            HelloStatus::WrongAbi => "ABI version mismatch",
            HelloStatus::Malformed => "malformed hello",
            HelloStatus::Busy => "broker at capacity",
            HelloStatus::Resources => "broker out of resources",
        };
        f.write_str(text)
    }
}

/// The broker's reply to a [`HelloRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloReply {
    /// The verdict.
    pub status: HelloStatus,
    /// The broker's [`SEGMENT_ABI_VERSION`], so a refused client can log
    /// *which* ABI it should have spoken.
    pub abi_version: u32,
}

impl HelloReply {
    /// A reply carrying `status` and this build's ABI version.
    pub fn new(status: HelloStatus) -> Self {
        HelloReply {
            status,
            abi_version: SEGMENT_ABI_VERSION,
        }
    }

    /// Encodes to the fixed wire form.
    pub fn encode(&self) -> [u8; HELLO_REPLY_LEN] {
        let mut bytes = [0u8; HELLO_REPLY_LEN];
        bytes[0..8].copy_from_slice(&HELLO_REPLY_MAGIC.to_le_bytes());
        bytes[8..12].copy_from_slice(&(self.status as u32).to_le_bytes());
        bytes[12..16].copy_from_slice(&self.abi_version.to_le_bytes());
        bytes
    }

    /// Decodes the fixed wire form; `None` on a bad magic or an unknown
    /// status value.
    pub fn decode(bytes: &[u8; HELLO_REPLY_LEN]) -> Option<Self> {
        let magic = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        if magic != HELLO_REPLY_MAGIC {
            return None;
        }
        let status = HelloStatus::from_u32(u32::from_le_bytes(bytes[8..12].try_into().unwrap()))?;
        Some(HelloReply {
            status,
            abi_version: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        })
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Just enough of the Linux `sendmsg`/`recvmsg` ABI (glibc x86-64 /
    //! aarch64 layout) to move one fd. Mirrors the style of
    //! `segment::sys`: direct declarations, no libc crate.
    #![allow(missing_docs, clippy::missing_safety_doc)]

    use std::os::raw::{c_int, c_uint, c_void};

    #[repr(C)]
    pub struct iovec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    #[repr(C)]
    pub struct msghdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: c_uint,
        pub msg_iov: *mut iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: c_int,
    }

    #[repr(C)]
    pub struct cmsghdr {
        pub cmsg_len: usize,
        pub cmsg_level: c_int,
        pub cmsg_type: c_int,
    }

    pub const SOL_SOCKET: c_int = 1;
    pub const SCM_RIGHTS: c_int = 1;
    pub const MSG_CMSG_CLOEXEC: c_int = 0x4000_0000;
    pub const MSG_NOSIGNAL: c_int = 0x4000;

    /// `CMSG_LEN(size_of::<c_int>())`: header plus one fd, unpadded.
    pub const CMSG_LEN_ONE_FD: usize = std::mem::size_of::<cmsghdr>() + 4;
    /// `CMSG_SPACE(size_of::<c_int>())`: one-fd message, padded to 8.
    pub const CMSG_SPACE_ONE_FD: usize = (CMSG_LEN_ONE_FD + 7) & !7;

    extern "C" {
        pub fn sendmsg(sockfd: c_int, msg: *const msghdr, flags: c_int) -> isize;
        pub fn recvmsg(sockfd: c_int, msg: *mut msghdr, flags: c_int) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Sends `bytes` over `socket` with `fd` (if any) attached as a single
/// `SCM_RIGHTS` ancillary descriptor, in one `sendmsg`.
///
/// The payload must be small enough to go out in one call (the hello
/// messages are ≤ 24 bytes, far below any socket buffer); a short send is
/// reported as [`std::io::ErrorKind::WriteZero`] rather than looped,
/// because splitting the payload would detach the ancillary fd from its
/// first byte.
///
/// # Errors
///
/// Any `sendmsg` failure (`EINTR` is retried), or `WriteZero` on a short
/// send. The send is `MSG_NOSIGNAL`: a peer that vanished before the
/// reply reached it surfaces as `EPIPE` instead of raising `SIGPIPE` —
/// a daemon that never installed a handler (or runs outside a Rust
/// binary's SIGPIPE-ignoring startup) must not die because one client
/// disconnected early.
#[cfg(target_os = "linux")]
pub fn send_with_fd(
    socket: &std::os::unix::net::UnixStream,
    bytes: &[u8],
    fd: Option<std::os::fd::RawFd>,
) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::c_void;

    // 8-aligned backing store for the control message (cmsghdr wants the
    // platform's natural alignment).
    let mut control = [0u64; sys::CMSG_SPACE_ONE_FD.div_ceil(8)];
    let mut iov = sys::iovec {
        iov_base: bytes.as_ptr() as *mut c_void,
        iov_len: bytes.len(),
    };
    // SAFETY: an all-zero msghdr is the valid "no name, no control"
    // state; every pointer field is initialized before use below.
    let mut msg: sys::msghdr = unsafe { std::mem::zeroed() };
    msg.msg_iov = &mut iov;
    msg.msg_iovlen = 1;
    if let Some(fd) = fd {
        msg.msg_control = control.as_mut_ptr() as *mut c_void;
        msg.msg_controllen = sys::CMSG_SPACE_ONE_FD;
        let cmsg = msg.msg_control as *mut sys::cmsghdr;
        // SAFETY: `control` is CMSG_SPACE_ONE_FD bytes of 8-aligned
        // storage, enough for the header and the one c_int that follows.
        unsafe {
            (*cmsg).cmsg_len = sys::CMSG_LEN_ONE_FD;
            (*cmsg).cmsg_level = sys::SOL_SOCKET;
            (*cmsg).cmsg_type = sys::SCM_RIGHTS;
            (cmsg.add(1) as *mut std::os::raw::c_int).write_unaligned(fd);
        }
    }
    loop {
        // SAFETY: `msg` and everything it points to live across the call.
        let sent = unsafe { sys::sendmsg(socket.as_raw_fd(), &msg, sys::MSG_NOSIGNAL) };
        if sent < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        if sent as usize != bytes.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "short sendmsg would detach the ancillary fd",
            ));
        }
        return Ok(());
    }
}

/// Receives exactly `buf.len()` bytes from `socket`, harvesting at most
/// one `SCM_RIGHTS` fd from the ancillary data of any chunk (surplus fds
/// a hostile peer piles on are closed, not leaked). Received fds are
/// `MSG_CMSG_CLOEXEC`.
///
/// # Errors
///
/// [`std::io::ErrorKind::UnexpectedEof`] when the peer closes before the
/// buffer fills (the truncated-hello case); `TimedOut`/`WouldBlock` when
/// the socket's read timeout expires (the slow-loris case); any other
/// `recvmsg` failure verbatim. An fd already harvested is closed on the
/// error paths by `OwnedFd`'s drop.
#[cfg(target_os = "linux")]
pub fn recv_exact_with_fd(
    socket: &std::os::unix::net::UnixStream,
    buf: &mut [u8],
) -> std::io::Result<Option<std::os::fd::OwnedFd>> {
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_void};

    let mut received: Option<OwnedFd> = None;
    let mut filled = 0usize;
    while filled < buf.len() {
        let mut control = [0u64; sys::CMSG_SPACE_ONE_FD.div_ceil(8)];
        let mut iov = sys::iovec {
            iov_base: buf[filled..].as_mut_ptr() as *mut c_void,
            iov_len: buf.len() - filled,
        };
        // SAFETY: as in `send_with_fd`.
        let mut msg: sys::msghdr = unsafe { std::mem::zeroed() };
        msg.msg_iov = &mut iov;
        msg.msg_iovlen = 1;
        msg.msg_control = control.as_mut_ptr() as *mut c_void;
        msg.msg_controllen = sys::CMSG_SPACE_ONE_FD;
        // SAFETY: `msg` and everything it points to live across the call.
        let got = unsafe { sys::recvmsg(socket.as_raw_fd(), &mut msg, sys::MSG_CMSG_CLOEXEC) };
        if got < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        if got == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed mid-message",
            ));
        }
        filled += got as usize;

        // Harvest at most one fd; close everything beyond it. The control
        // buffer only has room for one cmsg, and MSG_CTRUNC-dropped fds
        // are closed by the kernel, so nothing can leak past this loop.
        if msg.msg_controllen >= sys::CMSG_LEN_ONE_FD {
            let cmsg = msg.msg_control as *const sys::cmsghdr;
            // SAFETY: the kernel wrote a valid cmsghdr of at least
            // CMSG_LEN_ONE_FD bytes into our aligned control buffer.
            let (len, level, typ) =
                unsafe { ((*cmsg).cmsg_len, (*cmsg).cmsg_level, (*cmsg).cmsg_type) };
            if level == sys::SOL_SOCKET && typ == sys::SCM_RIGHTS && len >= sys::CMSG_LEN_ONE_FD {
                let count = (len - std::mem::size_of::<sys::cmsghdr>()) / 4;
                for index in 0..count {
                    // SAFETY: `count` fds follow the header per cmsg_len,
                    // all within our control buffer.
                    let fd = unsafe { (cmsg.add(1) as *const c_int).add(index).read_unaligned() };
                    if received.is_none() {
                        // SAFETY: the kernel just granted us this fd; we
                        // are its unique owner.
                        received = Some(unsafe { OwnedFd::from_raw_fd(fd) });
                    } else {
                        // SAFETY: ditto, and nothing else holds it.
                        unsafe { sys::close(fd) };
                    }
                }
            }
        }
    }
    Ok(received)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_request_round_trips() {
        let request = HelloRequest::new(256);
        let bytes = request.encode();
        assert_eq!(bytes.len(), HELLO_REQUEST_LEN);
        assert_eq!(HelloRequest::decode(&bytes), Some(request));

        let mut bad = bytes;
        bad[0] ^= 0xff;
        assert_eq!(HelloRequest::decode(&bad), None, "wrong magic");
    }

    #[test]
    fn reattach_hello_round_trips_and_flags_decode() {
        let request = HelloRequest::reattach(128);
        assert!(request.is_reattach());
        assert!(!HelloRequest::new(128).is_reattach());
        let decoded = HelloRequest::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
        assert!(decoded.is_reattach());
        assert_eq!(HELLO_FLAGS_KNOWN & HELLO_FLAG_REATTACH, HELLO_FLAG_REATTACH);
    }

    #[test]
    fn hello_reply_round_trips_and_rejects_unknown_status() {
        for status in [
            HelloStatus::Granted,
            HelloStatus::WrongAbi,
            HelloStatus::Malformed,
            HelloStatus::Busy,
            HelloStatus::Resources,
        ] {
            let reply = HelloReply::new(status);
            assert_eq!(HelloReply::decode(&reply.encode()), Some(reply));
        }
        let mut bytes = HelloReply::new(HelloStatus::Granted).encode();
        bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(HelloReply::decode(&bytes), None, "unknown status");
        bytes = HelloReply::new(HelloStatus::Granted).encode();
        bytes[3] ^= 0x01;
        assert_eq!(HelloReply::decode(&bytes), None, "wrong magic");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn fd_rides_along_with_payload() {
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        use std::sync::atomic::Ordering;

        use crate::shm::layout::SegmentGeometry;
        use crate::shm::segment::Segment;

        let (ours, theirs) = UnixStream::pair().unwrap();
        let segment = Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap();
        let reply = HelloReply::new(HelloStatus::Granted).encode();
        send_with_fd(&ours, &reply, Some(segment.as_raw_fd())).unwrap();

        let mut buf = [0u8; HELLO_REPLY_LEN];
        let fd = recv_exact_with_fd(&theirs, &mut buf).unwrap();
        assert_eq!(
            HelloReply::decode(&buf).unwrap().status,
            HelloStatus::Granted
        );
        let fd = fd.expect("granted reply carries the segment fd");
        assert_ne!(fd.as_raw_fd(), segment.as_raw_fd(), "kernel dups");

        // The received fd maps the same memory: writes cross over.
        let attached = Segment::attach_fd(std::fs::File::from(fd)).unwrap();
        segment.header().tail.store(7, Ordering::Release);
        assert_eq!(attached.header().tail.load(Ordering::Acquire), 7);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn plain_payload_carries_no_fd() {
        use std::os::unix::net::UnixStream;

        let (ours, theirs) = UnixStream::pair().unwrap();
        let request = HelloRequest::new(64).encode();
        send_with_fd(&ours, &request, None).unwrap();
        let mut buf = [0u8; HELLO_REQUEST_LEN];
        let fd = recv_exact_with_fd(&theirs, &mut buf).unwrap();
        assert!(fd.is_none());
        assert_eq!(HelloRequest::decode(&buf), Some(HelloRequest::new(64)));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn truncated_message_reads_unexpected_eof() {
        use std::io::Write;
        use std::os::unix::net::UnixStream;

        let (mut ours, theirs) = UnixStream::pair().unwrap();
        ours.write_all(&HelloRequest::new(64).encode()[..7])
            .unwrap();
        drop(ours);
        let mut buf = [0u8; HELLO_REQUEST_LEN];
        let err = recv_exact_with_fd(&theirs, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
