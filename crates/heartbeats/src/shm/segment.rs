//! Creating, mapping, and probing shared-memory segments.
//!
//! A [`Segment`] is a fixed-size byte region holding a [`SegmentHeader`]
//! followed by the slot array, mapped shared over one of two backings,
//! chosen at run time:
//!
//! * **memfd** (`memfd_create` + `mmap`, Linux) — an anonymous shared file:
//!   forked children inherit the mapping, and the fd can be handed to
//!   unrelated processes over a Unix socket;
//! * **tmpfile** (`mmap` of a temporary file, any Unix) — what
//!   [`Segment::create`] falls back to when `memfd_create` refuses;
//!   unrelated processes attach by path via [`Segment::open`].
//!
//! The segment itself is policy-free bytes; the ownership handshake lives
//! in [`crate::shm::transport`].

use std::fmt;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::shm::error::ShmError;
use crate::shm::layout::{SegmentGeometry, SegmentHeader, SEGMENT_HEADER_LEN};

/// Raw OS bindings. Declared here instead of depending on the `libc` crate
/// (the offline build has no crates.io access); `std` already links the
/// platform C library, so these resolve to the same symbols `libc` wraps.
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 0x01;
    pub const ESRCH: i32 = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub const O_RDONLY: c_int = 0;
    #[cfg(target_os = "linux")]
    pub const O_CLOEXEC: c_int = 0o2000000;

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn open(path: *const std::os::raw::c_char, flags: c_int, ...) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub const MFD_CLOEXEC: std::os::raw::c_uint = 1;

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn memfd_create(
            name: *const std::os::raw::c_char,
            flags: std::os::raw::c_uint,
        ) -> c_int;
    }
}

/// This process's PID in the 32-bit form stored in segment headers.
pub fn current_pid() -> u32 {
    std::process::id()
}

/// The start nonce of process `pid`: a value that identifies this
/// *incarnation* of the PID, so liveness probes can tell a recycled PID
/// from the original claimant.
///
/// On Linux this is the `starttime` field of `/proc/<pid>/stat` (clock
/// ticks since boot at which the process started) — stable for the
/// process's whole life, different for any later process recycled onto the
/// same PID. Returns `None` where `/proc` is unavailable (non-Linux, or a
/// PID hidden from this process), in which case callers fall back to plain
/// `kill(pid, 0)` liveness.
pub fn process_start_nonce(pid: u32) -> Option<u64> {
    process_stat(pid)?.start_nonce
}

/// What one read of `/proc/<pid>/stat` says about a process: the two
/// fields liveness needs, parsed from the same buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProcessStat {
    /// The state field is `Z` (zombie) or `X` (dead): the process has
    /// exited and only its unwaited-for `/proc` entry lingers.
    exited: bool,
    /// The `starttime` field; `None` when unparsable or zero.
    start_nonce: Option<u64>,
}

/// True when `/proc` shows that the process a producer claim `(pid,
/// nonce)` named is gone although `pid` still resolves: the process at
/// `pid` has exited (a zombie passes `kill(pid, 0)` until its parent waits
/// for it, which a crashed application's parent may never do), or it is a
/// later process recycled onto the PID (its start time disagrees with the
/// recorded nonce; a zero nonce records nothing to disagree with). Where
/// `/proc` has no answer the claim is not contradicted: `false`.
pub(crate) fn claimant_gone(pid: u32, nonce: u64) -> bool {
    process_stat(pid).is_some_and(|stat| {
        stat.exited || (nonce != 0 && stat.start_nonce.is_some_and(|actual| actual != nonce))
    })
}

/// Reads and parses `/proc/<pid>/stat`; `None` where it cannot be read
/// (non-Linux, no such process, a PID hidden from this process).
///
/// Allocation-free: this runs inside the reaper's liveness probe, which
/// shares the hot path's no-heap contract (enforced by the `no_alloc` test
/// suite) — hence raw `open`/`read`/`close` into stack buffers instead of
/// `std::fs`.
fn process_stat(pid: u32) -> Option<ProcessStat> {
    #[cfg(target_os = "linux")]
    {
        // "/proc/" + up to 10 PID digits + "/stat" + NUL = 23 bytes.
        let mut path = [0u8; 24];
        let mut cursor = 0;
        for &byte in b"/proc/" {
            path[cursor] = byte;
            cursor += 1;
        }
        let mut digits = [0u8; 10];
        let mut remaining = pid;
        let mut count = 0;
        loop {
            digits[count] = b'0' + (remaining % 10) as u8;
            count += 1;
            remaining /= 10;
            if remaining == 0 {
                break;
            }
        }
        for index in (0..count).rev() {
            path[cursor] = digits[index];
            cursor += 1;
        }
        for &byte in b"/stat" {
            path[cursor] = byte;
            cursor += 1;
        }
        debug_assert!(cursor < path.len(), "path stays NUL-terminated");

        // SAFETY: `path` is NUL-terminated and outlives the call.
        let fd = unsafe {
            sys::open(
                path.as_ptr() as *const std::os::raw::c_char,
                sys::O_RDONLY | sys::O_CLOEXEC,
            )
        };
        if fd < 0 {
            return None;
        }
        // One read suffices: starttime is field 22, always within the
        // first few hundred bytes even with a pathological comm (the
        // kernel caps comm at 16 bytes).
        let mut buf = [0u8; 1024];
        let got = loop {
            // SAFETY: `buf` is writable for its full length and outlives
            // the call.
            let got =
                unsafe { sys::read(fd, buf.as_mut_ptr() as *mut std::os::raw::c_void, buf.len()) };
            if got >= 0 {
                break got as usize;
            }
            let interrupted =
                std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted;
            if !interrupted {
                // SAFETY: `fd` is ours and open.
                unsafe { sys::close(fd) };
                return None;
            }
        };
        // SAFETY: `fd` is ours and open.
        unsafe { sys::close(fd) };

        // The comm field is parenthesized and may itself contain spaces and
        // parentheses; everything after the *last* ')' is whitespace-split:
        // state(3) ppid(4) … starttime(22), i.e. indices 0 and 19 after
        // the comm.
        let stat = &buf[..got];
        let close_paren = stat.iter().rposition(|&byte| byte == b')')?;
        let mut fields = stat[close_paren + 1..]
            .split(|&byte| byte == b' ')
            .filter(|token| !token.is_empty());
        let exited = matches!(fields.next()?, b"Z" | b"X");
        let start_nonce = fields
            .nth(18)
            .and_then(|token| std::str::from_utf8(token).ok())
            .and_then(|token| token.parse::<u64>().ok())
            .filter(|&nonce| nonce != 0);
        Some(ProcessStat {
            exited,
            start_nonce,
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        None
    }
}

/// Deterministic per-process jitter in permille of a backoff interval
/// (0..=250, i.e. up to a 25% stretch), mixed from the process identity
/// (PID plus its kernel start-time nonce) and the attempt index — no RNG
/// dependency, yet processes orphaned by the same crash desynchronize
/// their retry storms instead of hammering the restarted peer in phase.
fn jitter_permille(attempt: u32) -> u128 {
    let pid = current_pid();
    let mut x = (u64::from(pid) << 32)
        ^ process_start_nonce(pid).unwrap_or(0)
        ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer: avalanche the structured inputs.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    u128::from(x % 251)
}

/// `base` stretched by this process's jitter for the given attempt: the
/// one backoff both sides of the control plane use (the client's attach
/// and reattach retries, the supervisor's crash-loop guard).
pub fn jittered_backoff(base: std::time::Duration, attempt: u32) -> std::time::Duration {
    let extra = base.as_nanos().saturating_mul(jitter_permille(attempt)) / 1000;
    base + std::time::Duration::from_nanos(extra.min(u128::from(u64::MAX)) as u64)
}

/// True when a process with `pid` currently exists (it may belong to
/// another user — existence is all the handshake needs).
///
/// On Unix this is `kill(pid, 0)`: success or `EPERM` means the process
/// exists, `ESRCH` means it does not. Elsewhere only the current process
/// can be confirmed alive.
pub fn pid_alive(pid: u32) -> bool {
    // 0 is "unclaimed", and anything beyond i32::MAX cannot be a real PID
    // (and would turn into a process-group kill if passed through).
    if pid == 0 || pid > i32::MAX as u32 {
        return false;
    }
    #[cfg(unix)]
    {
        if unsafe { sys::kill(pid as std::os::raw::c_int, 0) } == 0 {
            return true;
        }
        std::io::Error::last_os_error().raw_os_error() != Some(sys::ESRCH)
    }
    #[cfg(not(unix))]
    {
        pid == current_pid()
    }
}

/// How a segment's bytes are held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackingKind {
    /// `memfd_create` + `mmap(MAP_SHARED)`.
    Memfd,
    /// `mmap(MAP_SHARED)` over a temporary file.
    TmpFile,
}

impl fmt::Display for BackingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackingKind::Memfd => f.write_str("memfd"),
            BackingKind::TmpFile => f.write_str("tmpfile"),
        }
    }
}

/// A mapped shared-memory segment.
///
/// The segment owns its mapping; producers and consumers hold it behind an
/// `Arc` so the bytes outlive whichever side detaches last *within* a
/// process. Across processes the kernel keeps the pages alive while any
/// mapping exists.
pub struct Segment {
    ptr: NonNull<u8>,
    len: usize,
    geometry: SegmentGeometry,
    kind: BackingKind,
    /// Keeps the backing fd open for the lifetime of the mapping (a forked
    /// child or fd-passing peer may still need it).
    file: std::fs::File,
    /// For tmpfile backings created by us: the path, unlinked on drop.
    owned_path: Option<PathBuf>,
    /// For attached tmpfile backings: the path, left in place.
    path: Option<PathBuf>,
}

// SAFETY: the segment's bytes are shared memory by design; all mutation of
// shared state goes through atomics in `SegmentHeader` or through slots
// whose exclusive ownership the transport protocol hands between producer
// and consumer via acquire/release on `head`/`tail`.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("kind", &self.kind)
            .field("len", &self.len)
            .field("geometry", &self.geometry)
            .finish()
    }
}

/// Monotone counter making tmpfile names unique within a process.
static TMPFILE_SEQ: AtomicU64 = AtomicU64::new(0);

impl Segment {
    /// Creates a segment with the best *cross-process* backing available:
    /// memfd where supported, falling back to a tmpfile under
    /// [`std::env::temp_dir`].
    ///
    /// # Errors
    ///
    /// Returns the tmpfile-creation [`ShmError::Io`] when both backings
    /// fail, or [`ShmError::NoBackingAvailable`] on a target with no
    /// `mmap`.
    pub fn create(geometry: SegmentGeometry) -> Result<Segment, ShmError> {
        #[cfg(target_os = "linux")]
        {
            // Fall through on failure (e.g. a seccomp filter denying the
            // syscall): the tmpfile backing is functionally equivalent.
            if let Ok(segment) = Segment::create_memfd(geometry) {
                return Ok(segment);
            }
        }
        #[cfg(unix)]
        {
            Segment::create_tmpfile_in(std::env::temp_dir(), geometry)
        }
        #[cfg(not(unix))]
        {
            let _ = geometry;
            Err(ShmError::NoBackingAvailable)
        }
    }

    /// Creates a memfd-backed segment.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when `memfd_create`, `ftruncate`, or
    /// `mmap` fails.
    #[cfg(target_os = "linux")]
    pub fn create_memfd(geometry: SegmentGeometry) -> Result<Segment, ShmError> {
        use std::os::fd::FromRawFd;

        geometry.validate()?;
        let name = c"powerdial-beats";
        let fd = unsafe { sys::memfd_create(name.as_ptr(), sys::MFD_CLOEXEC) };
        if fd < 0 {
            return Err(ShmError::Io {
                op: "memfd_create",
                source: std::io::Error::last_os_error(),
            });
        }
        // SAFETY: `fd` is a freshly created, owned file descriptor.
        let file = unsafe { std::fs::File::from_raw_fd(fd) };
        Segment::from_file(file, geometry, BackingKind::Memfd, None)
    }

    /// Creates a tmpfile-backed segment in `dir`; other processes attach
    /// with [`Segment::open`] on [`Segment::path`]. The file is unlinked
    /// when the creating segment drops, and is created owner-only (`0o600`):
    /// it *is* the decision block and the beat ring, and `dir` is usually
    /// the shared [`std::env::temp_dir`].
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when file creation, sizing, or mapping
    /// fails.
    #[cfg(unix)]
    pub fn create_tmpfile_in(
        dir: impl AsRef<Path>,
        geometry: SegmentGeometry,
    ) -> Result<Segment, ShmError> {
        use std::os::unix::fs::OpenOptionsExt;

        geometry.validate()?;
        let sequence = TMPFILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.as_ref().join(format!(
            "powerdial-beats-{}-{}.shm",
            current_pid(),
            sequence
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .mode(0o600)
            .open(&path)
            .map_err(|source| ShmError::Io {
                op: "open(tmpfile)",
                source,
            })?;
        match Segment::from_file(file, geometry, BackingKind::TmpFile, Some(path.clone())) {
            Ok(segment) => Ok(segment),
            Err(error) => {
                let _ = std::fs::remove_file(&path);
                Err(error)
            }
        }
    }

    /// Sizes `file` for `geometry`, maps it shared, and initializes the
    /// header.
    #[cfg(unix)]
    fn from_file(
        file: std::fs::File,
        geometry: SegmentGeometry,
        kind: BackingKind,
        owned_path: Option<PathBuf>,
    ) -> Result<Segment, ShmError> {
        let len = geometry.total_len();
        file.set_len(len as u64).map_err(|source| ShmError::Io {
            op: "ftruncate",
            source,
        })?;
        let ptr = map_shared(&file, len)?;
        let segment = Segment {
            ptr,
            len,
            geometry,
            kind,
            file,
            owned_path,
            path: None,
        };
        segment.header().initialize(geometry);
        Ok(segment)
    }

    /// Attaches to an existing file-backed segment by path (the
    /// cross-process entry point for tmpfile backings), validating the
    /// header before returning.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when the file cannot be opened or mapped,
    /// [`ShmError::TruncatedSegment`] when it is too small to even hold a
    /// header, and any [`SegmentHeader::validate`] error for a malformed
    /// header.
    #[cfg(unix)]
    pub fn open(path: impl AsRef<Path>) -> Result<Segment, ShmError> {
        let path = path.as_ref();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|source| ShmError::Io {
                op: "open(segment)",
                source,
            })?;
        Segment::attach_file(file, BackingKind::TmpFile, Some(path.to_path_buf()))
    }

    /// Attaches to an existing, already-initialized segment through an open
    /// file descriptor — the entry point for memfds received over a Unix
    /// socket (`SCM_RIGHTS`, the attach broker) or inherited across
    /// `exec`. The header is validated before the first slot access.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when the fd cannot be sized or mapped,
    /// [`ShmError::TruncatedSegment`] when it is too small to hold a
    /// header, and any [`SegmentHeader::validate`] error for a malformed
    /// header.
    #[cfg(unix)]
    pub fn attach_fd(file: std::fs::File) -> Result<Segment, ShmError> {
        Segment::attach_file(file, BackingKind::Memfd, None)
    }

    /// Maps and validates an existing segment file (no initialization).
    #[cfg(unix)]
    fn attach_file(
        file: std::fs::File,
        kind: BackingKind,
        path: Option<PathBuf>,
    ) -> Result<Segment, ShmError> {
        let len = file
            .metadata()
            .map_err(|source| ShmError::Io {
                op: "stat(segment)",
                source,
            })?
            .len();
        if len < SEGMENT_HEADER_LEN as u64 {
            return Err(ShmError::TruncatedSegment {
                expected: SEGMENT_HEADER_LEN as u64,
                found: len,
            });
        }
        let len = usize::try_from(len).map_err(|_| ShmError::TruncatedSegment {
            expected: u64::MAX,
            found: len,
        })?;
        let ptr = map_shared(&file, len)?;
        let mut segment = Segment {
            ptr,
            len,
            // Placeholder until the header is validated below.
            geometry: SegmentGeometry::for_beat_samples(1).expect("static geometry"),
            kind,
            file,
            owned_path: None,
            path,
        };
        segment.geometry = segment.header().validate(segment.len)?;
        Ok(segment)
    }

    /// The segment header.
    pub fn header(&self) -> &SegmentHeader {
        debug_assert!(self.len >= SEGMENT_HEADER_LEN);
        debug_assert_eq!(
            self.ptr.as_ptr() as usize % std::mem::align_of::<SegmentHeader>(),
            0
        );
        // SAFETY: the mapping is at least SEGMENT_HEADER_LEN bytes, lives
        // as long as `self`, is suitably aligned (page-aligned mmap), and
        // every header field is an atomic, so shared references are sound
        // even while another process mutates the memory.
        unsafe { &*(self.ptr.as_ptr() as *const SegmentHeader) }
    }

    /// Re-validates the header against the mapping (attach time, and any
    /// time a peer is suspected of having scribbled on it).
    ///
    /// # Errors
    ///
    /// Propagates [`SegmentHeader::validate`] errors.
    pub fn validate(&self) -> Result<SegmentGeometry, ShmError> {
        self.header().validate(self.len)
    }

    /// The geometry the segment was created (or validated) with.
    pub fn geometry(&self) -> SegmentGeometry {
        self.geometry
    }

    /// Total mapped bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// A segment always holds at least a header; this mirrors the
    /// conventional `len`/`is_empty` pairing and is never true.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Which backing holds the bytes.
    pub fn backing_kind(&self) -> BackingKind {
        self.kind
    }

    /// The raw file descriptor another process can attach through, after
    /// receiving it over a Unix socket (`SCM_RIGHTS`) or inheriting it. The
    /// fd stays owned by this segment — callers duplicate it (the kernel
    /// does, for fd passing) rather than close it.
    #[cfg(unix)]
    pub fn as_raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        self.file.as_raw_fd()
    }

    /// The filesystem path another process can [`Segment::open`] (tmpfile
    /// backings only; memfds are attached by inheriting the mapping or
    /// passing the fd).
    pub fn path(&self) -> Option<&Path> {
        self.owned_path.as_deref().or(self.path.as_deref())
    }

    /// Raw pointer to the start of slot `index` (callers mask positions
    /// first). The pointer stays in bounds for `record_size` bytes by the
    /// geometry invariants validated at attach time.
    pub(crate) fn slot_ptr(&self, index: u64) -> *mut u8 {
        let offset = self.geometry.slot_offset(index);
        debug_assert!(offset + self.geometry.record_size() as usize <= self.len);
        // SAFETY: offset < len by geometry validation against the mapping.
        unsafe { self.ptr.as_ptr().add(offset) }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` describe a live mapping created by
        // `map_shared`; after this call nothing dereferences it (we are in
        // drop).
        #[cfg(unix)]
        unsafe {
            sys::munmap(self.ptr.as_ptr() as *mut std::os::raw::c_void, self.len);
        }
        if let Some(path) = &self.owned_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Maps `len` bytes of `file` shared and read-write.
#[cfg(unix)]
fn map_shared(file: &std::fs::File, len: usize) -> Result<NonNull<u8>, ShmError> {
    use std::os::fd::AsRawFd;

    let raw = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_SHARED,
            file.as_raw_fd(),
            0,
        )
    };
    if raw as isize == -1 || raw.is_null() {
        return Err(ShmError::Io {
            op: "mmap",
            source: std::io::Error::last_os_error(),
        });
    }
    Ok(NonNull::new(raw as *mut u8).expect("mmap returned non-null"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::layout::SEGMENT_MAGIC;

    fn geometry() -> SegmentGeometry {
        SegmentGeometry::for_beat_samples(16).unwrap()
    }

    #[test]
    fn create_initializes_a_valid_header() {
        let segment = Segment::create(geometry()).unwrap();
        assert_eq!(segment.validate().unwrap(), geometry());
        assert_eq!(
            segment.header().magic.load(Ordering::Relaxed),
            SEGMENT_MAGIC
        );
        assert_eq!(segment.len(), geometry().total_len());
        assert!(!segment.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn tmpfile_segment_reopens_by_path() {
        let created = Segment::create_tmpfile_in(std::env::temp_dir(), geometry()).unwrap();
        let path = created.path().unwrap().to_path_buf();
        assert!(path.exists());
        let attached = Segment::open(&path).unwrap();
        assert_eq!(attached.geometry(), geometry());
        // The two mappings see the same memory: a store through one is a
        // load through the other.
        created.header().tail.store(7, Ordering::Release);
        assert_eq!(attached.header().tail.load(Ordering::Acquire), 7);
        drop(attached);
        drop(created);
        assert!(!path.exists(), "creator unlinks its tmpfile");
    }

    #[cfg(unix)]
    #[test]
    fn tmpfile_segment_is_private_to_its_owner() {
        use std::os::unix::fs::PermissionsExt;

        let segment = Segment::create_tmpfile_in(std::env::temp_dir(), geometry()).unwrap();
        let mode = std::fs::metadata(segment.path().unwrap())
            .unwrap()
            .permissions()
            .mode();
        assert_eq!(mode & 0o077, 0, "group/other can reach the ring: {mode:o}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn memfd_segment_creates_and_validates() {
        let segment = Segment::create_memfd(geometry()).unwrap();
        assert_eq!(segment.backing_kind(), BackingKind::Memfd);
        assert_eq!(segment.path(), None);
        assert_eq!(segment.validate().unwrap(), geometry());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn start_nonce_identifies_this_process() {
        let nonce = process_start_nonce(current_pid());
        assert!(nonce.is_some(), "own /proc entry must be readable");
        assert_ne!(nonce, Some(0));
        // Stable across reads: the nonce identifies the incarnation.
        assert_eq!(nonce, process_start_nonce(current_pid()));
        // A PID that cannot exist has no nonce.
        assert_eq!(process_start_nonce((i32::MAX - 1) as u32), None);
        assert_eq!(process_start_nonce(0), None);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        use std::time::Duration;
        let base = Duration::from_millis(100);
        for attempt in 0..64u32 {
            let j = jittered_backoff(base, attempt);
            assert_eq!(j, jittered_backoff(base, attempt), "must be replayable");
            assert!(j >= base, "jitter only extends the backoff");
            assert!(
                j <= base + base / 4,
                "stretch is capped at 25% (got {j:?} for attempt {attempt})"
            );
        }
        // The permille value actually varies across attempts (the mix is
        // not degenerate): 16 attempts hitting one value is ~250^-15.
        let first = jitter_permille(0);
        assert!(
            (1..16).any(|attempt| jitter_permille(attempt) != first),
            "jitter must depend on the attempt index"
        );
    }

    #[cfg(unix)]
    #[test]
    fn attach_fd_maps_the_same_memory() {
        use std::os::fd::FromRawFd;

        let created = Segment::create(geometry()).unwrap();
        let raw = created.as_raw_fd();
        // Duplicate the fd the way fd-passing would (the kernel dups on
        // SCM_RIGHTS transfer); attach through the duplicate.
        let dup = unsafe { sys_dup(raw) };
        assert!(dup >= 0);
        let attached = Segment::attach_fd(unsafe { std::fs::File::from_raw_fd(dup) }).unwrap();
        assert_eq!(attached.geometry(), geometry());
        created.header().tail.store(9, Ordering::Release);
        assert_eq!(attached.header().tail.load(Ordering::Acquire), 9);
    }

    #[cfg(unix)]
    unsafe fn sys_dup(fd: std::os::raw::c_int) -> std::os::raw::c_int {
        extern "C" {
            fn dup(fd: std::os::raw::c_int) -> std::os::raw::c_int;
        }
        unsafe { dup(fd) }
    }

    #[test]
    fn pid_liveness_basics() {
        assert!(pid_alive(current_pid()));
        assert!(!pid_alive(0));
        // Linux caps PIDs at 2²² by default; this one cannot exist.
        assert!(!pid_alive((i32::MAX - 1) as u32));
        // Out-of-range values are dead by definition, never a group kill.
        assert!(!pid_alive(u32::MAX));
    }
}
