//! Process death as an event: one `epoll` instance over one pidfd per
//! watched process — and, beside them, the listening socket a serve loop
//! accepts from.
//!
//! [`ShmPeerProbe::producer_state`](crate::shm::ShmPeerProbe::producer_state)
//! answers "is this segment's producer dead?" by asking the kernel about a
//! PID — a `kill` and a read of `/proc/<pid>/stat`, microseconds each, per
//! segment, every time it is asked, about processes that are almost never
//! dead. A [`ProcessWatch`] turns the question around. A consumer of many
//! segments registers each distinct producer *process* once
//! ([`ProcessWatch::watch`]: `pidfd_open`, refcounted over every segment
//! that process feeds) and afterwards learns of exits from a single
//! non-blocking `epoll_wait` ([`ProcessWatch::poll`]) whose cost does not
//! depend on how many processes are watched.
//!
//! A pidfd names a *process*, not a number: it can never come to refer to a
//! later process recycled onto the same PID, and it becomes readable when
//! the process exits, not when its parent gets around to waiting for it. So
//! the two blind spots of PID probing — recycling and zombies — do not
//! exist on this path. The start nonce is still compared once, when the
//! watch is established, because the PID in a segment header may have been
//! recycled *before* anyone opened it.
//!
//! Where the kernel refuses (`ENOSYS` before Linux 5.3, a seccomp filter's
//! `EPERM`, `EMFILE`, any other Unix, the build without Linux)
//! [`ProcessWatch::watch`] says [`Watched::Unsupported`] and the caller
//! keeps probing that one claim the old way. No epoll instance exists until
//! the first watch is granted, and [`ProcessWatch::poll`] makes no syscall
//! before that.
//!
//! The watch set is the serve loop's readiness set, and a process exiting
//! is one of two things it can report. The other is a **listening socket**
//! ([`ProcessWatch::watch_listener`]): the same `epoll_wait` that collects
//! exits says whether a connection is waiting to be accepted
//! ([`ProcessWatch::listener_pending`]), so a loop that polls the set
//! every iteration anyway need not also ask `accept` — a microsecond of
//! `EAGAIN` — every iteration. The listener is level-triggered on purpose:
//! a caller that accepts one connection per report must find the backlog
//! behind it still readable at the next poll. What remains outside the set
//! is a per-segment doorbell, after which the loop could block on the set
//! instead of polling it. Implicit overflow semantics are banned in this
//! module (clippy `arithmetic_side_effects`).

#![deny(clippy::arithmetic_side_effects)]

#[cfg(target_os = "linux")]
use crate::shm::segment::claimant_gone;

/// Raw OS bindings (no `libc` crate in the offline build; see
/// `segment.rs`).
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long};

    /// `pidfd_open(2)`: 434 on every Linux architecture (it postdates the
    /// unified syscall table). glibc only wraps it since 2.36, so it goes
    /// through `syscall(2)`.
    pub const SYS_PIDFD_OPEN: c_long = 434;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLLIN: u32 = 1;
    pub const ESRCH: i32 = 3;

    /// `struct epoll_event`, which the kernel ABI packs on x86 only.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn syscall(number: c_long, ...) -> c_long;
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Events fetched per `epoll_wait`; a stack buffer. More simultaneous
/// deaths than this take another call in the same [`ProcessWatch::poll`].
#[cfg(target_os = "linux")]
const EVENT_BATCH: usize = 16;

/// The `data` word the listener is registered under. Every other
/// registration carries its entry index, a `u32`, so this names no entry.
#[cfg(target_os = "linux")]
const LISTENER_TAG: u64 = u64::MAX;

/// A granted watch: names one watched process until
/// [`ProcessWatch::release`]d.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchId(u32);

/// The answer to [`ProcessWatch::watch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watched {
    /// The process is alive and watched; its exit will be reported by
    /// [`ProcessWatch::poll`] and, from then on, [`ProcessWatch::is_dead`].
    /// Each `Watching` must be paired with one [`ProcessWatch::release`].
    Watching(WatchId),
    /// The claimant is already gone: no such process, one that has exited
    /// and awaits its parent's `wait`, or a different process recycled
    /// onto the PID. Nothing is held; there is nothing to release.
    Dead,
    /// The kernel would not hand out a pidfd or take it into the epoll
    /// set. Nothing is known about the process and nothing is held: probe
    /// it the slow way.
    Unsupported,
}

/// One watched process. A slot with `refs == 0` is free.
#[derive(Debug)]
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
struct Entry {
    pid: u32,
    nonce: u64,
    /// The pidfd; closed (−1) once the death has been seen.
    fd: i32,
    /// Watches granted on this process and not yet released.
    refs: u32,
    dead: bool,
}

/// A set of watched processes (and at most one listening socket); see the
/// [module docs](self).
#[derive(Debug)]
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
pub struct ProcessWatch {
    /// The epoll instance, −1 until the first watch is granted.
    epoll: i32,
    /// Grown on demand: one slot per distinct live claimant, reused.
    entries: Vec<Entry>,
    death_events: u64,
    /// This set's own duplicate of the watched listening socket, −1 while
    /// there is none. A duplicate, so that the registration is the set's
    /// to remove whatever its owner does with the original.
    listener: i32,
    /// Whether a connection may be waiting on `listener`: what the last
    /// poll saw, and `true` from the watch until the first poll.
    listener_ready: bool,
}

impl Default for ProcessWatch {
    fn default() -> Self {
        ProcessWatch::new()
    }
}

impl ProcessWatch {
    /// An empty set. Allocates nothing and opens nothing.
    pub const fn new() -> Self {
        ProcessWatch {
            epoll: -1,
            entries: Vec::new(),
            death_events: 0,
            listener: -1,
            listener_ready: false,
        }
    }

    /// Watches the process a producer claim `(pid, nonce)` names. Claims
    /// naming the same live process share one pidfd.
    ///
    /// Cold path (a claim appeared or changed): up to one `pidfd_open`, one
    /// read of `/proc/<pid>/stat` and one `epoll_ctl`, and the entry table
    /// may grow.
    pub fn watch(&mut self, pid: u32, nonce: u64) -> Watched {
        // 0 is "unclaimed", and anything beyond i32::MAX cannot be a real
        // PID (`pid_alive` draws the same line).
        if pid == 0 || pid > i32::MAX as u32 {
            return Watched::Dead;
        }
        let shared = self
            .entries
            .iter_mut()
            .enumerate()
            .find(|(_, entry)| {
                entry.refs > 0 && !entry.dead && entry.pid == pid && entry.nonce == nonce
            })
            .and_then(|(index, entry)| {
                entry.refs = entry.refs.checked_add(1)?;
                Some(WatchId(u32::try_from(index).ok()?))
            });
        match shared {
            Some(id) => Watched::Watching(id),
            None => self.open(pid, nonce),
        }
    }

    /// Opens and registers a pidfd for a claimant nobody watches yet.
    #[cfg(target_os = "linux")]
    fn open(&mut self, pid: u32, nonce: u64) -> Watched {
        // SAFETY: `pidfd_open(pid, flags)` takes two integers; the fd it
        // returns (close-on-exec by definition) is ours.
        let fd = unsafe { sys::syscall(sys::SYS_PIDFD_OPEN, pid as i32, 0u32) } as i32;
        if fd < 0 {
            let errno = std::io::Error::last_os_error().raw_os_error();
            return if errno == Some(sys::ESRCH) {
                Watched::Dead
            } else {
                Watched::Unsupported
            };
        }
        // The fd now pins whichever process held `pid` when it was
        // opened. Is that the claimant? Asked after the open, so a PID
        // recycled in between cannot slip through either.
        let outcome = if claimant_gone(pid, nonce) {
            Watched::Dead
        } else {
            self.admit(pid, nonce, fd)
        };
        if !matches!(outcome, Watched::Watching(_)) {
            // SAFETY: `fd` is ours, open, and in no epoll set.
            unsafe { sys::close(fd) };
        }
        outcome
    }

    /// Registers `fd` in the epoll set (created on first use) for
    /// level-triggered readability, reported under `data`. False when the
    /// kernel refuses either step.
    #[cfg(target_os = "linux")]
    fn add(&mut self, fd: i32, data: u64) -> bool {
        if self.epoll < 0 {
            // SAFETY: plain syscall; the fd it returns is ours.
            self.epoll = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        }
        let mut event = sys::EpollEvent {
            events: sys::EPOLLIN,
            data,
        };
        // SAFETY: both fds are ours and open (a failed `epoll_create1`
        // fails this call with `EBADF`); `event` outlives the call.
        unsafe { sys::epoll_ctl(self.epoll, sys::EPOLL_CTL_ADD, fd, &mut event) == 0 }
    }

    /// Takes an open pidfd into the epoll set and the entry table, in a
    /// free slot if there is one.
    #[cfg(target_os = "linux")]
    fn admit(&mut self, pid: u32, nonce: u64, fd: i32) -> Watched {
        let free = self.entries.iter().position(|entry| entry.refs == 0);
        let Ok(id) = u32::try_from(free.unwrap_or(self.entries.len())) else {
            return Watched::Unsupported;
        };
        if !self.add(fd, u64::from(id)) {
            return Watched::Unsupported;
        }
        let entry = Entry {
            pid,
            nonce,
            fd,
            refs: 1,
            dead: false,
        };
        match free {
            Some(index) => self.entries[index] = entry,
            None => self.entries.push(entry),
        }
        Watched::Watching(WatchId(id))
    }

    #[cfg(not(target_os = "linux"))]
    fn open(&mut self, _pid: u32, _nonce: u64) -> Watched {
        Watched::Unsupported
    }

    /// Takes the descriptor in `fd` (a pidfd, or the listener's duplicate)
    /// out of the epoll set and closes it. Always in that order: a forked
    /// child may hold a copy of the fd, and an epoll registration outlives
    /// a `close` that is not the last one.
    #[cfg(target_os = "linux")]
    fn retire(epoll: i32, fd: &mut i32) {
        if *fd >= 0 {
            // SAFETY: both fds are ours and open; pre-2.6.9 kernels aside,
            // `EPOLL_CTL_DEL` ignores the event argument.
            unsafe {
                sys::epoll_ctl(epoll, sys::EPOLL_CTL_DEL, *fd, std::ptr::null_mut());
                sys::close(*fd);
            }
            *fd = -1;
        }
    }

    /// Gives back one [`Watched::Watching`]; the last one for a process
    /// closes its pidfd and frees the slot. An id that names no granted
    /// watch is ignored.
    pub fn release(&mut self, id: WatchId) {
        let Some(entry) = self.entries.get_mut(id.0 as usize) else {
            return;
        };
        entry.refs = entry.refs.saturating_sub(1);
        #[cfg(target_os = "linux")]
        if entry.refs == 0 {
            Self::retire(self.epoll, &mut entry.fd);
        }
    }

    /// Takes a listening socket into the set, in place of any taken
    /// earlier: from now on [`ProcessWatch::poll`] also learns whether a
    /// connection is waiting on it ([`ProcessWatch::listener_pending`]).
    /// The set keeps a duplicate of the descriptor, so the caller's may be
    /// closed at any time; readiness is level-triggered, never
    /// edge-triggered — a connection left in the backlog is reported again
    /// by the next poll.
    ///
    /// False when the set does not hold the listener afterwards — no
    /// descriptor to be had for the duplicate or the epoll instance,
    /// `epoll_ctl` refusing, a platform other than Linux — and the caller
    /// must keep asking `accept` itself, which is also what
    /// [`ProcessWatch::listener_pending`] then says.
    ///
    /// Cold path: one `fcntl`, one `epoll_ctl`, and the set's first
    /// registration also creates the epoll instance.
    #[cfg(unix)]
    pub fn watch_listener(&mut self, listener: std::os::fd::BorrowedFd<'_>) -> bool {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::{AsRawFd, IntoRawFd};
            Self::retire(self.epoll, &mut self.listener);
            if let Ok(duplicate) = listener.try_clone_to_owned() {
                // A refused duplicate is closed as it goes out of scope.
                if self.add(duplicate.as_raw_fd(), LISTENER_TAG) {
                    self.listener = duplicate.into_raw_fd();
                    // Whoever connected before this call is waiting
                    // already, and no poll has had the chance to say so.
                    self.listener_ready = true;
                }
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = listener;
        self.listener >= 0
    }

    /// Whether the caller should try to `accept`: `false` only when a
    /// listener is watched and the last [`ProcessWatch::poll`] found
    /// nothing waiting on it. With no listener in the set (none offered, or
    /// [`ProcessWatch::watch_listener`] refused) nothing is known, which
    /// reads `true`.
    pub fn listener_pending(&self) -> bool {
        self.listener < 0 || self.listener_ready
    }

    /// Collects exits: one `epoll_wait` with a zero timeout (none at all
    /// while nothing has ever been watched), events on the stack. Returns
    /// how many watched processes were found dead by this call; each is
    /// [`ProcessWatch::is_dead`] from now until its watches are released.
    /// The same call settles [`ProcessWatch::listener_pending`] until the
    /// next one.
    pub fn poll(&mut self) -> usize {
        let deaths = self.collect();
        self.death_events = self.death_events.saturating_add(deaths as u64);
        deaths
    }

    #[cfg(target_os = "linux")]
    fn collect(&mut self) -> usize {
        let mut deaths = 0usize;
        self.listener_ready = false;
        while self.epoll >= 0 {
            let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
            // SAFETY: `events` is writable for `EVENT_BATCH` entries and
            // outlives the call.
            let got =
                unsafe { sys::epoll_wait(self.epoll, events.as_mut_ptr(), EVENT_BATCH as i32, 0) };
            // An error can only be `EINTR`; the next poll asks again.
            let got = usize::try_from(got).unwrap_or(0).min(EVENT_BATCH);
            for event in &events[..got] {
                let index = event.data;
                if index == LISTENER_TAG {
                    // Level-triggered and left in the set: the backlog
                    // stays reported until `accept` has emptied it.
                    self.listener_ready = true;
                    continue;
                }
                let entry = usize::try_from(index)
                    .ok()
                    .and_then(|index| self.entries.get_mut(index));
                if let Some(entry) = entry.filter(|entry| entry.refs > 0 && !entry.dead) {
                    // Readiness is level-triggered and a dead process
                    // stays dead: take the fd out or every later poll
                    // reports it again.
                    Self::retire(self.epoll, &mut entry.fd);
                    entry.dead = true;
                    deaths = deaths.saturating_add(1);
                }
            }
            if got < EVENT_BATCH {
                break;
            }
        }
        deaths
    }

    #[cfg(not(target_os = "linux"))]
    fn collect(&mut self) -> usize {
        0
    }

    /// True once [`ProcessWatch::poll`] has seen the watched process exit.
    pub fn is_dead(&self, id: WatchId) -> bool {
        self.entries
            .get(id.0 as usize)
            .is_some_and(|entry| entry.refs > 0 && entry.dead)
    }

    /// Distinct live processes currently watched (pidfds held).
    pub fn watched_processes(&self) -> usize {
        self.entries
            .iter()
            .filter(|entry| entry.refs > 0 && !entry.dead)
            .count()
    }

    /// Process exits [`ProcessWatch::poll`] has reported over this set's
    /// lifetime.
    pub fn death_events(&self) -> u64 {
        self.death_events
    }
}

#[cfg(target_os = "linux")]
impl Drop for ProcessWatch {
    fn drop(&mut self) {
        for entry in &mut self.entries {
            Self::retire(self.epoll, &mut entry.fd);
        }
        Self::retire(self.epoll, &mut self.listener);
        if self.epoll >= 0 {
            // SAFETY: the epoll fd is ours and open.
            unsafe { sys::close(self.epoll) };
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::shm::process::fork_child;
    use crate::shm::segment::{current_pid, process_start_nonce};

    fn watching(watched: Watched) -> WatchId {
        match watched {
            Watched::Watching(id) => id,
            other => panic!("expected a granted watch, got {other:?}"),
        }
    }

    /// Polls until `id` reads dead (an exit is asynchronous to the signal
    /// that causes it).
    fn await_death(watch: &mut ProcessWatch, id: WatchId) -> usize {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let deaths = watch.poll();
            if watch.is_dead(id) {
                return deaths;
            }
            assert!(std::time::Instant::now() < deadline, "exit never reported");
            std::thread::yield_now();
        }
    }

    #[test]
    fn nothing_is_opened_until_a_watch_is_granted() {
        let mut watch = ProcessWatch::new();
        assert_eq!(watch.poll(), 0);
        assert_eq!(watch.epoll, -1, "poll alone creates no epoll instance");
        assert_eq!(watch.watch(0, 0), Watched::Dead);
        assert_eq!(watch.watch(u32::MAX, 0), Watched::Dead);
        // No such process: ESRCH, nothing held.
        assert_eq!(watch.watch(0x7FFF_FF00, 0), Watched::Dead);
        assert_eq!(watch.epoll, -1);
        assert_eq!(watch.watched_processes(), 0);
    }

    #[test]
    fn claims_of_one_process_share_one_watch() {
        let mut watch = ProcessWatch::new();
        let pid = current_pid();
        let nonce = process_start_nonce(pid).unwrap();
        let first = watching(watch.watch(pid, nonce));
        let second = watching(watch.watch(pid, nonce));
        assert_eq!(first, second);
        assert_eq!(watch.watched_processes(), 1);
        assert_eq!(watch.entries[0].refs, 2);
        // A claim with no recorded nonce names the same process but is a
        // different claim: it gets its own slot, never a false match.
        let unnonced = watching(watch.watch(pid, 0));
        assert_ne!(unnonced, first);
        assert_eq!(watch.poll(), 0, "we are alive");
        assert!(!watch.is_dead(first));

        watch.release(first);
        assert_eq!(watch.watched_processes(), 2);
        watch.release(second);
        watch.release(unnonced);
        assert_eq!(watch.watched_processes(), 0);
        assert!(watch.entries.iter().all(|entry| entry.fd == -1));
        // Freed slots are reused, not appended to.
        let again = watching(watch.watch(pid, nonce));
        assert_eq!(again, first);
        assert_eq!(watch.entries.len(), 2);
    }

    #[test]
    fn recycled_pid_is_dead_at_once() {
        let mut watch = ProcessWatch::new();
        let pid = current_pid();
        let stale = process_start_nonce(pid).unwrap().wrapping_add(1);
        // The PID is alive (it is ours) but the claim names an earlier
        // incarnation of it.
        assert_eq!(watch.watch(pid, stale), Watched::Dead);
        assert_eq!(watch.watched_processes(), 0);
    }

    #[test]
    fn exit_is_reported_before_the_parent_waits() {
        let mut watch = ProcessWatch::new();
        let child = fork_child(|| loop {
            std::hint::spin_loop();
        })
        .unwrap();
        let nonce = process_start_nonce(child.pid()).unwrap();
        let id = watching(watch.watch(child.pid(), nonce));
        let also = watching(watch.watch(child.pid(), nonce));
        assert_eq!(watch.poll(), 0);

        child.kill().unwrap();
        // Not waited for: the child is a zombie, which `kill(pid, 0)`
        // calls alive. The pidfd does not.
        assert_eq!(await_death(&mut watch, id), 1);
        assert!(watch.is_dead(also));
        assert_eq!(watch.death_events(), 1);
        assert_eq!(watch.watched_processes(), 0);
        assert_eq!(watch.poll(), 0, "a death is reported once");
        // A new claim naming the zombie is dead at once, not a sharer of
        // the dead entry.
        assert_eq!(watch.watch(child.pid(), nonce), Watched::Dead);

        watch.release(id);
        assert!(watch.is_dead(also), "dead until the last release");
        watch.release(also);
        assert!(!watch.is_dead(also));
        let pid = child.pid();
        child.wait().unwrap();
        assert_eq!(watch.watch(pid, nonce), Watched::Dead);
    }

    /// A non-blocking Unix listener on a path of its own, and the path.
    fn listener(name: &str) -> (std::os::unix::net::UnixListener, std::path::PathBuf) {
        let path =
            std::env::temp_dir().join(format!("pd-watch-{}-{name}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        (listener, path)
    }

    #[test]
    fn a_watched_listener_is_pending_exactly_while_its_backlog_is_not_empty() {
        use std::os::fd::AsFd;
        use std::os::unix::net::UnixStream;

        let mut watch = ProcessWatch::new();
        assert!(watch.listener_pending(), "no listener: nothing is known");
        assert_eq!(watch.poll(), 0);
        assert!(
            watch.listener_pending(),
            "a poll without a listener settles nothing"
        );

        let (listener, path) = listener("backlog");
        assert!(watch.watch_listener(listener.as_fd()));
        assert!(watch.listener_pending(), "unknown until the first poll");
        assert_eq!(watch.poll(), 0);
        assert!(!watch.listener_pending());
        assert_eq!(watch.watched_processes(), 0, "a listener is not a process");

        let _first = UnixStream::connect(&path).unwrap();
        let _second = UnixStream::connect(&path).unwrap();
        for _ in 0..3 {
            assert_eq!(watch.poll(), 0);
            assert!(
                watch.listener_pending(),
                "level-triggered: reported until accepted"
            );
        }
        listener.accept().unwrap();
        watch.poll();
        assert!(
            watch.listener_pending(),
            "the second connection is still queued"
        );
        listener.accept().unwrap();
        watch.poll();
        assert!(!watch.listener_pending());
        assert_eq!(watch.death_events(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_poll_reports_a_death_and_a_connection() {
        use std::os::fd::AsFd;

        let mut watch = ProcessWatch::new();
        let (listener, path) = listener("both");
        assert!(watch.watch_listener(listener.as_fd()));
        let child = fork_child(|| loop {
            std::hint::spin_loop();
        })
        .unwrap();
        let id = watching(watch.watch(child.pid(), 0));
        assert_eq!(watch.watched_processes(), 1);
        watch.poll();
        assert!(!watch.listener_pending());

        let _client = std::os::unix::net::UnixStream::connect(&path).unwrap();
        child.kill().unwrap();
        await_death(&mut watch, id);
        assert!(
            watch.listener_pending(),
            "the poll that saw the exit saw the client"
        );
        // The exit was taken out of the set; the connection was not.
        assert_eq!(watch.poll(), 0);
        assert!(watch.listener_pending());
        watch.release(id);
        child.wait().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_set_keeps_its_own_descriptor_and_takes_one_listener_at_a_time() {
        use std::os::fd::AsFd;
        use std::os::unix::net::UnixStream;

        let mut watch = ProcessWatch::new();
        let (first, first_path) = listener("first");
        assert!(watch.watch_listener(first.as_fd()));
        let _queued = UnixStream::connect(&first_path).unwrap();
        // The caller's descriptor goes away; the registration is the
        // set's own duplicate and keeps reporting the same socket.
        drop(first);
        watch.poll();
        assert!(watch.listener_pending());

        let (second, second_path) = listener("second");
        assert!(watch.watch_listener(second.as_fd()));
        watch.poll();
        assert!(
            !watch.listener_pending(),
            "the first listener's backlog is no longer this set's business"
        );
        let _client = UnixStream::connect(&second_path).unwrap();
        watch.poll();
        assert!(watch.listener_pending());
        let _ = std::fs::remove_file(&first_path);
        let _ = std::fs::remove_file(&second_path);
    }

    #[test]
    fn many_deaths_in_one_poll() {
        let mut watch = ProcessWatch::new();
        let children: Vec<_> = (0..EVENT_BATCH + 3)
            .map(|_| {
                fork_child(|| loop {
                    std::hint::spin_loop();
                })
                .unwrap()
            })
            .collect();
        let ids: Vec<WatchId> = children
            .iter()
            .map(|child| watching(watch.watch(child.pid(), 0)))
            .collect();
        assert_eq!(watch.watched_processes(), children.len());
        for child in &children {
            child.kill().unwrap();
        }
        for &id in &ids {
            await_death(&mut watch, id);
        }
        assert_eq!(watch.death_events(), children.len() as u64);
        for child in children {
            child.wait().unwrap();
        }
    }
}
