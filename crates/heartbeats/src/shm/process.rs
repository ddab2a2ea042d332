//! Minimal fork/wait helpers for cross-process tests and examples.
//!
//! The fork-based test suite and `examples/shm_external_controller.rs`
//! need a real second process that inherits a shared mapping. These
//! helpers wrap `fork`/`waitpid`/`kill` so those call sites stay free of
//! raw FFI.
//!
//! **Constraints on the child closure.** `fork` in a (potentially)
//! multi-threaded process clones only the calling thread; locks held by
//! other threads stay locked forever in the child. The closure must
//! therefore avoid anything that may take a process-global lock — heap
//! allocation included. The shm producer path satisfies this by design:
//! attach and `try_push` allocate nothing on success. The child never
//! returns to the caller: it exits via `_exit`, skipping destructors and
//! (deliberately) leaving its PID claimed in any attached segment, exactly
//! like a real crashed application.

#![cfg(unix)]

use std::os::raw::c_int;

use crate::shm::error::ShmError;

mod sys {
    use std::os::raw::c_int;

    pub const SIGKILL: c_int = 9;
    pub const P_PID: c_int = 1;
    pub const WEXITED: c_int = 4;
    pub const WNOWAIT: c_int = 0x0100_0000;

    /// `siginfo_t`: 128 bytes on every Linux/BSD ABI; only its size is
    /// used here.
    #[repr(C, align(8))]
    pub struct SigInfo(pub [u8; 128]);

    extern "C" {
        pub fn fork() -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn waitid(idtype: c_int, id: c_int, info: *mut SigInfo, options: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn _exit(code: c_int) -> !;
    }
}

/// How a forked child terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildExit {
    /// `_exit(code)`.
    Exited(i32),
    /// Killed by a signal.
    Signaled(i32),
}

/// A forked child process.
#[derive(Debug)]
pub struct ForkedChild {
    pid: c_int,
}

/// Forks; the child runs `child` and `_exit`s with its return value, the
/// parent gets a [`ForkedChild`] to wait on or kill.
///
/// See the module docs for what `child` may safely do.
///
/// # Errors
///
/// Returns [`ShmError::Io`] when `fork` fails.
pub fn fork_child(child: impl FnOnce() -> i32) -> Result<ForkedChild, ShmError> {
    // SAFETY: fork itself is always sound to call; the constraints on what
    // the child may do are documented on this function and the module.
    match unsafe { sys::fork() } {
        -1 => Err(ShmError::Io {
            op: "fork",
            source: std::io::Error::last_os_error(),
        }),
        0 => {
            let code = child();
            // SAFETY: terminating the child without unwinding into the
            // cloned parent state is exactly what `_exit` is for.
            unsafe { sys::_exit(code) }
        }
        pid => Ok(ForkedChild { pid }),
    }
}

impl ForkedChild {
    /// The child's PID (as stored in segment headers).
    pub fn pid(&self) -> u32 {
        self.pid as u32
    }

    /// Blocks until the child terminates and reports how.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when `waitpid` fails.
    pub fn wait(self) -> Result<ChildExit, ShmError> {
        let mut status: c_int = 0;
        // SAFETY: `pid` is a child of this process that has not been
        // waited on (wait consumes self).
        let rc = unsafe { sys::waitpid(self.pid, &mut status, 0) };
        if rc == -1 {
            return Err(ShmError::Io {
                op: "waitpid",
                source: std::io::Error::last_os_error(),
            });
        }
        // POSIX status decoding: low 7 bits are the terminating signal
        // (0 = normal exit), the next byte is the exit code.
        if status & 0x7f == 0 {
            Ok(ChildExit::Exited((status >> 8) & 0xff))
        } else {
            Ok(ChildExit::Signaled(status & 0x7f))
        }
    }

    /// Blocks until the child has terminated **without** waiting for it:
    /// the child stays a zombie — what a crashed application is for as
    /// long as its parent never calls `wait` — until [`ForkedChild::wait`].
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when `waitid` fails.
    pub fn await_exit(&self) -> Result<(), ShmError> {
        let mut info = sys::SigInfo([0; 128]);
        // SAFETY: `pid` is an unwaited-for child of this process and
        // `info` is writable for a whole `siginfo_t`.
        let rc =
            unsafe { sys::waitid(sys::P_PID, self.pid, &mut info, sys::WEXITED | sys::WNOWAIT) };
        if rc == -1 {
            return Err(ShmError::Io {
                op: "waitid",
                source: std::io::Error::last_os_error(),
            });
        }
        Ok(())
    }

    /// Sends the child `SIGKILL` (the "application crashed mid-stream"
    /// fault the reap tests inject). Call [`ForkedChild::wait`] afterwards
    /// to release the zombie.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::Io`] when `kill` fails.
    pub fn kill(&self) -> Result<(), ShmError> {
        // SAFETY: signalling our own child.
        if unsafe { sys::kill(self.pid, sys::SIGKILL) } == -1 {
            return Err(ShmError::Io {
                op: "kill",
                source: std::io::Error::last_os_error(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_exit_code_is_reported() {
        let child = fork_child(|| 7).unwrap();
        assert!(child.pid() > 0);
        assert_eq!(child.wait().unwrap(), ChildExit::Exited(7));
    }

    #[test]
    fn await_exit_leaves_the_zombie_for_wait() {
        let child = fork_child(|| 3).unwrap();
        child.await_exit().unwrap();
        child.await_exit().unwrap();
        assert_eq!(child.wait().unwrap(), ChildExit::Exited(3));
    }

    #[test]
    fn killed_child_is_reported_as_signaled() {
        let child = fork_child(|| loop {
            std::hint::spin_loop();
        })
        .unwrap();
        child.kill().unwrap();
        assert_eq!(child.wait().unwrap(), ChildExit::Signaled(sys::SIGKILL));
    }
}
