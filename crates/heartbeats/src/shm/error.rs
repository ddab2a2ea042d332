//! Typed errors for the shared-memory beat transport.
//!
//! Every failure mode of segment creation, attachment, and the ownership
//! handshake maps to a variant here. The contract the fault-injection tests
//! enforce is that a malformed, truncated, stale, or contested segment
//! produces one of these values — never undefined behaviour and never a
//! panic.

use std::fmt;

/// Which side of a segment a peer identifier refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRole {
    /// The application side: writes beat records, owns `tail`.
    Producer,
    /// The controller side: drains beat records, owns `head`.
    Consumer,
}

impl fmt::Display for PeerRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerRole::Producer => f.write_str("producer"),
            PeerRole::Consumer => f.write_str("consumer"),
        }
    }
}

/// Liveness of one side of a segment, as observed through its claimed PID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// No process has claimed the role yet.
    Absent,
    /// The role is claimed and the claiming process is alive.
    Alive(u32),
    /// The role is claimed but the claiming process no longer exists —
    /// the segment is abandoned on that side and eligible for reaping.
    Dead(u32),
}

impl PeerState {
    /// True when the role is claimed by a process that no longer exists.
    pub fn is_dead(self) -> bool {
        matches!(self, PeerState::Dead(_))
    }

    /// True when the role is claimed by a live process.
    pub fn is_alive(self) -> bool {
        matches!(self, PeerState::Alive(_))
    }
}

/// Errors produced while creating, attaching to, or probing a shared-memory
/// heartbeat segment.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShmError {
    /// An operating-system call failed while creating or mapping a segment.
    Io {
        /// The operation that failed (e.g. `"memfd_create"`, `"mmap"`).
        op: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The mapping is smaller than the header (plus slot array) requires.
    TruncatedSegment {
        /// Bytes the segment geometry requires.
        expected: u64,
        /// Bytes actually available in the mapping.
        found: u64,
    },
    /// The segment does not start with the beat-segment magic number.
    BadMagic {
        /// The first eight bytes of the mapping, little-endian.
        found: u64,
    },
    /// The segment was written by an incompatible ABI revision.
    AbiVersionMismatch {
        /// Version recorded in the segment header.
        found: u32,
        /// Version this build speaks.
        expected: u32,
    },
    /// The segment header has not (yet) been marked initialized by its
    /// creator; attaching now would race segment construction.
    NotInitialized,
    /// A geometry field of the header violates the layout invariants
    /// (power-of-two capacity, stride covering the record, aligned stride).
    BadGeometry {
        /// The offending header field.
        field: &'static str,
        /// Its value.
        found: u64,
    },
    /// A geometry field disagrees with what this attacher requires (for
    /// example a record size from a different `BeatSample` revision).
    GeometryMismatch {
        /// The mismatching header field.
        field: &'static str,
        /// Value recorded in the segment header.
        found: u64,
        /// Value this attacher requires.
        expected: u64,
    },
    /// The requested role is already claimed by a live process; a segment
    /// supports exactly one producer and one consumer.
    RoleClaimed {
        /// The contested role.
        role: PeerRole,
        /// PID of the live claimant.
        pid: u32,
    },
    /// The counterpart (or the requested role itself) is claimed by a
    /// process that no longer exists; the segment is abandoned and should
    /// be reaped, not attached to.
    DeadPeer {
        /// The role whose claimant is dead.
        role: PeerRole,
        /// The stale PID.
        pid: u32,
    },
    /// No segment backing is available on this platform (a target without
    /// `mmap`).
    NoBackingAvailable,
}

impl fmt::Display for ShmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmError::Io { op, source } => write!(f, "{op} failed: {source}"),
            ShmError::TruncatedSegment { expected, found } => write!(
                f,
                "segment truncated: geometry requires {expected} bytes, mapping has {found}"
            ),
            ShmError::BadMagic { found } => {
                write!(f, "bad segment magic {found:#018x}")
            }
            ShmError::AbiVersionMismatch { found, expected } => write!(
                f,
                "segment ABI version {found} is incompatible with expected version {expected}"
            ),
            ShmError::NotInitialized => write!(f, "segment header is not initialized"),
            ShmError::BadGeometry { field, found } => {
                write!(f, "invalid segment geometry: {field} = {found}")
            }
            ShmError::GeometryMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "segment geometry mismatch: {field} is {found}, attacher requires {expected}"
            ),
            ShmError::RoleClaimed { role, pid } => {
                write!(f, "segment {role} is already claimed by live pid {pid}")
            }
            ShmError::DeadPeer { role, pid } => {
                write!(f, "segment {role} pid {pid} no longer exists")
            }
            ShmError::NoBackingAvailable => {
                write!(f, "no shared-memory backing available on this platform")
            }
        }
    }
}

impl std::error::Error for ShmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShmError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let errors = [
            ShmError::Io {
                op: "mmap",
                source: std::io::Error::from_raw_os_error(12),
            },
            ShmError::TruncatedSegment {
                expected: 384,
                found: 64,
            },
            ShmError::BadMagic { found: 0xdead },
            ShmError::AbiVersionMismatch {
                found: 2,
                expected: 1,
            },
            ShmError::NotInitialized,
            ShmError::BadGeometry {
                field: "capacity",
                found: 3,
            },
            ShmError::GeometryMismatch {
                field: "record_size",
                found: 16,
                expected: 24,
            },
            ShmError::RoleClaimed {
                role: PeerRole::Producer,
                pid: 42,
            },
            ShmError::DeadPeer {
                role: PeerRole::Consumer,
                pid: 43,
            },
            ShmError::NoBackingAvailable,
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
            assert!(!error.to_string().ends_with('.'));
        }
    }

    #[test]
    fn peer_state_predicates() {
        assert!(PeerState::Dead(9).is_dead());
        assert!(!PeerState::Dead(9).is_alive());
        assert!(PeerState::Alive(9).is_alive());
        assert!(!PeerState::Absent.is_alive());
        assert!(!PeerState::Absent.is_dead());
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ShmError>();
    }
}
