//! Error type for the control system.

use std::error::Error;
use std::fmt;

/// Errors produced while configuring the controller, actuator, or runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControlError {
    /// The target heart rate is zero, negative, or not finite.
    InvalidTargetRate {
        /// The offending target rate in beats per second.
        rate: f64,
    },
    /// The baseline speed is zero, negative, or not finite.
    InvalidBaseSpeed {
        /// The offending baseline speed in beats per second.
        speed: f64,
    },
    /// The speedup clamp range is invalid (minimum above maximum or
    /// non-positive values).
    InvalidSpeedupRange {
        /// Requested minimum speedup.
        min: f64,
        /// Requested maximum speedup.
        max: f64,
    },
    /// The time quantum is zero heartbeats.
    ZeroQuantum,
    /// A daemon channel capacity of zero records was requested.
    ZeroChannelCapacity,
    /// A daemon sliding-window size of zero heartbeats was requested.
    ZeroWindowSize,
    /// The platform's DVFS backend rejected an actuation.
    Platform(powerdial_platform::PlatformError),
    /// A daemon worker thread died (panicked mid-quantum). The daemon
    /// stays serviceable in degraded form: the dead shard's applications
    /// stop receiving fresh decisions, every other shard keeps ticking.
    ShardDead {
        /// Index of the dead worker shard.
        shard: usize,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::InvalidTargetRate { rate } => {
                write!(
                    f,
                    "target heart rate must be positive and finite, got {rate}"
                )
            }
            ControlError::InvalidBaseSpeed { speed } => {
                write!(f, "baseline speed must be positive and finite, got {speed}")
            }
            ControlError::InvalidSpeedupRange { min, max } => {
                write!(f, "invalid speedup range [{min}, {max}]")
            }
            ControlError::ZeroQuantum => write!(f, "time quantum must be at least one heartbeat"),
            ControlError::ZeroChannelCapacity => {
                write!(f, "daemon channel capacity must be at least one record")
            }
            ControlError::ZeroWindowSize => {
                write!(f, "daemon window size must be at least one heartbeat")
            }
            ControlError::Platform(inner) => write!(f, "dvfs backend: {inner}"),
            ControlError::ShardDead { shard } => {
                write!(
                    f,
                    "daemon worker shard {shard} died; its apps are orphaned, \
                     other shards remain serviceable"
                )
            }
        }
    }
}

impl Error for ControlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControlError::Platform(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<powerdial_platform::PlatformError> for ControlError {
    fn from(inner: powerdial_platform::PlatformError) -> Self {
        ControlError::Platform(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty() {
        let errors = [
            ControlError::InvalidTargetRate { rate: -1.0 },
            ControlError::InvalidBaseSpeed { speed: 0.0 },
            ControlError::InvalidSpeedupRange { min: 2.0, max: 1.0 },
            ControlError::ZeroQuantum,
            ControlError::ZeroChannelCapacity,
            ControlError::ZeroWindowSize,
            ControlError::ShardDead { shard: 3 },
            ControlError::Platform(powerdial_platform::PlatformError::StateNotInTable {
                khz: 3_000_000,
            }),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ControlError>();
    }
}
