//! Application Heartbeats: a generic interface for expressing program
//! performance and performance goals.
//!
//! This crate reproduces the *Application Heartbeats* framework used by the
//! PowerDial system (Hoffmann et al., ASPLOS 2011) as its feedback mechanism.
//! An application registers a [`HeartbeatMonitor`] with a target heart-rate
//! window, then emits a heartbeat at every iteration of its main control loop
//! (one heartbeat per unit of work: a frame encoded, a query answered, a
//! swaption priced). The monitor maintains instantaneous, windowed, and
//! global heart rates that external observers — such as the PowerDial control
//! system — read to decide whether the application is meeting its
//! responsiveness goal.
//!
//! Unlike the original C implementation, every API takes an explicit
//! [`Timestamp`] so the framework can be driven either by wall-clock time or
//! by a simulated clock (the PowerDial reproduction runs entirely on
//! simulated time for determinism).
//!
//! # Example
//!
//! ```
//! use powerdial_heartbeats::{HeartbeatMonitor, MonitorConfig, Timestamp};
//!
//! # fn main() -> Result<(), powerdial_heartbeats::HeartbeatError> {
//! let config = MonitorConfig::new("encoder")
//!     .with_window_size(20)
//!     .with_target_rate_range(25.0, 35.0)?;
//! let mut monitor = HeartbeatMonitor::new(config);
//!
//! // The application emits one heartbeat per frame; here one frame every
//! // 33 ms, i.e. a heart rate of ~30 beats per second.
//! for frame in 0..100u64 {
//!     monitor.heartbeat(Timestamp::from_millis(33 * frame));
//! }
//!
//! assert!(monitor.window_rate().unwrap().is_within_target(monitor.config().target()));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod channel;
mod error;
mod monitor;
pub mod naive;
mod record;
mod registry;
pub mod shm;
pub mod spsc;
mod stats;
pub mod telemetry;
mod time;

pub use channel::{beat_channel, BeatConsumer, BeatProducer, BeatSample};
pub use error::HeartbeatError;
pub use monitor::{HeartbeatMonitor, MonitorConfig, TargetRate};
pub use record::{HeartRate, HeartbeatRecord, HeartbeatTag};
pub use registry::{HeartbeatRegistry, MonitorId};
pub use stats::{RateStatistics, SlidingWindow, WindowOverflow};
pub use telemetry::{
    DecisionTraceRecord, DecisionTraceRing, HistogramSummary, LatencyHistogram, TraceReason,
};
pub use time::{Timestamp, TimestampDelta};
