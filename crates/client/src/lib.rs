//! The application-facing PowerDial client.
//!
//! The paper's deployment model puts the controller in one process (the
//! PowerDial daemon) and the instrumented application in another; the
//! application's side of that contract is exactly three verbs, and this
//! crate is their implementation:
//!
//! * **register** — [`PowerDialClient::register`] connects to the
//!   daemon's Unix-socket attach broker, speaks a fixed-size hello, and
//!   receives a memfd-backed segment over `SCM_RIGHTS` (with bounded
//!   retry/backoff while the daemon starts up). Processes that already
//!   hold a segment — forked children, tmpfile sharers — skip the broker
//!   via [`PowerDialClient::attach_segment`] /
//!   [`PowerDialClient::attach_path`].
//! * **beat** — [`PowerDialClient::beat`] emits one Application
//!   Heartbeat per unit of work: wait-free, allocation-free, one slot
//!   write and one release store into the shared ring.
//! * **current_decision** — [`PowerDialClient::current_decision`] reads
//!   the daemon's latest knob decision back through the segment's
//!   seqlock-protected decision block, bit-identical to the daemon's own
//!   `DecisionView`.
//!
//! # Surviving the daemon
//!
//! The client is built to degrade, not fail, when the control plane
//! breaks ([`CurrentDecision::source`] says which rung it is on), and to
//! climb back up on its own. The recovery state machine, as driven by
//! successive [`PowerDialClient::current_decision`] polls:
//!
//! ```text
//!                 consistent read, daemon alive
//!        +------------------------------------------------+
//!        v                                                |
//!  [ Published ] --daemon dead observed--> [ LastKnownGood ]
//!        ^                                        | grace window
//!        |                                        | expires
//!        | reattach granted:                      v
//!        | successor adopts the segment,   [ Reattaching ]---+
//!        | seeds the decision block          |  ^   (serves the safe
//!        |                                   |  |    decision; fires one
//!        +-----------------------------------+  |    jittered-backoff
//!                                      attempt--+    hello per due poll)
//!                                      failed
//!                                                 | permanent refusal
//!                                                 | (or no socket)
//!                                                 v
//!                                          [ SafeState ]
//! ```
//!
//! * torn decision reads (a daemon killed mid-publish) are detected by
//!   the seqlock and served from the **last-known-good** decision;
//! * a daemon death is observed through the segment's consumer PID; the
//!   last-known-good decision persists for a configurable **grace
//!   window** ([`ClientConfig::grace`]), then the client serves the
//!   configured **safe state** ([`ClientConfig::safe_decision`]) — the
//!   paper's baseline configuration by default. The window is measured
//!   from the *first* observation of the death on **any** client path:
//!   decision polls observe liveness directly, and the beat path probes
//!   it on a stride, so a client that beats frequently but polls rarely
//!   still ages out its stale decision on schedule instead of serving it
//!   for up to a full poll interval past the grace deadline;
//! * every poll also feeds an allocation-free ladder record
//!   ([`LadderTelemetry`]): per-rung poll counters plus a ring of the
//!   recent rung transitions, for post-hoc outage timelines;
//! * while the daemon is gone, a client that registered through the
//!   broker (or opted in via
//!   [`PowerDialClient::set_reattach_socket`](PowerDialClient)) offers
//!   its segment *back* over the socket — **reattach** — so a restarted
//!   daemon adopts the very same ring, with every beat emitted during
//!   the outage still in it, and warm-starts its controller from the
//!   state the predecessor left in the segment;
//! * backoff between reattach (and register) attempts is stretched by a
//!   deterministic per-process jitter derived from the PID and its
//!   kernel start-time nonce, so a fleet of clients orphaned by one
//!   crash does not stampede the restarted broker in phase;
//! * a restarted daemon is noticed on the next read and decisions become
//!   [`DecisionSource::Published`] again.
//!
//! `current_decision` never fails and never panics on any of those
//! paths (a due reattach attempt is the one case where it may block, for
//! at most the hello timeout); the `client_fallback` integration suite
//! SIGKILLs a real forked daemon to prove the degradation ladder, and
//! the workspace-level `chaos_recovery` suite SIGKILLs daemons at seeded
//! random points under multi-app load to prove the recovery loop.
//!
//! # Platforms
//!
//! The Unix-socket attach path ([`PowerDialClient::register`], the
//! reattach rung) is Linux-only; elsewhere the crate has no socket code at
//! all — only direct segment attachment.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod client;
mod error;
pub mod telemetry;

pub use client::{ClientConfig, CurrentDecision, Decision, DecisionSource, PowerDialClient};
pub use error::ClientError;
pub use telemetry::{LadderTelemetry, LadderTransition, LADDER_TRANSITION_CAPACITY};
