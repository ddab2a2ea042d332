//! Client-side telemetry: a fixed-footprint record of the degradation
//! ladder's activity.
//!
//! The daemon's telemetry plane answers "how is the fleet doing?"; this
//! module answers the per-application question "which rung has *my*
//! client been serving, and when did it move?". Everything here is
//! allocation-free and `Copy`-record based so reading it perturbs the
//! application no more than a beat does:
//!
//! * a poll counter per [`DecisionSource`] rung (how often each rung was
//!   served), and a count of the polls that asked the kernel whether the
//!   daemon is alive (liveness is sampled; the rest reused a verdict);
//! * a ring of the last [`LADDER_TRANSITION_CAPACITY`] rung *changes*
//!   ([`LadderTransition`]: from-rung, to-rung, the poll's clock
//!   reading), overwriting the oldest when full, with a monotone
//!   sequence number so dropped history is detectable.
//!
//! The record is maintained by
//! [`current_decision`](crate::PowerDialClient::current_decision) and
//! read back through
//! [`ladder_telemetry`](crate::PowerDialClient::ladder_telemetry); it is
//! the client-side companion to the daemon's decision trace, letting an
//! operator reconstruct an outage timeline (when the client fell to
//! `LastKnownGood`, how long it spent `Reattaching`, when it recovered)
//! without any logging on the hot path.

use std::time::Instant;

use crate::client::DecisionSource;

/// Rung changes retained by [`LadderTelemetry`] before the oldest is
/// overwritten. A whole outage-and-recovery arc is a handful of
/// transitions, so 32 comfortably holds several incidents.
pub const LADDER_TRANSITION_CAPACITY: usize = 32;

/// Number of rungs in [`DecisionSource`].
const RUNGS: usize = 4;

fn rung_index(source: DecisionSource) -> usize {
    match source {
        DecisionSource::Published => 0,
        DecisionSource::LastKnownGood => 1,
        DecisionSource::Reattaching => 2,
        DecisionSource::SafeState => 3,
    }
}

/// One observed rung change on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderTransition {
    /// Monotone index of this transition (0 for the first ever observed);
    /// gaps against [`LadderTelemetry::transitions`] reveal history lost
    /// to ring overwrite.
    pub seq: u64,
    /// The rung served by the previous poll.
    pub from: DecisionSource,
    /// The rung served by the poll that observed the change.
    pub to: DecisionSource,
    /// The observing poll's clock reading.
    pub at: Instant,
}

/// Fixed-footprint poll counters and transition history for one client's
/// degradation ladder.
#[derive(Debug, Clone)]
pub struct LadderTelemetry {
    polls: [u64; RUNGS],
    liveness_probes: u64,
    last: Option<DecisionSource>,
    ring: [Option<LadderTransition>; LADDER_TRANSITION_CAPACITY],
    head: usize,
    len: usize,
    total: u64,
}

impl LadderTelemetry {
    pub(crate) fn new() -> Self {
        LadderTelemetry {
            polls: [0; RUNGS],
            liveness_probes: 0,
            last: None,
            ring: [None; LADDER_TRANSITION_CAPACITY],
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Records one poll outcome: bumps the rung's counter and, when the
    /// rung changed, appends a transition (overwriting the oldest when
    /// the ring is full).
    pub(crate) fn observe(&mut self, to: DecisionSource, at: Instant) {
        self.polls[rung_index(to)] += 1;
        if let Some(from) = self.last {
            if from != to {
                self.ring[self.head] = Some(LadderTransition {
                    seq: self.total,
                    from,
                    to,
                    at,
                });
                self.head = (self.head + 1) % LADDER_TRANSITION_CAPACITY;
                self.len = (self.len + 1).min(LADDER_TRANSITION_CAPACITY);
                self.total += 1;
            }
        }
        self.last = Some(to);
    }

    /// Records one liveness probe made on the decision path.
    pub(crate) fn note_liveness_probe(&mut self) {
        self.liveness_probes += 1;
    }

    /// Daemon-liveness probes (`kill(pid, 0)`) made by decision polls. At
    /// most one per 100 µs while the daemon lives, one per poll while it
    /// does not; a successful reattach adds one to its poll. Probes on the
    /// beat path are not counted here.
    pub fn liveness_probes(&self) -> u64 {
        self.liveness_probes
    }

    /// Polls that served the given rung.
    pub fn polls(&self, source: DecisionSource) -> u64 {
        self.polls[rung_index(source)]
    }

    /// Total decision polls observed.
    pub fn total_polls(&self) -> u64 {
        self.polls.iter().sum()
    }

    /// The rung served by the most recent poll (`None` before the first).
    pub fn current_rung(&self) -> Option<DecisionSource> {
        self.last
    }

    /// Total rung changes ever observed (including any overwritten out of
    /// the ring).
    pub fn total_transitions(&self) -> u64 {
        self.total
    }

    /// Transitions overwritten out of the ring.
    pub fn dropped_transitions(&self) -> u64 {
        self.total - self.len as u64
    }

    /// The retained transitions, oldest first.
    pub fn transitions(&self) -> impl Iterator<Item = LadderTransition> + '_ {
        let start = if self.len < LADDER_TRANSITION_CAPACITY {
            0
        } else {
            self.head
        };
        (0..self.len).map(move |offset| {
            self.ring[(start + offset) % LADDER_TRANSITION_CAPACITY]
                .expect("ring slots below len are filled")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_polls_and_records_only_changes() {
        let mut ladder = LadderTelemetry::new();
        let t0 = Instant::now();
        ladder.observe(DecisionSource::Published, t0);
        ladder.observe(DecisionSource::Published, t0);
        ladder.observe(DecisionSource::LastKnownGood, t0);
        ladder.observe(DecisionSource::SafeState, t0);
        ladder.observe(DecisionSource::SafeState, t0);

        assert_eq!(ladder.polls(DecisionSource::Published), 2);
        assert_eq!(ladder.polls(DecisionSource::LastKnownGood), 1);
        assert_eq!(ladder.polls(DecisionSource::SafeState), 2);
        assert_eq!(ladder.total_polls(), 5);
        assert_eq!(ladder.current_rung(), Some(DecisionSource::SafeState));

        let transitions: Vec<_> = ladder.transitions().collect();
        assert_eq!(transitions.len(), 2);
        assert_eq!(transitions[0].seq, 0);
        assert_eq!(transitions[0].from, DecisionSource::Published);
        assert_eq!(transitions[0].to, DecisionSource::LastKnownGood);
        assert_eq!(transitions[1].seq, 1);
        assert_eq!(transitions[1].from, DecisionSource::LastKnownGood);
        assert_eq!(transitions[1].to, DecisionSource::SafeState);
        assert_eq!(ladder.dropped_transitions(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_total() {
        let mut ladder = LadderTelemetry::new();
        let t0 = Instant::now();
        // Alternate rungs so every poll after the first is a transition.
        let rungs = [DecisionSource::Published, DecisionSource::SafeState];
        let observations = LADDER_TRANSITION_CAPACITY + 10;
        for index in 0..=observations {
            ladder.observe(rungs[index % 2], t0);
        }
        assert_eq!(ladder.total_transitions(), observations as u64);
        assert_eq!(ladder.dropped_transitions(), 10);
        let transitions: Vec<_> = ladder.transitions().collect();
        assert_eq!(transitions.len(), LADDER_TRANSITION_CAPACITY);
        // Oldest-first, contiguous sequence numbers ending at the latest.
        for (offset, transition) in transitions.iter().enumerate() {
            assert_eq!(transition.seq, 10 + offset as u64);
        }
    }
}
