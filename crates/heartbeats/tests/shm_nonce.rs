//! Regression coverage for the PID-recycling false-liveness hole (closed
//! by the ABI v2 producer start nonce).
//!
//! Pre-v2, producer liveness was `kill(pid, 0)` alone: a producer that
//! died and whose PID the kernel handed to an unrelated process read as
//! *alive*, so the daemon kept a dead application's segment forever. V2
//! records the producer's `/proc/<pid>/stat` start time at claim; a live
//! process whose start time disagrees with the recorded nonce is a
//! recycled PID — the original producer is dead.
//!
//! These tests run the hole cross-process: a real forked producer dies,
//! its PID slot is "recycled" onto a live process (this test process),
//! and the nonce must keep reading the claim as dead.

#![cfg(target_os = "linux")]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::shm::{
    current_pid, process_start_nonce, PeerState, Segment, SegmentGeometry, ShmConsumer, ShmProducer,
};

fn segment() -> Arc<Segment> {
    Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap())
}

#[test]
fn live_forked_producer_reads_alive_then_dead_after_kill() {
    let segment = segment();
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let child = fork_child({
        let segment = Arc::clone(&segment);
        move || {
            let Ok(_producer) = ShmProducer::attach(segment) else {
                return 1;
            };
            loop {
                std::hint::spin_loop();
            }
        }
    })
    .unwrap();

    // Wait for the child's claim, then check the nonce went with it. The
    // nonce is stored *after* the PID claim (a probe in between sees the
    // zero-nonce fallback), so wait for it too: asserting on it right after
    // the PID appears failed one run in forty and orphaned the spinning
    // child, which hangs `cargo test`.
    while segment.header().producer_pid.load(Ordering::Acquire) == 0
        || segment.header().producer_nonce.load(Ordering::Acquire) == 0
    {
        std::hint::spin_loop();
    }
    assert_eq!(consumer.producer_state(), PeerState::Alive(child.pid()));
    let recorded = segment.header().producer_nonce.load(Ordering::Acquire);
    assert_ne!(recorded, 0, "a claim on Linux always records a nonce");
    assert_eq!(process_start_nonce(child.pid()), Some(recorded));

    let child_pid = child.pid();
    child.kill().unwrap();
    assert!(matches!(child.wait().unwrap(), ChildExit::Signaled(_)));
    assert_eq!(consumer.producer_state(), PeerState::Dead(child_pid));
}

/// Regression: `kill(pid, 0)` succeeds on a process that has exited but
/// has not been waited for, so a crashed producer whose parent never calls
/// `wait` read `Alive` — and held its slot and segment — forever. The state
/// field of the `/proc/<pid>/stat` read the nonce check already makes says
/// otherwise.
#[test]
fn exited_but_unwaited_producer_reads_dead() {
    let segment = segment();
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
    let child = fork_child({
        let segment = Arc::clone(&segment);
        move || match ShmProducer::attach(segment) {
            Ok(_producer) => 0,
            Err(_) => 1,
        }
    })
    .unwrap();
    let child_pid = child.pid();
    child.await_exit().unwrap();

    // A zombie: the PID still resolves and still carries its start time.
    assert!(powerdial_heartbeats::shm::pid_alive(child_pid));
    assert_eq!(
        process_start_nonce(child_pid),
        Some(segment.header().producer_nonce.load(Ordering::Acquire))
    );
    assert_eq!(consumer.producer_state(), PeerState::Dead(child_pid));
    assert_eq!(
        consumer.probe().producer_state(),
        PeerState::Dead(child_pid)
    );
    // With no nonce recorded, too: exit is not a question of identity.
    segment.header().producer_nonce.store(0, Ordering::Release);
    assert_eq!(consumer.producer_state(), PeerState::Dead(child_pid));
    // A would-be successor sees an abandoned stream, not a live rival.
    segment
        .header()
        .producer_nonce
        .store(process_start_nonce(child_pid).unwrap(), Ordering::Release);
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(powerdial_heartbeats::shm::ShmError::DeadPeer { .. })
    ));

    assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));
    assert_eq!(consumer.producer_state(), PeerState::Dead(child_pid));
}

#[test]
fn recycled_pid_with_stale_nonce_still_reads_dead() {
    let segment = segment();
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    // A real producer claims and dies without detaching (a crash).
    let child = fork_child({
        let segment = Arc::clone(&segment);
        move || match ShmProducer::attach(segment) {
            Ok(_producer) => 0,
            Err(_) => 1,
        }
    })
    .unwrap();
    let child_pid = child.pid();
    assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));
    assert_eq!(consumer.producer_state(), PeerState::Dead(child_pid));

    // The kernel "recycles" the dead producer's PID onto a live,
    // unrelated process — simulated by writing this very process's PID
    // over the stale claim while keeping the dead child's nonce.
    let my_pid = current_pid();
    let my_nonce = process_start_nonce(my_pid).unwrap();
    segment
        .header()
        .producer_pid
        .store(my_pid, Ordering::Release);
    if segment.header().producer_nonce.load(Ordering::Acquire) == my_nonce {
        // The child forked within the same clock tick this process
        // started in, so its start time collides with ours; perturb the
        // recorded nonce to keep the scenario honest (any dead
        // producer's nonce other than ours would do).
        segment
            .header()
            .producer_nonce
            .store(my_nonce + 1, Ordering::Release);
    }

    // Pre-v2 this read Alive (kill(pid, 0) succeeds on a live PID) and
    // the daemon leaked the segment; the nonce closes the hole.
    assert_eq!(
        consumer.producer_state(),
        PeerState::Dead(my_pid),
        "a recycled PID must not resurrect a dead producer"
    );

    // The matching nonce is what actually asserts identity, not the PID:
    // restore it and the claim reads alive again.
    segment
        .header()
        .producer_nonce
        .store(my_nonce, Ordering::Release);
    assert_eq!(consumer.producer_state(), PeerState::Alive(my_pid));

    // A zero nonce (pre-nonce attacher) documents the legacy fallback:
    // plain PID liveness, recycling hole and all.
    segment.header().producer_nonce.store(0, Ordering::Release);
    assert_eq!(consumer.producer_state(), PeerState::Alive(my_pid));
}

#[test]
fn start_nonce_reads_self_and_rejects_vacant_pids() {
    let mine = process_start_nonce(current_pid());
    assert!(mine.is_some());
    assert_eq!(
        mine,
        process_start_nonce(current_pid()),
        "stable per process"
    );
    // PID_MAX on Linux is < 2^22 by default and this value is far above
    // any configurable ceiling, so no such process exists.
    assert_eq!(process_start_nonce(0x7FFF_FF00), None);
}
