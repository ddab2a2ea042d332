//! Fault-injection tests for the shared-memory attach handshake.
//!
//! The promise under test: a truncated, forged, corrupted, stale, or
//! contested segment produces a *typed* [`ShmError`] — never undefined
//! behaviour, never a panic. Each test constructs a valid segment, breaks
//! exactly one invariant through the raw (public, atomic) header fields,
//! and asserts the handshake reports precisely that break.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use powerdial_heartbeats::shm::{
    PeerRole, Segment, SegmentGeometry, ShmConsumer, ShmError, ShmProducer, SEGMENT_ABI_VERSION,
    SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
};

fn fresh_segment() -> Arc<Segment> {
    Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap())
}

#[test]
fn wrong_magic_is_rejected_for_both_roles() {
    let segment = fresh_segment();
    segment.header().magic.store(0xdead_beef, Ordering::Release);
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(ShmError::BadMagic { found: 0xdead_beef })
    ));
    assert!(matches!(
        ShmConsumer::attach(Arc::clone(&segment)),
        Err(ShmError::BadMagic { found: 0xdead_beef })
    ));
    // Restoring the magic heals the segment: nothing was corrupted by the
    // failed attaches.
    segment
        .header()
        .magic
        .store(SEGMENT_MAGIC, Ordering::Release);
    assert!(ShmProducer::attach(Arc::clone(&segment)).is_ok());
}

#[test]
fn mismatched_abi_version_is_rejected() {
    let segment = fresh_segment();
    segment
        .header()
        .abi_version
        .store(SEGMENT_ABI_VERSION + 1, Ordering::Release);
    match ShmConsumer::attach(Arc::clone(&segment)) {
        Err(ShmError::AbiVersionMismatch { found, expected }) => {
            assert_eq!(found, SEGMENT_ABI_VERSION + 1);
            assert_eq!(expected, SEGMENT_ABI_VERSION);
        }
        other => panic!("expected AbiVersionMismatch, got {other:?}"),
    }
}

#[test]
fn uninitialized_segment_is_rejected() {
    let segment = fresh_segment();
    segment.header().ready.store(0, Ordering::Release);
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(ShmError::NotInitialized)
    ));
}

#[test]
fn corrupt_capacity_is_rejected() {
    // Non-power-of-two.
    let segment = fresh_segment();
    segment.header().capacity.store(3, Ordering::Release);
    assert!(matches!(
        ShmConsumer::attach(Arc::clone(&segment)),
        Err(ShmError::BadGeometry {
            field: "capacity",
            found: 3
        })
    ));

    // A capacity the mapping cannot hold: valid geometry, truncated
    // backing.
    let segment = fresh_segment();
    segment.header().capacity.store(1 << 20, Ordering::Release);
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(ShmError::TruncatedSegment { .. })
    ));
}

#[test]
fn corrupt_stride_and_record_size_are_rejected() {
    let segment = fresh_segment();
    // Stride no longer covers the record.
    segment.header().slot_stride.store(8, Ordering::Release);
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(ShmError::BadGeometry {
            field: "slot_stride",
            ..
        })
    ));

    let segment = fresh_segment();
    segment.header().record_size.store(0, Ordering::Release);
    assert!(matches!(
        ShmConsumer::attach(Arc::clone(&segment)),
        Err(ShmError::BadGeometry {
            field: "record_size",
            ..
        })
    ));
}

#[test]
fn foreign_record_size_is_rejected_not_overrun() {
    // A segment from a different record revision: 16-byte records with a
    // 16-byte stride is a perfectly *self-consistent* geometry, but this
    // build's 24-byte ShmBeatSample accesses would overlap neighboring
    // slots and run past the end of the mapping. The typed handshake must
    // refuse it with the structural mismatch, for both roles.
    let geometry = SegmentGeometry::new(8, 16, 16).unwrap();
    let segment = Arc::new(Segment::create(geometry).unwrap());
    match ShmProducer::attach(Arc::clone(&segment)) {
        Err(ShmError::GeometryMismatch {
            field: "record_size",
            found,
            expected,
        }) => {
            assert_eq!(found, 16);
            assert_eq!(expected, 24);
        }
        other => panic!("expected GeometryMismatch, got {other:?}"),
    }
    assert!(matches!(
        ShmConsumer::attach(Arc::clone(&segment)),
        Err(ShmError::GeometryMismatch {
            field: "record_size",
            ..
        })
    ));

    // An *oversized* record (future revision with trailing fields we do
    // not understand) is equally unreadable: reject, don't guess.
    let segment = fresh_segment();
    segment.header().record_size.store(32, Ordering::Release);
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(ShmError::GeometryMismatch {
            field: "record_size",
            ..
        })
    ));
}

#[test]
fn header_rewritten_to_another_consistent_geometry_is_rejected() {
    // Slot addresses come from the geometry the mapping was made with, so
    // a header rewritten since to a *different but self-consistent*
    // geometry — a 24-byte stride still covers the 24-byte record and
    // still fits the mapping — must not be trusted for capacity or mask:
    // the handle would bound with one geometry and address with the other.
    let segment = fresh_segment();
    segment.header().slot_stride.store(24, Ordering::Release);
    let mapped_stride = segment.geometry().slot_stride();
    let attaches: [(&str, Result<(), ShmError>); 3] = [
        (
            "producer attach",
            ShmProducer::attach(Arc::clone(&segment)).map(drop),
        ),
        (
            "consumer attach",
            ShmConsumer::attach(Arc::clone(&segment)).map(drop),
        ),
        (
            "consumer adopt",
            ShmConsumer::adopt(Arc::clone(&segment)).map(drop),
        ),
    ];
    for (path, result) in attaches {
        match result {
            Err(ShmError::GeometryMismatch {
                field: "slot_stride",
                found,
                expected,
            }) => {
                assert_eq!(found, 24, "{path}");
                assert_eq!(expected, mapped_stride, "{path}");
            }
            other => panic!("{path}: expected GeometryMismatch, got {other:?}"),
        }
    }
    // Nothing was claimed by the refused attaches, and restoring the
    // header heals the segment.
    segment
        .header()
        .slot_stride
        .store(mapped_stride, Ordering::Release);
    assert!(ShmProducer::attach(Arc::clone(&segment)).is_ok());
    assert!(ShmConsumer::attach(Arc::clone(&segment)).is_ok());
}

#[test]
fn consumer_attach_while_producer_dead_is_rejected() {
    let segment = fresh_segment();
    // A producer PID that cannot belong to a live process: the stream can
    // never complete, so attaching is refused in favour of reaping.
    segment
        .header()
        .producer_pid
        .store(0x7fff_f001, Ordering::Release);
    match ShmConsumer::attach(Arc::clone(&segment)) {
        Err(ShmError::DeadPeer {
            role: PeerRole::Producer,
            pid,
        }) => assert_eq!(pid, 0x7fff_f001),
        other => panic!("expected DeadPeer(producer), got {other:?}"),
    }
    // A *live* producer is, of course, fine.
    segment.header().producer_pid.store(0, Ordering::Release);
    let _producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
    assert!(ShmConsumer::attach(Arc::clone(&segment)).is_ok());
}

#[test]
fn roles_claimed_by_dead_processes_are_reported_stale() {
    // Producer slot held by a dead process: a new producer must not adopt
    // the abandoned stream.
    let segment = fresh_segment();
    segment
        .header()
        .producer_pid
        .store(0x7fff_f002, Ordering::Release);
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(ShmError::DeadPeer {
            role: PeerRole::Producer,
            pid: 0x7fff_f002
        })
    ));

    // Consumer slot held by a dead process.
    let segment = fresh_segment();
    segment
        .header()
        .consumer_pid
        .store(0x7fff_f003, Ordering::Release);
    assert!(matches!(
        ShmConsumer::attach(Arc::clone(&segment)),
        Err(ShmError::DeadPeer {
            role: PeerRole::Consumer,
            pid: 0x7fff_f003
        })
    ));
}

#[test]
fn live_claims_are_exclusive() {
    let segment = fresh_segment();
    let _producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
    let _consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
    assert!(matches!(
        ShmProducer::attach(Arc::clone(&segment)),
        Err(ShmError::RoleClaimed {
            role: PeerRole::Producer,
            ..
        })
    ));
    assert!(matches!(
        ShmConsumer::attach(Arc::clone(&segment)),
        Err(ShmError::RoleClaimed {
            role: PeerRole::Consumer,
            ..
        })
    ));
}

#[cfg(unix)]
mod file_backed {
    //! Faults injected through the filesystem: what [`Segment::open`]
    //! must survive when handed an arbitrary path.

    use super::*;
    use std::io::Write;

    #[test]
    fn truncated_file_is_rejected_before_the_header_is_read() {
        // A file smaller than the header: rejected on size alone (mapping
        // it and reading header fields would fault).
        let path = std::env::temp_dir().join(format!(
            "powerdial-shm-fault-truncated-{}.shm",
            std::process::id()
        ));
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(&[0u8; 64]).unwrap();
        drop(file);
        match Segment::open(&path) {
            Err(ShmError::TruncatedSegment { expected, found }) => {
                assert_eq!(expected, SEGMENT_HEADER_LEN as u64);
                assert_eq!(found, 64);
            }
            other => panic!("expected TruncatedSegment, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_sized_garbage_is_rejected_as_bad_magic() {
        let path = std::env::temp_dir().join(format!(
            "powerdial-shm-fault-garbage-{}.shm",
            std::process::id()
        ));
        let mut file = std::fs::File::create(&path).unwrap();
        // `ready` must look set for validation to proceed past the
        // initialization check; everything else is garbage.
        let mut bytes = vec![0x5au8; SEGMENT_HEADER_LEN];
        // Offset 12 is the `ready` field (magic u64 + abi u32).
        bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
        file.write_all(&bytes).unwrap();
        drop(file);
        assert!(matches!(
            Segment::open(&path),
            Err(ShmError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn segment_file_truncated_after_creation_is_detected() {
        // The creator made a valid segment, but the file was truncated
        // behind its back (disk pressure, hostile tenant): a late attacher
        // must detect the short mapping instead of running off its end.
        let created = Segment::create_tmpfile_in(
            std::env::temp_dir(),
            SegmentGeometry::for_beat_samples(64).unwrap(),
        )
        .unwrap();
        let path = created.path().unwrap().to_path_buf();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(SEGMENT_HEADER_LEN as u64)
            .unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(ShmError::TruncatedSegment { .. })
        ));
    }
}
