//! Durable-segment crash-safety: a torn tail write must not take the
//! intact prefix with it. Reopening after truncation (or a corrupted
//! byte) yields every intact record, rejects the torn one with a typed
//! error, and leaves the segment appendable.

use flock_store::{
    EpochRecord, Segment, SegmentError, StoreConfig, StoreQuery, Verdict, VerdictStore,
};
use flock_stream::Provenance;
use flock_topology::{Component, LinkId};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("flock_store_{}_{name}.seg", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn record(epoch: u64) -> EpochRecord {
    let component = Component::Link(LinkId(7));
    EpochRecord {
        epoch_index: epoch,
        start_ms: epoch * 1_000,
        end_ms: (epoch + 1) * 1_000,
        records: 3_000,
        observations: 120,
        hypotheses_scanned: 40_000 + epoch,
        runtime_us: 900 + epoch,
        // Odd epochs store a degraded verdict so the health block
        // round-trips through the v2 codec and crash recovery.
        degraded: epoch % 2 == 1,
        evidence_coverage: if epoch % 2 == 1 { 0.75 } else { 1.0 },
        degrade_reasons: if epoch % 2 == 1 {
            vec![format!("shard-panicked:pod{epoch}")]
        } else {
            Vec::new()
        },
        verdicts: vec![Verdict {
            component,
            score: 12.5 + epoch as f64,
            provenance: Provenance {
                component,
                shard: "pod1".to_string(),
                score: 12.5 + epoch as f64,
                super_flows: 17,
                raw_weight: 240.0,
                sets: vec![3, 9, 11],
            },
        }],
    }
}

fn write_segment(path: &PathBuf, epochs: u64) -> u64 {
    let mut seg = Segment::create(path).unwrap();
    for e in 0..epochs {
        seg.append(&record(e)).unwrap();
    }
    seg.sync().unwrap();
    seg.file_bytes()
}

#[test]
fn roundtrip_without_corruption() {
    let path = temp_path("roundtrip");
    write_segment(&path, 5);
    let mut seg = Segment::open(&path).unwrap();
    assert!(seg.torn().is_none());
    assert_eq!(seg.len(), 5);
    for e in 0..5u64 {
        let rec = seg.read_epoch(e).unwrap().unwrap();
        assert_eq!(rec.epoch_index, e);
        assert_eq!(rec.verdicts.len(), 1);
        let v = &rec.verdicts[0];
        assert_eq!(v.component, Component::Link(LinkId(7)));
        assert_eq!(v.provenance.shard, "pod1");
        assert_eq!(v.provenance.sets, vec![3, 9, 11]);
        assert_eq!(v.provenance.super_flows, 17);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_tail_rejected_prefix_readable() {
    let path = temp_path("trunc");
    let full = write_segment(&path, 5);

    // A crash mid-append: the last frame loses its final 7 bytes.
    let f = OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(full - 7).unwrap();
    drop(f);

    let mut seg = Segment::open(&path).unwrap();
    // The torn record is rejected with the typed reason...
    match seg.torn() {
        Some(SegmentError::TornFrame { have, need, .. }) => {
            assert!(have < need, "torn frame must be short: {have} < {need}")
        }
        other => panic!("expected TornFrame, got {other:?}"),
    }
    // ...and the intact prefix is fully readable.
    assert_eq!(seg.len(), 4);
    for e in 0..4u64 {
        assert_eq!(seg.read(e as usize).unwrap().epoch_index, e);
    }

    // The segment stays appendable: recovery truncated the torn bytes,
    // so a new append lands on a clean frame boundary...
    seg.append(&record(100)).unwrap();
    seg.sync().unwrap();
    drop(seg);
    // ...and a further reopen sees a clean file.
    let mut seg = Segment::open(&path).unwrap();
    assert!(seg.torn().is_none());
    assert_eq!(seg.len(), 5);
    assert_eq!(seg.read(4).unwrap().epoch_index, 100);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupted_byte_rejected_with_checksum_error() {
    let path = temp_path("crc");
    let full = write_segment(&path, 3);

    // Flip one payload byte inside the last frame.
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    f.seek(SeekFrom::Start(full - 3)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(full - 3)).unwrap();
    f.write_all(&[b[0] ^ 0xff]).unwrap();
    drop(f);

    let seg = Segment::open(&path).unwrap();
    match seg.torn() {
        Some(SegmentError::ChecksumMismatch {
            expected, found, ..
        }) => assert_ne!(expected, found),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    assert_eq!(seg.len(), 2);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn store_reopen_replays_the_intact_prefix() {
    let path = temp_path("store_reopen");
    let full = write_segment(&path, 6);
    // Tear the tail, then open through the store layer.
    let f = OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(full - 5).unwrap();
    drop(f);

    let mut store = VerdictStore::open(StoreConfig::default(), &path).unwrap();
    assert!(matches!(store.torn(), Some(SegmentError::TornFrame { .. })));
    assert_eq!(store.durable_epochs(), 5);
    // Derived state is rebuilt from the intact prefix by replay.
    let comp = Component::Link(LinkId(7));
    let history = store.history(comp);
    assert_eq!(history.len(), 5);
    assert_eq!(history[0].epoch, 0);
    assert_eq!(history[4].epoch, 4);
    let prov = store.provenance(comp, 2).expect("blamed in epoch 2");
    assert_eq!(prov.shard, "pod1");
    assert!(store.provenance(comp, 5).is_none(), "torn epoch is gone");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn other_version_is_refused_and_left_untouched() {
    let path = temp_path("v1");
    write_segment(&path, 3);
    // Re-stamp the header as codec version 1 (before the health block).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
    std::fs::write(&path, &bytes).unwrap();

    assert!(matches!(
        Segment::open(&path),
        Err(SegmentError::BadVersion(1))
    ));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "a refused segment is not truncated or rewritten"
    );
    std::fs::remove_file(&path).unwrap();
}
