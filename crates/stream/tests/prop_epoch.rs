//! Property tests of epoch windowing: tumbling windows partition an
//! arbitrary drained record stream losslessly — no record dropped, none
//! double-counted — under any watermark schedule.

use flock_stream::{EpochConfig, EpochManager};
use flock_telemetry::{FlowKey, FlowRecord, FlowStats, StampedRecord, TrafficClass};
use flock_topology::NodeId;
use proptest::prelude::*;
use std::collections::HashMap;

/// A stamped record whose identity survives windowing (encoded in the
/// flow key's ports so no two generated records collide).
fn rec(id: u32, ts: u64) -> StampedRecord {
    StampedRecord {
        agent_id: id,
        export_ms: ts,
        record: FlowRecord {
            key: FlowKey::tcp(
                NodeId(id),
                NodeId(id ^ 0xffff),
                (id % 60_000) as u16,
                (id / 60_000) as u16,
            ),
            stats: FlowStats {
                packets: u64::from(id) + 1,
                ..Default::default()
            },
            class: TrafficClass::Passive,
            path: None,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tumbling epochs partition the stream: every pushed record lands in
    /// exactly one closed epoch, inside that epoch's bounds, regardless
    /// of push order or how the watermark advances.
    #[test]
    fn tumbling_partitions_losslessly(
        epoch_ms in 1u64..500,
        stamps in prop::collection::vec(0u64..5_000, 1..200),
        watermark_steps in prop::collection::vec(0u64..6_000, 0..8),
    ) {
        let mut mgr = EpochManager::new(EpochConfig::tumbling(epoch_ms));
        for (i, &ts) in stamps.iter().enumerate() {
            mgr.push(rec(i as u32, ts));
        }
        let mut closed = Vec::new();
        let mut wm = 0u64;
        for &step in &watermark_steps {
            // Watermarks only move forward.
            wm = wm.max(step);
            closed.extend(mgr.close_ready(wm));
        }
        closed.extend(mgr.flush());

        // No late drops: everything was pushed before any close.
        prop_assert_eq!(mgr.late_records(), 0);

        // Each record id appears exactly once, within its window.
        let mut seen: HashMap<u32, u64> = HashMap::new();
        for ep in &closed {
            prop_assert_eq!(ep.start_ms, ep.index * epoch_ms);
            prop_assert_eq!(ep.end_ms, ep.start_ms + epoch_ms);
            for r in &ep.records {
                prop_assert!(
                    r.export_ms >= ep.start_ms && r.export_ms < ep.end_ms,
                    "record stamped {} outside epoch [{}, {})",
                    r.export_ms, ep.start_ms, ep.end_ms
                );
                let dup = seen.insert(r.agent_id, ep.index);
                prop_assert!(dup.is_none(), "record {} double-counted", r.agent_id);
            }
        }
        prop_assert_eq!(seen.len(), stamps.len(), "no record dropped");

        // Epoch indices are strictly increasing (no window emitted twice).
        for w in closed.windows(2) {
            prop_assert!(w[0].index < w[1].index);
        }
    }

    /// The wire-v2 fast path partitions records identically to the v1
    /// per-record sort path: feeding pre-bucketed input through
    /// `extend_bucket` — including deliberately mis-stamped buckets,
    /// which must fall back — closes exactly the same epochs with
    /// exactly the same record sets as pushing records one at a time.
    #[test]
    fn bucketed_drain_partitions_identically_to_v1_path(
        epoch_ms in 1u64..500,
        stamps in prop::collection::vec(0u64..5_000, 1..200),
        skew in prop::collection::vec(any::<bool>(), 8..9),
    ) {
        let records: Vec<StampedRecord> =
            stamps.iter().enumerate().map(|(i, &ts)| rec(i as u32, ts)).collect();

        // v1 path: per-record assignment in stream order.
        let mut v1 = EpochManager::new(EpochConfig::tumbling(epoch_ms));
        for r in &records {
            v1.push(r.clone());
        }

        // v2 path: group by the agent-stamped epoch (as the collector
        // reactor does), then hand over bucket-at-a-time. Every 8th
        // bucket key is optionally skewed to simulate a mis-stamping
        // agent — those must take the fallback path, not corrupt the
        // partition.
        let mut buckets: HashMap<u64, Vec<StampedRecord>> = HashMap::new();
        for r in &records {
            buckets.entry(r.export_ms / epoch_ms).or_default().push(r.clone());
        }
        let mut v2 = EpochManager::new(EpochConfig::tumbling(epoch_ms));
        let mut keys: Vec<u64> = buckets.keys().copied().collect();
        keys.sort_unstable();
        for (i, key) in keys.into_iter().enumerate() {
            let bucket = buckets.remove(&key).unwrap();
            let claimed = if skew[i % skew.len()] { key + 1 } else { key };
            v2.extend_bucket(claimed, bucket);
        }

        let close = |mgr: &mut EpochManager| {
            let mut out: Vec<(u64, Vec<u32>)> = mgr
                .flush()
                .into_iter()
                .map(|ep| {
                    let mut ids: Vec<u32> =
                        ep.records.iter().map(|r| r.agent_id).collect();
                    ids.sort_unstable();
                    (ep.index, ids)
                })
                .collect();
            out.sort_by_key(|(idx, _)| *idx);
            out
        };
        prop_assert_eq!(close(&mut v1), close(&mut v2));
        prop_assert_eq!(v1.late_records(), 0);
        prop_assert_eq!(v2.late_records(), 0);
    }
}
