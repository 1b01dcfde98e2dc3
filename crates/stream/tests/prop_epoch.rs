//! Property tests of epoch windowing: tumbling windows partition an
//! arbitrary drained record stream losslessly — no record dropped, none
//! double-counted — under any watermark schedule.

use flock_stream::{EpochConfig, EpochManager};
use flock_telemetry::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
use flock_topology::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

/// A record whose identity survives windowing: `id` is its flow key's
/// source node, so no two generated records collide. A record carries
/// no stamp; its stamp is the key of the run it is handed over in.
fn rec(id: u32) -> MonitoredFlow {
    MonitoredFlow {
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
        true_path: Vec::new(),
    }
}

/// The identity of a record built by [`rec`].
fn id_of(r: &MonitoredFlow) -> u32 {
    r.key.src.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tumbling epochs partition the stream: every placed record lands
    /// in exactly one closed epoch, inside that epoch's bounds,
    /// regardless of placement order or how the watermark advances.
    #[test]
    fn tumbling_partitions_losslessly(
        epoch_ms in 1u64..500,
        stamps in prop::collection::vec(0u64..5_000, 1..200),
        watermark_steps in prop::collection::vec(0u64..6_000, 0..8),
    ) {
        let mut mgr = EpochManager::new(EpochConfig::tumbling(epoch_ms));
        for (i, &ts) in stamps.iter().enumerate() {
            mgr.extend_bucket(ts, vec![rec(i as u32)]);
        }
        let mut closed = Vec::new();
        let mut wm = 0u64;
        for &step in &watermark_steps {
            // Watermarks only move forward.
            wm = wm.max(step);
            closed.extend(mgr.close_ready(wm));
        }
        closed.extend(mgr.flush());

        // No late drops: everything was placed before any close.
        prop_assert_eq!(mgr.late_records(), 0);

        // Each record id appears exactly once, within the window of the
        // stamp it was handed over with.
        let mut seen: HashMap<u32, u64> = HashMap::new();
        for ep in &closed {
            prop_assert_eq!(ep.start_ms, ep.index * epoch_ms);
            prop_assert_eq!(ep.end_ms, ep.start_ms + epoch_ms);
            for r in &ep.records {
                let id = id_of(r);
                let ts = stamps[id as usize];
                prop_assert!(
                    ts >= ep.start_ms && ts < ep.end_ms,
                    "record stamped {} outside epoch [{}, {})",
                    ts, ep.start_ms, ep.end_ms
                );
                let dup = seen.insert(id, ep.index);
                prop_assert!(dup.is_none(), "record {} double-counted", id);
            }
        }
        prop_assert_eq!(seen.len(), stamps.len(), "no record dropped");

        // Epoch indices are strictly increasing (no window emitted twice).
        for w in closed.windows(2) {
            prop_assert!(w[0].index < w[1].index);
        }
    }

    /// Placing stamp runs closes the same epochs as placing one record
    /// at a time: however a stamp's records are split into runs, and in
    /// whatever order the runs arrive, every epoch holds exactly the
    /// same records.
    #[test]
    fn stamp_runs_partition_identically_to_single_records(
        epoch_ms in 1u64..500,
        stamps in prop::collection::vec(0u64..5_000, 1..200),
        splits in prop::collection::vec(1usize..4, 8..9),
        order_seed: u64,
    ) {
        // Reference: one record at a time, in stream order.
        let mut single = EpochManager::new(EpochConfig::tumbling(epoch_ms));
        for (i, &ts) in stamps.iter().enumerate() {
            single.extend_bucket(ts, vec![rec(i as u32)]);
        }

        // Group by stamp, split each stamp's records into 1–3 runs, and
        // hand the runs over in a shuffled order.
        let mut by_stamp: BTreeMap<u64, Vec<MonitoredFlow>> = BTreeMap::new();
        for (i, &ts) in stamps.iter().enumerate() {
            by_stamp.entry(ts).or_default().push(rec(i as u32));
        }
        let mut runs: Vec<(u64, Vec<MonitoredFlow>)> = Vec::new();
        for (k, (ts, recs)) in by_stamp.into_iter().enumerate() {
            let size = recs.len().div_ceil(splits[k % splits.len()]);
            runs.extend(recs.chunks(size).map(|run| (ts, run.to_vec())));
        }
        runs.shuffle(&mut StdRng::seed_from_u64(order_seed));
        let mut grouped = EpochManager::new(EpochConfig::tumbling(epoch_ms));
        for (ts, run) in runs {
            grouped.extend_bucket(ts, run);
        }

        let close = |mgr: &mut EpochManager| {
            mgr.flush()
                .into_iter()
                .map(|ep| {
                    let mut ids: Vec<u32> = ep.records.iter().map(id_of).collect();
                    ids.sort_unstable();
                    (ep.index, ids)
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(close(&mut single), close(&mut grouped));
        prop_assert_eq!(single.late_records(), 0);
        prop_assert_eq!(grouped.late_records(), 0);
    }
}
