//! Epoch windowing of the collector's record stream.
//!
//! Agents stamp every export message with `export_time_ms`, and the
//! collector drains records in runs that share one stamp. The
//! [`EpochManager`] places each run in the fixed-size window covering
//! its stamp (`export_ms / epoch_ms`) and closes windows as the caller's
//! watermark advances. Windows tumble (the paper's 30 s cadence), so
//! they partition the stream losslessly: every record lands in exactly
//! one epoch. Since a run has one stamp, one judgement of that stamp
//! places or drops the whole run exactly as judging each record would.
//!
//! Records arriving for an already-closed window ("late" records, e.g. a
//! stalled agent connection) are counted and dropped rather than
//! reopening history — the localization loop is a monitoring system, not
//! an exactly-once log. So are records stamped so far in the future that
//! their window's end is past `u64::MAX` (stamps come off the wire
//! unvalidated; an all-ones field is the likeliest corruption): such a
//! window could never close against any watermark.

use flock_telemetry::MonitoredFlow;
use std::collections::BTreeMap;

/// Epoch windowing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Window length in milliseconds.
    pub epoch_ms: u64,
    /// Lateness horizon in milliseconds: a record whose stamp is more
    /// than this far behind the manager's watermark is rejected as late
    /// (counted in `late_records`) even when its window is still open.
    /// `None` (the default) bounds lateness only by window closure.
    ///
    /// The horizon is measured against the caller's watermark — the
    /// collector-side clock passed to
    /// [`EpochManager::close_ready`] — not against other agents' stamps,
    /// so one forward-skewed agent clock cannot make every honest
    /// record look late.
    pub late_horizon_ms: Option<u64>,
}

impl EpochConfig {
    /// Tumbling windows of `epoch_ms` (each record in exactly one epoch).
    pub fn tumbling(epoch_ms: u64) -> Self {
        assert!(epoch_ms > 0, "epoch length must be positive");
        EpochConfig {
            epoch_ms,
            late_horizon_ms: None,
        }
    }

    /// Bound record lateness to `horizon_ms` behind the watermark.
    pub fn with_late_horizon(mut self, horizon_ms: u64) -> Self {
        self.late_horizon_ms = Some(horizon_ms);
        self
    }

    /// Start timestamp of window `index`.
    #[inline]
    pub fn window_start(&self, index: u64) -> u64 {
        index * self.epoch_ms
    }

    /// End timestamp (exclusive) of window `index`, clamped to
    /// `u64::MAX`.
    #[inline]
    pub fn window_end(&self, index: u64) -> u64 {
        self.window_start(index).saturating_add(self.epoch_ms)
    }

    /// Whether window `index` ends at a representable timestamp. One
    /// that does not can never close against any watermark, so the
    /// manager never opens it.
    #[inline]
    fn closable(&self, index: u64) -> bool {
        self.window_start(index)
            .checked_add(self.epoch_ms)
            .is_some()
    }

    /// Index of the window containing timestamp `ts` (window `k` covers
    /// `[k·epoch_ms, (k + 1)·epoch_ms)`).
    #[inline]
    pub fn window_of(&self, ts: u64) -> u64 {
        ts / self.epoch_ms
    }
}

/// One closed window of records, ready for localization.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Window index (monotone per manager).
    pub index: u64,
    /// Window start timestamp (ms, inclusive).
    pub start_ms: u64,
    /// Window end timestamp (ms, exclusive).
    pub end_ms: u64,
    /// The records whose export stamp falls inside the window, in
    /// hand-over order.
    pub records: Vec<MonitoredFlow>,
}

/// Assigns drained records to windows and closes them against a
/// watermark.
#[derive(Debug)]
pub struct EpochManager {
    config: EpochConfig,
    open: BTreeMap<u64, Vec<MonitoredFlow>>,
    /// Windows with index below this are closed; late arrivals for them
    /// are dropped (and counted).
    closed_below: u64,
    /// High-watermark of every `close_ready` call; the lateness-horizon
    /// reference clock.
    watermark_ms: u64,
    late_records: u64,
}

impl EpochManager {
    /// A manager with no open windows.
    pub fn new(config: EpochConfig) -> Self {
        EpochManager {
            config,
            open: BTreeMap::new(),
            closed_below: 0,
            watermark_ms: 0,
            late_records: 0,
        }
    }

    /// The windowing configuration.
    pub fn config(&self) -> EpochConfig {
        self.config
    }

    /// Whether `ts` violates the configured lateness horizon against the
    /// current watermark.
    #[inline]
    fn beyond_horizon(&self, ts: u64) -> bool {
        match self.config.late_horizon_ms {
            Some(h) => ts < self.watermark_ms.saturating_sub(h),
            None => false,
        }
    }

    /// Place a run of records exported under the stamp `export_ms` (one
    /// bucket of
    /// [`Collector::drain_buckets`](flock_telemetry::Collector::drain_buckets))
    /// in the window covering that stamp. The run is dropped whole, each
    /// record counted late, when the stamp is beyond the lateness
    /// horizon or its window is closed or could never close. The stamp
    /// is judged once and no record is scanned: the key is the stamp.
    pub fn extend_bucket(&mut self, export_ms: u64, mut records: Vec<MonitoredFlow>) {
        if records.is_empty() {
            return;
        }
        let w = self.config.window_of(export_ms);
        if self.beyond_horizon(export_ms) || w < self.closed_below || !self.config.closable(w) {
            self.late_records += records.len() as u64;
            return;
        }
        let slot = self.open.entry(w).or_default();
        if slot.is_empty() {
            *slot = records;
        } else {
            slot.append(&mut records);
        }
    }

    /// Close and return every window that ends at or before
    /// `watermark_ms`, in index order. Only windows that received at
    /// least one record are emitted.
    pub fn close_ready(&mut self, watermark_ms: u64) -> Vec<Epoch> {
        self.watermark_ms = self.watermark_ms.max(watermark_ms);
        let mut out = Vec::new();
        while let Some((&w, _)) = self.open.iter().next() {
            if self.config.window_end(w) > watermark_ms {
                break;
            }
            let records = self.open.remove(&w).expect("peeked key exists");
            self.closed_below = self.closed_below.max(w + 1);
            out.push(Epoch {
                index: w,
                start_ms: self.config.window_start(w),
                end_ms: self.config.window_end(w),
                records,
            });
        }
        // Even with no emittable window, advance the late horizon so a
        // subsequent push for long-gone windows counts as late.
        if let Some(past) = watermark_ms.checked_sub(self.config.epoch_ms) {
            let horizon = self.config.window_of(past) + 1;
            self.closed_below = self.closed_below.max(horizon);
        }
        out
    }

    /// Close every open window regardless of watermark (end of run).
    pub fn flush(&mut self) -> Vec<Epoch> {
        let open = std::mem::take(&mut self.open);
        let mut out = Vec::with_capacity(open.len());
        for (w, records) in open {
            self.closed_below = self.closed_below.max(w + 1);
            out.push(Epoch {
                index: w,
                start_ms: self.config.window_start(w),
                end_ms: self.config.window_end(w),
                records,
            });
        }
        out
    }

    /// Number of currently open (buffering) windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Records dropped because every window covering their stamp had
    /// already closed, or could never close (a stamp within one epoch of
    /// `u64::MAX`).
    pub fn late_records(&self) -> u64 {
        self.late_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_telemetry::{FlowKey, FlowStats, TrafficClass};
    use flock_topology::NodeId;

    /// A run of `n` records handed over under the stamp `ts`. Each
    /// carries the stamp in its source port, so a test can read back
    /// which run a closed epoch's record came from.
    fn run(ts: u64, n: usize) -> Vec<MonitoredFlow> {
        let rec = MonitoredFlow {
            key: FlowKey::tcp(NodeId(1), NodeId(2), ts as u16, 80),
            stats: FlowStats::default(),
            class: TrafficClass::Passive,
            true_path: Vec::new(),
        };
        vec![rec; n]
    }

    /// The stamps of the runs an epoch's records came from, in order.
    fn stamps(epoch: &Epoch) -> Vec<u64> {
        epoch
            .records
            .iter()
            .map(|r| r.key.src_port.into())
            .collect()
    }

    /// Place each stamp as its own one-record run.
    fn place(m: &mut EpochManager, stamps: &[u64]) {
        for &ts in stamps {
            m.extend_bucket(ts, run(ts, 1));
        }
    }

    #[test]
    fn tumbling_assigns_each_record_once() {
        let cfg = EpochConfig::tumbling(100);
        for ts in [0, 1, 99, 100, 101, 250, 999] {
            assert_eq!(cfg.window_of(ts), ts / 100, "ts {ts}");
        }
    }

    #[test]
    fn close_ready_respects_watermark() {
        let mut m = EpochManager::new(EpochConfig::tumbling(100));
        place(&mut m, &[10, 150, 210]);
        assert_eq!(m.open_windows(), 3);
        let closed = m.close_ready(200);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].index, 0);
        assert_eq!((closed[0].start_ms, closed[0].end_ms), (0, 100));
        assert_eq!(closed[1].index, 1);
        assert_eq!(m.open_windows(), 1);
        // Window 2 still open until the watermark passes 300.
        assert!(m.close_ready(299).is_empty());
        let rest = m.close_ready(300);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].index, 2);
    }

    #[test]
    fn late_records_are_counted_and_dropped() {
        let mut m = EpochManager::new(EpochConfig::tumbling(100));
        place(&mut m, &[50]);
        let _ = m.close_ready(200);
        assert_eq!(m.late_records(), 0);
        place(&mut m, &[60]); // window 0 is long closed
        assert_eq!(m.late_records(), 1);
        assert_eq!(m.open_windows(), 0);
    }

    #[test]
    fn extend_bucket_fast_path_appends_wholesale() {
        let mut m = EpochManager::new(EpochConfig::tumbling(100));
        m.extend_bucket(210, run(210, 3));
        m.extend_bucket(250, run(250, 1));
        m.extend_bucket(299, run(299, 2));
        assert_eq!(m.open_windows(), 1);
        let closed = m.close_ready(300);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 2);
        assert_eq!(stamps(&closed[0]), vec![210, 210, 210, 250, 299, 299]);
    }

    #[test]
    fn extend_bucket_late_bucket_is_counted() {
        let mut m = EpochManager::new(EpochConfig::tumbling(100));
        place(&mut m, &[250]);
        let _ = m.close_ready(300);
        m.extend_bucket(10, run(10, 2));
        assert_eq!(m.late_records(), 2);
        assert_eq!(m.open_windows(), 0);
    }

    #[test]
    fn late_horizon_rejects_clock_skewed_records_in_open_windows() {
        let cfg = EpochConfig::tumbling(100).with_late_horizon(20);
        let mut m = EpochManager::new(cfg);
        place(&mut m, &[50]);
        let closed = m.close_ready(150);
        assert_eq!(closed.len(), 1, "window 0 emitted");

        // Window 1 is still open, but a stamp 30ms behind the watermark
        // violates the 20ms horizon.
        place(&mut m, &[120]);
        assert_eq!(m.late_records(), 1);
        // A stamp inside the horizon is accepted into the same window.
        place(&mut m, &[140]);
        let closed = m.close_ready(250);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 1);
        assert_eq!(stamps(&closed[0]), vec![140]);
    }

    #[test]
    fn late_horizon_judges_each_run_by_its_stamp() {
        let cfg = EpochConfig::tumbling(100).with_late_horizon(20);
        let mut m = EpochManager::new(cfg);
        place(&mut m, &[50]);
        let _ = m.close_ready(150);

        // Two runs for the open window 1: the horizon (150 - 20 = 130)
        // drops the whole 120ms run and keeps the whole 140ms one.
        m.extend_bucket(120, run(120, 2));
        m.extend_bucket(140, run(140, 3));
        assert_eq!(m.late_records(), 2, "exactly the 120ms run is late");
        let closed = m.close_ready(250);
        assert_eq!(stamps(&closed[0]), vec![140; 3]);
    }

    #[test]
    fn late_horizon_none_preserves_old_behavior() {
        // Same stamps as the horizon test above, no horizon configured:
        // the 30ms-behind-watermark record is kept because its window is
        // still open.
        let mut m = EpochManager::new(EpochConfig::tumbling(100));
        place(&mut m, &[50]);
        let _ = m.close_ready(150);
        place(&mut m, &[120]);
        assert_eq!(m.late_records(), 0, "no horizon: open-window stamp kept");
        assert_eq!(m.open_windows(), 1);
    }

    /// Runs stamped near `u64::MAX` (unvalidated wire input) must cost
    /// exactly themselves: no phantom epoch, no `closed_below` jump that
    /// makes every later record late, no overflow panic.
    #[test]
    fn far_future_stamps_are_dropped_without_deafening_the_manager() {
        let windows = |epochs: &[Epoch]| -> Vec<(u64, Vec<u64>)> {
            epochs.iter().map(|e| (e.index, stamps(e))).collect()
        };

        let mut m = EpochManager::new(EpochConfig::tumbling(1000));
        place(&mut m, &[500]);
        m.extend_bucket(u64::MAX, run(u64::MAX, 2));
        m.extend_bucket(u64::MAX - 1, run(u64::MAX - 1, 1));
        assert_eq!(m.open_windows(), 1);
        assert_eq!(windows(&m.close_ready(1000)), vec![(0, vec![500])]);
        assert_eq!(m.late_records(), 3);
        place(&mut m, &[1500]);
        assert_eq!(windows(&m.close_ready(2000)), vec![(1, vec![1500])]);
        assert_eq!(m.late_records(), 3);
    }

    #[test]
    fn flush_closes_everything() {
        let mut m = EpochManager::new(EpochConfig::tumbling(100));
        place(&mut m, &[120, 500]);
        let all = m.flush();
        assert_eq!(all.len(), 2);
        assert_eq!(m.open_windows(), 0);
        let total: usize = all.iter().map(|e| e.records.len()).sum();
        assert_eq!(total, 2);
    }
}
