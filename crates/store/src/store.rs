//! The tiered verdict store and its query surface.
//!
//! # Tiers
//!
//! * **Tier 1** — an in-memory ring of the most recent
//!   [`EpochRecord`]s ([`StoreConfig::ring_capacity`]); hot queries
//!   (recent provenance, the daemon's log line) never touch disk.
//! * **Tier 2** — an append-only [`Segment`] file; every ingested epoch
//!   is framed, checksummed, and appended, so blame history survives
//!   restarts and the resident cost of a week-long run stays bounded
//!   (the segment keeps only its compact index in memory).
//!
//! Alongside the tiers, the store maintains *derived* state keyed by
//! component — the blame history index, the [`Debouncer`]'s alert state
//! machine, and a [`MetricsRegistry`] — all of which are reconstructed
//! from the segment on [`VerdictStore::open`] by replaying the intact
//! records through the same ingest path. That replay is what makes
//! close/reopen lossless for queries: history, active alerts, and
//! provenance all come back.
//!
//! # Queries
//!
//! [`StoreQuery`] is the operator surface: `history(comp)` (per-epoch
//! blame samples), `flapping(window)` (blame/heal oscillators),
//! `active_alerts()` (debounced, see [`crate::alerts`]), and
//! `provenance(comp, epoch)` ("why was this blamed?" — tier 1 if hot,
//! tier 2 otherwise).

use crate::alerts::{Alert, AlertDelta, AlertPolicy, Debouncer};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::record::EpochRecord;
use crate::segment::{AppendFault, Segment, SegmentError};
use flock_stream::{EpochReport, Provenance};
use flock_topology::Component;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::path::Path;

/// Store sizing and alerting thresholds.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Tier-1 ring capacity (recent epochs held in memory).
    pub ring_capacity: usize,
    /// Debouncing and flap thresholds.
    pub policy: AlertPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            ring_capacity: 64,
            policy: AlertPolicy::default(),
        }
    }
}

/// One point of a component's blame history.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BlameSample {
    /// Epoch in which the component was blamed.
    pub epoch: u64,
    /// Conviction score that epoch.
    pub score: f64,
}

/// Where ingested epochs end up (see [`VerdictStore::durability`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Durability {
    /// Every ingested epoch is appended to the tier-2 segment.
    Durable,
    /// A segment append failed; ingest keeps serving tier 1 (ring,
    /// blame index, alerts, metrics) but nothing new reaches disk until
    /// the store is reopened. The typed cause is kept in
    /// [`VerdictStore::append_error`].
    RingOnly,
    /// The store was built memory-only ([`VerdictStore::in_memory`]).
    MemoryOnly,
}

/// An operational (non-blame) alert the store raised about itself —
/// currently only durability loss. Kept separate from the
/// component-keyed [`Alert`] stream so blame alerting stays about the
/// network.
#[derive(Debug, Clone, Serialize)]
pub struct OpsAlert {
    /// Epoch being ingested when the fault hit.
    pub epoch: u64,
    /// Operator-facing description (includes the typed cause).
    pub what: String,
}

/// The operator query surface over a verdict store.
pub trait StoreQuery {
    /// Per-epoch blame samples for `comp`, oldest first (empty if the
    /// component was never blamed).
    fn history(&self, comp: Component) -> Vec<BlameSample>;

    /// Components oscillating between blamed and clean within the
    /// trailing `window` epochs (see [`AlertPolicy::flap_transitions`]).
    fn flapping(&self, window: u64) -> Vec<Component>;

    /// Currently-open debounced alerts.
    fn active_alerts(&self) -> Vec<Alert>;

    /// Why `comp` was blamed in `epoch`: the stored provenance, served
    /// from the tier-1 ring when hot, the tier-2 segment otherwise.
    /// `None` if the component was not blamed that epoch (or the epoch
    /// is unknown).
    fn provenance(&mut self, comp: Component, epoch: u64) -> Option<Provenance>;
}

/// The tiered verdict store (see module docs).
pub struct VerdictStore {
    cfg: StoreConfig,
    /// Tier 1: recent epochs, oldest first.
    ring: VecDeque<EpochRecord>,
    /// Tier 2: the durable segment, when the store was opened with one.
    segment: Option<Segment>,
    /// Blame history per component, append-ordered.
    blame: HashMap<Component, Vec<BlameSample>>,
    debouncer: Debouncer,
    metrics: MetricsRegistry,
    /// The append failure that degraded the store to ring-only, if one
    /// hit (sticky until reopen).
    append_error: Option<SegmentError>,
    /// Operational alerts the store raised about itself, in raise order.
    ops_alerts: Vec<OpsAlert>,
}

impl VerdictStore {
    /// A memory-only store (tier 1 + derived state, no durability).
    pub fn in_memory(cfg: StoreConfig) -> Self {
        VerdictStore {
            cfg,
            ring: VecDeque::new(),
            segment: None,
            blame: HashMap::new(),
            debouncer: Debouncer::new(cfg.policy),
            metrics: MetricsRegistry::new(),
            append_error: None,
            ops_alerts: Vec::new(),
        }
    }

    /// A durable store over a *fresh* segment at `path` (truncates).
    pub fn create(cfg: StoreConfig, path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let mut store = Self::in_memory(cfg);
        store.segment = Some(Segment::create(path)?);
        Ok(store)
    }

    /// Open (or create) a durable store at `path`, replaying the
    /// segment's intact records through the ingest path so the blame
    /// index, alert state, ring, and counters pick up where the
    /// previous process left off. A torn tail is truncated away; its
    /// typed reason stays available via [`VerdictStore::torn`].
    pub fn open(cfg: StoreConfig, path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let mut segment = Segment::open(path)?;
        let mut store = Self::in_memory(cfg);
        let mut replayed = Vec::with_capacity(segment.len());
        segment.replay(|rec| replayed.push(rec))?;
        for rec in replayed {
            store.ingest_record(rec);
        }
        store
            .metrics
            .set_gauge("segment_bytes", segment.file_bytes() as f64);
        store.segment = Some(segment);
        Ok(store)
    }

    /// Ingest one epoch's report: project it to an [`EpochRecord`],
    /// append to the segment (if durable), update tiers and derived
    /// state, and run the alert debouncer. Returns what raised/cleared.
    ///
    /// Ingest is **infallible**: a failing segment append (EIO,
    /// disk-full, torn write) never loses the epoch's verdict — the
    /// store degrades to [`Durability::RingOnly`], raises an
    /// [`OpsAlert`], counts `append_failures`, and keeps serving every
    /// tier-1 query. The degradation is sticky until the store is
    /// reopened over a healthy disk (reopen replays the intact durable
    /// prefix).
    pub fn ingest(&mut self, report: &EpochReport) -> AlertDelta {
        // Engine/runtime metrics only the full report carries.
        let runtime_s = report.result.runtime.as_secs_f64();
        self.metrics.observe("epoch_runtime_ms", runtime_s * 1e3);
        if runtime_s > 0.0 {
            self.metrics.set_gauge(
                "flip_throughput_per_s",
                report.result.hypotheses_scanned as f64 / runtime_s,
            );
        }
        for shard in &report.shards {
            self.metrics
                .observe("shard_engine_ms", shard.elapsed.as_secs_f64() * 1e3);
        }
        // The verdict health contract, surfaced as store metrics.
        if report.health.is_degraded() {
            self.metrics.inc("degraded_epochs", 1);
        }
        self.metrics
            .set_gauge("evidence_coverage", report.health.evidence_coverage());

        let rec = EpochRecord::from(report);
        if self.append_error.is_none() {
            if let Some(seg) = &mut self.segment {
                let t0 = std::time::Instant::now();
                match seg.append(&rec) {
                    Ok(_) => {
                        self.metrics
                            .observe("append_ms", t0.elapsed().as_secs_f64() * 1e3);
                        self.metrics
                            .set_gauge("segment_bytes", seg.file_bytes() as f64);
                    }
                    Err(e) => {
                        self.metrics.inc("append_failures", 1);
                        self.metrics.set_gauge("ring_only", 1.0);
                        self.ops_alerts.push(OpsAlert {
                            epoch: rec.epoch_index,
                            what: format!(
                                "segment append failed, store degraded to ring-only: {e}"
                            ),
                        });
                        self.append_error = Some(e);
                    }
                }
            }
        } else {
            self.metrics.inc("appends_skipped_ring_only", 1);
        }
        self.ingest_record(rec)
    }

    /// Where ingested epochs currently end up.
    pub fn durability(&self) -> Durability {
        match (&self.segment, &self.append_error) {
            (None, _) => Durability::MemoryOnly,
            (Some(_), None) => Durability::Durable,
            (Some(_), Some(_)) => Durability::RingOnly,
        }
    }

    /// The typed append failure that degraded the store to ring-only,
    /// if one hit.
    pub fn append_error(&self) -> Option<&SegmentError> {
        self.append_error.as_ref()
    }

    /// Operational alerts the store raised about itself (durability
    /// loss), in raise order.
    pub fn ops_alerts(&self) -> &[OpsAlert] {
        &self.ops_alerts
    }

    /// Arm an [`AppendFault`] on the underlying segment — the chaos
    /// harness's seam into the durability path. No-op for memory-only
    /// stores.
    pub fn inject_append_fault(&mut self, fault: AppendFault) {
        if let Some(seg) = &mut self.segment {
            seg.inject_append_fault(fault);
        }
    }

    /// The shared ingest path for live reports and reopen replay:
    /// everything derivable from the stored record itself.
    fn ingest_record(&mut self, rec: EpochRecord) -> AlertDelta {
        self.metrics.inc("epochs_ingested", 1);
        self.metrics.inc("records_ingested", rec.records);
        self.metrics
            .inc("verdicts_ingested", rec.verdicts.len() as u64);
        self.metrics
            .inc("hypotheses_scanned", rec.hypotheses_scanned);

        let blamed: Vec<(Component, f64)> = rec
            .verdicts
            .iter()
            .map(|v| (v.component, v.score))
            .collect();
        for &(comp, score) in &blamed {
            self.blame.entry(comp).or_default().push(BlameSample {
                epoch: rec.epoch_index,
                score,
            });
        }
        let delta = self.debouncer.observe(rec.epoch_index, &blamed);
        self.metrics.inc("alerts_raised", delta.raised.len() as u64);
        self.metrics
            .inc("alerts_cleared", delta.cleared.len() as u64);
        self.metrics
            .set_gauge("active_alerts", self.debouncer.active_alerts().len() as f64);

        self.ring.push_back(rec);
        while self.ring.len() > self.cfg.ring_capacity.max(1) {
            self.ring.pop_front();
        }
        delta
    }

    /// The typed reason the segment's tail was rejected at open, if
    /// recovery found a torn write.
    pub fn torn(&self) -> Option<&SegmentError> {
        self.segment.as_ref().and_then(|s| s.torn())
    }

    /// Tier-1 ring contents, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &EpochRecord> {
        self.ring.iter()
    }

    /// Latest ingested epoch index, if any.
    pub fn last_epoch(&self) -> Option<u64> {
        self.ring.back().map(|r| r.epoch_index)
    }

    /// Total epochs durably stored (0 for memory-only stores).
    pub fn durable_epochs(&self) -> usize {
        self.segment.as_ref().map_or(0, |s| s.len())
    }

    /// Segment file size in bytes (0 for memory-only stores).
    pub fn segment_bytes(&self) -> u64 {
        self.segment.as_ref().map_or(0, |s| s.file_bytes())
    }

    /// Flush the segment to stable storage.
    pub fn sync(&mut self) -> Result<(), SegmentError> {
        if let Some(seg) = &mut self.segment {
            seg.sync()?;
        }
        Ok(())
    }

    /// Every alert ever raised, in raise order (the alert log).
    pub fn alerts(&self) -> &[Alert] {
        self.debouncer.alerts()
    }

    /// The metrics registry (counters/gauges/histograms; see
    /// [`crate::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time metrics copy for serialization.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

impl StoreQuery for VerdictStore {
    fn history(&self, comp: Component) -> Vec<BlameSample> {
        self.blame.get(&comp).cloned().unwrap_or_default()
    }

    fn flapping(&self, window: u64) -> Vec<Component> {
        self.debouncer.flapping(window)
    }

    fn active_alerts(&self) -> Vec<Alert> {
        self.debouncer
            .active_alerts()
            .into_iter()
            .cloned()
            .collect()
    }

    fn provenance(&mut self, comp: Component, epoch: u64) -> Option<Provenance> {
        // Tier 1: the hot ring.
        if let Some(rec) = self.ring.iter().find(|r| r.epoch_index == epoch) {
            return rec.verdict(comp).map(|v| v.provenance.clone());
        }
        // Tier 2: seek the segment.
        let rec = self.segment.as_mut()?.read_epoch(epoch)?.ok()?;
        rec.verdict(comp).map(|v| v.provenance.clone())
    }
}
