//! The online localization pipeline: epochs in, per-epoch verdicts out.
//!
//! [`StreamPipeline`] owns the continuously-running state of §5.1's
//! deployment loop between collector and operator:
//!
//! 1. drained [`MonitoredFlow`] records are windowed by an
//!    [`EpochManager`] — the collector reactor drains them in runs keyed
//!    by one export stamp, and each run is handed over and placed whole
//!    ([`StreamPipeline::ingest_bucketed`]);
//! 2. each closed epoch's records are sanitized in place and assembled
//!    into an [`ObservationSet`] against a *persistent* [`Assembler`]
//!    arena (append-only interning), emitted
//!    sorted by the `(path set, sent, bad)` evidence key so each shard
//!    engine coalesces equal-key runs into weighted super-flows — the
//!    spine shard, which sees nearly all inter-pod traffic, drops from
//!    O(inter-pod flows) to O(distinct evidence keys) per epoch;
//! 3. one persistent engine per shard localizes the epoch; its set layer
//!    numbers only the path sets the shard has ever accepted, densely, so
//!    every per-set reset and sweep inside the engine is O(the shard's
//!    own evidence), not O(total arena); its components, Δ array and
//!    verdicts speak the topology's [`flock_core::ComponentSpace`] ids,
//!    which the merge reads as they are. The epoch's evidence keys are
//!    looked up and scored once, on the assembly stage, into an
//!    [`EpochFlowTable`] every shard engine reads. Engines are
//!    **warm-started** from the shard's previous verdict: rebound
//!    ([`flock_core::Engine::try_bind`]) instead of rebuilt, *at* the
//!    previous hypothesis, and the greedy search continues from there
//!    with removals enabled so heals are detected
//!    ([`flock_core::FlockGreedy::search_warm`]);
//! 4. shard verdicts are merged under blame ownership into one
//!    [`LocalizationResult`] per epoch.
//!
//! [`ObservationSet`]: flock_telemetry::ObservationSet

use crate::epoch::{Epoch, EpochConfig, EpochManager};
use crate::exec::{EpochCtx, ShardExecutor, ShardRun, TaskDone};
use crate::shard::{SetTouchIndex, ShardKind, ShardPlan};
use flock_core::{
    EngineStateSizes, EpochFlowTable, HyperParams, LocalizationResult, TermDirectory,
};
use flock_telemetry::{
    AnalysisMode, Assembler, DrainBatch, InputKind, MonitoredFlow, TrafficClass,
};
use flock_topology::{Component, NodeId, NodeRole, Router, Topology};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Epoch windowing.
    pub epoch: EpochConfig,
    /// Telemetry kinds assembled per epoch (§6.2 selection rules).
    pub kinds: Vec<InputKind>,
    /// Metric analysis mode.
    pub mode: AnalysisMode,
    /// Inference hyperparameters.
    pub params: HyperParams,
    /// Partition the component space into one shard per pod plus one
    /// spine shard ([`ShardPlan::by_pod`]), each with its own engine,
    /// run concurrently on the shard pool of `min(cores, shards)`
    /// workers (`false` = one shard owning everything, run by one
    /// worker).
    pub shard_by_pod: bool,
    /// Per-epoch inference deadline, measured from the start of
    /// [`StreamPipeline::run_flows`]. A shard search that crosses it
    /// stops cooperatively at the next outer greedy iteration and
    /// returns its partial hypothesis ([`ShardOutcome::timed_out`]);
    /// the epoch is then labeled [`EpochHealth::Degraded`] with
    /// [`DegradeReason::ShardDeadline`]. `None` (the default) never
    /// truncates.
    pub epoch_deadline: Option<Duration>,
    /// Fault-injection hook consulted by every shard at the top of its
    /// epoch run — the seam the chaos harness uses to panic or stall
    /// inference threads without a test-only build. `None` (the
    /// default) injects nothing.
    pub chaos: Option<ChaosHook>,
    /// Overlap epochs: [`StreamPipeline::poll`] /
    /// [`StreamPipeline::drain`] submit each epoch's shard jobs to the
    /// shard pool and *then* collect the previous epoch's verdict, so
    /// epoch `N + 1`'s assembly (arena and term-directory extension;
    /// the in-flight epoch reads its own snapshot) and even its
    /// per-shard inference overlap epoch `N`'s: the pool runs each
    /// shard's jobs in submission order, so a shard starts `N + 1` as
    /// soon as its own `N` is done. Reports are
    /// emitted exactly one epoch behind submission;
    /// [`StreamPipeline::drain`] flushes
    /// the tail. Verdicts are bit-identical to the sequential mode
    /// (property-tested by `pipelined_identity`). Default `false`:
    /// every poll returns its own epoch's report.
    pub pipelined: bool,
}

/// A fault the [`ChaosHook`] can inject into one shard's epoch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardChaos {
    /// Panic the shard's inference thread (contained by the pipeline's
    /// per-shard `catch_unwind` boundary; the shard's state is reset and
    /// the epoch degrades instead of the process dying).
    Panic,
    /// Stall the shard for the given duration before it searches
    /// (clamped to the epoch deadline when one is set, so a stall
    /// surfaces as a deadline truncation rather than an unbounded hang).
    Stall(Duration),
}

/// The boxed schedule closure behind a [`ChaosHook`].
type ChaosFn = dyn Fn(&str, u64) -> Option<ShardChaos> + Send + Sync;

/// Injectable fault decision, `(shard label, epoch index) → fault?`.
/// Newtype so [`StreamConfig`] keeps deriving `Debug` and `Clone`.
#[derive(Clone)]
pub struct ChaosHook(Arc<ChaosFn>);

impl ChaosHook {
    /// Wrap a fault schedule. The closure is consulted once per shard
    /// per epoch, concurrently from the shard threads.
    pub fn new(f: impl Fn(&str, u64) -> Option<ShardChaos> + Send + Sync + 'static) -> Self {
        ChaosHook(Arc::new(f))
    }

    /// Consult the schedule for one shard's epoch run.
    pub fn call(&self, shard_label: &str, epoch_index: u64) -> Option<ShardChaos> {
        (self.0)(shard_label, epoch_index)
    }
}

impl fmt::Debug for ChaosHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ChaosHook(..)")
    }
}

impl StreamConfig {
    /// The paper-shaped default: 30 s tumbling epochs, A2+P telemetry,
    /// per-packet analysis, one shard, sequential epochs, no deadline.
    pub fn paper_default() -> Self {
        StreamConfig {
            epoch: EpochConfig::tumbling(30_000),
            kinds: vec![InputKind::A2, InputKind::P],
            mode: AnalysisMode::PerPacket,
            params: HyperParams::default(),
            shard_by_pod: false,
            epoch_deadline: None,
            chaos: None,
            pipelined: false,
        }
    }
}

/// Why an epoch's verdict is degraded (see [`EpochHealth::Degraded`]).
/// Each variant names a fault the pipeline contained at its boundary
/// instead of letting it take down the process or silently skew the
/// verdict.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum DegradeReason {
    /// A shard's inference thread panicked; its state was reset and its
    /// evidence is missing from this epoch's verdict.
    ShardPanicked {
        /// Label of the panicked shard.
        shard: String,
    },
    /// A shard's search crossed the per-epoch deadline and returned a
    /// partial (non-locally-optimal) hypothesis.
    ShardDeadline {
        /// Label of the truncated shard.
        shard: String,
    },
    /// The windowing layer dropped records as late (closed window or
    /// beyond the lateness horizon) since the previous report — evidence
    /// that never reached any shard.
    LateRecords {
        /// Records dropped since the previous report.
        count: u64,
    },
    /// Records that decoded into well-formed frames but carried
    /// impossible content (node or link ids outside the topology,
    /// retransmissions exceeding packets — the shape payload corruption
    /// takes on a checksum-less wire) were rejected before assembly
    /// instead of being allowed to panic indexing or skew likelihoods.
    RejectedRecords {
        /// Records rejected this epoch.
        count: u64,
    },
    /// A degradation signaled from outside the inference path (store
    /// append failure, stale agents, collector kill) via
    /// [`StreamPipeline::flag_degraded`].
    External {
        /// Operator-facing description of the external fault.
        what: String,
    },
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::ShardPanicked { shard } => write!(f, "shard-panicked:{shard}"),
            DegradeReason::ShardDeadline { shard } => write!(f, "shard-deadline:{shard}"),
            DegradeReason::LateRecords { count } => write!(f, "late-records:{count}"),
            DegradeReason::RejectedRecords { count } => write!(f, "rejected-records:{count}"),
            DegradeReason::External { what } => write!(f, "external:{what}"),
        }
    }
}

/// The health contract attached to every [`EpochReport`]: `Healthy`
/// means every shard completed over all the evidence the collector
/// delivered; `Degraded` means the verdict is still well-formed but
/// some fault reduced or truncated the evidence behind it, and an
/// operator (or the store's alerting layer) should weigh it
/// accordingly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum EpochHealth {
    /// Every shard completed in time over its full evidence slice.
    Healthy,
    /// The verdict is partial or evidence-lossy.
    Degraded {
        /// Every contained fault that contributed (never empty).
        reasons: Vec<DegradeReason>,
        /// Fraction of shard-relevant observation slots that reached a
        /// completed (non-panicked) shard search, in `[0, 1]`. Deadline
        /// truncation does not lower coverage — the evidence was seen;
        /// the search over it was cut short.
        evidence_coverage: f64,
    },
}

impl EpochHealth {
    /// Whether this epoch carries any degrade reason.
    pub fn is_degraded(&self) -> bool {
        matches!(self, EpochHealth::Degraded { .. })
    }

    /// The degrade reasons (empty for `Healthy`).
    pub fn reasons(&self) -> &[DegradeReason] {
        match self {
            EpochHealth::Healthy => &[],
            EpochHealth::Degraded { reasons, .. } => reasons,
        }
    }

    /// Evidence coverage (`1.0` for `Healthy`).
    pub fn evidence_coverage(&self) -> f64 {
        match self {
            EpochHealth::Healthy => 1.0,
            EpochHealth::Degraded {
                evidence_coverage, ..
            } => *evidence_coverage,
        }
    }
}

/// A shard whose inference thread panicked this epoch, caught at the
/// pipeline's per-shard isolation boundary. The shard contributes
/// nothing to the merged verdict; its persistent state was reset to a
/// valid initial state (no engine) and it rebuilds cold on the next
/// epoch, re-seeded from its last good hypothesis.
#[derive(Debug, Clone, Serialize)]
pub struct ShardFailure {
    /// Label of the failed shard (`pod3`, `spine`, `all`).
    pub shard: String,
    /// The panic payload, stringified when it was a `&str`/`String`.
    pub panic_message: String,
}

/// Why one component was convicted: the evidence its shard engine's Δ
/// actually aggregated over, captured at verdict time so the question
/// "why was this link blamed in epoch E?" stays answerable after the
/// engines have moved on. Stored per verdict by `flock-store` and
/// surfaced through its `provenance(comp, epoch)` query.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// The convicted component.
    pub component: Component,
    /// Label of the shard whose engine convicted it (`pod1`, `spine`,
    /// `all`) — after the merge, the shard whose score won blame
    /// ownership.
    pub shard: String,
    /// The conviction score (log-likelihood gain; the merge key).
    pub score: f64,
    /// Distinct super-flows whose likelihood terms involved the
    /// component in the convicting engine.
    pub super_flows: u32,
    /// Total aggregation weight behind those super-flows — raw merged
    /// observations implicating the component.
    pub raw_weight: f64,
    /// Global [`flock_telemetry::PathSetId`]s of the heaviest path sets
    /// carrying that evidence (heaviest first, capped at
    /// [`PROVENANCE_SETS_CAP`]).
    pub sets: Vec<u32>,
}

/// How many path-set ids a [`Provenance`] retains (heaviest first).
pub const PROVENANCE_SETS_CAP: usize = 8;

/// Per-shard outcome inside an [`EpochReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ShardOutcome {
    /// Shard label (`pod3`, `spine`, `all`). Unique within a report.
    pub label: String,
    /// What the shard covered.
    pub kind: ShardKind,
    /// Components the shard blamed *and owns* — what the merge keeps.
    pub kept: usize,
    /// Super-flows the shard's engine built this epoch (distinct evidence
    /// keys).
    pub flows: usize,
    /// Raw observations the shard accepted before coalescing;
    /// `raw_flows / flows` is the shard's coalesce ratio.
    pub raw_flows: usize,
    /// Whether the engine was warm-rebound (vs built from scratch).
    pub warm: bool,
    /// Hypotheses scanned by the shard's search.
    pub hypotheses_scanned: u64,
    /// Final normalized log-likelihood of the shard's hypothesis over the
    /// shard-relevant observations.
    pub log_likelihood: f64,
    /// Resident state sizes of the shard's engine — each entry scales
    /// with the shard's own evidence history, not the shared arena (the
    /// sparsity invariant of the engine's local set ids, asserted by the
    /// `state_sparsity` test).
    pub state: EngineStateSizes,
    /// Wall-clock time this shard spent binding, rebinding, and
    /// searching this epoch (the per-shard engine-time metric).
    pub elapsed: Duration,
    /// The part of `elapsed` spent rebinding (or, cold, building) the
    /// engine over the epoch's evidence: structure extension, the flow
    /// table, and the initial Δ array.
    pub rebind: Duration,
    /// The part of `elapsed` spent in the warm greedy search.
    pub search: Duration,
    /// Whether the shard's search was truncated by the per-epoch
    /// deadline ([`StreamConfig::epoch_deadline`]). A truncated verdict
    /// is well-formed (every move it made improved the posterior) but
    /// not a local optimum; the epoch degrades with
    /// [`DegradeReason::ShardDeadline`].
    pub timed_out: bool,
    /// Provenance for each kept component, in `kept` order (see
    /// [`Provenance`]).
    pub provenance: Vec<Provenance>,
}

/// Where an epoch's wall time went on the caller's thread.
///
/// `prepare` (the assembly stage: `assemble`, `index` and `flow_table`
/// below, plus queueing one job per shard) and `merge` (blame-ownership
/// merge + provenance) both run on the *caller's* thread; the shard
/// searches between them run on the shard pool's workers and are timed
/// per shard in [`ShardOutcome`]. Under
/// [`StreamConfig::pipelined`], `prepare` of epoch `N + 1` overlaps the
/// shard searches of epoch `N`, so the steady-state cost per epoch is
/// `max(prepare + merge, slowest shard chain)`.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageTimings {
    /// Assembly-stage wall time (caller thread, overlappable).
    pub prepare: Duration,
    /// Collect-stage wall time: the blame-ownership merge.
    pub merge: Duration,
    /// The part of `prepare` spent producing the
    /// [`ObservationSet`](flock_telemetry::ObservationSet):
    /// interning, sorting, coalescing.
    pub assemble: Duration,
    /// The part of `prepare` spent on per-observation touch signatures
    /// and per-shard accept lists.
    pub index: Duration,
    /// The part of `prepare` spent keying the epoch's evidence into the
    /// [`EpochFlowTable`] (directory probes, scores, the ladders of
    /// first-seen keys).
    pub flow_table: Duration,
}

/// One epoch's merged verdict.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// Window index.
    pub epoch_index: u64,
    /// Window start (ms, inclusive).
    pub start_ms: u64,
    /// Window end (ms, exclusive).
    pub end_ms: u64,
    /// Records the window received.
    pub records: usize,
    /// Aggregated observations after assembly.
    pub observations: usize,
    /// The merged localization verdict.
    pub result: LocalizationResult,
    /// Per-shard accounting.
    pub shards: Vec<ShardOutcome>,
    /// Always `None`: the pipeline runs no second pass over the shard
    /// verdicts. Kept only for the benchmark driver, which reads it for
    /// `pipeline.refined_epochs` and its per-shard sums; it goes with
    /// that read (ROADMAP 1(a)). Nothing in the product sets it.
    pub refined: Option<ShardOutcome>,
    /// Provenance of each merged verdict, in `result.predicted` order:
    /// the convicting shard's evidence for the component (the shard
    /// whose score won blame ownership).
    pub provenance: Vec<Provenance>,
    /// The epoch's health verdict: `Healthy`, or `Degraded` with the
    /// contained faults and the evidence coverage behind the verdict.
    pub health: EpochHealth,
    /// Shards that panicked this epoch (isolated at the pipeline's
    /// `catch_unwind` boundary; absent from [`shards`](Self::shards)).
    pub failures: Vec<ShardFailure>,
    /// Caller-thread stage costs (see [`StageTimings`]).
    pub stages: StageTimings,
}

/// An epoch submitted to the executor and not yet collected.
struct InFlight {
    epoch_index: u64,
    start_ms: u64,
    end_ms: u64,
    records: usize,
    ctx: Arc<EpochCtx>,
    rx: mpsc::Receiver<TaskDone>,
    /// Degrade reasons sampled at submission (late-record delta,
    /// externally-flagged reasons) — they belong to this report.
    flags: Vec<DegradeReason>,
    /// Assembly-stage costs of this epoch (`merge` is filled at
    /// collect).
    stages: StageTimings,
    submitted: Instant,
    n_jobs: usize,
}

/// The identity: decoded wire records already are [`MonitoredFlow`]s
/// (a record sent without a path attachment has an empty `true_path`),
/// so nothing is rebuilt between the socket and assembly. Kept only
/// because the benchmark driver's `pipeline.reconstruct_ms` probe names
/// it (`benchmark/src/probes.rs`); it goes with that pin.
pub fn reconstruct(records: impl IntoIterator<Item = MonitoredFlow>) -> Vec<MonitoredFlow> {
    records.into_iter().collect()
}

/// The continuously-running localization pipeline over one topology.
pub struct StreamPipeline<'t> {
    topo: &'t Topology,
    router: Router<'t>,
    cfg: StreamConfig,
    manager: EpochManager,
    assembler: Assembler,
    plan: ShardPlan,
    /// The infer stage: the persistent pool owning every shard's state.
    exec: ShardExecutor,
    /// The submitted-but-uncollected epoch (pipelined mode).
    in_flight: Option<InFlight>,
    /// Every `(sent, bad, w)` evidence key ever assembled, with its
    /// `llf` ladder, which every shard engine reads in place.
    terms: TermDirectory,
    /// Previous epoch's accept-list and flow-table buffers, reclaimed
    /// at collect and refilled in place the next epoch.
    spare_accept: Vec<Vec<u32>>,
    spare_flow_table: EpochFlowTable,
    touch: SetTouchIndex,
    /// Late-record count already attributed to an emitted report's
    /// health; the delta above this degrades the next report.
    late_attributed: u64,
    /// Total wire-delivered records rejected by content sanitation
    /// (impossible node/link ids or counters) across the run.
    rejected_records: u64,
    /// Externally-flagged degrade reasons ([`Self::flag_degraded`])
    /// awaiting attachment to the next emitted report.
    pending_flags: Vec<DegradeReason>,
}

impl<'t> StreamPipeline<'t> {
    /// Build a pipeline over `topo`, sharded per
    /// [`StreamConfig::shard_by_pod`].
    pub fn new(topo: &'t Topology, cfg: StreamConfig) -> Self {
        let plan = if cfg.shard_by_pod {
            ShardPlan::by_pod(topo)
        } else {
            ShardPlan::single(topo)
        };
        let exec = ShardExecutor::new(topo, &cfg, &plan.shards, 0);
        StreamPipeline {
            topo,
            router: Router::new(topo),
            manager: EpochManager::new(cfg.epoch),
            terms: TermDirectory::new(&cfg.params),
            cfg,
            assembler: Assembler::new(),
            plan,
            exec,
            in_flight: None,
            spare_accept: Vec::new(),
            spare_flow_table: EpochFlowTable::new(),
            touch: SetTouchIndex::new(),
            late_attributed: 0,
            rejected_records: 0,
            pending_flags: Vec::new(),
        }
    }

    /// Flag a degradation observed outside the inference path (store
    /// append failure, a silent agent, collector connection kill)
    /// so the verdict contract reflects it: the reason attaches to the
    /// next emitted report (the first epoch of the next
    /// [`poll`](Self::poll) / [`drain`](Self::drain) batch) and marks
    /// it `Degraded`.
    pub fn flag_degraded(&mut self, reason: DegradeReason) {
        self.pending_flags.push(reason);
    }

    /// The shard plan in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Records dropped as late by the windowing layer.
    pub fn late_records(&self) -> u64 {
        self.manager.late_records()
    }

    /// Feed a drain batch
    /// ([`Collector::drain_buckets`](flock_telemetry::Collector::drain_buckets))
    /// into the windowing layer, one export-stamp run at a time
    /// ([`EpochManager::extend_bucket`]).
    pub fn ingest_bucketed(&mut self, batch: DrainBatch) {
        for (export_ms, bucket) in batch.buckets {
            self.manager.extend_bucket(export_ms, bucket);
        }
    }

    /// Close every window ending at or before `watermark_ms` and localize
    /// each, in order. Under [`StreamConfig::pipelined`] each epoch is
    /// submitted before its predecessor is collected, so the returned
    /// reports trail submission by one epoch; [`drain`](Self::drain)
    /// (or [`flush_inflight`](Self::flush_inflight)) emits the tail.
    pub fn poll(&mut self, watermark_ms: u64) -> Vec<EpochReport> {
        let epochs = self.manager.close_ready(watermark_ms);
        epochs
            .into_iter()
            .filter_map(|e| self.run_epoch(e))
            .collect()
    }

    /// Close and localize everything still buffered (end of run),
    /// including the in-flight epoch when pipelining.
    pub fn drain(&mut self) -> Vec<EpochReport> {
        let epochs = self.manager.flush();
        let mut out: Vec<EpochReport> = epochs
            .into_iter()
            .filter_map(|e| self.run_epoch(e))
            .collect();
        out.extend(self.flush_inflight());
        out
    }

    /// Localize one closed epoch (sequential mode), or submit it and
    /// collect its predecessor (pipelined mode — `None` on the very
    /// first epoch, when nothing is in flight yet).
    ///
    /// The epoch's record vector was allocated on this thread (by the
    /// drain, or grown by windowing); it is sanitized in place, read by
    /// assembly and freed here.
    fn run_epoch(&mut self, mut epoch: Epoch) -> Option<EpochReport> {
        // The wire has no payload checksum: a corrupted-but-framed
        // message decodes into records with arbitrary content. Reject
        // anything the topology cannot account for *before* assembly,
        // where a garbage node id would panic an index lookup.
        let before = epoch.records.len();
        epoch.records.retain(|f| flow_is_sane(self.topo, f));
        let rejected = (before - epoch.records.len()) as u64;
        if rejected > 0 {
            self.rejected_records += rejected;
            self.pending_flags
                .push(DegradeReason::RejectedRecords { count: rejected });
        }
        if self.cfg.pipelined {
            self.submit_flows(epoch.index, epoch.start_ms, epoch.end_ms, &epoch.records)
        } else {
            Some(self.run_flows(epoch.index, epoch.start_ms, epoch.end_ms, &epoch.records))
        }
    }

    /// Total wire-delivered records rejected by content sanitation
    /// (impossible node/link ids or counters) since construction.
    pub fn rejected_records(&self) -> u64 {
        self.rejected_records
    }

    /// Localize one epoch's worth of flows,
    /// synchronously: assemble, run every shard on the executor, and
    /// collect the merged verdict before returning. Public so tests and
    /// benches can drive the inference loop without sockets.
    ///
    /// # Panics
    /// Panics if an epoch is still in flight
    /// ([`submit_flows`](Self::submit_flows)); call
    /// [`flush_inflight`](Self::flush_inflight) first.
    pub fn run_flows(
        &mut self,
        epoch_index: u64,
        start_ms: u64,
        end_ms: u64,
        monitored: &[MonitoredFlow],
    ) -> EpochReport {
        assert!(
            self.in_flight.is_none(),
            "run_flows with an epoch in flight; call flush_inflight() first"
        );
        let inflight = self.submit_epoch(epoch_index, start_ms, end_ms, monitored);
        self.collect_inflight(inflight)
    }

    /// Submit one epoch's flows to the shard executor and return the
    /// *previous* epoch's report, if one was in flight — the pipelined
    /// counterpart of [`run_flows`](Self::run_flows). The new epoch is
    /// prepared and queued *before* the old one is collected, so its
    /// assembly — and, per shard, its inference (each shard's jobs run
    /// FIFO with no cross-shard barrier) — overlaps the in-flight
    /// epoch's searches. Verdicts are bit-identical to the sequential
    /// path. Returns `None` on the first submission.
    pub fn submit_flows(
        &mut self,
        epoch_index: u64,
        start_ms: u64,
        end_ms: u64,
        monitored: &[MonitoredFlow],
    ) -> Option<EpochReport> {
        let inflight = self.submit_epoch(epoch_index, start_ms, end_ms, monitored);
        let prev = self.in_flight.replace(inflight);
        prev.map(|f| self.collect_inflight(f))
    }

    /// Collect the in-flight epoch, if any (end of a pipelined run, or
    /// before a synchronous [`run_flows`](Self::run_flows) call).
    pub fn flush_inflight(&mut self) -> Option<EpochReport> {
        let f = self.in_flight.take()?;
        Some(self.collect_inflight(f))
    }

    /// The assembly stage: assemble, derive touch signatures and
    /// per-shard accept lists, key the evidence into the epoch's flow
    /// table, then queue one job per shard on the executor.
    fn submit_epoch(
        &mut self,
        epoch_index: u64,
        start_ms: u64,
        end_ms: u64,
        monitored: &[MonitoredFlow],
    ) -> InFlight {
        let prep_started = Instant::now();
        let deadline = self.cfg.epoch_deadline.map(|d| prep_started + d);
        let obs = self.assembler.assemble(
            self.topo,
            &self.router,
            monitored,
            &self.cfg.kinds,
            self.cfg.mode,
        );
        let assembled = Instant::now();
        self.touch.extend(self.topo, &obs);
        // Derive each observation's combined touch signature once and
        // answer every shard's relevance from it in the same pass; each
        // shard then binds by replaying its accept list instead of
        // re-filtering the epoch. The lists are the previous epoch's,
        // reclaimed at collect — warm capacity, no per-epoch allocation.
        let n_shards = self.plan.shards.len();
        let mut accept = std::mem::take(&mut self.spare_accept);
        accept.resize_with(n_shards, Vec::new);
        accept.iter_mut().for_each(Vec::clear);
        for (i, o) in obs.flows.iter().enumerate() {
            let t = self.touch.flow_touch(o);
            for (si, shard) in self.plan.shards.iter().enumerate() {
                if shard.relevant_combined(t) {
                    accept[si].push(i as u32);
                }
            }
        }
        let indexed = Instant::now();
        // Key the evidence once for every shard: one directory probe and
        // one score per run of equal keys, ladders for first sights.
        let mut flow_table = std::mem::take(&mut self.spare_flow_table);
        flow_table.rebuild(&mut self.terms, &obs);
        let keyed = Instant::now();
        // Health flags belong to the epoch being submitted: sample the
        // late-record delta now. Nothing ingests between here and a
        // sequential-mode merge; in pipelined mode, later drops are the
        // next submission's news.
        let mut flags = Vec::new();
        let late_now = self.manager.late_records();
        if late_now > self.late_attributed {
            flags.push(DegradeReason::LateRecords {
                count: late_now - self.late_attributed,
            });
            self.late_attributed = late_now;
        }
        flags.append(&mut self.pending_flags);

        let records = monitored.len();
        let ctx = Arc::new(EpochCtx {
            obs,
            accept,
            flow_table,
            deadline,
            epoch_index,
        });
        let rx = self.exec.submit(&ctx);
        InFlight {
            epoch_index,
            start_ms,
            end_ms,
            records,
            ctx,
            rx,
            flags,
            stages: StageTimings {
                prepare: prep_started.elapsed(),
                merge: Duration::ZERO,
                assemble: assembled - prep_started,
                index: indexed - assembled,
                flow_table: keyed - indexed,
            },
            submitted: Instant::now(),
            n_jobs: n_shards,
        }
    }

    /// The collect stage: receive every shard verdict, merge under blame
    /// ownership, and reclaim the epoch's buffers for the next assembly.
    fn collect_inflight(&mut self, f: InFlight) -> EpochReport {
        let InFlight {
            epoch_index,
            start_ms,
            end_ms,
            records,
            ctx,
            rx,
            flags,
            mut stages,
            submitted,
            n_jobs,
        } = f;
        let mut runs: Vec<Option<ShardRun>> = (0..n_jobs).map(|_| None).collect();
        for _ in 0..n_jobs {
            match rx.recv() {
                Ok(done) => runs[done.shard] = Some(done.run),
                // A sender dropped without sending: the job was
                // discarded at executor shutdown. Missing shards are
                // synthesized as failures below.
                Err(mpsc::RecvError) => break,
            }
        }
        let outcomes: Vec<ShardRun> = runs
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    Err(ShardFailure {
                        shard: self.plan.shards[i].label.clone(),
                        panic_message: "shard task lost (executor shutdown)".into(),
                    })
                })
            })
            .collect();
        let merge_started = Instant::now();

        // Evidence coverage: the fraction of shard-relevant observation
        // slots whose shard search completed. A panicked shard zeroes
        // its slots; a deadline-truncated shard saw its evidence (the
        // search over it was cut short), so it still counts. The accept
        // lists computed at assembly are exactly the relevant slots.
        let mut relevant_slots = 0u64;
        let mut covered_slots = 0u64;
        for (accepted, run) in ctx.accept.iter().zip(&outcomes) {
            let slots = accepted.len() as u64;
            relevant_slots += slots;
            if run.is_ok() {
                covered_slots += slots;
            }
        }
        let evidence_coverage = if relevant_slots == 0 {
            1.0
        } else {
            covered_slots as f64 / relevant_slots as f64
        };

        // Merge under blame ownership: max score wins on overlap, and the
        // winning shard's provenance travels with its score.
        let mut merged: HashMap<Component, Provenance> = HashMap::new();
        let mut reasons: Vec<DegradeReason> = Vec::new();
        let mut failures: Vec<ShardFailure> = Vec::new();
        let mut scanned = 0u64;
        let mut log_likelihood = 0.0f64;
        let mut shard_outcomes = Vec::with_capacity(outcomes.len());
        for run in outcomes {
            let outcome = match run {
                Ok(outcome) => outcome,
                Err(failure) => {
                    reasons.push(DegradeReason::ShardPanicked {
                        shard: failure.shard.clone(),
                    });
                    failures.push(failure);
                    continue;
                }
            };
            scanned += outcome.hypotheses_scanned;
            // Sum of shard-local normalized LLs. With one shard this is
            // the engine's LL exactly; with several it sums over the
            // shard-filtered flow subsets (flows relevant to multiple
            // shards contribute once per shard), so it is comparable
            // across epochs of the same plan, not across plans.
            log_likelihood += outcome.log_likelihood;
            if outcome.timed_out {
                reasons.push(DegradeReason::ShardDeadline {
                    shard: outcome.label.clone(),
                });
            }
            for prov in &outcome.provenance {
                match merged.entry(prov.component) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if prov.score > e.get().score {
                            e.insert(prov.clone());
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(prov.clone());
                    }
                }
            }
            shard_outcomes.push(outcome);
        }
        // Late-record and externally-flagged reasons were sampled when
        // this epoch was submitted (they are its news, not the next
        // epoch's).
        reasons.extend(flags);
        let health = if reasons.is_empty() {
            EpochHealth::Healthy
        } else {
            EpochHealth::Degraded {
                reasons,
                evidence_coverage,
            }
        };
        let mut provenance: Vec<Provenance> = merged.into_values().collect();
        provenance.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(a.component.cmp(&b.component))
        });

        let observations = ctx.obs.flows.len();
        // Reclaim the epoch's buffers: every shard job released the epoch
        // before reporting (a job dropped unrun released it before its
        // sender), so this is the last handle. The next epoch refills
        // them in place instead of re-allocating a megabyte on the
        // assembly stage's critical path.
        let ectx = Arc::try_unwrap(ctx)
            .ok()
            .expect("every shard job released the epoch before reporting");
        self.spare_accept = ectx.accept;
        self.spare_flow_table = ectx.flow_table;
        self.assembler.recycle(ectx.obs);
        stages.merge = merge_started.elapsed();

        EpochReport {
            epoch_index,
            start_ms,
            end_ms,
            records,
            observations,
            result: LocalizationResult {
                scores: provenance.iter().map(|p| p.score).collect(),
                predicted: provenance.iter().map(|p| p.component).collect(),
                log_likelihood,
                hypotheses_scanned: scanned,
                iterations: shard_outcomes.len() as u64,
                runtime: stages.prepare + submitted.elapsed(),
            },
            shards: shard_outcomes,
            refined: None,
            provenance,
            health,
            failures,
            stages,
        }
    }
}

/// Whether a wire-decoded flow is accountable to the topology.
/// The wire format has no payload checksum, so a corrupted-but-framed
/// message decodes into records with arbitrary content; anything that
/// would panic an assembly index lookup (node or link ids outside the
/// topology, a passive endpoint that is not a host) or break the
/// likelihood model (more retransmissions than packets) is rejected
/// here, counted, and flagged on the epoch's health.
fn flow_is_sane(topo: &Topology, f: &MonitoredFlow) -> bool {
    let node_ok = |n: NodeId| (n.0 as usize) < topo.node_count();
    if !node_ok(f.key.src) || !node_ok(f.key.dst) {
        return false;
    }
    if f.stats.retransmissions > f.stats.packets {
        return false;
    }
    if f.true_path
        .iter()
        .any(|l| (l.0 as usize) >= topo.link_count())
    {
        return false;
    }
    match f.class {
        // Passive flows without a traced path are resolved via the
        // src/dst hosts' leaves, so both endpoints must be hosts.
        TrafficClass::Passive => {
            topo.node(f.key.src).role == NodeRole::Host
                && topo.node(f.key.dst).role == NodeRole::Host
        }
        // Probes contribute only through their recorded path; the
        // id-range checks above are all assembly relies on.
        TrafficClass::Probe => true,
    }
}
