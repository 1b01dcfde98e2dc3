//! Seeded fault-injection harness for chaos-testing the pipeline.
//!
//! Production fault-tolerance claims are worthless untested, and
//! hand-written fault tests only cover the faults someone thought of.
//! This module generates a *deterministic, seeded* fault schedule — the
//! same seed always produces the same faults at the same epochs — and
//! the wire-level mangling primitives to execute it, so a chaos soak
//! run is reproducible from its seed alone.
//!
//! The module is deliberately decoupled from the pipeline crates (which
//! take `flock-netsim` only as a dev-dependency): a [`ChaosFault`]
//! names the fault abstractly (victim indices, durations), and the
//! harness driving a real collector/pipeline/store maps it onto its own
//! sockets, shard labels, and store handles. What lives here is the
//! *schedule* (what happens when) and the *wire mangler* (byte-level
//! frame corruption); what lives in the target crates are the
//! injection seams ([`flock_telemetry::ReactorHook`],
//! `flock_stream::ChaosHook`, `flock_store::AppendFault`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

/// The kinds of fault the schedule can draw, one per boundary the
/// pipeline claims to contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Kill an agent's connection mid-epoch (the agent restarts on a new
    /// connection and resends its whole export).
    AgentCrash,
    /// Stall an agent's connection: its frames arrive late within the
    /// epoch, exercising buffering, not loss.
    ConnStall,
    /// Corrupt bytes inside one exported frame (decoder quarantine /
    /// resync path).
    WireCorrupt,
    /// Truncate one exported frame (torn write; decoder resyncs on the
    /// next frame's magic).
    WireTear,
    /// Deliver one exported frame twice (duplicate evidence; tolerated
    /// by the evidence model).
    WireDuplicate,
    /// Reorder an agent's frames within the epoch.
    WireReorder,
    /// Skew an agent's export clock forward (lateness-horizon path).
    ClockSkew,
    /// Stall one collector reactor shard for part of the epoch.
    CollectorStall,
    /// Panic one inference shard's thread (pipeline `catch_unwind`
    /// isolation).
    ShardPanic,
    /// Fail the verdict store's segment append (ring-only degradation).
    StoreAppendFail,
}

impl FaultKind {
    /// All kinds, in declaration order.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::AgentCrash,
        FaultKind::ConnStall,
        FaultKind::WireCorrupt,
        FaultKind::WireTear,
        FaultKind::WireDuplicate,
        FaultKind::WireReorder,
        FaultKind::ClockSkew,
        FaultKind::CollectorStall,
        FaultKind::ShardPanic,
        FaultKind::StoreAppendFail,
    ];

    /// Whether the fault leaves the *evidence reaching every inference
    /// shard* unchanged — the epochs on which a chaos run's verdicts
    /// must be bit-identical to a fault-free run. Stalls delay bytes
    /// without dropping them, and a store append failure is entirely
    /// downstream of inference. Everything else can change the record
    /// stream (loss, duplication, reordered arena interning) or remove
    /// a shard's contribution, where the contract is *degraded-and-
    /// labeled*, not bit-identity.
    pub fn evidence_preserving(self) -> bool {
        matches!(
            self,
            FaultKind::ConnStall | FaultKind::CollectorStall | FaultKind::StoreAppendFail
        )
    }
}

/// One scheduled fault: the kind plus the victim/magnitude draw, made
/// concrete by the harness (victim indices are taken modulo the
/// harness's actual agent/shard counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosFault {
    /// What happens.
    pub kind: FaultKind,
    /// Victim selector: agent index for agent/wire faults, reactor
    /// shard index for [`FaultKind::CollectorStall`], inference shard
    /// index for [`FaultKind::ShardPanic`]; unused otherwise.
    pub victim: u32,
    /// Magnitude: stall duration in ms for the stall kinds, clock skew
    /// in ms for [`FaultKind::ClockSkew`]; unused otherwise.
    pub magnitude_ms: u64,
}

/// Schedule shape: which epochs are chaotic and how hard.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// First chaotic epoch (epochs before it are clean — the baseline
    /// phase every soak needs).
    pub start_epoch: u64,
    /// First epoch *after* the chaos window (epochs from here on are
    /// clean — the recovery phase).
    pub end_epoch: u64,
    /// Faults drawn per chaotic epoch.
    pub faults_per_epoch: usize,
    /// Upper bound (exclusive) for victim draws.
    pub victims: u32,
    /// Upper bound (exclusive) for stall/skew magnitude draws, in ms.
    pub max_magnitude_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            start_epoch: 2,
            end_epoch: 8,
            faults_per_epoch: 3,
            victims: 8,
            max_magnitude_ms: 200,
        }
    }
}

/// A deterministic fault schedule: `generate(cfg, seed)` always yields
/// the same faults at the same epochs, so a failing chaos run is
/// reproducible from its seed.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    cfg: ChaosConfig,
    /// Faults per chaotic epoch, indexed by `epoch - start_epoch`.
    epochs: Vec<Vec<ChaosFault>>,
}

impl ChaosSchedule {
    /// Draw the schedule. Every chaotic epoch draws
    /// [`ChaosConfig::faults_per_epoch`] faults with distinct kinds
    /// (kinds rotate across epochs so a long enough window exercises
    /// all of [`FaultKind::ALL`]).
    pub fn generate(cfg: ChaosConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_epochs = cfg.end_epoch.saturating_sub(cfg.start_epoch) as usize;
        let mut deck: Vec<FaultKind> = Vec::new();
        let mut epochs = Vec::with_capacity(n_epochs);
        for _ in 0..n_epochs {
            let mut faults = Vec::with_capacity(cfg.faults_per_epoch);
            for _ in 0..cfg.faults_per_epoch {
                // Deal kinds from a reshuffled deck so coverage is
                // guaranteed, not merely probable.
                if deck.is_empty() {
                    deck = FaultKind::ALL.to_vec();
                    deck.shuffle(&mut rng);
                }
                let kind = deck.pop().expect("deck refilled when empty");
                faults.push(ChaosFault {
                    kind,
                    victim: rng.random_range(0..cfg.victims.max(1)),
                    magnitude_ms: rng.random_range(1..cfg.max_magnitude_ms.max(2)),
                });
            }
            epochs.push(faults);
        }
        ChaosSchedule { cfg, epochs }
    }

    /// The shape this schedule was drawn with.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// The faults scheduled for `epoch` (empty outside the chaos
    /// window).
    pub fn faults_at(&self, epoch: u64) -> &[ChaosFault] {
        if epoch < self.cfg.start_epoch {
            return &[];
        }
        self.epochs
            .get((epoch - self.cfg.start_epoch) as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `epoch` is inside the chaos window.
    pub fn is_chaotic(&self, epoch: u64) -> bool {
        !self.faults_at(epoch).is_empty()
    }

    /// Whether a soak may hold `epoch`'s verdict to bit-identity
    /// against a fault-free run. Warm-started inference carries state
    /// across epochs, so one evidence-altering fault taints every
    /// *later* epoch too: the epoch qualifies only when every epoch up
    /// to and including it was clean or
    /// [evidence-preserving](FaultKind::evidence_preserving).
    pub fn bit_identity_epoch(&self, epoch: u64) -> bool {
        (0..=epoch).all(|e| {
            self.faults_at(e)
                .iter()
                .all(|f| f.kind.evidence_preserving())
        })
    }

    /// The distinct fault kinds this schedule exercises.
    pub fn kinds(&self) -> BTreeSet<FaultKind> {
        self.epochs.iter().flatten().map(|f| f.kind).collect()
    }
}

/// Seeded wire-frame mangler: byte-level corruption primitives over
/// encoded export messages (`Vec<u8>` frames), deterministic per seed.
/// The harness encodes each export normally, passes the frames through
/// the mangler per the schedule, and writes the result to the socket.
#[derive(Debug, Clone)]
pub struct WireMangler {
    rng: StdRng,
}

impl WireMangler {
    /// A mangler with its own seeded stream (independent of the
    /// schedule's draws).
    pub fn new(seed: u64) -> Self {
        WireMangler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Flip 1–4 random bytes of `frame` (anywhere — header, length
    /// field, or payload; the decoder must classify, never crash).
    pub fn corrupt(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let flips = self.rng.random_range(1..5usize).min(frame.len());
        for _ in 0..flips {
            let i = self.rng.random_range(0..frame.len());
            frame[i] ^= self.rng.random_range(1..256u32) as u8;
        }
    }

    /// Truncate `frame` to a random proper prefix (at least 1 byte
    /// kept) — a torn write whose tail never arrives.
    pub fn tear(&mut self, frame: &mut Vec<u8>) {
        if frame.len() < 2 {
            return;
        }
        let keep = self.rng.random_range(1..frame.len());
        frame.truncate(keep);
    }

    /// Duplicate one random frame in place (appended right after the
    /// original — duplicated evidence, still well-framed).
    pub fn duplicate(&mut self, frames: &mut Vec<Vec<u8>>) {
        if frames.is_empty() {
            return;
        }
        let i = self.rng.random_range(0..frames.len());
        let dup = frames[i].clone();
        frames.insert(i + 1, dup);
    }

    /// Shuffle the frame order (delivery reordering across the batch).
    pub fn reorder(&mut self, frames: &mut [Vec<u8>]) {
        frames.shuffle(&mut self.rng);
    }

    /// Apply `kind` to a frame batch: [`FaultKind::WireCorrupt`] and
    /// [`FaultKind::WireTear`] hit one frame,
    /// [`FaultKind::WireDuplicate`] and [`FaultKind::WireReorder`] act
    /// on the batch; other kinds are not wire faults and do nothing.
    ///
    /// Unlike the raw primitives, `apply` picks its targets so the
    /// fault is *observable*: corruption hits the frame header (on a
    /// checksum-less wire, payload corruption that stays in-range is
    /// undetectable by construction — the [`Self::corrupt`] primitive
    /// covers that separately), and a tear prefers a non-terminal frame
    /// (a torn tail at end-of-stream is plain loss; a mid-stream tear
    /// forces the decoder to resync).
    pub fn apply(&mut self, kind: FaultKind, frames: &mut Vec<Vec<u8>>) {
        match kind {
            FaultKind::WireCorrupt if !frames.is_empty() => {
                let i = self.rng.random_range(0..frames.len());
                let frame = &mut frames[i];
                if !frame.is_empty() {
                    // First 6 bytes: magic (4) + version (2).
                    let j = self.rng.random_range(0..frame.len().min(6));
                    frame[j] ^= self.rng.random_range(1..256u32) as u8;
                }
            }
            FaultKind::WireTear if !frames.is_empty() => {
                let i = if frames.len() > 1 {
                    self.rng.random_range(0..frames.len() - 1)
                } else {
                    0
                };
                self.tear(&mut frames[i]);
            }
            FaultKind::WireDuplicate => self.duplicate(frames),
            FaultKind::WireReorder => self.reorder(frames),
            _ => {}
        }
    }
}

/// Apply a forward clock skew to an export stamp — the
/// [`FaultKind::ClockSkew`] executor. (A *forward*-skewed agent is the
/// interesting case: the watermark-referenced lateness horizon must not
/// let it make honest agents' records look late.)
pub fn skew_stamp(export_ms: u64, skew_ms: u64) -> u64 {
    export_ms.saturating_add(skew_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = ChaosConfig::default();
        let a = ChaosSchedule::generate(cfg, 7);
        let b = ChaosSchedule::generate(cfg, 7);
        for e in 0..12 {
            assert_eq!(a.faults_at(e), b.faults_at(e), "epoch {e} diverged");
        }
        let c = ChaosSchedule::generate(cfg, 8);
        assert!(
            (0..12).any(|e| a.faults_at(e) != c.faults_at(e)),
            "different seeds should draw different schedules"
        );
    }

    #[test]
    fn default_window_covers_many_distinct_kinds() {
        let sched = ChaosSchedule::generate(ChaosConfig::default(), 1);
        // 6 epochs x 3 faults dealt from reshuffled full decks:
        // at least one full deck (10 kinds) is always exhausted.
        assert!(
            sched.kinds().len() >= 6,
            "schedule must span >= 6 fault kinds, got {:?}",
            sched.kinds()
        );
        assert!(!sched.is_chaotic(0));
        assert!(!sched.is_chaotic(1));
        assert!(sched.is_chaotic(2));
        assert!(!sched.is_chaotic(8));
    }

    #[test]
    fn bit_identity_is_a_prefix_property() {
        let sched = ChaosSchedule::generate(ChaosConfig::default(), 3);
        assert!(sched.bit_identity_epoch(0), "pre-chaos epochs qualify");
        assert!(sched.bit_identity_epoch(1), "pre-chaos epochs qualify");
        // Once any epoch draws an evidence-altering fault, that epoch
        // and every later one is disqualified (warm state diverged).
        let mut tainted = false;
        for e in 2..12 {
            tainted = tainted
                || !sched
                    .faults_at(e)
                    .iter()
                    .all(|f| f.kind.evidence_preserving());
            assert_eq!(sched.bit_identity_epoch(e), !tainted, "epoch {e}");
        }
        // A 6-epoch window dealing 18 faults from 10-kind decks always
        // draws an evidence-altering kind, so recovery epochs are
        // disqualified in every seed's schedule.
        assert!(!sched.bit_identity_epoch(9));
    }

    #[test]
    fn mangler_primitives_do_what_they_say() {
        let mut m = WireMangler::new(5);
        let frame: Vec<u8> = (0..64u8).collect();

        let mut corrupted = frame.clone();
        m.corrupt(&mut corrupted);
        assert_eq!(corrupted.len(), frame.len());
        assert_ne!(corrupted, frame, "corrupt must change bytes");

        let mut torn = frame.clone();
        m.tear(&mut torn);
        assert!(!torn.is_empty() && torn.len() < frame.len());
        assert_eq!(torn[..], frame[..torn.len()], "tear keeps a prefix");

        let mut batch = vec![frame.clone(), vec![9; 8], vec![7; 8]];
        m.duplicate(&mut batch);
        assert_eq!(batch.len(), 4);

        let mut reordered = batch.clone();
        m.reorder(&mut reordered);
        let mut a = batch.clone();
        let mut b = reordered.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "reorder permutes, never drops");
    }

    #[test]
    fn skewed_stamp_moves_forward() {
        assert_eq!(skew_stamp(1_000, 250), 1_250);
        assert_eq!(skew_stamp(u64::MAX, 1), u64::MAX);
    }
}
