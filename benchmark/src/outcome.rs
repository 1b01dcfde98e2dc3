//! What one workload run produces, whichever protocol ran it.

use crate::stats::median;
use flock::prelude::{Component, EpochReport, GroundTruth, Topology};
use std::collections::BTreeMap;

/// Samples behind the end-to-end metrics plus the per-layer ledger.
#[derive(Default)]
pub struct Outcome {
    /// One value per set-up performed in this process.
    pub setup_s: Vec<f64>,
    /// Hand-over → verdict stored, per cycle position.
    pub latency_ms: BySlot,
    /// Wall time of back-to-back operation: per saturation block (slot
    /// 0) or, offline, per trace.
    pub sat_wall_ms: BySlot,
    /// Process CPU time, same grouping.
    pub sat_cpu_ms: BySlot,
    /// Records one pass over the cycle consumes.
    pub records_per_cycle: usize,
    pub fscore: f64,
    pub ops: Ops,
    /// Per-layer metrics by name (filled by traced runs).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Samples of one quantity, grouped by the slot of the cycle they were
/// taken at: a cycle position, or slot 0 for a whole saturation block.
#[derive(Default)]
pub struct BySlot(BTreeMap<usize, Vec<f64>>);

impl BySlot {
    pub fn push(&mut self, slot: usize, value: f64) {
        self.0.entry(slot).or_default().push(value);
    }

    /// Every sample.
    pub fn all(&self) -> Vec<f64> {
        self.0.values().flatten().copied().collect()
    }

    /// Per slot, its smallest sample: what that operation takes when
    /// nothing disturbs it. Other tenants of a shared machine only ever
    /// add time — here in spells that flicker faster than an epoch — so
    /// among the ten or more passes a run makes over the cycle, each
    /// slot's best is the one estimate that does not move with the
    /// machine's mood (see the README).
    pub fn best(&self) -> Vec<f64> {
        self.0
            .values()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }
}

/// Latency samples split by whether the operation was traced.
#[derive(Default)]
pub struct Latencies {
    traced: BySlot,
    untraced: BySlot,
}

impl Latencies {
    pub fn push(&mut self, pos: usize, traced: bool, ms: f64) {
        if traced {
            self.traced.push(pos, ms);
        } else {
            self.untraced.push(pos, ms);
        }
    }

    /// Tracing overhead in percent: per cycle position, traced median
    /// over untraced median; the median over positions. A traced run
    /// alternates traced and untraced operations so that every position
    /// gets both; pairing by position keeps the differing cost of
    /// positions out of the estimate.
    pub fn trace_overhead_pct(&self) -> f64 {
        let ratios: Vec<f64> = self
            .traced
            .0
            .iter()
            .filter_map(|(pos, traced)| {
                let untraced = self.untraced.0.get(pos)?;
                Some((median(traced) / median(untraced) - 1.0) * 100.0)
            })
            .collect();
        median(&ratios)
    }

    /// All samples, traced or not.
    pub fn merged(mut self) -> BySlot {
        for (pos, samples) in self.traced.0 {
            self.untraced.0.entry(pos).or_default().extend(samples);
        }
        self.untraced
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ops {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// The verdict of each cycle position on its first measured pass: what
/// later passes must reproduce, and what accuracy is scored on.
pub struct Verdicts {
    reference: Vec<Option<Vec<Component>>>,
}

impl Verdicts {
    pub fn new(k: usize) -> Self {
        Verdicts {
            reference: vec![None; k],
        }
    }

    /// Record `predicted` for `pos`, or compare it with the first pass.
    pub fn check(&mut self, ops: &mut Ops, pos: usize, predicted: &[Component]) {
        let mut sorted = predicted.to_vec();
        sorted.sort_unstable();
        match &self.reference[pos] {
            None => self.reference[pos] = Some(sorted),
            Some(first) if *first != sorted => ops.fail(format!(
                "position {pos}: verdict {sorted:?} differs from first pass {first:?}"
            )),
            Some(_) => {}
        }
    }

    /// A component some first-pass verdict blamed.
    pub fn any_blamed(&self) -> Option<Component> {
        self.reference.iter().flatten().flatten().next().copied()
    }

    /// Mean per-position F1 against the injected truth (positions the
    /// run never reached score 0), and an FNV digest of the verdicts.
    pub fn score<'a>(
        &self,
        topo: &Topology,
        truths: impl Iterator<Item = &'a GroundTruth>,
    ) -> (f64, crate::gen::Fnv) {
        let mut digest = crate::gen::Fnv::new();
        let mut total = 0.0;
        for (verdict, truth) in self.reference.iter().zip(truths) {
            let Some(predicted) = verdict else { continue };
            total += flock::core::evaluate(topo, predicted, truth).fscore();
            digest.u64(predicted.len() as u64);
            for c in predicted {
                digest.u64(match c {
                    Component::Link(l) => u64::from(l.0),
                    Component::Device(d) => 1 << 32 | u64::from(d.0),
                });
            }
        }
        (total / self.reference.len() as f64, digest)
    }
}

/// Check one streaming epoch's report against what was handed over.
pub fn check_report(
    ops: &mut Ops,
    verdicts: Option<&mut Verdicts>,
    pos: usize,
    index: u64,
    records: usize,
    report: Option<&EpochReport>,
) {
    ops.attempted += 1;
    let Some(report) = report else {
        return ops.fail(format!("epoch {index}: no report"));
    };
    if report.epoch_index != index {
        ops.fail(format!(
            "epoch {index}: report is for epoch {}",
            report.epoch_index
        ));
    } else if report.health.is_degraded() {
        ops.fail(format!(
            "epoch {index}: degraded {:?}",
            report.health.reasons()
        ));
    } else if report.records != records {
        ops.fail(format!(
            "epoch {index}: {} records reported, {records} sent",
            report.records
        ));
    } else if let Some(verdicts) = verdicts {
        verdicts.check(ops, pos, &report.result.predicted);
    }
}
