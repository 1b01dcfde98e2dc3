//! Precision / recall / Fscore per Appendix A.1 of the paper.
//!
//! * **Precision** — fraction of predicted components that actually
//!   failed. A predicted *link* of a truly faulty device counts as
//!   correct. An empty prediction has precision 1.
//! * **Recall** — fraction of ground-truth failures recovered. Predicting
//!   a faulty device itself counts as 100% for that device; predicting x%
//!   of its failed links counts as x%. A ground-truth link is also
//!   credited when the prediction blames one of its endpoint devices.
//! * Zero-failure traces: recall is 1; precision is 1 iff the prediction
//!   is empty (a non-empty answer is a wrong answer).

use flock_topology::{Component, GroundTruth, LinkId, NodeId, Topology};
use serde::Serialize;
use std::collections::HashSet;

/// A precision/recall pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PrecisionRecall {
    /// Fraction of predictions that are correct.
    pub precision: f64,
    /// Fraction of ground truth recovered.
    pub recall: f64,
}

impl PrecisionRecall {
    /// Harmonic mean of precision and recall.
    pub fn fscore(&self) -> f64 {
        fscore(self.precision, self.recall)
    }
}

/// Harmonic mean, 0 when both inputs are 0.
pub fn fscore(precision: f64, recall: f64) -> f64 {
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Score a prediction against ground truth (Appendix A.1).
pub fn evaluate(topo: &Topology, predicted: &[Component], truth: &GroundTruth) -> PrecisionRecall {
    if predicted.is_empty() {
        return PrecisionRecall {
            precision: 1.0,
            recall: if truth.is_empty() { 1.0 } else { 0.0 },
        };
    }
    if truth.is_empty() {
        // Non-empty prediction on a clean network: wrong answer.
        return PrecisionRecall {
            precision: 0.0,
            recall: 1.0,
        };
    }

    let truth_links: HashSet<LinkId> = truth.failed_links.iter().copied().collect();
    let truth_devs: HashSet<NodeId> = truth.failed_devices.iter().copied().collect();

    // ---- Precision ----
    let mut correct = 0usize;
    for p in predicted {
        let ok = match p {
            Component::Link(l) => {
                truth_links.contains(l) || {
                    let link = topo.link(*l);
                    truth_devs.contains(&link.src) || truth_devs.contains(&link.dst)
                }
            }
            Component::Device(d) => truth_devs.contains(d),
        };
        correct += usize::from(ok);
    }
    let precision = correct as f64 / predicted.len() as f64;

    // ---- Recall ----
    let pred_links: HashSet<LinkId> = predicted
        .iter()
        .filter_map(|c| match c {
            Component::Link(l) => Some(*l),
            _ => None,
        })
        .collect();
    let pred_devs: HashSet<NodeId> = predicted
        .iter()
        .filter_map(|c| match c {
            Component::Device(d) => Some(*d),
            _ => None,
        })
        .collect();

    // Ground-truth links attached to a ground-truth device are accounted
    // through the device's partial credit; the rest stand alone.
    let standalone_links: Vec<LinkId> = truth
        .failed_links
        .iter()
        .copied()
        .filter(|l| {
            let link = topo.link(*l);
            !(truth_devs.contains(&link.src) || truth_devs.contains(&link.dst))
        })
        .collect();

    let mut credit = 0.0f64;
    let mut denom = 0.0f64;
    for dev in &truth.failed_devices {
        denom += 1.0;
        if pred_devs.contains(dev) {
            credit += 1.0;
            continue;
        }
        // Partial credit: fraction of the device's failed links predicted.
        let dev_failed: Vec<LinkId> = truth
            .failed_links
            .iter()
            .copied()
            .filter(|l| {
                let link = topo.link(*l);
                link.src == *dev || link.dst == *dev
            })
            .collect();
        if !dev_failed.is_empty() {
            let hit = dev_failed.iter().filter(|l| pred_links.contains(l)).count();
            credit += hit as f64 / dev_failed.len() as f64;
        }
    }
    for l in &standalone_links {
        denom += 1.0;
        let link = topo.link(*l);
        if pred_links.contains(l) || pred_devs.contains(&link.src) || pred_devs.contains(&link.dst)
        {
            credit += 1.0;
        }
    }
    let recall = if denom == 0.0 { 1.0 } else { credit / denom };
    PrecisionRecall { precision, recall }
}

/// Accumulates per-trace precision/recall into experiment-level means, as
/// the paper's figures report.
#[derive(Debug, Default, Clone)]
pub struct MetricsAccumulator {
    precision_sum: f64,
    recall_sum: f64,
    n: usize,
}

impl MetricsAccumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one trace's result.
    pub fn add(&mut self, pr: PrecisionRecall) {
        self.precision_sum += pr.precision;
        self.recall_sum += pr.recall;
        self.n += 1;
    }

    /// Number of traces accumulated.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Mean precision/recall over the accumulated traces.
    pub fn mean(&self) -> PrecisionRecall {
        if self.n == 0 {
            return PrecisionRecall {
                precision: 0.0,
                recall: 0.0,
            };
        }
        PrecisionRecall {
            precision: self.precision_sum / self.n as f64,
            recall: self.recall_sum / self.n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::clos::{three_tier, ClosParams};

    fn topo() -> Topology {
        three_tier(ClosParams::tiny())
    }

    #[test]
    fn empty_prediction_rules() {
        let t = topo();
        let empty_truth = GroundTruth::default();
        let pr = evaluate(&t, &[], &empty_truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);

        let truth = GroundTruth {
            failed_links: vec![t.fabric_links()[0]],
            failed_devices: vec![],
        };
        let pr = evaluate(&t, &[], &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.0);
    }

    #[test]
    fn clean_network_wrong_answer_zeroes_precision() {
        let t = topo();
        let pr = evaluate(
            &t,
            &[Component::Link(t.fabric_links()[0])],
            &GroundTruth::default(),
        );
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn exact_link_match() {
        let t = topo();
        let l = t.fabric_links()[0];
        let truth = GroundTruth {
            failed_links: vec![l],
            failed_devices: vec![],
        };
        let pr = evaluate(&t, &[Component::Link(l)], &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.fscore(), 1.0);
    }

    #[test]
    fn wrong_link_halves_precision() {
        let t = topo();
        let ls = t.fabric_links();
        let truth = GroundTruth {
            failed_links: vec![ls[0]],
            failed_devices: vec![],
        };
        let pr = evaluate(
            &t,
            &[Component::Link(ls[0]), Component::Link(ls[5])],
            &truth,
        );
        assert_eq!(pr.precision, 0.5);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn device_truth_accepts_its_links() {
        let t = topo();
        let dev = t.switches()[0];
        let dev_links = t.links_of_node(dev);
        let truth = GroundTruth {
            failed_links: dev_links.clone(),
            failed_devices: vec![dev],
        };
        // Predicting half the device's links: precision 1 (all belong to
        // the faulty device), recall = 50%.
        let half: Vec<Component> = dev_links[..dev_links.len() / 2]
            .iter()
            .map(|l| Component::Link(*l))
            .collect();
        let pr = evaluate(&t, &half, &truth);
        assert_eq!(pr.precision, 1.0);
        assert!((pr.recall - 0.5).abs() < 1e-9);

        // Predicting the device itself: full credit.
        let pr = evaluate(&t, &[Component::Device(dev)], &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn predicted_device_covers_standalone_link() {
        let t = topo();
        let l = t.fabric_links()[0];
        let dev = t.link(l).src;
        let truth = GroundTruth {
            failed_links: vec![l],
            failed_devices: vec![],
        };
        let pr = evaluate(&t, &[Component::Device(dev)], &truth);
        // The device is not in truth → precision 0 under the strict rule…
        assert_eq!(pr.precision, 0.0);
        // …but it covers the link for recall.
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn accumulator_means() {
        let mut acc = MetricsAccumulator::new();
        acc.add(PrecisionRecall {
            precision: 1.0,
            recall: 0.0,
        });
        acc.add(PrecisionRecall {
            precision: 0.0,
            recall: 1.0,
        });
        let m = acc.mean();
        assert_eq!(acc.count(), 2);
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 0.5);
    }

    #[test]
    fn fscore_edge_cases() {
        assert_eq!(fscore(0.0, 0.0), 0.0);
        assert_eq!(fscore(1.0, 1.0), 1.0);
        assert!((fscore(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }
}
