//! Grid evaluation over training traces and the §5.2 selection rule.

use crate::scheme::SchemeConfig;
use flock_core::{evaluate, MetricsAccumulator, PrecisionRecall};
use flock_telemetry::ObservationSet;
use flock_topology::{GroundTruth, Topology};
use std::sync::Arc;

/// One training trace: topology, assembled observations (for the input
/// kind being calibrated), and ground truth.
#[derive(Clone)]
pub struct TrainingTrace {
    /// Topology the trace was generated on.
    pub topo: Arc<Topology>,
    /// Assembled inference input.
    pub obs: Arc<ObservationSet>,
    /// What actually failed.
    pub truth: GroundTruth,
}

/// A grid point with its training-set accuracy.
#[derive(Debug, Clone)]
pub struct CalibPoint {
    /// The configuration evaluated.
    pub config: SchemeConfig,
    /// Mean precision/recall over the training traces.
    pub metrics: PrecisionRecall,
}

/// Evaluate every grid point on every trace, in parallel across grid
/// points (`threads` worker threads; 1 = sequential).
pub fn evaluate_grid(
    points: &[SchemeConfig],
    traces: &[TrainingTrace],
    threads: usize,
) -> Vec<CalibPoint> {
    let threads = threads.max(1);
    if threads == 1 || points.len() == 1 {
        return points.iter().map(|p| eval_point(p, traces)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: std::sync::Mutex<Vec<Option<CalibPoint>>> =
        std::sync::Mutex::new(vec![None; points.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(points.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let point = eval_point(&points[i], traces);
                results.lock().unwrap()[i] = Some(point);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every grid point evaluated"))
        .collect()
}

fn eval_point(config: &SchemeConfig, traces: &[TrainingTrace]) -> CalibPoint {
    let localizer = config.build();
    let mut acc = MetricsAccumulator::new();
    for t in traces {
        let result = localizer.localize(&t.topo, &t.obs);
        acc.add(evaluate(&t.topo, &result.predicted, &t.truth));
    }
    CalibPoint {
        config: config.clone(),
        metrics: acc.mean(),
    }
}

/// Points not dominated in (precision, recall) — the tradeoff curves of
/// Fig. 2, sorted by precision ascending.
pub fn pareto_front(points: &[CalibPoint]) -> Vec<CalibPoint> {
    let mut front: Vec<CalibPoint> = Vec::new();
    for p in points {
        let dominated = points.iter().any(|q| {
            (q.metrics.precision > p.metrics.precision && q.metrics.recall >= p.metrics.recall)
                || (q.metrics.precision >= p.metrics.precision
                    && q.metrics.recall > p.metrics.recall)
        });
        if !dominated {
            front.push(p.clone());
        }
    }
    front.sort_by(|a, b| {
        a.metrics
            .precision
            .partial_cmp(&b.metrics.precision)
            .unwrap()
            .then(a.metrics.recall.partial_cmp(&b.metrics.recall).unwrap())
    });
    front.dedup_by(|a, b| a.metrics == b.metrics);
    front
}

/// The §5.2 selection rule: among points with precision ≥ P (initially
/// 0.98) pick the max-recall one; if none exists or its recall is < 0.25,
/// relax P by 0.05 and retry; fall back to max-Fscore if P reaches 0.
pub fn select(points: &[CalibPoint]) -> Option<CalibPoint> {
    assert!(!points.is_empty());
    let mut p = 0.98f64;
    while p > 0.0 {
        let best = points
            .iter()
            .filter(|c| c.metrics.precision >= p)
            .max_by(|a, b| a.metrics.recall.partial_cmp(&b.metrics.recall).unwrap());
        if let Some(best) = best {
            if best.metrics.recall >= 0.25 {
                return Some(best.clone());
            }
        }
        p -= 0.05;
    }
    // Degenerate training set: fall back to the best Fscore.
    points
        .iter()
        .max_by(|a, b| a.metrics.fscore().partial_cmp(&b.metrics.fscore()).unwrap())
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_core::HyperParams;

    fn pt(precision: f64, recall: f64) -> CalibPoint {
        CalibPoint {
            config: SchemeConfig::Seven {
                vote_threshold: precision + recall, // unique-ish marker
            },
            metrics: PrecisionRecall { precision, recall },
        }
    }

    #[test]
    fn select_prefers_high_precision_first() {
        let points = vec![pt(0.99, 0.6), pt(0.99, 0.7), pt(0.7, 0.99)];
        let got = select(&points).unwrap();
        assert_eq!(got.metrics.recall, 0.7);
        assert_eq!(got.metrics.precision, 0.99);
    }

    #[test]
    fn select_relaxes_precision_when_recall_too_low() {
        // High-precision settings exist but recall is unusable; rule must
        // walk down to the 0.9-precision point.
        let points = vec![pt(0.99, 0.1), pt(0.90, 0.8), pt(0.5, 0.95)];
        let got = select(&points).unwrap();
        assert_eq!(got.metrics.precision, 0.90);
    }

    #[test]
    fn select_falls_back_to_fscore() {
        let points = vec![pt(0.2, 0.1), pt(0.1, 0.2)];
        assert!(select(&points).is_some());
    }

    #[test]
    fn pareto_front_removes_dominated() {
        let points = vec![pt(0.9, 0.5), pt(0.8, 0.4), pt(0.5, 0.9), pt(0.9, 0.6)];
        let front = pareto_front(&points);
        // (0.8,0.4) dominated by (0.9,0.5) and (0.9,0.5) by (0.9,0.6).
        assert_eq!(front.len(), 2);
        assert!(front.iter().all(|p| p.metrics
            != PrecisionRecall {
                precision: 0.8,
                recall: 0.4
            }));
    }

    #[test]
    fn evaluate_grid_parallel_matches_sequential() {
        use flock_telemetry::input::AnalysisMode;
        use flock_telemetry::PathArena;
        let topo = Arc::new(flock_topology::clos::three_tier(
            flock_topology::ClosParams::tiny(),
        ));
        // Empty observations: every scheme predicts nothing; with empty
        // truth precision=recall=1 for all points.
        let traces = vec![TrainingTrace {
            topo: Arc::clone(&topo),
            obs: Arc::new(ObservationSet {
                arena: PathArena::new().into(),
                flows: Vec::new(),
                mode: AnalysisMode::PerPacket,
            }),
            truth: GroundTruth::default(),
        }];
        let points = vec![
            SchemeConfig::Flock(HyperParams::default()),
            SchemeConfig::Seven {
                vote_threshold: 1.0,
            },
        ];
        let seq = evaluate_grid(&points, &traces, 1);
        let par = evaluate_grid(&points, &traces, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.config, b.config);
        }
        assert_eq!(seq[0].metrics.precision, 1.0);
    }
}
