//! 007's link voting (Algorithm 1 of \[11\]).
//!
//! Every "bad" flow — one with at least one retransmission — contributes a
//! vote of `1/h` to each of the `h` links on its traced path. The ranking
//! phase then repeatedly takes the link with the highest vote total,
//! removes the bad flows crossing it (their drops are now explained) and
//! re-tallies, until the best remaining vote drops below the scheme's one
//! hyperparameter, `vote_threshold`.
//!
//! 007 only consumes known-path observations (A2 in the paper's input
//! taxonomy: flagged flows whose path was traced). Observations with path
//! uncertainty are ignored, faithfully to the original system. Votes are
//! over links only — 007 has no device nodes; the paper's device-failure
//! evaluation credits it through the link-based accounting of App. A.1.

use flock_core::{LocalizationResult, Localizer};
use flock_telemetry::ObservationSet;
use flock_topology::{Component, LinkId, Topology};
use serde::Serialize;
use std::time::Instant;

/// The 007 baseline.
#[derive(Debug, Clone, Serialize)]
pub struct ZeroZeroSeven {
    /// Minimum vote total for a link to be blamed (007's single
    /// hyperparameter, calibrated in §5.2).
    pub vote_threshold: f64,
    /// Safety cap on the number of links returned.
    pub max_predictions: usize,
}

impl Default for ZeroZeroSeven {
    fn default() -> Self {
        ZeroZeroSeven {
            vote_threshold: 1.0,
            max_predictions: 64,
        }
    }
}

impl ZeroZeroSeven {
    /// 007 with the given vote threshold.
    pub fn new(vote_threshold: f64) -> Self {
        ZeroZeroSeven {
            vote_threshold,
            ..Default::default()
        }
    }
}

impl Localizer for ZeroZeroSeven {
    fn name(&self) -> String {
        "007".into()
    }

    fn localize(&self, topo: &Topology, obs: &ObservationSet) -> LocalizationResult {
        let start = Instant::now();
        // Bad flows with known paths: (links, weight).
        let mut bad_flows: Vec<(Vec<LinkId>, f64)> = Vec::new();
        for o in &obs.flows {
            if o.bad == 0 || !o.path_known(&obs.arena) {
                continue;
            }
            let links: Vec<LinkId> = obs.full_path_links(o, 0).collect();
            if !links.is_empty() {
                bad_flows.push((links, f64::from(o.weight)));
            }
        }

        let mut votes = vec![0.0f64; topo.link_count()];
        let mut alive: Vec<bool> = vec![true; bad_flows.len()];
        for (links, w) in &bad_flows {
            let share = w / links.len() as f64;
            for l in links {
                votes[l.idx()] += share;
            }
        }

        let mut predicted = Vec::new();
        let mut scores = Vec::new();
        let mut scanned = 0u64;
        while predicted.len() < self.max_predictions {
            scanned += topo.link_count() as u64;
            let (best, best_votes) = match votes
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            {
                Some((i, v)) => (LinkId(i as u32), *v),
                None => break,
            };
            if best_votes < self.vote_threshold {
                break;
            }
            predicted.push(Component::Link(best));
            scores.push(best_votes);
            // Retract the votes of every remaining bad flow crossing the
            // blamed link.
            for (fi, (links, w)) in bad_flows.iter().enumerate() {
                if !alive[fi] || !links.contains(&best) {
                    continue;
                }
                alive[fi] = false;
                let share = w / links.len() as f64;
                for l in links {
                    votes[l.idx()] -= share;
                }
            }
            // The blamed link must not be re-selected even if other flows
            // still vote for it.
            votes[best.idx()] = f64::NEG_INFINITY;
        }

        let iterations = predicted.len() as u64;
        LocalizationResult {
            predicted,
            scores,
            log_likelihood: 0.0,
            hypotheses_scanned: scanned,
            iterations,
            runtime: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_telemetry::input::{assemble, AnalysisMode, InputKind};
    use flock_telemetry::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
    use flock_topology::clos::{three_tier, ClosParams};
    use flock_topology::Router;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn obs_with_failure(
        topo: &flock_topology::Topology,
        bad_link: LinkId,
        n_flows: usize,
        seed: u64,
    ) -> ObservationSet {
        let router = Router::new(topo);
        let hosts = topo.hosts().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flows = Vec::new();
        for i in 0..n_flows {
            let s = hosts[rng.random_range(0..hosts.len())];
            let mut d = hosts[rng.random_range(0..hosts.len())];
            while d == s {
                d = hosts[rng.random_range(0..hosts.len())];
            }
            let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
            let pick = rng.random_range(0..paths.len());
            let mut tp = vec![topo.host_uplink(s)];
            tp.extend_from_slice(&paths[pick]);
            tp.push(topo.host_downlink(d));
            let bad = u64::from(tp.contains(&bad_link)) * 3;
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, (i % 60000) as u16, 80),
                stats: FlowStats {
                    packets: 500,
                    retransmissions: bad,
                    bytes: 0,
                    rtt_sum_us: 0,
                    rtt_count: 0,
                    rtt_max_us: 0,
                },
                class: TrafficClass::Passive,
                true_path: tp,
            });
        }
        assemble(
            topo,
            &router,
            &flows,
            &[InputKind::A2],
            AnalysisMode::PerPacket,
        )
    }

    #[test]
    fn top_vote_is_failed_link() {
        let topo = three_tier(ClosParams {
            pods: 3,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        });
        let bad = topo.fabric_links()[10];
        let obs = obs_with_failure(&topo, bad, 1500, 3);
        let result = ZeroZeroSeven::new(2.0).localize(&topo, &obs);
        assert!(
            result.predicted.contains(&Component::Link(bad)),
            "007 must blame the failed link, got {:?}",
            result.predicted
        );
        // The failed link should be the very first pick.
        assert_eq!(result.predicted[0], Component::Link(bad));
    }

    #[test]
    fn high_threshold_blames_nothing() {
        let topo = three_tier(ClosParams::tiny());
        let bad = topo.fabric_links()[0];
        let obs = obs_with_failure(&topo, bad, 200, 4);
        let result = ZeroZeroSeven::new(1e9).localize(&topo, &obs);
        assert!(result.predicted.is_empty());
    }

    #[test]
    fn clean_input_blames_nothing() {
        let topo = three_tier(ClosParams::tiny());
        let obs = ObservationSet {
            arena: flock_telemetry::PathArena::new().into(),
            flows: Vec::new(),
            mode: AnalysisMode::PerPacket,
        };
        let result = ZeroZeroSeven::default().localize(&topo, &obs);
        assert!(result.predicted.is_empty());
    }

    #[test]
    fn ignores_path_uncertain_observations() {
        // Passive-only input (path sets): 007 cannot use it at all.
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let mut tp = vec![topo.host_uplink(hosts[0])];
        let paths = router.paths(topo.host_leaf(hosts[0]), topo.host_leaf(hosts[11]));
        tp.extend_from_slice(&paths[0]);
        tp.push(topo.host_downlink(hosts[11]));
        let flows = vec![MonitoredFlow {
            key: FlowKey::tcp(hosts[0], hosts[11], 1, 80),
            stats: FlowStats {
                packets: 100,
                retransmissions: 50,
                bytes: 0,
                rtt_sum_us: 0,
                rtt_count: 0,
                rtt_max_us: 0,
            },
            class: TrafficClass::Passive,
            true_path: tp,
        }];
        let obs = assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        let result = ZeroZeroSeven::new(0.1).localize(&topo, &obs);
        assert!(result.predicted.is_empty(), "P input must be unusable");
    }

    #[test]
    fn votes_scale_with_aggregation_weight() {
        // Two identical bad flows merged into one weighted observation
        // must count as two votes.
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let mk = || {
            let paths = router.paths(topo.host_leaf(hosts[0]), topo.host_leaf(hosts[11]));
            let mut tp = vec![topo.host_uplink(hosts[0])];
            tp.extend_from_slice(&paths[0]);
            tp.push(topo.host_downlink(hosts[11]));
            MonitoredFlow {
                key: FlowKey::tcp(hosts[0], hosts[11], 7, 80),
                stats: FlowStats {
                    packets: 100,
                    retransmissions: 2,
                    bytes: 0,
                    rtt_sum_us: 0,
                    rtt_count: 0,
                    rtt_max_us: 0,
                },
                class: TrafficClass::Passive,
                true_path: tp,
            }
        };
        let obs = assemble(
            &topo,
            &router,
            &[mk(), mk()],
            &[InputKind::A2],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs.flows.len(), 1);
        assert_eq!(obs.flows[0].weight, 2);
        let h = 6.0; // uplink + 4 fabric links + downlink
        let result = ZeroZeroSeven::new(2.0 / h - 1e-9).localize(&topo, &obs);
        assert!(
            !result.predicted.is_empty(),
            "2 merged flows → vote 2/h per link, above threshold"
        );
    }
}
