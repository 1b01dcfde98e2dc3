//! Gibbs sampling over Flock's PGM, accelerated with JLE (§3.3).
//!
//! The sampler sweeps the components in random order; for each component
//! the conditional log-odds of being failed given the rest of the
//! hypothesis is exactly the Δ-array entry (± sign) plus the prior —
//! precisely what the engine maintains. Without JLE every flip candidate
//! would cost a likelihood evaluation, which is why the paper reports
//! plain Gibbs as unusable at scale.
//!
//! The posterior marginal of each component is estimated from the
//! post-burn-in samples; components with marginal ≥ `threshold` are
//! reported, ordered by marginal. The paper chose greedy over Gibbs
//! because convergence is hard to bound — reproduced here as the optional
//! third inference backend.

use crate::engine::Engine;
use crate::localizer::{LocalizationResult, Localizer};
use crate::params::HyperParams;
use crate::space::CompIdx;
use flock_telemetry::ObservationSet;
use flock_topology::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Gibbs-sampling inference.
#[derive(Debug, Clone)]
pub struct GibbsSampler {
    /// Model hyperparameters.
    pub params: HyperParams,
    /// Total sweeps over all components.
    pub sweeps: usize,
    /// Sweeps discarded before collecting marginals.
    pub burn_in: usize,
    /// Marginal threshold for reporting a component (default 0.5).
    pub threshold: f64,
    /// RNG seed (sampling is deterministic given the seed).
    pub seed: u64,
    /// Initialize the chain at the greedy MAP estimate instead of the
    /// empty hypothesis. The conditionals of this PGM are extremely sharp
    /// (log-odds of hundreds), so a cold chain freezes in the first mode
    /// it stumbles into; MAP initialization is the standard remedy.
    pub init_from_map: bool,
}

impl Default for GibbsSampler {
    fn default() -> Self {
        GibbsSampler {
            params: HyperParams::default(),
            sweeps: 60,
            burn_in: 20,
            threshold: 0.5,
            seed: 0x5eed,
            init_from_map: true,
        }
    }
}

impl GibbsSampler {
    /// Sampler with the given hyperparameters and defaults otherwise.
    pub fn new(params: HyperParams) -> Self {
        GibbsSampler {
            params,
            ..Default::default()
        }
    }
}

impl Localizer for GibbsSampler {
    fn name(&self) -> String {
        "Flock-Gibbs".into()
    }

    fn localize(&self, topo: &Topology, obs: &ObservationSet) -> LocalizationResult {
        assert!(self.burn_in < self.sweeps, "burn_in must be below sweeps");
        let start = Instant::now();
        let mut engine = Engine::new(topo, obs, self.params);
        let n = engine.n_comps();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<CompIdx> = (0..n as CompIdx).collect();
        let mut on_counts = vec![0u32; n];
        let mut scanned = 0u64;

        if self.init_from_map {
            let greedy = crate::greedy::FlockGreedy::new(self.params);
            let (_, greedy_scanned) = greedy.search(&mut engine);
            scanned += greedy_scanned;
        }

        for sweep in 0..self.sweeps {
            order.shuffle(&mut rng);
            for &c in &order {
                scanned += 1;
                // Conditional log-odds of c being failed given the rest.
                let logodds = if engine.in_hypothesis(c) {
                    -engine.delta()[c as usize] + engine.prior_logodds(c)
                } else {
                    engine.delta()[c as usize] + engine.prior_logodds(c)
                };
                let p_on = 1.0 / (1.0 + (-logodds).exp());
                let want_on = rng.random::<f64>() < p_on;
                if want_on != engine.in_hypothesis(c) {
                    engine.flip(c);
                }
            }
            if sweep >= self.burn_in {
                for &c in engine.hypothesis() {
                    on_counts[c as usize] += 1;
                }
            }
        }

        let samples = (self.sweeps - self.burn_in) as f64;
        let mut marginal: Vec<(CompIdx, f64)> = on_counts
            .iter()
            .enumerate()
            .filter_map(|(c, &k)| {
                let m = k as f64 / samples;
                (m >= self.threshold).then_some((c as CompIdx, m))
            })
            .collect();
        marginal.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

        LocalizationResult {
            predicted: marginal.iter().map(|(c, _)| engine.component(*c)).collect(),
            scores: marginal.iter().map(|(_, m)| *m).collect(),
            log_likelihood: engine.log_likelihood(),
            hypotheses_scanned: scanned,
            iterations: self.sweeps as u64,
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
    use flock_topology::{Component, Router};

    #[test]
    fn gibbs_recovers_clear_failure() {
        // Three pods avoid the 2-pod serial-link equivalence (tied links
        // split the Gibbs marginal).
        let topo = three_tier(ClosParams {
            pods: 3,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        });
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let bad_link = topo.fabric_links()[5];
        let mut rng = StdRng::seed_from_u64(7);
        let mut flows = Vec::new();
        for i in 0..500usize {
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
            let bad = if tp.contains(&bad_link) { 6 } else { 0 };
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, (i % 60000) as u16, 80),
                stats: FlowStats {
                    packets: 1000,
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
        let obs = assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        let result = GibbsSampler::default().localize(&topo, &obs);
        assert_eq!(result.predicted, vec![Component::Link(bad_link)]);
        assert!(result.scores[0] > 0.9, "marginal should be near 1");
    }

    #[test]
    fn gibbs_is_deterministic_given_seed() {
        let topo = three_tier(ClosParams::tiny());
        let obs = ObservationSet {
            arena: flock_telemetry::PathArena::new().into(),
            flows: Vec::new(),
            mode: AnalysisMode::PerPacket,
        };
        let a = GibbsSampler::default().localize(&topo, &obs);
        let b = GibbsSampler::default().localize(&topo, &obs);
        assert_eq!(a.predicted, b.predicted);
        assert!(a.predicted.is_empty(), "no evidence → empty hypothesis");
    }
}
