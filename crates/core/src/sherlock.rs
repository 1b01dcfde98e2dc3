//! The Sherlock "Ferret" inference algorithm on Flock's PGM (§6.1), in
//! two configurations:
//!
//! * **plain** — exhaustive search over all hypotheses with at most `K`
//!   failures, evaluating each neighbor by an incremental state flip
//!   (`O(n^K · D · T)`, the paper's Sherlock baseline);
//! * **with JLE** (Algorithm 3) — the recursion carries the Δ array, so
//!   the deepest level evaluates all `n` sibling hypotheses with a single
//!   array scan instead of `n` state flips: `O(n^(K-1) · D · T)`.
//!
//! Both explore hypotheses in canonical (index-increasing) order, evaluate
//! the same posterior (likelihood + priors) and return the same argmax:
//! the first strict maximum, so an exact tie goes to the smallest
//! component id, as in greedy.
//! As the paper notes, Sherlock cannot detect more than `K` concurrent
//! failures and is far too slow beyond `K = 2` at datacenter scale — the
//! motivation for Flock's greedy search.

use crate::engine::Engine;
use crate::localizer::{LocalizationResult, Localizer};
use crate::params::HyperParams;
use crate::space::CompIdx;
use flock_telemetry::ObservationSet;
use flock_topology::Topology;
use std::time::Instant;

/// Sherlock/Ferret bounded-failure exhaustive MLE.
#[derive(Debug, Clone)]
pub struct SherlockFerret {
    /// Model hyperparameters (shared with Flock for a fair comparison).
    pub params: HyperParams,
    /// Maximum concurrent failures `K`.
    pub max_failures: usize,
    /// Accelerate with JLE (Algorithm 3).
    pub use_jle: bool,
    /// Optional cap on hypotheses examined. When hit, the search stops
    /// early and the result's `hypotheses_scanned` reflects the partial
    /// run — the paper extrapolates Sherlock's large-scale runtimes from
    /// exactly such partial runs (§7.8).
    pub hypothesis_budget: Option<u64>,
}

impl SherlockFerret {
    /// Plain Sherlock with `K` max failures.
    pub fn new(params: HyperParams, max_failures: usize) -> Self {
        SherlockFerret {
            params,
            max_failures,
            use_jle: false,
            hypothesis_budget: None,
        }
    }

    /// JLE-accelerated Sherlock (Algorithm 3).
    pub fn with_jle(params: HyperParams, max_failures: usize) -> Self {
        SherlockFerret {
            params,
            max_failures,
            use_jle: true,
            hypothesis_budget: None,
        }
    }

    /// Run the search on an engine bound at the empty hypothesis (which
    /// it is left at); returns the best hypothesis, its posterior and the
    /// hypotheses-scanned count. Exposed so callers can time the search
    /// apart from the engine build.
    pub fn search(&self, engine: &mut Engine) -> (Vec<CompIdx>, f64, u64) {
        let mut search = Search {
            engine,
            k: self.max_failures,
            use_jle: self.use_jle,
            best_posterior: 0.0, // empty hypothesis (normalized LL = 0)
            best_hypothesis: Vec::new(),
            scanned: 1,
            budget: self.hypothesis_budget.unwrap_or(u64::MAX),
        };
        search.explore(0, 0.0);
        (
            search.best_hypothesis,
            search.best_posterior,
            search.scanned,
        )
    }
}

struct Search<'e> {
    engine: &'e mut Engine,
    k: usize,
    use_jle: bool,
    best_posterior: f64,
    best_hypothesis: Vec<CompIdx>,
    scanned: u64,
    budget: u64,
}

impl Search<'_> {
    /// Recursive exploration; hypotheses are built in index-increasing
    /// order so each set is visited once. `posterior` is the normalized
    /// log-likelihood plus prior log-odds of the current hypothesis.
    fn explore(&mut self, start: CompIdx, posterior: f64) {
        let depth = self.engine.hypothesis().len();
        if depth >= self.k || self.scanned >= self.budget {
            return;
        }
        let n = self.engine.n_comps() as CompIdx;

        if self.use_jle && depth + 1 == self.k {
            // Deepest level: one Δ-array scan evaluates all siblings.
            for c in start..n {
                let cand =
                    posterior + self.engine.delta()[c as usize] + self.engine.prior_logodds(c);
                self.scanned += 1;
                if cand > self.best_posterior {
                    self.best_posterior = cand;
                    let mut h = self.engine.hypothesis().to_vec();
                    h.push(c);
                    self.best_hypothesis = h;
                }
            }
            return;
        }

        for c in start..n {
            if self.scanned >= self.budget {
                return;
            }
            self.scanned += 1;
            let dll = if self.use_jle {
                self.engine.flip(c)
            } else {
                self.engine.flip_ll_only(c)
            };
            let cand = posterior + dll + self.engine.prior_logodds(c);
            if cand > self.best_posterior {
                self.best_posterior = cand;
                self.best_hypothesis = self.engine.hypothesis().to_vec();
            }
            self.explore(c + 1, cand);
            // Undo (prior sign handled by recomputing from `posterior`).
            if self.use_jle {
                self.engine.flip(c);
            } else {
                self.engine.flip_ll_only(c);
            }
        }
    }
}

impl Localizer for SherlockFerret {
    fn name(&self) -> String {
        if self.use_jle {
            format!("Sherlock+JLE (K={})", self.max_failures)
        } else {
            format!("Sherlock (K={})", self.max_failures)
        }
    }

    fn localize(&self, topo: &Topology, obs: &ObservationSet) -> LocalizationResult {
        let start = Instant::now();
        let mut engine = Engine::new(topo, obs, self.params);
        let (best, posterior, scanned) = self.search(&mut engine);
        let predicted: Vec<_> = best.iter().map(|c| engine.component(*c)).collect();
        LocalizationResult {
            scores: vec![posterior; predicted.len()],
            predicted,
            log_likelihood: posterior,
            hypotheses_scanned: scanned,
            iterations: 1,
            runtime: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::FlockGreedy;
    use flock_telemetry::input::{assemble, AnalysisMode, InputKind};
    use flock_telemetry::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
    use flock_topology::clos::{leaf_spine, LeafSpineParams};
    use flock_topology::{Component, Router, Topology};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn small_topo() -> Topology {
        leaf_spine(LeafSpineParams {
            spines: 3,
            leaves: 3,
            hosts_per_leaf: 2,
        })
    }

    /// Pick `k` fabric links with pairwise-disjoint endpoint devices
    /// (several failures on one device make the MLE correctly prefer the
    /// device hypothesis — a different regime than this test targets).
    fn disjoint_links(topo: &Topology, k: usize, rng: &mut StdRng) -> Vec<flock_topology::LinkId> {
        let fabric = topo.fabric_links();
        let mut bad: Vec<flock_topology::LinkId> = Vec::new();
        let mut guard = 0;
        while bad.len() < k && guard < 10_000 {
            guard += 1;
            let l = fabric[rng.random_range(0..fabric.len())];
            let lk = topo.link(l);
            let ok = bad.iter().all(|&b| {
                let bl = topo.link(b);
                lk.src != bl.src && lk.src != bl.dst && lk.dst != bl.src && lk.dst != bl.dst
            });
            if ok {
                bad.push(l);
            }
        }
        bad
    }

    fn telemetry(
        topo: &Topology,
        bad_links: &[flock_topology::LinkId],
        n_flows: usize,
        seed: u64,
        drop_per_cross: u64,
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
            let crossings = tp.iter().filter(|l| bad_links.contains(l)).count() as u64;
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, (i % 60000) as u16, 80),
                stats: FlowStats {
                    packets: 1000,
                    retransmissions: crossings * drop_per_cross,
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
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        )
    }

    #[test]
    fn plain_and_jle_find_identical_optimum() {
        let topo = small_topo();
        let mut rng = StdRng::seed_from_u64(77);
        let bad = disjoint_links(&topo, 2, &mut rng);
        let obs = telemetry(&topo, &bad, 500, 21, 5);
        let plain = SherlockFerret::new(HyperParams::default(), 2).localize(&topo, &obs);
        let jle = SherlockFerret::with_jle(HyperParams::default(), 2).localize(&topo, &obs);
        let mut p = plain.predicted.clone();
        let mut j = jle.predicted.clone();
        p.sort();
        j.sort();
        assert_eq!(p, j);
        assert!((plain.log_likelihood - jle.log_likelihood).abs() < 1e-7);
        let mut want: Vec<Component> = bad.iter().map(|l| Component::Link(*l)).collect();
        want.sort();
        assert_eq!(p, want, "exhaustive K=2 must find both failed links");
    }

    #[test]
    fn greedy_matches_exhaustive_mle() {
        // The §4.2 claim, verified empirically: greedy returns the same
        // hypothesis as exhaustive search when failures are separable.
        let topo = small_topo();
        let fabric = topo.fabric_links();
        let _ = &fabric;
        for seed in 30..36u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.random_range(1..=2usize);
            let bad = disjoint_links(&topo, k, &mut rng);
            let obs = telemetry(&topo, &bad, 600, seed * 7 + 1, 6);
            let exhaustive =
                SherlockFerret::with_jle(HyperParams::default(), 2).localize(&topo, &obs);
            let greedy = FlockGreedy::default().localize(&topo, &obs);
            let mut e = exhaustive.predicted.clone();
            let mut g = greedy.predicted.clone();
            e.sort();
            g.sort();
            assert_eq!(e, g, "seed {seed}: greedy diverged from exhaustive MLE");
        }
    }

    #[test]
    fn k1_cannot_catch_two_failures_but_greedy_can() {
        let topo = small_topo();
        let mut rng = StdRng::seed_from_u64(88);
        let bad = disjoint_links(&topo, 2, &mut rng);
        let obs = telemetry(&topo, &bad, 800, 40, 6);
        let k1 = SherlockFerret::with_jle(HyperParams::default(), 1).localize(&topo, &obs);
        assert_eq!(k1.predicted.len(), 1, "K=1 is capped at one failure");
        let greedy = FlockGreedy::default().localize(&topo, &obs);
        assert_eq!(greedy.predicted.len(), 2, "greedy has no failure cap");
    }

    /// Exact ties break toward the smallest component id in Sherlock as in
    /// greedy. One traced path from the last leaf to the first: the two
    /// host links and the two fabric links on it take the same Δ (the
    /// devices pay a larger prior), and the link the engine meets first,
    /// the last leaf's uplink, has a larger `LinkId` than the spine's
    /// downlink to the first leaf.
    #[test]
    fn exact_ties_break_like_greedy() {
        let topo = small_topo();
        let router = Router::new(&topo);
        let (s, d) = (*topo.hosts().last().unwrap(), topo.hosts()[0]);
        let fabric = router.paths(topo.host_leaf(s), topo.host_leaf(d))[0].to_vec();
        assert!(
            fabric[0] > fabric[1],
            "the first-touched link has the larger id"
        );
        let mut true_path = vec![topo.host_uplink(s)];
        true_path.extend_from_slice(&fabric);
        true_path.push(topo.host_downlink(d));
        let flow = MonitoredFlow {
            key: FlowKey::tcp(s, d, 1, 80),
            stats: FlowStats {
                packets: 1000,
                retransmissions: 100,
                bytes: 0,
                rtt_sum_us: 0,
                rtt_count: 0,
                rtt_max_us: 0,
            },
            class: TrafficClass::Passive,
            true_path,
        };
        let obs = assemble(
            &topo,
            &router,
            &[flow],
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        let params = HyperParams::default();
        let mut engine = Engine::new(&topo, &obs, params);
        let (sherlock, _, _) = SherlockFerret::with_jle(params, 1).search(&mut engine);
        let (greedy, _) = FlockGreedy::new(params).search(&mut engine);
        let greedy: Vec<CompIdx> = greedy.iter().map(|&(c, _)| c).collect();
        assert_eq!(sherlock, greedy);
        assert_eq!(engine.component(sherlock[0]), Component::Link(fabric[1]));
    }

    #[test]
    fn hypotheses_scanned_grows_with_k() {
        let topo = small_topo();
        let obs = telemetry(&topo, &[topo.fabric_links()[0]], 200, 50, 5);
        let s1 = SherlockFerret::new(HyperParams::default(), 1).localize(&topo, &obs);
        let s2 = SherlockFerret::new(HyperParams::default(), 2).localize(&topo, &obs);
        assert!(s2.hypotheses_scanned > s1.hypotheses_scanned * 10);
    }
}
