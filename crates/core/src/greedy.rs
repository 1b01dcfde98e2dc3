//! Flock's greedy MLE search (§3.3, Algorithms 1–2).
//!
//! Starting from the no-failure hypothesis, each iteration adds the
//! component with the largest log-likelihood gain (including the prior
//! penalty `ln(ρ/(1-ρ))`, which makes the stopping rule "no component
//! improves the posterior" rather than requiring a failure-count bound).
//!
//! With JLE ([`Engine::flip`]) an iteration costs one Δ-array scan plus an
//! `O(D·T)` update; without it ([`FlockGreedy::without_jle`]) every
//! candidate is re-evaluated from state via
//! [`Engine::delta_single`] — the `O(n)`-slower configuration measured in
//! the Fig. 4c ablation. Both configurations pick identical components.

use crate::engine::Engine;
use crate::localizer::{LocalizationResult, Localizer};
use crate::params::HyperParams;
use crate::space::CompIdx;
use flock_telemetry::ObservationSet;
use flock_topology::Topology;
use std::time::Instant;

/// Flock's greedy inference.
#[derive(Debug, Clone)]
pub struct FlockGreedy {
    /// Model hyperparameters.
    pub params: HyperParams,
    /// Use the JLE Δ-array maintenance (`true` for Flock proper; `false`
    /// is the "greedy only" ablation of Fig. 4c).
    pub use_jle: bool,
}

/// Safety bound on greedy iterations (the prior normally stops the search
/// long before this).
const MAX_ITERATIONS: usize = 256;

impl Default for FlockGreedy {
    fn default() -> Self {
        FlockGreedy {
            params: HyperParams::default(),
            use_jle: true,
        }
    }
}

/// Result of [`FlockGreedy::search_warm_deadline`].
#[derive(Debug, Clone)]
pub struct BudgetedSearch {
    /// Final hypothesis ordered by confidence (see
    /// [`FlockGreedy::search_warm`]).
    pub picked: Vec<(CompIdx, f64)>,
    /// Hypotheses-scanned counter.
    pub scanned: u64,
    /// The deadline fired before the search reached a local optimum;
    /// `picked` is a partial result.
    pub timed_out: bool,
}

impl FlockGreedy {
    /// Flock with the given hyperparameters.
    pub fn new(params: HyperParams) -> Self {
        FlockGreedy {
            params,
            ..Default::default()
        }
    }

    /// The "greedy only" ablation: identical output, no JLE acceleration.
    pub fn without_jle(params: HyperParams) -> Self {
        FlockGreedy {
            params,
            use_jle: false,
        }
    }

    /// Warm-start search: seed the engine's hypothesis with `warm` (a
    /// previous epoch's verdict), then greedily apply the best
    /// **add-or-remove** move until no move improves the posterior.
    ///
    /// Unlike [`FlockGreedy::search`], removals are legal moves: a seeded
    /// component whose evidence disappeared (a healed fault, or a stale
    /// guess) is dropped by the search rather than lingering. Every move
    /// strictly increases the posterior, which is bounded, so the search
    /// cannot oscillate. With an empty seed on fresh evidence the result
    /// coincides with cold-start greedy whenever cold greedy's result is
    /// a local optimum of the add/remove neighborhood.
    ///
    /// Returns the final hypothesis ordered by confidence — for each kept
    /// component, the posterior loss its removal would cause — plus the
    /// hypotheses-scanned count.
    pub fn search_warm(&self, engine: &mut Engine, warm: &[CompIdx]) -> (Vec<(CompIdx, f64)>, u64) {
        let out = self.search_warm_deadline(engine, warm, None);
        (out.picked, out.scanned)
    }

    /// [`search_warm`](Self::search_warm) under a cooperative deadline:
    /// the deadline is checked once per greedy iteration (each a full
    /// Δ-array scan) and, when exceeded, the search stops and returns the
    /// hypothesis built so far with `timed_out` set.
    ///
    /// The partial result is well-formed — every applied move strictly
    /// improved the posterior — but it is not necessarily a local
    /// optimum, so per-component confidences can be negative. Callers
    /// surface `timed_out` as a degraded-verdict reason rather than
    /// treating the output as authoritative.
    pub fn search_warm_deadline(
        &self,
        engine: &mut Engine,
        warm: &[CompIdx],
        deadline: Option<Instant>,
    ) -> BudgetedSearch {
        let n = engine.n_comps() as u64;
        let mut scanned = n; // initial Δ computation evaluates n neighbors
        let mut timed_out = false;
        for &c in warm {
            if !engine.in_hypothesis(c) {
                if self.use_jle {
                    engine.flip(c);
                } else {
                    engine.flip_ll_only(c);
                }
            }
        }
        for _ in 0..MAX_ITERATIONS {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                timed_out = true;
                break;
            }
            let best = if self.use_jle {
                engine.argmax_move()
            } else {
                argmax_move_no_jle(engine)
            };
            scanned += n;
            let Some((c, gain)) = best else { break };
            if gain <= 0.0 {
                break;
            }
            if self.use_jle {
                engine.flip(c);
            } else {
                engine.flip_ll_only(c);
            }
        }
        // Confidence of each kept component: the posterior cost of
        // removing it (non-negative at a local optimum).
        let mut picked: Vec<(CompIdx, f64)> = engine
            .hypothesis()
            .to_vec()
            .into_iter()
            .map(|c| {
                let removal_gain = if self.use_jle {
                    engine.delta()[c as usize] - engine.prior_logodds(c)
                } else {
                    engine.delta_single(c) - engine.prior_logodds(c)
                };
                (c, -removal_gain)
            })
            .collect();
        // Ties ordered by component id. `total_cmp`, like the pipeline's
        // merge of these lists: a confidence can be NaN (non-finite
        // scores are stored unchanged by design), and ordering one must
        // not panic the shard thread.
        picked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        BudgetedSearch {
            picked,
            scanned,
            timed_out,
        }
    }

    /// Run the greedy search on an already-built engine; returns the
    /// selected components with their gains, plus the hypotheses-scanned
    /// count. Exposed so callers holding an engine (calibration sweeps)
    /// can avoid rebuilding it.
    pub fn search(&self, engine: &mut Engine) -> (Vec<(CompIdx, f64)>, u64) {
        let n = engine.n_comps() as u64;
        let mut picked: Vec<(CompIdx, f64)> = Vec::new();
        let mut scanned = n; // initial Δ computation evaluates n neighbors
        for _ in 0..MAX_ITERATIONS {
            let best = if self.use_jle {
                engine.argmax_addable()
            } else {
                argmax_addable_no_jle(engine)
            };
            scanned += n - picked.len() as u64;
            let Some((c, gain)) = best else { break };
            if gain <= 0.0 {
                break;
            }
            if self.use_jle {
                engine.flip(c);
            } else {
                engine.flip_ll_only(c);
            }
            picked.push((c, gain));
        }
        (picked, scanned)
    }
}

/// Same move selection evaluated per candidate from state (no Δ array).
/// Candidates go in id order and only a strictly larger gain replaces
/// the best, so exact ties (observationally equivalent components,
/// Fig. 5c) break toward the smallest id, as in [`Engine::argmax_move`].
fn argmax_move_no_jle(engine: &Engine) -> Option<(CompIdx, f64)> {
    let mut best: Option<(CompIdx, f64)> = None;
    for c in 0..engine.n_comps() as CompIdx {
        let gain = if engine.in_hypothesis(c) {
            engine.delta_single(c) - engine.prior_logodds(c)
        } else {
            engine.delta_single(c) + engine.prior_logodds(c)
        };
        if best.is_none_or(|(_, b)| gain > b) {
            best = Some((c, gain));
        }
    }
    best
}

/// Same selection evaluated per candidate from state (no Δ array), with
/// the same tie-break.
fn argmax_addable_no_jle(engine: &Engine) -> Option<(CompIdx, f64)> {
    let mut best: Option<(CompIdx, f64)> = None;
    for c in 0..engine.n_comps() as CompIdx {
        if engine.in_hypothesis(c) {
            continue;
        }
        let gain = engine.delta_single(c) + engine.prior_logodds(c);
        if best.is_none_or(|(_, b)| gain > b) {
            best = Some((c, gain));
        }
    }
    best
}

impl Localizer for FlockGreedy {
    fn name(&self) -> String {
        if self.use_jle {
            "Flock".to_string()
        } else {
            "Flock (greedy only)".to_string()
        }
    }

    fn localize(&self, topo: &Topology, obs: &ObservationSet) -> LocalizationResult {
        let start = Instant::now();
        let mut engine = Engine::new(topo, obs, self.params);
        let (picked, scanned) = self.search(&mut engine);
        let predicted = picked.iter().map(|(c, _)| engine.component(*c)).collect();
        let scores = picked.iter().map(|(_, g)| *g).collect();
        LocalizationResult {
            predicted,
            scores,
            log_likelihood: engine.log_likelihood(),
            hypotheses_scanned: scanned,
            iterations: picked.len() as u64,
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
    use flock_topology::{Component, Router, Topology};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Telemetry where flows crossing `bad_links` lose ~3% of packets and
    /// everything else is clean.
    fn telemetry_with_failures(
        topo: &Topology,
        bad_links: &[flock_topology::LinkId],
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
            let sent = 1000u64;
            let crossings = tp.iter().filter(|l| bad_links.contains(l)).count() as u64;
            let bad = crossings * 6; // ~3% per failed link crossed
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, (i % 60000) as u16, 80),
                stats: FlowStats {
                    packets: sent,
                    retransmissions: bad,
                    bytes: sent * 1500,
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
    fn recovers_single_failed_link() {
        let topo = three_tier(ClosParams::tiny());
        let bad = topo.fabric_links()[7];
        let obs = telemetry_with_failures(&topo, &[bad], 400, 11);
        let result = FlockGreedy::default().localize(&topo, &obs);
        assert_eq!(result.predicted, vec![Component::Link(bad)]);
        assert!(result.log_likelihood > 0.0);
        assert!(result.hypotheses_scanned > 0);
    }

    #[test]
    fn recovers_multiple_failed_links() {
        // Three pods break serial-link equivalence; failures on disjoint
        // devices keep the MLE from (correctly) preferring a device
        // hypothesis over several same-device link failures.
        let topo = three_tier(ClosParams {
            pods: 3,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        });
        let fabric = topo.fabric_links();
        let mut bad: Vec<flock_topology::LinkId> = Vec::new();
        for &l in &fabric {
            let lk = topo.link(l);
            let disjoint = bad.iter().all(|&b| {
                let bl = topo.link(b);
                lk.src != bl.src && lk.src != bl.dst && lk.dst != bl.src && lk.dst != bl.dst
            });
            if disjoint {
                bad.push(l);
                if bad.len() == 3 {
                    break;
                }
            }
        }
        assert_eq!(bad.len(), 3);
        let obs = telemetry_with_failures(&topo, &bad, 1200, 12);
        let result = FlockGreedy::default().localize(&topo, &obs);
        let mut got = result.predicted_links();
        got.sort_unstable();
        let mut want = bad.clone();
        want.sort_unstable();
        assert_eq!(got, want, "greedy must recover all three failed links");
    }

    #[test]
    fn clean_network_returns_empty() {
        let topo = three_tier(ClosParams::tiny());
        let obs = telemetry_with_failures(&topo, &[], 400, 13);
        let result = FlockGreedy::default().localize(&topo, &obs);
        assert!(
            result.predicted.is_empty(),
            "no failures → empty hypothesis, got {:?}",
            result.predicted
        );
    }

    #[test]
    fn jle_and_no_jle_agree_exactly() {
        let topo = three_tier(ClosParams::tiny());
        let fabric = topo.fabric_links();
        let bad = vec![fabric[4], fabric[17]];
        let obs = telemetry_with_failures(&topo, &bad, 800, 14);
        let with = FlockGreedy::default().localize(&topo, &obs);
        let without = FlockGreedy::without_jle(HyperParams::default()).localize(&topo, &obs);
        assert_eq!(with.predicted, without.predicted);
        assert!((with.log_likelihood - without.log_likelihood).abs() < 1e-7);
    }

    #[test]
    fn warm_search_from_correct_seed_matches_cold() {
        let topo = three_tier(ClosParams::tiny());
        let fabric = topo.fabric_links();
        let bad = vec![fabric[4], fabric[17]];
        let obs = telemetry_with_failures(&topo, &bad, 800, 21);
        let flock = FlockGreedy::default();

        let mut cold_engine = Engine::new(&topo, &obs, flock.params);
        let (cold, _) = flock.search(&mut cold_engine);
        let mut cold_set: Vec<_> = cold.iter().map(|(c, _)| *c).collect();
        cold_set.sort_unstable();

        // Seed with the (correct) cold answer: warm search keeps it.
        let mut warm_engine = Engine::new(&topo, &obs, flock.params);
        let (warm, _) = flock.search_warm(&mut warm_engine, &cold_set);
        let mut warm_set: Vec<_> = warm.iter().map(|(c, _)| *c).collect();
        warm_set.sort_unstable();
        assert_eq!(warm_set, cold_set);
        assert!(
            warm.iter().all(|&(_, conf)| conf >= 0.0),
            "confidences are non-negative at a local optimum: {warm:?}"
        );
        assert!(
            (warm_engine.log_likelihood() - cold_engine.log_likelihood()).abs() < 1e-7,
            "same optimum reached"
        );
    }

    #[test]
    fn warm_search_drops_healed_component() {
        let topo = three_tier(ClosParams::tiny());
        let fabric = topo.fabric_links();
        let still_bad = fabric[4];
        let healed = fabric[17];
        // Evidence only implicates `still_bad` now.
        let obs = telemetry_with_failures(&topo, &[still_bad], 800, 22);
        let flock = FlockGreedy::default();
        let mut engine = Engine::new(&topo, &obs, flock.params);
        let seed = [still_bad, healed].map(|l| engine.space().link_comp(l));
        let (picked, _) = flock.search_warm(&mut engine, &seed);
        let comps: Vec<Component> = picked.iter().map(|(c, _)| engine.component(*c)).collect();
        assert_eq!(
            comps,
            vec![Component::Link(still_bad)],
            "the healed link must be dropped, the active one kept"
        );
    }

    #[test]
    fn warm_search_from_empty_seed_matches_cold() {
        let topo = three_tier(ClosParams::tiny());
        let bad = topo.fabric_links()[7];
        let obs = telemetry_with_failures(&topo, &[bad], 400, 23);
        let flock = FlockGreedy::default();
        let mut e1 = Engine::new(&topo, &obs, flock.params);
        let (cold, _) = flock.search(&mut e1);
        let mut e2 = Engine::new(&topo, &obs, flock.params);
        let (warm, _) = flock.search_warm(&mut e2, &[]);
        let mut a: Vec<_> = cold.iter().map(|(c, _)| *c).collect();
        let mut b: Vec<_> = warm.iter().map(|(c, _)| *c).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn deadline_truncates_search_and_flags_timeout() {
        let topo = three_tier(ClosParams::tiny());
        let fabric = topo.fabric_links();
        let bad = vec![fabric[4], fabric[17]];
        let obs = telemetry_with_failures(&topo, &bad, 800, 31);
        let flock = FlockGreedy::default();

        // Already-expired deadline: zero iterations run, the (empty) seed
        // is returned as-is, and the timeout is flagged.
        let mut e1 = Engine::new(&topo, &obs, flock.params);
        let out = flock.search_warm_deadline(&mut e1, &[], Some(Instant::now()));
        assert!(out.timed_out);
        assert!(out.picked.is_empty(), "no move was made");

        // A generous deadline changes nothing vs the unbudgeted search.
        let mut e2 = Engine::new(&topo, &obs, flock.params);
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let budgeted = flock.search_warm_deadline(&mut e2, &[], Some(far));
        assert!(!budgeted.timed_out);
        let mut e3 = Engine::new(&topo, &obs, flock.params);
        let (unbudgeted, _) = flock.search_warm(&mut e3, &[]);
        assert_eq!(budgeted.picked, unbudgeted);
    }

    /// A parameter set `validate` accepts can still overflow the score
    /// (`p_b / p_g = inf`, and a clean flow's `0 · inf` is NaN); the
    /// table stores such scores unchanged, the argmax stops on them, and
    /// the seeds come back with NaN confidences — ordered, not panicked
    /// over.
    #[test]
    fn nan_confidences_are_ordered_not_panicked_over() {
        let topo = three_tier(ClosParams::tiny());
        let obs = telemetry_with_failures(&topo, &[], 50, 41);
        let params = HyperParams {
            p_g: f64::from_bits(1),
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &obs, params);
        let out = FlockGreedy::new(params).search_warm_deadline(&mut engine, &[2, 0, 1], None);
        assert_eq!(out.picked.len(), 3);
        assert!(out.picked.iter().all(|(_, conf)| conf.is_nan()));
        assert!(
            out.picked.is_sorted_by_key(|&(c, _)| c),
            "equal (NaN) confidences fall back to id order"
        );
    }

    #[test]
    fn per_flow_mode_locates_latency_fault() {
        // Flows crossing one link have RTT above threshold; per-flow
        // analysis must localize it (the §7.5 link-flap pipeline).
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let flapped = topo.fabric_links()[9];
        let mut rng = StdRng::seed_from_u64(15);
        let mut flows = Vec::new();
        for i in 0..600usize {
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
            let rtt = if tp.contains(&flapped) { 50_000 } else { 400 };
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, (i % 60000) as u16, 80),
                stats: FlowStats {
                    packets: 50,
                    retransmissions: 0,
                    bytes: 75_000,
                    rtt_sum_us: rtt as u64,
                    rtt_count: 1,
                    rtt_max_us: rtt,
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
            AnalysisMode::PerFlow {
                rtt_threshold_us: 10_000,
            },
        );
        let result = FlockGreedy::default().localize(&topo, &obs);
        assert_eq!(result.predicted, vec![Component::Link(flapped)]);
    }
}
