//! NetBouncer's regularized drop-rate solver (Figure 5 of \[54\]).
//!
//! NetBouncer models the success probability of a known path as the
//! product of per-link success probabilities `x_l` and fits them to the
//! observed per-path success rates `y_p` by minimizing
//!
//! ```text
//! J(x) = Σ_p n_p (y_p − Π_{l∈p} x_l)² + λ Σ_l x_l (1 − x_l)
//! ```
//!
//! by coordinate descent: with every other coordinate held fixed the
//! objective is a quadratic in `x_l` with the closed-form minimizer
//!
//! ```text
//! x_l = (2 Σ_p n_p c_p y_p − λ) / (2 Σ_p n_p c_p² − 2λ),
//! c_p = Π_{l'∈p, l'≠l} x_l'
//! ```
//!
//! clamped to `[0, 1]`. The regularizer pushes ambiguous links towards
//! {0, 1} instead of smearing loss across a path. Following the original
//! system, links that appear only on fully-successful paths are pinned
//! good before the descent.
//!
//! Detection: a link is blamed when its estimated drop rate `1 − x_l`
//! exceeds `link_threshold`; a device is blamed when the number of
//! problematic (≥ 1 bad packet) known-path flows crossing it reaches
//! `device_flow_threshold` *and* a majority of its observed links are
//! estimated lossy (the Flock paper calibrates the former for the device
//! experiment, §7.2). NetBouncer requires known paths (A1 probes or INT)
//! and ignores path-uncertain observations.

use flock_core::{LocalizationResult, Localizer};
use flock_telemetry::ObservationSet;
use flock_topology::{Component, LinkId, NodeId, Topology};
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

/// The NetBouncer baseline.
#[derive(Debug, Clone, Serialize)]
pub struct NetBouncer {
    /// Regularization weight λ.
    pub lambda: f64,
    /// Estimated drop rate above which a link is blamed.
    pub link_threshold: f64,
    /// Problematic-flow count at which a device is blamed.
    pub device_flow_threshold: u64,
    /// Coordinate-descent sweeps.
    pub max_sweeps: usize,
    /// Convergence tolerance on the largest coordinate move.
    pub tolerance: f64,
}

impl Default for NetBouncer {
    fn default() -> Self {
        NetBouncer {
            lambda: 10.0,
            link_threshold: 5e-4,
            device_flow_threshold: u64::MAX, // device detection off unless calibrated
            max_sweeps: 50,
            tolerance: 1e-9,
        }
    }
}

impl NetBouncer {
    /// NetBouncer with the given λ and link threshold.
    pub fn new(lambda: f64, link_threshold: f64) -> Self {
        NetBouncer {
            lambda,
            link_threshold,
            ..Default::default()
        }
    }

    /// Fit per-link success probabilities to the known-path observations.
    /// Returns `(x, iterations)` where `x[l]` is the estimated success
    /// probability of link `l` (1.0 for unobserved links).
    pub fn solve(&self, topo: &Topology, obs: &ObservationSet) -> (Vec<f64>, u64) {
        // Aggregate known-path observations per exact path.
        let mut paths: HashMap<Vec<LinkId>, (f64, f64)> = HashMap::new(); // path -> (sent, bad)
        for o in &obs.flows {
            if !o.path_known(&obs.arena) {
                continue;
            }
            let pid = obs.arena.set(o.set)[0];
            let links: Vec<LinkId> = obs.full_path_links(o, pid).collect();
            if links.is_empty() {
                continue;
            }
            let e = paths.entry(links).or_insert((0.0, 0.0));
            e.0 += (o.sent * u64::from(o.weight)) as f64;
            e.1 += (o.bad * u64::from(o.weight)) as f64;
        }
        let mut path_list: Vec<(Vec<LinkId>, f64, f64)> = paths
            .into_iter()
            .map(|(links, (sent, bad))| (links, sent, 1.0 - bad / sent))
            .collect();
        path_list.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic order

        // Link universe and per-link path index.
        let mut link_paths: HashMap<LinkId, Vec<u32>> = HashMap::new();
        for (pi, (links, ..)) in path_list.iter().enumerate() {
            for l in links {
                link_paths.entry(*l).or_default().push(pi as u32);
            }
        }

        let mut x = vec![1.0f64; topo.link_count()];
        // Pin links appearing only on fully-successful paths as good.
        let mut free: Vec<LinkId> = Vec::new();
        for (l, pids) in &link_paths {
            let all_clean = pids.iter().all(|&p| path_list[p as usize].2 >= 1.0);
            if !all_clean {
                free.push(*l);
            }
        }
        free.sort_unstable();

        let mut iterations = 0u64;
        for _sweep in 0..self.max_sweeps {
            let mut max_move = 0.0f64;
            for &l in &free {
                iterations += 1;
                let mut num = 0.0;
                let mut den = 0.0;
                for &pi in &link_paths[&l] {
                    let (links, n_p, y_p) = &path_list[pi as usize];
                    let mut c = 1.0;
                    for l2 in links {
                        if *l2 != l {
                            c *= x[l2.idx()];
                        }
                    }
                    num += n_p * c * y_p;
                    den += n_p * c * c;
                }
                let new_x =
                    ((2.0 * num - self.lambda) / (2.0 * den - 2.0 * self.lambda)).clamp(0.0, 1.0);
                max_move = max_move.max((new_x - x[l.idx()]).abs());
                x[l.idx()] = new_x;
            }
            if max_move < self.tolerance {
                break;
            }
        }
        (x, iterations)
    }
}

impl Localizer for NetBouncer {
    fn name(&self) -> String {
        "NetBouncer".into()
    }

    fn localize(&self, topo: &Topology, obs: &ObservationSet) -> LocalizationResult {
        let start = Instant::now();
        let (x, iterations) = self.solve(topo, obs);

        // Problematic-flow counts per device (for device detection) and
        // per-device observed link sets.
        let mut dev_bad_flows: HashMap<NodeId, u64> = HashMap::new();
        let mut dev_links: HashMap<NodeId, Vec<LinkId>> = HashMap::new();
        for o in &obs.flows {
            if !o.path_known(&obs.arena) {
                continue;
            }
            let pid = obs.arena.set(o.set)[0];
            for l in obs.full_path_links(o, pid) {
                let link = topo.link(l);
                for end in [link.src, link.dst] {
                    if topo.node(end).role.is_switch() {
                        let e = dev_links.entry(end).or_default();
                        if !e.contains(&l) {
                            e.push(l);
                        }
                        if o.bad > 0 {
                            *dev_bad_flows.entry(end).or_insert(0) += u64::from(o.weight);
                        }
                    }
                }
            }
        }

        let mut predicted = Vec::new();
        let mut scores = Vec::new();

        // Devices first: a blamed device subsumes its links.
        let mut blamed_devices: Vec<NodeId> = Vec::new();
        let mut devs: Vec<(&NodeId, &u64)> = dev_bad_flows.iter().collect();
        devs.sort_by_key(|(d, _)| **d);
        for (dev, &badcount) in devs {
            if badcount < self.device_flow_threshold {
                continue;
            }
            let links = &dev_links[dev];
            let lossy = links
                .iter()
                .filter(|l| 1.0 - x[l.idx()] > self.link_threshold)
                .count();
            // ≥ half of the observed links lossy: round-trip probes make
            // the two directions of a cable jointly unidentifiable, and
            // the sparse regularizer blames exactly one per pair.
            if lossy * 2 >= links.len() && lossy > 0 {
                blamed_devices.push(*dev);
                predicted.push(Component::Device(*dev));
                scores.push(badcount as f64);
            }
        }

        for (i, &xi) in x.iter().enumerate() {
            let drop = 1.0 - xi;
            if drop > self.link_threshold {
                let l = LinkId(i as u32);
                let link = topo.link(l);
                if blamed_devices.contains(&link.src) || blamed_devices.contains(&link.dst) {
                    continue; // covered by the device verdict
                }
                predicted.push(Component::Link(l));
                scores.push(drop);
            }
        }

        LocalizationResult {
            predicted,
            scores,
            log_likelihood: 0.0,
            hypotheses_scanned: iterations,
            iterations,
            runtime: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_telemetry::input::{assemble, AnalysisMode, InputKind};
    use flock_telemetry::{plan_a1_probes, FlowStats, MonitoredFlow, TrafficClass};
    use flock_topology::clos::{three_tier, ClosParams};
    use flock_topology::Router;

    /// Deterministic probe telemetry: every probe loses
    /// `round(packets * drop_rate_of_path)` packets.
    fn probe_obs(
        topo: &flock_topology::Topology,
        drop_rate: &[f64],
        packets: u64,
    ) -> ObservationSet {
        let router = Router::new(topo);
        let specs = plan_a1_probes(topo, &router, packets, None);
        let mut flows = Vec::new();
        for spec in specs {
            let mut survive = packets as f64;
            for l in &spec.round_trip_path {
                survive *= 1.0 - drop_rate[l.idx()];
            }
            let bad = (packets as f64 - survive).round() as u64;
            flows.push(MonitoredFlow {
                key: spec.key,
                stats: FlowStats {
                    packets,
                    retransmissions: bad,
                    bytes: 0,
                    rtt_sum_us: 0,
                    rtt_count: 0,
                    rtt_max_us: 0,
                },
                class: TrafficClass::Probe,
                true_path: spec.round_trip_path,
            });
        }
        assemble(
            topo,
            &router,
            &flows,
            &[InputKind::A1],
            AnalysisMode::PerPacket,
        )
    }

    #[test]
    fn recovers_single_lossy_link() {
        let topo = three_tier(ClosParams::tiny());
        let mut drops = vec![0.0; topo.link_count()];
        let bad = topo.fabric_links()[6];
        drops[bad.idx()] = 0.05;
        let obs = probe_obs(&topo, &drops, 2000);
        let nb = NetBouncer::new(0.5, 0.01);
        let result = nb.localize(&topo, &obs);
        assert!(
            result.predicted.contains(&Component::Link(bad)),
            "NetBouncer must flag the 5% link, got {:?}",
            result.predicted
        );
        assert!(result.predicted.len() <= 2, "no vote smearing expected");
    }

    #[test]
    fn estimates_drop_rate_accurately() {
        let topo = three_tier(ClosParams::tiny());
        let mut drops = vec![0.0; topo.link_count()];
        let bad = topo.fabric_links()[2];
        drops[bad.idx()] = 0.04;
        let obs = probe_obs(&topo, &drops, 5000);
        let nb = NetBouncer::new(0.1, 0.01);
        let (x, _) = nb.solve(&topo, &obs);
        let est = 1.0 - x[bad.idx()];
        assert!(
            (est - 0.04).abs() < 0.01,
            "estimated drop {est} should be ≈ 0.04"
        );
        // Other links stay near zero drop.
        for (i, xi) in x.iter().enumerate() {
            if i != bad.idx() {
                assert!(1.0 - xi < 0.005, "link {i} misestimated: {}", 1.0 - xi);
            }
        }
    }

    #[test]
    fn clean_network_blames_nothing() {
        let topo = three_tier(ClosParams::tiny());
        let drops = vec![0.0; topo.link_count()];
        let obs = probe_obs(&topo, &drops, 500);
        let result = NetBouncer::new(1.0, 0.001).localize(&topo, &obs);
        assert!(result.predicted.is_empty());
    }

    #[test]
    fn two_concurrent_failures_with_different_rates() {
        let topo = three_tier(ClosParams::tiny());
        let mut drops = vec![0.0; topo.link_count()];
        let fabric = topo.fabric_links();
        // Disjoint-device pair.
        let (b1, mut b2) = (fabric[0], fabric[1]);
        for &cand in &fabric {
            let l1 = topo.link(b1);
            let lc = topo.link(cand);
            if lc.src != l1.src && lc.src != l1.dst && lc.dst != l1.src && lc.dst != l1.dst {
                b2 = cand;
                break;
            }
        }
        drops[b1.idx()] = 0.05;
        drops[b2.idx()] = 0.01;
        let obs = probe_obs(&topo, &drops, 5000);
        let result = NetBouncer::new(0.5, 0.005).localize(&topo, &obs);
        assert!(result.predicted.contains(&Component::Link(b1)));
        assert!(result.predicted.contains(&Component::Link(b2)));
    }

    #[test]
    fn device_detection_uses_flow_threshold() {
        let topo = three_tier(ClosParams::tiny());
        let mut drops = vec![0.0; topo.link_count()];
        let dev = topo.switches()[0];
        for l in topo.links_of_node(dev) {
            drops[l.idx()] = 0.05;
        }
        let obs = probe_obs(&topo, &drops, 2000);
        let mut nb = NetBouncer::new(0.5, 0.01);
        nb.device_flow_threshold = 5;
        let result = nb.localize(&topo, &obs);
        assert!(
            result.predicted.contains(&Component::Device(dev)),
            "whole-device loss must be reported as the device, got {:?}",
            result.predicted
        );
        // The device's links are subsumed, not double-reported.
        for l in topo.links_of_node(dev) {
            assert!(!result.predicted.contains(&Component::Link(l)));
        }
    }

    #[test]
    fn ignores_path_uncertain_input() {
        let topo = three_tier(ClosParams::tiny());
        let obs = ObservationSet {
            arena: flock_telemetry::PathArena::new().into(),
            flows: Vec::new(),
            mode: AnalysisMode::PerPacket,
        };
        let result = NetBouncer::default().localize(&topo, &obs);
        assert!(result.predicted.is_empty());
    }
}
