//! Traffic generation (§6.3).
//!
//! The paper's workloads draw flow sizes from a Pareto distribution (mean
//! 200 KB, shape 1.05) and use two traffic matrices: uniform random host
//! pairs, and a skewed matrix where 50% of the traffic concentrates on 5%
//! of the racks. Skew is what breaks 007-style voting (§7.3), so the
//! generator exposes it as a first-class knob, along with the ε-skew
//! measurement of Definition 3.

use crate::dist::Pareto;
use flock_topology::{NodeId, Topology};
use rand::seq::IndexedRandom;
use rand::{Rng, RngExt};
use serde::Serialize;

/// Traffic matrix shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum TrafficPattern {
    /// Source and destination hosts drawn uniformly at random.
    Uniform,
    /// `hot_traffic_fraction` of flows have their destination inside a hot
    /// set of `hot_rack_fraction` of the racks (the paper: 50% of traffic
    /// on 5% of racks).
    Skewed {
        /// Fraction of racks designated hot.
        hot_rack_fraction: f64,
        /// Fraction of flows directed at hot racks.
        hot_traffic_fraction: f64,
    },
}

impl TrafficPattern {
    /// The paper's skewed pattern: 50% of traffic to 5% of racks.
    pub fn paper_skewed() -> Self {
        TrafficPattern::Skewed {
            hot_rack_fraction: 0.05,
            hot_traffic_fraction: 0.5,
        }
    }
}

/// Traffic generation parameters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TrafficConfig {
    /// Traffic matrix shape.
    pub pattern: TrafficPattern,
    /// Number of flows to generate.
    pub flows: usize,
    /// Mean flow size in bytes (Pareto mean; paper: 200 KB).
    pub mean_flow_bytes: f64,
    /// Pareto shape (paper: 1.05).
    pub pareto_shape: f64,
    /// Maximum segment size used to convert bytes to packets.
    pub mss_bytes: u32,
}

impl TrafficConfig {
    /// The paper's defaults with the given flow count and pattern.
    pub fn paper(flows: usize, pattern: TrafficPattern) -> Self {
        TrafficConfig {
            pattern,
            flows,
            mean_flow_bytes: 200_000.0,
            pareto_shape: 1.05,
            mss_bytes: 1500,
        }
    }
}

/// One generated flow demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FlowDemand {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Data packets to send.
    pub packets: u64,
}

/// Generate flow demands per the configuration.
pub fn generate_demands<R: Rng + ?Sized>(
    topo: &Topology,
    cfg: &TrafficConfig,
    rng: &mut R,
) -> Vec<FlowDemand> {
    let hosts = topo.hosts();
    assert!(hosts.len() >= 2, "need at least two hosts");
    let size_dist = Pareto::with_mean(cfg.mean_flow_bytes, cfg.pareto_shape);

    // Hot host set for the skewed pattern: hosts grouped by rack (= leaf).
    let hot_hosts: Vec<NodeId> = match cfg.pattern {
        TrafficPattern::Uniform => Vec::new(),
        TrafficPattern::Skewed {
            hot_rack_fraction, ..
        } => {
            let mut leaves: Vec<NodeId> = topo
                .switches()
                .iter()
                .copied()
                .filter(|s| topo.node(*s).role == flock_topology::NodeRole::Leaf)
                .collect();
            // Deterministic hot-rack choice given the rng stream.
            use rand::seq::SliceRandom;
            leaves.shuffle(rng);
            let n_hot =
                ((leaves.len() as f64 * hot_rack_fraction).ceil() as usize).clamp(1, leaves.len());
            let hot_leaves: std::collections::HashSet<NodeId> =
                leaves.into_iter().take(n_hot).collect();
            hosts
                .iter()
                .copied()
                .filter(|h| hot_leaves.contains(&topo.host_leaf(*h)))
                .collect()
        }
    };

    let mut out = Vec::with_capacity(cfg.flows);
    for _ in 0..cfg.flows {
        let src = *hosts.choose(rng).unwrap();
        let dst = match cfg.pattern {
            TrafficPattern::Uniform => pick_other(hosts, src, rng),
            TrafficPattern::Skewed {
                hot_traffic_fraction,
                ..
            } => {
                if rng.random::<f64>() < hot_traffic_fraction && !hot_hosts.is_empty() {
                    pick_other(&hot_hosts, src, rng)
                } else {
                    pick_other(hosts, src, rng)
                }
            }
        };
        let bytes = size_dist.sample(rng);
        let packets = ((bytes / cfg.mss_bytes as f64).ceil() as u64).clamp(1, 1_000_000);
        out.push(FlowDemand { src, dst, packets });
    }
    out
}

fn pick_other<R: Rng + ?Sized>(pool: &[NodeId], not: NodeId, rng: &mut R) -> NodeId {
    debug_assert!(!pool.is_empty());
    if pool.len() == 1 {
        return pool[0];
    }
    loop {
        let cand = *pool.choose(rng).unwrap();
        if cand != not {
            return cand;
        }
    }
}

/// Measure the ε-skew of traffic over links (Definition 3): the maximum
/// over link pairs `(l1, l2)` of `T({l1,l2}) / T({l1})`, where `T(S)` is
/// the number of packets crossing all links of `S`. Exact computation is
/// quadratic in path length per flow (cheap) but quadratic in link pairs
/// to aggregate, so this takes the per-flow true paths directly.
pub fn epsilon_skew(paths_and_packets: &[(Vec<flock_topology::LinkId>, u64)]) -> f64 {
    use std::collections::HashMap;
    let mut single: HashMap<u32, u64> = HashMap::new();
    let mut pair: HashMap<(u32, u32), u64> = HashMap::new();
    for (path, pkts) in paths_and_packets {
        for (i, a) in path.iter().enumerate() {
            *single.entry(a.0).or_insert(0) += pkts;
            for b in path.iter().skip(i + 1) {
                let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
                *pair.entry(key).or_insert(0) += pkts;
            }
        }
    }
    let mut eps: f64 = 0.0;
    for (&(a, b), &t2) in &pair {
        let ta = single[&a];
        let tb = single[&b];
        eps = eps.max(t2 as f64 / ta as f64);
        eps = eps.max(t2 as f64 / tb as f64);
    }
    eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::clos::{three_tier, ClosParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_demands_have_distinct_endpoints() {
        let t = three_tier(ClosParams::tiny());
        let mut rng = StdRng::seed_from_u64(1);
        let demands = generate_demands(
            &t,
            &TrafficConfig::paper(500, TrafficPattern::Uniform),
            &mut rng,
        );
        assert_eq!(demands.len(), 500);
        for d in &demands {
            assert_ne!(d.src, d.dst);
            assert!(d.packets >= 1);
        }
    }

    #[test]
    fn skewed_traffic_concentrates_on_hot_racks() {
        let t = three_tier(ClosParams::ns3_scale());
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TrafficConfig::paper(20_000, TrafficPattern::paper_skewed());
        let demands = generate_demands(&t, &cfg, &mut rng);
        // Count destination racks.
        let mut per_rack: std::collections::HashMap<NodeId, usize> = Default::default();
        for d in &demands {
            *per_rack.entry(t.host_leaf(d.dst)).or_insert(0) += 1;
        }
        let mut counts: Vec<usize> = per_rack.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let n_racks = 64; // 8 pods × 8 tors
        let hot = (n_racks as f64 * 0.05).ceil() as usize;
        let hot_share: usize = counts.iter().take(hot).sum();
        let share = hot_share as f64 / demands.len() as f64;
        assert!(
            share > 0.4,
            "top-{hot} racks get {share:.2} of traffic, expected ≈ 0.5+"
        );
    }

    #[test]
    fn flow_sizes_are_heavy_tailed() {
        let t = three_tier(ClosParams::tiny());
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TrafficConfig::paper(5_000, TrafficPattern::Uniform);
        let demands = generate_demands(&t, &cfg, &mut rng);
        let max = demands.iter().map(|d| d.packets).max().unwrap();
        let mut sorted: Vec<u64> = demands.iter().map(|d| d.packets).collect();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!(
            max > median * 20,
            "heavy tail expected: max {max}, median {median}"
        );
    }

    #[test]
    fn epsilon_skew_uniform_vs_shared() {
        use flock_topology::LinkId;
        // Two flows sharing no links: pairwise counts exist only within a
        // path; eps is driven by intra-path overlap (always 1.0 for equal
        // per-link traffic on a shared path).
        let disjoint = vec![
            (vec![LinkId(0), LinkId(1)], 100u64),
            (vec![LinkId(2), LinkId(3)], 100u64),
        ];
        assert!((epsilon_skew(&disjoint) - 1.0).abs() < 1e-9);

        // A link pair shared by only half of one link's traffic → 0.5.
        let partial = vec![
            (vec![LinkId(0), LinkId(1)], 100u64),
            (vec![LinkId(0), LinkId(2)], 100u64),
        ];
        let eps = epsilon_skew(&partial);
        assert!((eps - 1.0).abs() < 1e-9, "T(1,0)/T(1) = 1 dominates: {eps}");
    }
}
