//! Active-probe planning.
//!
//! A1 (NetBouncer-style): every host probes every spine switch over every
//! ECMP path, and the probe bounces back along the same path (the paper's
//! testbed lacked the IP-in-IP switch feature for this; our simulator
//! provides it). The round-trip path — host uplink, fabric up-path, the
//! same fabric path reversed, host downlink — is *known* to the prober, so
//! A1 observations enter inference with a pinned path and cover both
//! directions of every traversed link.
//!
//! A2 (007-style) path disclosure is not planned here: it is the input
//! assembler revealing the traced path of flagged flows (see
//! [`crate::input`]), mirroring 007's traceroute-on-anomaly agents.

use crate::flow::FlowKey;
use flock_topology::{LinkId, NodeId, NodeRole, Router, Topology};

/// One planned active probe: `packets` probe packets from `src_host`
/// bounced off `target_spine` along a pinned round-trip path.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Originating host.
    pub src_host: NodeId,
    /// Spine switch the probe bounces off.
    pub target_spine: NodeId,
    /// Flow key used for the probe stream.
    pub key: FlowKey,
    /// Full round-trip path: host uplink, fabric up-path, reversed fabric
    /// path, host downlink.
    pub round_trip_path: Vec<LinkId>,
    /// Number of probe packets to send.
    pub packets: u64,
}

/// Plan A1 probes: for every (host, spine, ECMP path) triple, one probe
/// stream of `packets_per_path` packets.
///
/// `max_specs`, when set, deterministically subsamples the plan (uniform
/// stride) to bound probe volume on large fabrics while retaining
/// near-uniform link coverage.
pub fn plan_a1_probes(
    topo: &Topology,
    router: &Router<'_>,
    packets_per_path: u64,
    max_specs: Option<usize>,
) -> Vec<ProbeSpec> {
    let spines: Vec<NodeId> = topo
        .switches()
        .iter()
        .copied()
        .filter(|s| topo.node(*s).role == NodeRole::Spine)
        .collect();

    let mut specs = Vec::new();
    for &host in topo.hosts() {
        let leaf = topo.host_leaf(host);
        let uplink = topo.host_uplink(host);
        let downlink = topo.host_downlink(host);
        for (si, &spine) in spines.iter().enumerate() {
            let paths = router.paths(leaf, spine);
            for (pi, path) in paths.iter().enumerate() {
                let mut rt = Vec::with_capacity(2 + 2 * path.len());
                rt.push(uplink);
                rt.extend_from_slice(path);
                rt.extend(path.iter().rev().map(|l| topo.link(*l).reverse));
                rt.push(downlink);
                specs.push(ProbeSpec {
                    src_host: host,
                    target_spine: spine,
                    key: FlowKey::probe(host, spine, (si * 251 + pi) as u16),
                    round_trip_path: rt,
                    packets: packets_per_path,
                });
            }
        }
    }

    if let Some(cap) = max_specs {
        if specs.len() > cap && cap > 0 {
            let stride = specs.len() as f64 / cap as f64;
            let mut sampled = Vec::with_capacity(cap);
            let mut cursor = 0.0f64;
            while (cursor as usize) < specs.len() && sampled.len() < cap {
                sampled.push(specs[cursor as usize].clone());
                cursor += stride;
            }
            specs = sampled;
        }
    }
    specs
}

/// Total probe packets in a plan.
pub fn plan_packet_volume(specs: &[ProbeSpec]) -> u64 {
    specs.iter().map(|s| s.packets).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::clos::{three_tier, ClosParams};
    use std::collections::HashSet;

    #[test]
    fn a1_covers_every_fabric_link() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let specs = plan_a1_probes(&topo, &router, 10, None);
        let covered: HashSet<LinkId> = specs
            .iter()
            .flat_map(|s| s.round_trip_path.iter().copied())
            .collect();
        for l in topo.fabric_links() {
            assert!(covered.contains(&l), "fabric link {l:?} not covered");
        }
        // Host links are covered too (both directions).
        for &h in topo.hosts() {
            assert!(covered.contains(&topo.host_uplink(h)));
            assert!(covered.contains(&topo.host_downlink(h)));
        }
    }

    #[test]
    fn round_trip_paths_are_contiguous() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        for spec in plan_a1_probes(&topo, &router, 1, None) {
            let mut at = spec.src_host;
            for l in &spec.round_trip_path {
                assert_eq!(topo.link(*l).src, at, "discontinuous probe path");
                at = topo.link(*l).dst;
            }
            assert_eq!(at, spec.src_host, "probe must return to source");
        }
    }

    #[test]
    fn plan_size_and_budget() {
        let p = ClosParams::tiny();
        let topo = three_tier(p);
        let router = Router::new(&topo);
        let specs = plan_a1_probes(&topo, &router, 5, None);
        // hosts × spines × paths(leaf→spine); in the tiny Clos each
        // leaf has exactly 1 path to each spine.
        let spines = (p.aggs_per_pod * p.spines_per_plane) as usize;
        assert_eq!(specs.len(), topo.hosts().len() * spines);
        assert_eq!(plan_packet_volume(&specs), specs.len() as u64 * 5);

        let capped = plan_a1_probes(&topo, &router, 5, Some(10));
        assert!(capped.len() <= 10);
        // Budgeted plans keep multiple distinct hosts (coverage spread).
        let hosts: HashSet<NodeId> = capped.iter().map(|s| s.src_host).collect();
        assert!(hosts.len() > 1);
    }
}
