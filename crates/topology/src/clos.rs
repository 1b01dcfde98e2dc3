//! Builders for the two fabric shapes used throughout the paper's
//! evaluation: a three-tier Clos (the NS3 / large-scale simulation
//! environment, §6.3) and a two-tier leaf–spine (the hardware testbed:
//! 2 spines, 8 leaf racks, 6 hosts per rack).
//!
//! The three-tier builder is a generalized podded Clos rather than a strict
//! k-ary fat tree so that experiment sweeps can dial the number of servers,
//! links and the oversubscription ratio independently (the paper's 2500-link
//! topology has 3× oversubscription at the ToRs).

use crate::graph::{NodeId, NodeRole, Topology, TopologyBuilder};
use serde::Serialize;

/// Parameters of a three-tier podded Clos fabric.
///
/// Structure: `pods` pods, each with `tors_per_pod` leaf (ToR) switches and
/// `aggs_per_pod` aggregation switches, fully bipartitely connected inside
/// the pod. Aggregation switch `j` of every pod connects to the spine plane
/// `j`, which contains `spines_per_plane` spine switches (so the total spine
/// count is `aggs_per_pod × spines_per_plane`). Each ToR hosts
/// `hosts_per_tor` servers.
///
/// ECMP path counts: two hosts under different pods have
/// `aggs_per_pod × spines_per_plane` fabric paths; under the same pod but
/// different ToRs, `aggs_per_pod` paths; under the same ToR, one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClosParams {
    /// Number of pods.
    pub pods: u32,
    /// ToR (leaf) switches per pod.
    pub tors_per_pod: u32,
    /// Aggregation switches per pod.
    pub aggs_per_pod: u32,
    /// Spine switches per spine plane (one plane per agg position).
    pub spines_per_plane: u32,
    /// Servers per ToR.
    pub hosts_per_tor: u32,
}

impl ClosParams {
    /// A small topology for unit tests: 2 pods × (2 ToR + 2 agg), 2 spine
    /// planes of 2, 3 hosts per ToR → 12 hosts, 10 switches.
    pub fn tiny() -> Self {
        ClosParams {
            pods: 2,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            spines_per_plane: 2,
            hosts_per_tor: 3,
        }
    }

    /// A medium Clos approximating the paper's NS3 environment: ~2500
    /// directed links with 3× oversubscription at the ToRs
    /// (12 host links vs 4 uplinks per ToR).
    pub fn ns3_scale() -> Self {
        // Fabric cables: pods*tors*aggs (tor-agg) + pods*aggs*spines_per_plane
        // (agg-spine) = 256 + 256; `ClosParams::total_links` gives the exact
        // directed count with host links: 2 * (256 + 256 + 768) = 2560.
        ClosParams {
            pods: 8,
            tors_per_pod: 8,
            aggs_per_pod: 4,
            spines_per_plane: 8,
            hosts_per_tor: 12,
        }
    }

    /// Scale the fabric to approximately `servers` servers while keeping
    /// the tiny/ns3 aspect ratios (used by the Fig. 4c/4d scaling sweeps).
    pub fn with_servers(servers: u32) -> Self {
        // Grow pods and tors_per_pod together; keep hosts_per_tor = 16.
        let hosts_per_tor = 16;
        let tors_needed = servers.div_ceil(hosts_per_tor);
        // pods ≈ tors_per_pod ≈ sqrt(tors)
        let side = (tors_needed as f64).sqrt().ceil() as u32;
        ClosParams {
            pods: side.max(2),
            tors_per_pod: side.max(2),
            aggs_per_pod: (side / 2).clamp(2, 16),
            spines_per_plane: (side / 2).clamp(2, 16),
            hosts_per_tor,
        }
    }

    /// Total number of servers.
    pub fn total_hosts(&self) -> u32 {
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }

    /// Total number of directed links (fabric + host attachment).
    pub fn total_links(&self) -> u32 {
        let tor_agg = self.pods * self.tors_per_pod * self.aggs_per_pod;
        let agg_spine = self.pods * self.aggs_per_pod * self.spines_per_plane;
        let host = self.total_hosts();
        2 * (tor_agg + agg_spine + host)
    }

    /// ToR oversubscription ratio (host-side bandwidth / fabric-side
    /// bandwidth, assuming uniform link speeds).
    pub fn oversubscription(&self) -> f64 {
        self.hosts_per_tor as f64 / self.aggs_per_pod as f64
    }
}

/// Build a three-tier podded Clos fabric.
pub fn three_tier(p: ClosParams) -> Topology {
    assert!(p.pods >= 1 && p.tors_per_pod >= 1 && p.aggs_per_pod >= 1);
    assert!(p.spines_per_plane >= 1 && p.hosts_per_tor >= 1);
    let mut b = TopologyBuilder::new(format!(
        "clos-p{}-t{}-a{}-s{}-h{}",
        p.pods, p.tors_per_pod, p.aggs_per_pod, p.spines_per_plane, p.hosts_per_tor
    ));

    // Spine planes: plane j serves agg position j of every pod.
    let mut spines: Vec<Vec<NodeId>> = Vec::with_capacity(p.aggs_per_pod as usize);
    for plane in 0..p.aggs_per_pod {
        let mut row = Vec::with_capacity(p.spines_per_plane as usize);
        for s in 0..p.spines_per_plane {
            row.push(b.add_node(NodeRole::Spine, u16::MAX, plane * p.spines_per_plane + s));
        }
        spines.push(row);
    }

    for pod in 0..p.pods {
        let mut aggs = Vec::with_capacity(p.aggs_per_pod as usize);
        for a in 0..p.aggs_per_pod {
            let agg = b.add_node(NodeRole::Agg, pod as u16, a);
            for spine in &spines[a as usize] {
                b.connect(agg, *spine);
            }
            aggs.push(agg);
        }
        for t in 0..p.tors_per_pod {
            let tor = b.add_node(NodeRole::Leaf, pod as u16, t);
            for agg in &aggs {
                b.connect(tor, *agg);
            }
            for h in 0..p.hosts_per_tor {
                let host = b.add_node(NodeRole::Host, pod as u16, t * p.hosts_per_tor + h);
                b.connect(host, tor);
            }
        }
    }
    b.build()
}

/// Parameters of a two-tier leaf–spine fabric (the paper's hardware
/// testbed: `LeafSpineParams::testbed()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LeafSpineParams {
    /// Number of spine switches (every leaf connects to every spine).
    pub spines: u32,
    /// Number of leaf (rack) switches.
    pub leaves: u32,
    /// Servers per leaf.
    pub hosts_per_leaf: u32,
}

impl LeafSpineParams {
    /// The paper's hardware testbed: 2 spines, 8 leaf racks, 6 hosts/rack.
    pub fn testbed() -> Self {
        LeafSpineParams {
            spines: 2,
            leaves: 8,
            hosts_per_leaf: 6,
        }
    }

    /// Total number of servers.
    pub fn total_hosts(&self) -> u32 {
        self.leaves * self.hosts_per_leaf
    }
}

/// Build a two-tier leaf–spine fabric.
pub fn leaf_spine(p: LeafSpineParams) -> Topology {
    assert!(p.spines >= 1 && p.leaves >= 1 && p.hosts_per_leaf >= 1);
    let mut b = TopologyBuilder::new(format!(
        "leafspine-s{}-l{}-h{}",
        p.spines, p.leaves, p.hosts_per_leaf
    ));
    let spines: Vec<NodeId> = (0..p.spines)
        .map(|s| b.add_node(NodeRole::Spine, u16::MAX, s))
        .collect();
    for l in 0..p.leaves {
        let leaf = b.add_node(NodeRole::Leaf, l as u16, 0);
        for spine in &spines {
            b.connect(leaf, *spine);
        }
        for h in 0..p.hosts_per_leaf {
            let host = b.add_node(NodeRole::Host, l as u16, h);
            b.connect(host, leaf);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeRole;

    #[test]
    fn tiny_clos_counts() {
        let p = ClosParams::tiny();
        let t = three_tier(p);
        assert_eq!(t.hosts().len(), p.total_hosts() as usize);
        assert_eq!(t.link_count(), p.total_links() as usize);
        // switches: 2 pods * (2 tor + 2 agg) + 2 planes * 2 spines = 12
        assert_eq!(t.switch_count(), 12);
    }

    #[test]
    fn ns3_scale_is_about_2500_links() {
        let p = ClosParams::ns3_scale();
        let t = three_tier(p);
        // The paper's NS3 topology has 2500 links; ours is the same order.
        assert!(
            (2000..3500).contains(&t.link_count()),
            "got {} links",
            t.link_count()
        );
        assert!((p.oversubscription() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tor_degree_matches_params() {
        let p = ClosParams::tiny();
        let t = three_tier(p);
        for (id, n) in t.nodes() {
            match n.role {
                NodeRole::Leaf => assert_eq!(
                    t.out_links(id).len(),
                    (p.aggs_per_pod + p.hosts_per_tor) as usize
                ),
                NodeRole::Agg => assert_eq!(
                    t.out_links(id).len(),
                    (p.spines_per_plane + p.tors_per_pod) as usize
                ),
                NodeRole::Spine => assert_eq!(t.out_links(id).len(), p.pods as usize),
                NodeRole::Host => assert_eq!(t.out_links(id).len(), 1),
            }
        }
    }

    #[test]
    fn testbed_leaf_spine_counts() {
        let p = LeafSpineParams::testbed();
        let t = leaf_spine(p);
        assert_eq!(t.hosts().len(), 48);
        assert_eq!(t.switch_count(), 10);
        // cables: 8 leaves * 2 spines + 48 hosts = 64 → 128 directed links
        assert_eq!(t.link_count(), 128);
    }

    #[test]
    fn with_servers_reaches_target() {
        for servers in [512u32, 4096, 8192] {
            let p = ClosParams::with_servers(servers);
            assert!(
                p.total_hosts() >= servers,
                "{} < {}",
                p.total_hosts(),
                servers
            );
        }
    }

    #[test]
    fn all_hosts_have_single_uplink() {
        let t = three_tier(ClosParams::tiny());
        for h in t.hosts() {
            assert_eq!(t.out_links(*h).len(), 1);
            let leaf = t.host_leaf(*h);
            assert_eq!(t.node(leaf).role, NodeRole::Leaf);
        }
    }
}
