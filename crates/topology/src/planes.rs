//! Spine-plane membership.
//!
//! In a podded Clos fabric the spine tier is physically *striped* into
//! planes: spine plane `j` serves aggregation position `j` of every pod,
//! so the ECMP path set between two pods decomposes into per-plane
//! slices that share no spine switch or spine-incident link. That
//! structural independence is what plane-confined failure scenarios
//! (`flock-netsim`'s `plane_link_drops`) build on: evidence against a
//! plane's components can only come from flows whose candidate paths
//! cross that plane.
//!
//! [`SpinePlanes::derive`] recovers the striping from the graph alone —
//! no builder metadata needed — by grouping spines on the set of
//! down-neighbor positions they attach to, and *validates* the grouping
//! (groups must be pairwise disjoint in the positions they serve). On
//! arbitrary graphs where the validation fails, it falls back to a
//! single plane containing every spine rather than producing an
//! incorrect partition.

use crate::graph::{LinkId, NodeId, NodeRole, Topology};
use std::collections::BTreeMap;

/// Plane membership of the spine tier. See the module docs.
#[derive(Debug, Clone)]
pub struct SpinePlanes {
    /// Plane index per node (`u16::MAX` for non-spine nodes).
    plane_of: Vec<u16>,
    /// Spines per plane, in plane order.
    members: Vec<Vec<NodeId>>,
    /// Whether the stripe structure validated (`false` = fallback single
    /// plane over all spines).
    striped: bool,
}

impl SpinePlanes {
    /// Derive plane membership from the topology's structure.
    ///
    /// Spines are grouped by the sorted set of `index_in_group` values of
    /// their non-spine switch neighbors (the aggregation positions a
    /// spine serves; leaf positions in a two-tier fabric). The grouping
    /// is valid iff the groups' position sets are pairwise disjoint —
    /// then no switch below the spine tier can reach two planes, which
    /// is exactly the Clos stripe structure. Groups are numbered in
    /// ascending order of their smallest position, so the fat-tree
    /// builder's plane `j` derives as plane `j`.
    ///
    /// Fallback: if any two groups overlap (an un-striped mesh), every
    /// spine lands in one plane 0 and [`SpinePlanes::is_striped`]
    /// reports `false`.
    pub fn derive(topo: &Topology) -> Self {
        let spines: Vec<NodeId> = topo
            .switches()
            .iter()
            .copied()
            .filter(|&s| topo.node(s).role == NodeRole::Spine)
            .collect();
        let mut plane_of = vec![u16::MAX; topo.node_count()];
        if spines.is_empty() {
            return SpinePlanes {
                plane_of,
                members: Vec::new(),
                striped: true,
            };
        }

        // Signature of a spine: the positions it serves one tier down.
        let signature = |s: NodeId| -> Vec<u32> {
            let mut sig: Vec<u32> = topo
                .out_links(s)
                .iter()
                .map(|&l| topo.link(l).dst)
                .filter(|&n| {
                    let nd = topo.node(n);
                    nd.role.is_switch() && nd.role != NodeRole::Spine
                })
                .map(|n| topo.node(n).index_in_group)
                .collect();
            sig.sort_unstable();
            sig.dedup();
            sig
        };

        // Group by signature; BTreeMap orders groups lexicographically,
        // i.e. by smallest served position first (the empty signature —
        // a spine with no fabric links — sorts first and forms its own
        // group, which receives no evidence anyway).
        let mut groups: BTreeMap<Vec<u32>, Vec<NodeId>> = BTreeMap::new();
        for &s in &spines {
            groups.entry(signature(s)).or_default().push(s);
        }

        // Validate: the served-position sets must be pairwise disjoint.
        let mut seen = std::collections::HashSet::new();
        let disjoint = groups.keys().all(|sig| sig.iter().all(|&p| seen.insert(p)));

        let (members, striped) = if disjoint {
            (groups.into_values().collect::<Vec<_>>(), true)
        } else {
            (vec![spines], false)
        };
        for (p, plane) in members.iter().enumerate() {
            for &s in plane {
                plane_of[s.idx()] = p as u16;
            }
        }
        SpinePlanes {
            plane_of,
            members,
            striped,
        }
    }

    /// Number of spine planes (0 when the topology has no spine tier).
    #[inline]
    pub fn n_planes(&self) -> usize {
        self.members.len()
    }

    /// The plane a node belongs to (`None` for non-spine nodes).
    #[inline]
    pub fn plane_of(&self, n: NodeId) -> Option<u16> {
        match self.plane_of.get(n.idx()) {
            Some(&p) if p != u16::MAX => Some(p),
            _ => None,
        }
    }

    /// The spines of one plane.
    #[inline]
    pub fn spines_in(&self, plane: u16) -> &[NodeId] {
        &self.members[plane as usize]
    }

    /// All directed links incident to the spines of one plane, sorted
    /// and deduplicated — the component footprint of a plane, used by
    /// plane-confined failure scenarios.
    pub fn incident_links(&self, topo: &Topology, plane: u16) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = self
            .spines_in(plane)
            .iter()
            .flat_map(|&s| topo.links_of_node(s))
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// Whether the derivation validated a genuine stripe structure
    /// (`false` = the fallback single plane over all spines).
    #[inline]
    pub fn is_striped(&self) -> bool {
        self.striped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clos::{leaf_spine, three_tier, ClosParams, LeafSpineParams};
    use crate::graph::TopologyBuilder;

    #[test]
    fn fat_tree_planes_match_builder_stripes() {
        let p = ClosParams {
            pods: 3,
            tors_per_pod: 2,
            aggs_per_pod: 3,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        };
        let topo = three_tier(p);
        let planes = SpinePlanes::derive(&topo);
        assert!(planes.is_striped());
        assert_eq!(planes.n_planes(), p.aggs_per_pod as usize);
        for plane in 0..p.aggs_per_pod as u16 {
            let members = planes.spines_in(plane);
            assert_eq!(members.len(), p.spines_per_plane as usize);
            for &s in members {
                // The builder numbers spine `index_in_group` as
                // `plane * spines_per_plane + s`.
                assert_eq!(
                    topo.node(s).index_in_group / p.spines_per_plane,
                    u32::from(plane)
                );
                assert_eq!(planes.plane_of(s), Some(plane));
            }
        }
        // Non-spine nodes have no plane.
        for (id, n) in topo.nodes() {
            if n.role != NodeRole::Spine {
                assert_eq!(planes.plane_of(id), None);
            }
        }
    }

    #[test]
    fn plane_paths_are_confined() {
        // Every valley-free ECMP path visits spines of exactly one plane
        // — the independence plane-confined scenarios rely on.
        let topo = three_tier(ClosParams::tiny());
        let planes = SpinePlanes::derive(&topo);
        let router = crate::routing::Router::new(&topo);
        let tors: Vec<NodeId> = topo
            .switches()
            .iter()
            .copied()
            .filter(|&s| topo.node(s).role == NodeRole::Leaf)
            .collect();
        for &a in &tors {
            for &b in &tors {
                for path in router.paths(a, b).iter() {
                    let touched: Vec<u16> = path
                        .iter()
                        .flat_map(|&l| [topo.link(l).src, topo.link(l).dst])
                        .filter_map(|n| planes.plane_of(n))
                        .collect();
                    assert!(
                        touched.windows(2).all(|w| w[0] == w[1]),
                        "path touches planes {touched:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn link_planes_match_endpoint_planes() {
        let topo = three_tier(ClosParams::tiny());
        let planes = SpinePlanes::derive(&topo);
        // Each spine-incident link lies in exactly one plane's footprint:
        // the plane of its spine endpoint. Other links lie in none.
        let mut owners = vec![0usize; topo.link_count()];
        for plane in 0..planes.n_planes() as u16 {
            let incident = planes.incident_links(&topo, plane);
            assert!(!incident.is_empty());
            for &l in &incident {
                let lk = topo.link(l);
                let endpoint_planes: Vec<u16> = [lk.src, lk.dst]
                    .into_iter()
                    .filter_map(|n| planes.plane_of(n))
                    .collect();
                assert_eq!(endpoint_planes, vec![plane]);
                owners[l.idx()] += 1;
            }
        }
        for (i, &n) in owners.iter().enumerate() {
            let lk = topo.link(LinkId(i as u32));
            let spine_incident = [lk.src, lk.dst]
                .iter()
                .any(|&n| topo.node(n).role == NodeRole::Spine);
            assert_eq!(n, usize::from(spine_incident), "link {i}");
        }
    }

    #[test]
    fn leaf_spine_collapses_to_one_plane() {
        let topo = leaf_spine(LeafSpineParams::testbed());
        let planes = SpinePlanes::derive(&topo);
        assert!(planes.is_striped());
        assert_eq!(planes.n_planes(), 1);
        assert_eq!(planes.spines_in(0).len(), 2);
    }

    #[test]
    fn no_spine_tier_yields_zero_planes() {
        let mut b = TopologyBuilder::new("flat");
        let h = b.add_node(NodeRole::Host, 0, 0);
        let l = b.add_node(NodeRole::Leaf, 0, 0);
        b.connect(h, l);
        let topo = b.build();
        let planes = SpinePlanes::derive(&topo);
        assert_eq!(planes.n_planes(), 0);
        assert!(planes.is_striped());
    }

    #[test]
    fn overlapping_signatures_fall_back_to_one_plane() {
        // Two spines serving overlapping agg positions: not a stripe.
        let mut b = TopologyBuilder::new("mesh");
        let a0 = b.add_node(NodeRole::Agg, 0, 0);
        let a1 = b.add_node(NodeRole::Agg, 0, 1);
        let a2 = b.add_node(NodeRole::Agg, 0, 2);
        let s0 = b.add_node(NodeRole::Spine, u16::MAX, 0);
        let s1 = b.add_node(NodeRole::Spine, u16::MAX, 1);
        b.connect(s0, a0);
        b.connect(s0, a1); // s0 serves {0, 1}
        b.connect(s1, a1); // s1 serves {1, 2} — overlaps s0
        b.connect(s1, a2);
        let topo = b.build();
        let planes = SpinePlanes::derive(&topo);
        assert!(!planes.is_striped());
        assert_eq!(planes.n_planes(), 1);
        assert_eq!(planes.plane_of(s0), Some(0));
        assert_eq!(planes.plane_of(s1), Some(0));
    }

    #[test]
    fn irregular_stripe_subsets_stay_striped() {
        // Dropping links only shrinks a spine's signature within its
        // plane's position, so an irregular fat tree still stripes.
        let topo = three_tier(ClosParams::tiny());
        let (irregular, _removed) = crate::irregular::omit_links(
            &topo,
            0.2,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7),
        );
        let planes = SpinePlanes::derive(&irregular);
        assert!(planes.is_striped());
        assert!(planes.n_planes() >= 1);
    }
}
