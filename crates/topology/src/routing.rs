//! Valley-free (up–down) ECMP shortest-path enumeration.
//!
//! Datacenter fabrics route traffic up towards the spine and then down
//! towards the destination; ECMP hashes a flow onto one of the equal-cost
//! shortest such paths. The PGM's path layer (§3.2) is exactly this path
//! set: for a flow with unknown routing (passive telemetry) the whole set
//! is the flow's parent path-nodes; for known-path telemetry (A1/A2/INT)
//! a single member is selected.
//!
//! Enumeration joins the upward BFS sweeps of the source and destination
//! switches at a common apex: a valley-free path of shape `up* down*` is
//! an up-path from the source joined to the reverse of an up-path from the
//! destination. This covers regular and irregular Clos fabrics alike and
//! yields *all* minimal-hop valley-free paths.
//!
//! A [`Router`] caches two things for its lifetime: each switch's upward
//! sweep, computed the first time any pair needs it, and each ordered
//! pair's path set. A fabric with `n` ToRs thus pays `n` sweeps for its
//! `n²` ToR pairs, not two per pair.
//!
//! A cached [`PathSet`] stores its members as rows of one flat link
//! buffer, in ascending link order. Only apexes of minimal total length
//! contribute, so every member has the same hop count, and that shared
//! count is the buffer's fixed stride: a fabric's hundreds of thousands of
//! minimal paths cost one allocation per switch pair, not one per path.
//! The handle the router returns is what the telemetry arena stores for
//! a passive flow's path set, so each member exists once in the process.

use crate::graph::{LinkId, NodeId, Topology};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::{Arc, OnceLock, RwLock};

/// The ECMP path set of one ordered switch pair: every minimal
/// valley-free path, one row each, ascending, back to back in one buffer
/// with a fixed stride of [`hops`](Self::hops) links. The same-switch set
/// is one 0-hop (empty) member; an unroutable pair's set has no members.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSet {
    /// `len` rows of `hops` links each, in traversal order per row.
    links: Vec<LinkId>,
    hops: usize,
    len: usize,
}

impl PathSet {
    /// Number of links in every member path.
    #[inline]
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// Number of member paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members (an unroutable pair).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The member paths in order, each as its link sequence.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[LinkId]> + '_ {
        (0..self.len).map(move |i| &self[i])
    }

    /// A set of `paths`, in the given order: nothing is sorted or
    /// deduplicated. For sets the [`Router`] does not compute, such as a
    /// traced path's one-member set. Panics if two members differ in hop
    /// count, since the rows share one stride.
    pub fn from_paths<P: AsRef<[LinkId]>>(paths: impl IntoIterator<Item = P>) -> PathSet {
        let mut set = PathSet::default();
        for path in paths {
            let path = path.as_ref();
            if set.len == 0 {
                set.hops = path.len();
            }
            assert_eq!(
                path.len(),
                set.hops,
                "member {} of a path set has {} hops, the set {}",
                set.len,
                path.len(),
                set.hops
            );
            set.links.extend_from_slice(path);
            set.len += 1;
        }
        set
    }

    /// Order the `hops`-link rows of `rows` ascending and drop duplicates
    /// (`hops > 0`). Sorts a permutation, then gathers the rows once.
    fn from_rows(rows: Vec<LinkId>, hops: usize) -> PathSet {
        debug_assert!(hops > 0 && rows.len() % hops == 0);
        let row = |i: usize| &rows[i * hops..(i + 1) * hops];
        let mut order: Vec<usize> = (0..rows.len() / hops).collect();
        order.sort_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        let mut links = Vec::with_capacity(order.len() * hops);
        for &i in &order {
            links.extend_from_slice(row(i));
        }
        PathSet {
            links,
            hops,
            len: order.len(),
        }
    }
}

impl Index<usize> for PathSet {
    type Output = [LinkId];

    /// Member `i`'s links; panics when `i >= len()`.
    #[inline]
    fn index(&self, i: usize) -> &[LinkId] {
        assert!(i < self.len, "path {i} out of a set of {}", self.len);
        &self.links[i * self.hops..(i + 1) * self.hops]
    }
}

/// Shared handle to an ECMP path set (cheap to clone).
pub type PathSetHandle = Arc<PathSet>;

/// ECMP route computer with per-pair path-set and per-switch sweep caching.
///
/// `Router` is `Sync`: the pair cache uses a `RwLock` and each sweep is a
/// `OnceLock`, so evaluation code can resolve path sets from worker
/// threads.
pub struct Router<'t> {
    topo: &'t Topology,
    cache: RwLock<HashMap<(NodeId, NodeId), PathSetHandle>>,
    /// Upward sweep from each node, indexed by `NodeId::idx`; filled for a
    /// switch the first time a pair needs it.
    sweeps: Vec<OnceLock<UpSweep>>,
}

impl<'t> Router<'t> {
    /// Create a router over `topo`.
    pub fn new(topo: &'t Topology) -> Self {
        Router {
            topo,
            cache: RwLock::new(HashMap::new()),
            sweeps: std::iter::repeat_with(OnceLock::new)
                .take(topo.node_count())
                .collect(),
        }
    }

    /// The topology this router serves.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// All minimal valley-free paths from switch `src` to switch `dst`.
    ///
    /// Returns an empty set when no valley-free route exists (possible in
    /// heavily degraded irregular topologies; callers treat such pairs as
    /// unroutable). Results are cached per ordered pair.
    pub fn paths(&self, src: NodeId, dst: NodeId) -> PathSetHandle {
        debug_assert!(self.topo.node(src).role.is_switch());
        debug_assert!(self.topo.node(dst).role.is_switch());
        if let Some(h) = self.cache.read().unwrap().get(&(src, dst)) {
            return Arc::clone(h);
        }
        let computed = Arc::new(self.compute(src, dst));
        let mut w = self.cache.write().unwrap();
        Arc::clone(w.entry((src, dst)).or_insert(computed))
    }

    /// Fabric paths between the ToRs of two hosts (the host attachment
    /// links are *not* included; the model layer prepends/appends them).
    pub fn host_fabric_paths(&self, h1: NodeId, h2: NodeId) -> PathSetHandle {
        self.paths(self.topo.host_leaf(h1), self.topo.host_leaf(h2))
    }

    /// Number of cached pairs (for tests and capacity diagnostics).
    pub fn cached_pairs(&self) -> usize {
        self.cache.read().unwrap().len()
    }

    fn compute(&self, src: NodeId, dst: NodeId) -> PathSet {
        if src == dst {
            return PathSet {
                links: Vec::new(),
                hops: 0,
                len: 1,
            };
        }
        let up_src = self.up_sweep(src);
        let up_dst = self.up_sweep(dst);

        // Find the minimal total length over all meeting points.
        let mut best = usize::MAX;
        for (node, sa) in up_src {
            if let Some(sb) = up_dst.get(node) {
                best = best.min(sa.dist + sb.dist);
            }
        }
        if best == usize::MAX {
            return PathSet::default();
        }

        // Every apex kept below yields `best`-link paths, so the rows are
        // written back to back into one buffer.
        let mut rows = Vec::new();
        for (node, sa) in up_src {
            let Some(sb) = up_dst.get(node) else { continue };
            if sa.dist + sb.dist != best {
                continue;
            }
            let ups = enumerate_up_paths(self.topo, up_src, *node);
            let downs = enumerate_up_paths(self.topo, up_dst, *node);
            for u in &ups {
                for d in &downs {
                    rows.extend_from_slice(u);
                    // The down half is the reverse of an up path from dst.
                    rows.extend(d.iter().rev().map(|l| self.topo.link(*l).reverse));
                }
            }
        }
        // Deterministic order regardless of HashMap iteration.
        PathSet::from_rows(rows, best)
    }

    /// The upward sweep from `start`, computed on first use and shared for
    /// the router's lifetime.
    fn up_sweep(&self, start: NodeId) -> &UpSweep {
        self.sweeps[start.idx()].get_or_init(|| self.up_bfs(start))
    }

    /// Upward BFS: explore strictly tier-increasing links from `start`,
    /// recording distance and all shortest-path parent links per node.
    fn up_bfs(&self, start: NodeId) -> UpSweep {
        let mut seen = UpSweep::new();
        seen.insert(
            start,
            UpState {
                dist: 0,
                parents: Vec::new(),
            },
        );
        let mut frontier = vec![start];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for node in frontier.drain(..) {
                let d = seen[&node].dist;
                let tier = self.topo.node(node).role.tier();
                for l in self.topo.out_links(node) {
                    let link = self.topo.link(*l);
                    if self.topo.node(link.dst).role.tier() <= tier {
                        continue; // only strictly upward
                    }
                    match seen.get_mut(&link.dst) {
                        None => {
                            seen.insert(
                                link.dst,
                                UpState {
                                    dist: d + 1,
                                    parents: vec![*l],
                                },
                            );
                            next.push(link.dst);
                        }
                        Some(st) if st.dist == d + 1 => st.parents.push(*l),
                        Some(_) => {}
                    }
                }
            }
            frontier = next;
        }
        seen
    }
}

#[derive(Debug, Clone)]
struct UpState {
    dist: usize,
    /// Links `u → this` on shortest up-paths.
    parents: Vec<LinkId>,
}

/// One upward BFS: every node reachable by strictly upward links, with
/// its distance and shortest-path parent links.
type UpSweep = HashMap<NodeId, UpState>;

/// All shortest up-paths from the BFS root to `node`, each as the link
/// sequence root→…→node.
fn enumerate_up_paths(topo: &Topology, states: &UpSweep, node: NodeId) -> Vec<Vec<LinkId>> {
    let st = &states[&node];
    if st.dist == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for pl in &st.parents {
        let parent = topo.link(*pl).src;
        for mut prefix in enumerate_up_paths(topo, states, parent) {
            prefix.push(*pl);
            out.push(prefix);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clos::{leaf_spine, three_tier, ClosParams, LeafSpineParams};
    use crate::graph::NodeRole;
    use crate::irregular::omit_links_routable;

    /// The switches `links` visits, starting from `src`; panics if two
    /// consecutive links do not meet.
    fn nodes(t: &Topology, src: NodeId, links: &[LinkId]) -> Vec<NodeId> {
        let mut out = vec![src];
        for l in links {
            assert_eq!(t.link(*l).src, *out.last().unwrap());
            out.push(t.link(*l).dst);
        }
        out
    }

    fn leaves_of(t: &Topology) -> Vec<NodeId> {
        t.switches()
            .iter()
            .copied()
            .filter(|s| t.node(*s).role == NodeRole::Leaf)
            .collect()
    }

    #[test]
    fn same_switch_has_empty_path() {
        let t = three_tier(ClosParams::tiny());
        let r = Router::new(&t);
        let l = leaves_of(&t)[0];
        let ps = r.paths(l, l);
        assert_eq!(ps.len(), 1);
        assert!(ps[0].is_empty());
    }

    #[test]
    fn intra_pod_path_count_is_aggs_per_pod() {
        let p = ClosParams::tiny();
        let t = three_tier(p);
        let r = Router::new(&t);
        let leaves = leaves_of(&t);
        // leaves 0 and 1 are in pod 0.
        let (a, b) = (leaves[0], leaves[1]);
        assert_eq!(t.node(a).pod, t.node(b).pod);
        let ps = r.paths(a, b);
        assert_eq!(ps.len(), p.aggs_per_pod as usize);
        for path in ps.iter() {
            assert_eq!(path.len(), 2, "tor-agg-tor");
            let nodes = nodes(&t, a, path);
            assert_eq!(*nodes.last().unwrap(), b);
        }
    }

    #[test]
    fn inter_pod_path_count_is_aggs_times_spines() {
        let p = ClosParams::tiny();
        let t = three_tier(p);
        let r = Router::new(&t);
        let leaves = leaves_of(&t);
        let (a, b) = (leaves[0], leaves[2]);
        assert_ne!(t.node(a).pod, t.node(b).pod);
        let ps = r.paths(a, b);
        assert_eq!(ps.len(), (p.aggs_per_pod * p.spines_per_plane) as usize);
        for path in ps.iter() {
            assert_eq!(path.len(), 4, "tor-agg-spine-agg-tor");
            assert_eq!(*nodes(&t, a, path).last().unwrap(), b);
        }
    }

    #[test]
    fn leaf_spine_paths_go_via_each_spine() {
        let p = LeafSpineParams::testbed();
        let t = leaf_spine(p);
        let r = Router::new(&t);
        let leaves = leaves_of(&t);
        let ps = r.paths(leaves[0], leaves[1]);
        assert_eq!(ps.len(), p.spines as usize);
    }

    #[test]
    fn leaf_to_spine_paths_are_up_only() {
        let p = ClosParams::tiny();
        let t = three_tier(p);
        let r = Router::new(&t);
        let leaf = leaves_of(&t)[0];
        let spine = t
            .switches()
            .iter()
            .copied()
            .find(|s| t.node(*s).role == NodeRole::Spine)
            .unwrap();
        let ps = r.paths(leaf, spine);
        // Exactly one plane connects this leaf's pod aggs to this spine:
        // tor → agg(plane of spine) → spine, one agg qualifies.
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].len(), 2);
    }

    #[test]
    fn caching_returns_same_handle() {
        let t = three_tier(ClosParams::tiny());
        let r = Router::new(&t);
        let leaves = leaves_of(&t);
        let p1 = r.paths(leaves[0], leaves[1]);
        let p2 = r.paths(leaves[0], leaves[1]);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(r.cached_pairs(), 1);
    }

    #[test]
    fn paths_are_link_consistent() {
        let t = three_tier(ClosParams::tiny());
        let r = Router::new(&t);
        let leaves = leaves_of(&t);
        for a in &leaves {
            for b in &leaves {
                for path in r.paths(*a, *b).iter() {
                    let nodes = nodes(&t, *a, path); // panics on inconsistency
                    assert_eq!(nodes.first(), Some(a));
                    assert_eq!(nodes.last(), Some(b));
                }
            }
        }
    }

    /// The flat layout: every member has `hops` links, members ascend
    /// strictly, `iter()` and `Index` agree, and the buffer holds exactly
    /// `len × hops` links — on a regular Clos and on an irregular one.
    #[test]
    fn path_sets_are_flat_ascending_fixed_stride_rows() {
        let clos = three_tier(ClosParams::tiny());
        let (irregular, _) = omit_links_routable(&clos, 0.2, 3, 8).unwrap();
        for t in [&clos, &irregular] {
            let r = Router::new(t);
            for &a in t.switches() {
                for &b in t.switches() {
                    let set = r.paths(a, b);
                    if a == b {
                        assert_eq!((set.len(), set.hops()), (1, 0));
                        assert!(set[0].is_empty());
                    }
                    assert_eq!(set.links.len(), set.len() * set.hops());
                    assert_eq!(set.iter().len(), set.len());
                    for (i, path) in set.iter().enumerate() {
                        assert_eq!(path, &set[i]);
                        assert_eq!(path.len(), set.hops());
                        assert_eq!(*nodes(t, a, path).last().unwrap(), b);
                    }
                    assert!(set.iter().zip(set.iter().skip(1)).all(|(p, q)| p < q));
                }
            }
        }
    }
}
