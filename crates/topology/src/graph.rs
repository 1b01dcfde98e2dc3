//! Core graph types: nodes (hosts and switches), directed links, and the
//! [`Topology`] container.
//!
//! Links are *directed*: a physical cable is represented by two links, one
//! per direction, paired via [`Link::reverse`]. Fault localization treats
//! the two directions as independent components (a transceiver can corrupt
//! traffic in one direction only), which matches how 007 and NetBouncer
//! model links.

use serde::Serialize;

/// Identifier of a node (host or switch) in a [`Topology`].
///
/// Node ids are dense indices into the topology's node arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub u32);

/// Identifier of a *directed* link in a [`Topology`].
///
/// Link ids are dense indices into the topology's link arena. The two
/// directions of a cable have distinct ids, connected via [`Link::reverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The link id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The role (tier) of a node in a datacenter fabric.
///
/// Tiers are ordered: `Host < Leaf < Agg < Spine`. Up-down (valley-free)
/// routing only ever moves to strictly higher tiers before moving to
/// strictly lower tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum NodeRole {
    /// An end host (server). Hosts are traffic endpoints, not failure
    /// candidates; their attachment links are.
    Host,
    /// Top-of-rack switch (also called ToR or leaf).
    Leaf,
    /// Pod-level aggregation switch (three-tier Clos only).
    Agg,
    /// Spine / core switch.
    Spine,
}

impl NodeRole {
    /// Numeric tier used for valley-free routing (`Host` = 0 … `Spine` = 3).
    #[inline]
    pub fn tier(self) -> u8 {
        match self {
            NodeRole::Host => 0,
            NodeRole::Leaf => 1,
            NodeRole::Agg => 2,
            NodeRole::Spine => 3,
        }
    }

    /// Whether this node is a switch (a device component in the PGM).
    #[inline]
    pub fn is_switch(self) -> bool {
        !matches!(self, NodeRole::Host)
    }
}

/// A node in the topology.
#[derive(Debug, Clone, Serialize)]
pub struct Node {
    /// Tier of the node.
    pub role: NodeRole,
    /// Pod index for leaves/aggs in a podded Clos; `u16::MAX` when not
    /// applicable (hosts inherit their leaf's pod; spines are pod-less).
    pub pod: u16,
    /// Index of the node within its (role, pod) group; used by builders to
    /// wire the fabric deterministically and by tests to assert structure.
    pub index_in_group: u32,
}

/// A directed link between two nodes.
#[derive(Debug, Clone, Serialize)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// The link carrying traffic in the opposite direction over the same
    /// physical cable.
    pub reverse: LinkId,
}

/// A directed multigraph describing a datacenter network.
///
/// Construct via the builders in [`crate::clos`] (or [`TopologyBuilder`]
/// for custom shapes), derive irregular variants via [`crate::irregular`].
#[derive(Debug, Clone, Serialize)]
pub struct Topology {
    /// Human-readable name, e.g. `"clos-p8-a4-t4-h8"`.
    pub name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node.
    out: Vec<Vec<LinkId>>,
    /// All host node ids, in construction order.
    hosts: Vec<NodeId>,
    /// All switch node ids (leaf, agg, spine), in construction order.
    switches: Vec<NodeId>,
}

impl Topology {
    /// Number of nodes (hosts + switches).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of switches (PGM device candidates).
    #[inline]
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The node record for `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// The link record for `id`.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Outgoing links of `node`.
    #[inline]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out[node.idx()]
    }

    /// All hosts.
    #[inline]
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// All switches.
    #[inline]
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// Iterate over `(LinkId, &Link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Iterate over `(NodeId, &Node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The leaf (ToR) switch a host attaches to.
    ///
    /// # Panics
    /// Panics if `host` is not a host or is disconnected.
    pub fn host_leaf(&self, host: NodeId) -> NodeId {
        debug_assert_eq!(self.node(host).role, NodeRole::Host);
        let up = self.out[host.idx()]
            .first()
            .expect("host must have an uplink");
        self.link(*up).dst
    }

    /// The host→leaf link of `host`.
    pub fn host_uplink(&self, host: NodeId) -> LinkId {
        debug_assert_eq!(self.node(host).role, NodeRole::Host);
        self.out[host.idx()][0]
    }

    /// The leaf→host link of `host`.
    pub fn host_downlink(&self, host: NodeId) -> LinkId {
        self.link(self.host_uplink(host)).reverse
    }

    /// Links whose source *or* destination is `node` (i.e. both directions
    /// of every attached cable). Used when failing a device's links.
    pub fn links_of_node(&self, node: NodeId) -> Vec<LinkId> {
        let mut ids: Vec<LinkId> = self.out[node.idx()].clone();
        ids.extend(self.out[node.idx()].iter().map(|l| self.link(*l).reverse));
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Fabric links: links whose both endpoints are switches (excludes
    /// host attachment links). These are the usual failure candidates in
    /// the paper's link-failure scenarios.
    pub fn fabric_links(&self) -> Vec<LinkId> {
        self.links()
            .filter(|(_, l)| self.node(l.src).role.is_switch() && self.node(l.dst).role.is_switch())
            .map(|(id, _)| id)
            .collect()
    }

    /// Total number of directed host-attachment links.
    pub fn host_link_count(&self) -> usize {
        self.link_count() - self.fabric_links().len()
    }
}

/// Incremental builder for [`Topology`]: add nodes, connect cables, finish.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    out: Vec<Vec<LinkId>>,
}

impl TopologyBuilder {
    /// Start building a topology called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, role: NodeRole, pod: u16, index_in_group: u32) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            role,
            pod,
            index_in_group,
        });
        self.out.push(Vec::new());
        id
    }

    /// Connect `a` and `b` with a cable (two directed links); returns the
    /// `(a→b, b→a)` link ids.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> (LinkId, LinkId) {
        let ab = LinkId(self.links.len() as u32);
        let ba = LinkId(self.links.len() as u32 + 1);
        self.links.push(Link {
            src: a,
            dst: b,
            reverse: ba,
        });
        self.links.push(Link {
            src: b,
            dst: a,
            reverse: ab,
        });
        self.out[a.idx()].push(ab);
        self.out[b.idx()].push(ba);
        (ab, ba)
    }

    /// Finish construction.
    pub fn build(self) -> Topology {
        let mut hosts = Vec::new();
        let mut switches = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if n.role.is_switch() {
                switches.push(id);
            } else {
                hosts.push(id);
            }
        }
        Topology {
            name: self.name,
            nodes: self.nodes,
            links: self.links,
            out: self.out,
            hosts,
            switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        let mut b = TopologyBuilder::new("tiny");
        let h0 = b.add_node(NodeRole::Host, 0, 0);
        let h1 = b.add_node(NodeRole::Host, 0, 1);
        let s = b.add_node(NodeRole::Leaf, 0, 0);
        b.connect(h0, s);
        b.connect(h1, s);
        b.build()
    }

    #[test]
    fn builder_pairs_reverse_links() {
        let t = tiny();
        for (id, l) in t.links() {
            assert_eq!(t.link(l.reverse).reverse, id, "reverse must be involutive");
            assert_eq!(t.link(l.reverse).src, l.dst);
            assert_eq!(t.link(l.reverse).dst, l.src);
        }
    }

    #[test]
    fn host_accessors() {
        let t = tiny();
        let h0 = t.hosts()[0];
        assert_eq!(t.host_leaf(h0), NodeId(2));
        let up = t.host_uplink(h0);
        let down = t.host_downlink(h0);
        assert_eq!(t.link(up).src, h0);
        assert_eq!(t.link(down).dst, h0);
        assert_eq!(t.link(up).reverse, down);
    }

    #[test]
    fn counts() {
        let t = tiny();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 4);
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.hosts().len(), 2);
        assert!(t.fabric_links().is_empty());
        assert_eq!(t.host_link_count(), 4);
    }

    #[test]
    fn links_of_node_covers_both_directions() {
        let t = tiny();
        let s = t.switches()[0];
        let ids = t.links_of_node(s);
        assert_eq!(ids.len(), 4, "leaf touches both directions of 2 cables");
    }

    #[test]
    fn role_tiers_are_ordered() {
        assert!(NodeRole::Host.tier() < NodeRole::Leaf.tier());
        assert!(NodeRole::Leaf.tier() < NodeRole::Agg.tier());
        assert!(NodeRole::Agg.tier() < NodeRole::Spine.tier());
        assert!(!NodeRole::Host.is_switch());
        assert!(NodeRole::Leaf.is_switch());
    }
}
