//! Dense component indexing.
//!
//! Inference iterates over *components* — switch devices and directed
//! links — with flat arrays. [`ComponentSpace`] assigns each component a
//! dense index: devices first (`0..n_devices`, in `Topology::switches()`
//! order), then links (`n_devices..n_devices + n_links`, by `LinkId`).
//! These are the only component ids inference speaks: an engine's Δ
//! array, hypothesis and set layer are all indexed by them.

use flock_topology::{Component, LinkId, NodeId, Topology};

/// Dense index of a component in a [`ComponentSpace`].
pub type CompIdx = u32;

/// "No component": a host end of a link, or — as the flipped component
/// of a set count — no flip at all.
pub(crate) const NO_COMP: CompIdx = CompIdx::MAX;

/// Bidirectional mapping between topology components and dense indices.
#[derive(Debug, Clone)]
pub struct ComponentSpace {
    n_devices: u32,
    n_links: u32,
    /// NodeId index → device comp index (u32::MAX for hosts).
    device_of_node: Vec<u32>,
    /// Device comp index → NodeId.
    node_of_device: Vec<NodeId>,
    /// Per link: [`ComponentSpace::link_row`].
    link_rows: Vec<[CompIdx; 3]>,
}

impl ComponentSpace {
    /// Build the component space of a topology.
    pub fn new(topo: &Topology) -> Self {
        let mut device_of_node = vec![u32::MAX; topo.node_count()];
        let mut node_of_device = Vec::with_capacity(topo.switch_count());
        for (i, &sw) in topo.switches().iter().enumerate() {
            device_of_node[sw.idx()] = i as u32;
            node_of_device.push(sw);
        }
        let n_devices = topo.switch_count() as u32;
        let device = |n: NodeId| match device_of_node[n.idx()] {
            u32::MAX => NO_COMP,
            d => d,
        };
        let link_rows = (0..topo.link_count() as u32)
            .map(|l| {
                let lk = topo.link(LinkId(l));
                [n_devices + l, device(lk.src), device(lk.dst)]
            })
            .collect();
        ComponentSpace {
            n_devices,
            n_links: topo.link_count() as u32,
            device_of_node,
            node_of_device,
            link_rows,
        }
    }

    /// Total number of components.
    #[inline]
    pub fn n_comps(&self) -> usize {
        (self.n_devices + self.n_links) as usize
    }

    /// Number of device components.
    #[inline]
    pub fn n_devices(&self) -> usize {
        self.n_devices as usize
    }

    /// Dense index of a link.
    #[inline]
    pub fn link_comp(&self, l: LinkId) -> CompIdx {
        debug_assert!(l.0 < self.n_links);
        self.n_devices + l.0
    }

    /// What a path crossing link `l` adds to its component row, in row
    /// order: the link, then its source and destination ends, each
    /// [`NO_COMP`] for a host (hosts are not components).
    #[inline]
    pub(crate) fn link_row(&self, l: LinkId) -> [CompIdx; 3] {
        self.link_rows[l.0 as usize]
    }

    /// Dense index of a switch device (`None` for hosts).
    #[inline]
    pub fn device_comp(&self, n: NodeId) -> Option<CompIdx> {
        match self.device_of_node.get(n.idx()) {
            Some(&d) if d != u32::MAX => Some(d),
            _ => None,
        }
    }

    /// Whether a dense index denotes a device.
    #[inline]
    pub fn is_device(&self, c: CompIdx) -> bool {
        c < self.n_devices
    }

    /// Dense index of an arbitrary component (`None` for a device id that
    /// is not a switch of this topology). The inverse of
    /// [`ComponentSpace::component`]; used to seed warm-start inference
    /// from a previous epoch's predictions.
    #[inline]
    pub fn comp_of(&self, c: Component) -> Option<CompIdx> {
        match c {
            Component::Link(l) => Some(self.link_comp(l)),
            Component::Device(n) => self.device_comp(n),
        }
    }

    /// The component behind a dense index.
    #[inline]
    pub fn component(&self, c: CompIdx) -> Component {
        if self.is_device(c) {
            Component::Device(self.node_of_device[c as usize])
        } else {
            Component::Link(LinkId(c - self.n_devices))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::clos::{three_tier, ClosParams};

    #[test]
    fn roundtrip_all_components() {
        let topo = three_tier(ClosParams::tiny());
        let sp = ComponentSpace::new(&topo);
        assert_eq!(sp.n_comps(), topo.switch_count() + topo.link_count());
        for c in 0..sp.n_comps() as u32 {
            match sp.component(c) {
                Component::Device(n) => {
                    assert!(sp.is_device(c));
                    assert_eq!(sp.device_comp(n), Some(c));
                }
                Component::Link(l) => {
                    assert!(!sp.is_device(c));
                    assert_eq!(sp.link_comp(l), c);
                    let lk = topo.link(l);
                    let end = |n| sp.device_comp(n).unwrap_or(NO_COMP);
                    assert_eq!(sp.link_row(l), [c, end(lk.src), end(lk.dst)]);
                }
            }
        }
    }

    #[test]
    fn hosts_are_not_devices() {
        let topo = three_tier(ClosParams::tiny());
        let sp = ComponentSpace::new(&topo);
        for h in topo.hosts() {
            assert_eq!(sp.device_comp(*h), None);
        }
    }
}
