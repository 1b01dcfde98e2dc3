//! Shared fault vocabulary: the components a localization scheme can blame
//! and the ground truth an evaluation compares against.

use crate::graph::{LinkId, NodeId};
use serde::Serialize;

/// A blameable network component: a directed link or a switch device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Component {
    /// A directed link.
    Link(LinkId),
    /// A switch device (§3.2's "device nodes").
    Device(NodeId),
}

/// Ground-truth failure set of a scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct GroundTruth {
    /// Links that actually failed (for device failures: the failed links
    /// of the device, used for partial-recall accounting per App. A.1).
    pub failed_links: Vec<LinkId>,
    /// Devices that actually failed.
    pub failed_devices: Vec<NodeId>,
}

impl GroundTruth {
    /// Whether the scenario has no failures at all.
    pub fn is_empty(&self) -> bool {
        self.failed_links.is_empty() && self.failed_devices.is_empty()
    }

    /// Total number of failed components.
    pub fn len(&self) -> usize {
        self.failed_links.len() + self.failed_devices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_len() {
        let mut gt = GroundTruth::default();
        assert!(gt.is_empty());
        gt.failed_links.push(LinkId(3));
        assert!(!gt.is_empty());
        assert_eq!(gt.len(), 1);
        gt.failed_devices.push(NodeId(1));
        assert_eq!(gt.len(), 2);
    }

    #[test]
    fn component_ordering_is_total() {
        let mut v = [
            Component::Device(NodeId(5)),
            Component::Link(LinkId(2)),
            Component::Link(LinkId(1)),
        ];
        v.sort();
        assert_eq!(v[0], Component::Link(LinkId(1)));
    }
}
