//! The common interface every fault-localization scheme implements.

use flock_telemetry::ObservationSet;
use flock_topology::{Component, LinkId, Topology};
use serde::Serialize;
use std::time::Duration;

/// Output of one localization run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LocalizationResult {
    /// Components the scheme blames, most confident first.
    pub predicted: Vec<Component>,
    /// Per-predicted-component confidence score (meaning is
    /// scheme-specific: log-likelihood gain for the PGM schemes, votes for
    /// 007, estimated drop rate for NetBouncer).
    pub scores: Vec<f64>,
    /// Final (normalized) log-likelihood, for PGM schemes; 0 otherwise.
    pub log_likelihood: f64,
    /// Hypotheses examined during the search (the paper's "~3.5M
    /// hypotheses in 17 sec" accounting).
    pub hypotheses_scanned: u64,
    /// Search iterations (greedy steps, CD rounds, …).
    pub iterations: u64,
    /// Wall-clock inference time.
    pub runtime: Duration,
}

impl LocalizationResult {
    /// Predicted links only.
    pub fn predicted_links(&self) -> Vec<LinkId> {
        self.predicted
            .iter()
            .filter_map(|c| match c {
                Component::Link(l) => Some(*l),
                Component::Device(_) => None,
            })
            .collect()
    }
}

/// A fault-localization scheme: topology + observations in, blamed
/// components out.
pub trait Localizer {
    /// Human-readable scheme name (used in experiment tables).
    fn name(&self) -> String;

    /// Run inference.
    fn localize(&self, topo: &Topology, obs: &ObservationSet) -> LocalizationResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::NodeId;

    #[test]
    fn result_splits_links_and_devices() {
        let r = LocalizationResult {
            predicted: vec![
                Component::Link(LinkId(4)),
                Component::Device(NodeId(2)),
                Component::Link(LinkId(9)),
            ],
            ..Default::default()
        };
        assert_eq!(r.predicted_links(), vec![LinkId(4), LinkId(9)]);
    }
}
