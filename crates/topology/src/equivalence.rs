//! Link equivalence classes under passive observation, and the
//! "theoretical maximum precision" curve of Fig. 5c.
//!
//! With passive-only telemetry a flow's path is known only as its ECMP
//! path *set*. The per-flow likelihood (Eq. 1) depends on the hypothesis
//! only through the *number* of failed paths in the set — not on which
//! member failed. Consequently two links `l1, l2` are observationally
//! indistinguishable for single-failure hypotheses whenever, for every
//! path set `S` the telemetry can produce, `l1` and `l2` appear in the
//! same number of member paths of `S`. In a symmetric Clos all parallel
//! uplinks of a ToR share this signature (they appear in exactly the same
//! path sets the same number of times), which is why Flock(P)'s precision
//! is bounded away from 1 there; omitting links breaks the symmetry and
//! shrinks the classes (§7.6).
//!
//! [`EquivalenceClasses::compute`] builds the signature map for a given
//! collection of path sets, and [`EquivalenceClasses::max_precision`]
//! computes the expected best-case precision `E_l[1/|class(l)|]` over the
//! candidate links: an ideal passive localizer can at best emit the whole
//! class containing the true failed link.

use crate::graph::LinkId;
use std::collections::HashMap;

/// Signature of a link: for every observed path set (identified by index),
/// how many member paths contain the link. Only non-zero entries are kept,
/// sorted by path-set index, so equal vectors mean equal signatures.
pub type LinkSignature = Vec<(u32, u32)>;

/// Partition of links into observational equivalence classes.
#[derive(Debug, Clone)]
pub struct EquivalenceClasses {
    /// Class id per link (dense, `usize::MAX` for links that appear in no
    /// observed path set — those are unlocalizable by passive telemetry).
    class_of: Vec<usize>,
    /// Members of each class.
    classes: Vec<Vec<LinkId>>,
}

impl EquivalenceClasses {
    /// Compute equivalence classes from a collection of path sets.
    ///
    /// `link_count` is the total number of links in the topology;
    /// `path_sets` yields, per observable flow population, the member
    /// paths of its ECMP path set.
    pub fn compute<'a, I, J>(link_count: usize, path_sets: I) -> Self
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = &'a [LinkId]>,
    {
        let mut sigs: Vec<LinkSignature> = vec![Vec::new(); link_count];
        for (set_idx, set) in path_sets.into_iter().enumerate() {
            let mut counts: HashMap<LinkId, u32> = HashMap::new();
            for path in set {
                for l in path {
                    *counts.entry(*l).or_insert(0) += 1;
                }
            }
            for (l, c) in counts {
                sigs[l.idx()].push((set_idx as u32, c));
            }
        }
        // Signatures were appended in increasing set index order already,
        // so they are canonical as-is.
        let mut class_ids: HashMap<&LinkSignature, usize> = HashMap::new();
        let mut classes: Vec<Vec<LinkId>> = Vec::new();
        let mut class_of = vec![usize::MAX; link_count];
        for (idx, sig) in sigs.iter().enumerate() {
            if sig.is_empty() {
                continue;
            }
            let next = classes.len();
            let cid = *class_ids.entry(sig).or_insert(next);
            if cid == classes.len() {
                classes.push(Vec::new());
            }
            classes[cid].push(LinkId(idx as u32));
            class_of[idx] = cid;
        }
        EquivalenceClasses { class_of, classes }
    }

    /// The class containing `link`, if the link is observable.
    pub fn class_of(&self, link: LinkId) -> Option<&[LinkId]> {
        match self.class_of.get(link.idx()) {
            Some(&cid) if cid != usize::MAX => Some(&self.classes[cid]),
            _ => None,
        }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// All classes.
    pub fn classes(&self) -> &[Vec<LinkId>] {
        &self.classes
    }

    /// Expected best-case precision over `candidates`: the mean of
    /// `1/|class(l)|`, treating unobservable links as precision 0.
    ///
    /// This is the "theoretical max precision" series of Fig. 5c: an ideal
    /// passive localizer must emit the whole equivalence class of the true
    /// failed link, so its precision on that trace is `1/|class|`.
    pub fn max_precision(&self, candidates: &[LinkId]) -> f64 {
        if candidates.is_empty() {
            return 0.0;
        }
        let sum: f64 = candidates
            .iter()
            .map(|l| match self.class_of(*l) {
                Some(c) => 1.0 / c.len() as f64,
                None => 0.0,
            })
            .sum();
        sum / candidates.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clos::{three_tier, ClosParams};
    use crate::graph::{NodeId, NodeRole};
    use crate::irregular::omit_links_routable;
    use crate::routing::{PathSetHandle, Router};

    fn leaf_pairs_pathsets(topo: &crate::graph::Topology) -> (Vec<PathSetHandle>, Vec<LinkId>) {
        let router = Router::new(topo);
        let leaves: Vec<NodeId> = topo
            .switches()
            .iter()
            .copied()
            .filter(|s| topo.node(*s).role == NodeRole::Leaf)
            .collect();
        let mut sets = Vec::new();
        for a in &leaves {
            for b in &leaves {
                if a != b {
                    sets.push(router.paths(*a, *b));
                }
            }
        }
        (sets, topo.fabric_links())
    }

    #[test]
    fn symmetric_clos_has_nontrivial_classes() {
        let topo = three_tier(ClosParams::tiny());
        let (sets, fabric) = leaf_pairs_pathsets(&topo);
        let eq = EquivalenceClasses::compute(topo.link_count(), sets.iter().map(|s| s.iter()));
        // In the tiny Clos, the two tor→agg uplinks of a ToR are symmetric
        // (each appears once per path set containing the ToR), so some
        // class must have >1 member.
        let max_class = eq.classes().iter().map(|c| c.len()).max().unwrap();
        assert!(
            max_class > 1,
            "expected symmetric links, classes all singleton"
        );
        let p = eq.max_precision(&fabric);
        assert!(
            p > 0.0 && p < 1.0,
            "precision {p} should be strictly inside (0,1)"
        );
    }

    #[test]
    fn irregularity_improves_max_precision() {
        let topo = three_tier(ClosParams::ns3_scale());
        let (sets, fabric) = leaf_pairs_pathsets(&topo);
        let eq = EquivalenceClasses::compute(topo.link_count(), sets.iter().map(|s| s.iter()));
        let p_regular = eq.max_precision(&fabric);

        let (irr, _) = omit_links_routable(&topo, 0.10, 11, 8).unwrap();
        let (sets2, fabric2) = leaf_pairs_pathsets(&irr);
        let eq2 = EquivalenceClasses::compute(irr.link_count(), sets2.iter().map(|s| s.iter()));
        let p_irregular = eq2.max_precision(&fabric2);
        assert!(
            p_irregular > p_regular,
            "irregular {p_irregular} should beat regular {p_regular}"
        );
    }

    #[test]
    fn unobserved_links_have_no_class() {
        let topo = three_tier(ClosParams::tiny());
        // No path sets at all: everything unobservable.
        let eq = EquivalenceClasses::compute(topo.link_count(), Vec::<Vec<&[LinkId]>>::new());
        assert_eq!(eq.class_count(), 0);
        assert!(eq.class_of(LinkId(0)).is_none());
        assert_eq!(eq.max_precision(&topo.fabric_links()), 0.0);
    }

    #[test]
    fn classes_partition_observed_links() {
        let topo = three_tier(ClosParams::tiny());
        let (sets, _) = leaf_pairs_pathsets(&topo);
        let eq = EquivalenceClasses::compute(topo.link_count(), sets.iter().map(|s| s.iter()));
        let mut seen = std::collections::HashSet::new();
        for class in eq.classes() {
            for l in class {
                assert!(seen.insert(*l), "link {l:?} in two classes");
                assert_eq!(eq.class_of(*l).unwrap(), class.as_slice());
            }
        }
    }
}
