//! Component-space sharding for the per-epoch executor.
//!
//! A [`ShardPlan`] partitions blame *ownership* over the component space:
//! each shard may blame only the components it owns, so merged results
//! never double-report. Ownership overlaps at pod boundaries (an
//! agg–spine link belongs to its pod shard; its spine endpoint to the
//! spine tier) — the merge deduplicates by component.
//!
//! Each shard localizes over the subset of observations that can
//! implicate its components: for a pod shard, every flow whose possible
//! paths (or host attachment links) touch the pod; for the spine shard,
//! every flow that can cross the spine tier.

use flock_core::ComponentSpace;
use flock_telemetry::{FlowObs, ObservationSet};
use flock_topology::{NodeRole, Topology};

/// What a shard is responsible for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ShardKind {
    /// Everything (the single-shard plan).
    All,
    /// One pod's leaves, aggs, hosts, and incident links.
    Pod(u16),
    /// The whole spine tier and its incident links.
    Spine,
}

/// One blame-ownership shard.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Display label (`pod3`, `spine`, `all`), unique within a plan, so
    /// logs and merges never alias two shards.
    pub label: String,
    /// The region this shard covers.
    pub kind: ShardKind,
    /// `owned[c]` — whether dense component `c` may be blamed by this
    /// shard.
    pub owned: Vec<bool>,
}

impl Shard {
    /// Whether this shard owns dense component index `c`.
    #[inline]
    pub fn owns(&self, c: u32) -> bool {
        self.owned[c as usize]
    }

    /// Whether a flow observation is relevant to this shard, given its
    /// combined (set ∪ prefix) touch signature
    /// ([`SetTouchIndex::flow_touch`]) — an O(1) mask test. The pipeline
    /// derives each flow's combined signature *once* per epoch and
    /// answers every shard's relevance from it, instead of re-walking
    /// the flow's links once per shard.
    #[inline]
    pub fn relevant_combined(&self, t: SetTouch) -> bool {
        match self.kind {
            ShardKind::All => true,
            ShardKind::Pod(p) => t.pods & (1u128 << (p % 128)) != 0,
            ShardKind::Spine => t.spine,
        }
    }
}

/// Which pods (bitmask) and whether the spine tier at all a path set
/// touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetTouch {
    /// Bit `p` set iff some link endpoint lies in pod `p` (mod 128).
    pub pods: u128,
    /// Whether some link endpoint is a spine switch.
    pub spine: bool,
}

impl SetTouch {
    /// Union of two signatures.
    #[inline]
    pub fn union(self, other: SetTouch) -> SetTouch {
        SetTouch {
            pods: self.pods | other.pods,
            spine: self.spine || other.spine,
        }
    }
}

/// Per-set touch signatures, extended lazily as the shared arena grows.
#[derive(Debug, Default)]
pub struct SetTouchIndex {
    sets: Vec<SetTouch>,
    /// Per-link touch signature (both endpoints), built once per
    /// topology: set extension and per-flow prefix signatures reduce to
    /// array loads and ORs instead of node/role lookups.
    links: Vec<SetTouch>,
}

impl SetTouchIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extend the index to cover every set interned in `obs`'s arena
    /// (append-only, mirroring the arena lineage).
    pub fn extend(&mut self, topo: &Topology, obs: &ObservationSet) {
        if self.links.len() < topo.link_count() {
            self.links = (0..topo.link_count())
                .map(|li| {
                    let link = topo.link(flock_topology::LinkId(li as u32));
                    let mut touch = SetTouch::default();
                    for end in [link.src, link.dst] {
                        let node = topo.node(end);
                        if node.role == NodeRole::Spine {
                            touch.spine = true;
                        } else if node.pod != u16::MAX {
                            touch.pods |= 1u128 << (node.pod % 128);
                        }
                    }
                    touch
                })
                .collect();
        }
        for sid in self.sets.len()..obs.arena.set_count() {
            let mut touch = SetTouch::default();
            let set = obs.arena.members(flock_telemetry::PathSetId(sid as u32));
            for &l in set.iter().flatten() {
                touch = touch.union(self.links[l.0 as usize]);
            }
            self.sets.push(touch);
        }
    }

    /// Combined touch signature of a flow: its path set's plus its
    /// host-attachment prefix links'. Pure table lookups —
    /// [`extend`](Self::extend) must have covered the flow's arena
    /// first.
    pub fn flow_touch(&self, o: &FlowObs) -> SetTouch {
        let mut touch = self.sets[o.set.0 as usize];
        for l in o.prefix.iter().flatten() {
            touch = touch.union(self.links[l.0 as usize]);
        }
        touch
    }
}

/// A blame-ownership partition of the component space.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The shards, in execution order.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// One shard owning every component (no sharding).
    pub fn single(topo: &Topology) -> Self {
        let space = ComponentSpace::new(topo);
        ShardPlan {
            shards: vec![Shard {
                label: "all".into(),
                kind: ShardKind::All,
                owned: vec![true; space.n_comps()],
            }],
        }
    }

    /// One shard per pod plus one shard for the whole spine tier.
    ///
    /// Ownership: a pod shard owns the pod's switch devices and every
    /// link with an endpoint in the pod; the spine shard owns the spine
    /// devices and their incident links. Agg–spine links are owned by
    /// both their pod and the spine shard — the result merge
    /// deduplicates.
    pub fn by_pod(topo: &Topology) -> Self {
        let space = ComponentSpace::new(topo);
        let n = space.n_comps();
        let mut pods: Vec<u16> = topo
            .nodes()
            .map(|(_, node)| node.pod)
            .filter(|&p| p != u16::MAX)
            .collect();
        pods.sort_unstable();
        pods.dedup();

        let mut shards: Vec<Shard> = pods
            .iter()
            .map(|&p| Shard {
                label: format!("pod{p}"),
                kind: ShardKind::Pod(p),
                owned: vec![false; n],
            })
            .collect();
        let spine_at = shards.len();
        shards.push(Shard {
            label: "spine".into(),
            kind: ShardKind::Spine,
            owned: vec![false; n],
        });
        // Shard index owning a node: the spine shard for a spine, its
        // pod's shard for a podded node, none otherwise.
        let owner = |node: flock_topology::NodeId| -> Option<usize> {
            let nd = topo.node(node);
            if nd.role == NodeRole::Spine {
                Some(spine_at)
            } else if nd.pod != u16::MAX {
                Some(pods.binary_search(&nd.pod).expect("pod listed"))
            } else {
                None
            }
        };

        for c in 0..n as u32 {
            match space.component(c) {
                flock_topology::Component::Device(node) => {
                    if let Some(s) = owner(node) {
                        shards[s].owned[c as usize] = true;
                    }
                }
                flock_topology::Component::Link(l) => {
                    let link = topo.link(l);
                    for s in [link.src, link.dst].into_iter().filter_map(owner) {
                        shards[s].owned[c as usize] = true;
                    }
                }
            }
        }
        ShardPlan { shards }
    }

    /// Sanity check: every component is owned by at least one shard.
    pub fn covers(&self, engine_comps: usize) -> bool {
        (0..engine_comps).all(|c| self.shards.iter().any(|s| s.owned[c]))
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the plan has no shards (never true for the constructors).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::clos::{three_tier, ClosParams};

    #[test]
    fn by_pod_covers_every_component() {
        let topo = three_tier(ClosParams::tiny());
        let plan = ShardPlan::by_pod(&topo);
        let space = ComponentSpace::new(&topo);
        assert_eq!(plan.len(), 3, "2 pods + spine");
        assert_eq!(plan.shards[2].kind, ShardKind::Spine);
        assert!(plan.covers(space.n_comps()));
    }

    #[test]
    fn by_pod_single_spine_covers_every_component() {
        // The whole spine tier is one shard: it owns every spine device
        // and every spine-incident link, and no pod shard owns a spine.
        let topo = three_tier(ClosParams::tiny());
        let plan = ShardPlan::by_pod(&topo);
        let space = ComponentSpace::new(&topo);
        let spines: Vec<&Shard> = plan
            .shards
            .iter()
            .filter(|s| s.kind == ShardKind::Spine)
            .collect();
        assert_eq!(spines.len(), 1, "one spine shard");
        let is_spine = |n: flock_topology::NodeId| topo.node(n).role == NodeRole::Spine;
        for c in 0..space.n_comps() as u32 {
            let (spine_comp, spine_device) = match space.component(c) {
                flock_topology::Component::Device(n) => (is_spine(n), is_spine(n)),
                flock_topology::Component::Link(l) => {
                    let link = topo.link(l);
                    (is_spine(link.src) || is_spine(link.dst), false)
                }
            };
            if spine_comp {
                assert!(spines[0].owns(c), "spine comp {c} not in the spine shard");
            }
            if spine_device {
                assert!(
                    plan.shards.iter().filter(|s| s.owns(c)).count() == 1,
                    "spine device {c} owned by a pod shard"
                );
            }
        }
        assert!(plan.covers(space.n_comps()));
    }

    #[test]
    fn pod_shards_do_not_own_foreign_pods() {
        let topo = three_tier(ClosParams::tiny());
        let plan = ShardPlan::by_pod(&topo);
        let space = ComponentSpace::new(&topo);
        for shard in &plan.shards {
            let ShardKind::Pod(p) = shard.kind else {
                continue;
            };
            for c in 0..space.n_comps() as u32 {
                if !shard.owns(c) {
                    continue;
                }
                // Every owned component touches pod p.
                let touches = match space.component(c) {
                    flock_topology::Component::Device(n) => topo.node(n).pod == p,
                    flock_topology::Component::Link(l) => {
                        let link = topo.link(l);
                        topo.node(link.src).pod == p || topo.node(link.dst).pod == p
                    }
                };
                assert!(touches, "comp {c} owned by pod{p} but outside it");
            }
        }
    }

    #[test]
    fn plane_shard_labels_never_alias() {
        // Labels key log lines and bench lookups, so every shard of a
        // plan must carry a distinct one — on fabrics striped into 2 and
        // 4 spine planes and on a single-plane leaf-spine alike, where
        // the spine tier is always one `spine` shard.
        for topo in [
            three_tier(ClosParams::tiny()),
            three_tier(ClosParams {
                pods: 4,
                tors_per_pod: 2,
                aggs_per_pod: 4,
                spines_per_plane: 2,
                hosts_per_tor: 2,
            }),
            flock_topology::clos::leaf_spine(flock_topology::LeafSpineParams::testbed()),
        ] {
            let plan = ShardPlan::by_pod(&topo);
            let mut labels: Vec<&str> = plan.shards.iter().map(|s| s.label.as_str()).collect();
            let total = labels.len();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), total, "duplicate shard label in {labels:?}");
            let spines: Vec<&Shard> = plan
                .shards
                .iter()
                .filter(|s| s.kind == ShardKind::Spine)
                .collect();
            assert_eq!(spines.len(), 1);
            assert_eq!(spines[0].label, "spine");
        }
    }

    #[test]
    fn single_plan_owns_all() {
        let topo = three_tier(ClosParams::tiny());
        let plan = ShardPlan::single(&topo);
        let space = ComponentSpace::new(&topo);
        assert_eq!(plan.len(), 1);
        assert!(plan.covers(space.n_comps()));
        assert!(!plan.is_empty());
    }
}
