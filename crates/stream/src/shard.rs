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
//! paths (or host attachment links) touch the pod; for a spine shard,
//! every flow that can cross one of its spines. The spine tier is
//! itself split per spine *plane* ([`ShardKind::SpinePlane`]): a Clos
//! fabric stripes its spines into planes carrying disjoint ECMP slices
//! ([`flock_topology::SpinePlanes`]), so evidence against one plane's
//! components can only come from flows whose candidate paths cross that
//! plane — traced (known-path) traffic partitions cleanly and the
//! per-plane engines run in parallel, removing the single-spine-engine
//! critical path. Passive wide path sets may straddle planes; they are
//! routed to every plane they touch (correct, merely less reductive),
//! and the pipeline's cross-plane refinement pass
//! (`flock_stream::pipeline`) deduplicates blame when several planes
//! hypothesize from such shared evidence.

use flock_core::{ComponentSpace, Engine};
use flock_telemetry::{FlowObs, ObservationSet};
use flock_topology::{NodeRole, SpinePlanes, Topology};

/// What a shard is responsible for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ShardKind {
    /// Everything (the single-shard plan).
    All,
    /// One pod's leaves, aggs, hosts, and incident links.
    Pod(u16),
    /// The whole spine tier and its incident links (the
    /// single-spine-shard plan).
    Spine,
    /// One spine plane: its spines and their incident links.
    SpinePlane(u16),
}

/// One blame-ownership shard.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Display label (`pod3`, `spine`, `spine-p0`, `all`). Labels are
    /// unique within a plan — plane shards are numbered — so logs and
    /// merges never alias two shards.
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

    /// Whether a flow observation is relevant to this shard, given the
    /// pod/spine touch signature of its path set (see
    /// [`SetTouchIndex`]).
    pub fn relevant(&self, touch: SetTouch, prefix_touch: SetTouch) -> bool {
        self.relevant_combined(touch.union(prefix_touch))
    }

    /// [`Shard::relevant`] on an already-combined (set ∪ prefix)
    /// signature — an O(1) mask test. The pipeline derives each flow's
    /// combined signature *once* per epoch and answers every shard's
    /// relevance from it, instead of re-walking the flow's links once
    /// per shard engine (which would dominate per-plane engine cost).
    #[inline]
    pub fn relevant_combined(&self, t: SetTouch) -> bool {
        match self.kind {
            ShardKind::All => true,
            ShardKind::Pod(p) => t.pods & (1u128 << (p % 128)) != 0,
            ShardKind::Spine => t.spine,
            ShardKind::SpinePlane(p) => t.planes & (1u64 << (p % 64)) != 0,
        }
    }
}

/// Which pods, which spine planes (bitmasks) and whether the spine tier
/// at all a path set touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetTouch {
    /// Bit `p` set iff some link endpoint lies in pod `p` (mod 128).
    pub pods: u128,
    /// Bit `p` set iff some link endpoint is a spine of plane `p`
    /// (mod 64). Aliasing past 64 planes only widens a plane shard's
    /// evidence (never narrows it), so it is safe.
    pub planes: u64,
    /// Whether some link endpoint is a spine switch.
    pub spine: bool,
}

impl SetTouch {
    /// Union of two signatures (a flow's set touch ∪ prefix touch).
    #[inline]
    pub fn union(self, other: SetTouch) -> SetTouch {
        SetTouch {
            pods: self.pods | other.pods,
            planes: self.planes | other.planes,
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
    /// array loads and ORs instead of node/role/plane lookups.
    links: Vec<SetTouch>,
    /// Spine-plane membership, derived from the topology on first use.
    planes: Option<SpinePlanes>,
}

impl SetTouchIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plane membership the index derives touch signatures against
    /// (`None` until the first [`SetTouchIndex::extend`]).
    pub fn planes(&self) -> Option<&SpinePlanes> {
        self.planes.as_ref()
    }

    /// Extend the index to cover every set interned in `obs`'s arena
    /// (append-only, mirroring the arena lineage).
    pub fn extend(&mut self, topo: &Topology, obs: &ObservationSet) {
        let planes = self.planes.get_or_insert_with(|| SpinePlanes::derive(topo));
        if self.links.len() < topo.link_count() {
            self.links = (0..topo.link_count())
                .map(|li| {
                    let link = topo.link(flock_topology::LinkId(li as u32));
                    let mut touch = SetTouch::default();
                    for end in [link.src, link.dst] {
                        let node = topo.node(end);
                        if node.role == NodeRole::Spine {
                            touch.spine = true;
                            if let Some(p) = planes.plane_of(end) {
                                touch.planes |= 1u64 << (p % 64);
                            }
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
            for pid in obs.arena.set(flock_telemetry::PathSetId(sid as u32)) {
                for &l in obs.arena.path(*pid) {
                    touch = touch.union(self.links[l.0 as usize]);
                }
            }
            self.sets.push(touch);
        }
    }

    /// Touch signature of a flow: its path set plus its host-attachment
    /// prefix links. Pure table lookups — [`extend`](Self::extend) must
    /// have covered the flow's arena first.
    pub fn flow_touch(&self, _topo: &Topology, o: &FlowObs) -> (SetTouch, SetTouch) {
        let set = self.sets[o.set.0 as usize];
        let mut prefix = SetTouch::default();
        for l in o.prefix.iter().flatten() {
            prefix = prefix.union(self.links[l.0 as usize]);
        }
        (set, prefix)
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

    /// One shard per pod plus one shard per spine *plane*.
    ///
    /// Ownership: a pod shard owns the pod's switch devices and every
    /// link with an endpoint in the pod; plane shard `p` owns plane
    /// `p`'s spine devices and their incident links. Agg–spine links are
    /// owned by both their pod and their spine's plane — the result
    /// merge deduplicates. Plane membership comes from
    /// [`SpinePlanes::derive`]; on a non-striped topology that is a
    /// single plane, making this plan equivalent to
    /// [`ShardPlan::by_pod_single_spine`].
    pub fn by_pod(topo: &Topology) -> Self {
        Self::podded(topo, true)
    }

    /// One shard per pod plus a single spine shard covering the whole
    /// tier — the reference plan the plane-sharding identity tests
    /// (`plane_sharding.rs`, `state_sparsity.rs`) run through
    /// [`StreamPipeline::with_plan`](crate::StreamPipeline::with_plan);
    /// [`StreamPipeline::new`](crate::StreamPipeline::new) never picks it.
    pub fn by_pod_single_spine(topo: &Topology) -> Self {
        Self::podded(topo, false)
    }

    fn podded(topo: &Topology, plane_shards: bool) -> Self {
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
        let planes = SpinePlanes::derive(topo);
        let spine_at = shards.len();
        if plane_shards {
            for p in 0..planes.n_planes() as u16 {
                shards.push(Shard {
                    label: format!("spine-p{p}"),
                    kind: ShardKind::SpinePlane(p),
                    owned: vec![false; n],
                });
            }
        } else {
            shards.push(Shard {
                label: "spine".into(),
                kind: ShardKind::Spine,
                owned: vec![false; n],
            });
        }
        let pod_at = |p: u16| pods.binary_search(&p).expect("pod listed");
        // Shard index owning a spine node.
        let spine_shard_of = |node: flock_topology::NodeId| -> usize {
            if plane_shards {
                spine_at + planes.plane_of(node).expect("spine has a plane") as usize
            } else {
                spine_at
            }
        };

        for c in 0..n as u32 {
            match space.component(c) {
                flock_topology::Component::Device(node) => {
                    let nd = topo.node(node);
                    if nd.role == NodeRole::Spine {
                        shards[spine_shard_of(node)].owned[c as usize] = true;
                    } else if nd.pod != u16::MAX {
                        shards[pod_at(nd.pod)].owned[c as usize] = true;
                    }
                }
                flock_topology::Component::Link(l) => {
                    let link = topo.link(l);
                    for end in [link.src, link.dst] {
                        let nd = topo.node(end);
                        if nd.role == NodeRole::Spine {
                            shards[spine_shard_of(end)].owned[c as usize] = true;
                        } else if nd.pod != u16::MAX {
                            shards[pod_at(nd.pod)].owned[c as usize] = true;
                        }
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

    /// Number of spine-plane shards in the plan (0 for non-plane plans).
    pub fn spine_plane_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s.kind, ShardKind::SpinePlane(_)))
            .count()
    }

    /// Whether the plan has no shards (never true for the constructors).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// Convenience: the dense (global) component count a plan was built for
/// must match the engine's topology (the engine's *local* component
/// count is evidence-dependent and intentionally smaller).
pub fn assert_plan_matches(plan: &ShardPlan, engine: &Engine) {
    for s in &plan.shards {
        assert_eq!(
            s.owned.len(),
            engine.n_global_comps(),
            "shard plan built for a different topology"
        );
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
        assert_eq!(plan.len(), 4, "2 pods + 2 spine planes");
        assert_eq!(plan.spine_plane_count(), 2);
        assert!(plan.covers(space.n_comps()));
    }

    #[test]
    fn by_pod_single_spine_covers_every_component() {
        let topo = three_tier(ClosParams::tiny());
        let plan = ShardPlan::by_pod_single_spine(&topo);
        let space = ComponentSpace::new(&topo);
        assert_eq!(plan.len(), 3, "2 pods + spine");
        assert_eq!(plan.spine_plane_count(), 0);
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
    fn plane_shards_partition_the_spine_shard() {
        // Per-plane ownership must union to exactly the single spine
        // shard's ownership, with no component owned by two planes.
        let topo = three_tier(ClosParams {
            pods: 3,
            tors_per_pod: 2,
            aggs_per_pod: 3,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        });
        let planes_plan = ShardPlan::by_pod(&topo);
        let spine_plan = ShardPlan::by_pod_single_spine(&topo);
        let spine = spine_plan
            .shards
            .iter()
            .find(|s| s.kind == ShardKind::Spine)
            .unwrap();
        let plane_shards: Vec<&Shard> = planes_plan
            .shards
            .iter()
            .filter(|s| matches!(s.kind, ShardKind::SpinePlane(_)))
            .collect();
        assert_eq!(plane_shards.len(), 3);
        for c in 0..spine.owned.len() as u32 {
            let owners = plane_shards.iter().filter(|s| s.owns(c)).count();
            if spine.owns(c) {
                assert_eq!(owners, 1, "comp {c} owned by {owners} planes");
            } else {
                assert_eq!(owners, 0, "comp {c} outside the spine tier");
            }
        }
    }

    #[test]
    fn plane_shard_labels_never_alias() {
        // Regression guard for label collisions: every shard of a plan
        // — in particular the plane shards — must carry a distinct
        // label, since labels key log lines and bench lookups.
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
            for (i, s) in plan.shards.iter().enumerate() {
                if let ShardKind::SpinePlane(p) = s.kind {
                    assert_eq!(s.label, format!("spine-p{p}"), "shard {i}");
                }
            }
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
