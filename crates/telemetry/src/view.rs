//! Arena views: dense local projections of a
//! [`PathArena`](crate::input::PathArena).
//!
//! A sharded executor runs one inference engine per shard, each over the
//! subset of the epoch's observations the shard accepts. The shared
//! `PathArena` interns *every* shard's paths and sets, so an engine
//! indexing its per-set state by arena set ids pays O(total arena) fixed
//! costs every epoch — set resets on rebind, all-sets sweeps, strided
//! access over arena-indexed arrays — even when its own evidence is a
//! small slice. An [`ArenaView`] removes that coupling: it projects the
//! global arena onto the sets one engine's accepted observations actually
//! touch, with **dense local ids** and a local↔global set remap, so
//! everything the engine allocates and iterates can be sized by its own
//! evidence instead of the fleet's. The view remaps sets only: the
//! member paths of a projected set are the arena's, read through the
//! set.
//!
//! # Ownership and lineage rules
//!
//! * A view is a private field of the engine whose local ids it assigns
//!   (`flock_core::Engine`): the engine creates it, is the only caller of
//!   [`ArenaView::bind_epoch`], and lends it out read-only. Pairing an
//!   engine with another engine's view is unrepresentable, and dropping
//!   the engine drops the projection with it.
//! * A view binds to one arena **lineage**
//!   ([`ArenaSnapshot::lineage`](crate::input::ArenaSnapshot::lineage))
//!   on first use and is append-only from then on, mirroring the arena's
//!   own contract: local ids, once assigned, permanently denote the same
//!   global set, so the engine's per-set structures stay valid across
//!   epochs without re-translation.
//! * What a view is offered each epoch is an
//!   [`ArenaSnapshot`](crate::input::ArenaSnapshot) — the
//!   arena's content as of that epoch's assembly. A lineage has one
//!   writer (`PathArena` is not `Clone`), so successive snapshots of
//!   it only ever grow.
//! * [`ArenaView::bind_epoch`] *validates* the snapshot each epoch and
//!   rejects a foreign-lineage one, or one older than a snapshot the
//!   view has already bound (`ArenaShrunk`), with a typed [`ViewError`]
//!   before it changes anything — a real error path, not a
//!   `debug_assert`, so release builds cannot silently misindex.
//!
//! # Local-vs-global id conventions
//!
//! Local ids are plain `u32`s dense in `0..n`, assigned in first-touch
//! order: a set's local id when it is first projected. Global set ids
//! keep their [`PathSetId`] newtype; APIs on this type take and return
//! it at the boundary (`local_set(PathSetId)`, `global_set(local) ->
//! PathSetId`) so the two spaces cannot be confused silently. Member `i`
//! of local set `s` has the links `arena.members(global_set(s))[i]`. Only
//! sets are remapped: an engine indexes components by the topology's own
//! dense component ids, which every shard's evidence spans nearly whole.

use crate::input::{ObservationSet, PathSetId};

/// Why a view refused to bind an observation set. Both cases mean the
/// caller handed state from a different stream (or an older snapshot
/// than one already bound), which would silently scramble every
/// local↔global mapping if accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewError {
    /// The arena's lineage token differs from the one the view bound at
    /// first use: ids interned against one arena are meaningless against
    /// the other.
    ForeignLineage {
        /// Lineage the view is bound to.
        expected: u64,
        /// Lineage of the offered arena.
        got: u64,
    },
    /// The snapshot has fewer sets than one the view has already bound
    /// — arenas are append-only (a set and its paths are appended
    /// together), so it is an *earlier* state of the bound lineage, not
    /// a later one.
    ArenaShrunk {
        /// Sets the view has seen.
        seen_sets: usize,
        /// Sets in the offered arena.
        got_sets: usize,
    },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::ForeignLineage { expected, got } => write!(
                f,
                "arena lineage {got} does not extend the view's bound lineage {expected}"
            ),
            ViewError::ArenaShrunk {
                seen_sets,
                got_sets,
            } => write!(
                f,
                "arena shrank below the view's coverage (sets {got_sets} < {seen_sets})"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

/// "No local id" in [`ArenaView`]'s global→local table.
const NONE: u32 = u32::MAX;

/// A persistent, incrementally-extended projection of one engine's slice
/// of a global [`PathArena`](crate::input::PathArena). See the module
/// docs for the ownership and id conventions.
#[derive(Debug, Default)]
pub struct ArenaView {
    /// Lineage of the bound arena (`None` until the first bind).
    lineage: Option<u64>,
    /// Global set id → local id ([`NONE`] = not projected), covering
    /// the whole arena (it is id-width, not content-width — the dense
    /// structures an engine sizes by view counts are what sparsity is
    /// about).
    to_local: Vec<u32>,
    /// Local set id → global set id, in first-touch order.
    to_global: Vec<u32>,
    /// Arena sets at the last successful bind.
    seen_sets: usize,
}

impl ArenaView {
    /// An empty, unbound view.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arena lineage this view is bound to (`None` before first
    /// bind).
    pub fn lineage(&self) -> Option<u64> {
        self.lineage
    }

    /// Number of locally-projected sets.
    pub fn n_sets(&self) -> usize {
        self.to_global.len()
    }

    /// Local id of a global set, if projected.
    #[inline]
    pub fn local_set(&self, g: PathSetId) -> Option<u32> {
        match self.to_local.get(g.0 as usize) {
            Some(&l) if l != NONE => Some(l),
            _ => None,
        }
    }

    /// Global set behind a local id.
    #[inline]
    pub fn global_set(&self, local: u32) -> PathSetId {
        PathSetId(self.to_global[local as usize])
    }

    /// Validate `obs`'s arena against the bound lineage, then extend the
    /// projection with any set an accepted observation touches for the
    /// first time. `accepted` holds the
    /// indices (into `obs.flows`) of the observations the engine takes
    /// this epoch — executors derive them for every shard in one pass
    /// over the epoch's touch signatures, so the bind on the inference
    /// critical path is O(accepted), not O(observations). On error the
    /// view is unchanged.
    pub fn bind_epoch(&mut self, obs: &ObservationSet, accepted: &[u32]) -> Result<(), ViewError> {
        let arena = &obs.arena;
        if let Some(expected) = self.lineage.filter(|&l| l != arena.lineage()) {
            return Err(ViewError::ForeignLineage {
                expected,
                got: arena.lineage(),
            });
        }
        if arena.set_count() < self.seen_sets {
            return Err(ViewError::ArenaShrunk {
                seen_sets: self.seen_sets,
                got_sets: arena.set_count(),
            });
        }
        self.lineage = Some(arena.lineage());
        if self.to_local.len() < arena.set_count() {
            self.to_local.resize(arena.set_count(), NONE);
        }
        for &i in accepted {
            let g = obs.flows[i as usize].set.0;
            let slot = &mut self.to_local[g as usize];
            if *slot == NONE {
                *slot = self.to_global.len() as u32;
                self.to_global.push(g);
            }
        }
        self.seen_sets = arena.set_count();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{AnalysisMode, FlowObs, PathArena};
    use flock_topology::{LinkId, PathSet};

    /// An observation set over `arena`'s current content.
    fn obs_with(arena: &PathArena, sets: &[PathSetId]) -> ObservationSet {
        let flows = sets
            .iter()
            .map(|&s| FlowObs {
                prefix: [None, None],
                set: s,
                sent: 10,
                bad: 0,
                weight: 1,
            })
            .collect();
        ObservationSet {
            arena: arena.snapshot(),
            flows,
            mode: AnalysisMode::PerPacket,
        }
    }

    fn links(ids: &[u32]) -> Vec<LinkId> {
        ids.iter().map(|&i| LinkId(i)).collect()
    }

    #[test]
    fn projection_is_dense_and_stable_across_epochs() {
        let mut arena = PathArena::new();
        let s0 = arena.intern_single(&links(&[0, 1]));
        let s1 = arena.intern_single(&links(&[2, 3]));
        let obs1 = obs_with(&arena, &[s1, s0, s1]);

        let mut view = ArenaView::new();
        view.bind_epoch(&obs1, &[0, 1, 2]).unwrap();
        assert_eq!(view.n_sets(), 2);
        // First-touch order: s1 before s0.
        assert_eq!(view.local_set(s1), Some(0));
        assert_eq!(view.local_set(s0), Some(1));
        assert_eq!(view.global_set(0), s1);

        // Epoch 2: the arena grows; previously assigned locals persist,
        // and a new set takes the next local id.
        let s2 = arena.intern_set(PathSet::from_paths([links(&[4]), links(&[5]), links(&[6])]));
        let obs2 = obs_with(&arena, &[s2, s0]);
        view.bind_epoch(&obs2, &[0, 1]).unwrap();
        assert_eq!(view.n_sets(), 3);
        assert_eq!(view.local_set(s1), Some(0), "locals are stable");
        assert_eq!(view.local_set(s0), Some(1));
        assert_eq!(view.local_set(s2), Some(2));
        for s in 0..view.n_sets() as u32 {
            assert_eq!(view.local_set(view.global_set(s)), Some(s), "set {s}");
        }
    }

    #[test]
    fn filter_restricts_projection() {
        let mut arena = PathArena::new();
        let s0 = arena.intern_single(&links(&[0]));
        let s1 = arena.intern_single(&links(&[1]));
        let obs = obs_with(&arena, &[s0, s1, s0]);
        let mut view = ArenaView::new();
        view.bind_epoch(&obs, &[0, 2]).unwrap();
        assert_eq!(view.n_sets(), 1, "the filtered-out set is unprojected");
        assert_eq!(view.local_set(s1), None);
    }

    #[test]
    fn foreign_lineage_is_a_typed_error() {
        let mut a = PathArena::new();
        let s = a.intern_single(&links(&[0]));
        let obs_a = obs_with(&a, &[s]);
        let mut view = ArenaView::new();
        view.bind_epoch(&obs_a, &[0]).unwrap();

        let mut b = PathArena::new();
        let sb = b.intern_single(&links(&[0]));
        let obs_b = obs_with(&b, &[sb]);
        let err = view.bind_epoch(&obs_b, &[0]).unwrap_err();
        assert!(matches!(err, ViewError::ForeignLineage { .. }), "{err}");
        // The view still works against its own lineage.
        view.bind_epoch(&obs_a, &[0]).unwrap();
    }

    #[test]
    fn shrunk_arena_is_a_typed_error() {
        // An older snapshot of one arena offered after a newer one: an
        // earlier state of the same lineage.
        let mut arena = PathArena::new();
        let s0 = arena.intern_single(&links(&[0]));
        let s1 = arena.intern_single(&links(&[1]));
        let obs_small = obs_with(&arena, &[s0]);
        arena.intern_single(&links(&[2]));
        let obs_big = obs_with(&arena, &[s0, s1]);

        let mut view = ArenaView::new();
        view.bind_epoch(&obs_big, &[0, 1]).unwrap();
        let err = view.bind_epoch(&obs_small, &[0]).unwrap_err();
        assert!(matches!(err, ViewError::ArenaShrunk { .. }), "{err}");
        // The view is unchanged and still binds the newer snapshot.
        view.bind_epoch(&obs_big, &[0, 1]).unwrap();
    }
}
