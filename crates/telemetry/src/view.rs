//! Per-shard arena views: dense local projections of a
//! [`PathArena`](crate::input::PathArena).
//!
//! A sharded executor runs one inference engine per shard, each over the
//! subset of the epoch's observations its relevance filter accepts. The
//! shared `PathArena` interns *every* shard's paths and sets, so an
//! engine indexing its state by global ids pays O(total arena) fixed
//! costs every epoch — full-array resets on rebind, all-sets sweeps,
//! strided access over globally-indexed arrays — even when its own
//! evidence is a small slice. An [`ArenaView`] removes that coupling:
//! it projects the global arena onto the paths and sets one shard's
//! accepted observations actually touch, with **dense local ids** and
//! local↔global remap tables, so everything an engine allocates and
//! iterates can be sized by the shard's evidence instead of the fleet's.
//!
//! # Ownership and lineage rules
//!
//! * A view binds to one arena **lineage** ([`ArenaSnapshot::lineage`])
//!   on first use and is append-only from then on, mirroring the arena's
//!   own contract: local ids, once assigned, permanently denote the same
//!   global path/set. Holders of local ids (an engine's per-path and
//!   per-set structures, a warm-start hypothesis) stay valid across
//!   epochs without re-translation.
//! * What a view is offered each epoch is an [`ArenaSnapshot`] — the
//!   arena's content as of that epoch's assembly. A lineage has one
//!   writer (`PathArena` is not `Clone`), so successive snapshots of
//!   it only ever grow.
//! * [`ArenaView::bind_epoch`] *validates* the snapshot each epoch and
//!   rejects a foreign-lineage one, or one older than a snapshot the
//!   view has already bound (`ArenaShrunk`), with a typed [`ViewError`]
//!   — a real error path, not a `debug_assert`, so release builds cannot
//!   silently misindex.
//! * One view serves one shard. The view records which observations the
//!   shard accepted *this epoch* ([`ArenaView::epoch_flows`]); the
//!   projection itself (`sets`/`paths` tables) persists and only grows.
//!
//! # Local-vs-global id conventions
//!
//! Local ids are plain `u32`s dense in `0..n`, assigned in first-touch
//! order. Global ids keep their [`PathId`]/[`PathSetId`] newtypes. APIs
//! on this type take and return global newtypes at the boundary
//! (`local_set(PathSetId)`, `global_path(local) -> PathId`) so the two
//! spaces cannot be confused silently; engines built over a view follow
//! the same convention (dense local component ids internally, global
//! [`Component`](flock_topology::Component)s at report time).

use crate::input::{ArenaSnapshot, FlowObs, ObservationSet, PathId, PathSetId};

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
    /// The snapshot has fewer paths or sets than one the view has
    /// already bound — arenas are append-only, so it is an *earlier*
    /// state of the bound lineage, not a later one.
    ArenaShrunk {
        /// Paths/sets the view has seen.
        seen_paths: usize,
        /// Sets the view has seen.
        seen_sets: usize,
        /// Paths in the offered arena.
        got_paths: usize,
        /// Sets in the offered arena.
        got_sets: usize,
    },
    /// A consumer of local ids (an engine) was offered a different view
    /// than the one its structures were built over: local ids are only
    /// meaningful against the view that assigned them.
    ForeignView {
        /// View identity the consumer is bound to.
        expected: u64,
        /// Identity of the offered view.
        got: u64,
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
                seen_paths,
                seen_sets,
                got_paths,
                got_sets,
            } => write!(
                f,
                "arena shrank below the view's coverage \
                 (paths {got_paths} < {seen_paths} or sets {got_sets} < {seen_sets})"
            ),
            ViewError::ForeignView { expected, got } => write!(
                f,
                "view {got} is not the view ({expected}) these local ids were assigned by"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

const NONE: u32 = u32::MAX;

/// A dense first-touch remap between one global id space and local ids:
/// `local(g)` answers from a global-width sentinel table, `assign(g)`
/// hands out the next dense id on first touch, `global(l)` inverts.
/// One implementation serves every localization in the suite — the
/// view's path and set projections here, and the engine's component
/// localization in `flock-core` — so invariants (sentinel handling,
/// id-width growth, a future compaction pass) live in one place.
#[derive(Debug, Clone, Default)]
pub struct DenseRemap {
    /// Global id → local id (`u32::MAX` = unassigned).
    to_local: Vec<u32>,
    /// Local id → global id.
    to_global: Vec<u32>,
}

impl DenseRemap {
    /// An empty remap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Widen the global-id side to cover ids `0..n` (no local ids are
    /// assigned).
    pub fn ensure_ids(&mut self, n: usize) {
        if self.to_local.len() < n {
            self.to_local.resize(n, NONE);
        }
    }

    /// Number of assigned local ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Whether no local ids have been assigned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }

    /// Local id of `g`, if assigned.
    #[inline]
    pub fn local(&self, g: u32) -> Option<u32> {
        match self.to_local.get(g as usize) {
            Some(&l) if l != NONE => Some(l),
            _ => None,
        }
    }

    /// Global id behind local id `l`.
    #[inline]
    pub fn global(&self, l: u32) -> u32 {
        self.to_global[l as usize]
    }

    /// The full local→global table as a contiguous slice, indexed by
    /// local id. Vectorized scans (e.g. the greedy argmax kernels, which
    /// break gain ties toward the smallest *global* id) read this
    /// directly instead of calling [`DenseRemap::global`] per element.
    #[inline]
    pub fn globals(&self) -> &[u32] {
        &self.to_global
    }

    /// Local id of `g`, assigning the next dense id on first touch.
    /// `g` must be covered by [`DenseRemap::ensure_ids`].
    #[inline]
    pub fn assign(&mut self, g: u32) -> u32 {
        let slot = &mut self.to_local[g as usize];
        if *slot == NONE {
            *slot = self.to_global.len() as u32;
            self.to_global.push(g);
        }
        *slot
    }
}

/// A persistent, incrementally-extended projection of one shard's slice
/// of a global [`PathArena`](crate::input::PathArena). See the module docs for the ownership and
/// id conventions.
#[derive(Debug)]
pub struct ArenaView {
    /// Process-unique identity token. Lets holders of local ids
    /// (engines) verify a view is the one that assigned them; cloning
    /// stamps a *fresh* token, because two clones that diverge after the
    /// copy assign conflicting local ids — a clone serves a new
    /// consumer, never an existing engine.
    id: u64,
    /// Lineage of the bound arena (`None` until the first bind).
    lineage: Option<u64>,
    /// Global↔local path projection.
    paths: DenseRemap,
    /// Global↔local set projection.
    sets: DenseRemap,
    /// Arena growth watermarks at the last successful bind.
    seen_paths: usize,
    seen_sets: usize,
    /// Indices (into `obs.flows`) of the observations the shard's filter
    /// accepted this epoch, in observation order (preserving the
    /// assembler's evidence-key sort, which coalescing relies on).
    epoch_flows: Vec<u32>,
}

impl Clone for ArenaView {
    fn clone(&self) -> Self {
        ArenaView {
            id: next_view_id(),
            lineage: self.lineage,
            paths: self.paths.clone(),
            sets: self.sets.clone(),
            seen_paths: self.seen_paths,
            seen_sets: self.seen_sets,
            epoch_flows: self.epoch_flows.clone(),
        }
    }
}

fn next_view_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

impl Default for ArenaView {
    fn default() -> Self {
        ArenaView {
            id: next_view_id(),
            lineage: None,
            paths: DenseRemap::new(),
            sets: DenseRemap::new(),
            seen_paths: 0,
            seen_sets: 0,
            epoch_flows: Vec::new(),
        }
    }
}

impl ArenaView {
    /// An empty, unbound view.
    pub fn new() -> Self {
        Self::default()
    }

    /// The view's process-unique identity token.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The arena lineage this view is bound to (`None` before first
    /// bind).
    pub fn lineage(&self) -> Option<u64> {
        self.lineage
    }

    /// Number of locally-projected paths.
    pub fn n_paths(&self) -> usize {
        self.paths.len()
    }

    /// Number of locally-projected sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Local id of a global set, if projected.
    #[inline]
    pub fn local_set(&self, g: PathSetId) -> Option<u32> {
        self.sets.local(g.0)
    }

    /// Local id of a global path, if projected.
    #[inline]
    pub fn local_path(&self, g: PathId) -> Option<u32> {
        self.paths.local(g.0)
    }

    /// Global set behind a local id.
    #[inline]
    pub fn global_set(&self, local: u32) -> PathSetId {
        PathSetId(self.sets.global(local))
    }

    /// Global path behind a local id.
    #[inline]
    pub fn global_path(&self, local: u32) -> PathId {
        PathId(self.paths.global(local))
    }

    /// Check that `arena` is a state of the bound lineage at least as
    /// large as the last successful bind — i.e. every global id this
    /// view has handed out resolves in `arena`. Consumers of the view's
    /// local ids (engines) call this before indexing an offered arena,
    /// so a mismatched observation set is a typed error, not silent
    /// misindexing.
    pub fn covers(&self, arena: &ArenaSnapshot) -> Result<(), ViewError> {
        match self.lineage {
            Some(expected) if expected == arena.lineage() => {}
            other => {
                return Err(ViewError::ForeignLineage {
                    expected: other.unwrap_or(0),
                    got: arena.lineage(),
                });
            }
        }
        if arena.path_count() < self.seen_paths || arena.set_count() < self.seen_sets {
            return Err(ViewError::ArenaShrunk {
                seen_paths: self.seen_paths,
                seen_sets: self.seen_sets,
                got_paths: arena.path_count(),
                got_sets: arena.set_count(),
            });
        }
        Ok(())
    }

    /// The observations accepted this epoch, as indices into the bound
    /// `obs.flows`, in observation order.
    pub fn epoch_flows(&self) -> &[u32] {
        &self.epoch_flows
    }

    /// Validate `obs`'s arena against the bound lineage, record the
    /// epoch's accepted observations, and extend the projection with any
    /// set (and its member paths) an accepted observation touches for
    /// the first time.
    ///
    /// `filter` sees each observation's index in `obs.flows` plus the
    /// observation, exactly like the engine-level flow filters, so
    /// executors can answer from per-epoch precomputed signatures in
    /// O(1). On error the view is unchanged (the epoch flow list is
    /// cleared, never partially filled).
    pub fn bind_epoch(
        &mut self,
        obs: &ObservationSet,
        mut filter: impl FnMut(usize, &FlowObs) -> bool,
    ) -> Result<(), ViewError> {
        self.validate(&obs.arena)?;
        self.epoch_flows.clear();
        // Remap tables cover the whole arena (they are id-width, not
        // content-width — the dense structures an engine sizes by view
        // counts are what sparsity is about).
        self.paths.ensure_ids(obs.arena.path_count());
        self.sets.ensure_ids(obs.arena.set_count());
        for (i, o) in obs.flows.iter().enumerate() {
            if !filter(i, o) {
                continue;
            }
            self.epoch_flows.push(i as u32);
            self.project_set(&obs.arena, o.set);
        }
        self.seen_paths = obs.arena.path_count();
        self.seen_sets = obs.arena.set_count();
        Ok(())
    }

    /// [`bind_epoch`](Self::bind_epoch) from a precomputed accept list:
    /// `accepted` holds the indices (into `obs.flows`, ascending) of the
    /// observations this shard takes. The pipelined executor derives
    /// accept lists for every shard in one pass over the epoch's touch
    /// signatures during the assembly stage, so the per-shard bind on
    /// the inference critical path is O(accepted), not O(observations).
    pub fn bind_epoch_indices(
        &mut self,
        obs: &ObservationSet,
        accepted: &[u32],
    ) -> Result<(), ViewError> {
        self.validate(&obs.arena)?;
        self.epoch_flows.clear();
        self.paths.ensure_ids(obs.arena.path_count());
        self.sets.ensure_ids(obs.arena.set_count());
        for &i in accepted {
            self.epoch_flows.push(i);
            self.project_set(&obs.arena, obs.flows[i as usize].set);
        }
        self.seen_paths = obs.arena.path_count();
        self.seen_sets = obs.arena.set_count();
        Ok(())
    }

    /// Check that `arena` is a later state of the bound lineage.
    fn validate(&mut self, arena: &ArenaSnapshot) -> Result<(), ViewError> {
        match self.lineage {
            None => self.lineage = Some(arena.lineage()),
            Some(expected) if expected != arena.lineage() => {
                return Err(ViewError::ForeignLineage {
                    expected,
                    got: arena.lineage(),
                });
            }
            Some(_) => {}
        }
        if arena.path_count() < self.seen_paths || arena.set_count() < self.seen_sets {
            return Err(ViewError::ArenaShrunk {
                seen_paths: self.seen_paths,
                seen_sets: self.seen_sets,
                got_paths: arena.path_count(),
                got_sets: arena.set_count(),
            });
        }
        Ok(())
    }

    /// Assign a local id to `g` (and to each of its member paths) if it
    /// has none yet.
    fn project_set(&mut self, arena: &ArenaSnapshot, g: PathSetId) {
        if self.sets.local(g.0).is_some() {
            return;
        }
        self.sets.assign(g.0);
        for &p in arena.set(g) {
            self.paths.assign(p.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{AnalysisMode, PathArena};
    use flock_topology::LinkId;

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
        view.bind_epoch(&obs1, |_, _| true).unwrap();
        assert_eq!(view.epoch_flows(), &[0, 1, 2]);
        assert_eq!(view.n_sets(), 2);
        assert_eq!(view.n_paths(), 2);
        // First-touch order: s1 before s0.
        assert_eq!(view.local_set(s1), Some(0));
        assert_eq!(view.local_set(s0), Some(1));
        assert_eq!(view.global_set(0), s1);

        // Epoch 2: the arena grows; previously assigned locals persist.
        let s2 = arena.intern_single(&links(&[4]));
        let obs2 = obs_with(&arena, &[s2, s0]);
        view.bind_epoch(&obs2, |_, _| true).unwrap();
        assert_eq!(view.local_set(s1), Some(0), "locals are stable");
        assert_eq!(view.local_set(s0), Some(1));
        assert_eq!(view.local_set(s2), Some(2));
        assert_eq!(view.epoch_flows(), &[0, 1]);
    }

    #[test]
    fn filter_restricts_projection() {
        let mut arena = PathArena::new();
        let s0 = arena.intern_single(&links(&[0]));
        let s1 = arena.intern_single(&links(&[1]));
        let obs = obs_with(&arena, &[s0, s1, s0]);
        let mut view = ArenaView::new();
        view.bind_epoch(&obs, |i, _| i != 1).unwrap();
        assert_eq!(view.epoch_flows(), &[0, 2]);
        assert_eq!(view.n_sets(), 1, "the filtered-out set is unprojected");
        assert_eq!(view.local_set(s1), None);
    }

    #[test]
    fn foreign_lineage_is_a_typed_error() {
        let mut a = PathArena::new();
        let s = a.intern_single(&links(&[0]));
        let obs_a = obs_with(&a, &[s]);
        let mut view = ArenaView::new();
        view.bind_epoch(&obs_a, |_, _| true).unwrap();

        let mut b = PathArena::new();
        let sb = b.intern_single(&links(&[0]));
        let obs_b = obs_with(&b, &[sb]);
        let err = view.bind_epoch(&obs_b, |_, _| true).unwrap_err();
        assert!(matches!(err, ViewError::ForeignLineage { .. }), "{err}");
        // The view still works against its own lineage.
        view.bind_epoch(&obs_a, |_, _| true).unwrap();
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
        view.bind_epoch(&obs_big, |_, _| true).unwrap();
        let err = view.bind_epoch(&obs_small, |_, _| true).unwrap_err();
        assert!(matches!(err, ViewError::ArenaShrunk { .. }), "{err}");
        // The view is unchanged and still binds the newer snapshot.
        view.bind_epoch(&obs_big, |_, _| true).unwrap();
    }
}
