//! The shared inference engine: hypothesis state plus the Δ array of
//! Joint Likelihood Exploration (JLE, §3.3), running over a *local*
//! projection of the evidence.
//!
//! # Local vs global ids
//!
//! A sharded executor builds many engines over one shared, append-only
//! [`flock_telemetry::PathArena`]. If every engine indexed its state by
//! global arena/component ids, each would pay O(total arena) fixed costs
//! per epoch — full-array resets on rebind, all-sets sweeps, strided
//! access over fleet-wide arrays — regardless of how little evidence its
//! shard actually sees. Instead, every engine owns an
//! [`ArenaView`]: a persistent dense projection of the arena onto the
//! sets its accepted observations touch. **All internal state and
//! every public index on this type — `delta()`, `flip()`, `hypothesis()`
//! — is a dense local id**, assigned in first-touch order and stable for
//! the engine's lifetime (views are append-only). Components are
//! localized the same way as sets bring them in; translate at the
//! boundary with [`Engine::global_comp`] / [`Engine::local_comp`] /
//! [`Engine::component`]. [`Engine::n_comps`] is therefore the number of
//! components *with evidence in this shard's history*, not the topology's
//! component count ([`Engine::n_global_comps`]) — which is exactly what
//! makes a pod or spine shard engine's Δ scans, resets, and searches
//! O(its own evidence).
//!
//! The view is a private field ([`Engine::view`] lends it read-only),
//! extended by the one bind, [`Engine::try_bind`]: an executor builds an
//! [`Engine::unbound`] engine per shard and binds it each epoch to the
//! observations the shard accepts, keyed by the epoch's shared
//! [`EpochFlowTable`]. [`Engine::new`] / [`Engine::rebind`] are that
//! bind over every observation, keyed through a [`TermDirectory`] the
//! engine keeps for itself.
//!
//! # State
//!
//! The engine mirrors the observation set's structure. The structural
//! layer — per viewed set, its width, its component union, its g-ladder
//! and its member paths' component rows — is `crate::sets` (`sets.rs`):
//! append-only, derived from the set's members, and the only reader of a
//! path. The engine asks it counts over a set's member paths and stores
//! nothing per path.
//!
//! The hypothesis (`in_h`) is the engine's only failure state. Per set
//! the engine keeps the number of member paths with a component in the
//! hypothesis (`set_bad`), shared by every flow using the set.
//!
//! One inverted index walks the structural layer from a component: its
//! sets (`comp_to_sets`), transposed eagerly when the view grew, which
//! the initial Δ, every flip and the evidence report read. A flip or a
//! seed reaches the component's paths through them, one set at a time:
//! one count over the set's members gives its `set_bad` at the current
//! `in_h` — and, for a flip that maintains Δ, the set's neighbour counts
//! on the way, once with the component at its old membership and once at
//! its new one.
//!
//! The evidence layer is rebuilt every epoch, from the accepted
//! observations and the epoch's [`EpochFlowTable`] — the evidence keys
//! `(sent, bad, w)` looked up in the [`TermDirectory`] and scored **once
//! per epoch** by whoever assembled it, however many engines the
//! observation fans out to. The engine reads an observation's score and
//! ladder offset by index, keeps the table's snapshot of the directory's
//! ladder store, and reads every `llf` ladder there, in place: a ladder
//! is one contiguous slice, which is what the sweep kernels index.
//!
//! * per **super-flow**: all observations sharing the same evidence key
//!   `(path set, sent, bad)`, collapsed into one weighted record. The
//!   per-flow likelihood (Eq. 1) depends on the observation only through
//!   its score `s = s(sent, bad)`, its path-set width `w`, and the failed
//!   path count `b`, and the total log-likelihood is linear in the
//!   aggregation weight — so the collapse is *exact*, and the per-epoch
//!   flow table shrinks from O(flows) to O(distinct evidence keys);
//! * per super-flow *member*: the handful of *extra* components a prefix
//!   group adds on every one of its paths (host attachment links, and the
//!   ToR device for intra-rack flows) with its own weight and fail count.
//!   A member's failed-path count is `w` while any of its extras is in
//!   the hypothesis ("pinned"); otherwise it follows `set_bad` of the
//!   super-flow's set. The super-flow tracks the pinned weight so the hot
//!   fabric sweep needs only the *active* (unpinned) total.
//!
//! # The Δ array
//!
//! `delta[c] = LL(H ⊕ c) − LL(H)` for every local component `c`
//! (likelihood part only; priors are added by the search layers, keeping
//! Δ independent of hypothesis size). [`Engine::flip`] toggles one
//! component and updates the *entire* array by visiting only the
//! super-flows that intersect the flipped component — Theorem 1
//! guarantees every other entry's terms are unchanged. Per flip this
//! costs `O(D·T)` (super-flows touching the component × their path-set
//! sizes) instead of the `O(n·D·T)` a from-scratch recomputation would
//! need: the `O(n)` JLE speedup — with `D` counting *distinct evidence
//! keys*, not raw flows.
//!
//! A bind computes the array from scratch, at the hypothesis it was
//! asked to *enter* ([`Engine::try_bind`]'s `seed`: typically the
//! previous epoch's verdict, so a warm epoch starts where the last one
//! ended instead of flipping its way back there — one evidence pass
//! instead of one JLE sweep per seeded component).
//!
//! For the sets no failed path crosses — every set, at the empty
//! hypothesis — the array is the product of two halves. For a set `S`
//! and a component `c` on it, `S` contributes
//! `Σ_{flows f on S} active_f · LLF_f(g(c))` to `delta[c]`, where `g(c)`
//! counts the member paths of `S` containing `c`. The structure half is
//! the set's cached g-ladder (see `sets.rs`). The per-epoch half
//! (`compute_initial_delta`) is then one ladder gather-accumulate per
//! super-flow plus one scatter per active set — proportional to the
//! epoch's evidence, with no path sweep.
//!
//! Every Δ term of a component `c` on a set reads the flow's ladder at
//! the set's *neighbour count* of `c`: its `set_bad` once `c` flips —
//! plus its member paths through `c` that meet no hypothesis component
//! for `c` outside the hypothesis, minus those whose one failed
//! component is `c` for `c` inside it — counted by `sets.rs` for every
//! component of the set in one walk. A flip and a flipped extra read
//! those indexes absolutely, through one kernel over all of the set's
//! components. A set the seed touches (`set_bad > 0`) has no cached
//! rungs: it counts its neighbours once (as a flip does per affected
//! set), puts the distinct indexes on a scratch ladder, and pays the
//! same one gather per super-flow and one scatter. Members follow the
//! flip's own formulas evaluated at the current state. `prop_engine`'s
//! `seeded_bind_equals_brute_force_and_flip_reference` pins the result
//! against brute-force neighbour likelihoods and against the
//! bind-empty-then-flip path it replaces.
//!
//! The flip path is allocation-free after warm-up: the per-set
//! neighbour buffers, inverted-index walks and per-set scratch all reuse
//! persistent arenas that survive across flips *and* epochs
//! ([`Engine::try_bind`]). A flip that reaches a set for the first time
//! has the set layer derive that set's rows.
//!
//! For search algorithms that do not want Δ maintenance (Sherlock without
//! JLE, greedy without JLE), [`Engine::flip_ll_only`] updates the state
//! and the total log-likelihood but skips the Δ bookkeeping, and
//! [`Engine::delta_single`] evaluates one neighbor from current state.

use crate::kernels;
use crate::likelihood::{llf, EpochFlowTable, Ladders, TermDirectory};
use crate::params::HyperParams;
use crate::sets::{Csr, Sets, NO_COMP, NO_RUNG};
use crate::space::{CompIdx, ComponentSpace};
use flock_telemetry::{ArenaView, DenseRemap, FlowObs, ObservationSet, PathSetId, ViewError};
use flock_topology::{Component, Topology};

/// One weighted super-flow: every observation of the epoch sharing the
/// evidence key `(set, sent, bad)`.
#[derive(Debug, Clone)]
struct SFlow {
    /// Local path-set index.
    set: u32,
    /// Flow score `s` (see [`crate::likelihood`]); equal `(sent, bad)`
    /// implies equal score, so the key collapse loses nothing.
    score: f64,
    /// Path-set size.
    w: u32,
    /// Total aggregation weight (number of merged underlying flows).
    weight: f64,
    /// Weight currently pinned at `b = w` by a failed extra — the sum of
    /// member weights with `extra_fail > 0`. `weight - pinned` is the
    /// *active* weight the fabric sweep multiplies by.
    pinned: f64,
    /// Members carrying extras: the half-open range `[lo, hi)` into
    /// [`Engine::members`] (weight without a member has no extras).
    members: (u32, u32),
    /// Offset of this flow's `(sent, bad, w)` ladder in the ladder store
    /// of the last bind: `ladders.get(tbl, w)[b]` is `llf(score, w, b)`.
    tbl: u32,
}

/// One prefix group of a super-flow: the merged observations sharing both
/// the evidence key *and* the extra components.
#[derive(Debug, Clone, Copy)]
struct SMember {
    /// Owning super-flow.
    flow: u32,
    /// Extra components (local ids) on every path (host links +
    /// intra-rack ToR).
    extras: [CompIdx; 4],
    n_extras: u8,
    /// How many extras are currently in the hypothesis.
    extra_fail: u8,
    /// Aggregation weight of this prefix group.
    weight: f64,
}

impl SMember {
    #[inline]
    fn extras(&self) -> &[CompIdx] {
        &self.extras[..self.n_extras as usize]
    }
}

/// The evidence behind one conviction, as reported by
/// [`Engine::convicting_evidence`]: which super-flows (and through which
/// path sets) contributed likelihood terms to the component's Δ.
#[derive(Debug, Clone, Default)]
pub struct ConvictingEvidence {
    /// Distinct super-flows whose likelihood involves the component.
    pub super_flows: usize,
    /// Total aggregation weight behind those super-flows — the number of
    /// raw merged observations implicating the component.
    pub weight: f64,
    /// Per path set touching the component: `(set, aggregate super-flow
    /// weight)`, heaviest first.
    pub sets: Vec<(PathSetId, f64)>,
}

/// Counters reported by the engine for performance accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Number of `flip`/`flip_ll_only` calls performed.
    pub flips: u64,
    /// Super-flow/member contribution updates performed across all flips.
    pub flow_updates: u64,
}

/// Resident state sizes of one engine — every entry scales with the
/// engine's *own* (shard-local) evidence history, not the shared arena,
/// which is the invariant the per-shard view layer exists to provide
/// (asserted by `flock-stream`'s state-sparsity tests and reported per
/// shard on `ShardOutcome::state`).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct EngineStateSizes {
    /// Local components (length of the Δ array, `in_h`, and the set
    /// layer's counting scratch).
    pub comps: usize,
    /// Member paths of the local sets. The engine stores nothing per
    /// path (their component rows are derived per set on first use), so
    /// this counts paths, not rows.
    pub paths: usize,
    /// Local sets (length of `set_bad` and the per-set structure).
    pub sets: usize,
    /// Super-flows this epoch.
    pub flows: usize,
    /// Extras-carrying members this epoch.
    pub members: usize,
    /// Width of the full topology component space, for ratio reporting.
    pub global_comps: usize,
}

/// Shared inference state over one shard's slice of an
/// [`ObservationSet`]. See the module docs for the data layout and the
/// local-id conventions.
pub struct Engine {
    space: ComponentSpace,
    params: HyperParams,

    /// The projection of the arena onto the evidence this engine has
    /// ever accepted; assigns the local set ids below.
    view: ArenaView,
    /// The directory [`Engine::rebind`] keys its epochs through, made on
    /// first use (an engine bound through [`Engine::try_bind`] reads its
    /// caller's tables and never has one).
    own_terms: Option<TermDirectory>,

    /// Component localization: dense local ids in first-touch order,
    /// sharing the [`DenseRemap`] implementation with the view's set
    /// projection. The global→local side is id-width (one
    /// global-sized table of remap ids, never reset per epoch); every
    /// evidence-width structure is local.
    comps: DenseRemap,

    /// The structural layer of the viewed sets (local ids), and every
    /// count over their member paths.
    sets: Sets,
    /// Per set, its member paths with a component in the hypothesis.
    set_bad: Vec<u32>,
    /// The sets' component unions transposed; rebuilt only when the view
    /// grew.
    comp_to_sets: Csr,
    set_flows: Csr,

    // Flows: super-flows plus their extras-carrying members.
    sflows: Vec<SFlow>,
    members: Vec<SMember>,
    comp_extra_members: Csr,
    /// Raw observations accepted into the current flow table (before
    /// coalescing) — `n_obs / sflows.len()` is the epoch's coalesce ratio.
    n_obs: usize,

    // Hypothesis state (local ids).
    in_h: Vec<bool>,
    hypothesis: Vec<CompIdx>,
    delta: Vec<f64>,
    ll: f64,
    stats: EngineStats,

    /// The ladder store of the last bind's flow table (a snapshot of its
    /// directory's): every `SFlow::tbl` points into it, and flips read it
    /// after the table is gone.
    ladders: Ladders,
    /// Per-component argmax bias for the warm-start *move* scan:
    /// `+prior_logodds(c)` when `c` is out of the hypothesis (adding
    /// pays the prior), `-prior_logodds(c)` when in (removal reclaims
    /// it). Maintained O(1) per flip so the greedy argmax is one fused
    /// `delta + bias` vector scan.
    gain_move_bias: Vec<f64>,
    /// Argmax bias for the cold-start *add* scan: `+prior_logodds(c)`,
    /// or `-inf` when `c` is already in the hypothesis (not addable).
    gain_add_bias: Vec<f64>,

    // Scratch arenas reused across flips and epochs: the flip path and
    // the per-epoch rebuild allocate nothing in steady state.
    /// Pre-flip neighbour counts of the set a flip is sweeping…
    nb_old: Vec<u32>,
    /// …and its post-flip ones — also the neighbour counts of a seeded
    /// set in the initial Δ and of a flipped extra's set.
    nb_new: Vec<u32>,
    /// Per-ladder-rung likelihood sums of the set currently being
    /// initialized.
    rung_sums: Vec<f64>,
    /// Seeded initial Δ, for a set the seed touches: the distinct ladder
    /// indexes its components' neighbours read (rung 0 is the set's own
    /// `set_bad`)…
    scratch_ladder: Vec<u32>,
    /// …each component's rung on it…
    scratch_rungs: Vec<u16>,
    /// …and ladder index → rung ([`NO_RUNG`] between sets; an index is at
    /// most the set's width, so the array stays as small as the widest
    /// set).
    scratch_rung: Vec<u32>,
}

impl Engine {
    /// Build an engine for `obs` over `topo`: [`Engine::unbound`], then
    /// [`Engine::rebind`].
    pub fn new(topo: &Topology, obs: &ObservationSet, params: HyperParams) -> Engine {
        let mut engine = Self::unbound(topo, params);
        engine.rebind(topo, obs);
        engine
    }

    /// An engine over `topo` with no evidence yet: empty local spaces,
    /// free to bind any arena lineage ([`Engine::try_bind`]).
    pub fn unbound(topo: &Topology, params: HyperParams) -> Engine {
        params.validate();
        let space = ComponentSpace::new(topo);
        let n_global = space.n_comps();
        Engine {
            space,
            params,
            view: ArenaView::new(),
            own_terms: None,
            comps: {
                let mut m = DenseRemap::new();
                m.ensure_ids(n_global);
                m
            },
            sets: Sets::new(topo.link_count()),
            set_bad: Vec::new(),
            comp_to_sets: Csr::default(),
            set_flows: Csr::default(),
            sflows: Vec::new(),
            members: Vec::new(),
            comp_extra_members: Csr::default(),
            n_obs: 0,
            in_h: Vec::new(),
            hypothesis: Vec::new(),
            delta: Vec::new(),
            ll: 0.0,
            stats: EngineStats::default(),
            ladders: Ladders::default(),
            gain_move_bias: Vec::new(),
            gain_add_bias: Vec::new(),
            nb_old: Vec::new(),
            nb_new: Vec::new(),
            rung_sums: Vec::new(),
            scratch_ladder: Vec::new(),
            scratch_rungs: Vec::new(),
            scratch_rung: Vec::new(),
        }
    }

    /// Bind the engine to every observation of `obs`, at the empty
    /// hypothesis, keying the epoch through the engine's own
    /// [`TermDirectory`] — [`Engine::try_bind`] for callers that run one
    /// engine over whole observation sets.
    ///
    /// # Panics
    /// On a shrunk or foreign-lineage arena — the conditions
    /// [`Engine::try_bind`] reports as a typed [`ViewError`].
    pub fn rebind(&mut self, topo: &Topology, obs: &ObservationSet) {
        let params = self.params;
        let dir = self
            .own_terms
            .get_or_insert_with(|| TermDirectory::new(&params));
        let mut table = EpochFlowTable::new();
        table.rebuild(dir, obs);
        let all: Vec<u32> = (0..obs.flows.len() as u32).collect();
        if let Err(e) = self.try_bind(topo, obs, &all, &table, &[]) {
            panic!("Engine::rebind: {e}");
        }
    }

    /// Bind the engine to one epoch's evidence: the observations of
    /// `obs` at the indices `accepted` (ascending, into `obs.flows`),
    /// their evidence keys read from `table`
    /// ([built](EpochFlowTable::rebuild) over `obs`, through any
    /// [`TermDirectory`]), starting at the hypothesis `seed`.
    ///
    /// The accept list restricts evidence; blame targets are whatever
    /// components that evidence touches. The log-likelihood is a sum of
    /// independent per-flow terms, so accept lists that *partition* the
    /// observations yield engines whose likelihoods and Δ arrays sum
    /// exactly to the full engine's (projected onto global component
    /// ids). That additivity is what lets a pod or spine shard engine
    /// score only the slice its accept list names (see
    /// `filtered_engines_partition_evidence`).
    ///
    /// `obs`'s arena must extend the one the engine bound before (the
    /// contract kept by [`flock_telemetry::Assembler`]: interning is
    /// append-only, so every previously seen path/set id denotes
    /// identical content). This is the warm-start fast path of the
    /// online pipeline: per-set component structures — the dominant cost
    /// of a first bind — and the path rows derived so far are reused and
    /// only *extended* for newly viewed sets; the per-flow layer is
    /// rebuilt for the epoch. Every reset in this path is O(the engine's
    /// own evidence), not O(total arena).
    ///
    /// `seed` is a list of *global* component ids — typically the
    /// previous epoch's verdict, which survives engine rebuilds in that
    /// form. The bind *enters* it: hypothesis state is set up for it
    /// directly and Δ and the log-likelihood are computed there (see the
    /// module docs, § the Δ array), which is what re-entering it with one
    /// [`Engine::flip`] per component from the empty hypothesis would
    /// reach, at the cost of one evidence pass instead of one JLE sweep
    /// per seed. Components this engine has never had evidence for are
    /// skipped (they have no local id); duplicates are entered once. An
    /// empty seed binds at the empty hypothesis.
    ///
    /// Rejects an observation set whose arena is of a foreign lineage,
    /// or an earlier state of the right one, with the matching
    /// [`ViewError`] — indexing it with the view's ids would be silent
    /// misindexing, the exact failure class the typed errors exist for.
    /// Every check precedes the first mutation: a rejected bind leaves
    /// the engine exactly as it was.
    ///
    /// # Panics
    /// If `table` does not cover `obs`.
    pub fn try_bind(
        &mut self,
        topo: &Topology,
        obs: &ObservationSet,
        accepted: &[u32],
        table: &EpochFlowTable,
        seed: &[CompIdx],
    ) -> Result<(), ViewError> {
        assert_eq!(
            table.len(),
            obs.flows.len(),
            "the flow table must be built over the observation set it keys"
        );
        self.view.bind_epoch(obs, accepted)?;

        // Reset hypothesis-dependent state — all O(local).
        self.in_h.fill(false);
        self.hypothesis.clear();
        self.set_bad.fill(0);
        self.delta.fill(0.0);

        let structures_grew =
            self.sets
                .extend(topo, &self.space, &mut self.comps, &self.view, &obs.arena);
        self.set_bad.resize(self.sets.n_sets(), 0);
        self.rebuild_flows(topo, obs, accepted, table);

        // Component-indexed arrays and inverted indexes span the local
        // component space, which extras may have widened just now.
        let n = self.comps.len();
        self.in_h.resize(n, false);
        self.delta.resize(n, 0.0);
        // Rebuilding the argmax bias arrays is O(local): every component
        // starts at the pure add prior; entering the seed below moves
        // the seeded ones.
        self.gain_move_bias.resize(n, 0.0);
        self.gain_add_bias.resize(n, 0.0);
        let link_prior = self.params.link_prior_logodds();
        let device_prior = self.params.device_prior_logodds();
        for c in 0..n {
            let p = if self.space.is_device(self.comps.global(c as u32)) {
                device_prior
            } else {
                link_prior
            };
            self.gain_move_bias[c] = p;
            self.gain_add_bias[c] = p;
        }
        if structures_grew || self.comp_to_sets.n_rows() != n {
            self.comp_to_sets.rebuild(n, self.sets.comp_set_pairs());
        }
        // The epoch's inverted indexes, straight off the flow layer.
        self.set_flows.rebuild(
            self.sets.n_sets(),
            (0u32..).zip(&self.sflows).map(|(fi, f)| (f.set, fi)),
        );
        self.comp_extra_members.rebuild(
            n,
            (0u32..)
                .zip(&self.members)
                .flat_map(|(mi, m)| m.extras().iter().map(move |&e| (e, mi))),
        );

        // Only now can the seed go in: it may have gained sets or
        // members this epoch, and entering it walks the indexes above.
        self.enter_hypothesis(seed);
        self.compute_initial_delta();
        Ok(())
    }

    /// Put the engine — freshly reset to the empty hypothesis, flow layer
    /// and inverted indexes rebuilt — at the hypothesis `seed` (global
    /// ids): membership, `set_bad` of every set a seeded component lies
    /// on, pinned members, and both argmax biases, i.e. everything a
    /// [`Engine::flip`] per component would have left behind except Δ and
    /// the likelihood, which [`Engine::compute_initial_delta`] derives
    /// from this state.
    fn enter_hypothesis(&mut self, seed: &[CompIdx]) {
        for &g in seed {
            let Some(c) = self.comps.local(g) else {
                continue;
            };
            if std::mem::replace(&mut self.in_h[c as usize], true) {
                continue;
            }
            self.hypothesis.push(c);
            for &mi in self.comp_extra_members.get(c) {
                let m = &mut self.members[mi as usize];
                m.extra_fail += 1;
                if m.extra_fail == 1 {
                    self.sflows[m.flow as usize].pinned += m.weight;
                }
            }
            let p = self.prior_logodds(c);
            self.gain_move_bias[c as usize] = -p;
            self.gain_add_bias[c as usize] = f64::NEG_INFINITY;
        }
        // With every seed in, count `set_bad` once per set a seed lies
        // on: the sets whose neighbours `compute_initial_delta` counts.
        // A counted set has a failed path (the seed's own), so
        // `set_bad > 0` marks it done.
        for &c in &self.hypothesis {
            for &s in self.comp_to_sets.get(c) {
                if self.set_bad[s as usize] == 0 {
                    self.set_bad[s as usize] = self.sets.bad(s, &self.in_h);
                }
            }
        }
    }

    /// Rebuild the per-epoch flow layer from the accepted observations,
    /// collapsing runs sharing the `(set, sent, bad)` evidence key into
    /// weighted super-flows (the assembler sorts observations by exactly
    /// that key and `accepted` is ascending, so equal keys are adjacent;
    /// out-of-order input merely coalesces less — never incorrectly).
    fn rebuild_flows(
        &mut self,
        topo: &Topology,
        obs: &ObservationSet,
        accepted: &[u32],
        table: &EpochFlowTable,
    ) {
        self.sflows.clear();
        self.members.clear();
        self.n_obs = 0;
        self.ladders = table.ladders().clone();
        let mut last_key: Option<(u32, u64, u64)> = None;
        for &i in accepted {
            let o = &obs.flows[i as usize];
            let ls = self
                .view
                .local_set(o.set)
                .expect("bind_epoch projected every accepted set");
            let w = self.sets.width(ls);
            if w == 0 {
                continue; // unroutable flow carries no information
            }
            self.n_obs += 1;
            let key = o.evidence_key();
            if last_key != Some(key) {
                let at = self.members.len() as u32;
                // The epoch's table keyed this observation already: its
                // score, and where its directory stored the ladder.
                let (score, tbl) = table.term(i as usize);
                self.sflows.push(SFlow {
                    set: ls,
                    score,
                    w,
                    weight: 0.0,
                    pinned: 0.0,
                    members: (at, at),
                    tbl,
                });
                last_key = Some(key);
            }
            let fi = self.sflows.len() - 1;
            self.sflows[fi].weight += f64::from(o.weight);
            let extras = self.flow_extras(topo, ls, o);
            if extras.1 > 0 {
                let mi = self.members.len() as u32;
                self.members.push(SMember {
                    flow: fi as u32,
                    extras: extras.0,
                    n_extras: extras.1,
                    extra_fail: 0,
                    weight: f64::from(o.weight),
                });
                self.sflows[fi].members.1 = mi + 1;
            }
        }
    }

    /// Extract the extra components (local ids) of a flow: its prefix
    /// links plus any switch devices incident to prefix links that do
    /// not already appear in the set's component union (the intra-rack
    /// ToR case). The localization of a prefix link and its switch ends
    /// is memoized per link, so a repeat
    /// observation costs one table read per prefix link plus the in-set
    /// test.
    fn flow_extras(&mut self, topo: &Topology, ls: u32, o: &FlowObs) -> ([CompIdx; 4], u8) {
        let mut extras = [0 as CompIdx; 4];
        let mut n = 0u8;
        let mut push = |c: CompIdx| {
            if !extras[..n as usize].contains(&c) {
                extras[n as usize] = c;
                n += 1;
            }
        };
        for link in o.prefix.iter().flatten() {
            let known = self.sets.link(topo, &self.space, &mut self.comps, *link);
            push(known.comp);
            // Switch devices already covered by the fabric path set stay
            // out of the extras (they are counted through the set's path
            // components).
            for d in known.devices {
                if d != NO_COMP && self.sets.comps(ls).binary_search(&d).is_err() {
                    push(d);
                }
            }
        }
        (extras, n)
    }

    /// The full-topology component space (indices on it are *global*;
    /// translate with [`Engine::global_comp`] / [`Engine::local_comp`]).
    pub fn space(&self) -> &ComponentSpace {
        &self.space
    }

    /// The hyperparameters.
    pub fn params(&self) -> &HyperParams {
        &self.params
    }

    /// The engine's projection of the arena: which global sets its local
    /// set ids denote.
    pub fn view(&self) -> &ArenaView {
        &self.view
    }

    /// Number of *local* components — components touched by this
    /// engine's evidence history. Every index-taking method on the
    /// engine speaks this dense space.
    pub fn n_comps(&self) -> usize {
        self.comps.len()
    }

    /// Width of the full topology component space.
    pub fn n_global_comps(&self) -> usize {
        self.space.n_comps()
    }

    /// Number of member paths of the locally-projected sets.
    pub fn n_paths(&self) -> usize {
        self.sets.n_paths()
    }

    /// Number of locally-projected sets.
    pub fn n_sets(&self) -> usize {
        self.sets.n_sets()
    }

    /// Global (dense topology-wide) id of a local component.
    #[inline]
    pub fn global_comp(&self, c: CompIdx) -> CompIdx {
        self.comps.global(c)
    }

    /// Local id of a global component, if this engine's evidence ever
    /// touched it.
    #[inline]
    pub fn local_comp(&self, g: CompIdx) -> Option<CompIdx> {
        self.comps.local(g)
    }

    /// The topology component behind a *local* id — the report-time
    /// translation.
    #[inline]
    pub fn component(&self, c: CompIdx) -> Component {
        self.space.component(self.global_comp(c))
    }

    /// Local id of a topology component, if evidence ever touched it.
    /// The inverse of [`Engine::component`]; used to seed warm-start
    /// inference from a previous epoch's predictions.
    #[inline]
    pub fn comp_of(&self, c: Component) -> Option<CompIdx> {
        self.space.comp_of(c).and_then(|g| self.local_comp(g))
    }

    /// Whether local component `c` denotes a switch device.
    #[inline]
    pub fn is_device(&self, c: CompIdx) -> bool {
        self.space.is_device(self.global_comp(c))
    }

    /// Resident state sizes (see [`EngineStateSizes`]).
    pub fn state_sizes(&self) -> EngineStateSizes {
        EngineStateSizes {
            comps: self.comps.len(),
            paths: self.n_paths(),
            sets: self.sets.n_sets(),
            flows: self.sflows.len(),
            members: self.members.len(),
            global_comps: self.space.n_comps(),
        }
    }

    /// Number of engine super-flows (distinct evidence keys this epoch).
    pub fn n_flows(&self) -> usize {
        self.sflows.len()
    }

    /// Raw observations accepted into the current flow table; with
    /// [`Engine::n_flows`] this yields the epoch's coalesce ratio.
    pub fn n_observations(&self) -> usize {
        self.n_obs
    }

    /// The current hypothesis (local ids of components currently failed).
    pub fn hypothesis(&self) -> &[CompIdx] {
        &self.hypothesis
    }

    /// Whether local component `c` is in the current hypothesis.
    #[inline]
    pub fn in_hypothesis(&self, c: CompIdx) -> bool {
        self.in_h[c as usize]
    }

    /// Normalized log-likelihood of the current hypothesis (no priors).
    pub fn log_likelihood(&self) -> f64 {
        self.ll
    }

    /// The Δ array over local components:
    /// `delta()[c] = LL(H ⊕ c) − LL(H)` (likelihood only).
    pub fn delta(&self) -> &[f64] {
        &self.delta
    }

    /// The evidence convicting local component `c`: every super-flow
    /// whose likelihood term involves `c` — flows over a path set
    /// touching `c` (via the `comp → sets → flows` inverted indexes)
    /// plus prefix groups carrying `c` as an extra. This is exactly the
    /// flow population a `flip(c)` visits, i.e. the observations whose
    /// Δ contribution drove the conviction. Cold path (report/store
    /// provenance, once per kept component per epoch), so it allocates
    /// freely rather than borrowing the flip scratch.
    pub fn convicting_evidence(&self, c: CompIdx) -> ConvictingEvidence {
        let mut flows: Vec<u32> = Vec::new();
        for &s in self.comp_to_sets.get(c) {
            flows.extend_from_slice(self.set_flows.get(s));
        }
        for &mi in self.comp_extra_members.get(c) {
            flows.push(self.members[mi as usize].flow);
        }
        flows.sort_unstable();
        flows.dedup();
        let mut weight = 0.0;
        let mut per_set: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &fi in &flows {
            let f = &self.sflows[fi as usize];
            weight += f.weight;
            *per_set.entry(f.set).or_insert(0.0) += f.weight;
        }
        let mut sets: Vec<(u32, f64)> = per_set.into_iter().collect();
        // Equal weights keep first-touch (local id) order.
        sets.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ConvictingEvidence {
            super_flows: flows.len(),
            weight,
            sets: sets
                .into_iter()
                .map(|(ls, w)| (self.view.global_set(ls), w))
                .collect(),
        }
    }

    /// Prior log-odds contribution of *adding* local component `c` to
    /// the hypothesis (negative). Removal contributes the negation.
    #[inline]
    pub fn prior_logodds(&self, c: CompIdx) -> f64 {
        if self.is_device(c) {
            self.params.device_prior_logodds()
        } else {
            self.params.link_prior_logodds()
        }
    }

    /// Performance counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// `(ladders, total f64 entries)` of the ladder store this engine
    /// reads — its last bind's directory's, every key that directory
    /// stored by then (diagnostics / bench reporting).
    pub fn term_table_sizes(&self) -> (usize, usize) {
        self.ladders.sizes()
    }

    /// Best component to *add* under the current Δ array, with its
    /// prior-inclusive gain: maximizes `delta[c] + prior_logodds(c)`
    /// over components outside the hypothesis (in-hypothesis components
    /// carry a `-inf` bias, so they can win only when nothing is
    /// addable — and then the `-inf` gain stops the caller's search
    /// exactly like an empty candidate set). Exact gain ties break
    /// toward the smallest *global* component id, so engines with
    /// different evidence histories (hence different local id orders)
    /// pick the same member of an observationally equivalent class.
    /// One fused `delta + bias` scan through [`kernels::argmax_gain`].
    pub fn argmax_addable(&self) -> Option<(CompIdx, f64)> {
        kernels::argmax_gain(&self.delta, &self.gain_add_bias, self.comps.globals())
    }

    /// Best add-or-remove move under the current Δ array, with its
    /// prior-inclusive posterior gain (adding pays the prior, removing
    /// reclaims it); same tie-break and kernel as
    /// [`Engine::argmax_addable`]. This is the warm-start search scan.
    pub fn argmax_move(&self) -> Option<(CompIdx, f64)> {
        kernels::argmax_gain(&self.delta, &self.gain_move_bias, self.comps.globals())
    }

    /// Toggle local component `c`, maintaining the full Δ array (JLE
    /// update). Returns the likelihood change `LL(H') − LL(H)`.
    pub fn flip(&mut self, c: CompIdx) -> f64 {
        self.flip_inner(c, true)
    }

    /// Toggle local component `c`, updating state and total likelihood
    /// but *not* the Δ array (which becomes stale — callers must not
    /// read it until the state is restored). Used by the non-JLE
    /// baselines.
    pub fn flip_ll_only(&mut self, c: CompIdx) -> f64 {
        self.flip_inner(c, false)
    }

    fn flip_inner(&mut self, c: CompIdx, maintain_delta: bool) -> f64 {
        self.stats.flips += 1;
        let adding = !self.in_h[c as usize];
        let mut dll = 0.0;

        // Borrow-splitting: the extras index and neighbour buffers move
        // out of `self` for the duration of the flip (restored below) so
        // the sweeps can walk them while mutating per-set/per-flow state.
        // All of these keep their capacity — no per-flip allocation.
        let comp_extra_members = std::mem::take(&mut self.comp_extra_members);
        let mut old = std::mem::take(&mut self.nb_old);
        let mut new = std::mem::take(&mut self.nb_new);

        // Membership flips now so contribution formulas see the new state;
        // formulas needing the old membership handle `c` explicitly.
        self.in_h[c as usize] = adding;

        // ---- Fabric effect: sets whose paths contain `c`, one at a
        // time: a path belongs to one set, so flipping `c` on a set's
        // paths changes no other set's counts. Δ maintenance counts the
        // set's neighbours twice, with `c` at its old membership and then
        // at its new one; without it, one count gives the new `set_bad`.
        for &s in self.comp_to_sets.get(c) {
            let old_bad = self.set_bad[s as usize];
            let new_bad = if maintain_delta {
                self.in_h[c as usize] = !adding;
                let counted = self.sets.neighbours(s, &self.in_h, &mut old);
                self.in_h[c as usize] = adding;
                debug_assert_eq!(counted, old_bad, "set_bad of set {s}");
                self.sets.neighbours(s, &self.in_h, &mut new)
            } else {
                self.sets.bad(s, &self.in_h)
            };
            self.set_bad[s as usize] = new_bad;

            // Super-flow sweep: one visit per distinct evidence key. All
            // llf terms come from the flow's memoized table segment —
            // bit-identical to direct evaluation by construction.
            for &fi in self.set_flows.get(s) {
                let f = &self.sflows[fi as usize];
                let (w, mlo, mhi) = (f.w, f.members.0, f.members.1);
                let seg = self.ladders.get(f.tbl, w);
                // Weights are integer-valued sums, so the subtraction is
                // exact and `active == 0.0` means fully pinned.
                let active = f.weight - f.pinned;
                let ll_old = seg[old_bad as usize];
                let ll_new = seg[new_bad as usize];
                self.stats.flow_updates += 1;
                if active > 0.0 {
                    dll += active * (ll_new - ll_old);
                }
                if !maintain_delta {
                    continue;
                }
                // Fabric comps of the set: only the active (unpinned)
                // weight responds to fabric flips.
                if active > 0.0 {
                    kernels::fabric_delta_sweep(
                        seg,
                        &old,
                        &new,
                        self.sets.comps(s),
                        active,
                        ll_old,
                        ll_new,
                        &mut self.delta,
                    );
                }
                // Member extras: their deltas move only when `set_bad`
                // actually changed. An unpinned member's extras pin it at
                // `w` (losing the `set_bad` term); a singly-pinned
                // member's failed extra, on removal, returns it to
                // `set_bad` — which just changed.
                if old_bad != new_bad {
                    for mi in mlo..mhi {
                        let m = self.members[mi as usize];
                        match m.extra_fail {
                            0 => {
                                for &e in m.extras() {
                                    self.delta[e as usize] += m.weight * (ll_old - ll_new);
                                }
                            }
                            1 => {
                                let e = m
                                    .extras()
                                    .iter()
                                    .copied()
                                    .find(|&e| self.in_h[e as usize])
                                    .expect("extra_fail==1 implies one failed extra");
                                self.delta[e as usize] += m.weight * (ll_new - ll_old);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }

        // ---- Extras effect: members having `c` among their extras. ----
        for &mi in comp_extra_members.get(c) {
            dll += self.flip_extra_for_member(c, mi, adding, maintain_delta, &mut new);
        }

        if adding {
            self.hypothesis.push(c);
        } else {
            self.hypothesis.retain(|&x| x != c);
        }
        self.ll += dll;

        // O(1) argmax bias maintenance for the flipped component.
        let p = self.prior_logodds(c);
        if adding {
            self.gain_move_bias[c as usize] = -p;
            self.gain_add_bias[c as usize] = f64::NEG_INFINITY;
        } else {
            self.gain_move_bias[c as usize] = p;
            self.gain_add_bias[c as usize] = p;
        }

        self.comp_extra_members = comp_extra_members;
        self.nb_old = old;
        self.nb_new = new;
        dll
    }

    /// Handle the extras side of flipping `c` for one member. `in_h[c]`
    /// has already been set to the new value; `nb` is the caller's
    /// reusable neighbour buffer.
    fn flip_extra_for_member(
        &mut self,
        c: CompIdx,
        mi: u32,
        adding: bool,
        maintain_delta: bool,
        nb: &mut Vec<u32>,
    ) -> f64 {
        self.stats.flow_updates += 1;
        let m = self.members[mi as usize];
        let fi = m.flow as usize;
        let (w, set, tbl) = {
            let f = &self.sflows[fi];
            (f.w, f.set, f.tbl)
        };
        let old_fail = m.extra_fail;
        let new_fail = if adding { old_fail + 1 } else { old_fail - 1 };
        let sb = self.set_bad[set as usize];
        let bad_old = if old_fail > 0 { w } else { sb };
        let bad_new = if new_fail > 0 { w } else { sb };
        // The member (un)pins: Δ maintenance counts its set's neighbours.
        if maintain_delta && (old_fail == 0 || new_fail == 0) {
            self.sets.neighbours(set, &self.in_h, nb);
        }
        let seg = self.ladders.get(tbl, w);
        let ll_old = seg[bad_old as usize];
        let ll_new = seg[bad_new as usize];
        let dll = m.weight * (ll_new - ll_old);

        // Pinned-weight bookkeeping on activation crossings (adding from
        // 0 pins the member; removing to 0 releases it).
        if old_fail == 0 {
            self.sflows[fi].pinned += m.weight;
        } else if new_fail == 0 {
            self.sflows[fi].pinned -= m.weight;
        }

        if maintain_delta {
            // Fabric comps: need neighbour counts only when the member is
            // "active" (extra_fail == 0) on either side. Exactly one of
            // old/new fail is 0 here (they differ by 1), so each
            // component's update collapses to ±(seg[nb] - ll) — the
            // member kernel. `c` is an extra, never among the set comps,
            // so its flip moves no neighbour count.
            if old_fail == 0 || new_fail == 0 {
                let (negate, ll_active) = if old_fail == 0 {
                    // Member becomes pinned: its old neighbour terms are
                    // retracted (the new ones are 0).
                    (true, ll_old)
                } else {
                    // Member unpins: its new neighbour terms land.
                    (false, ll_new)
                };
                kernels::member_delta_sweep(
                    seg,
                    nb,
                    self.sets.comps(set),
                    m.weight,
                    ll_active,
                    negate,
                    &mut self.delta,
                );
            }
            // Extras comps of this member (including c itself). Flipping
            // `e` returns the member to `sb` when `e` is its one failed
            // extra, and pins it at `w` otherwise.
            let flipped = |in_h_e: bool, fail: u8| if in_h_e && fail == 1 { sb } else { w };
            for &e in m.extras() {
                let in_h_e_new = self.in_h[e as usize];
                let in_h_e_old = if e == c { !in_h_e_new } else { in_h_e_new };
                let contrib_old = seg[flipped(in_h_e_old, old_fail) as usize] - ll_old;
                let contrib_new = seg[flipped(in_h_e_new, new_fail) as usize] - ll_new;
                self.delta[e as usize] += m.weight * (contrib_new - contrib_old);
            }
        }

        self.members[mi as usize].extra_fail = new_fail;
        dll
    }

    /// Δ and the log-likelihood at the *current* hypothesis, from scratch
    /// (`ComputeInitialDelta` of Algorithm 2, generalized to the seed a
    /// bind [entered](Engine::enter_hypothesis)); `delta` must be zeroed.
    ///
    /// A set `S` no failed path crosses (`set_bad == 0` — at the empty
    /// hypothesis, every set) adds `Σ_flows active · LLF(g(c))` to each
    /// of its components `c`, where `g(c)` — the member paths of `S`
    /// containing `c` — depends only on the append-only path/set
    /// structure. That half is cached per set when the set is first
    /// viewed (its g-ladder, see `sets.rs`), so such a set pays only for its
    /// evidence: one table gather-accumulate per super-flow over the
    /// set's ladder, then one scatter over the set's components. `active`
    /// is the weight no failed extra pins (`weight − pinned`, which *is*
    /// `weight` at the empty hypothesis).
    ///
    /// A set the seed touches has no cached structure to lean on — its
    /// components' neighbour counts depend on the hypothesis — so it
    /// counts them once, exactly as a flip does per affected set, builds
    /// the small ladder of distinct indexes they select (rung 0 is its
    /// own `set_bad`), and then pays the same one gather per super-flow
    /// and one scatter. Either way each component receives its rung's sum
    /// minus the `LLF(set_bad)` rung's (which is also the set's share of
    /// the likelihood; `LLF(0) = 0`, off the g-ladder).
    ///
    /// Sweeps the *view's* sets only — the fleet-wide arena never enters
    /// this loop.
    fn compute_initial_delta(&mut self) {
        let mut sums = std::mem::take(&mut self.rung_sums);
        let mut ladder = std::mem::take(&mut self.scratch_ladder);
        let mut rungs = std::mem::take(&mut self.scratch_rungs);
        let mut rung = std::mem::take(&mut self.scratch_rung);
        let mut nb = std::mem::take(&mut self.nb_new);
        let mut ll = 0.0;
        for s in 0..self.sets.n_sets() as u32 {
            // Sets with no flows this epoch contribute nothing; skipping
            // them keeps rebinding cheap as the shard's view accumulates
            // sets across epochs.
            if self.set_flows.get(s).is_empty() {
                continue;
            }
            let sb = self.set_bad[s as usize];
            // The distinct table indexes this set's neighbours read, and
            // each component's rung on them. Every flow of the set shares
            // `w`, so they index every segment in range.
            let (gs, comp_rungs): (&[u32], &[u16]) = if sb == 0 {
                (self.sets.g_ladder(s), self.sets.g_index(s))
            } else {
                self.sets.neighbours(s, &self.in_h, &mut nb);
                let w = self.sets.width(s) as usize;
                if rung.len() <= w {
                    rung.resize(w + 1, NO_RUNG);
                }
                ladder.clear();
                ladder.push(sb);
                rung[sb as usize] = 0;
                rungs.clear();
                for &idx in &nb {
                    if rung[idx as usize] == NO_RUNG {
                        rung[idx as usize] = ladder.len() as u32;
                        ladder.push(idx);
                    }
                    let r = rung[idx as usize];
                    rungs.push(u16::try_from(r).expect("a set has at most 65536 ladder rungs"));
                }
                for &idx in &ladder {
                    rung[idx as usize] = NO_RUNG;
                }
                (&ladder, &rungs)
            };
            // Σ_super-flows active · LLF(index) per distinct index.
            sums.clear();
            sums.resize(gs.len(), 0.0);
            for &fi in self.set_flows.get(s) {
                let f = &self.sflows[fi as usize];
                // Weights are integer-valued sums, so the subtraction is
                // exact and `active == 0.0` means fully pinned.
                let active = f.weight - f.pinned;
                if active > 0.0 {
                    let seg = self.ladders.get(f.tbl, f.w);
                    kernels::weighted_table_accumulate(seg, gs, active, &mut sums);
                }
            }
            // The set's own rung: `LLF(0) = 0` off the g-ladder.
            let at_sb = if sb == 0 { 0.0 } else { sums[0] };
            ll += at_sb;
            for (&c, &r) in self.sets.comps(s).iter().zip(comp_rungs) {
                self.delta[c as usize] += sums[r as usize] - at_sb;
            }
        }
        // Extras: `flip_extra_for_member`'s own formulas, at the current
        // state. A member sits at `b = w` while any of its extras is
        // failed and follows its set otherwise; flipping an extra `e`
        // moves it to `w` (`e` joins), or back to its set when `e` was
        // its only failed extra. `LLF(0) = 0` and `LLF(w) = score`
        // exactly, so only a partly failed set reads the ladder — at the
        // empty hypothesis this is `weight · score` per extra.
        for m in &self.members {
            let f = &self.sflows[m.flow as usize];
            let at = |b: u32| match b {
                0 => 0.0,
                b if b == f.w => f.score,
                b => self.ladders.get(f.tbl, f.w)[b as usize],
            };
            let sb = self.set_bad[f.set as usize];
            let here = at(if m.extra_fail > 0 { f.w } else { sb });
            if m.extra_fail > 0 {
                ll += m.weight * here;
            }
            for &e in m.extras() {
                let flipped = if self.in_h[e as usize] && m.extra_fail == 1 {
                    sb
                } else {
                    f.w
                };
                self.delta[e as usize] += m.weight * (at(flipped) - here);
            }
        }
        self.ll = ll;
        self.rung_sums = sums;
        self.scratch_ladder = ladder;
        self.scratch_rungs = rungs;
        self.scratch_rung = rung;
        self.nb_new = nb;
    }

    /// Evaluate one neighbor delta from the current state without touching
    /// the Δ array (used by greedy-without-JLE): `LL(H ⊕ c) − LL(H)`.
    pub fn delta_single(&self, c: CompIdx) -> f64 {
        let mut dll = 0.0;
        let flipping_on = !self.in_h[c as usize];
        // Fabric side.
        for &s in self.comp_to_sets.get(c) {
            let old_bad = self.set_bad[s as usize];
            let new_bad = self.sets.fails_after(s, &self.in_h, c);
            if new_bad == old_bad {
                continue;
            }
            for &fi in self.set_flows.get(s) {
                let f = &self.sflows[fi as usize];
                let active = f.weight - f.pinned;
                if active > 0.0 {
                    dll += active * (llf(f.score, f.w, new_bad) - llf(f.score, f.w, old_bad));
                }
            }
        }
        // Extras side.
        for &mi in self.comp_extra_members.get(c) {
            let m = &self.members[mi as usize];
            let f = &self.sflows[m.flow as usize];
            let old_fail = m.extra_fail;
            let new_fail = if flipping_on {
                old_fail + 1
            } else {
                old_fail - 1
            };
            let sb = self.set_bad[f.set as usize];
            let bad_old = if old_fail > 0 { f.w } else { sb };
            let bad_new = if new_fail > 0 { f.w } else { sb };
            if bad_old != bad_new {
                dll += m.weight * (llf(f.score, f.w, bad_new) - llf(f.score, f.w, bad_old));
            }
        }
        dll
    }

    /// Brute-force `LL(H)` from scratch for an arbitrary hypothesis (of
    /// local ids) — `O(m·T)`. Reference implementation used by tests and
    /// available for cross-checking; never on the hot path.
    pub fn ll_of(&self, hypothesis: &[CompIdx]) -> f64 {
        let mut in_h = vec![false; self.n_comps()];
        for &c in hypothesis {
            in_h[c as usize] = true;
        }
        let set_bad_h: Vec<u32> = (0..self.sets.n_sets() as u32)
            .map(|s| self.sets.fails_after(s, &in_h, NO_COMP))
            .collect();
        let mut ll = 0.0;
        for f in &self.sflows {
            let sb = set_bad_h[f.set as usize];
            let mut base = f.weight;
            for mi in f.members.0..f.members.1 {
                let m = &self.members[mi as usize];
                base -= m.weight;
                let bad = if m.extras().iter().any(|&e| in_h[e as usize]) {
                    f.w
                } else {
                    sb
                };
                ll += m.weight * llf(f.score, f.w, bad);
            }
            if base > 0.0 {
                ll += base * llf(f.score, f.w, sb);
            }
        }
        ll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_telemetry::input::{assemble, AnalysisMode, InputKind};
    use flock_telemetry::{FlowKey, FlowStats, MonitoredFlow, TrafficClass};
    use flock_topology::clos::{three_tier, ClosParams};
    use flock_topology::{LinkId, PathSet, Router};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Key `obs` the way an executor would before binding its engines:
    /// a fresh directory's first table.
    fn keyed(obs: &ObservationSet) -> EpochFlowTable {
        let mut table = EpochFlowTable::new();
        table.rebuild(&mut TermDirectory::new(&HyperParams::default()), obs);
        table
    }

    /// The accept list of the observations `keep` selects.
    fn accept(obs: &ObservationSet, keep: impl Fn(usize, &FlowObs) -> bool) -> Vec<u32> {
        (0u32..)
            .zip(&obs.flows)
            .filter(|&(i, o)| keep(i as usize, o))
            .map(|(i, _)| i)
            .collect()
    }

    fn unbound(topo: &flock_topology::Topology) -> Engine {
        Engine::unbound(topo, HyperParams::default())
    }

    /// A fresh engine bound to the `accepted` observations of `obs` at
    /// `seed`.
    fn bound(
        topo: &flock_topology::Topology,
        obs: &ObservationSet,
        accepted: &[u32],
        seed: &[CompIdx],
    ) -> Engine {
        let mut engine = unbound(topo);
        engine
            .try_bind(topo, obs, accepted, &keyed(obs), seed)
            .unwrap();
        engine
    }

    /// Bind `engine` to every observation of `obs` at `seed`, keyed
    /// through its long-lived directory `dir`.
    fn bind_all(
        engine: &mut Engine,
        topo: &flock_topology::Topology,
        obs: &ObservationSet,
        dir: &mut TermDirectory,
        seed: &[CompIdx],
    ) -> Result<(), ViewError> {
        let mut table = EpochFlowTable::new();
        table.rebuild(dir, obs);
        engine.try_bind(topo, obs, &accept(obs, |_, _| true), &table, seed)
    }

    /// Hypothesis, Δ and log-likelihood, to the bit.
    fn state_bits(e: &Engine) -> (Vec<CompIdx>, Vec<u64>, u64) {
        (
            e.hypothesis().to_vec(),
            e.delta().iter().map(|d| d.to_bits()).collect(),
            e.log_likelihood().to_bits(),
        )
    }

    /// Build a small observation set with a mix of passive (path-set) and
    /// known-path flows, with pseudo-random metrics.
    fn small_obs(seed: u64) -> (flock_topology::Topology, ObservationSet) {
        small_obs_with(seed, &[InputKind::A2, InputKind::P])
    }

    /// [`small_obs`] with explicit telemetry kinds.
    fn small_obs_with(
        seed: u64,
        kinds: &[InputKind],
    ) -> (flock_topology::Topology, ObservationSet) {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let flows = small_flows(&topo, &router, seed);
        let obs = assemble(&topo, &router, &flows, kinds, AnalysisMode::PerPacket);
        (topo, obs)
    }

    /// The 60 random passive flows behind [`small_obs`].
    fn small_flows(
        topo: &flock_topology::Topology,
        router: &Router<'_>,
        seed: u64,
    ) -> Vec<MonitoredFlow> {
        let mut rng = StdRng::seed_from_u64(seed);
        let hosts = topo.hosts().to_vec();
        let mut flows = Vec::new();
        for i in 0..60 {
            let s = hosts[rng.random_range(0..hosts.len())];
            let mut d = hosts[rng.random_range(0..hosts.len())];
            while d == s {
                d = hosts[rng.random_range(0..hosts.len())];
            }
            let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
            let pick = rng.random_range(0..paths.len());
            let mut tp = vec![topo.host_uplink(s)];
            tp.extend_from_slice(&paths[pick]);
            tp.push(topo.host_downlink(d));
            let sent = rng.random_range(5..200u64);
            let bad = if rng.random::<f64>() < 0.3 {
                rng.random_range(0..=sent.min(6))
            } else {
                0
            };
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, 1000 + i, 80),
                stats: FlowStats {
                    packets: sent,
                    retransmissions: bad,
                    bytes: sent * 1500,
                    rtt_sum_us: 100,
                    rtt_count: 1,
                    rtt_max_us: 100,
                },
                class: TrafficClass::Passive,
                true_path: tp,
            });
        }
        flows
    }

    /// The central JLE invariant: after any sequence of flips, every Δ
    /// entry equals the brute-force `LL(H ⊕ c) − LL(H)`.
    #[test]
    fn delta_matches_brute_force_after_flips() {
        let (topo, obs) = small_obs(1);
        let mut engine = Engine::new(&topo, &obs, HyperParams::default());
        let n = engine.n_comps() as u32;
        assert!(n > 0);
        let mut rng = StdRng::seed_from_u64(99);

        let check = |engine: &Engine| {
            let h: Vec<CompIdx> = engine.hypothesis().to_vec();
            let base = engine.ll_of(&h);
            assert!(
                (base - engine.log_likelihood()).abs() < 1e-7,
                "ll drift: {} vs {}",
                base,
                engine.log_likelihood()
            );
            for c in 0..n {
                let mut h2 = h.clone();
                if let Some(pos) = h2.iter().position(|&x| x == c) {
                    h2.remove(pos);
                } else {
                    h2.push(c);
                }
                let expect = engine.ll_of(&h2) - base;
                let got = engine.delta()[c as usize];
                assert!(
                    (expect - got).abs() < 1e-7 * (1.0 + expect.abs()),
                    "comp {c}: delta {got} vs brute {expect} (|H|={})",
                    h.len()
                );
            }
        };

        check(&engine);
        // Random flip walk, including removals.
        let mut flipped: Vec<CompIdx> = Vec::new();
        for step in 0..12 {
            let c = if step % 4 == 3 && !flipped.is_empty() {
                flipped[rng.random_range(0..flipped.len())] // possibly remove
            } else {
                rng.random_range(0..n)
            };
            engine.flip(c);
            if let Some(pos) = flipped.iter().position(|&x| x == c) {
                flipped.remove(pos);
            } else {
                flipped.push(c);
            }
            check(&engine);
        }
    }

    #[test]
    fn flip_is_involutive() {
        let (topo, obs) = small_obs(2);
        let mut engine = Engine::new(&topo, &obs, HyperParams::default());
        let d0 = engine.delta().to_vec();
        let ll0 = engine.log_likelihood();
        let c = engine.n_comps() as u32 / 2;
        let gain = engine.flip(c);
        let back = engine.flip(c);
        assert!((gain + back).abs() < 1e-9);
        assert!((engine.log_likelihood() - ll0).abs() < 1e-9);
        for (i, (a, b)) in d0.iter().zip(engine.delta()).enumerate() {
            assert!((a - b).abs() < 1e-8, "delta[{i}] {a} vs {b}");
        }
        assert!(engine.hypothesis().is_empty());
    }

    #[test]
    fn delta_single_matches_delta_array() {
        let (topo, obs) = small_obs(3);
        let mut engine = Engine::new(&topo, &obs, HyperParams::default());
        let n = engine.n_comps() as u32;
        engine.flip(n / 3);
        engine.flip(2 * n / 3);
        for c in (0..n).step_by(7) {
            let arr = engine.delta()[c as usize];
            let single = engine.delta_single(c);
            assert!(
                (arr - single).abs() < 1e-8 * (1.0 + arr.abs()),
                "comp {c}: {arr} vs {single}"
            );
        }
    }

    #[test]
    fn flip_ll_only_tracks_likelihood() {
        let (topo, obs) = small_obs(4);
        let mut e1 = Engine::new(&topo, &obs, HyperParams::default());
        let mut e2 = Engine::new(&topo, &obs, HyperParams::default());
        let n = e1.n_comps() as u32;
        for c in [n / 5, n / 2, n - 3, n / 2] {
            let d1 = e1.flip(c);
            let d2 = e2.flip_ll_only(c);
            assert!((d1 - d2).abs() < 1e-9, "flip deltas differ for {c}");
        }
        assert!((e1.log_likelihood() - e2.log_likelihood()).abs() < 1e-9);
    }

    /// Three pods break the 2-pod "serial link" observational equivalence
    /// (with two pods, an up-link and the down-link it always feeds carry
    /// exactly the same flows and tie in likelihood — the equivalence-class
    /// phenomenon of Fig. 5c).
    fn three_pods() -> ClosParams {
        ClosParams {
            pods: 3,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        }
    }

    #[test]
    fn known_failure_gets_top_delta() {
        // One heavily dropping link: its initial delta should dominate.
        let topo = three_tier(three_pods());
        let router = Router::new(&topo);
        let bad_link = topo.fabric_links()[3];
        let mut flows = Vec::new();
        let hosts = topo.hosts().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..200 {
            let s = hosts[rng.random_range(0..hosts.len())];
            let mut d = hosts[rng.random_range(0..hosts.len())];
            while d == s {
                d = hosts[rng.random_range(0..hosts.len())];
            }
            let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
            let pick = rng.random_range(0..paths.len());
            let mut tp = vec![topo.host_uplink(s)];
            tp.extend_from_slice(&paths[pick]);
            tp.push(topo.host_downlink(d));
            let crosses = tp.contains(&bad_link);
            let sent = 100u64;
            let bad = if crosses { 5 } else { 0 };
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, 2000 + i, 80),
                stats: FlowStats {
                    packets: sent,
                    retransmissions: bad,
                    bytes: sent * 1500,
                    rtt_sum_us: 0,
                    rtt_count: 0,
                    rtt_max_us: 0,
                },
                class: TrafficClass::Passive,
                true_path: tp,
            });
        }
        let obs = assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        let engine = Engine::new(&topo, &obs, HyperParams::default());
        let best = (0..engine.n_comps() as u32)
            .max_by(|&a, &b| {
                engine.delta()[a as usize]
                    .partial_cmp(&engine.delta()[b as usize])
                    .unwrap()
            })
            .unwrap();
        assert_eq!(
            engine.component(best),
            flock_topology::Component::Link(bad_link),
            "the dropping link should have the highest delta"
        );
    }

    /// With no evidence the local spaces are empty: the engine allocates
    /// nothing and a search over it terminates immediately — the
    /// structural form of the old "zero deltas" guarantee.
    #[test]
    fn empty_observation_set_has_empty_local_space() {
        let topo = three_tier(ClosParams::tiny());
        let obs = ObservationSet {
            arena: flock_telemetry::PathArena::new().into(),
            flows: Vec::new(),
            mode: AnalysisMode::PerPacket,
        };
        let engine = Engine::new(&topo, &obs, HyperParams::default());
        assert_eq!(engine.n_comps(), 0);
        assert_eq!(engine.n_paths(), 0);
        assert_eq!(engine.n_sets(), 0);
        assert!(engine.delta().is_empty());
        assert_eq!(engine.log_likelihood(), 0.0);
        assert!(engine.n_global_comps() > 0);
        let sizes = engine.state_sizes();
        assert_eq!(sizes.comps, 0);
        assert_eq!(sizes.global_comps, engine.n_global_comps());
    }

    /// A rebound engine must be indistinguishable (under the global-id
    /// projection) from one built fresh on the same lineage-extending
    /// observation set: equal likelihood, and equal Δ per global
    /// component — the warm engine may carry extra zero-evidence local
    /// comps from earlier epochs, which must all sit at Δ = 0.
    #[test]
    fn rebind_matches_fresh_build() {
        use flock_telemetry::Assembler;
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let mut rng = StdRng::seed_from_u64(21);
        let mut asm = Assembler::new();

        let epoch_flows = |rng: &mut StdRng, n: usize| -> Vec<MonitoredFlow> {
            (0..n)
                .map(|i| {
                    let s = hosts[rng.random_range(0..hosts.len())];
                    let mut d = hosts[rng.random_range(0..hosts.len())];
                    while d == s {
                        d = hosts[rng.random_range(0..hosts.len())];
                    }
                    let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
                    let pick = rng.random_range(0..paths.len());
                    let mut tp = vec![topo.host_uplink(s)];
                    tp.extend_from_slice(&paths[pick]);
                    tp.push(topo.host_downlink(d));
                    let sent = rng.random_range(10..300u64);
                    let bad = rng.random_range(0..=sent.min(5));
                    MonitoredFlow {
                        key: FlowKey::tcp(s, d, 1000 + i as u16, 80),
                        stats: FlowStats {
                            packets: sent,
                            retransmissions: bad,
                            bytes: sent * 1500,
                            rtt_sum_us: 0,
                            rtt_count: 0,
                            rtt_max_us: 0,
                        },
                        class: TrafficClass::Passive,
                        true_path: tp,
                    }
                })
                .collect()
        };

        let kinds = [InputKind::A2, InputKind::P];
        let f1 = epoch_flows(&mut rng, 50);
        let obs1 = asm.assemble(&topo, &router, &f1, &kinds, AnalysisMode::PerPacket);
        let mut warm = Engine::new(&topo, &obs1, HyperParams::default());
        // Disturb the hypothesis so rebind has real state to clear.
        warm.flip(3);
        warm.flip(warm.n_comps() as u32 / 2);
        asm.recycle(obs1);

        let f2 = epoch_flows(&mut rng, 70);
        let obs2 = asm.assemble(&topo, &router, &f2, &kinds, AnalysisMode::PerPacket);
        warm.rebind(&topo, &obs2);
        let fresh = Engine::new(&topo, &obs2, HyperParams::default());

        assert_eq!(warm.n_flows(), fresh.n_flows());
        assert_eq!(warm.n_observations(), fresh.n_observations());
        assert!(warm.hypothesis().is_empty());
        assert!((warm.log_likelihood() - fresh.log_likelihood()).abs() < 1e-12);
        for g in 0..warm.n_global_comps() as u32 {
            let a = warm.local_comp(g).map_or(0.0, |l| warm.delta()[l as usize]);
            let b = fresh
                .local_comp(g)
                .map_or(0.0, |l| fresh.delta()[l as usize]);
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "global comp {g}: rebound {a} vs fresh {b}"
            );
        }
        // And the JLE invariant still holds after flips on the rebound
        // engine.
        let c = warm.n_comps() as u32 / 3;
        warm.flip(c);
        let h = warm.hypothesis().to_vec();
        let base = warm.ll_of(&h);
        assert!((base - warm.log_likelihood()).abs() < 1e-7);
    }

    #[test]
    fn filtered_engine_sees_only_selected_flows() {
        let (topo, obs) = small_obs(6);
        let all = bound(&topo, &obs, &accept(&obs, |_, _| true), &[]);
        let full = Engine::new(&topo, &obs, HyperParams::default());
        assert_eq!(all.n_flows(), full.n_flows());
        assert_eq!(all.n_comps(), full.n_comps());
        for (a, b) in all.delta().iter().zip(full.delta()) {
            assert!((a - b).abs() < 1e-12);
        }
        let none = bound(&topo, &obs, &[], &[]);
        assert_eq!(none.n_flows(), 0);
        assert_eq!(none.n_comps(), 0, "no evidence, no local components");
    }

    /// Accept lists that partition the observation set produce engines whose
    /// evidence is exactly additive: at any hypothesis reached by the
    /// same (global-id) flip sequence, the partial likelihoods and
    /// per-global-component Δs sum to the full engine's. This is the
    /// engine-level foundation of pod/spine sharding, where each shard
    /// engine binds only the slice of the evidence its accept list
    /// names. Components absent from a part's local space contribute
    /// zero from that part.
    #[test]
    fn filtered_engines_partition_evidence() {
        let (topo, obs) = small_obs(8);
        let params = HyperParams::default();
        let mut full = Engine::new(&topo, &obs, params);
        // A 3-way partition by path-set id (arbitrary but disjoint and
        // exhaustive).
        let mut parts: Vec<Engine> = (0..3u32)
            .map(|k| bound(&topo, &obs, &accept(&obs, |_, o| o.set.0 % 3 == k), &[]))
            .collect();
        assert_eq!(
            parts.iter().map(Engine::n_observations).sum::<usize>(),
            full.n_observations(),
            "partition must be lossless"
        );
        let agree = |full: &Engine, parts: &[Engine]| {
            let ll: f64 = parts.iter().map(Engine::log_likelihood).sum();
            assert!(
                (ll - full.log_likelihood()).abs() < 1e-8 * (1.0 + full.log_likelihood().abs()),
                "partial lls sum to {ll}, full {}",
                full.log_likelihood()
            );
            for g in 0..full.n_global_comps() as u32 {
                let d: f64 = parts
                    .iter()
                    .filter_map(|e| e.local_comp(g).map(|l| e.delta()[l as usize]))
                    .sum();
                let f = full.local_comp(g).map_or(0.0, |l| full.delta()[l as usize]);
                assert!(
                    (d - f).abs() < 1e-8 * (1.0 + f.abs()),
                    "global comp {g}: partial sum {d} vs full {f}"
                );
            }
        };
        agree(&full, &parts);
        let n = full.n_comps() as u32;
        // Flip by *global* id: each engine translates to its own local
        // space; engines without the component skip (zero evidence).
        for c in [n / 5, n / 2, n - 2, n / 2] {
            let g = full.global_comp(c);
            let dll_full = full.flip(c);
            let dll_parts: f64 = parts
                .iter_mut()
                .filter_map(|e| e.local_comp(g).map(|l| e.flip(l)))
                .sum();
            assert!(
                (dll_full - dll_parts).abs() < 1e-8 * (1.0 + dll_full.abs()),
                "flip(global {g}): partial sum {dll_parts} vs full {dll_full}"
            );
            agree(&full, &parts);
        }
    }

    #[test]
    fn same_rack_flow_blames_tor_via_extras() {
        // An intra-rack flow has an empty fabric path: the ToR device must
        // still be blameable (it lives in the flow's extras).
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        // hosts[0] and hosts[1] share a leaf in the tiny Clos.
        let (a, b) = (hosts[0], hosts[1]);
        assert_eq!(topo.host_leaf(a), topo.host_leaf(b));
        let tp = vec![topo.host_uplink(a), topo.host_downlink(b)];
        let flows = vec![MonitoredFlow {
            key: FlowKey::tcp(a, b, 1, 80),
            stats: FlowStats {
                packets: 100,
                retransmissions: 10,
                bytes: 150_000,
                rtt_sum_us: 0,
                rtt_count: 0,
                rtt_max_us: 0,
            },
            class: TrafficClass::Passive,
            true_path: tp,
        }];
        let obs = assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        let engine = Engine::new(&topo, &obs, HyperParams::default());
        let tor = topo.host_leaf(a);
        let tor_comp = engine
            .comp_of(flock_topology::Component::Device(tor))
            .expect("the ToR is implicated, so it has a local id");
        assert!(
            engine.delta()[tor_comp as usize] > 0.0,
            "ToR device must be implicated by the intra-rack flow"
        );
    }

    /// Build an observation set designed to coalesce hard: many host
    /// pairs per ToR pair, all sending the same number of packets, plus a
    /// handful of distinct drop counts.
    fn coalescable_obs(seed: u64) -> (flock_topology::Topology, ObservationSet) {
        let topo = three_tier(three_pods());
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flows = Vec::new();
        for i in 0..200 {
            let s = hosts[rng.random_range(0..hosts.len())];
            let mut d = hosts[rng.random_range(0..hosts.len())];
            while d == s {
                d = hosts[rng.random_range(0..hosts.len())];
            }
            let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
            let pick = rng.random_range(0..paths.len());
            let mut tp = vec![topo.host_uplink(s)];
            tp.extend_from_slice(&paths[pick]);
            tp.push(topo.host_downlink(d));
            let sent = 100u64; // fixed-size RPC-style traffic
            let bad = [0u64, 0, 0, 1, 3][rng.random_range(0..5usize)];
            flows.push(MonitoredFlow {
                key: FlowKey::tcp(s, d, 3000 + i, 80),
                stats: FlowStats {
                    packets: sent,
                    retransmissions: bad,
                    bytes: sent * 1500,
                    rtt_sum_us: 0,
                    rtt_count: 0,
                    rtt_max_us: 0,
                },
                class: TrafficClass::Passive,
                true_path: tp,
            });
        }
        let obs = assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::A2, InputKind::P],
            AnalysisMode::PerPacket,
        );
        (topo, obs)
    }

    /// Observation order is the assembler's business, not a precondition
    /// of the engine: when a set's observations arrive interleaved with
    /// other sets' (so its super-flows are *not* contiguous in the flow
    /// table), the engine coalesces less and is otherwise exactly as
    /// right. This is the input that keeps `set_flows` a counting
    /// scatter rather than per-set `(lo, hi)` ranges.
    #[test]
    fn interleaved_sets_coalesce_less_never_incorrectly() {
        let (topo, sorted) = coalescable_obs(33);
        let mut interleaved = sorted.clone();
        let (even, odd): (Vec<_>, Vec<_>) = sorted
            .flows
            .iter()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        interleaved.flows = even.into_iter().chain(odd).map(|(_, o)| *o).collect();

        let params = HyperParams::default();
        let mut a = Engine::new(&topo, &sorted, params);
        let mut b = Engine::new(&topo, &interleaved, params);
        let split = |e: &Engine| {
            (0..e.n_sets() as u32).any(|s| {
                let at: Vec<usize> = (0..e.sflows.len())
                    .filter(|&i| e.sflows[i].set == s)
                    .collect();
                at.windows(2).any(|w| w[1] != w[0] + 1)
            })
        };
        assert!(!split(&a), "assembler order keeps a set's flows adjacent");
        assert!(split(&b), "the interleaved input must break contiguity");
        assert_eq!(a.n_observations(), b.n_observations());
        assert!(b.n_flows() > a.n_flows(), "split runs coalesce less");

        let agree = |a: &Engine, b: &Engine| {
            assert!((a.log_likelihood() - b.log_likelihood()).abs() < 1e-8);
            for g in 0..a.n_global_comps() as u32 {
                let da = a.local_comp(g).map_or(0.0, |l| a.delta()[l as usize]);
                let db = b.local_comp(g).map_or(0.0, |l| b.delta()[l as usize]);
                assert!(
                    (da - db).abs() < 1e-8 * (1.0 + da.abs()),
                    "global comp {g}: sorted {da} vs interleaved {db}"
                );
            }
        };
        agree(&a, &b);
        for c in [1, a.n_comps() as u32 / 2, a.n_comps() as u32 - 1, 1] {
            let g = a.global_comp(c);
            a.flip(c);
            b.flip(b.local_comp(g).unwrap());
            agree(&a, &b);
        }
    }

    /// Pinned weight must track member state exactly through extras
    /// flips, keeping the fabric sweep's active weight consistent.
    #[test]
    fn pinned_weight_consistent_after_extras_flips() {
        let (topo, obs) = coalescable_obs(32);
        let mut engine = Engine::new(&topo, &obs, HyperParams::default());
        // Flip every host-attachment link component on, then off.
        let host_comps: Vec<u32> = (0..engine.n_comps() as u32)
            .filter(|&c| !engine.is_device(c))
            .take(24)
            .collect();
        for &c in &host_comps {
            engine.flip(c);
        }
        let h = engine.hypothesis().to_vec();
        assert!((engine.ll_of(&h) - engine.log_likelihood()).abs() < 1e-7);
        for &c in &host_comps {
            engine.flip(c);
        }
        assert!(engine.hypothesis().is_empty());
        assert!((engine.log_likelihood()).abs() < 1e-7);
        for f in &engine.sflows {
            assert_eq!(f.pinned, 0.0, "all pins released");
        }
        for m in &engine.members {
            assert_eq!(m.extra_fail, 0);
        }
    }

    /// The engine's resident state scales with the *filtered* evidence:
    /// an engine that accepts a third of the flows projects only the
    /// sets/paths/components that third touches.
    #[test]
    fn filtered_engine_state_is_local() {
        let (topo, obs) = small_obs(12);
        let full = Engine::new(&topo, &obs, HyperParams::default());
        let part = bound(&topo, &obs, &accept(&obs, |i, _| i % 7 == 0), &[]);
        let fs = full.state_sizes();
        let ps = part.state_sizes();
        assert!(ps.sets < fs.sets, "sets {} !< {}", ps.sets, fs.sets);
        assert!(ps.paths < fs.paths, "paths {} !< {}", ps.paths, fs.paths);
        assert!(ps.comps < fs.comps, "comps {} !< {}", ps.comps, fs.comps);
        assert!(ps.comps < ps.global_comps);
        assert_eq!(part.delta().len(), ps.comps);
    }

    /// Binding a foreign-lineage arena, or an older snapshot than one
    /// already bound, is a typed error (not release-mode UB) that leaves
    /// the engine exactly as it was: its state is untouched, and the
    /// next accepted bind is bit-equal to a twin's that never saw the
    /// rejected set.
    #[test]
    fn rebind_rejects_foreign_and_shrunk_arenas() {
        use flock_telemetry::Assembler;
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let flows = small_flows(&topo, &router, 13);
        let kinds = [InputKind::A2, InputKind::P];
        // Two snapshots of one arena: the second assembly interns more.
        let mut asm = Assembler::new();
        let obs = asm.assemble(&topo, &router, &flows[..8], &kinds, AnalysisMode::PerPacket);
        let extended = asm.assemble(&topo, &router, &flows, &kinds, AnalysisMode::PerPacket);
        assert_eq!(extended.arena.lineage(), obs.arena.lineage());
        assert!(extended.arena.set_count() > obs.arena.set_count());

        let params = HyperParams::default();
        let (mut engine, mut dir) = (unbound(&topo), TermDirectory::new(&params));
        let (mut twin, mut twin_dir) = (unbound(&topo), TermDirectory::new(&params));
        bind_all(&mut engine, &topo, &obs, &mut dir, &[]).unwrap();
        bind_all(&mut twin, &topo, &obs, &mut twin_dir, &[]).unwrap();
        let seed = [engine.global_comp(0), engine.global_comp(5)];

        // Foreign lineage: a fresh assembly of the same flows.
        let (_, foreign) = small_obs(13);
        let before = state_bits(&engine);
        let err = bind_all(&mut engine, &topo, &foreign, &mut dir, &seed).unwrap_err();
        assert!(matches!(err, ViewError::ForeignLineage { .. }), "{err}");
        assert_eq!(state_bits(&engine), before);
        bind_all(&mut engine, &topo, &extended, &mut dir, &seed).unwrap();
        bind_all(&mut twin, &topo, &extended, &mut twin_dir, &seed).unwrap();
        assert_eq!(state_bits(&engine), state_bits(&twin));
        assert_eq!(engine.hypothesis().len(), 2);

        // Shrunk same-lineage arena: the older snapshot, after the newer.
        let before = state_bits(&engine);
        let err = bind_all(&mut engine, &topo, &obs, &mut dir, &[]).unwrap_err();
        assert!(matches!(err, ViewError::ArenaShrunk { .. }), "{err}");
        assert_eq!(state_bits(&engine), before);
        bind_all(&mut engine, &topo, &extended, &mut dir, &[]).unwrap();
        bind_all(&mut twin, &topo, &extended, &mut twin_dir, &[]).unwrap();
        assert_eq!(state_bits(&engine), state_bits(&twin));
        assert_eq!(engine.n_flows(), twin.n_flows());
    }

    /// An engine reads every ladder through the table it was bound with,
    /// so nothing ties it to one directory: bound to epoch 1 through
    /// directory A and to epoch 2 through a fresh directory B, it reads
    /// to the bit what a private engine reads — likelihood and Δ, at the
    /// bind and after a flip.
    #[test]
    fn engine_binds_tables_of_any_directory() {
        use flock_telemetry::Assembler;
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let flows = small_flows(&topo, &router, 13);
        let kinds = [InputKind::A2, InputKind::P];
        let mut asm = Assembler::new();
        let epochs = [
            asm.assemble(
                &topo,
                &router,
                &flows[..30],
                &kinds,
                AnalysisMode::PerPacket,
            ),
            asm.assemble(&topo, &router, &flows, &kinds, AnalysisMode::PerPacket),
        ];
        let params = HyperParams::default();
        let (mut engine, mut private) = (unbound(&topo), unbound(&topo));
        for obs in &epochs {
            let mut dir = TermDirectory::new(&params);
            bind_all(&mut engine, &topo, obs, &mut dir, &[]).unwrap();
            private.rebind(&topo, obs);
            assert_eq!(state_bits(&engine), state_bits(&private));
            assert_eq!(
                engine.term_table_sizes().0,
                dir.len(),
                "it reads this epoch's directory's store"
            );
            let c = engine.n_comps() as u32 / 2;
            assert_eq!(engine.flip(c).to_bits(), private.flip(c).to_bits());
            assert_eq!(state_bits(&engine), state_bits(&private));
        }
    }

    /// Every check precedes the first mutation. A fresh view accepts any
    /// lineage, so the one refusal an unbound engine can meet is the
    /// table-coverage assert: it must latch nothing — the engine then
    /// binds *another* lineage, as a fresh one would. Only a successful
    /// bind fixes the lineage, and a typed rejection after it leaves no
    /// trace in the next accepted bind.
    #[test]
    fn rejected_first_bind_leaves_the_engine_unbound() {
        let (topo, obs) = small_obs(13);
        let (_, other) = small_obs(13);
        let all = accept(&obs, |_, _| true);
        let mut short = obs.clone();
        short.flows.truncate(1);
        let short_table = keyed(&short);
        let mut engine = unbound(&topo);
        let refused = catch_unwind(AssertUnwindSafe(|| {
            engine.try_bind(&topo, &obs, &all, &short_table, &[])
        }));
        assert!(refused.is_err(), "a table over another set must not bind");
        assert_eq!(engine.view().lineage(), None);
        assert_eq!(engine.n_sets(), 0);

        let mut dir = TermDirectory::new(&HyperParams::default());
        bind_all(&mut engine, &topo, &other, &mut dir, &[]).unwrap();
        let fresh = Engine::new(&topo, &other, HyperParams::default());
        assert_eq!(state_bits(&engine), state_bits(&fresh));
        assert_eq!(engine.n_flows(), fresh.n_flows());

        // Bound now: the first lineage is foreign.
        let err = bind_all(&mut engine, &topo, &obs, &mut dir, &[]).unwrap_err();
        assert!(matches!(err, ViewError::ForeignLineage { .. }), "{err}");
        bind_all(&mut engine, &topo, &other, &mut dir, &[]).unwrap();
        assert_eq!(state_bits(&engine), state_bits(&fresh));
    }

    /// Entering a seed at bind leaves exactly the hypothesis state that
    /// flipping it in leaves — every counter, pin and argmax bias, to the
    /// bit (they are integers, or sums and negations of integer-valued
    /// weights and priors) — with Δ and the likelihood equal within fp
    /// tolerance. The seed mixes fabric components with host links
    /// (extras of prefix groups), names one component twice and one the
    /// engine has never met.
    #[test]
    fn seeded_bind_state_is_the_flipped_state() {
        for (seed, kinds) in [
            (17u64, &[InputKind::A2, InputKind::P][..]),
            (18u64, &[InputKind::Int][..]),
        ] {
            let (topo, obs) = small_obs_with(seed, kinds);
            let accepted = accept(&obs, |i, _| i % 5 == 0);
            let build = |seed: &[CompIdx]| bound(&topo, &obs, &accepted, seed);
            let mut flipped = build(&[]);
            let n = flipped.n_comps() as u32;
            let extras: Vec<CompIdx> = flipped
                .members
                .iter()
                .flat_map(|m| m.extras().to_vec())
                .collect();
            let fabric: Vec<CompIdx> = (0..flipped.n_sets() as u32)
                .flat_map(|s| flipped.sets.comps(s).to_vec())
                .collect();
            let locals = [
                fabric[0],
                extras[0],
                fabric[fabric.len() / 2],
                extras[extras.len() / 2],
            ];
            let unseen = (0..flipped.n_global_comps() as u32)
                .find(|&g| flipped.local_comp(g).is_none())
                .expect("a dozen flows leave some host link untouched");
            let mut hyp: Vec<CompIdx> = locals.iter().map(|&c| flipped.global_comp(c)).collect();
            hyp.insert(1, unseen);
            hyp.push(hyp[0]);

            let seeded = build(&hyp);
            for &c in &locals {
                if !flipped.in_hypothesis(c) {
                    flipped.flip(c);
                }
            }
            assert_eq!(seeded.hypothesis, flipped.hypothesis);
            assert_eq!(seeded.in_h, flipped.in_h);
            assert_eq!(seeded.set_bad, flipped.set_bad);
            assert!(seeded.set_bad.iter().any(|&b| b > 0));
            let fails = |e: &Engine| e.members.iter().map(|m| m.extra_fail).collect::<Vec<_>>();
            assert_eq!(fails(&seeded), fails(&flipped));
            assert!(fails(&seeded).iter().any(|&f| f > 0));
            let pins = |e: &Engine| e.sflows.iter().map(|f| f.pinned).collect::<Vec<_>>();
            assert_eq!(pins(&seeded), pins(&flipped));
            assert_eq!(seeded.gain_move_bias, flipped.gain_move_bias);
            assert_eq!(seeded.gain_add_bias, flipped.gain_add_bias);
            for c in 0..n {
                let expect = if seeded.in_hypothesis(c) {
                    (-seeded.prior_logodds(c), f64::NEG_INFINITY)
                } else {
                    (seeded.prior_logodds(c), seeded.prior_logodds(c))
                };
                let got = (
                    seeded.gain_move_bias[c as usize],
                    seeded.gain_add_bias[c as usize],
                );
                assert_eq!(got, expect, "comp {c}");
            }
            let close = |a: f64, b: f64| (a - b).abs() < 1e-7 * (1.0 + b.abs());
            assert!(close(seeded.log_likelihood(), flipped.log_likelihood()));
            for (c, (a, b)) in seeded.delta().iter().zip(flipped.delta()).enumerate() {
                assert!(close(*a, *b), "comp {c}: seeded {a} vs flipped {b}");
            }
        }
    }

    /// The member paths of local set `s`: its arena set's.
    fn arena_members(engine: &Engine, s: u32) -> &PathSet {
        engine.sets.members(s)
    }

    /// The brute-force component row of member `i` of local set `s`: its
    /// links and their switch ends, read off the topology, each link as
    /// `[link, src, dst]`, deduplicated, in first-touch order.
    fn brute_row(
        engine: &Engine,
        topo: &flock_topology::Topology,
        s: u32,
        i: usize,
    ) -> Vec<CompIdx> {
        let mut row = Vec::new();
        for &l in &arena_members(engine, s)[i] {
            let lk = topo.link(l);
            let ends = [lk.src, lk.dst].map(|end| engine.space().device_comp(end));
            for g in std::iter::once(Some(engine.space().link_comp(l)))
                .chain(ends)
                .flatten()
            {
                let c = engine.local_comp(g).unwrap();
                if !row.contains(&c) {
                    row.push(c);
                }
            }
        }
        row
    }

    /// The sets whose rows the set layer has derived, each of whose rows
    /// equals its path's [`brute_row`].
    fn derived_sets(engine: &Engine, topo: &flock_topology::Topology) -> Vec<u32> {
        let mut derived = Vec::new();
        for s in 0..engine.n_sets() as u32 {
            let Some(rows) = engine.sets.derived_rows(s) else {
                continue;
            };
            for (i, row) in rows.enumerate() {
                assert_eq!(
                    row,
                    &brute_row(engine, topo, s, i)[..],
                    "set {s}, member {i}"
                );
            }
            derived.push(s);
        }
        derived
    }

    /// Member paths whose rows the set layer has derived.
    fn derived_paths(engine: &Engine) -> usize {
        (0..engine.n_sets() as u32)
            .filter_map(|s| engine.sets.derived_rows(s))
            .map(Iterator::count)
            .sum()
    }

    /// The sets of `comps`, ascending and deduplicated.
    fn sets_of(engine: &Engine, comps: impl IntoIterator<Item = CompIdx>) -> Vec<u32> {
        let mut sets: Vec<u32> = comps
            .into_iter()
            .flat_map(|c| engine.comp_to_sets.get(c).to_vec())
            .collect();
        sets.sort_unstable();
        sets.dedup();
        sets
    }

    /// The `set_bad` oracle. Every derived path row is its brute-force
    /// row, and every set's `set_bad` is the number of its member paths
    /// whose brute-force row meets the hypothesis.
    fn assert_set_bad(engine: &Engine, topo: &flock_topology::Topology) {
        derived_sets(engine, topo);
        for s in 0..engine.n_sets() as u32 {
            let bad = (0..arena_members(engine, s).len())
                .filter(|&i| {
                    let row = brute_row(engine, topo, s, i);
                    row.iter().any(|&c| engine.in_h[c as usize])
                })
                .count() as u32;
            assert_eq!(engine.set_bad[s as usize], bad, "set_bad of set {s}");
        }
    }

    /// `delta_single` of every component and `ll_of` of the hypothesis
    /// with and without each of `extra`, to the bit.
    fn lazy_reads(engine: &Engine, extra: &[CompIdx]) -> Vec<u64> {
        let h = engine.hypothesis().to_vec();
        let mut bits: Vec<u64> = (0..engine.n_comps() as u32)
            .map(|c| engine.delta_single(c).to_bits())
            .collect();
        bits.push(engine.ll_of(&h).to_bits());
        for &c in extra {
            let mut h2 = h.clone();
            h2.push(c);
            bits.push(engine.ll_of(&h2).to_bits());
        }
        bits
    }

    /// Rows are derived per set on first use and never go stale. A
    /// cold bind at the empty seed derives no row; a seeded rebind
    /// over a growing view derives exactly the sets its seed enters; an
    /// extra-only flip exactly the sets of the members it pins; a fabric
    /// flip at least the sets it sweeps — and every derived row is the
    /// brute-force row, and the `set_bad` that entering the seed,
    /// [`Engine::flip`] and [`Engine::flip_ll_only`] count through them
    /// is the brute-force one. `delta_single` and `ll_of`
    /// over sets not yet derived read the same rows, to the bit.
    #[test]
    fn derived_rows_are_the_brute_force_rows() {
        use flock_telemetry::Assembler;
        let topo = three_tier(three_pods());
        let router = Router::new(&topo);
        let flows = small_flows(&topo, &router, 41);
        let kinds = [InputKind::A2, InputKind::P];
        let mut asm = Assembler::new();
        let mut dir = TermDirectory::new(&HyperParams::default());
        let mut engine = unbound(&topo);
        for (epoch, upto) in [8, 24, 60].into_iter().enumerate() {
            let obs = asm.assemble(
                &topo,
                &router,
                &flows[..upto],
                &kinds,
                AnalysisMode::PerPacket,
            );
            let (old_sets, old_comps) = (engine.n_sets() as u32, engine.n_comps() as u32);
            let seed: Vec<CompIdx> = engine
                .hypothesis()
                .iter()
                .map(|&c| engine.global_comp(c))
                .collect();
            bind_all(&mut engine, &topo, &obs, &mut dir, &seed).unwrap();
            let n_sets = engine.n_sets() as u32;
            assert!(n_sets > old_sets, "epoch {epoch} must grow the view");
            let widths: Vec<usize> = (0..n_sets)
                .map(|s| arena_members(&engine, s).len())
                .collect();
            assert!((0..n_sets).all(|s| engine.sets.width(s) as usize == widths[s as usize]));
            assert_eq!(engine.state_sizes().paths, widths.iter().sum::<usize>());
            // The new sets' paths run through known components, so
            // entering the seed can reach paths the view gained this
            // epoch.
            let crosses_known = |s: u32| {
                (0..engine.sets.width(s) as usize).any(|i| {
                    brute_row(&engine, &topo, s, i)
                        .iter()
                        .any(|&c| c < old_comps)
                })
            };
            assert!(
                epoch == 0 || (old_sets..n_sets).any(crosses_known),
                "epoch {epoch}: new paths must cross known components"
            );
            // Entering the seed derived exactly its sets' path rows (none
            // on the cold bind) and counted their `set_bad`.
            let seeded = engine.hypothesis().to_vec();
            assert_eq!(seeded.len(), seed.len(), "epoch {epoch}");
            assert_eq!(derived_sets(&engine, &topo), sets_of(&engine, seeded));
            assert_eq!(derived_paths(&engine) == 0, epoch == 0);
            assert_set_bad(&engine, &topo);
            let fresh: Vec<CompIdx> = (old_comps..engine.n_comps() as u32).step_by(5).collect();
            let lazy = lazy_reads(&engine, &fresh);
            for s in 0..engine.n_sets() as u32 {
                engine.sets.bad(s, &engine.in_h);
            }
            assert_eq!(derived_sets(&engine, &topo).len(), engine.n_sets());
            assert_eq!(
                lazy_reads(&engine, &fresh),
                lazy,
                "epoch {epoch}: lazy vs derived rows"
            );

            // Forget every row, so the flips derive their own.
            engine.sets.forget_rows();
            // An extra-only flip derives the sets of the members it pins.
            let extra = (0..engine.n_comps() as u32)
                .find(|&c| {
                    !engine.in_hypothesis(c)
                        && engine.comp_to_sets.get(c).is_empty()
                        && !engine.comp_extra_members.get(c).is_empty()
                })
                .expect("host links are extras");
            let mut pinned: Vec<u32> = engine
                .comp_extra_members
                .get(extra)
                .iter()
                .map(|&mi| engine.members[mi as usize])
                .filter(|m| m.extra_fail == 0)
                .map(|m| engine.sflows[m.flow as usize].set)
                .collect();
            pinned.sort_unstable();
            pinned.dedup();
            assert!(!pinned.is_empty(), "epoch {epoch}: the extra pins a member");
            engine.flip(extra);
            assert_eq!(derived_sets(&engine, &topo), pinned, "epoch {epoch}");
            let n = engine.n_comps() as u32;
            let walk = [n / 3, 2 * n / 3, n / 3 + 1, n / 3];
            for c in walk {
                engine.flip(c);
            }
            let derived = derived_sets(&engine, &topo);
            assert!(sets_of(&engine, walk).iter().all(|s| derived.contains(s)));
            assert_set_bad(&engine, &topo);
            let h = engine.hypothesis().to_vec();
            assert!((engine.ll_of(&h) - engine.log_likelihood()).abs() < 1e-7);
            // Without Δ maintenance a flip counts `set_bad` the same way;
            // walking back restores the state the Δ array belongs to.
            let ll = engine.log_likelihood();
            let ll_only = [n / 4, 3 * n / 4, n / 4 + 2, 2 * n / 3];
            for c in ll_only {
                engine.flip_ll_only(c);
                assert_set_bad(&engine, &topo);
            }
            let h = engine.hypothesis().to_vec();
            assert!((engine.ll_of(&h) - engine.log_likelihood()).abs() < 1e-7);
            for c in ll_only.into_iter().rev() {
                engine.flip_ll_only(c);
            }
            assert_set_bad(&engine, &topo);
            assert!((engine.log_likelihood() - ll).abs() < 1e-7);
            // The next bind derives its seed's rows afresh.
            engine.sets.forget_rows();
        }
    }

    /// The fixture of [`round_trip_path_counts_a_device_once`]: two
    /// round trips from one ToR up to each of two aggs and back, observed
    /// as a set of the first alone and as the set of both — so each set
    /// owns a copy of the first round trip, and both sets cross the ToR.
    /// The pair's flow enters from the ToR's first host, so that host's
    /// uplink is an extra of the pair's set alone.
    fn round_trip_fixture() -> (
        flock_topology::Topology,
        ObservationSet,
        flock_topology::Component,
    ) {
        let topo = three_tier(ClosParams::tiny());
        let tor = topo.host_leaf(topo.hosts()[0]);
        let round_trips: Vec<Vec<LinkId>> = topo
            .out_links(tor)
            .iter()
            .filter(|&&up| topo.node(topo.link(up).dst).role.is_switch())
            .map(|&up| {
                let agg = topo.link(up).dst;
                let down = *topo
                    .out_links(agg)
                    .iter()
                    .find(|&&l| topo.link(l).dst == tor)
                    .expect("links come in pairs");
                vec![up, down]
            })
            .collect();
        assert!(round_trips.len() >= 2, "the tiny Clos has two aggs per pod");

        let mut arena = flock_telemetry::PathArena::new();
        let single = arena.intern_single(&round_trips[0]);
        let pair = arena.intern_set(PathSet::from_paths(&round_trips[..2]));
        let host_up = topo.host_uplink(topo.hosts()[0]);
        let flows = [(single, None), (pair, Some(host_up))]
            .iter()
            .map(|&(set, up)| FlowObs {
                prefix: [up, None],
                set,
                sent: 100,
                bad: 4,
                weight: 1,
            })
            .collect();
        let obs = ObservationSet {
            arena: arena.into(),
            flows,
            mode: AnalysisMode::PerPacket,
        };
        (topo, obs, flock_topology::Component::Device(tor))
    }

    /// The cached g-ladder counts *paths*, not visits: a round-trip probe
    /// path leaves a device and comes back to it, yet contributes one to
    /// that device's `g`; a device both round trips of a set start from
    /// gets `g = 2`.
    #[test]
    fn round_trip_path_counts_a_device_once() {
        let (topo, obs, tor) = round_trip_fixture();
        let engine = Engine::new(&topo, &obs, HyperParams::default());
        let tor_c = engine.comp_of(tor).unwrap();
        // Local set ids follow first touch: 0 = the single round trip,
        // 1 = the pair.
        let g_of = |s: u32, c: CompIdx| {
            let at = engine.sets.comps(s).binary_search(&c).unwrap();
            let gi = engine.sets.g_index(s)[at];
            engine.sets.g_ladder(s)[gi as usize]
        };
        assert_eq!(engine.sets.g_ladder(0), &[1]);
        assert_eq!(g_of(0, tor_c), 1, "visited twice, counted once");
        assert_eq!(engine.sets.g_ladder(1), &[1, 2]);
        assert_eq!(g_of(1, tor_c), 2, "one per member path");
        for &c in engine.sets.comps(1) {
            if c != tor_c {
                assert_eq!(g_of(1, c), 1, "comp {c} lies on one member path");
            }
        }
        // And the Δ built from the cache is the brute-force neighbor gain.
        for c in 0..engine.n_comps() as u32 {
            let expect = engine.ll_of(&[c]);
            let got = engine.delta()[c as usize];
            assert!((expect - got).abs() < 1e-9 * (1.0 + expect.abs()));
        }
    }

    /// On the round-trip fixture, a cold bind derives no path row and
    /// `delta_single` reads rows computed on the fly. Flipping the host
    /// uplink — an extra of the pair's flow alone — derives the pair's
    /// rows only; flipping the shared ToR then derives the single round
    /// trip's too. A derived row holds exactly the path's links and
    /// switches in first-touch order, `[up, ToR, agg, down]`: the device
    /// the round trip comes back to is listed once. Flipping the ToR
    /// fails every round trip of both sets, and every flip leaves
    /// `set_bad` and Δ at their brute-force values, with `delta_single`
    /// equal to `delta()`.
    #[test]
    fn round_trip_rows_and_shared_tor_flip() {
        let (topo, obs, tor) = round_trip_fixture();
        let mut engine = Engine::new(&topo, &obs, HyperParams::default());
        let tor_c = engine.comp_of(tor).unwrap();
        let local = |g: CompIdx| engine.local_comp(g).unwrap();
        // Local set ids follow first touch: 0 = the single round trip,
        // 1 = the pair.
        let paths = [(0, 0), (1, 0), (1, 1)];
        let expect: Vec<Vec<CompIdx>> = paths
            .iter()
            .map(|&(s, i)| {
                let &[up, down] = &arena_members(&engine, s)[i] else {
                    panic!("a round trip is two links");
                };
                let agg = engine.space().device_comp(topo.link(up).dst).unwrap();
                let link = |l| local(engine.space().link_comp(l));
                vec![link(up), tor_c, local(agg), link(down)]
            })
            .collect();
        assert_eq!(
            engine.n_paths(),
            3,
            "the single's round trip, then the pair's two"
        );
        assert_eq!(expect[0], expect[1], "one round trip, a copy per set");
        for (&(s, i), row) in paths.iter().zip(&expect) {
            assert_eq!(&brute_row(&engine, &topo, s, i), row, "set {s}, member {i}");
        }
        let host_up = topo.host_uplink(topo.hosts()[0]);
        let host_up = engine
            .comp_of(flock_topology::Component::Link(host_up))
            .unwrap();

        let check = |engine: &Engine| {
            assert_set_bad(engine, &topo);
            let h = engine.hypothesis().to_vec();
            let base = engine.ll_of(&h);
            assert!((base - engine.log_likelihood()).abs() < 1e-9);
            for c in 0..engine.n_comps() as u32 {
                let mut h2 = h.clone();
                match h2.iter().position(|&x| x == c) {
                    Some(at) => drop(h2.remove(at)),
                    None => h2.push(c),
                }
                let expect = engine.ll_of(&h2) - base;
                let close = |got: f64| (expect - got).abs() < 1e-9 * (1.0 + expect.abs());
                assert!(close(engine.delta()[c as usize]), "comp {c}: delta()");
                assert!(close(engine.delta_single(c)), "comp {c}: delta_single");
            }
        };
        assert!(
            derived_sets(&engine, &topo).is_empty(),
            "a cold bind derives none"
        );
        check(&engine);
        assert!(
            derived_sets(&engine, &topo).is_empty(),
            "delta_single derives none"
        );
        engine.flip(host_up);
        assert_eq!(derived_sets(&engine, &topo), [1], "the pinned member's set");
        check(&engine);
        engine.flip(tor_c);
        assert_eq!(derived_sets(&engine, &topo), [0, 1]);
        let pair: Vec<_> = engine.sets.derived_rows(1).unwrap().collect();
        assert_eq!(pair, [&expect[1][..], &expect[2][..]]);
        assert_eq!(engine.set_bad, [1, 2], "every round trip fails");
        check(&engine);
        engine.flip(tor_c);
        assert_eq!(engine.set_bad, [0, 0]);
        check(&engine);
    }

    /// The engine validates that the offered observation set is one its
    /// view covers — handing obs from another assembly would index the
    /// wrong arena with the view's ids.
    #[test]
    fn rebind_view_rejects_uncovered_observation_set() {
        let (topo, obs) = small_obs(15);
        let table = keyed(&obs);
        let all = accept(&obs, |_, _| true);
        let mut engine = unbound(&topo);
        engine.try_bind(&topo, &obs, &all, &table, &[]).unwrap();

        // Same flows, fresh assembly: different arena lineage.
        let (_, foreign) = small_obs(15);
        let err = engine
            .try_bind(&topo, &foreign, &all, &table, &[])
            .unwrap_err();
        assert!(matches!(err, ViewError::ForeignLineage { .. }), "{err}");

        // The engine is still usable against the covered set.
        engine.try_bind(&topo, &obs, &all, &table, &[]).unwrap();
    }
}
