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
//! sets its accepted observations touch, each with its run of member
//! paths. **All internal state and
//! every public index on this type — `delta()`, `flip()`, `hypothesis()`
//! — is a dense local id**, assigned in first-touch order and stable for
//! the engine's lifetime (views are append-only). Components are
//! localized the same way as paths bring them in; translate at the
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
//! layer is append-only — a path or set, once viewed, keeps its local id
//! and its content forever — and lives in flat offsets+items *row
//! tables* (one allocation pair per table, rows appended as the view
//! grows, never rewritten):
//!
//! * per viewed path set: the sorted union of its member paths'
//!   components (`set_comps`), the cached structure half of the initial Δ
//!   (`set_ladders`/`set_gidx`, see below), and the number of member paths
//!   with a non-zero fail count (`set_bad`), shared by every flow using
//!   the set. A set's member paths are the contiguous run of local path
//!   ids the view assigned it ([`ArenaView::paths_of`]), in member order,
//!   so no table stores member ids: local path `paths_of(s).start + i`
//!   has the links of member `i` of the arena set
//!   ([`ArenaSnapshot::members`], for an ECMP set the `Router`'s own
//!   `PathSet`);
//! * per viewed fabric path: the current *fail count* — how many
//!   hypothesis components lie on it (`path_fail`; a set's fail counts
//!   are one contiguous slice).
//!
//! A path's component row — its links and their switch ends,
//! deduplicated, in first-touch order — is read only by a flip (for the
//! sets it sweeps), a flipped extra (for the set of each member it pins)
//! and entering a seed (for the sets it enters), and a search's flips
//! reach a small share of the viewed paths. So the cold bind writes
//! none: path rows are derived **on first use**, one whole set at a
//! time, off the arena snapshot the engine was last bound to
//! (`path_rows`), and kept for the engine's lifetime (a set's content
//! never changes, so a derived row never goes stale).
//! [`Engine::delta_single`] and [`Engine::ll_of`] read `&self` and
//! compute a row that is not derived yet on the fly.
//!
//! One inverted index walks this layer from a component: its sets
//! (`comp_to_sets`), transposed eagerly when the view grew, which the
//! initial Δ, every flip and the evidence report read. A flip or a seed
//! reaches the component's paths through them, one set at a time: it
//! moves the fail count of each member path whose row contains the
//! component (a path belongs to one set, so each moves once), then
//! recounts that set's `set_bad`.
//!
//! The evidence layer is rebuilt every epoch, from the accepted
//! observations and the epoch's [`EpochFlowTable`] — the evidence keys
//! `(sent, bad, w)` looked up in the [`TermDirectory`] and scored **once
//! per epoch** by whoever assembled it, however many engines the
//! observation fans out to. The engine reads an observation's term id
//! and score by index and finds the id's `llf` ladder through a dense
//! id → offset array ([`TermTable`]; ladders stay per engine, so the
//! sweep kernels index one flat slice):
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
//! and a component `c` on it, let `g(c)` be the number of member paths
//! of `S` containing `c`; then `S` contributes
//! `Σ_{flows f on S} active_f · LLF_f(g(c))` to `delta[c]`. `g` depends
//! only on the path/set structure, so it is counted **once**, when the
//! set is first viewed, straight off the member paths' links (a per-path
//! stamp counts a component once per path — paths, not visits — so no
//! path row is built for it). Per
//! set the engine keeps the ascending distinct `g` values (the
//! *g-ladder*; every `g` is at most the set's width, so it is counted
//! off a mark array) and, per component of the set, a `u16` index into
//! that ladder. The per-epoch half (`compute_initial_delta`) is then one
//! ladder gather-accumulate per super-flow plus one scatter per active
//! set — proportional to the epoch's evidence, with no path sweep. The
//! cached half is never recomputed and never invalidated (views are
//! append-only); `prop_engine`'s
//! `cached_initial_delta_is_bit_equal_to_path_sweep` pins it bit-for-bit
//! against the from-scratch sweep at the empty seed.
//!
//! A set the seed touches (`set_bad > 0`) reads different rungs —
//! `LLF(set_bad + g)` for a component outside the hypothesis,
//! `LLF(set_bad − s)` for one inside, with `g`/`s` counting the member
//! paths of fail count 0 / exactly 1 through the component *now* — so it
//! collects those counters once (as a flip does per affected set), puts
//! the distinct indexes on a scratch ladder, and pays the same one
//! gather per super-flow and one scatter. Members follow the flip's own
//! formulas evaluated at the current state. `prop_engine`'s
//! `seeded_bind_equals_brute_force_and_flip_reference` pins the result
//! against brute-force neighbour likelihoods and against the
//! bind-empty-then-flip path it replaces.
//!
//! The flip path is allocation-free after warm-up: the per-set counter
//! buffers, inverted-index walks and per-set scratch all reuse
//! persistent arenas that survive across flips *and* epochs
//! ([`Engine::try_bind`]). A flip that reaches a set for the first time
//! appends that set's path rows to the path-row memo.
//!
//! For search algorithms that do not want Δ maintenance (Sherlock without
//! JLE, greedy without JLE), [`Engine::flip_ll_only`] updates the state
//! and the total log-likelihood but skips the Δ bookkeeping, and
//! [`Engine::delta_single`] evaluates one neighbor from current state.

use crate::kernels;
use crate::likelihood::{llf, EpochFlowTable, TermDirectory, TermTable};
use crate::params::HyperParams;
use crate::space::{CompIdx, ComponentSpace};
use flock_telemetry::{
    ArenaSnapshot, ArenaView, DenseRemap, FlowObs, ObservationSet, PathSetId, ViewError,
};
use flock_topology::{Component, LinkId, PathSet, Topology};

/// One set counter entry: `(comp, g, s)` — member paths with fail count 0
/// (`g`) / exactly 1 (`s`) containing `comp`.
type Counter = (CompIdx, u32, u32);

/// One set's counters, split by the flip predicate `l == c || in_h[l]`
/// (see [`Engine::collect_counters`]). Buffers are reused across sets,
/// flips and epochs.
#[derive(Debug, Clone, Default)]
struct SetCounters {
    /// Regular partition (components outside the hypothesis and `!= c`),
    /// as SoA lanes for the fabric kernel: the components…
    l: Vec<u32>,
    /// …and their fail-count-0 path counts (`g`).
    g: Vec<u32>,
    /// Special partition (in-hypothesis components plus `c`): full
    /// `(comp, g, s)` counters for the scalar branchy path.
    sp: Vec<Counter>,
}

/// Flat offsets+items row table: row `i` is `items[offsets[i]..offsets[i+1]]`.
/// Serves both the engine's inverted indexes (rebuilt by counting scatter,
/// [`Csr::rebuild`]) and its append-only structure rows (one
/// [`Csr::push_row`] per newly viewed set) — one allocation pair per
/// table instead of one per row, and rows a sweep visits in id order sit
/// next to each other in memory.
#[derive(Debug, Clone, Default)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Append one row.
    fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.items.extend(row);
        let end = u32::try_from(self.items.len()).expect("row table exceeds u32 offsets");
        self.offsets.push(end);
    }

    /// `items` index range of row `i`.
    #[inline]
    fn range(&self, i: u32) -> std::ops::Range<usize> {
        self.offsets[i as usize] as usize..self.offsets[i as usize + 1] as usize
    }

    /// (Re)build from `(bucket, item)` pairs by counting scatter —
    /// `O(pairs + buckets)`, no comparison sort — reusing the offset/item
    /// buffers, so the per-epoch rebind path allocates nothing once
    /// capacity has grown to the workload's size. `pairs` is walked
    /// twice (count, then scatter). Pairs must be duplicate-free (they
    /// are throughout the engine: per-set component lists, super-flows
    /// and per-member extras are deduplicated), and within a bucket items
    /// keep their input order.
    fn rebuild(&mut self, n_buckets: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) {
        self.offsets.clear();
        self.offsets.resize(n_buckets + 1, 0);
        for (b, _) in pairs.clone() {
            self.offsets[b as usize + 1] += 1;
        }
        for i in 0..n_buckets {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.items.clear();
        self.items.resize(self.offsets[n_buckets] as usize, 0);
        // Scatter using `offsets[b]` as the running cursor (each bucket's
        // start advances to its end), then shift the table back one slot.
        for (b, it) in pairs {
            self.items[self.offsets[b as usize] as usize] = it;
            self.offsets[b as usize] += 1;
        }
        for i in (1..=n_buckets).rev() {
            self.offsets[i] = self.offsets[i - 1];
        }
        self.offsets[0] = 0;
    }

    /// Every `(item, row)` of the table in row order: the pairs that
    /// [`Csr::rebuild`] turns into the transposed (item → rows) index.
    fn transposed(&self) -> impl Iterator<Item = (u32, u32)> + Clone + '_ {
        (0..self.n_rows() as u32).flat_map(move |r| self.get(r).iter().map(move |&it| (it, r)))
    }

    #[inline]
    fn get(&self, bucket: u32) -> &[u32] {
        &self.items[self.range(bucket)]
    }

    fn n_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

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
    /// Offset of this flow's `(sent, bad, w)` ladder in the engine's
    /// [`TermTable`]: `terms.values()[tbl + b]` is `llf(score, w, b)`.
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

/// "No component" in [`LinkComps`] (a host end, or a link not yet seen).
const NO_COMP: CompIdx = CompIdx::MAX;

/// "Not on the ladder" in [`Engine::scratch_rung`].
const NO_RUNG: u32 = u32::MAX;

/// Local ids of a link and of the switch devices at its ends, memoized
/// per global link id on first sight ([`Engine::link_comps`]) — for the
/// fabric links of viewed paths and for flow-prefix links alike.
#[derive(Debug, Clone, Copy)]
struct LinkComps {
    comp: CompIdx,
    devices: [CompIdx; 2],
}

impl LinkComps {
    const UNSEEN: LinkComps = LinkComps {
        comp: NO_COMP,
        devices: [NO_COMP; 2],
    };
}

/// What a path's component row is derived from: the member's links in
/// the arena set and the per-link memo of their local ids. Every link of
/// a viewed path was localized by the set pass that first counted the
/// path ([`Engine::extend_structures`]), so a derivation reads and never
/// assigns ids.
struct RowSource<'a> {
    view: &'a ArenaView,
    arena: &'a ArenaSnapshot,
    link_comps: &'a [LinkComps],
}

impl RowSource<'_> {
    /// The member paths of local set `s`, in the order of its local paths
    /// ([`ArenaView::paths_of`]).
    fn members(&self, s: u32) -> &PathSet {
        self.arena.members(self.view.global_set(s))
    }

    /// Append the row of a member path with links `links` to `out`: its
    /// links and their switch ends, each link as `[link, src, dst]`,
    /// deduplicated (round-trip probe paths visit a device twice but it
    /// is one component) in first-touch order. Rows are a few links long,
    /// so a `contains` over the part this call appended keeps them
    /// duplicate-free.
    fn push_row(&self, links: &[LinkId], out: &mut Vec<u32>) {
        let from = out.len();
        for &l in links {
            let lc = self.link_comps[l.0 as usize];
            debug_assert_ne!(lc.comp, NO_COMP, "the set pass localized every viewed link");
            for c in [lc.comp, lc.devices[0], lc.devices[1]] {
                if c != NO_COMP && !out[from..].contains(&c) {
                    out.push(c);
                }
            }
        }
    }
}

/// "Not derived yet" in [`PathRows::starts`].
const UNDERIVED_SET: u32 = u32::MAX;

/// Per-path component rows, derived on first use one whole set at a
/// time: a flip reads the rows of the sets it sweeps, a flipped extra
/// those of its members' sets, and entering a seed those of the sets it
/// enters — a small share of the viewed paths — so the cold bind writes
/// none. Sets are append-only, so a derived block never goes stale and
/// the memo lives as long as the engine. A set's block lists, per member
/// path in member order, the row length and then the row (a path belongs
/// to one set, so its row is stored once; one index per set is smaller
/// than one per path, and a sweep over a set reads its rows
/// contiguously).
#[derive(Debug, Clone, Default)]
struct PathRows {
    /// Per local set: where its block starts in `items`, or
    /// [`UNDERIVED_SET`].
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl PathRows {
    #[inline]
    fn is_derived(&self, s: u32) -> bool {
        self.starts[s as usize] != UNDERIVED_SET
    }

    /// Derive the block of every set of `sets` that has none yet.
    fn derive(&mut self, sets: &[u32], src: &RowSource<'_>) {
        for &s in sets {
            if self.is_derived(s) {
                continue;
            }
            self.starts[s as usize] =
                u32::try_from(self.items.len()).expect("path row memo exceeds u32 offsets");
            for links in src.members(s).iter() {
                let at = self.items.len();
                self.items.push(0);
                src.push_row(links, &mut self.items);
                self.items[at] = (self.items.len() - at - 1) as u32;
            }
        }
    }

    /// `(path, row)` for every member path of the derived set `s`, whose
    /// local paths are `paths`.
    fn rows(
        &self,
        s: u32,
        paths: std::ops::Range<u32>,
    ) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        assert!(
            self.is_derived(s),
            "set {s} is read before its path rows were derived"
        );
        let mut at = self.starts[s as usize] as usize;
        paths.map(move |p| {
            let len = self.items[at] as usize;
            let row = &self.items[at + 1..at + 1 + len];
            at += 1 + len;
            (p, row)
        })
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
    /// Local components (length of the Δ array, `in_h`, and the per-flip
    /// scratch counters).
    pub comps: usize,
    /// Local (viewed) paths: the length of `path_fail`. Their component
    /// rows are derived per set on first use, so this counts paths, not
    /// rows.
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
    /// ever accepted; assigns the local set ids below, and each set's run
    /// of local path ids.
    view: ArenaView,
    /// The arena content of the last bind, which path rows are derived
    /// from (`None` until the first bind).
    arena: Option<ArenaSnapshot>,
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

    // Paths (local ids): the fail count of every viewed path, and the
    // component rows of the paths of the sets read so far.
    path_fail: Vec<u32>,
    path_rows: PathRows,

    // Sets (local ids): row `s` of `set_comps` is the sorted component
    // union of set `s`, whose member paths are the view's run
    // `paths_of(s)`.
    set_comps: Csr,
    /// The structure half of the initial Δ, computed once when a set is
    /// first viewed (see [`Engine::compute_initial_delta`]): row `s` is
    /// the ascending distinct values of `g(c)` — the number of member
    /// paths of `s` containing component `c` — over the set's components.
    set_ladders: Csr,
    /// Parallel to `set_comps.items` (same row offsets): the index of
    /// each component's `g` in its set's ladder.
    set_gidx: Vec<u16>,
    set_bad: Vec<u32>,
    /// `set_comps` transposed; rebuilt only when the view grew.
    comp_to_sets: Csr,
    set_flows: Csr,

    // Flows: super-flows plus their extras-carrying members.
    sflows: Vec<SFlow>,
    members: Vec<SMember>,
    comp_extra_members: Csr,
    /// Raw observations accepted into the current flow table (before
    /// coalescing) — `n_obs / sflows.len()` is the epoch's coalesce ratio.
    n_obs: usize,
    /// Per global link id (id-width like `comps`' global side, never
    /// reset): the link's local id and its switch ends' — a viewed
    /// path's component row, or the extras a flow with that prefix link
    /// carries.
    link_comps: Vec<LinkComps>,

    // Hypothesis state (local ids).
    in_h: Vec<bool>,
    hypothesis: Vec<CompIdx>,
    delta: Vec<f64>,
    ll: f64,
    stats: EngineStats,

    /// Resident `llf` ladders of the term ids this engine has met;
    /// extend-only, so `SFlow::tbl` offsets survive rebinds.
    terms: TermTable,
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
    scratch_g: Vec<u32>,
    scratch_s: Vec<u32>,
    /// Pre-flip counters of the set a flip is sweeping. The split
    /// predicate is stable across the flip, so they align element-wise
    /// with…
    ctr_old: SetCounters,
    /// …the post-flip counters of that set — also the counters of a
    /// seeded set in the initial Δ and of a flipped extra's set.
    ctr_new: SetCounters,
    /// Per-ladder-rung likelihood sums of the set currently being
    /// initialized.
    scratch_sums: Vec<f64>,
    /// Seeded initial Δ, for a set the seed touches: the distinct ladder
    /// indexes its components' neighbours read (rung 0 is the set's own
    /// `set_bad`)…
    scratch_ladder: Vec<u32>,
    /// …and ladder index → rung ([`NO_RUNG`] between sets; an index is at
    /// most the set's width, so the array stays as small as the widest
    /// set). [`Engine::extend_structures`] counts each new set's g-ladder
    /// on the same pair.
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
            arena: None,
            own_terms: None,
            comps: {
                let mut m = DenseRemap::new();
                m.ensure_ids(n_global);
                m
            },
            path_fail: Vec::new(),
            path_rows: PathRows::default(),
            set_comps: Csr::default(),
            set_ladders: Csr::default(),
            set_gidx: Vec::new(),
            set_bad: Vec::new(),
            comp_to_sets: Csr::default(),
            set_flows: Csr::default(),
            sflows: Vec::new(),
            members: Vec::new(),
            comp_extra_members: Csr::default(),
            n_obs: 0,
            link_comps: vec![LinkComps::UNSEEN; topo.link_count()],
            in_h: Vec::new(),
            hypothesis: Vec::new(),
            delta: Vec::new(),
            ll: 0.0,
            stats: EngineStats::default(),
            terms: TermTable::new(),
            gain_move_bias: Vec::new(),
            gain_add_bias: Vec::new(),
            scratch_g: Vec::new(),
            scratch_s: Vec::new(),
            ctr_old: SetCounters::default(),
            ctr_new: SetCounters::default(),
            scratch_sums: Vec::new(),
            scratch_ladder: Vec::new(),
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
    /// ([built](EpochFlowTable::rebuild) over `obs`, always through the
    /// same [`TermDirectory`]), starting at the hypothesis `seed`.
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
    /// If `table` does not cover `obs`, or was built over another
    /// directory than this engine's earlier tables (see
    /// [`TermTable::bind`]).
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
        self.arena = Some(obs.arena.clone());

        // Reset hypothesis-dependent state — all O(local).
        self.in_h.fill(false);
        self.hypothesis.clear();
        self.path_fail.fill(0);
        self.set_bad.fill(0);
        self.delta.fill(0.0);

        let structures_grew = self.extend_structures(topo, obs);
        self.rebuild_flows(topo, obs, accepted, table);

        // Component-indexed arrays and inverted indexes span the local
        // component space, which extras may have widened just now.
        let n = self.comps.len();
        self.in_h.resize(n, false);
        self.delta.resize(n, 0.0);
        self.scratch_g.resize(n, 0);
        self.scratch_s.resize(n, 0);
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
            self.comp_to_sets.rebuild(n, self.set_comps.transposed());
        }
        // The epoch's inverted indexes, straight off the flow layer.
        self.set_flows.rebuild(
            self.set_comps.n_rows(),
            (0u32..).zip(&self.sflows).map(|(fi, f)| (f.set, fi)),
        );
        self.comp_extra_members.rebuild(
            n,
            (0u32..)
                .zip(&self.members)
                .flat_map(|(mi, m)| m.extras().iter().map(move |&e| (e, mi))),
        );

        // Only now can the seed go in: it may have gained paths, sets or
        // members this epoch, and entering it walks the indexes above.
        self.enter_hypothesis(seed);
        self.compute_initial_delta();
        Ok(())
    }

    /// Put the engine — freshly reset to the empty hypothesis, flow layer
    /// and inverted indexes rebuilt — at the hypothesis `seed` (global
    /// ids): membership, path fail counts, `set_bad` of every set a
    /// seeded path crosses, pinned members, and both argmax biases, i.e.
    /// everything a [`Engine::flip`] per component would have left
    /// behind except Δ and the likelihood, which
    /// [`Engine::compute_initial_delta`] derives from this state.
    fn enter_hypothesis(&mut self, seed: &[CompIdx]) {
        for &g in seed {
            let Some(c) = self.comps.local(g) else {
                continue;
            };
            if std::mem::replace(&mut self.in_h[c as usize], true) {
                continue;
            }
            self.hypothesis.push(c);
            // The sets a seed enters are the ones whose counters
            // `compute_initial_delta` collects (`set_bad > 0`).
            let comp_to_sets = std::mem::take(&mut self.comp_to_sets);
            let sets = comp_to_sets.get(c);
            self.derive_path_rows(sets);
            for &s in sets {
                self.move_fail_counts(s, c, true);
            }
            self.comp_to_sets = comp_to_sets;
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
        // Fail counts are final: recount the sets they touch (a set two
        // seeds share is recounted twice, to the same value).
        for i in 0..self.hypothesis.len() {
            for &s in self.comp_to_sets.get(self.hypothesis[i]) {
                self.set_bad[s as usize] = self.recount_set_bad(s);
            }
        }
    }

    /// Local id of a global component, assigning the next dense id on
    /// first touch.
    #[inline]
    fn localize(&mut self, g: CompIdx) -> CompIdx {
        self.comps.assign(g)
    }

    /// What this engine's path rows are derived from.
    fn row_source(&self) -> RowSource<'_> {
        RowSource {
            view: &self.view,
            arena: self.arena.as_ref().expect("an engine with sets was bound"),
            link_comps: &self.link_comps,
        }
    }

    /// Derive the path rows of every set of `sets` that has none yet
    /// (see [`PathRows`]).
    fn derive_path_rows(&mut self, sets: &[u32]) {
        let mut path_rows = std::mem::take(&mut self.path_rows);
        path_rows.derive(sets, &self.row_source());
        self.path_rows = path_rows;
    }

    /// Move the fail count of every member path of set `s` whose row
    /// contains `c`: up when `c` joins the hypothesis, down when it
    /// leaves. `s`'s path rows must be derived.
    fn move_fail_counts(&mut self, s: u32, c: CompIdx, adding: bool) {
        for (p, row) in self.path_rows.rows(s, self.view.paths_of(s)) {
            if row.contains(&c) {
                let fail = &mut self.path_fail[p as usize];
                if adding {
                    *fail += 1;
                } else {
                    debug_assert!(*fail > 0);
                    *fail -= 1;
                }
            }
        }
    }

    /// Call `f(path, row)` for every member path of set `s`: off the
    /// derived block, or — for a set not derived yet — off rows computed
    /// into `buf` on the fly, leaving the memo as it is.
    fn for_each_path_row(&self, s: u32, buf: &mut Vec<u32>, mut f: impl FnMut(u32, &[u32])) {
        let paths = self.view.paths_of(s);
        if self.path_rows.is_derived(s) {
            for (p, row) in self.path_rows.rows(s, paths) {
                f(p, row);
            }
            return;
        }
        let src = self.row_source();
        for (p, links) in paths.zip(src.members(s).iter()) {
            buf.clear();
            src.push_row(links, buf);
            f(p, buf);
        }
    }

    /// Extend the view-derived structural layer (per-set component
    /// unions, the g-ladders, and the localization of every
    /// component they reach) to cover the view's current projection.
    /// No-op when the view has not grown — the steady-state case that
    /// makes warm rebinding cheap. Writes no per-path row: those are
    /// derived per set on first use ([`PathRows`]).
    fn extend_structures(&mut self, topo: &Topology, obs: &ObservationSet) -> bool {
        let old_paths = self.path_fail.len();
        let n_paths = self.view.n_paths();
        self.path_fail.resize(n_paths, 0);

        // Sets: component union, and the cached structure half of the
        // initial Δ — `g(c)`, the number of member paths
        // containing `c`, counted once here straight off the member
        // paths' links (each link as `[link, src, dst]`, in member order:
        // the first-touch order that assigns new local ids) and kept as a
        // per-set ladder of distinct values plus a per-component index
        // into it. A path can reach a component twice (a round-trip probe
        // path leaves a device and comes back), so `scratch_s` stamps
        // each component with the visit (member index + 1) that last
        // counted it; the stamps are cleared with the set's counts. Every
        // `g` is at most the set's width, so the ladder is counted, not
        // sorted: mark the values present in `rung`, read them off in
        // ascending order, and read each component's index back from its
        // mark.
        let old_sets = self.set_comps.n_rows();
        let n_sets = self.view.n_sets();
        // Row staging, reused across the loop (and never allocated on the
        // steady-state call where the view has not grown).
        let mut row: Vec<CompIdx> = Vec::new();
        let mut ladder = std::mem::take(&mut self.scratch_ladder);
        let mut rung = std::mem::take(&mut self.scratch_rung);
        for ls in old_sets as u32..n_sets as u32 {
            let members = obs.arena.members(self.view.global_set(ls));
            let w = members.len();
            row.clear();
            for (visit, links) in (1u32..).zip(members.iter()) {
                for &l in links {
                    let lc = self.link_comps(topo, l);
                    if self.scratch_g.len() < self.comps.len() {
                        self.scratch_g.resize(self.comps.len(), 0);
                        self.scratch_s.resize(self.comps.len(), 0);
                    }
                    for c in [lc.comp, lc.devices[0], lc.devices[1]] {
                        if c == NO_COMP || self.scratch_s[c as usize] == visit {
                            continue;
                        }
                        self.scratch_s[c as usize] = visit;
                        if self.scratch_g[c as usize] == 0 {
                            row.push(c);
                        }
                        self.scratch_g[c as usize] += 1;
                    }
                }
            }
            for &c in &row {
                self.scratch_s[c as usize] = 0;
            }
            row.sort_unstable();
            if rung.len() <= w {
                rung.resize(w + 1, NO_RUNG);
            }
            for &c in &row {
                rung[self.scratch_g[c as usize] as usize] = 0;
            }
            ladder.clear();
            for g in 1..=w as u32 {
                if rung[g as usize] != NO_RUNG {
                    rung[g as usize] = ladder.len() as u32;
                    ladder.push(g);
                }
            }
            for &c in &row {
                let g = std::mem::take(&mut self.scratch_g[c as usize]);
                self.set_gidx.push(
                    u16::try_from(rung[g as usize])
                        .expect("a set has at most 65536 distinct g values"),
                );
            }
            for &g in &ladder {
                rung[g as usize] = NO_RUNG;
            }
            self.set_comps.push_row(row.iter().copied());
            self.set_ladders.push_row(ladder.iter().copied());
        }
        self.scratch_ladder = ladder;
        self.scratch_rung = rung;
        self.set_bad.resize(n_sets, 0);
        self.path_rows.starts.resize(n_sets, UNDERIVED_SET);
        debug_assert_eq!(self.set_gidx.len(), self.set_comps.items.len());

        n_paths > old_paths || n_sets > old_sets
    }

    /// Local ids of link `l` and its switch ends: one table read once the
    /// link has been seen.
    #[inline]
    fn link_comps(&mut self, topo: &Topology, l: LinkId) -> LinkComps {
        let known = self.link_comps[l.0 as usize];
        if known.comp == NO_COMP {
            self.localize_link(topo, l)
        } else {
            known
        }
    }

    /// First sight of a link: localize it and its switch ends (hosts are
    /// not components), in that order, and memoize the result.
    #[cold]
    fn localize_link(&mut self, topo: &Topology, l: LinkId) -> LinkComps {
        let comp = self.localize(self.space.link_comp(l));
        let lk = topo.link(l);
        let devices = [lk.src, lk.dst].map(|end| match self.space.device_comp(end) {
            Some(d) => self.localize(d),
            None => NO_COMP,
        });
        let known = LinkComps { comp, devices };
        self.link_comps[l.0 as usize] = known;
        known
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
        self.terms.bind(table);
        let mut last_key: Option<(u32, u64, u64)> = None;
        for &i in accepted {
            let o = &obs.flows[i as usize];
            let ls = self
                .view
                .local_set(o.set)
                .expect("bind_epoch projected every accepted set");
            let w = self.view.paths_of(ls).len() as u32;
            if w == 0 {
                continue; // unroutable flow carries no information
            }
            self.n_obs += 1;
            let key = o.evidence_key();
            if last_key != Some(key) {
                let at = self.members.len() as u32;
                // The epoch's table keyed this observation already: the
                // common warm-epoch case is one dense array read, and a
                // first sight copies the ladder the table minted or
                // computes it from the score (bit-identical either way).
                let (term, score) = table.term(i as usize);
                let tbl = self.terms.resolve(term, score, w, table);
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
        // Extend-only `TermTable` contract: every flow's full ladder
        // `terms.values()[tbl + b]`, `b ∈ 0..=w`, must be resident.
        debug_assert!(
            self.sflows
                .iter()
                .all(|f| f.tbl as usize + (f.w as usize) < self.terms.values().len()),
            "SFlow::tbl offset past the term table"
        );
    }

    /// Extract the extra components (local ids) of a flow: its prefix
    /// links plus any switch devices incident to prefix links that do
    /// not already appear in the set's component union (the intra-rack
    /// ToR case). The localization of a prefix link and its switch ends
    /// is memoized per link ([`Engine::link_comps`]), so a repeat
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
            let known = self.link_comps(topo, *link);
            push(known.comp);
            // Switch devices already covered by the fabric path set stay
            // out of the extras (they are counted through the set's path
            // components).
            for d in known.devices {
                if d != NO_COMP && self.set_comps.get(ls).binary_search(&d).is_err() {
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
    /// set ids denote, and each set's run of local path ids.
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

    /// Number of locally-projected paths.
    pub fn n_paths(&self) -> usize {
        self.path_fail.len()
    }

    /// Number of locally-projected sets.
    pub fn n_sets(&self) -> usize {
        self.set_comps.n_rows()
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
            paths: self.path_fail.len(),
            sets: self.set_comps.n_rows(),
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

    /// `(distinct evidence keys, total f64 entries)` of the memoized
    /// likelihood term table (diagnostics / bench reporting).
    pub fn term_table_sizes(&self) -> (usize, usize) {
        (self.terms.tables(), self.terms.entries())
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

        // Borrow-splitting: the inverted indexes and counter buffers move
        // out of `self` for the duration of the flip (restored below) so
        // the sweeps can walk them while mutating per-set/per-flow state.
        // All of these keep their capacity — no per-flip allocation.
        let comp_to_sets = std::mem::take(&mut self.comp_to_sets);
        let comp_extra_members = std::mem::take(&mut self.comp_extra_members);
        let mut old = std::mem::take(&mut self.ctr_old);
        let mut new = std::mem::take(&mut self.ctr_new);

        // ---- Fabric effect: sets whose paths contain `c`. ----
        let affected_sets = comp_to_sets.get(c);
        self.derive_path_rows(affected_sets);

        // Membership flips now so contribution formulas see the new state;
        // formulas needing the old membership handle `c` explicitly. The
        // counters' regular/special split uses the predicate
        // `l == c || in_h[l]`, which the flip does not move (only `c`'s
        // membership changes, and `c` tests by id), so a set's pre- and
        // post-flip collections partition identically and align
        // element-wise.
        self.in_h[c as usize] = adding;

        // One set at a time: a path belongs to one set, so moving a set's
        // fail counts changes no other set's counters.
        for &s in affected_sets {
            if maintain_delta {
                self.collect_counters(s, c, &mut old);
            }
            self.move_fail_counts(s, c, adding);
            let old_bad = self.set_bad[s as usize];
            let new_bad = self.recount_set_bad(s);
            self.set_bad[s as usize] = new_bad;
            if maintain_delta {
                self.collect_counters(s, c, &mut new);
                debug_assert_eq!(old.l, new.l, "regular partitions must align");
                debug_assert!(
                    old.sp.iter().zip(&new.sp).all(|(a, b)| a.0 == b.0),
                    "special partitions must align"
                );
            }

            // Super-flow sweep: one visit per distinct evidence key. All
            // llf terms come from the flow's memoized table segment —
            // bit-identical to direct evaluation by construction.
            for &fi in self.set_flows.get(s) {
                let f = &self.sflows[fi as usize];
                let (w, mlo, mhi) = (f.w, f.members.0, f.members.1);
                let seg = &self.terms.values()[f.tbl as usize..(f.tbl + w + 1) as usize];
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
                // weight responds to fabric flips. The regular partition
                // (components outside the hypothesis) goes through the
                // fabric kernel; the handful of special components
                // keep the branchy scalar path below.
                if active > 0.0 {
                    kernels::fabric_delta_sweep(
                        seg,
                        old_bad,
                        new_bad,
                        &old.g,
                        &new.g,
                        &old.l,
                        active,
                        ll_old,
                        ll_new,
                        &mut self.delta,
                    );
                    for (&(l, g_old, s_old), &(_, g_new, s_new)) in old.sp.iter().zip(&new.sp) {
                        let in_h_new = self.in_h[l as usize];
                        let in_h_old = if l == c { !in_h_new } else { in_h_new };
                        let contrib_old = if in_h_old {
                            seg[(old_bad - s_old) as usize] - ll_old
                        } else {
                            seg[(old_bad + g_old) as usize] - ll_old
                        };
                        let contrib_new = if in_h_new {
                            seg[(new_bad - s_new) as usize] - ll_new
                        } else {
                            seg[(new_bad + g_new) as usize] - ll_new
                        };
                        self.delta[l as usize] += active * (contrib_new - contrib_old);
                    }
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

        self.comp_to_sets = comp_to_sets;
        self.comp_extra_members = comp_extra_members;
        self.ctr_old = old;
        self.ctr_new = new;
        dll
    }

    /// Handle the extras side of flipping `c` for one member. `in_h[c]`
    /// has already been set to the new value; `ctr` is the caller's
    /// reusable counter buffer.
    fn flip_extra_for_member(
        &mut self,
        c: CompIdx,
        mi: u32,
        adding: bool,
        maintain_delta: bool,
        ctr: &mut SetCounters,
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
        // The member (un)pins: Δ maintenance collects its set's counters.
        if maintain_delta && (old_fail == 0 || new_fail == 0) {
            self.derive_path_rows(&[set]);
            self.collect_counters(set, c, ctr);
        }
        let seg = &self.terms.values()[tbl as usize..(tbl + w + 1) as usize];
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
            // Fabric comps: need g/s counters only when the member is
            // "active" (extra_fail == 0) on either side. Exactly one of
            // old/new fail is 0 here (they differ by 1), so each regular
            // component's update collapses to ±(seg[sb + g] - ll) — the
            // member kernel; in-hypothesis comps keep the scalar path.
            // `c` is an extra, never among the set comps, so the special
            // partition is the in-hypothesis comps only.
            if old_fail == 0 || new_fail == 0 {
                let (negate, ll_active) = if old_fail == 0 {
                    // Member becomes pinned: its old `sb + g` term is
                    // retracted (contrib_new is 0).
                    (true, ll_old)
                } else {
                    // Member unpins: the new `sb + g` term lands.
                    (false, ll_new)
                };
                kernels::member_delta_sweep(
                    seg,
                    sb,
                    &ctr.g,
                    &ctr.l,
                    m.weight,
                    ll_active,
                    negate,
                    &mut self.delta,
                );
                for &(l, _, s_cnt) in &ctr.sp {
                    debug_assert_ne!(l, c, "extras are disjoint from set comps");
                    let contrib_old = if old_fail > 0 {
                        0.0
                    } else {
                        seg[(sb - s_cnt) as usize] - ll_old
                    };
                    let contrib_new = if new_fail > 0 {
                        0.0
                    } else {
                        seg[(sb - s_cnt) as usize] - ll_new
                    };
                    self.delta[l as usize] += m.weight * (contrib_new - contrib_old);
                }
            }
            // Extras comps of this member (including c itself).
            for &e in m.extras() {
                let in_h_e_new = self.in_h[e as usize];
                let in_h_e_old = if e == c { !in_h_e_new } else { in_h_e_new };
                let fail_wo_e_old = old_fail - u8::from(in_h_e_old);
                let fail_wo_e_new = new_fail - u8::from(in_h_e_new);
                // Flipping e: if e currently failed, bad becomes (others
                // failed ? w : sb); if e currently ok, bad becomes w.
                let bad_flip_old = if in_h_e_old {
                    if fail_wo_e_old > 0 {
                        w
                    } else {
                        sb
                    }
                } else {
                    w
                };
                let bad_flip_new = if in_h_e_new {
                    if fail_wo_e_new > 0 {
                        w
                    } else {
                        sb
                    }
                } else {
                    w
                };
                let contrib_old = seg[bad_flip_old as usize] - ll_old;
                let contrib_new = seg[bad_flip_new as usize] - ll_new;
                self.delta[e as usize] += m.weight * (contrib_new - contrib_old);
            }
        }

        self.members[mi as usize].extra_fail = new_fail;
        dll
    }

    /// Collect the counters of set `s` into `out` — `g` = member paths
    /// with fail count 0 containing the comp, `s` = member paths with
    /// fail count exactly 1 containing it — partitioned by the flip
    /// predicate `l == c || in_h[l]`. Two passes over the set's derived
    /// path rows, as in Algorithm 2's `GetCounters`.
    ///
    /// Components *outside* the predicate (the overwhelming majority: not
    /// in the hypothesis, not the flipped comp) land in the SoA pair
    /// `out.l`/`out.g` — the lanes the fabric kernel consumes; `s` is not
    /// emitted for them because their contribution formula never reads
    /// it. Components matching the predicate land in `out.sp` as full
    /// `(comp, g, s)` counters for the scalar branchy path. Within each
    /// partition, components keep `set_comps` order, so pre- and
    /// post-flip collections align element-wise (the predicate is
    /// flip-stable).
    fn collect_counters(&mut self, s: u32, c: CompIdx, out: &mut SetCounters) {
        for (p, row) in self.path_rows.rows(s, self.view.paths_of(s)) {
            let fc = self.path_fail[p as usize];
            if fc == 0 {
                for &l in row {
                    self.scratch_g[l as usize] += 1;
                }
            } else if fc == 1 {
                for &l in row {
                    self.scratch_s[l as usize] += 1;
                }
            }
        }
        out.l.clear();
        out.g.clear();
        out.sp.clear();
        let comps = self.set_comps.get(s);
        for &l in comps {
            let g = self.scratch_g[l as usize];
            if l == c || self.in_h[l as usize] {
                out.sp.push((l, g, self.scratch_s[l as usize]));
            } else {
                out.l.push(l);
                out.g.push(g);
            }
        }
        // Reset scratch.
        for &l in comps {
            self.scratch_g[l as usize] = 0;
            self.scratch_s[l as usize] = 0;
        }
    }

    fn recount_set_bad(&self, s: u32) -> u32 {
        let paths = self.view.paths_of(s);
        self.path_fail[paths.start as usize..paths.end as usize]
            .iter()
            .filter(|&&f| f > 0)
            .count() as u32
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
    /// viewed (`set_ladders`, `set_gidx`; see
    /// [`Engine::extend_structures`]), so such a set pays only for its
    /// evidence: one table gather-accumulate per super-flow over the
    /// set's ladder, then one scatter over the set's components. `active`
    /// is the weight no failed extra pins (`weight − pinned`, which *is*
    /// `weight` at the empty hypothesis).
    ///
    /// A set the seed touches has no cached structure to lean on — its
    /// neighbours read `LLF(set_bad + g)` outside the hypothesis and
    /// `LLF(set_bad − s)` inside, with `g`/`s` counting good/singly-failed
    /// member paths *now* — so it collects those counters once, exactly
    /// as a flip does per affected set, builds the small ladder of
    /// distinct indexes they select, and then pays the same one gather
    /// per super-flow and one scatter, each component receiving its
    /// rung's sum minus the `LLF(set_bad)` rung's (which is also the
    /// set's share of the likelihood).
    ///
    /// Sweeps the *view's* sets only — the fleet-wide arena never enters
    /// this loop.
    fn compute_initial_delta(&mut self) {
        let mut sums = std::mem::take(&mut self.scratch_sums);
        let mut ladder = std::mem::take(&mut self.scratch_ladder);
        let mut rung = std::mem::take(&mut self.scratch_rung);
        let mut ctr = std::mem::take(&mut self.ctr_new);
        let mut ll = 0.0;
        for s in 0..self.set_comps.n_rows() as u32 {
            // Sets with no flows this epoch contribute nothing; skipping
            // them keeps rebinding cheap as the shard's view accumulates
            // sets across epochs.
            if self.set_flows.get(s).is_empty() {
                continue;
            }
            let sb = self.set_bad[s as usize];
            // The table indexes this set's neighbours read. Every flow
            // of the set shares `w`, so they index every segment in
            // range.
            let gs: &[u32] = if sb == 0 {
                self.set_ladders.get(s)
            } else {
                // No component is mid-flip: the special partition is the
                // in-hypothesis components alone.
                self.collect_counters(s, NO_COMP, &mut ctr);
                let w = self.view.paths_of(s).len();
                if rung.len() <= w {
                    rung.resize(w + 1, NO_RUNG);
                }
                ladder.clear();
                let neighbours = ctr
                    .g
                    .iter()
                    .map(|&g| sb + g)
                    .chain(ctr.sp.iter().map(|&(_, _, s1)| sb - s1));
                for idx in std::iter::once(sb).chain(neighbours) {
                    if rung[idx as usize] == NO_RUNG {
                        rung[idx as usize] = ladder.len() as u32;
                        ladder.push(idx);
                    }
                }
                &ladder
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
                    let seg = &self.terms.values()[f.tbl as usize..(f.tbl + f.w + 1) as usize];
                    kernels::weighted_table_accumulate(seg, gs, active, &mut sums);
                }
            }
            if sb == 0 {
                let row = self.set_comps.range(s);
                for (&c, &gi) in self.set_comps.items[row.clone()]
                    .iter()
                    .zip(&self.set_gidx[row])
                {
                    self.delta[c as usize] += sums[gi as usize];
                }
            } else {
                let at_sb = sums[0];
                ll += at_sb;
                for (&c, &g) in ctr.l.iter().zip(&ctr.g) {
                    self.delta[c as usize] += sums[rung[(sb + g) as usize] as usize] - at_sb;
                }
                for &(c, _, s1) in &ctr.sp {
                    self.delta[c as usize] += sums[rung[(sb - s1) as usize] as usize] - at_sb;
                }
                for &idx in &ladder {
                    rung[idx as usize] = NO_RUNG;
                }
            }
        }
        // Extras: `flip_extra_for_member`'s own formulas, at the current
        // state. A member sits at `b = w` while any of its extras is
        // failed and follows its set otherwise; flipping an extra `e`
        // moves it to `w` (`e` joins), or back to its set when `e` was
        // its only failed extra. `LLF(0) = 0` and `LLF(w) = score`
        // exactly, so only a partly failed set reads the ladder — at the
        // empty hypothesis this is `weight · score` per extra.
        let terms = self.terms.values();
        for m in &self.members {
            let f = &self.sflows[m.flow as usize];
            let at = |b: u32| match b {
                0 => 0.0,
                b if b == f.w => f.score,
                b => terms[(f.tbl + b) as usize],
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
        self.scratch_sums = sums;
        self.scratch_ladder = ladder;
        self.scratch_rung = rung;
        self.ctr_new = ctr;
    }

    /// Evaluate one neighbor delta from the current state without touching
    /// the Δ array (used by greedy-without-JLE): `LL(H ⊕ c) − LL(H)`.
    pub fn delta_single(&self, c: CompIdx) -> f64 {
        let mut dll = 0.0;
        let flipping_on = !self.in_h[c as usize];
        let mut buf = Vec::new();
        // Fabric side.
        for &s in self.comp_to_sets.get(c) {
            let old_bad = self.set_bad[s as usize];
            // New bad count if c flips: recount with c's effect.
            let mut new_bad = 0u32;
            self.for_each_path_row(s, &mut buf, |p, row| {
                let mut fc = self.path_fail[p as usize];
                if row.contains(&c) {
                    fc = if flipping_on { fc + 1 } else { fc - 1 };
                }
                new_bad += u32::from(fc > 0);
            });
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
        let in_h: std::collections::HashSet<CompIdx> = hypothesis.iter().copied().collect();
        let mut buf = Vec::new();
        let set_bad_h: Vec<u32> = (0..self.set_comps.n_rows() as u32)
            .map(|s| {
                let mut bad = 0;
                self.for_each_path_row(s, &mut buf, |_, row| {
                    bad += u32::from(row.iter().any(|c| in_h.contains(c)));
                });
                bad
            })
            .collect();
        let mut ll = 0.0;
        for f in &self.sflows {
            let sb = set_bad_h[f.set as usize];
            let mut base = f.weight;
            for mi in f.members.0..f.members.1 {
                let m = &self.members[mi as usize];
                base -= m.weight;
                let bad = if m.extras().iter().any(|e| in_h.contains(e)) {
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
    use flock_topology::Router;
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
            let fabric = flipped.set_comps.items.clone();
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
            assert_eq!(seeded.path_fail, flipped.path_fail);
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

    /// The arena links of local path `p`: member `i` of the set whose
    /// local run holds `p` is member `i` of the set's arena set.
    fn arena_links(engine: &Engine, p: u32) -> &[LinkId] {
        let view = engine.view();
        let s = (0..view.n_sets() as u32)
            .find(|&s| view.paths_of(s).contains(&p))
            .expect("a viewed path belongs to a viewed set");
        let arena = engine.arena.as_ref().unwrap();
        &arena.members(view.global_set(s))[(p - view.paths_of(s).start) as usize]
    }

    /// The brute-force component row of local path `p`: its links and
    /// their switch ends, read off the topology, each link as `[link,
    /// src, dst]`, deduplicated, in first-touch order.
    fn brute_row(engine: &Engine, topo: &flock_topology::Topology, p: u32) -> Vec<CompIdx> {
        let mut row = Vec::new();
        for &l in arena_links(engine, p) {
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

    /// The sets whose path rows are derived, each of whose rows equals
    /// its path's [`brute_row`].
    fn derived_sets(engine: &Engine, topo: &flock_topology::Topology) -> Vec<u32> {
        let derived: Vec<u32> = (0..engine.n_sets() as u32)
            .filter(|&s| engine.path_rows.is_derived(s))
            .collect();
        for &s in &derived {
            for (p, row) in engine.path_rows.rows(s, engine.view.paths_of(s)) {
                assert_eq!(row, &brute_row(engine, topo, p)[..], "set {s}, path {p}");
            }
        }
        derived
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

    /// Forget every derived path row (legal at any time: path rows are a
    /// memo of append-only structure).
    fn forget_path_rows(engine: &mut Engine) {
        engine.path_rows = PathRows {
            starts: vec![UNDERIVED_SET; engine.n_sets()],
            items: Vec::new(),
        };
    }

    /// The fail-count oracle. Every derived path row is its brute-force
    /// row, every path's fail count is the number of hypothesis
    /// components on its brute-force row, and every set's `set_bad` is
    /// the number of its member paths with a non-zero fail count.
    fn assert_fail_counts(engine: &Engine, topo: &flock_topology::Topology) {
        derived_sets(engine, topo);
        for s in 0..engine.n_sets() as u32 {
            let mut bad = 0;
            for p in engine.view.paths_of(s) {
                let row = brute_row(engine, topo, p);
                let failed = row.iter().filter(|&&c| engine.in_h[c as usize]).count() as u32;
                assert_eq!(
                    engine.path_fail[p as usize], failed,
                    "fail count of path {p}"
                );
                bad += u32::from(failed > 0);
            }
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

    /// Path rows are derived per set on first use and never go stale. A
    /// cold bind at the empty seed derives no path row; a seeded rebind
    /// over a growing view derives exactly the sets its seed enters; an
    /// extra-only flip exactly the sets of the members it pins; a fabric
    /// flip at least the sets it sweeps — and every derived row is the
    /// brute-force row, and the fail counts and `set_bad` that entering
    /// the seed, [`Engine::flip`] and [`Engine::flip_ll_only`] move
    /// through them are the brute-force ones. `delta_single` and `ll_of`
    /// over sets not yet derived read the same rows, to the bit.
    #[test]
    fn derived_path_rows_are_the_brute_force_rows() {
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
            let (old_paths, old_comps) = (engine.n_paths() as u32, engine.n_comps() as u32);
            let seed: Vec<CompIdx> = engine
                .hypothesis()
                .iter()
                .map(|&c| engine.global_comp(c))
                .collect();
            bind_all(&mut engine, &topo, &obs, &mut dir, &seed).unwrap();
            let n_paths = engine.n_paths() as u32;
            assert!(n_paths > old_paths, "epoch {epoch} must grow the view");
            assert_eq!(engine.state_sizes().paths, engine.view().n_paths());
            // The new paths run through known components, so entering
            // the seed can reach paths the view gained this epoch.
            assert!(
                epoch == 0
                    || (old_paths..n_paths)
                        .any(|p| brute_row(&engine, &topo, p).iter().any(|&c| c < old_comps)),
                "epoch {epoch}: new paths must cross known components"
            );
            // Entering the seed derived exactly its sets' path rows (none
            // on the cold bind) and moved their fail counts.
            let seeded = engine.hypothesis().to_vec();
            assert_eq!(seeded.len(), seed.len(), "epoch {epoch}");
            assert_eq!(derived_sets(&engine, &topo), sets_of(&engine, seeded));
            assert_eq!(engine.path_rows.items.is_empty(), epoch == 0);
            assert_fail_counts(&engine, &topo);
            let fresh: Vec<CompIdx> = (old_comps..engine.n_comps() as u32).step_by(5).collect();
            let lazy = lazy_reads(&engine, &fresh);
            let all: Vec<u32> = (0..engine.n_sets() as u32).collect();
            engine.derive_path_rows(&all);
            derived_sets(&engine, &topo);
            assert_eq!(
                lazy_reads(&engine, &fresh),
                lazy,
                "epoch {epoch}: lazy vs derived rows"
            );

            // Forget every row, so the flips derive their own.
            forget_path_rows(&mut engine);
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
            assert_fail_counts(&engine, &topo);
            let h = engine.hypothesis().to_vec();
            assert!((engine.ll_of(&h) - engine.log_likelihood()).abs() < 1e-7);
            // Without Δ maintenance a flip moves fail counts the same way;
            // walking back restores the state the Δ array belongs to.
            let ll = engine.log_likelihood();
            let ll_only = [n / 4, 3 * n / 4, n / 4 + 2, 2 * n / 3];
            for c in ll_only {
                engine.flip_ll_only(c);
                assert_fail_counts(&engine, &topo);
            }
            let h = engine.hypothesis().to_vec();
            assert!((engine.ll_of(&h) - engine.log_likelihood()).abs() < 1e-7);
            for c in ll_only.into_iter().rev() {
                engine.flip_ll_only(c);
            }
            assert_fail_counts(&engine, &topo);
            assert!((engine.log_likelihood() - ll).abs() < 1e-7);
            // The next bind derives its seed's rows afresh.
            forget_path_rows(&mut engine);
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
            let at = engine.set_comps.get(s).binary_search(&c).unwrap();
            let gi = engine.set_gidx[engine.set_comps.range(s)][at];
            engine.set_ladders.get(s)[gi as usize]
        };
        assert_eq!(engine.set_ladders.get(0), &[1]);
        assert_eq!(g_of(0, tor_c), 1, "visited twice, counted once");
        assert_eq!(engine.set_ladders.get(1), &[1, 2]);
        assert_eq!(g_of(1, tor_c), 2, "one per member path");
        for &c in engine.set_comps.get(1) {
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
    /// fails each set's copy of the first round trip once, and every flip
    /// leaves fail counts, `set_bad` and Δ at their brute-force values,
    /// with `delta_single` equal to `delta()`.
    #[test]
    fn round_trip_rows_and_shared_tor_flip() {
        let (topo, obs, tor) = round_trip_fixture();
        let mut engine = Engine::new(&topo, &obs, HyperParams::default());
        let tor_c = engine.comp_of(tor).unwrap();
        let local = |g: CompIdx| engine.local_comp(g).unwrap();
        let expect: Vec<Vec<CompIdx>> = (0..engine.n_paths() as u32)
            .map(|p| {
                let &[up, down] = arena_links(&engine, p) else {
                    panic!("a round trip is two links");
                };
                let agg = engine.space().device_comp(topo.link(up).dst).unwrap();
                let link = |l| local(engine.space().link_comp(l));
                vec![link(up), tor_c, local(agg), link(down)]
            })
            .collect();
        assert_eq!(
            expect.len(),
            3,
            "the single's round trip, then the pair's two"
        );
        assert_eq!(expect[0], expect[1], "one round trip, a copy per set");
        for (p, row) in (0u32..).zip(&expect) {
            assert_eq!(&brute_row(&engine, &topo, p), row, "path {p}");
        }
        let host_up = topo.host_uplink(topo.hosts()[0]);
        let host_up = engine
            .comp_of(flock_topology::Component::Link(host_up))
            .unwrap();

        let check = |engine: &Engine| {
            for s in 0..engine.n_sets() as u32 {
                let bad = engine.recount_set_bad(s);
                assert_eq!(engine.set_bad[s as usize], bad, "set {s}");
            }
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
        let pair: Vec<_> = engine.path_rows.rows(1, engine.view.paths_of(1)).collect();
        assert_eq!(pair, [(1, &expect[1][..]), (2, &expect[2][..])]);
        assert_eq!(engine.path_fail, [1, 1, 1], "each round trip fails once");
        assert_fail_counts(&engine, &topo);
        check(&engine);
        engine.flip(tor_c);
        assert_fail_counts(&engine, &topo);
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
