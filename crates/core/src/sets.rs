//! The engine's set layer: everything derived from a viewed path set's
//! member paths, and the counts over them that JLE's Δ update reads.
//!
//! Every number the engine needs about a set `S` under a hypothesis `H`
//! is a count over `S`'s member paths (Algorithm 2's `GetCounters`,
//! §3.3–§4): [`Sets::bad`], the members that meet `H`, and per component
//! of `S`, [`Sets::neighbours`]: what `bad` reads once that component
//! flips — the index of the `llf` ladder rung its Δ term reads.
//! [`Sets::fails_after`] counts the same for one flip without touching
//! any state. They all read here, so a factored representation of a
//! set's members is a change to this module alone.
//!
//! # Structure
//!
//! The layer is append-only — a set, once viewed, keeps its local id and
//! its content forever — and lives in flat offsets+items row tables
//! ([`Csr`], one allocation pair per table, rows appended as the view
//! grows, never rewritten): per viewed set, the sorted union of its
//! member paths' components, its g-ladder and per-component ladder index
//! (below), and its width, the count of its member paths. No table
//! numbers or stores member paths: member `i` of a set is member `i` of
//! the arena set, whose handle ([`PathSetHandle`], for an ECMP set the
//! `Router`'s own `PathSet`) the layer keeps.
//!
//! A path's component *row* is its links and their switch ends, each link
//! as `[link, src, dst]`, deduplicated (a round-trip probe path visits a
//! device twice, but it is one component), in first-touch order. A
//! path's *fail count* — how many components of its row lie in `H` — is
//! read off `in_h` as a walk reads the row; nothing is stored per path.
//!
//! Rows are read only by a flip (for the sets it sweeps), a flipped extra
//! (for the set of each member it pins) and entering a seed (for the sets
//! it enters), and a search's flips reach a small share of the viewed
//! paths. So the cold bind writes none: the `&mut` counts derive a set's
//! rows **on first use**, one whole set at a time ([`PathRows`]), and keep
//! them for the engine's lifetime (a set's content never changes, so a
//! derived row never goes stale). The `&self` count reads a set not
//! derived yet off its members' links on the fly.
//!
//! # The g-ladder
//!
//! For a set `S` no failed path crosses — every set, at the empty
//! hypothesis — the initial Δ of a component `c` on `S` reads the flows'
//! ladders at `g(c)`, the number of member paths of `S` containing `c`.
//! `g` depends only on the path/set structure, so it is counted **once**,
//! when the set is first viewed, over each member's row. Per set the
//! layer keeps the ascending distinct `g` values (the *g-ladder*; every
//! `g` is at most the set's width, so it is counted off a mark array, not
//! sorted) and, per component of the set, a `u16` index into that ladder.
//! The cached half is never recomputed and never invalidated (views are
//! append-only); `prop_engine`'s
//! `cached_initial_delta_is_bit_equal_to_path_sweep` pins it bit-for-bit
//! against the from-scratch sweep at the empty seed.

use crate::space::{CompIdx, ComponentSpace};
use flock_telemetry::{ArenaSnapshot, ArenaView, DenseRemap};
use flock_topology::{LinkId, PathSetHandle, Topology};

/// "No component": a host end, a link not yet seen, or — as the flipped
/// component of a count — no flip at all.
pub(crate) const NO_COMP: CompIdx = CompIdx::MAX;

/// "Not on the ladder" in a ladder index → rung mark array.
pub(crate) const NO_RUNG: u32 = u32::MAX;

/// "Not derived yet" in [`PathRows::starts`].
const UNDERIVED_SET: u32 = u32::MAX;

/// Flat offsets+items row table: row `i` is `items[offsets[i]..offsets[i+1]]`.
/// Serves both the engine's inverted indexes (rebuilt by counting scatter,
/// [`Csr::rebuild`]) and the set layer's append-only structure rows (one
/// [`Csr::push_row`] per newly viewed set) — one allocation pair per
/// table instead of one per row, and rows a sweep visits in id order sit
/// next to each other in memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
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
    pub(crate) fn rebuild(
        &mut self,
        n_buckets: usize,
        pairs: impl Iterator<Item = (u32, u32)> + Clone,
    ) {
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

    /// Row `bucket`.
    #[inline]
    pub(crate) fn get(&self, bucket: u32) -> &[u32] {
        &self.items[self.range(bucket)]
    }

    /// Number of rows.
    pub(crate) fn n_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

/// Local ids of a link and of the switch devices at its ends, memoized
/// per global link id on first sight ([`Sets::link`]) — for the fabric
/// links of viewed paths and for flow-prefix links alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkComps {
    pub(crate) comp: CompIdx,
    pub(crate) devices: [CompIdx; 2],
}

impl LinkComps {
    const UNSEEN: LinkComps = LinkComps {
        comp: NO_COMP,
        devices: [NO_COMP; 2],
    };

    /// What the link adds to a path's row, in row order: itself and its
    /// ends, [`NO_COMP`] for a host end.
    #[inline]
    fn row(self) -> [CompIdx; 3] {
        debug_assert_ne!(self.comp, NO_COMP, "viewing a set localizes its links");
        [self.comp, self.devices[0], self.devices[1]]
    }
}

/// Append the row of the path with links `links` to `out`, reading each
/// link's local ids through `link`: every link's [`LinkComps::row`] in
/// link order, host ends left out, without repeats (a round-trip probe
/// path visits a device twice, but it is one component). Rows are a few
/// links long, so a `contains` over the part this call appended keeps
/// them duplicate-free; a 64-bit mask of the low bits of the components
/// pushed so far skips that scan for most components, which are new.
#[inline]
fn push_row(links: &[LinkId], mut link: impl FnMut(LinkId) -> LinkComps, out: &mut Vec<u32>) {
    let (from, mut seen) = (out.len(), 0u64);
    for &l in links {
        for c in link(l).row() {
            let bit = 1u64 << (c % 64);
            if c != NO_COMP && (seen & bit == 0 || !out[from..].contains(&c)) {
                seen |= bit;
                out.push(c);
            }
        }
    }
}

/// Per-path component rows, derived on first use one whole set at a
/// time (see the module docs). A set's block lists, per member path in
/// member order, the row length and then the row (a path belongs to one
/// set, so its row is stored once; one index per set is smaller than one
/// per path, and a sweep over a set reads its rows contiguously).
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

    /// Derive the block of set `s`, whose members are `members`.
    #[cold]
    fn derive(&mut self, s: u32, members: &PathSetHandle, link_comps: &[LinkComps]) {
        self.starts[s as usize] =
            u32::try_from(self.items.len()).expect("path row memo exceeds u32 offsets");
        for links in members.iter() {
            let at = self.items.len();
            self.items.push(0);
            push_row(links, |l| link_comps[l.0 as usize], &mut self.items);
            self.items[at] = (self.items.len() - at - 1) as u32;
        }
    }

    /// The row of every member path of the derived set `s`, of width
    /// `w`, in member order.
    fn rows(&self, s: u32, w: usize) -> impl Iterator<Item = &[u32]> + '_ {
        assert!(
            self.is_derived(s),
            "set {s} is read before its path rows were derived"
        );
        let mut at = self.starts[s as usize] as usize;
        (0..w).map(move |_| {
            let len = self.items[at] as usize;
            let row = &self.items[at + 1..at + 1 + len];
            at += 1 + len;
            row
        })
    }
}

/// The set layer of one engine, indexed by the engine view's local set
/// ids and the engine's local component ids. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sets {
    /// Per global link id (id-width, never reset): the link's local id
    /// and its switch ends'.
    link_comps: Vec<LinkComps>,
    /// Per set, its arena members.
    members: Vec<PathSetHandle>,
    /// Per set, its width: the count of its members.
    width: Vec<u32>,
    /// Row `s`: the sorted component union of the members of set `s`.
    comps: Csr,
    /// Row `s`: the ascending distinct values of `g(c)` over the
    /// components `c` of set `s`.
    ladders: Csr,
    /// Parallel to `comps.items` (same row offsets): the index of each
    /// component's `g` in its set's ladder.
    gidx: Vec<u16>,
    /// The rows of the members of the sets counted so far.
    rows: PathRows,
    /// Per-component counting scratch of [`Sets::neighbours`] and
    /// [`Sets::extend`] (zero between calls).
    scratch: Vec<u32>,
}

impl Sets {
    /// An empty layer over a topology of `n_links` links.
    pub(crate) fn new(n_links: usize) -> Sets {
        Sets {
            link_comps: vec![LinkComps::UNSEEN; n_links],
            ..Sets::default()
        }
    }

    /// Number of viewed sets.
    pub(crate) fn n_sets(&self) -> usize {
        self.width.len()
    }

    /// Number of member paths of the viewed sets.
    pub(crate) fn n_paths(&self) -> usize {
        self.width.iter().map(|&w| w as usize).sum()
    }

    /// The width of set `s`.
    #[inline]
    pub(crate) fn width(&self, s: u32) -> u32 {
        self.width[s as usize]
    }

    /// The sorted component union of set `s`.
    #[inline]
    pub(crate) fn comps(&self, s: u32) -> &[CompIdx] {
        self.comps.get(s)
    }

    /// The g-ladder of set `s`: the ascending distinct values of `g`.
    #[inline]
    pub(crate) fn g_ladder(&self, s: u32) -> &[u32] {
        self.ladders.get(s)
    }

    /// Per component of [`Sets::comps`]`(s)`, in order, the index of its
    /// `g` in [`Sets::g_ladder`]`(s)`.
    #[inline]
    pub(crate) fn g_index(&self, s: u32) -> &[u16] {
        &self.gidx[self.comps.range(s)]
    }

    /// Every `(component, set)` pair, in set order: what transposes into
    /// the component → sets index.
    pub(crate) fn comp_set_pairs(&self) -> impl Iterator<Item = (u32, u32)> + Clone + '_ {
        (0..self.n_sets() as u32).flat_map(move |s| self.comps(s).iter().map(move |&c| (c, s)))
    }

    /// Local ids of link `l` and its switch ends: one table read once the
    /// link has been seen.
    #[inline]
    pub(crate) fn link(
        &mut self,
        topo: &Topology,
        space: &ComponentSpace,
        comps: &mut DenseRemap,
        l: LinkId,
    ) -> LinkComps {
        let known = self.link_comps[l.0 as usize];
        if known.comp == NO_COMP {
            self.localize_link(topo, space, comps, l)
        } else {
            known
        }
    }

    /// First sight of a link: localize it and its switch ends (hosts are
    /// not components), in that order, and memoize the result.
    #[cold]
    fn localize_link(
        &mut self,
        topo: &Topology,
        space: &ComponentSpace,
        comps: &mut DenseRemap,
        l: LinkId,
    ) -> LinkComps {
        let comp = comps.assign(space.link_comp(l));
        let lk = topo.link(l);
        let devices = [lk.src, lk.dst].map(|end| match space.device_comp(end) {
            Some(d) => comps.assign(d),
            None => NO_COMP,
        });
        let known = LinkComps { comp, devices };
        self.link_comps[l.0 as usize] = known;
        known
    }

    /// Extend the layer to every set `view` projects from `arena`,
    /// localizing the components they reach (each member's links in
    /// member order: the first-touch order that assigns new local ids),
    /// and count each new set's g-ladder over its members' rows. Derives
    /// no row for the memo. Returns whether the view grew; when it did
    /// not — the steady state that makes warm rebinding cheap — this is
    /// a no-op.
    pub(crate) fn extend(
        &mut self,
        topo: &Topology,
        space: &ComponentSpace,
        comps: &mut DenseRemap,
        view: &ArenaView,
        arena: &ArenaSnapshot,
    ) -> bool {
        let (old_sets, n_sets) = (self.n_sets(), view.n_sets());
        // Staging, reused across the loop (and never allocated on the
        // steady-state call where the view has not grown).
        let (mut row, mut union, mut ladder, mut rung) = (vec![], vec![], vec![], vec![]);
        for ls in old_sets as u32..n_sets as u32 {
            let members = arena.members(view.global_set(ls)).clone();
            let w = members.len();
            union.clear();
            for links in members.iter() {
                row.clear();
                push_row(links, |l| self.link(topo, space, comps, l), &mut row);
                if self.scratch.len() < comps.len() {
                    self.scratch.resize(comps.len(), 0);
                }
                for &c in &row {
                    if self.scratch[c as usize] == 0 {
                        union.push(c);
                    }
                    self.scratch[c as usize] += 1;
                }
            }
            union.sort_unstable();
            // Mark the `g` values present, read them off in ascending
            // order, and read each component's index back from its mark.
            if rung.len() <= w {
                rung.resize(w + 1, NO_RUNG);
            }
            for &c in &union {
                rung[self.scratch[c as usize] as usize] = 0;
            }
            ladder.clear();
            for g in 1..=w as u32 {
                if rung[g as usize] != NO_RUNG {
                    rung[g as usize] = ladder.len() as u32;
                    ladder.push(g);
                }
            }
            for &c in &union {
                let g = std::mem::take(&mut self.scratch[c as usize]);
                self.gidx.push(
                    u16::try_from(rung[g as usize])
                        .expect("a set has at most 65536 distinct g values"),
                );
            }
            for &g in &ladder {
                rung[g as usize] = NO_RUNG;
            }
            self.comps.push_row(union.iter().copied());
            self.ladders.push_row(ladder.iter().copied());
            self.width.push(w as u32);
            self.members.push(members);
        }
        self.rows.starts.resize(n_sets, UNDERIVED_SET);
        n_sets > old_sets
    }

    /// Derive the rows of set `s` unless they are.
    #[inline]
    fn derive(&mut self, s: u32) {
        if !self.rows.is_derived(s) {
            self.rows
                .derive(s, &self.members[s as usize], &self.link_comps);
        }
    }

    /// The members of set `s` whose row meets `failed`: off the derived
    /// rows, or — for a set not derived yet — off its members' links,
    /// leaving the memo as it is. Generic, so that every caller's walk is
    /// monomorphic.
    #[inline]
    fn count_failed(&self, s: u32, failed: impl Fn(CompIdx) -> bool) -> u32 {
        if self.rows.is_derived(s) {
            let rows = self.rows.rows(s, self.width(s) as usize);
            rows.map(|row| u32::from(row.iter().any(|&l| failed(l))))
                .sum()
        } else {
            let meets = |l: &LinkId| {
                let row = self.link_comps[l.0 as usize].row();
                row.into_iter().any(|c| c != NO_COMP && failed(c))
            };
            let members = self.members[s as usize].iter();
            members
                .map(|links| u32::from(links.iter().any(meets)))
                .sum()
        }
    }

    /// `set_bad` of set `s` at `in_h`: its members with a component in
    /// the hypothesis. Derives the set's rows on first use.
    #[inline]
    pub(crate) fn bad(&mut self, s: u32, in_h: &[bool]) -> u32 {
        self.derive(s);
        self.count_failed(s, |l| in_h[l as usize])
    }

    /// The members of set `s` that fail at `in_h` with `c`'s membership
    /// flipped (`c = NO_COMP` flips nothing), without touching the layer.
    pub(crate) fn fails_after(&self, s: u32, in_h: &[bool], c: CompIdx) -> u32 {
        self.count_failed(s, |l| in_h[l as usize] != (l == c))
    }

    /// The neighbour counts of set `s` at `in_h`: per component `l` of
    /// [`Sets::comps`]`(s)`, in that order, the set's `set_bad` with `l`'s
    /// membership flipped, into `out` — `set_bad` plus the member paths
    /// through `l` with no failed component for `l` outside the
    /// hypothesis, minus the member paths whose one failed component is
    /// `l` for `l` inside it (Algorithm 2's `g` and `s`). One walk over
    /// the set's rows (derived on first use). Returns the set's
    /// `set_bad`.
    pub(crate) fn neighbours(&mut self, s: u32, in_h: &[bool], out: &mut Vec<u32>) -> u32 {
        self.derive(s);
        let mut bad = 0;
        // Most paths have fail count 0: count the path on every component
        // while reading its fail count, in one pass over the row, and take
        // it back in a second pass only when it failed — from every
        // component but its failed one when that one is alone.
        for row in self.rows.rows(s, self.width[s as usize] as usize) {
            let mut fail = 0;
            for &l in row {
                fail += u32::from(in_h[l as usize]);
                self.scratch[l as usize] += 1;
            }
            if fail > 0 {
                bad += 1;
                for &l in row {
                    self.scratch[l as usize] -= u32::from(fail > 1 || !in_h[l as usize]);
                }
            }
        }
        out.clear();
        for &l in self.comps.get(s) {
            let n = std::mem::take(&mut self.scratch[l as usize]);
            out.push(if in_h[l as usize] { bad - n } else { bad + n });
        }
        bad
    }
}

#[cfg(test)]
impl Sets {
    /// The members of set `s`.
    pub(crate) fn members(&self, s: u32) -> &flock_topology::PathSet {
        &self.members[s as usize]
    }

    /// The rows of set `s`, if they are derived.
    pub(crate) fn derived_rows(&self, s: u32) -> Option<impl Iterator<Item = &[u32]> + '_> {
        let w = self.width(s) as usize;
        self.rows.is_derived(s).then(|| self.rows.rows(s, w))
    }

    /// Forget every derived row (legal at any time: rows are a memo of
    /// append-only structure).
    pub(crate) fn forget_rows(&mut self) {
        self.rows = PathRows {
            starts: vec![UNDERIVED_SET; self.n_sets()],
            items: Vec::new(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_telemetry::input::AnalysisMode;
    use flock_telemetry::{FlowObs, ObservationSet, PathArena};
    use flock_topology::clos::{three_tier, ClosParams};
    use flock_topology::{irregular, NodeId, PathSet, Router};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The ToR switches of `topo`, in host order.
    fn tors(topo: &Topology) -> Vec<NodeId> {
        let mut tors: Vec<NodeId> = topo.hosts().iter().map(|&h| topo.host_leaf(h)).collect();
        tors.dedup();
        tors
    }

    /// Round trips from `tor` up to each switch above it and straight
    /// back: paths that visit `tor` twice.
    fn round_trips(topo: &Topology, tor: NodeId) -> Vec<Vec<LinkId>> {
        topo.out_links(tor)
            .iter()
            .filter(|&&up| topo.node(topo.link(up).dst).role.is_switch())
            .map(|&up| {
                let above = topo.link(up).dst;
                let down = *topo
                    .out_links(above)
                    .iter()
                    .find(|&&l| topo.link(l).dst == tor)
                    .expect("links come in pairs");
                vec![up, down]
            })
            .collect()
    }

    /// An observation set over `topo` with one flow per set: the ECMP set
    /// of every ordered ToR pair (an omitted-link fabric's unroutable
    /// pairs included), a traced member of a few of them, and round-trip
    /// probe paths — one alone and all of one ToR's as a set.
    fn fixture(topo: &Topology) -> ObservationSet {
        let router = Router::new(topo);
        let mut arena = PathArena::new();
        let mut ids = Vec::new();
        let tors = tors(topo);
        for (i, &a) in tors.iter().enumerate() {
            for &b in &tors {
                if a == b {
                    continue;
                }
                let set = router.paths(a, b);
                if i % 3 == 0 && !set.is_empty() {
                    ids.push(arena.intern_single(&set[set.len() - 1]));
                }
                ids.push(arena.intern_set(set));
            }
        }
        let trips = round_trips(topo, tors[0]);
        ids.push(arena.intern_single(&trips[0]));
        ids.push(arena.intern_set(PathSet::from_paths(&trips)));
        let flows = ids
            .into_iter()
            .map(|set| FlowObs {
                prefix: [None, None],
                set,
                sent: 10,
                bad: 1,
                weight: 1,
            })
            .collect();
        ObservationSet {
            arena: arena.into(),
            flows,
            mode: AnalysisMode::PerPacket,
        }
    }

    /// A layer over every set of `obs`, with the remap of its components.
    fn layer(topo: &Topology, space: &ComponentSpace, obs: &ObservationSet) -> (Sets, DenseRemap) {
        let mut view = ArenaView::new();
        let all: Vec<u32> = (0..obs.flows.len() as u32).collect();
        view.bind_epoch(obs, &all).unwrap();
        let mut comps = DenseRemap::new();
        comps.ensure_ids(space.n_comps());
        let mut sets = Sets::new(topo.link_count());
        assert!(sets.extend(topo, space, &mut comps, &view, &obs.arena));
        assert!(!sets.extend(topo, space, &mut comps, &view, &obs.arena));
        (sets, comps)
    }

    /// The distinct local components of the path with links `links`,
    /// read off the topology: each link and its switch ends.
    fn brute_comps(
        topo: &Topology,
        space: &ComponentSpace,
        comps: &DenseRemap,
        links: &[LinkId],
    ) -> Vec<CompIdx> {
        let mut out: Vec<CompIdx> = links
            .iter()
            .flat_map(|&l| {
                let lk = topo.link(l);
                let ends = [lk.src, lk.dst].map(|n| space.device_comp(n));
                std::iter::once(Some(space.link_comp(l))).chain(ends)
            })
            .flatten()
            .map(|g| comps.local(g).expect("viewing a set localizes its links"))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every count of the layer against brute-force counts off the
    /// topology's links, over every viewed set, for a seeded stream of
    /// random hypotheses: `bad`, the neighbour count of every component,
    /// and `fails_after`. `lazy` is never asked a `&mut` count, so its
    /// `&self` count reads every set underived; `sets` derives each set
    /// as it counts it. `unroutable`: whether some set has no members.
    fn check(topo: &Topology, obs: &ObservationSet, unroutable: bool, seed: u64) {
        let space = ComponentSpace::new(topo);
        let (mut sets, comps) = layer(topo, &space, obs);
        let (lazy, lazy_comps) = layer(topo, &space, obs);
        assert_eq!(comps.globals(), lazy_comps.globals());
        let n = comps.len();
        // Per set, each member's brute-force components.
        let paths: Vec<Vec<Vec<CompIdx>>> = (0..sets.n_sets() as u32)
            .map(|s| {
                let members = sets.members(s).iter();
                members
                    .map(|links| brute_comps(topo, &space, &comps, links))
                    .collect()
            })
            .collect();
        assert_eq!(sets.n_paths(), paths.iter().map(Vec::len).sum::<usize>());
        assert_eq!(paths.iter().any(Vec::is_empty), unroutable);

        // The structure: the union and, at `H = ∅`, the g-ladder.
        for (s, members) in (0u32..).zip(&paths) {
            assert_eq!(sets.width(s) as usize, members.len());
            let mut union: Vec<CompIdx> = members.concat();
            union.sort_unstable();
            union.dedup();
            assert_eq!(sets.comps(s), &union[..], "set {s}");
            let g = |c: CompIdx| members.iter().filter(|p| p.contains(&c)).count() as u32;
            let mut ladder: Vec<u32> = union.iter().map(|&c| g(c)).collect();
            ladder.sort_unstable();
            ladder.dedup();
            assert_eq!(sets.g_ladder(s), &ladder[..], "set {s}");
            for (&c, &gi) in union.iter().zip(sets.g_index(s)) {
                assert_eq!(ladder[gi as usize], g(c), "set {s}, comp {c}");
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for round in 0..24 {
            let p = [0.02, 0.1, 0.3][round % 3];
            let in_h: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < p).collect();
            let fail = |path: &Vec<CompIdx>| path.iter().filter(|&&c| in_h[c as usize]).count();
            // Odd rounds count every set underived: `neighbours` derives
            // it on entry.
            if round % 2 == 1 {
                sets.forget_rows();
            }
            for (s, members) in (0u32..).zip(&paths) {
                let bad = members.iter().filter(|p| fail(p) > 0).count() as u32;
                // The members failing after flipping `c` (`NO_COMP`: none).
                let after = |c: CompIdx| {
                    let in_h_c = c != NO_COMP && in_h[c as usize];
                    let fails = |p: &&Vec<CompIdx>| match (p.contains(&c), in_h_c) {
                        (true, true) => fail(p) > 1,
                        (true, false) => true,
                        (false, _) => fail(p) > 0,
                    };
                    members.iter().filter(fails).count() as u32
                };
                let what = format!("round {round}, set {s}");
                assert_eq!(sets.neighbours(s, &in_h, &mut out), bad, "{what}");
                let brute: Vec<u32> = sets.comps(s).iter().map(|&c| after(c)).collect();
                assert_eq!(out, brute, "neighbours: {what}");
                // `fails_after` at every component of the set, one off it
                // and none, on the underived and the derived layer.
                let off = (0..n as u32).find(|c| !sets.comps(s).contains(c));
                let flips = sets.comps(s).iter().copied().chain(off).chain([NO_COMP]);
                for c in flips {
                    let (after, what) = (after(c), format!("{what}, flip {c}"));
                    assert_eq!(lazy.fails_after(s, &in_h, c), after, "underived: {what}");
                    assert_eq!(sets.fails_after(s, &in_h, c), after, "derived: {what}");
                }
                assert_eq!(sets.bad(s, &in_h), bad, "{what}");
            }
        }
    }

    /// The counting oracle over a regular tiny Clos, plus traced paths
    /// and round-trip probe paths (a device a path visits twice counts
    /// once).
    #[test]
    fn counts_equal_brute_force_on_a_regular_clos() {
        let topo = three_tier(ClosParams::tiny());
        check(&topo, &fixture(&topo), false, 1);
    }

    /// The counting oracle over a fabric with omitted links: ragged ECMP
    /// sets, and unroutable pairs as zero-width sets.
    #[test]
    fn counts_equal_brute_force_on_an_omitted_link_fabric() {
        let base = three_tier(ClosParams::tiny());
        let mut rng = StdRng::seed_from_u64(7);
        let (topo, removed) = irregular::omit_links(&base, 0.4, &mut rng);
        assert!(removed > 0);
        check(&topo, &fixture(&topo), true, 2);
    }
}
