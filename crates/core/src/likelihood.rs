//! Numerically stable evaluation of the flow likelihood (Eq. 1).
//!
//! All likelihoods are *normalized* by the no-failure hypothesis (§3.3),
//! which cancels every flow whose path set contains no failed component.
//! For one flow with `w` possible paths, `r` bad of `t` packets, and `b`
//! failed paths under the hypothesis, the normalized log-likelihood is
//!
//! ```text
//! LLF(b) = ln( (b·e^s + (w-b)) / w ),
//! s = r·ln(p_b/p_g) + (t-r)·ln((1-p_b)/(1-p_g))
//! ```
//!
//! `s` — the flow's *score* — is the log-likelihood ratio of the flow's
//! observation on a bad vs. good path. It is the only place the packet
//! counts enter, so it is precomputed once per flow; `LLF(b)` itself
//! depends on the hypothesis only through the failed-path count `b`, which
//! is exactly the memoization the JLE pseudocode (`GetCounters`,
//! Algorithm 2) exploits.
//!
//! # Keying an epoch's evidence once
//!
//! The `w + 1` values `LLF(0..=w)` of one evidence key `(sent, bad, w)` —
//! its *ladder* — are computed once, by the [`TermDirectory`]
//! (persistent, one per epoch assembler), on the key's first sight, and
//! stored once, in the directory's append-only ladder store. The
//! [`EpochFlowTable`] (one per epoch, built in the assembly stage) holds,
//! per observation, its score and its ladder's offset in the store — one
//! directory probe and one score per run of equal keys — plus a snapshot
//! of the store; every engine bound to the table keeps that snapshot and
//! reads the ladders in place.
//!
//! A sharded executor fans one observation out to several engines (source
//! pod, destination pod, every spine plane), so the key is hashed, scored
//! and its ladder computed in the one place that sees it once, not in
//! every engine.

use crate::params::HyperParams;
use flock_telemetry::{Column, ObservationSet};
use flock_topology::FxHashMap;

/// The flow score `s`: log-likelihood ratio of observing `(bad, sent)` on
/// a failed path vs. a good path.
///
/// Positive when the observation is evidence *for* a failure (enough bad
/// packets), negative when it is evidence against (mostly clean packets).
#[inline]
pub fn flow_score(params: &HyperParams, sent: u64, bad: u64) -> f64 {
    ScoreCoeffs::new(params).score(sent, bad)
}

/// The two log-ratio coefficients of [`flow_score`], which is linear in
/// the counts: `s = bad · ln(p_b/p_g) + clean · ln((1-p_b)/(1-p_g))`.
/// Whoever scores many observations under one parameter set pays the two
/// `ln` once; [`flow_score`] itself is defined through this type, so the
/// hoisted and the one-off evaluation cannot drift apart.
#[derive(Debug, Clone, Copy)]
struct ScoreCoeffs {
    bad: f64,
    clean: f64,
}

impl ScoreCoeffs {
    fn new(params: &HyperParams) -> Self {
        ScoreCoeffs {
            bad: (params.p_b / params.p_g).ln(),
            clean: ((1.0 - params.p_b) / (1.0 - params.p_g)).ln(),
        }
    }

    #[inline]
    fn score(&self, sent: u64, bad: u64) -> f64 {
        debug_assert!(bad <= sent);
        let r = bad as f64;
        let t = sent as f64;
        r * self.bad + (t - r) * self.clean
    }
}

/// Normalized flow log-likelihood given `b` failed paths out of `w`.
///
/// `llf(score, w, 0) == 0` (no failed path ⇒ same as the no-failure
/// hypothesis) and `llf(score, w, w) == score`.
#[inline]
pub fn llf(score: f64, w: u32, b: u32) -> f64 {
    debug_assert!(b <= w && w > 0, "b={b} w={w}");
    if b == 0 {
        return 0.0;
    }
    if b == w {
        return score;
    }
    // ln((b·e^s + (w-b))/w) via log-sum-exp for stability at large |s|.
    let a1 = (b as f64).ln() + score;
    let a2 = ((w - b) as f64).ln();
    let (hi, lo) = if a1 >= a2 { (a1, a2) } else { (a2, a1) };
    hi + (lo - hi).exp().ln_1p() - (w as f64).ln()
}

/// The persistent **term directory**: every evidence key `(sent, bad, w)`
/// the owner has ever assembled, with its ladder.
///
/// A super-flow's log-likelihood depends on the hypothesis only through
/// its failed-path count `b ∈ 0..=w`, so the whole transcendental cost of
/// [`llf`] is paid once per distinct key, as a `w + 1`-entry *ladder*,
/// and every flip sweep afterwards is a pure gather. The directory is
/// where a key is looked up — **once per epoch**, by whoever assembles
/// the epoch (a `StreamPipeline`, or privately an [`Engine`] built
/// through its plain constructors) while building the
/// [`EpochFlowTable`] — and the one place its ladder is computed and
/// stored.
///
/// Append-only, like the path arena: a ladder, once stored, keeps its
/// offset and its values forever, and a snapshot taken earlier keeps
/// reading exactly what it was taken with.
///
/// [`Engine`]: crate::Engine
#[derive(Debug)]
pub struct TermDirectory {
    coeffs: ScoreCoeffs,
    /// Key → offset of its ladder in `ladders`.
    offsets: FxHashMap<(u64, u64, u32), u32>,
    ladders: Ladders,
}

impl TermDirectory {
    /// An empty directory scoring under `params`.
    pub fn new(params: &HyperParams) -> Self {
        TermDirectory {
            coeffs: ScoreCoeffs::new(params),
            offsets: FxHashMap::default(),
            ladders: Ladders::default(),
        }
    }

    /// Distinct keys stored so far.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether no key has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Look `(sent, bad, w)` up — one hash probe — computing and storing
    /// its ladder on first sight.
    fn term(&mut self, sent: u64, bad: u64, w: u32) -> FlowTerm {
        let score = self.coeffs.score(sent, bad);
        let ladders = &mut self.ladders;
        let off = *self
            .offsets
            .entry((sent, bad, w))
            .or_insert_with(|| ladders.push(score, w));
        FlowTerm { score, off, w }
    }
}

/// The ladder store: every ladder a [`TermDirectory`] computed, in one
/// append-only [`Column`] whose chunks its snapshots share. A ladder is
/// one run of the column, so it never crosses a chunk boundary and reads
/// back as one slice (a ladder wider than a chunk takes a chunk of its
/// own).
///
/// Every entry is produced by [`llf`] itself, so a read is
/// **bit-identical** to direct evaluation by construction. The score is
/// finite for any valid [`HyperParams`]; if a degenerate parameter set
/// ever produces a non-finite one the exact `llf` outputs are stored
/// unchanged, so reads still agree bitwise with direct evaluation — the
/// non-finite guard property tests pin this down.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ladders {
    values: Column<f64>,
    /// Ladders stored…
    count: usize,
    /// …and their entries (the column also counts the rows a chunk
    /// boundary skipped).
    entries: usize,
}

impl Ladders {
    /// Compute and store the ladder `llf(score, w, 0..=w)`; returns its
    /// offset.
    fn push(&mut self, score: f64, w: u32) -> u32 {
        debug_assert!(w > 0, "a ladder requires w > 0");
        let off = self.values.push_run((0..w + 1).map(|b| llf(score, w, b)));
        self.count += 1;
        self.entries += w as usize + 1;
        u32::try_from(off).expect("ladder store exceeds u32 offsets")
    }

    /// The ladder stored at `off` for width `w`: `get(off, w)[b]` is
    /// `llf(score, w, b)`.
    #[inline]
    pub(crate) fn get(&self, off: u32, w: u32) -> &[f64] {
        self.values.run(off as usize, w as usize + 1)
    }

    /// `(ladders, entries)` stored.
    pub(crate) fn sizes(&self) -> (usize, usize) {
        (self.count, self.entries)
    }
}

/// One observation's entry in the [`EpochFlowTable`].
#[derive(Debug, Clone, Copy)]
struct FlowTerm {
    score: f64,
    /// Offset of the ladder in the store…
    off: u32,
    /// …and the width it was computed for (0: no paths, no ladder).
    w: u32,
}

/// One epoch's evidence, keyed **once**: per observation of an
/// [`ObservationSet`] (same indexing as `obs.flows`) its [`flow_score`]
/// and the offset of its `(sent, bad, w)` ladder, plus a snapshot of the
/// directory's ladder store that every engine bound to the table keeps.
///
/// Built by [`EpochFlowTable::rebuild`] in one walk over the sorted
/// observations: the assembler's order makes runs of equal evidence keys
/// contiguous, so a run costs one directory probe and one score, however
/// many shard engines later read it.
#[derive(Debug, Default)]
pub struct EpochFlowTable {
    terms: Vec<FlowTerm>,
    /// The directory's store after the build: every offset in `terms`
    /// points into it.
    ladders: Ladders,
}

impl EpochFlowTable {
    /// An empty table (covers an empty observation set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild in place for `obs`, storing the ladders of the keys `dir`
    /// has not seen. Buffers are reused, so a steady-state epoch
    /// allocates little. Observations over an empty path set carry no
    /// evidence and get no ladder (engines drop them before looking).
    pub fn rebuild(&mut self, dir: &mut TermDirectory, obs: &ObservationSet) {
        // Release the old snapshot first, so storing a new ladder copies
        // no chunk on this table's account.
        self.ladders = Ladders::default();
        self.terms.clear();
        self.terms.reserve(obs.flows.len());
        let mut run: Option<((u32, u64, u64), FlowTerm)> = None;
        for o in &obs.flows {
            let key = o.evidence_key();
            let term = match run {
                Some((k, term)) if k == key => term,
                _ => {
                    let w = obs.arena.members(o.set).len() as u32;
                    let term = if w == 0 {
                        FlowTerm {
                            score: 0.0,
                            off: 0,
                            w: 0,
                        }
                    } else {
                        dir.term(o.sent, o.bad, w)
                    };
                    run = Some((key, term));
                    term
                }
            };
            self.terms.push(term);
        }
        self.ladders = dir.ladders.clone();
    }

    /// Observations covered (the length of the `obs.flows` it was built
    /// over).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the table covers no observation.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The ladder of observation `i`, in place in the store:
    /// `ladder(i)[b]` is `llf(s, w, b)` for its [`flow_score`] `s` and
    /// its path set's width `w` (so `ladder(i)[w]` is `s`). Empty for an
    /// observation over an empty path set.
    pub fn ladder(&self, i: usize) -> &[f64] {
        let t = self.terms[i];
        if t.w == 0 {
            return &[];
        }
        self.ladders.get(t.off, t.w)
    }

    /// `(score, ladder offset)` of observation `i`.
    #[inline]
    pub(crate) fn term(&self, i: usize) -> (f64, u32) {
        let t = self.terms[i];
        (t.score, t.off)
    }

    /// The store snapshot every offset of the table points into.
    pub(crate) fn ladders(&self) -> &Ladders {
        &self.ladders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HyperParams {
        HyperParams::default()
    }

    /// Direct (unstable) evaluation of Eq. 1, for cross-checking.
    fn llf_direct(p: &HyperParams, sent: u64, bad: u64, w: u32, b: u32) -> f64 {
        let good_term = p.p_g.powi(bad as i32) * (1.0 - p.p_g).powi((sent - bad) as i32);
        let bad_term = p.p_b.powi(bad as i32) * (1.0 - p.p_b).powi((sent - bad) as i32);
        let num = b as f64 * bad_term + (w - b) as f64 * good_term;
        (num / (w as f64 * good_term)).ln()
    }

    #[test]
    fn boundary_values() {
        let s = flow_score(&params(), 100, 3);
        assert_eq!(llf(s, 8, 0), 0.0);
        assert!((llf(s, 8, 8) - s).abs() < 1e-12);
    }

    #[test]
    fn matches_direct_evaluation() {
        let p = params();
        for (sent, bad) in [(50u64, 0u64), (50, 1), (200, 5), (1000, 12)] {
            let s = flow_score(&p, sent, bad);
            for w in [1u32, 2, 4, 16] {
                for b in 0..=w {
                    let fast = llf(s, w, b);
                    let direct = llf_direct(&p, sent, bad, w, b);
                    assert!(
                        (fast - direct).abs() < 1e-9 * (1.0 + direct.abs()),
                        "sent={sent} bad={bad} w={w} b={b}: {fast} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn monotone_in_b_matching_score_sign() {
        let p = params();
        // Evidence for failure: more failed paths ⇒ higher likelihood.
        let s_pos = flow_score(&p, 100, 10);
        assert!(s_pos > 0.0);
        for b in 0..16 {
            assert!(llf(s_pos, 16, b + 1) > llf(s_pos, 16, b));
        }
        // Evidence against: more failed paths ⇒ lower likelihood.
        let s_neg = flow_score(&p, 1000, 0);
        assert!(s_neg < 0.0);
        for b in 0..16 {
            assert!(llf(s_neg, 16, b + 1) < llf(s_neg, 16, b));
        }
    }

    #[test]
    fn stable_at_extreme_scores() {
        // A flow with thousands of drops has an astronomically large
        // score; llf must not overflow.
        let p = params();
        let s = flow_score(&p, 100_000, 50_000);
        assert!(s.is_finite() && s > 1000.0);
        let v = llf(s, 32, 1);
        assert!(v.is_finite());
        // b=1 of w: llf ≈ s - ln w for huge s.
        assert!((v - (s - (32f64).ln())).abs() < 1e-6);

        let s2 = flow_score(&p, 1_000_000, 0);
        let v2 = llf(s2, 32, 31);
        assert!(v2.is_finite());
        // Almost all paths failed with crushing counter-evidence:
        // ln(1/w) remains.
        assert!((v2 - (1.0f64 / 32.0).ln()).abs() < 1e-6);
    }

    /// One observation per `(sent, bad)` pair, each over a fresh set of
    /// `w` single-link paths.
    fn obs_of(keys: &[(u64, u64, u32)]) -> ObservationSet {
        use flock_telemetry::{AnalysisMode, FlowObs, PathArena};
        let mut arena = PathArena::new();
        let mut next_link = 0u32;
        let flows = keys
            .iter()
            .map(|&(sent, bad, w)| {
                let paths = (0..w).map(|_| {
                    next_link += 1;
                    [flock_topology::LinkId(next_link)]
                });
                FlowObs {
                    prefix: [None, None],
                    set: arena.intern_set(flock_topology::PathSet::from_paths(paths)),
                    sent,
                    bad,
                    weight: 1,
                }
            })
            .collect();
        ObservationSet {
            arena: arena.into(),
            flows,
            mode: AnalysisMode::PerPacket,
        }
    }

    /// The table is keyed once per run, a key is stored once, in first-
    /// sight order, and a known key stores nothing; every ladder is
    /// `llf`'s own bits, read in place through the table.
    #[test]
    fn flow_table_keys_once_and_ladders_are_bit_identical() {
        let p = params();
        let keys = [(40u64, 0u64, 4u32), (80, 2, 4), (80, 2, 8), (160, 3, 8)];
        let mut obs = obs_of(&keys);
        // A run: the same evidence key again, right behind the first.
        let twin = obs.flows[3];
        obs.flows.push(twin);
        let mut dir = TermDirectory::new(&p);
        let mut first = EpochFlowTable::new();
        first.rebuild(&mut dir, &obs);
        assert_eq!(first.len(), 5);
        assert_eq!(dir.len(), 4, "w is part of the key");
        assert_eq!(first.ladders.sizes(), (4, 5 + 5 + 9 + 9));
        assert_eq!(first.term(4), first.term(3));
        let mut at = 0;
        for (i, &(sent, bad, w)) in keys.iter().enumerate() {
            let (score, off) = first.term(i);
            assert_eq!(off, at, "stored once each, in first-sight order");
            at += w + 1;
            assert_eq!(score.to_bits(), flow_score(&p, sent, bad).to_bits());
            let ladder = first.ladder(i);
            assert_eq!(ladder.len(), w as usize + 1);
            for (b, v) in ladder.iter().enumerate() {
                assert_eq!(v.to_bits(), llf(score, w, b as u32).to_bits());
            }
        }
        // A later epoch over known keys: same offsets, nothing stored.
        let mut later = EpochFlowTable::new();
        later.rebuild(&mut dir, &obs);
        assert_eq!(dir.len(), 4);
        assert_eq!(later.ladders.sizes(), first.ladders.sizes());
        for i in 0..obs.flows.len() {
            assert_eq!(later.term(i), first.term(i));
        }
    }

    /// The store keeps a ladder in one chunk: one the tail chunk has no
    /// room for starts the next chunk and reads back exactly `w + 1`
    /// values. A snapshot reads what it was taken with while the store
    /// grows — also after the shared tail chunk is copied on write.
    #[test]
    fn ladder_store_keeps_each_ladder_in_one_chunk() {
        use flock_telemetry::input::CHUNK_ROWS;
        let w = 999u32;
        let per_chunk = CHUNK_ROWS / (w as usize + 1);
        assert!(per_chunk >= 1 && CHUNK_ROWS % (w as usize + 1) != 0);
        let mut store = Ladders::default();
        let score = |k: u32| -3.0 + f64::from(k);
        let check = |store: &Ladders, offs: &[u32]| {
            assert_eq!(store.sizes(), (offs.len(), offs.len() * (w as usize + 1)));
            for (k, &off) in (0u32..).zip(offs) {
                let ladder = store.get(off, w);
                assert_eq!(ladder.len(), w as usize + 1);
                for (b, v) in (0u32..).zip(ladder) {
                    assert_eq!(
                        v.to_bits(),
                        llf(score(k), w, b).to_bits(),
                        "ladder {k} b={b}"
                    );
                }
            }
        };
        let mut offs: Vec<u32> = (0..per_chunk as u32)
            .map(|k| store.push(score(k), w))
            .collect();
        let snap = store.clone();
        let shared = offs.clone();
        // The tail chunk has no room for another ladder: it starts the
        // next chunk.
        offs.push(store.push(score(per_chunk as u32), w));
        assert_eq!(offs[per_chunk] as usize, CHUNK_ROWS);
        // A snapshot sharing a tail chunk with room left: the next
        // ladder lands in that chunk, so the store copies it on write.
        let snap2 = store.clone();
        let shared2 = offs.clone();
        offs.push(store.push(score(per_chunk as u32 + 1), w));
        assert_eq!(offs[per_chunk + 1] as usize, CHUNK_ROWS + w as usize + 1);
        check(&snap, &shared);
        check(&snap2, &shared2);
        check(&store, &offs);
    }

    /// A ladder as wide as a chunk, or wider, is stored like any other:
    /// at widths `CHUNK_ROWS - 1`, `CHUNK_ROWS` and 10,000, every rung of
    /// every ladder is `llf`'s own bits, the ladders the directory stored
    /// before and after the wide one read back unchanged, and the table
    /// of an earlier epoch — a snapshot of the store before the wide push
    /// — reads what it read.
    #[test]
    fn ladder_store_takes_ladders_wider_than_a_chunk() {
        use flock_telemetry::input::CHUNK_ROWS;
        let p = params();
        let narrow = [(100u64, 1u64, 999u32), (100, 2, 999), (100, 3, 999)];
        let check = |table: &EpochFlowTable, keys: &[(u64, u64, u32)]| {
            for (i, &(sent, bad, w)) in keys.iter().enumerate() {
                let ladder = table.ladder(i);
                assert_eq!(ladder.len(), w as usize + 1);
                let score = flow_score(&p, sent, bad);
                for (b, v) in (0u32..).zip(ladder) {
                    assert_eq!(v.to_bits(), llf(score, w, b).to_bits(), "key {i}, b={b}");
                }
            }
        };
        for wide in [CHUNK_ROWS as u32 - 1, CHUNK_ROWS as u32, 10_000] {
            let mut dir = TermDirectory::new(&p);
            let mut before = EpochFlowTable::new();
            before.rebuild(&mut dir, &obs_of(&narrow));
            let keys = [
                narrow[0],
                narrow[1],
                (200, 5, wide),
                (100, 4, 999),
                narrow[2],
            ];
            let mut after = EpochFlowTable::new();
            after.rebuild(&mut dir, &obs_of(&keys));
            assert_eq!(dir.len(), 5, "w = {wide}");
            for i in 0..2 {
                assert_eq!(after.term(i), before.term(i), "w = {wide}");
            }
            assert_eq!(after.term(4), before.term(2));
            check(&before, &narrow);
            check(&after, &keys);
        }
    }

    /// Equal `(sent, bad)` over sets of equal width share one ladder even
    /// when the sets differ: the ladder depends on the set only through
    /// `w`.
    #[test]
    fn directory_keys_on_width_not_on_set() {
        let obs = obs_of(&[(50, 1, 3), (50, 1, 3), (50, 1, 2)]);
        assert_ne!(obs.flows[0].set, obs.flows[1].set);
        let mut dir = TermDirectory::new(&params());
        let mut table = EpochFlowTable::new();
        table.rebuild(&mut dir, &obs);
        assert_eq!(table.term(0), table.term(1));
        assert_ne!(table.term(0).1, table.term(2).1);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn score_is_linear_in_counts() {
        let p = params();
        let s1 = flow_score(&p, 100, 2);
        let s2 = flow_score(&p, 200, 4);
        assert!((2.0 * s1 - s2).abs() < 1e-9);
    }
}
