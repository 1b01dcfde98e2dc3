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
//! its *ladder* — are memoized, in three pieces with three lifetimes:
//!
//! * the [`TermDirectory`] (persistent, one per epoch assembler) maps a
//!   key to a dense term id, append-only;
//! * the [`EpochFlowTable`] (one per epoch, built in the assembly stage)
//!   holds, per observation, its term id and score — one directory probe
//!   and one score per run of equal keys — plus the ladders of the ids
//!   minted that epoch;
//! * each engine's [`TermTable`] (persistent, one per engine) keeps the
//!   ladders of the ids *it* has met in one flat slice, found through a
//!   dense id → offset array.
//!
//! A sharded executor fans one observation out to several engines (source
//! pod, destination pod, every spine plane), so the key is hashed and
//! scored in the one place that sees it once, not in every engine.

use crate::params::HyperParams;
use flock_telemetry::ObservationSet;
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
/// the owner has ever assembled, mapped to a dense *term id*.
///
/// A super-flow's log-likelihood depends on the hypothesis only through
/// its failed-path count `b ∈ 0..=w`, so the whole transcendental cost of
/// [`llf`] can be paid once per distinct key as a `w + 1`-entry *ladder*
/// and every flip sweep afterwards is a pure table gather. The directory
/// is where a key is looked up — **once per epoch**, by whoever assembles
/// the epoch (a `StreamPipeline`, or privately an [`Engine`] built
/// through its plain constructors) while building the
/// [`EpochFlowTable`]. Every engine reading that table then resolves ids
/// through a dense per-engine array ([`TermTable`]) instead of hashing
/// the 20-byte key again.
///
/// Append-only, like the path arena: an id, once minted, denotes the same
/// key forever, so ids held by warm engines survive across epochs.
///
/// [`Engine`]: crate::Engine
#[derive(Debug)]
pub struct TermDirectory {
    /// Process-unique identity, stamped into every table built over this
    /// directory: ids of two directories alias, so a [`TermTable`]
    /// refuses tables of any directory but its first.
    token: u64,
    coeffs: ScoreCoeffs,
    ids: FxHashMap<(u64, u64, u32), u32>,
}

impl TermDirectory {
    /// An empty directory scoring under `params`.
    pub fn new(params: &HyperParams) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
        TermDirectory {
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            coeffs: ScoreCoeffs::new(params),
            ids: FxHashMap::default(),
        }
    }

    /// Distinct keys minted so far; every id handed out is below this.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no key has been minted yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// One observation's entry in the [`EpochFlowTable`].
#[derive(Debug, Clone, Copy)]
struct FlowTerm {
    score: f64,
    id: u32,
}

/// One epoch's evidence, keyed **once**: per observation of an
/// [`ObservationSet`] (same indexing as `obs.flows`) the term id of its
/// `(sent, bad, w)` key and its [`flow_score`], plus the ladders of the
/// ids minted *this* epoch (in steady state: none).
///
/// Built by [`EpochFlowTable::rebuild`] in one walk over the sorted
/// observations: the assembler's order makes runs of equal evidence keys
/// contiguous, so a run costs one directory probe and one score, however
/// many shard engines later read it. An engine meeting an id for the
/// first time copies its ladder from here when the id is this epoch's,
/// and otherwise computes it from the score with [`llf`] — the same
/// function that filled the minted ladders, so both are bit-identical by
/// construction.
#[derive(Debug, Default)]
pub struct EpochFlowTable {
    /// [`TermDirectory`] the ids belong to (0 = never built).
    directory: u64,
    terms: Vec<FlowTerm>,
    /// Directory size after the build: every id in `terms` is below it.
    n_terms: u32,
    /// First id minted by this build; ids `minted_base..n_terms` carry
    /// ladders (the directory is append-only, so they are contiguous).
    minted_base: u32,
    /// Ladder of id `minted_base + k` is
    /// `ladders[ladder_off[k]..ladder_off[k + 1]]`.
    ladder_off: Vec<u32>,
    ladders: Vec<f64>,
}

impl EpochFlowTable {
    /// An empty table (covers an empty observation set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild in place for `obs`, minting the keys `dir` has not seen.
    /// Buffers are reused, so a steady-state epoch allocates nothing.
    /// Observations over an empty path set carry no evidence and get no
    /// term (engines drop them before looking).
    pub fn rebuild(&mut self, dir: &mut TermDirectory, obs: &ObservationSet) {
        self.directory = dir.token;
        self.terms.clear();
        self.terms.reserve(obs.flows.len());
        self.minted_base = dir.ids.len() as u32;
        self.ladder_off.clear();
        self.ladder_off.push(0);
        self.ladders.clear();
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
                            id: u32::MAX,
                        }
                    } else {
                        self.term_of(dir, o.sent, o.bad, w)
                    };
                    run = Some((key, term));
                    term
                }
            };
            self.terms.push(term);
        }
        self.n_terms = dir.ids.len() as u32;
    }

    /// Look `(sent, bad, w)` up in `dir` — one hash probe — minting it,
    /// ladder included, on first sight.
    fn term_of(&mut self, dir: &mut TermDirectory, sent: u64, bad: u64, w: u32) -> FlowTerm {
        let score = dir.coeffs.score(sent, bad);
        let next = u32::try_from(dir.ids.len()).expect("term directory exceeds u32 ids");
        let id = *dir.ids.entry((sent, bad, w)).or_insert(next);
        if id == next {
            self.ladders.extend((0..=w).map(|b| llf(score, w, b)));
            let end = u32::try_from(self.ladders.len()).expect("minted ladders exceed u32 offsets");
            self.ladder_off.push(end);
        }
        FlowTerm { score, id }
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

    /// `(term id, flow score)` of observation `i`.
    #[inline]
    pub fn term(&self, i: usize) -> (u32, f64) {
        let t = self.terms[i];
        (t.id, t.score)
    }

    /// Ids minted by this build.
    pub fn minted(&self) -> usize {
        (self.n_terms - self.minted_base) as usize
    }

    /// The ladder of `id`, if this build minted it.
    fn minted_ladder(&self, id: u32) -> Option<&[f64]> {
        let k = id.checked_sub(self.minted_base)? as usize;
        let hi = *self.ladder_off.get(k + 1)?;
        Some(&self.ladders[self.ladder_off[k] as usize..hi as usize])
    }
}

/// One engine's resident `llf` ladders, addressed by term id.
///
/// Flat `f64` storage: a flow holds an offset and reads
/// `values()[off + b]`, so the sweep kernels (see [`crate::kernels`])
/// index one contiguous slice. Which ids are resident is a dense id →
/// offset array — no key, no hash. Entries are produced by [`llf`] itself
/// (directly, or copied from a ladder the epoch's table minted with it),
/// so a lookup is **bit-identical** to direct evaluation by construction.
///
/// Extend-only: ladders resolved in earlier epochs stay valid across
/// view rebinds, so offsets held by live super-flows never move.
#[derive(Debug, Default, Clone)]
pub struct TermTable {
    /// Flat storage; the ladder of a resident id sits at `off..=off + w`.
    values: Vec<f64>,
    /// Term id → offset of its ladder in `values` ([`UNRESOLVED`] until
    /// this engine first meets the id).
    offsets: Vec<u32>,
    /// Identity of the directory the ids belong to, bound by the first
    /// table seen.
    directory: Option<u64>,
    /// Ladders resident (for diagnostics/bench reporting).
    tables: usize,
}

/// "Not resident yet" in [`TermTable::offsets`].
const UNRESOLVED: u32 = u32::MAX;

impl TermTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepare to resolve the ids of `table`: widen the id side to its
    /// directory's current size.
    ///
    /// # Panics
    /// If `table` was built over another [`TermDirectory`] than the
    /// first one bound — the two id spaces alias, and resolving through
    /// the wrong one would read another key's ladder.
    pub fn bind(&mut self, table: &EpochFlowTable) {
        let bound = *self.directory.get_or_insert(table.directory);
        assert_eq!(
            bound, table.directory,
            "flow table built over another term directory: its ids alias this engine's"
        );
        if self.offsets.len() < table.n_terms as usize {
            self.offsets.resize(table.n_terms as usize, UNRESOLVED);
        }
    }

    /// Offset of term `id`'s ladder (`w + 1` entries, `llf(score, w, ·)`),
    /// made resident on this engine's first sight of the id: copied from
    /// `table` when it minted the id this epoch, computed otherwise.
    /// `table` must have been [bound](Self::bind); `w` must be positive
    /// (a flow with no candidate paths carries no evidence and is
    /// dropped before it reaches the engine). The score is finite for
    /// any valid [`HyperParams`]; if a degenerate parameter set ever
    /// produces a non-finite one the exact `llf` outputs are stored
    /// unchanged, so lookups still agree bitwise with direct evaluation
    /// — the non-finite guard property tests pin this down.
    #[inline]
    pub fn resolve(&mut self, id: u32, score: f64, w: u32, table: &EpochFlowTable) -> u32 {
        debug_assert!(w > 0, "term table requires w > 0");
        let off = self.offsets[id as usize];
        if off != UNRESOLVED {
            return off;
        }
        self.append(id, score, w, table)
    }

    #[cold]
    fn append(&mut self, id: u32, score: f64, w: u32, table: &EpochFlowTable) -> u32 {
        let off = u32::try_from(self.values.len()).expect("term table exceeds u32 offsets");
        match table.minted_ladder(id) {
            Some(ladder) => {
                debug_assert_eq!(ladder.len(), w as usize + 1);
                self.values.extend_from_slice(ladder);
            }
            None => self.values.extend((0..=w).map(|b| llf(score, w, b))),
        }
        self.offsets[id as usize] = off;
        self.tables += 1;
        off
    }

    /// The flat value storage; a flow's ladder is `&values()[off..=off + w]`.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Total `f64` entries across all resident ladders.
    pub fn entries(&self) -> usize {
        self.values.len()
    }

    /// Distinct `(sent, bad, w)` keys resident.
    pub fn tables(&self) -> usize {
        self.tables
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

    /// The table is keyed once per run, ids are dense in mint order, a
    /// known key mints nothing — and a ladder is the same bits whether an
    /// engine copies it from the minting epoch's table or computes it
    /// epochs later from the score alone.
    #[test]
    fn flow_table_keys_once_and_ladders_are_bit_identical() {
        let p = params();
        let keys = [(40u64, 0u64, 4u32), (80, 2, 4), (80, 2, 8), (160, 3, 8)];
        let mut obs = obs_of(&keys);
        // A run: the same evidence key again, right behind the first.
        let twin = obs.flows[3];
        obs.flows.push(twin);
        let mut dir = TermDirectory::new(&p);
        let mut minting = EpochFlowTable::new();
        minting.rebuild(&mut dir, &obs);
        assert_eq!(minting.len(), 5);
        assert_eq!(dir.len(), 4, "w is part of the key");
        assert_eq!(minting.minted(), 4);
        assert_eq!(minting.term(4).0, minting.term(3).0);
        for (i, &(sent, bad, w)) in keys.iter().enumerate() {
            let (id, score) = minting.term(i);
            assert_eq!(id as usize, i, "dense, in mint order");
            assert_eq!(score.to_bits(), flow_score(&p, sent, bad).to_bits());
            let ladder = minting.minted_ladder(id).unwrap();
            assert_eq!(ladder.len(), w as usize + 1);
            for (b, v) in ladder.iter().enumerate() {
                assert_eq!(v.to_bits(), llf(score, w, b as u32).to_bits());
            }
        }
        // A later epoch over known keys: same ids, nothing minted.
        let mut later = EpochFlowTable::new();
        later.rebuild(&mut dir, &obs);
        assert_eq!((dir.len(), later.minted()), (4, 0));
        assert!(later.minted_ladder(0).is_none());

        // `early` meets every id in the minting epoch (copies), `late`
        // only afterwards (computes): same offsets, same bits.
        let mut early = TermTable::new();
        let mut late = TermTable::new();
        early.bind(&minting);
        late.bind(&later);
        for (i, &(_, _, w)) in keys.iter().enumerate() {
            let (id, score) = later.term(i);
            assert_eq!(minting.term(i).0, id);
            let oe = early.resolve(id, score, w, &minting);
            let ol = late.resolve(id, score, w, &later);
            assert_eq!(oe, ol);
        }
        assert_eq!(early.tables(), 4);
        assert_eq!(early.entries(), late.entries());
        for (a, b) in early.values().iter().zip(late.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Re-resolving is a pure hit.
        let (id, score) = later.term(1);
        let entries = early.entries();
        assert_eq!(early.resolve(id, score, 4, &later), 5);
        assert_eq!(early.entries(), entries);
    }

    /// Equal `(sent, bad)` over sets of equal width share one id even
    /// when the sets differ: the ladder depends on the set only through
    /// `w`.
    #[test]
    fn directory_keys_on_width_not_on_set() {
        let obs = obs_of(&[(50, 1, 3), (50, 1, 3), (50, 1, 2)]);
        assert_ne!(obs.flows[0].set, obs.flows[1].set);
        let mut dir = TermDirectory::new(&params());
        let mut table = EpochFlowTable::new();
        table.rebuild(&mut dir, &obs);
        assert_eq!(table.term(0).0, table.term(1).0);
        assert_ne!(table.term(0).0, table.term(2).0);
        assert_eq!(dir.len(), 2);
    }

    /// Term ids of two directories alias; a table resolves through one.
    #[test]
    #[should_panic(expected = "another term directory")]
    fn term_table_refuses_a_second_directory() {
        let obs = obs_of(&[(50, 1, 3)]);
        let mut terms = TermTable::new();
        for _ in 0..2 {
            let mut table = EpochFlowTable::new();
            table.rebuild(&mut TermDirectory::new(&params()), &obs);
            terms.bind(&table);
        }
    }

    #[test]
    fn score_is_linear_in_counts() {
        let p = params();
        let s1 = flow_score(&p, 100, 2);
        let s2 = flow_score(&p, 200, 4);
        assert!((2.0 * s1 - s2).abs() < 1e-9);
    }
}
