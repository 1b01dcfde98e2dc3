//! Inference input assembly (§6.2).
//!
//! Every localization scheme in the suite consumes the same structure, an
//! [`ObservationSet`]: a list of aggregated flow observations, each with a
//! number of packets sent, a number of "bad" packets, and a *path set* —
//! a single pinned path for known-path telemetry (A1 probes, A2 traced
//! flows, INT) or the full ECMP set for passive flows.
//!
//! Paths are split into a per-flow *prefix* (the host attachment links,
//! shared by every member of the flow's path set) and an interned *fabric
//! path set* (switch-to-switch). The split keeps memory linear in the
//! number of distinct ToR pairs rather than host pairs, which is what
//! makes the 9.5M-flow headline experiment feasible; the inference engine
//! exploits the same split to share path state across flows. An ECMP set
//! is interned as the [`Router`]'s own [`PathSetHandle`], not copied, so
//! each member path is stored once; every set's members share one hop
//! count. The arena numbers sets, not paths: a path is member `i` of the
//! one set that holds it.
//!
//! Observations that are fully identical — same prefix, same path set,
//! same `(sent, bad)` — are merged with a `weight` multiplier. The
//! per-flow likelihood of Eq. 1 depends only on these fields, so the merge
//! is exact. Active-probe inputs compress dramatically (most probes lose
//! zero packets).

use crate::flow::{MonitoredFlow, TrafficClass};
use flock_topology::{FxHashMap, LinkId, NodeRole, PathSet, PathSetHandle, Router, Topology};
use serde::Serialize;
use std::sync::Arc;

/// Content hash of a traced path's links, for the arena's singleton
/// index. A weak hash only costs an extra content compare on collision:
/// the index maps hashes to candidate-id lists and never trusts the hash
/// alone.
fn content_hash(links: &[LinkId]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = flock_topology::fasthash::FxHasher::default();
    links.hash(&mut h);
    h.finish()
}

/// Index of an interned fabric path *set* in a [`PathArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PathSetId(pub u32);

/// Entries per storage chunk of a [`Column`]. Appending to a column whose
/// tail chunk a live clone still shares copies at most this many entries
/// once; full chunks are never copied.
pub const CHUNK_ROWS: usize = 4096;

/// An append-only column whose storage is shared by `Arc` in chunks of
/// [`CHUNK_ROWS`] entries: cloning the column clones a few `Arc`s, and
/// appending to one clone never changes what another reads
/// (`Arc::make_mut` copies the tail chunk if it is still shared). The
/// [`ArenaSnapshot`] stores its sets in one, `flock-core`'s term
/// directory its likelihood ladders.
///
/// A run — one [`Column::push_run`] — never crosses a chunk boundary, so
/// [`Column::run`] reads it back as one slice: a run the tail chunk has no
/// room for starts the next chunk, and the rows it skips are never read.
/// A run longer than [`CHUNK_ROWS`] fills a chunk of its own, which
/// holds all of it but counts as one chunk's rows; it reads back from its
/// first row.
#[derive(Debug, Clone)]
pub struct Column<T> {
    chunks: Vec<Arc<Vec<T>>>,
    /// One past the last row appended, counting the skipped rows.
    len: usize,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> Column<T> {
    /// Append one row.
    pub fn push(&mut self, value: T) {
        self.push_run(std::iter::once(value));
    }

    /// Append `values` as one run and return its first row.
    pub fn push_run(&mut self, values: impl ExactSizeIterator<Item = T>) -> usize {
        let n = values.len();
        if !matches!(self.chunks.last(), Some(tail) if tail.len() + n <= CHUNK_ROWS) {
            self.len = self.chunks.len() * CHUNK_ROWS;
            self.chunks
                .push(Arc::new(Vec::with_capacity(n.max(CHUNK_ROWS))));
        }
        let start = self.len;
        Arc::make_mut(self.chunks.last_mut().expect("tail chunk pushed above")).extend(values);
        self.len += n;
        start
    }

    /// The row `row`.
    #[inline]
    pub fn get(&self, row: usize) -> &T {
        &self.run(row, 1)[0]
    }

    /// The `n` rows from `start` on, which one [`Column::push_run`]
    /// appended (or a part of them; of a run longer than [`CHUNK_ROWS`],
    /// a part from its first row).
    #[inline]
    pub fn run(&self, start: usize, n: usize) -> &[T] {
        &self.chunks[start / CHUNK_ROWS][start % CHUNK_ROWS..][..n]
    }
}

/// The read side of a [`PathArena`]: interned sets by id, without the
/// singleton index only the writer needs. Cheap to clone (storage is
/// shared in chunks) and frozen: whatever the arena it was taken from
/// interns later, a snapshot keeps reading exactly the sets it was taken
/// with. This is what an [`ObservationSet`] carries, so an in-flight
/// epoch reads its snapshot while the assembler extends the one arena.
#[derive(Debug, Clone)]
pub struct ArenaSnapshot {
    /// Per set, its member paths.
    sets: Column<PathSetHandle>,
    /// Member paths over all sets.
    paths: u32,
    /// Process-unique token of the arena this content belongs to. Ids are
    /// append-only per lineage, so two snapshots of one lineage agree on
    /// every id both contain. Lets holders of interned ids (an engine's
    /// set layer) verify a snapshot is of the arena they interned against.
    lineage: u64,
}

impl ArenaSnapshot {
    /// The process-unique lineage token of the arena this is a state of.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The member paths of an interned set, which no other set shares;
    /// none for an unroutable pair's set. An ECMP set's is the
    /// [`Router`]'s own handle.
    #[inline]
    pub fn members(&self, id: PathSetId) -> &PathSetHandle {
        self.sets.get(id.0 as usize)
    }

    /// Number of interned paths: the member paths of every set.
    pub fn path_count(&self) -> usize {
        self.paths as usize
    }

    /// Number of interned sets.
    pub fn set_count(&self) -> usize {
        self.sets.len
    }
}

/// Interning arena for fabric path sets: the one writer of a lineage.
/// Reads go through [`ArenaSnapshot`] (which the arena derefs to);
/// [`PathArena::snapshot`] hands the current content to readers.
///
/// A set is a [`PathSetHandle`], stored, not copied: an ECMP set is the
/// [`Router`]'s own, appended once per ToR pair (the [`Assembler`]'s
/// per-pair cache is its dedup), so each member path exists once in the
/// process. A traced path is a one-member set, deduplicated by content
/// across epochs through the one index the arena keeps. That index
/// hashes *over the stored content* — it maps a content hash to the
/// candidate sets whose member must be compared — so interning keeps
/// exactly one copy of every traced link sequence; a
/// `HashMap<Vec<_>, id>` would clone each sequence into its key.
#[derive(Debug)]
pub struct PathArena {
    content: ArenaSnapshot,
    /// Content hash of a singleton set's path → the singleton sets with
    /// that hash.
    singletons: FxHashMap<u64, Vec<PathSetId>>,
}

impl Default for PathArena {
    fn default() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);
        PathArena {
            content: ArenaSnapshot {
                sets: Column::default(),
                paths: 0,
                lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            },
            singletons: FxHashMap::default(),
        }
    }
}

impl std::ops::Deref for PathArena {
    type Target = ArenaSnapshot;

    fn deref(&self) -> &ArenaSnapshot {
        &self.content
    }
}

impl From<PathArena> for ArenaSnapshot {
    fn from(arena: PathArena) -> ArenaSnapshot {
        arena.content
    }
}

impl PathArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arena's current content, unaffected by anything interned
    /// afterwards.
    pub fn snapshot(&self) -> ArenaSnapshot {
        self.content.clone()
    }

    /// Append `set` as a new set. Nothing is looked up or copied: two
    /// calls with equal sets make two sets.
    pub fn intern_set(&mut self, set: impl Into<PathSetHandle>) -> PathSetId {
        let set = set.into();
        let content = &mut self.content;
        let id = PathSetId(u32::try_from(content.sets.len).expect("arena exceeds u32 sets"));
        content.paths = u32::try_from(set.len())
            .ok()
            .and_then(|n| content.paths.checked_add(n))
            .expect("arena exceeds u32 paths");
        content.sets.push(set);
        id
    }

    /// The singleton set of a known path: appended on the path's first
    /// sight, found by content after that.
    pub fn intern_single(&mut self, links: &[LinkId]) -> PathSetId {
        let h = content_hash(links);
        let content = &self.content;
        if let Some(&id) = self
            .singletons
            .get(&h)
            .and_then(|cands| cands.iter().find(|&&id| &content.members(id)[0] == links))
        {
            return id;
        }
        let id = self.intern_set(PathSet::from_paths([links]));
        self.singletons.entry(h).or_default().push(id);
        id
    }
}

/// How flow metrics are turned into the model's `(sent, bad)` counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AnalysisMode {
    /// Per-packet analysis (§3.2): `sent` = packets, `bad` =
    /// retransmissions (proxy for lost/corrupted packets).
    PerPacket,
    /// Per-flow analysis (§3.2, used for latency faults like link flaps,
    /// §7.5): `sent` = 1, `bad` = 1 iff the flow's max RTT exceeds the
    /// threshold.
    PerFlow {
        /// RTT threshold in microseconds above which the flow is "bad".
        rtt_threshold_us: u32,
    },
}

/// One aggregated observation handed to inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FlowObs {
    /// Host attachment links traversed by *every* possible path of this
    /// flow (source uplink and/or destination downlink); `None` for
    /// switch-terminated traffic.
    pub prefix: [Option<LinkId>; 2],
    /// The fabric path set (singleton when the path is known).
    pub set: PathSetId,
    /// Packets sent (or 1 in per-flow mode).
    pub sent: u64,
    /// Bad packets (or 0/1 in per-flow mode).
    pub bad: u64,
    /// Number of identical underlying flows merged into this observation.
    pub weight: u32,
}

impl FlowObs {
    /// Whether the exact path of this observation is known.
    pub fn path_known(&self, arena: &ArenaSnapshot) -> bool {
        arena.members(self.set).len() == 1
    }

    /// The observation's *evidence key*: everything the flow likelihood
    /// (Eq. 1) depends on besides the per-prefix extras. Observations
    /// sharing this key coalesce exactly into one weighted super-flow;
    /// the assembler sorts by it, [`ObservationSet::coalesced_count`]
    /// counts runs of it, and the inference engine collapses on it —
    /// one definition keeps the three in lockstep.
    #[inline]
    pub fn evidence_key(&self) -> (u32, u64, u64) {
        (self.set.0, self.sent, self.bad)
    }
}

/// The input to every inference scheme: interned paths plus aggregated
/// flow observations.
#[derive(Debug, Clone)]
pub struct ObservationSet {
    /// The interned paths and sets the observations refer to.
    pub arena: ArenaSnapshot,
    /// Aggregated observations, sorted by [`FlowObs::evidence_key`] and
    /// prefix. An inference engine requires them in nondecreasing set id
    /// (`flock_core::Engine::try_bind` panics otherwise).
    pub flows: Vec<FlowObs>,
    /// The analysis mode the observations were assembled under.
    pub mode: AnalysisMode,
}

impl ObservationSet {
    /// Total underlying flows (sum of weights).
    pub fn flow_count(&self) -> u64 {
        self.flows.iter().map(|f| u64::from(f.weight)).sum()
    }

    /// Number of distinct `(set, sent, bad)` evidence keys, counted over
    /// adjacent runs — the super-flow count an engine coalesces to
    /// (observations are emitted sorted by exactly that key). The ratio
    /// `flows.len() / coalesced_count()` is the epoch's coalesce factor.
    pub fn coalesced_count(&self) -> usize {
        let mut n = 0;
        let mut last: Option<(u32, u64, u64)> = None;
        for o in &self.flows {
            let key = o.evidence_key();
            if last != Some(key) {
                n += 1;
                last = Some(key);
            }
        }
        n
    }

    /// Iterate the full link sequence (prefix + fabric) of member
    /// `member` of an observation's path set.
    pub fn full_path_links<'a>(
        &'a self,
        obs: &'a FlowObs,
        member: usize,
    ) -> impl Iterator<Item = LinkId> + 'a {
        obs.prefix
            .iter()
            .take(1)
            .filter_map(|l| *l)
            .chain(self.arena.members(obs.set)[member].iter().copied())
            .chain(obs.prefix.iter().skip(1).filter_map(|l| *l))
    }
}

/// Telemetry kinds per §6.2. Combinations are expressed as slices, e.g.
/// `&[InputKind::A1, InputKind::P]` for "A1+P".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InputKind {
    /// Active host↔spine probes with known paths (NetBouncer-style).
    A1,
    /// Flagged flows (≥1 bad packet) with traced paths (007-style).
    A2,
    /// Passive flow reports with ECMP path *sets* (NetFlow/IPFIX-style).
    P,
    /// INT: paths known for all reported traffic (probes and passive).
    Int,
}

/// Assemble an [`ObservationSet`] from monitored flows under the given
/// telemetry kinds and analysis mode.
///
/// Selection rules (§6.2):
/// * probes are included under A1 or INT, always with their known path;
/// * passive flows are included with known paths under INT;
/// * under A2, passive flows with at least one bad packet are included
///   with known (traced) paths;
/// * under P, remaining passive flows are included with their ECMP path
///   set (resolved through `router`).
pub fn assemble(
    topo: &Topology,
    router: &Router<'_>,
    flows: &[MonitoredFlow],
    kinds: &[InputKind],
    mode: AnalysisMode,
) -> ObservationSet {
    Assembler::new().assemble(topo, router, flows, kinds, mode)
}

/// Reusable input assembler with a *persistent* path arena.
///
/// The one-shot [`assemble`] builds a fresh [`PathArena`] per call. The
/// online pipeline instead assembles one [`ObservationSet`] per epoch over
/// the **same** arena: interning is append-only, so a [`PathSetId`]
/// handed out in epoch `k` denotes the identical content in every later
/// epoch. That stability is what lets a warm inference engine
/// keep its per-path/per-set structures across epochs instead of
/// rebuilding them (see `flock_core::Engine::rebind`). The ECMP set cache
/// persists for the same reason — per ToR pair, the [`Router`]'s path set
/// handle is appended to the arena exactly once, ever. An unroutable pair
/// gets its own empty set. Each distinct traced path is one singleton
/// set, so no path belongs to two sets.
///
/// The assembler never gives its arena away: each returned set carries an
/// [`ArenaSnapshot`], so any number of earlier sets may still be in use
/// (an in-flight epoch's shard engines) while the next one is assembled.
#[derive(Debug, Default)]
pub struct Assembler {
    arena: PathArena,
    ecmp_cache: FxHashMap<(flock_topology::NodeId, flock_topology::NodeId), PathSetId>,
    /// The next epoch's output buffer: a finished set's observation
    /// vector, handed back through [`Assembler::recycle`].
    out: Vec<FlowObs>,
    /// Scratch for the counting scatter in [`Assembler::assemble`], then
    /// the radix buffer of each long set run; reused across epochs so
    /// steady-state assembly allocates nothing.
    sort_scratch: Vec<FlowObs>,
    set_cursors: Vec<u32>,
}

impl Assembler {
    /// An assembler with an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand back a set inference is done with: its observation vector
    /// becomes the next [`Assembler::assemble`] call's output buffer.
    /// Optional — an assembler that is never handed a set back allocates
    /// a fresh vector per epoch.
    pub fn recycle(&mut self, obs: ObservationSet) {
        self.out = obs.flows;
    }

    /// Assemble one observation set against the persistent arena. See
    /// [`assemble`] for the §6.2 selection rules.
    pub fn assemble(
        &mut self,
        topo: &Topology,
        router: &Router<'_>,
        flows: &[MonitoredFlow],
        kinds: &[InputKind],
        mode: AnalysisMode,
    ) -> ObservationSet {
        let has = |k: InputKind| kinds.contains(&k);
        let arena = &mut self.arena;
        let ecmp_cache = &mut self.ecmp_cache;
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        out.reserve(flows.len());

        for mf in flows {
            let (sent, bad) = metrics(mf, mode);
            if sent == 0 {
                continue;
            }
            let obs = match mf.class {
                TrafficClass::Probe => {
                    // A probe whose path is unknown (an empty `true_path`:
                    // a wire record that carried no attachment) carries
                    // no localizable evidence.
                    if !(has(InputKind::A1) || has(InputKind::Int)) || mf.true_path.is_empty() {
                        continue;
                    }
                    known_path_obs(topo, arena, &mf.true_path, sent, bad)
                }
                TrafficClass::Passive => {
                    // "Known path" requires an actual recorded path: a
                    // record that carried no path attachment has an
                    // empty `true_path` and must fall back to the ECMP
                    // path set (or be dropped), not be modeled as a
                    // zero-component pinned path.
                    let known = (has(InputKind::Int) || (has(InputKind::A2) && bad > 0))
                        && !mf.true_path.is_empty();
                    if known {
                        known_path_obs(topo, arena, &mf.true_path, sent, bad)
                    } else if has(InputKind::P) {
                        let src_leaf = topo.host_leaf(mf.key.src);
                        let dst_leaf = topo.host_leaf(mf.key.dst);
                        let set = *ecmp_cache
                            .entry((src_leaf, dst_leaf))
                            .or_insert_with(|| arena.intern_set(router.paths(src_leaf, dst_leaf)));
                        FlowObs {
                            prefix: [
                                Some(topo.host_uplink(mf.key.src)),
                                Some(topo.host_downlink(mf.key.dst)),
                            ],
                            set,
                            sent,
                            bad,
                            weight: 1,
                        }
                    } else {
                        continue;
                    }
                }
            };
            out.push(obs);
        }

        // Deterministic order keyed so observations sharing the
        // `(set, sent, bad)` evidence key are adjacent: downstream
        // consumers (the inference engine) coalesce contiguous runs into
        // weighted super-flows. The `(evidence_key, prefix)` sort key
        // covers every `FlowObs` field except `weight` (all 1 here), so
        // equal-key neighbors are *identical* observations — the
        // run-merge below is the exact weighted merge a hash-keyed
        // aggregation would produce, without a per-flow hash insert on
        // the assembly stage.
        //
        // The sort key's leading component is the *dense* arena set id,
        // so instead of one comparison sort over all observations we
        // counting-scatter by set (O(n + sets)) and sort only the
        // `(sent, bad, prefix)` tail within each set's run. A run is as
        // long as its ToR pair is busy: a few entries on most fabrics,
        // hundreds where a few racks carry every flow. Short runs take a
        // comparison sort, longer ones a stable byte-wise LSD radix
        // (`sort_run_tail`): the same total order, and neither allocates.
        let sets = arena.set_count();
        self.set_cursors.clear();
        self.set_cursors.resize(sets + 1, 0);
        for o in &out {
            self.set_cursors[o.set.0 as usize + 1] += 1;
        }
        for i in 0..sets {
            self.set_cursors[i + 1] += self.set_cursors[i];
        }
        self.sort_scratch.clear();
        self.sort_scratch.extend_from_slice(&out);
        for &o in &self.sort_scratch {
            let cursor = &mut self.set_cursors[o.set.0 as usize];
            out[*cursor as usize] = o;
            *cursor += 1;
        }
        // After scattering, `set_cursors[s]` is the *end* of set `s`'s run.
        // The copy in `sort_scratch` is spent, so each run's span of it is
        // that run's radix buffer.
        let mut start = 0usize;
        for i in 0..sets {
            let end = self.set_cursors[i] as usize;
            if end - start > 1 {
                sort_run_tail(&mut out[start..end], &mut self.sort_scratch[start..end]);
            }
            start = end;
        }
        debug_assert!(out.is_sorted_by_key(|o| (o.set.0, o.sent, o.bad, o.prefix)));
        out.dedup_by(|dup, keep| {
            if dup.set == keep.set
                && dup.sent == keep.sent
                && dup.bad == keep.bad
                && dup.prefix == keep.prefix
            {
                keep.weight += dup.weight;
                true
            } else {
                false
            }
        });
        ObservationSet {
            arena: self.arena.snapshot(),
            flows: out,
            mode,
        }
    }
}

/// Longest set run [`sort_run_tail`] still sorts by comparison.
///
/// Every radix pass pays a 256-bucket prefix sum whatever the run's
/// length, so short runs are cheaper to compare. Timing both sorts on
/// every run of the `ingest_flood` benchmark workload (seed 1, 2-vCPU
/// Xeon) puts the crossover between 55 and 71 entries: runs of 48–63
/// entries (mean 55) took 2.7 µs by comparison and 3.0 µs by radix, runs
/// of 64–95 (mean 71) 3.9 and 3.5 µs, and runs of 512 or more (mean 772)
/// 68 and 23 µs.
const COMPARISON_MAX_RUN: usize = 64;

/// Sort one set's run by its `(sent, bad, prefix)` tail. Runs longer than
/// [`COMPARISON_MAX_RUN`] take a stable LSD radix on byte digits, least
/// significant field first (`prefix[1]`, `prefix[0]`, `bad`, `sent`),
/// skipping every byte the whole run shares. `buf` is scratch of the
/// run's length; its contents are overwritten.
fn sort_run_tail(run: &mut [FlowObs], buf: &mut [FlowObs]) {
    if run.len() <= COMPARISON_MAX_RUN {
        run.sort_unstable_by_key(|o| (o.sent, o.bad, o.prefix));
        return;
    }
    // `None` ranks below every link, as it does in `Option`'s `Ord`.
    let rank = |l: Option<LinkId>| l.map_or(0, |l| u64::from(l.0) + 1);
    // The bits in which some observation differs from the first, per field.
    let first = run[0];
    let mut varies = [0u64; 4];
    for o in run.iter() {
        varies[0] |= rank(o.prefix[1]) ^ rank(first.prefix[1]);
        varies[1] |= rank(o.prefix[0]) ^ rank(first.prefix[0]);
        varies[2] |= o.bad ^ first.bad;
        varies[3] |= o.sent ^ first.sent;
    }
    let mut in_buf = false;
    for (field, varies) in varies.into_iter().enumerate() {
        for shift in (0..64).step_by(8).filter(|s| (varies >> s) & 0xff != 0) {
            let (src, dst) = if in_buf {
                (&*buf, &mut *run)
            } else {
                (&*run, &mut *buf)
            };
            match field {
                0 => radix_pass(src, dst, shift, |o| rank(o.prefix[1])),
                1 => radix_pass(src, dst, shift, |o| rank(o.prefix[0])),
                2 => radix_pass(src, dst, shift, |o| o.bad),
                _ => radix_pass(src, dst, shift, |o| o.sent),
            }
            in_buf = !in_buf;
        }
    }
    if in_buf {
        run.copy_from_slice(buf);
    }
}

/// One stable counting pass: `src` into `dst`, ordered by the byte of
/// `key` at bit offset `shift`.
fn radix_pass(src: &[FlowObs], dst: &mut [FlowObs], shift: u32, key: impl Fn(&FlowObs) -> u64) {
    let digit = |o: &FlowObs| (key(o) >> shift) as u8 as usize;
    let mut next = [0u32; 256];
    for o in src {
        next[digit(o)] += 1;
    }
    let mut sum = 0;
    for slot in &mut next {
        sum += std::mem::replace(slot, sum);
    }
    for o in src {
        let slot = &mut next[digit(o)];
        dst[*slot as usize] = *o;
        *slot += 1;
    }
}

fn metrics(mf: &MonitoredFlow, mode: AnalysisMode) -> (u64, u64) {
    match mode {
        AnalysisMode::PerPacket => (
            mf.stats.packets,
            mf.stats.retransmissions.min(mf.stats.packets),
        ),
        AnalysisMode::PerFlow { rtt_threshold_us } => {
            (1, u64::from(mf.stats.rtt_max_us > rtt_threshold_us))
        }
    }
}

/// Build a known-path observation, splitting host attachment links off
/// into the prefix.
fn known_path_obs(
    topo: &Topology,
    arena: &mut PathArena,
    true_path: &[LinkId],
    sent: u64,
    bad: u64,
) -> FlowObs {
    let mut start = 0;
    let mut end = true_path.len();
    let mut prefix = [None, None];
    if end > start {
        let first = true_path[start];
        if topo.node(topo.link(first).src).role == NodeRole::Host {
            prefix[0] = Some(first);
            start += 1;
        }
    }
    if end > start {
        let last = true_path[end - 1];
        if topo.node(topo.link(last).dst).role == NodeRole::Host {
            prefix[1] = Some(last);
            end -= 1;
        }
    }
    let set = arena.intern_single(&true_path[start..end]);
    FlowObs {
        prefix,
        set,
        sent,
        bad,
        weight: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowKey, FlowStats};
    use flock_topology::clos::{three_tier, ClosParams};
    use flock_topology::NodeId;
    use proptest::prelude::*;

    fn mk_passive(
        topo: &Topology,
        router: &Router<'_>,
        src: NodeId,
        dst: NodeId,
        packets: u64,
        retrans: u64,
    ) -> MonitoredFlow {
        // True path: first ECMP option.
        let paths = router.paths(topo.host_leaf(src), topo.host_leaf(dst));
        let mut path = vec![topo.host_uplink(src)];
        path.extend_from_slice(&paths[0]);
        path.push(topo.host_downlink(dst));
        MonitoredFlow {
            key: FlowKey::tcp(src, dst, 4000, 80),
            stats: FlowStats {
                packets,
                retransmissions: retrans,
                bytes: packets * 1500,
                rtt_sum_us: 100,
                rtt_count: 1,
                rtt_max_us: 100,
            },
            class: TrafficClass::Passive,
            true_path: path,
        }
    }

    #[test]
    fn arena_interns_and_dedups() {
        let mut a = PathArena::new();
        let (p12, p34) = ([LinkId(1), LinkId(2)], [LinkId(3), LinkId(4)]);
        let s1 = a.intern_set(PathSet::from_paths([p12, p34]));
        let s2 = a.intern_set(PathSet::from_paths(vec![p12.to_vec(), p34.to_vec()]));
        assert_ne!(
            s1, s2,
            "a set is appended, not looked up: equal content, two sets"
        );
        assert!(!Arc::ptr_eq(a.members(s1), a.members(s2)));
        for s in [s1, s2] {
            let members: Vec<&[LinkId]> = a.members(s).iter().collect();
            assert_eq!(members, [&p12[..], &p34], "members keep their order");
        }
        // A known path dedups by content; an ECMP set holding it is no match.
        let single = a.intern_single(&p34);
        assert_eq!(a.members(single).len(), 1);
        assert_eq!(a.intern_single(&p34), single);
        let empty = a.intern_set(PathSet::default());
        assert!(a.members(empty).is_empty());
        assert_eq!((a.path_count(), a.set_count()), (5, 4));
    }

    #[test]
    #[should_panic(expected = "hops")]
    fn a_set_of_mixed_hop_counts_panics() {
        PathSet::from_paths([&[LinkId(1), LinkId(2)][..], &[LinkId(3)]]);
    }

    #[test]
    fn singleton_sets_are_memoized_per_path() {
        let mut a = PathArena::new();
        let other = a.intern_single(&[LinkId(9)]);
        let first = a.intern_single(&[LinkId(1), LinkId(2)]);
        let again = a.intern_single(&[LinkId(1), LinkId(2)]);
        assert_eq!(first, again);
        assert_ne!(first, other);
        assert_eq!((a.path_count(), a.set_count()), (2, 2));
        assert_eq!(&a.members(first)[0], &[LinkId(1), LinkId(2)]);
        // A same-ToR traced flow has an empty fabric path, deduplicated too.
        let local = a.intern_single(&[]);
        assert_eq!(a.intern_single(&[]), local);
        assert_eq!(a.members(local).len(), 1);
        assert_eq!((a.path_count(), a.set_count()), (3, 3));
    }

    #[test]
    fn traced_paths_dedup_across_epochs() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let mut asm = Assembler::new();
        let kinds = [InputKind::A2, InputKind::P];
        let flagged = |n| mk_passive(&topo, &router, hosts[0], hosts[11], n, 1);
        let obs1 = asm.assemble(
            &topo,
            &router,
            &[flagged(50)],
            &kinds,
            AnalysisMode::PerPacket,
        );
        let set = obs1.flows[0].set;
        assert!(obs1.flows[0].path_known(&obs1.arena));
        // The traced path is a one-row set of its fabric links.
        let traced = obs1.arena.members(set);
        assert_eq!(traced.len(), 1);
        assert_eq!(&traced[0], &flagged(50).true_path[1..traced.hops() + 1]);
        // Epoch 2 meets the same traced path, plus a passive flow of the
        // same ToR pair whose ECMP set holds it too.
        let mut clean = flagged(70);
        clean.stats.retransmissions = 0;
        let obs2 = asm.assemble(
            &topo,
            &router,
            &[flagged(70), clean],
            &kinds,
            AnalysisMode::PerPacket,
        );
        let sets: Vec<PathSetId> = obs2.flows.iter().map(|o| o.set).collect();
        assert!(sets.contains(&set), "the traced path keeps its set id");
        assert!(
            Arc::ptr_eq(obs2.arena.members(set), traced),
            "found by content, not appended again"
        );
        let ecmp = sets.into_iter().find(|&s| s != set).unwrap();
        let ecmp_members = obs2.arena.members(ecmp);
        assert!(ecmp_members.iter().any(|p| p == &traced[0]));
        assert!(!Arc::ptr_eq(ecmp_members, traced));
        assert_eq!(
            obs2.arena.path_count(),
            1 + 4,
            "one traced path, one ECMP set"
        );
    }

    #[test]
    fn arena_interning_survives_hash_bucketing_at_scale() {
        // Many distinct single-link paths: every id must resolve to its
        // own content, and re-interning must dedup (the hashed-over-storage
        // index has no key copies to fall back on).
        let mut a = PathArena::new();
        let ids: Vec<PathSetId> = (0..500).map(|i| a.intern_single(&[LinkId(i)])).collect();
        for (i, &id) in (0u32..).zip(&ids) {
            assert_eq!(a.members(id).len(), 1);
            assert_eq!(&a.members(id)[0], &[LinkId(i)]);
            assert_eq!(a.intern_single(&[LinkId(i)]), id);
        }
        assert_eq!(a.path_count(), 500);
        let pairs: Vec<PathSetId> = (0..250)
            .map(|i| a.intern_set(PathSet::from_paths([[LinkId(2 * i)], [LinkId(2 * i + 1)]])))
            .collect();
        for (i, &sid) in (0u32..).zip(&pairs) {
            assert_eq!(a.members(sid).len(), 2);
            assert_eq!(&a.members(sid)[1], &[LinkId(2 * i + 1)]);
        }
        assert_eq!((a.path_count(), a.set_count()), (1000, 750));
        assert_eq!(
            a.intern_single(&[LinkId(7)]),
            ids[7],
            "ECMP copies are not indexed"
        );
    }

    #[test]
    fn a_snapshot_is_unaffected_by_later_interning() {
        // Set `j` owns `j % 3` paths (every third is an unroutable pair's
        // empty set, every width-1 set a traced singleton), and the
        // arena's `i`-th path is `[i, i + 1]`; the set column crosses
        // chunk boundaries.
        let links = |i: u32| [LinkId(i), LinkId(i + 1)];
        let first_path = |j: u32| (0..j).map(|k| k % 3).sum::<u32>();
        let grow = |a: &mut PathArena, upto: usize| {
            for j in a.set_count() as u32..upto as u32 {
                let at = a.path_count() as u32;
                let id = match j % 3 {
                    1 => a.intern_single(&links(at)),
                    w => a.intern_set(PathSet::from_paths((at..at + w).map(links))),
                };
                assert_eq!(id, PathSetId(j));
            }
        };
        let check = |s: &ArenaSnapshot, sets: usize| {
            assert_eq!(s.set_count(), sets);
            assert_eq!(s.path_count(), first_path(sets as u32) as usize);
            let widths = (0..sets as u32).map(|j| s.members(PathSetId(j)).len());
            assert_eq!(s.path_count(), widths.sum(), "the sum of set widths");
            for j in 0..sets as u32 {
                let members = s.members(PathSetId(j));
                assert_eq!(members.len(), (j % 3) as usize, "set {j} of {sets}");
                for (i, path) in (first_path(j)..).zip(members.iter()) {
                    assert_eq!(path, &links(i), "path {i}");
                }
            }
        };
        // Only the tail chunk of a column can differ between a snapshot
        // and the arena it was taken from: full chunks are never copied.
        // Every set, in a copied tail chunk or not, is the arena's own.
        let shares_full_chunks = |s: &ArenaSnapshot, a: &PathArena| {
            let full = |n: usize| n.saturating_sub(1);
            let sets = full(s.sets.chunks.len());
            s.sets.chunks[..sets]
                .iter()
                .zip(&a.sets.chunks)
                .all(|(x, y)| Arc::ptr_eq(x, y))
                && (0..s.set_count() as u32)
                    .all(|j| Arc::ptr_eq(s.members(PathSetId(j)), a.members(PathSetId(j))))
        };

        let mut a = PathArena::new();
        let mut snaps = Vec::new();
        // One set short of a chunk boundary (the snapshot shares a tail
        // chunk the arena then fills and leaves), exactly on one, mid-
        // chunk, and after two more boundaries.
        for fill in [
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 17,
            3 * CHUNK_ROWS + 5,
        ] {
            grow(&mut a, fill);
            snaps.push((a.snapshot(), fill));
            // Every earlier snapshot still reads exactly what it was
            // taken with, whatever the arena interned since.
            for (s, sets) in &snaps {
                check(s, *sets);
                assert_eq!(s.lineage(), a.lineage());
                assert!(shares_full_chunks(s, &a));
            }
            check(&a, fill);
        }
        // The first snapshot's tail chunk was copied once, when the arena
        // filled it; the arena's copy is full.
        let (first, _) = &snaps[0];
        assert!(!Arc::ptr_eq(&first.sets.chunks[0], &a.sets.chunks[0]));
        assert_eq!(a.sets.chunks[0].len(), CHUNK_ROWS);
        // A set appended later lands in the arena only.
        let wide = a.intern_set(PathSet::from_paths([links(0), links(1)]));
        let (last, sets) = snaps.last().unwrap();
        assert_eq!(last.set_count() + 1, a.set_count());
        assert_eq!(a.members(wide).len(), 2);
        check(last, *sets);
        // Dedup still sees every singleton, including those in chunks
        // that were copied away from a snapshot.
        assert_eq!(a.intern_single(&links(0)), PathSetId(1));
        assert_eq!(a.set_count(), 3 * CHUNK_ROWS + 6);
    }

    /// Every ToR pair a passive epoch touches is interned as the
    /// `Router`'s own path set, once: the arena copies no member.
    #[test]
    fn ecmp_sets_are_the_routers_path_sets() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let flows: Vec<MonitoredFlow> = hosts
            .iter()
            .flat_map(|&src| hosts.iter().map(move |&dst| (src, dst)))
            .filter(|(src, dst)| src != dst)
            .map(|(src, dst)| mk_passive(&topo, &router, src, dst, 10, 0))
            .collect();
        let mut asm = Assembler::new();
        let obs = asm.assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        let mut pairs = std::collections::BTreeSet::new();
        for o in &obs.flows {
            let src = topo.host_leaf(topo.link(o.prefix[0].unwrap()).src);
            let dst = topo.host_leaf(topo.link(o.prefix[1].unwrap()).dst);
            let set = router.paths(src, dst);
            assert!(Arc::ptr_eq(obs.arena.members(o.set), &set));
            pairs.insert((src, dst));
        }
        assert_eq!(obs.arena.set_count(), pairs.len(), "one set per ToR pair");
        let members: usize = pairs.iter().map(|&(s, d)| router.paths(s, d).len()).sum();
        assert_eq!(obs.arena.path_count(), members);
        assert!(pairs.iter().any(|(s, d)| s == d), "a same-ToR pair too");
    }

    #[test]
    fn passive_only_uses_path_sets() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        // Cross-pod flow: should carry the full ECMP set.
        let f = mk_passive(&topo, &router, hosts[0], hosts[11], 100, 1);
        let obs = assemble(
            &topo,
            &router,
            &[f],
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs.flows.len(), 1);
        let o = &obs.flows[0];
        assert!(!o.path_known(&obs.arena));
        assert_eq!(
            obs.arena.members(o.set).len(),
            4,
            "tiny Clos inter-pod ECMP width is aggs*spines = 4"
        );
        assert!(o.prefix[0].is_some() && o.prefix[1].is_some());
    }

    #[test]
    fn int_reveals_paths() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let f = mk_passive(&topo, &router, hosts[0], hosts[11], 100, 0);
        let obs = assemble(
            &topo,
            &router,
            &[f],
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs.flows.len(), 1);
        assert!(obs.flows[0].path_known(&obs.arena));
    }

    #[test]
    fn a2_reveals_only_flagged_flows() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let clean = mk_passive(&topo, &router, hosts[0], hosts[11], 100, 0);
        let flagged = mk_passive(&topo, &router, hosts[1], hosts[10], 100, 3);
        let obs = assemble(
            &topo,
            &router,
            &[clean.clone(), flagged.clone()],
            &[InputKind::A2],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs.flows.len(), 1, "only the flagged flow is included");
        assert!(obs.flows[0].path_known(&obs.arena));
        assert_eq!(obs.flows[0].bad, 3);

        // A2+P: flagged flow known, clean flow as a path set.
        let obs2 = assemble(
            &topo,
            &router,
            &[clean, flagged],
            &[InputKind::A2, InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs2.flows.len(), 2);
        let known: Vec<bool> = obs2
            .flows
            .iter()
            .map(|o| o.path_known(&obs2.arena))
            .collect();
        assert_eq!(known.iter().filter(|k| **k).count(), 1);
    }

    #[test]
    fn identical_observations_merge_with_weight() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        // Two identical flows (same endpoints, same metrics).
        let f1 = mk_passive(&topo, &router, hosts[0], hosts[11], 50, 0);
        let f2 = mk_passive(&topo, &router, hosts[0], hosts[11], 50, 0);
        let obs = assemble(
            &topo,
            &router,
            &[f1, f2],
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs.flows.len(), 1);
        assert_eq!(obs.flows[0].weight, 2);
        assert_eq!(obs.flow_count(), 2);
    }

    #[test]
    fn observations_sort_by_evidence_key_and_count_coalesced_runs() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        // Four flows over the same ToR pair: three share the (sent, bad)
        // evidence key across two distinct host pairs, one differs.
        let flows = vec![
            mk_passive(&topo, &router, hosts[0], hosts[11], 50, 0),
            mk_passive(&topo, &router, hosts[1], hosts[10], 50, 0),
            mk_passive(&topo, &router, hosts[0], hosts[10], 50, 0),
            mk_passive(&topo, &router, hosts[1], hosts[11], 70, 1),
        ];
        let obs = assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs.flows.len(), 4, "distinct prefixes stay distinct");
        // Same-key observations are adjacent…
        assert!(obs
            .flows
            .windows(2)
            .all(|w| (w[0].set.0, w[0].sent, w[0].bad) <= (w[1].set.0, w[1].sent, w[1].bad)));
        // …and collapse to two evidence keys.
        assert_eq!(obs.coalesced_count(), 2);
    }

    #[test]
    fn per_flow_mode_thresholds_rtt() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let mut f = mk_passive(&topo, &router, hosts[0], hosts[11], 100, 0);
        f.stats.rtt_max_us = 20_000;
        let obs = assemble(
            &topo,
            &router,
            &[f],
            &[InputKind::P],
            AnalysisMode::PerFlow {
                rtt_threshold_us: 10_000,
            },
        );
        assert_eq!(obs.flows[0].sent, 1);
        assert_eq!(obs.flows[0].bad, 1);
    }

    #[test]
    fn probes_excluded_without_a1() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let probe = MonitoredFlow {
            key: FlowKey::probe(topo.hosts()[0], topo.switches()[0], 1),
            stats: FlowStats {
                packets: 40,
                ..Default::default()
            },
            class: TrafficClass::Probe,
            true_path: vec![topo.host_uplink(topo.hosts()[0])],
        };
        let obs = assemble(
            &topo,
            &router,
            std::slice::from_ref(&probe),
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert!(obs.flows.is_empty());
        let obs2 = assemble(
            &topo,
            &router,
            &[probe],
            &[InputKind::A1],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs2.flows.len(), 1);
    }

    #[test]
    fn assembler_arena_is_stable_across_epochs() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let mut asm = Assembler::new();

        // Epoch 1: one passive flow.
        let f1 = mk_passive(&topo, &router, hosts[0], hosts[11], 50, 0);
        let obs1 = asm.assemble(
            &topo,
            &router,
            &[f1],
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        let set1 = obs1.flows[0].set;
        let paths1: Vec<Vec<LinkId>> = obs1.arena.members(set1).iter().map(<[_]>::to_vec).collect();
        let count1 = obs1.arena.path_count();
        asm.recycle(obs1);

        // Epoch 2: the same ToR pair plus a new (intra-pod) pair.
        let f2 = mk_passive(&topo, &router, hosts[0], hosts[11], 70, 1);
        let f3 = mk_passive(&topo, &router, hosts[1], hosts[4], 30, 0);
        let obs2 = asm.assemble(
            &topo,
            &router,
            &[f2, f3],
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        // The repeated pair reuses the interned set id and path contents.
        let same: Vec<&FlowObs> = obs2.flows.iter().filter(|o| o.set == set1).collect();
        assert_eq!(same.len(), 1, "same ToR pair must map to the same set id");
        let paths2: Vec<Vec<LinkId>> = obs2.arena.members(set1).iter().map(<[_]>::to_vec).collect();
        assert_eq!(paths1, paths2, "interned path contents must be stable");
        assert!(
            obs2.arena.path_count() > count1,
            "the new pair extends the arena"
        );
    }

    #[test]
    fn assembling_without_recycling_keeps_lineage_and_ids() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let mut asm = Assembler::new();
        let f = mk_passive(&topo, &router, hosts[0], hosts[11], 50, 0);
        let obs1 = asm.assemble(
            &topo,
            &router,
            std::slice::from_ref(&f),
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        let counts1 = (obs1.arena.path_count(), obs1.arena.set_count());
        // obs1 is deliberately held, not recycled — an in-flight epoch.
        // The next assembly extends the same arena: the same ToR pair
        // keeps its set id, a new pair extends the arena, and obs1 does
        // not move.
        let g = mk_passive(&topo, &router, hosts[1], hosts[4], 30, 0);
        let obs2 = asm.assemble(
            &topo,
            &router,
            &[f, g],
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs2.arena.lineage(), obs1.arena.lineage());
        let set = obs1.flows[0].set;
        assert_eq!(obs2.flows.iter().filter(|o| o.set == set).count(), 1);
        assert!(Arc::ptr_eq(
            obs2.arena.members(set),
            obs1.arena.members(set)
        ));
        assert!(obs2.arena.path_count() > counts1.0);
        assert!(obs2.arena.set_count() > counts1.1);
        assert_eq!(
            (obs1.arena.path_count(), obs1.arena.set_count()),
            counts1,
            "the held set's snapshot is frozen"
        );
    }

    #[test]
    fn empty_reconstructed_path_falls_back_to_ecmp_set() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        // A flagged flow whose record carried no path attachment: under
        // A2+P it must enter as a path-*set* observation, not a
        // zero-component "known" path.
        let mut f = mk_passive(&topo, &router, hosts[0], hosts[11], 100, 3);
        f.true_path.clear();
        let obs = assemble(
            &topo,
            &router,
            std::slice::from_ref(&f),
            &[InputKind::A2, InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs.flows.len(), 1);
        assert!(
            !obs.flows[0].path_known(&obs.arena),
            "pathless flagged flow must use the ECMP set"
        );
        assert_eq!(obs.flows[0].bad, 3, "its drop evidence is preserved");

        // Under Int alone (no P fallback) the flow is dropped, not faked.
        let obs2 = assemble(
            &topo,
            &router,
            std::slice::from_ref(&f),
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        assert!(obs2.flows.is_empty());

        // A pathless probe likewise carries no evidence.
        let probe = MonitoredFlow {
            key: FlowKey::probe(hosts[0], topo.switches()[0], 1),
            stats: FlowStats {
                packets: 40,
                ..Default::default()
            },
            class: TrafficClass::Probe,
            true_path: Vec::new(),
        };
        let obs3 = assemble(
            &topo,
            &router,
            std::slice::from_ref(&probe),
            &[InputKind::A1],
            AnalysisMode::PerPacket,
        );
        assert!(obs3.flows.is_empty());
    }

    /// Tail-key values on every byte boundary the radix splits or skips,
    /// up to the extremes. Drawing from short lists makes ties heavy.
    const EDGE_COUNTS: [u64; 8] = [0, 1, 255, 256, 65_535, 1 << 32, u64::MAX - 1, u64::MAX];
    const EDGE_LINKS: [u32; 5] = [0, 1, 255, 256, u32::MAX];

    /// One set's run: any length on either side of [`COMPARISON_MAX_RUN`],
    /// `bad <= sent`, and `None` prefixes beside `Some(LinkId(0))` and
    /// `Some(LinkId(u32::MAX))`.
    fn arb_run() -> impl Strategy<Value = Vec<FlowObs>> {
        let obs = (0u8..10, 0u8..10, any::<u64>(), 0u8..7, 0u8..7, any::<u32>()).prop_map(
            |(s, b, raw, p0, p1, link)| {
                let count = |i: u8| EDGE_COUNTS.get(usize::from(i)).copied().unwrap_or(raw);
                let prefix = |i: u8| match i {
                    0 => None,
                    i => Some(LinkId(
                        EDGE_LINKS.get(usize::from(i) - 1).copied().unwrap_or(link),
                    )),
                };
                let sent = count(s);
                FlowObs {
                    prefix: [prefix(p0), prefix(p1)],
                    set: PathSetId(0),
                    sent,
                    bad: count(b).min(sent),
                    weight: 1,
                }
            },
        );
        prop::collection::vec(obs, 1..4 * COMPARISON_MAX_RUN)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn run_sort_matches_a_comparison_sort(run in arb_run()) {
            let len = run.len();
            for n in [len, len.min(COMPARISON_MAX_RUN), len.min(COMPARISON_MAX_RUN + 1)] {
                let mut want = run[..n].to_vec();
                want.sort_by_key(|o| (o.sent, o.bad, o.prefix));
                let mut got = run[..n].to_vec();
                let mut buf = run[..n].to_vec();
                buf.reverse();
                sort_run_tail(&mut got, &mut buf);
                prop_assert_eq!(got, want, "run of {}", n);
            }
        }
    }

    /// `n` passive flows from the hosts of one ToR to those of another (one
    /// path set, nine prefixes), with packet and retransmission counts
    /// drawn from [`EDGE_COUNTS`]; zero-packet flows are among them.
    fn one_pair_epoch(
        topo: &Topology,
        router: &Router<'_>,
        seed: u64,
        n: usize,
    ) -> Vec<MonitoredFlow> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let hosts = topo.hosts();
        (0..n)
            .map(|_| {
                let src = hosts[rng.random_range(0..3usize)];
                let dst = hosts[rng.random_range(9..12usize)];
                let mut f = mk_passive(topo, router, src, dst, 1, 0);
                f.stats.packets = EDGE_COUNTS[rng.random_range(0..EDGE_COUNTS.len())];
                f.stats.retransmissions = EDGE_COUNTS[rng.random_range(0..EDGE_COUNTS.len())];
                f
            })
            .collect()
    }

    #[test]
    fn recycled_assembler_emits_the_sorted_weighted_merge() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let mut asm = Assembler::new();
        // Long radix runs around a short comparison-sorted one.
        for (seed, n) in [(1, 600), (2, COMPARISON_MAX_RUN / 2), (3, 900)] {
            let flows = one_pair_epoch(&topo, &router, seed, n);
            let obs = asm.assemble(
                &topo,
                &router,
                &flows,
                &[InputKind::P],
                AnalysisMode::PerPacket,
            );
            let set = obs.flows[0].set;
            // The reference: an ordered map is a full comparison sort by
            // `(set, sent, bad, prefix)`, its counts the weight merge.
            let mut merged = std::collections::BTreeMap::new();
            for f in flows.iter().filter(|f| f.stats.packets > 0) {
                let sent = f.stats.packets;
                let bad = f.stats.retransmissions.min(sent);
                let prefix = [
                    Some(topo.host_uplink(f.key.src)),
                    Some(topo.host_downlink(f.key.dst)),
                ];
                *merged.entry((set.0, sent, bad, prefix)).or_insert(0) += 1;
            }
            let want: Vec<FlowObs> = merged
                .into_iter()
                .map(|((_, sent, bad, prefix), weight)| FlowObs {
                    prefix,
                    set,
                    sent,
                    bad,
                    weight,
                })
                .collect();
            assert_eq!(obs.flows, want, "epoch of {n} flows");
            asm.recycle(obs);
        }
    }

    #[test]
    fn steady_state_assembly_keeps_its_buffers() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let flows = one_pair_epoch(&topo, &router, 7, 600);
        let mut asm = Assembler::new();
        let mut capacities = Vec::new();
        for _ in 0..3 {
            let obs = asm.assemble(
                &topo,
                &router,
                &flows,
                &[InputKind::P],
                AnalysisMode::PerPacket,
            );
            asm.recycle(obs);
            capacities.push((asm.out.capacity(), asm.sort_scratch.capacity()));
        }
        assert!(asm.sort_scratch.len() > COMPARISON_MAX_RUN, "one long run");
        assert!(
            capacities.windows(2).all(|w| w[0] == w[1]),
            "`out` and `sort_scratch` capacities per epoch: {capacities:?}"
        );
    }

    #[test]
    fn full_path_links_includes_prefix() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let f = mk_passive(&topo, &router, hosts[0], hosts[11], 10, 1);
        let true_path = f.true_path.clone();
        let obs = assemble(
            &topo,
            &router,
            &[f],
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        let o = &obs.flows[0];
        let links: Vec<LinkId> = obs.full_path_links(o, 0).collect();
        assert_eq!(links, true_path);
    }
}
