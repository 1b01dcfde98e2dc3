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
//! exploits the same split to share path state across flows.
//!
//! Observations that are fully identical — same prefix, same path set,
//! same `(sent, bad)` — are merged with a `weight` multiplier. The
//! per-flow likelihood of Eq. 1 depends only on these fields, so the merge
//! is exact. Active-probe inputs compress dramatically (most probes lose
//! zero packets).

use crate::flow::{MonitoredFlow, TrafficClass};
use flock_topology::{FxHashMap, LinkId, NodeRole, Router, Topology};
use serde::Serialize;
use std::sync::Arc;

/// Content hash used by the arena's hashed-over-storage dedup indexes.
/// A weak hash only costs an extra content compare on collision — the
/// indexes map hashes to candidate-id lists, never trust the hash alone.
fn content_hash<T: std::hash::Hash>(xs: &[T]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = flock_topology::fasthash::FxHasher::default();
    xs.hash(&mut h);
    h.finish()
}

/// Index of an interned fabric path in a [`PathArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PathId(pub u32);

/// Index of an interned fabric path *set* in a [`PathArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PathSetId(pub u32);

/// Rows per storage chunk of a [`Rows`] table. Interning into an arena
/// whose tail chunk a live [`ArenaSnapshot`] still shares copies at most
/// this many rows once; full chunks are never copied.
const CHUNK_ROWS: usize = 4096;

/// One chunk of a [`Rows`] table in CSR form: row `r` is
/// `items[offsets[r]..offsets[r + 1]]`.
#[derive(Debug, Clone)]
struct Chunk<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

/// An append-only table of variable-length rows whose storage is shared
/// by `Arc` in chunks of [`CHUNK_ROWS`] rows: cloning the table clones a
/// few `Arc`s, and pushing to one clone never changes what another
/// reads (`Arc::make_mut` copies the tail chunk if it is still shared).
#[derive(Debug, Clone)]
struct Rows<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> Rows<T> {
    fn push(&mut self, row: &[T]) {
        if self.len % CHUNK_ROWS == 0 {
            self.chunks.push(Arc::new(Chunk {
                offsets: vec![0],
                items: Vec::new(),
            }));
        }
        let tail = Arc::make_mut(self.chunks.last_mut().expect("tail chunk pushed above"));
        tail.items.extend_from_slice(row);
        let end = u32::try_from(tail.items.len()).expect("arena chunk exceeds u32 items");
        tail.offsets.push(end);
        self.len += 1;
    }

    #[inline]
    fn get(&self, row: usize) -> &[T] {
        let chunk = &self.chunks[row / CHUNK_ROWS];
        let r = row % CHUNK_ROWS;
        &chunk.items[chunk.offsets[r] as usize..chunk.offsets[r + 1] as usize]
    }
}

/// The read side of a [`PathArena`]: interned content by id, without the
/// dedup indexes only the writer needs. Cheap to clone (storage is
/// shared in chunks) and frozen: whatever the arena it was taken from
/// interns later, a snapshot keeps reading exactly the rows it was taken
/// with. This is what an [`ObservationSet`] carries, so an in-flight
/// epoch reads its snapshot while the assembler extends the one arena.
#[derive(Debug, Clone)]
pub struct ArenaSnapshot {
    paths: Rows<LinkId>,
    sets: Rows<PathId>,
    /// Process-unique token of the arena this content belongs to. Ids are
    /// append-only per lineage, so two snapshots of one lineage agree on
    /// every id both contain. Lets holders of interned ids (views,
    /// engines) verify a snapshot is of the arena they interned against.
    lineage: u64,
}

impl ArenaSnapshot {
    /// The process-unique lineage token of the arena this is a state of.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The links of an interned path.
    #[inline]
    pub fn path(&self, id: PathId) -> &[LinkId] {
        self.paths.get(id.0 as usize)
    }

    /// The member paths of an interned set.
    #[inline]
    pub fn set(&self, id: PathSetId) -> &[PathId] {
        self.sets.get(id.0 as usize)
    }

    /// Number of interned paths.
    pub fn path_count(&self) -> usize {
        self.paths.len
    }

    /// Number of interned sets.
    pub fn set_count(&self) -> usize {
        self.sets.len
    }
}

/// Interning arena for fabric paths and path sets: the one writer of a
/// lineage. Reads go through [`ArenaSnapshot`] (which the arena derefs
/// to); [`PathArena::snapshot`] hands the current content to readers.
///
/// The dedup indexes hash *over the stored content* — they map a content
/// hash to the candidate ids whose stored path/set must be compared — so
/// interning keeps exactly one copy of every link/path sequence. The
/// naive `HashMap<Vec<_>, id>` alternative clones each sequence into its
/// key: at millions of interned sets that doubles the arena's memory.
#[derive(Debug)]
pub struct PathArena {
    content: ArenaSnapshot,
    path_lookup: FxHashMap<u64, Vec<PathId>>,
    set_lookup: FxHashMap<u64, Vec<PathSetId>>,
    /// Path id → the singleton set `{path}`, once
    /// [`intern_single`](Self::intern_single) has found it — a memo in
    /// front of `set_lookup`, not part of the arena's content.
    singles: FxHashMap<PathId, PathSetId>,
}

impl Default for PathArena {
    fn default() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);
        PathArena {
            content: ArenaSnapshot {
                paths: Rows::default(),
                sets: Rows::default(),
                lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            },
            path_lookup: FxHashMap::default(),
            set_lookup: FxHashMap::default(),
            singles: FxHashMap::default(),
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

    /// Intern a fabric path (a link sequence; may be empty for same-ToR
    /// traffic).
    pub fn intern_path(&mut self, links: &[LinkId]) -> PathId {
        let h = content_hash(links);
        if let Some(cands) = self.path_lookup.get(&h) {
            for &id in cands {
                if self.content.path(id) == links {
                    return id;
                }
            }
        }
        let id = self.intern_path_nodedup(links);
        self.path_lookup.entry(h).or_default().push(id);
        id
    }

    /// Intern a path *without* dedup lookup. ECMP fabric paths are unique
    /// to their ToR pair (every member contains both endpoint ToRs), so
    /// the assembler skips the lookup map for them — at the headline scale
    /// (tens of millions of paths) the map's key copies would dominate
    /// memory.
    pub fn intern_path_nodedup(&mut self, links: &[LinkId]) -> PathId {
        let id = PathId(self.content.paths.len as u32);
        self.content.paths.push(links);
        id
    }

    /// Intern a set of already-interned paths. Order-insensitive: the set
    /// is canonicalized by sorting. The canonical sequence is stored once —
    /// the dedup index holds only a content hash, not a key copy.
    pub fn intern_set(&mut self, mut paths: Vec<PathId>) -> PathSetId {
        paths.sort_unstable_by_key(|p| p.0);
        paths.dedup();
        let h = content_hash(&paths);
        if let Some(cands) = self.set_lookup.get(&h) {
            for &id in cands {
                if self.content.set(id) == paths {
                    return id;
                }
            }
        }
        let id = PathSetId(self.content.sets.len as u32);
        self.content.sets.push(&paths);
        self.set_lookup.entry(h).or_default().push(id);
        id
    }

    /// Intern a singleton set for a known path. A path seen before
    /// answers from a per-path memo: no `Vec`, sort or set hash for the
    /// traced flow whose path an earlier epoch already interned.
    pub fn intern_single(&mut self, links: &[LinkId]) -> PathSetId {
        let p = self.intern_path(links);
        if let Some(&set) = self.singles.get(&p) {
            return set;
        }
        let set = self.intern_set(vec![p]);
        self.singles.insert(p, set);
        set
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
        arena.set(self.set).len() == 1
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
    /// Aggregated observations.
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

    /// Iterate the full link sequence (prefix + fabric) of one member path
    /// of an observation.
    pub fn full_path_links<'a>(
        &'a self,
        obs: &'a FlowObs,
        path: PathId,
    ) -> impl Iterator<Item = LinkId> + 'a {
        obs.prefix
            .iter()
            .take(1)
            .filter_map(|l| *l)
            .chain(self.arena.path(path).iter().copied())
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
/// the **same** arena: interning is append-only, so a `PathId`/[`PathSetId`]
/// handed out in epoch `k` denotes the identical path in every later
/// epoch. That stability is what lets a warm inference engine keep its
/// per-path/per-set structures across epochs instead of rebuilding them
/// (see `flock_core::Engine::rebind`). The ECMP set cache persists for the
/// same reason — per ToR pair, the set is interned exactly once, ever.
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
    /// Scratch for the counting scatter in [`Assembler::assemble`],
    /// reused across epochs so steady-state assembly allocates nothing.
    sort_scratch: Vec<FlowObs>,
    set_cursors: Vec<u32>,
}

impl Assembler {
    /// An assembler with an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of paths interned so far (across all epochs).
    pub fn path_count(&self) -> usize {
        self.arena.path_count()
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
                        let set = *ecmp_cache.entry((src_leaf, dst_leaf)).or_insert_with(|| {
                            let paths = router.paths(src_leaf, dst_leaf);
                            let ids: Vec<PathId> = paths
                                .iter()
                                .map(|p| arena.intern_path_nodedup(&p.links))
                                .collect();
                            arena.intern_set(ids)
                        });
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
        // counting-scatter by set (O(n + sets)) and comparison-sort only
        // the `(sent, bad, prefix)` tail within each set's run — the
        // same total order, at a fraction of the cost (the full sort was
        // the dominant term of the pipelined prepare stage).
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
        let mut start = 0usize;
        for i in 0..sets {
            let end = self.set_cursors[i] as usize;
            if end - start > 1 {
                out[start..end].sort_unstable_by_key(|o| (o.sent, o.bad, o.prefix));
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
        path.extend_from_slice(&paths[0].links);
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
        let p1 = a.intern_path(&[LinkId(1), LinkId(2)]);
        let p2 = a.intern_path(&[LinkId(1), LinkId(2)]);
        let p3 = a.intern_path(&[LinkId(3)]);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        let s1 = a.intern_set(vec![p1, p3]);
        let s2 = a.intern_set(vec![p3, p1, p1]);
        assert_eq!(s1, s2, "sets canonicalize order and duplicates");
        assert_eq!(a.path_count(), 2);
        assert_eq!(a.set_count(), 1);
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
        let path = a.intern_path(&[LinkId(1), LinkId(2)]);
        assert_eq!(a.set(first), &[path]);
        // The memo and `intern_set` agree, whichever is asked first.
        let p = a.intern_path(&[LinkId(3)]);
        let via_set = a.intern_set(vec![p]);
        assert_eq!(a.intern_single(&[LinkId(3)]), via_set);
        assert_eq!(a.intern_single(&[LinkId(3)]), via_set);
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
            obs.arena.set(o.set).len(),
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
    fn arena_interning_survives_hash_bucketing_at_scale() {
        // Many distinct single-link paths and sets: every id must resolve
        // to its own content, and re-interning must dedup (the
        // hashed-over-storage index has no key copies to fall back on).
        let mut a = PathArena::new();
        let ids: Vec<PathId> = (0..500).map(|i| a.intern_path(&[LinkId(i)])).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(a.path(*id), &[LinkId(i as u32)]);
            assert_eq!(a.intern_path(&[LinkId(i as u32)]), *id);
        }
        assert_eq!(a.path_count(), 500);
        let sets: Vec<PathSetId> = ids.chunks(2).map(|c| a.intern_set(c.to_vec())).collect();
        for (i, sid) in sets.iter().enumerate() {
            assert_eq!(a.set(*sid), &ids[i * 2..i * 2 + 2]);
            assert_eq!(a.intern_set(vec![ids[i * 2 + 1], ids[i * 2]]), *sid);
        }
        assert_eq!(a.set_count(), 250);
    }

    #[test]
    fn a_snapshot_is_unaffected_by_later_interning() {
        // Row `i` of the path table is `[i, i + 1]`; every third path is
        // also a singleton set, so both tables cross chunk boundaries.
        let links = |i: usize| [LinkId(i as u32), LinkId(i as u32 + 1)];
        let grow = |a: &mut PathArena, upto: usize| {
            for i in a.path_count()..upto {
                let p = a.intern_path(&links(i));
                assert_eq!(p, PathId(i as u32));
                if i % 3 == 0 {
                    assert_eq!(a.intern_set(vec![p]), PathSetId((i / 3) as u32));
                }
            }
        };
        let check = |s: &ArenaSnapshot, paths: usize| {
            assert_eq!(s.path_count(), paths);
            assert_eq!(s.set_count(), paths.div_ceil(3));
            for i in 0..paths {
                assert_eq!(s.path(PathId(i as u32)), &links(i), "path {i} of {paths}");
            }
            for j in 0..s.set_count() {
                assert_eq!(s.set(PathSetId(j as u32)), &[PathId(3 * j as u32)]);
            }
        };

        let mut a = PathArena::new();
        let mut snaps = Vec::new();
        // One row short of a chunk boundary (the snapshot shares a tail
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
            for (s, paths) in &snaps {
                check(s, *paths);
                assert_eq!(s.lineage(), a.lineage());
            }
            check(&a, fill);
        }
        // A set over old and new paths lands in the arena only.
        let wide = a.intern_set(vec![PathId(0), PathId(3 * CHUNK_ROWS as u32)]);
        assert_eq!(a.set(wide), &[PathId(0), PathId(3 * CHUNK_ROWS as u32)]);
        let (last, paths) = snaps.last().unwrap();
        assert_eq!(last.set_count() + 1, a.set_count());
        check(last, *paths);
        // Dedup still sees every row, including those in chunks that were
        // copied away from a snapshot.
        assert_eq!(
            a.intern_path(&links(CHUNK_ROWS - 2)),
            PathId(CHUNK_ROWS as u32 - 2)
        );
        assert_eq!(a.path_count(), 3 * CHUNK_ROWS + 5);
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
        let paths1: Vec<Vec<LinkId>> = obs1
            .arena
            .set(set1)
            .iter()
            .map(|p| obs1.arena.path(*p).to_vec())
            .collect();
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
        let paths2: Vec<Vec<LinkId>> = obs2
            .arena
            .set(set1)
            .iter()
            .map(|p| obs2.arena.path(*p).to_vec())
            .collect();
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
        assert_eq!(obs2.arena.set(set), obs1.arena.set(set));
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
        let pid = obs.arena.set(o.set)[0];
        let links: Vec<LinkId> = obs.full_path_links(o, pid).collect();
        assert_eq!(links, true_path);
    }
}
