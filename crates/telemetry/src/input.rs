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
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathId(pub u32);

/// Index of an interned fabric path *set* in a [`PathArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathSetId(pub u32);

/// Interning arena for fabric paths and path sets.
///
/// The dedup indexes hash *over the stored content* — they map a content
/// hash to the candidate ids whose stored path/set must be compared — so
/// interning keeps exactly one copy of every link/path sequence. The
/// naive `HashMap<Vec<_>, id>` alternative clones each sequence into its
/// key: at millions of interned sets that doubles the arena's memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathArena {
    paths: Vec<Vec<LinkId>>,
    sets: Vec<Vec<PathId>>,
    #[serde(skip)]
    path_lookup: FxHashMap<u64, Vec<PathId>>,
    #[serde(skip)]
    set_lookup: FxHashMap<u64, Vec<PathSetId>>,
    /// Path id → the singleton set `{path}`, once
    /// [`intern_single`](Self::intern_single) has found it — a memo in
    /// front of `set_lookup`, not part of the arena's content: a copy
    /// without an entry falls through to
    /// [`intern_set`](Self::intern_set), which dedups to the same id.
    #[serde(skip)]
    singles: FxHashMap<PathId, PathSetId>,
    /// Process-unique lineage token, stamped at creation and preserved by
    /// `Clone` (a clone shares content, so ids interned against either
    /// copy resolve identically). Lets holders of interned ids
    /// ([`Assembler`]) verify an arena is the one they interned against.
    #[serde(skip)]
    lineage: u64,
}

impl Default for PathArena {
    fn default() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);
        PathArena {
            paths: Vec::new(),
            sets: Vec::new(),
            path_lookup: FxHashMap::default(),
            set_lookup: FxHashMap::default(),
            singles: FxHashMap::default(),
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl PathArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arena's process-unique lineage token.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Intern a fabric path (a link sequence; may be empty for same-ToR
    /// traffic).
    pub fn intern_path(&mut self, links: &[LinkId]) -> PathId {
        let h = content_hash(links);
        if let Some(cands) = self.path_lookup.get(&h) {
            for &id in cands {
                if self.paths[id.0 as usize] == links {
                    return id;
                }
            }
        }
        let id = PathId(self.paths.len() as u32);
        self.paths.push(links.to_vec());
        self.path_lookup.entry(h).or_default().push(id);
        id
    }

    /// Intern a path *without* dedup lookup. ECMP fabric paths are unique
    /// to their ToR pair (every member contains both endpoint ToRs), so
    /// the assembler skips the lookup map for them — at the headline scale
    /// (tens of millions of paths) the map's key copies would dominate
    /// memory.
    pub fn intern_path_nodedup(&mut self, links: &[LinkId]) -> PathId {
        let id = PathId(self.paths.len() as u32);
        self.paths.push(links.to_vec());
        id
    }

    /// Intern a set of already-interned paths. Order-insensitive: the set
    /// is canonicalized by sorting. The canonical vector is stored once —
    /// the dedup index holds only a content hash, not a key copy.
    pub fn intern_set(&mut self, mut paths: Vec<PathId>) -> PathSetId {
        paths.sort_unstable_by_key(|p| p.0);
        paths.dedup();
        let h = content_hash(&paths);
        if let Some(cands) = self.set_lookup.get(&h) {
            for &id in cands {
                if self.sets[id.0 as usize] == paths {
                    return id;
                }
            }
        }
        let id = PathSetId(self.sets.len() as u32);
        self.sets.push(paths);
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

    /// The links of an interned path.
    #[inline]
    pub fn path(&self, id: PathId) -> &[LinkId] {
        &self.paths[id.0 as usize]
    }

    /// The member paths of an interned set.
    #[inline]
    pub fn set(&self, id: PathSetId) -> &[PathId] {
        &self.sets[id.0 as usize]
    }

    /// Number of interned paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Number of interned sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Capture everything interned since the `(from_paths, from_sets)`
    /// watermark as a replayable [`ArenaDelta`].
    ///
    /// The delta records, per new path, whether the path was *indexed*
    /// (interned through the dedup lookup) or appended via
    /// [`intern_path_nodedup`](Self::intern_path_nodedup): a twin arena
    /// replaying the delta must mirror that choice exactly, or its future
    /// dedup decisions — and therefore the ids it hands out — diverge
    /// from the original's.
    pub fn delta_since(&self, from_paths: usize, from_sets: usize) -> ArenaDelta {
        let paths = self.paths[from_paths..]
            .iter()
            .enumerate()
            .map(|(i, links)| {
                let id = PathId((from_paths + i) as u32);
                let indexed = self
                    .path_lookup
                    .get(&content_hash(links))
                    .is_some_and(|cands| cands.contains(&id));
                (links.clone(), indexed)
            })
            .collect();
        ArenaDelta {
            from_paths,
            from_sets,
            lineage: self.lineage,
            paths,
            sets: self.sets[from_sets..].to_vec(),
        }
    }

    /// Replay a delta captured from this arena's twin (same lineage, via
    /// `Clone`), appending exactly the paths and sets the twin interned —
    /// index membership included — so both copies keep resolving every
    /// id identically and making identical future dedup decisions.
    ///
    /// Fails without modifying the arena if the delta is from a different
    /// lineage or this arena is not exactly at the delta's watermark
    /// (replaying out of order would assign different ids).
    pub fn apply_delta(&mut self, delta: &ArenaDelta) -> Result<(), DeltaError> {
        if delta.lineage != self.lineage {
            return Err(DeltaError::LineageMismatch {
                expected: delta.lineage,
                actual: self.lineage,
            });
        }
        if (self.paths.len(), self.sets.len()) != (delta.from_paths, delta.from_sets) {
            return Err(DeltaError::WatermarkMismatch {
                expected: (delta.from_paths, delta.from_sets),
                actual: (self.paths.len(), self.sets.len()),
            });
        }
        for (links, indexed) in &delta.paths {
            let id = PathId(self.paths.len() as u32);
            if *indexed {
                self.path_lookup
                    .entry(content_hash(links))
                    .or_default()
                    .push(id);
            }
            self.paths.push(links.clone());
        }
        for members in &delta.sets {
            let id = PathSetId(self.sets.len() as u32);
            self.set_lookup
                .entry(content_hash(members))
                .or_default()
                .push(id);
            self.sets.push(members.clone());
        }
        Ok(())
    }
}

/// Everything a [`PathArena`] interned past a watermark, in intern order,
/// captured by [`PathArena::delta_since`] and replayed onto a same-lineage
/// twin by [`PathArena::apply_delta`].
///
/// This is the handoff mechanism behind double-buffered assembly: while
/// one arena copy is out with an epoch's [`ObservationSet`], the
/// assembler extends the other, and the delta catches the returning copy
/// up so the two stay content- and index-identical.
#[derive(Debug, Clone)]
pub struct ArenaDelta {
    from_paths: usize,
    from_sets: usize,
    lineage: u64,
    /// New paths with their dedup-index membership (nodedup'd ECMP
    /// fabric paths are unindexed and must stay so in the twin).
    paths: Vec<(Vec<LinkId>, bool)>,
    sets: Vec<Vec<PathId>>,
}

impl ArenaDelta {
    /// The `(paths, sets)` watermark the delta starts from.
    pub fn from_watermarks(&self) -> (usize, usize) {
        (self.from_paths, self.from_sets)
    }

    /// Lineage of the arena the delta was captured from.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Whether the delta carries no growth.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty() && self.sets.is_empty()
    }
}

/// Why [`PathArena::apply_delta`] refused a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta was captured from an arena of a different lineage.
    LineageMismatch {
        /// Lineage the delta was captured from.
        expected: u64,
        /// Lineage of the arena it was applied to.
        actual: u64,
    },
    /// The arena is not at the delta's starting watermark.
    WatermarkMismatch {
        /// `(paths, sets)` watermark the delta starts from.
        expected: (usize, usize),
        /// The arena's actual `(paths, sets)` counts.
        actual: (usize, usize),
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::LineageMismatch { expected, actual } => write!(
                f,
                "arena delta lineage {expected} does not match arena lineage {actual}"
            ),
            DeltaError::WatermarkMismatch { expected, actual } => write!(
                f,
                "arena delta expects watermark {expected:?}, arena is at {actual:?}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// How flow metrics are turned into the model's `(sent, bad)` counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
    pub fn path_known(&self, arena: &PathArena) -> bool {
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservationSet {
    /// Path/set interning arena.
    pub arena: PathArena,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
/// The arena physically moves into the returned `ObservationSet` (every
/// consumer expects an owning set); hand the set back via
/// [`Assembler::recycle`] once inference is done to keep the lineage.
/// Assembling again *without* recycling is safe but forfeits the lineage:
/// the assembler starts a fresh arena (and drops its set-id cache, which
/// would otherwise refer into the departed arena).
#[derive(Debug, Default)]
pub struct Assembler {
    arena: PathArena,
    ecmp_cache: FxHashMap<(flock_topology::NodeId, flock_topology::NodeId), PathSetId>,
    /// Whether the arena is currently out with an un-recycled
    /// `ObservationSet` (the struct's `arena` is then a fresh default).
    arena_out: bool,
    /// Lineage token and path/set counts of the arena as last emitted,
    /// used by [`Assembler::recycle`] to recognize its own lineage.
    emitted_lineage: u64,
    emitted_paths: usize,
    emitted_sets: usize,
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

    /// Reclaim the arena from an observation set produced by the **last**
    /// [`Assembler::assemble`] call on this assembler.
    ///
    /// The set is recognized by its arena's process-unique lineage token
    /// plus size monotonicity (append-only interning means a legitimate
    /// descendant has at least the emitted path/set counts). Handing back
    /// a set from a different lineage replaces the arena wholesale and
    /// drops the ECMP set cache, whose ids would otherwise dangle into
    /// the departed arena.
    pub fn recycle(&mut self, obs: ObservationSet) {
        self.recycle_arena(obs.arena);
    }

    /// [`recycle`](Self::recycle) for a bare arena — the double-buffered
    /// pipeline hands back an arena *twin* (same lineage via `Clone`,
    /// caught up by [`PathArena::apply_delta`]) rather than the emitted
    /// observation set itself, which is still feeding the in-flight
    /// epoch's shard engines.
    pub fn recycle_arena(&mut self, arena: PathArena) {
        let ours = self.arena_out
            && arena.lineage() == self.emitted_lineage
            && arena.path_count() >= self.emitted_paths
            && arena.set_count() >= self.emitted_sets;
        if !ours {
            self.ecmp_cache.clear();
        }
        self.arena = arena;
        self.arena_out = false;
    }

    /// Whether the arena is currently out with an un-recycled
    /// [`ObservationSet`] — assembling in that state starts a fresh
    /// lineage (and invalidates every view bound to the old one).
    pub fn arena_is_out(&self) -> bool {
        self.arena_out
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
        if self.arena_out {
            // The previous set was never recycled: the cached set ids
            // refer into an arena we no longer hold. Start clean.
            self.ecmp_cache.clear();
            self.arena = PathArena::new();
        }
        let arena = &mut self.arena;
        let ecmp_cache = &mut self.ecmp_cache;
        let mut out: Vec<FlowObs> = Vec::with_capacity(flows.len());

        for mf in flows {
            let (sent, bad) = metrics(mf, mode);
            if sent == 0 {
                continue;
            }
            let obs = match mf.class {
                TrafficClass::Probe => {
                    // A probe whose path is unknown (possible for flows
                    // reconstructed from wire records that carried no
                    // attachment) carries no localizable evidence.
                    if !(has(InputKind::A1) || has(InputKind::Int)) || mf.true_path.is_empty() {
                        continue;
                    }
                    known_path_obs(topo, arena, &mf.true_path, sent, bad)
                }
                TrafficClass::Passive => {
                    // "Known path" requires an actual recorded path: a
                    // reconstructed flow whose record carried no path
                    // attachment has an empty `true_path` and must fall
                    // back to the ECMP path set (or be dropped), not be
                    // modeled as a zero-component pinned path.
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
        self.arena_out = true;
        self.emitted_lineage = self.arena.lineage();
        self.emitted_paths = self.arena.path_count();
        self.emitted_sets = self.arena.set_count();
        ObservationSet {
            arena: std::mem::take(&mut self.arena),
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
        let mut twin = a.clone();
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

        // A twin caught up by delta replay carries no memo for the
        // replayed paths; it falls through to the set index and lands
        // on the same ids.
        twin.apply_delta(&a.delta_since(0, 0)).unwrap();
        for (links, want) in [(&[LinkId(9)][..], other), (&[LinkId(1), LinkId(2)], first)] {
            assert_eq!(twin.intern_single(links), want);
            assert_eq!(twin.intern_single(links), want);
        }
        assert_eq!((twin.path_count(), twin.set_count()), (3, 3));
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
    fn delta_replay_keeps_twins_identical() {
        // A twin cloned at a watermark and caught up via apply_delta must
        // resolve every id identically AND keep making the same dedup
        // decisions as the original afterwards.
        let mut a = PathArena::new();
        a.intern_path(&[LinkId(1)]);
        a.intern_set(vec![PathId(0)]);
        let mut twin = a.clone();
        let wm = (a.path_count(), a.set_count());

        // Growth past the watermark: an indexed path, a nodedup'd path
        // (same content as nothing else), and a set over both.
        let p1 = a.intern_path(&[LinkId(2), LinkId(3)]);
        let p2 = a.intern_path_nodedup(&[LinkId(4), LinkId(5)]);
        let s = a.intern_set(vec![p1, p2]);

        let delta = a.delta_since(wm.0, wm.1);
        assert!(!delta.is_empty());
        assert_eq!(delta.from_watermarks(), wm);
        twin.apply_delta(&delta)
            .expect("same lineage, exact watermark");

        assert_eq!(twin.path_count(), a.path_count());
        assert_eq!(twin.set_count(), a.set_count());
        for i in 0..a.path_count() {
            assert_eq!(twin.path(PathId(i as u32)), a.path(PathId(i as u32)));
        }
        // Indexed path dedups in both copies…
        assert_eq!(twin.intern_path(&[LinkId(2), LinkId(3)]), p1);
        assert_eq!(a.intern_path(&[LinkId(2), LinkId(3)]), p1);
        // …the nodedup'd path stays unindexed in both (re-interning it
        // allocates a fresh id in each, and both pick the same id).
        let fresh_twin = twin.intern_path(&[LinkId(4), LinkId(5)]);
        let fresh_a = a.intern_path(&[LinkId(4), LinkId(5)]);
        assert_eq!(fresh_twin, fresh_a);
        assert_ne!(fresh_twin, p2);
        // Sets dedup in both.
        assert_eq!(twin.intern_set(vec![p2, p1]), s);
        assert_eq!(a.intern_set(vec![p2, p1]), s);
    }

    #[test]
    fn delta_refuses_wrong_lineage_and_watermark() {
        let mut a = PathArena::new();
        a.intern_path(&[LinkId(1)]);
        let delta = a.delta_since(0, 0);

        let mut foreign = PathArena::new();
        assert!(matches!(
            foreign.apply_delta(&delta),
            Err(DeltaError::LineageMismatch { .. })
        ));

        let mut late = a.clone();
        assert!(matches!(
            late.apply_delta(&delta),
            Err(DeltaError::WatermarkMismatch { .. })
        ));
        // Refusal leaves the arena untouched.
        assert_eq!(late.path_count(), 1);
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
    fn assemble_without_recycle_starts_a_fresh_lineage() {
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
        // obs1 deliberately NOT recycled: the cached set id must not leak
        // into the next (fresh-arena) assembly.
        let obs2 = asm.assemble(
            &topo,
            &router,
            std::slice::from_ref(&f),
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs2.flows.len(), 1);
        let set = obs2.flows[0].set;
        assert!(
            (set.0 as usize) < obs2.arena.set_count(),
            "set id must refer into obs2's own arena"
        );
        assert_eq!(
            obs2.arena.set(set).len(),
            obs1.arena.set(obs1.flows[0].set).len()
        );
    }

    #[test]
    fn recycling_a_foreign_set_drops_the_cache() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let hosts = topo.hosts();
        let mut asm = Assembler::new();
        let f = mk_passive(&topo, &router, hosts[0], hosts[11], 50, 0);
        let obs = asm.assemble(
            &topo,
            &router,
            std::slice::from_ref(&f),
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        drop(obs);
        // Hand back an empty, unrelated set: the assembler must not keep
        // serving cached ids into it.
        asm.recycle(ObservationSet {
            arena: PathArena::new(),
            flows: Vec::new(),
            mode: AnalysisMode::PerPacket,
        });
        let obs2 = asm.assemble(
            &topo,
            &router,
            std::slice::from_ref(&f),
            &[InputKind::P],
            AnalysisMode::PerPacket,
        );
        assert_eq!(obs2.flows.len(), 1);
        assert!((obs2.flows[0].set.0 as usize) < obs2.arena.set_count());
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
