//! Property-based tests of the JLE engine and the likelihood kernel: the
//! Δ array must equal brute-force neighbor evaluation after *any* flip
//! sequence, and greedy must match exhaustive MLE in the separable-failure
//! regime (§4.2).

use flock_core::{
    flow_score, kernels, llf, CompIdx, ComponentSpace, Engine, EpochFlowTable, FlockGreedy,
    HyperParams, Localizer, SherlockFerret, TermDirectory, TermTable,
};
use flock_telemetry::input::{assemble, AnalysisMode, InputKind};
use flock_telemetry::{
    Assembler, FlowKey, FlowObs, FlowStats, MonitoredFlow, ObservationSet, PathArena, TrafficClass,
};
use flock_topology::clos::{leaf_spine, three_tier, ClosParams, LeafSpineParams};
use flock_topology::{LinkId, NodeId, PathSet, Router, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random host pair and one of its ECMP paths, host links included.
fn random_route(
    topo: &Topology,
    router: &Router,
    hosts: &[NodeId],
    rng: &mut StdRng,
) -> (NodeId, NodeId, Vec<LinkId>) {
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
    (s, d, tp)
}

/// The `i`-th passive flow of a trace: `sent` packets, `bad` of them
/// retransmitted, over `true_path`.
fn passive_flow(
    s: NodeId,
    d: NodeId,
    i: usize,
    sent: u64,
    bad: u64,
    true_path: Vec<LinkId>,
) -> MonitoredFlow {
    MonitoredFlow {
        key: FlowKey::tcp(s, d, (i % 60000) as u16, 80),
        stats: FlowStats {
            packets: sent,
            retransmissions: bad,
            bytes: 0,
            rtt_sum_us: 0,
            rtt_count: 0,
            rtt_max_us: 0,
        },
        class: TrafficClass::Passive,
        true_path,
    }
}

/// Random mixed-telemetry observation set on a tiny Clos. When
/// `quantized` is set, flow sizes come from a four-value palette so the
/// `(set, sent, bad)` evidence key repeats heavily and the coalescing
/// path has real runs to collapse.
fn random_obs_sized(
    seed: u64,
    n_flows: usize,
    kinds: &[InputKind],
    quantized: bool,
) -> (Topology, ObservationSet) {
    let topo = three_tier(ClosParams::tiny());
    let router = Router::new(&topo);
    let hosts = topo.hosts().to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flows = Vec::new();
    for i in 0..n_flows {
        let (s, d, tp) = random_route(&topo, &router, &hosts, &mut rng);
        let sent = if quantized {
            [20u64, 50, 100, 200][rng.random_range(0..4usize)]
        } else {
            rng.random_range(1..300u64)
        };
        let bad = if quantized {
            [0u64, 0, 0, 1, 2][rng.random_range(0..5usize)].min(sent)
        } else {
            rng.random_range(0..=sent.min(8))
        };
        flows.push(passive_flow(s, d, i, sent, bad, tp));
    }
    let obs = assemble(&topo, &router, &flows, kinds, AnalysisMode::PerPacket);
    (topo, obs)
}

/// Random mixed-telemetry observation set on a tiny Clos.
fn random_obs(seed: u64, n_flows: usize, kinds: &[InputKind]) -> (Topology, ObservationSet) {
    random_obs_sized(seed, n_flows, kinds, false)
}

/// The initial Δ at the empty hypothesis, recomputed from scratch the way
/// the engine did before it cached the per-set structure: sweep every
/// member path × path component of every active set to count `g(c)`,
/// sort/dedup the distinct counts, accumulate one weighted `llf` ladder
/// gather per super-flow, binary-search each component's `g` back, then
/// add the extras. It shares no state with the engine — only the inputs,
/// the engine's local component ids, and the public kernel — and keeps
/// the engine's summation order, so agreement is bit-for-bit.
fn initial_delta_by_path_sweep(
    topo: &Topology,
    obs: &ObservationSet,
    accepted: &[u32],
    engine: &Engine,
) -> Vec<f64> {
    let view = engine.view();
    let space = engine.space();
    let params = *engine.params();
    let local = |g: CompIdx| engine.local_comp(g).expect("evidence the engine localized");

    // Structure: per set, each member path's component list.
    let sets: Vec<Vec<Vec<CompIdx>>> = (0..view.n_sets() as u32)
        .map(|ls| {
            let members = obs.arena.members(view.global_set(ls));
            members
                .iter()
                .map(|links| {
                    let mut comps = Vec::new();
                    for &l in links {
                        comps.push(local(space.link_comp(l)));
                        let link = topo.link(l);
                        for end in [link.src, link.dst] {
                            if let Some(d) = space.device_comp(end) {
                                comps.push(local(d));
                            }
                        }
                    }
                    comps.sort_unstable();
                    comps.dedup();
                    comps
                })
                .collect()
        })
        .collect();
    let set_comps: Vec<Vec<CompIdx>> = sets
        .iter()
        .map(|paths| {
            let mut comps: Vec<CompIdx> = paths.iter().flatten().copied().collect();
            comps.sort_unstable();
            comps.dedup();
            comps
        })
        .collect();

    // Evidence: runs of equal evidence keys collapse into one weighted
    // super-flow.
    struct SuperFlow {
        set: u32,
        score: f64,
        ladder: Vec<f64>,
        weight: f64,
    }
    let mut flows: Vec<SuperFlow> = Vec::new();
    let mut extras: Vec<(CompIdx, f64, usize)> = Vec::new(); // (comp, weight, flow)
    let mut last_key = None;
    for &i in accepted {
        let o = &obs.flows[i as usize];
        let ls = view.local_set(o.set).unwrap();
        let w = sets[ls as usize].len() as u32;
        if w == 0 {
            continue;
        }
        let key = o.evidence_key();
        if last_key != Some(key) {
            let score = flow_score(&params, o.sent, o.bad);
            flows.push(SuperFlow {
                set: ls,
                score,
                ladder: (0..=w).map(|b| llf(score, w, b)).collect(),
                weight: 0.0,
            });
            last_key = Some(key);
        }
        let fi = flows.len() - 1;
        flows[fi].weight += f64::from(o.weight);
        let mut mine: Vec<CompIdx> = Vec::new();
        for link in o.prefix.iter().flatten() {
            mine.push(local(space.link_comp(*link)));
            let lk = topo.link(*link);
            for end in [lk.src, lk.dst] {
                if let Some(d) = space.device_comp(end) {
                    let d = local(d);
                    if !set_comps[ls as usize].contains(&d) {
                        mine.push(d);
                    }
                }
            }
        }
        let mut seen: Vec<CompIdx> = Vec::new();
        for c in mine {
            if !seen.contains(&c) {
                seen.push(c);
                extras.push((c, f64::from(o.weight), fi));
            }
        }
    }

    let mut delta = vec![0.0f64; engine.n_comps()];
    let mut g = vec![0u32; engine.n_comps()];
    for (s, paths) in sets.iter().enumerate() {
        let mine: Vec<&SuperFlow> = flows.iter().filter(|f| f.set as usize == s).collect();
        if mine.is_empty() {
            continue;
        }
        for &c in paths.iter().flatten() {
            g[c as usize] += 1;
        }
        let comps = &set_comps[s];
        let mut gs: Vec<u32> = comps.iter().map(|&c| g[c as usize]).collect();
        gs.sort_unstable();
        gs.dedup();
        let mut sums = vec![0.0f64; gs.len()];
        for f in mine {
            kernels::weighted_table_accumulate(&f.ladder, &gs, f.weight, &mut sums);
        }
        for &c in comps {
            delta[c as usize] += sums[gs.binary_search(&g[c as usize]).unwrap()];
            g[c as usize] = 0;
        }
    }
    for (c, weight, fi) in extras {
        delta[c as usize] += weight * flows[fi].score;
    }
    delta
}

/// The accept list of a full (`!filtered`) or filtered engine: every
/// observation, or all but each third.
fn accept_list(obs: &ObservationSet, filtered: bool) -> Vec<u32> {
    (0..obs.flows.len() as u32)
        .filter(|i| !filtered || i % 3 != 0)
        .collect()
}

/// An engine bound to all of `obs` through its own keying.
fn built(topo: &Topology, obs: &ObservationSet) -> Engine {
    Engine::new(topo, obs, HyperParams::default())
}

/// The raw-flow reference: the log-likelihood summed per observation of
/// `obs.flows`, with no super-flows and no engine state. Per observation
/// it keeps the weight, the flow score and, per member path, the global
/// components of the full path (prefix included): every link and every
/// switch end of one. A member path fails when one of its components is
/// in the hypothesis, and an observation over `w` paths of which `b` fail
/// adds `weight · llf(score, w, b)`. Unroutable observations (`w = 0`)
/// carry no evidence.
struct RawFlows {
    flows: Vec<(f64, f64, Vec<Vec<CompIdx>>)>,
    n_global: usize,
}

impl RawFlows {
    fn new(topo: &Topology, obs: &ObservationSet, params: &HyperParams) -> RawFlows {
        let space = ComponentSpace::new(topo);
        let flows = obs
            .flows
            .iter()
            .filter(|o| !obs.arena.members(o.set).is_empty())
            .map(|o| {
                let paths = (0..obs.arena.members(o.set).len())
                    .map(|member| {
                        let mut comps = Vec::new();
                        for l in obs.full_path_links(o, member) {
                            comps.push(space.link_comp(l));
                            let lk = topo.link(l);
                            comps.extend(
                                [lk.src, lk.dst]
                                    .iter()
                                    .filter_map(|&e| space.device_comp(e)),
                            );
                        }
                        comps
                    })
                    .collect();
                (
                    f64::from(o.weight),
                    flow_score(params, o.sent, o.bad),
                    paths,
                )
            })
            .collect();
        RawFlows {
            flows,
            n_global: space.n_comps(),
        }
    }

    /// `LL(H)` for the hypothesis `h` of global component ids.
    fn ll(&self, h: &[CompIdx]) -> f64 {
        let mut failed = vec![false; self.n_global];
        for &c in h {
            failed[c as usize] = true;
        }
        self.flows
            .iter()
            .map(|(weight, score, paths)| {
                let bad = paths
                    .iter()
                    .filter(|comps| comps.iter().any(|&c| failed[c as usize]))
                    .count();
                weight * llf(*score, paths.len() as u32, bad as u32)
            })
            .sum()
    }
}

/// The engine's log-likelihood and every Δ entry against the raw-flow
/// reference at the engine's hypothesis, within `tol` relative error.
/// Returns the reference log-likelihood.
fn assert_matches_raw(engine: &Engine, raw: &RawFlows, tol: f64, what: &str) -> f64 {
    let h: Vec<CompIdx> = engine
        .hypothesis()
        .iter()
        .map(|&c| engine.global_comp(c))
        .collect();
    let base = raw.ll(&h);
    let close = |got: f64, want: f64| (got - want).abs() < tol * (1.0 + want.abs());
    assert!(
        close(engine.log_likelihood(), base),
        "{what}: ll {} vs raw {base}",
        engine.log_likelihood()
    );
    for c in 0..engine.n_comps() as u32 {
        let g = engine.global_comp(c);
        let mut h2 = h.clone();
        match h2.iter().position(|&x| x == g) {
            Some(at) => drop(h2.remove(at)),
            None => h2.push(g),
        }
        let want = raw.ll(&h2) - base;
        let got = engine.delta()[c as usize];
        assert!(close(got, want), "{what}: delta[{c}] {got} vs raw {want}");
    }
    base
}

/// One epoch of random traffic among `hosts`, sizes from a small palette
/// (with jitter) so the evidence keys repeat and coalescing has runs to
/// merge.
fn epoch_traffic(
    topo: &Topology,
    router: &Router,
    hosts: &[NodeId],
    rng: &mut StdRng,
    n_flows: usize,
) -> Vec<MonitoredFlow> {
    (0..n_flows)
        .map(|i| {
            let (s, d, tp) = random_route(topo, router, hosts, rng);
            let sent = [40u64, 100, 101, 104, 250][rng.random_range(0..5usize)];
            let bad = [0u64, 0, 1, 2, 5][rng.random_range(0..5usize)];
            passive_flow(s, d, i, sent, bad, tp)
        })
        .collect()
}

/// The three-pod Clos of the multi-epoch properties (three pods break
/// the two-pod serial-link equivalence once traffic reaches them all).
fn three_pod_clos() -> Topology {
    three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 2,
    })
}

/// Every Δ entry and the likelihood of `engine` against brute force at
/// its current hypothesis, within the tolerance of
/// `delta_matches_brute_force_after_flips`.
fn assert_delta_is_brute_force(engine: &Engine, what: &str) {
    let h = engine.hypothesis().to_vec();
    let base = engine.ll_of(&h);
    assert!(
        (base - engine.log_likelihood()).abs() < 1e-7 * (1.0 + base.abs()),
        "{}: ll {} vs brute {}",
        what,
        engine.log_likelihood(),
        base
    );
    for c in 0..engine.n_comps() as u32 {
        let mut h2 = h.clone();
        match h2.iter().position(|&x| x == c) {
            Some(p) => {
                h2.remove(p);
            }
            None => h2.push(c),
        }
        let expect = engine.ll_of(&h2) - base;
        let got = engine.delta()[c as usize];
        assert!(
            (expect - got).abs() < 1e-7 * (1.0 + expect.abs()),
            "{}: comp {} delta {} vs brute {} (|H|={})",
            what,
            c,
            got,
            expect,
            h.len()
        );
    }
}

/// `a` and `b` — same evidence, same local ids — agree on hypothesis
/// (as a set), likelihood and Δ within fp tolerance.
fn assert_engines_agree(a: &Engine, b: &Engine, what: &str) {
    let sorted = |e: &Engine| {
        let mut h = e.hypothesis().to_vec();
        h.sort_unstable();
        h
    };
    assert_eq!(sorted(a), sorted(b), "{}: hypotheses", what);
    assert_eq!(a.n_comps(), b.n_comps());
    let (la, lb) = (a.log_likelihood(), b.log_likelihood());
    assert!(
        (la - lb).abs() < 1e-7 * (1.0 + lb.abs()),
        "{}: ll {} vs {}",
        what,
        la,
        lb
    );
    for (c, (x, y)) in a.delta().iter().zip(b.delta()).enumerate() {
        assert_eq!(a.global_comp(c as u32), b.global_comp(c as u32));
        assert!(
            (x - y).abs() < 1e-7 * (1.0 + y.abs()),
            "{}: comp {} delta {} vs {}",
            what,
            c,
            x,
            y
        );
    }
}

/// Pairs of observationally equivalent components (Fig. 5c): the same
/// evidence sets, and non-zero Δ entries that are the same bits in `e`
/// because both receive the same terms in the same order. Equal bits
/// alone are not equivalence: two links whose evidence differs in one
/// traced singleton set of equal score sum the same terms in different
/// orders, which ties in one engine state and rounds apart in another.
fn exact_ties(e: &Engine) -> Vec<(usize, usize)> {
    let d = e.delta();
    let sets = |c: usize| e.convicting_evidence(c as CompIdx).sets;
    let mut ties = Vec::new();
    for i in 0..d.len() {
        for j in i + 1..d.len() {
            if d[i] != 0.0 && d[i].to_bits() == d[j].to_bits() && sets(i) == sets(j) {
                ties.push((i, j));
            }
        }
    }
    ties
}

/// Global ids of the components with *positive* evidence among the
/// `accepted` observations of `obs`, brute force off the arena and the
/// topology: every link, and switch end of a link, on a path of the set
/// or on the prefix (the member extras) of an observation with
/// `flow_score(sent, bad) > 0`. Unroutable observations carry no
/// evidence.
fn positively_evidenced(
    topo: &Topology,
    obs: &ObservationSet,
    accepted: &[u32],
    params: &HyperParams,
) -> std::collections::HashSet<CompIdx> {
    let space = ComponentSpace::new(topo);
    let mut out = std::collections::HashSet::new();
    for &i in accepted {
        let o = &obs.flows[i as usize];
        let members = obs.arena.members(o.set);
        if members.is_empty() || flow_score(params, o.sent, o.bad) <= 0.0 {
            continue;
        }
        let paths = members.iter().flatten();
        for &l in paths.chain(o.prefix.iter().flatten()) {
            out.insert(space.link_comp(l));
            let lk = topo.link(l);
            out.extend(
                [lk.src, lk.dst]
                    .iter()
                    .filter_map(|&e| space.device_comp(e)),
            );
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Evidence support: every component a converged `FlockGreedy`
    /// verdict blames lies on the set, or is a member extra, of some
    /// accepted observation with a positive flow score. `LLF(b)` moves
    /// with `b` in the direction of the score's sign, so Δ(c) > 0 needs
    /// such evidence, and the negative prior forbids adding a component
    /// without it (or keeping one: removing it reclaims the prior). Three
    /// epochs over one engine, for full and filtered engines: a cold
    /// search over 1–2 lossy fabric links; a search warm-seeded with that
    /// verdict through `try_bind`; and, after the links heal (only stray
    /// single losses remain), a search seeded with the faulty epoch's
    /// verdict, whose evidence the heal removed.
    #[test]
    fn verdicts_blame_only_components_with_positive_evidence(
        seed in 0u64..1000,
        filtered in any::<bool>(),
        mixed in any::<bool>(),
    ) {
        let topo = three_pod_clos();
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let fabric = topo.fabric_links();
        let kinds: &[InputKind] = if mixed {
            &[InputKind::A2, InputKind::P]
        } else {
            &[InputKind::P]
        };
        let params = HyperParams::default();
        let greedy = FlockGreedy::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let faulty: Vec<LinkId> = (0..rng.random_range(1..=2usize))
            .map(|_| fabric[rng.random_range(0..fabric.len())])
            .collect();
        let mut asm = Assembler::new();
        let mut terms = TermDirectory::new(&params);
        let mut table = EpochFlowTable::new();
        let mut engine = Engine::unbound(&topo, params);
        let mut verdict: Vec<CompIdx> = Vec::new();
        for epoch in 0..3 {
            let lossy: &[LinkId] = if epoch < 2 { &faulty } else { &[] };
            let traffic: Vec<MonitoredFlow> = (0..120)
                .map(|i| {
                    let (s, d, tp) = random_route(&topo, &router, &hosts, &mut rng);
                    let crossings = tp.iter().filter(|l| lossy.contains(l)).count() as u64;
                    let stray = u64::from(rng.random::<f64>() < 0.1);
                    passive_flow(s, d, i, 100, crossings * 8 + stray, tp)
                })
                .collect();
            let obs = asm.assemble(&topo, &router, &traffic, kinds, AnalysisMode::PerPacket);
            let accepted = accept_list(&obs, filtered);
            table.rebuild(&mut terms, &obs);
            if epoch == 2 {
                prop_assert!(!verdict.is_empty(), "the faulty epoch blamed something to heal");
            }
            engine.try_bind(&topo, &obs, &accepted, &table, &verdict).unwrap();
            let picked = if epoch == 0 {
                greedy.search(&mut engine).0
            } else {
                greedy.search_warm(&mut engine, &[]).0
            };
            verdict = picked.iter().map(|&(c, _)| engine.global_comp(c)).collect();
            let support = positively_evidenced(&topo, &obs, &accepted, &params);
            for &g in &verdict {
                prop_assert!(
                    support.contains(&g),
                    "epoch {}: {:?} blamed without positive evidence",
                    epoch,
                    engine.space().component(g)
                );
            }
            asm.recycle(obs);
        }
    }

    /// The initial Δ the engine assembles from its cached per-set
    /// structure (g-ladder, comp→ladder index) and the epoch's
    /// super-flows is bit-equal to the from-scratch path sweep — on the
    /// cold build and on every rebind over a view that keeps growing
    /// (each epoch adds hosts, so later epochs first-see new sets), for
    /// full and filtered engines.
    #[test]
    fn cached_initial_delta_is_bit_equal_to_path_sweep(
        seed in 0u64..1000,
        filtered in any::<bool>(),
        mixed in any::<bool>(),
    ) {
        let topo = three_tier(ClosParams {
            pods: 3,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            spines_per_plane: 2,
            hosts_per_tor: 2,
        });
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let kinds: &[InputKind] = if mixed {
            &[InputKind::A2, InputKind::P]
        } else {
            &[InputKind::P]
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut asm = Assembler::new();
        let mut terms = TermDirectory::new(&HyperParams::default());
        let mut table = EpochFlowTable::new();
        let mut e = Engine::unbound(&topo, HyperParams::default());
        let mut sets_seen = Vec::new();
        const EPOCHS: usize = 4;
        for epoch in 0..EPOCHS {
            let reach = hosts.len() * (epoch + 1) / EPOCHS;
            let traffic = epoch_traffic(&topo, &router, &hosts[..reach], &mut rng, 60);
            let obs = asm.assemble(&topo, &router, &traffic, kinds, AnalysisMode::PerPacket);
            let accepted = accept_list(&obs, filtered);
            table.rebuild(&mut terms, &obs);
            e.try_bind(&topo, &obs, &accepted, &table, &[]).unwrap();
            let expect = initial_delta_by_path_sweep(&topo, &obs, &accepted, &e);
            prop_assert_eq!(e.delta().len(), expect.len());
            for (c, (got, want)) in e.delta().iter().zip(&expect).enumerate() {
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "epoch {} comp {}: cached {} vs swept {}", epoch, c, got, want
                );
            }
            // Leave a hypothesis behind for the next rebind to clear.
            let n = e.n_comps() as u32;
            if n > 0 {
                e.flip(rng.random_range(0..n));
                e.flip(rng.random_range(0..n));
            }
            sets_seen.push(e.n_sets());
            asm.recycle(obs);
        }
        prop_assert!(
            sets_seen[EPOCHS - 1] > sets_seen[1] && sets_seen[1] > sets_seen[0],
            "later epochs must first-see sets: {:?}", sets_seen
        );
    }

    /// Binding *at* a seed hypothesis is binding at the empty one and
    /// flipping the seed in — without the flips. On a cold build and on
    /// every rebind over a view that first grows and then goes quiet
    /// (the last epoch's traffic shrinks to a corner of the fabric, so
    /// earlier components keep their local ids but lose their evidence),
    /// for full and filtered engines,
    /// with seeds mixing fabric links, devices, host links (prefix
    /// extras), components the engine has never seen, components it has
    /// no evidence for this epoch, and duplicates: the hypothesis is the
    /// seed; likelihood and every Δ entry are the brute-force values and
    /// agree with the flip reference; components the flip reference ties
    /// exactly stay exactly tied; and a further flip keeps Δ maintained.
    #[test]
    fn seeded_bind_equals_brute_force_and_flip_reference(
        seed in 0u64..1000,
        filtered in any::<bool>(),
        mixed in any::<bool>(),
    ) {
        let topo = three_pod_clos();
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let kinds: &[InputKind] = if mixed {
            &[InputKind::A2, InputKind::P]
        } else {
            &[InputKind::P]
        };
        let params = HyperParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut asm = Assembler::new();
        let mut terms = TermDirectory::new(&params);
        let mut table = EpochFlowTable::new();
        // Twin engines: one binds at the seed, the other at the empty
        // hypothesis and flips its way there.
        let mut e = Engine::unbound(&topo, params);
        let mut r = Engine::unbound(&topo, params);
        let mut sets_seen = Vec::new();
        let mut unseen = 0;
        let mut quiet = 0;
        const EPOCHS: usize = 5;
        for epoch in 0..EPOCHS {
            let reach = if epoch + 1 < EPOCHS {
                hosts.len() * (epoch + 1) / (EPOCHS - 1)
            } else {
                hosts.len() / 4
            };
            let traffic = epoch_traffic(&topo, &router, &hosts[..reach], &mut rng, 60);
            let obs = asm.assemble(&topo, &router, &traffic, kinds, AnalysisMode::PerPacket);
            let accepted = accept_list(&obs, filtered);
            table.rebuild(&mut terms, &obs);

            // Global ids: random components of the whole fabric, one the
            // engine has met before (if any), and a duplicate.
            let n_global = ComponentSpace::new(&topo).n_comps() as u32;
            let mut hyp: Vec<CompIdx> = (0..rng.random_range(1..5usize))
                .map(|_| rng.random_range(0..n_global))
                .collect();
            if e.n_comps() > 0 {
                hyp.push(e.global_comp(rng.random_range(0..e.n_comps() as u32)));
            }
            hyp.push(hyp[0]);

            e.try_bind(&topo, &obs, &accepted, &table, &hyp).unwrap();
            r.try_bind(&topo, &obs, &accepted, &table, &[]).unwrap();
            let (e, r) = (&mut e, &mut r);
            let ties_at_empty = exact_ties(r);
            let mut expect: Vec<CompIdx> = Vec::new();
            for &g in &hyp {
                match r.local_comp(g) {
                    Some(c) if !r.in_hypothesis(c) => {
                        if r.convicting_evidence(c).super_flows == 0 {
                            quiet += 1;
                        }
                        r.flip(c);
                        expect.push(c);
                    }
                    Some(_) => {}
                    None => unseen += 1,
                }
            }
            prop_assert_eq!(e.hypothesis(), &expect[..], "epoch {}: the seed, in order", epoch);
            assert_delta_is_brute_force(e, &format!("epoch {epoch}, seeded bind"));
            assert_engines_agree(e, r, &format!("epoch {epoch}, seeded vs flipped"));
            // Equivalent components: tied before the seed went in and
            // still tied in the flip reference ⇒ tied in the seeded bind.
            let still: Vec<_> = exact_ties(r)
                .into_iter()
                .filter(|t| ties_at_empty.contains(t))
                .collect();
            for (i, j) in still {
                prop_assert_eq!(
                    e.delta()[i].to_bits(), e.delta()[j].to_bits(),
                    "epoch {}: comps {} and {} tie in the flip reference", epoch, i, j
                );
            }
            // JLE maintenance carries on from the seeded state: one more
            // add, then a removal of a seeded component.
            let n = e.n_comps() as u32;
            let mut walk = vec![rng.random_range(0..n)];
            walk.extend(expect.first());
            for c in walk {
                let (de, dr) = (e.flip(c), r.flip(c));
                prop_assert!((de - dr).abs() < 1e-7 * (1.0 + dr.abs()));
                assert_delta_is_brute_force(e, &format!("epoch {epoch}, flip({c}) after seed"));
                assert_engines_agree(e, r, &format!("epoch {epoch}, after flip({c})"));
            }
            // And the warm search moves on from it the same way: both
            // argmax biases were entered with the seed, so the best move
            // and the best addition pay the same gains in both engines
            // (a random seed is mostly wrong: the best moves are
            // removals). Both take the reference's pick, so a near-tie
            // broken differently cannot fork the walks.
            for _ in 0..16 {
                let gain = |m: Option<(CompIdx, f64)>| m.map_or(f64::NEG_INFINITY, |(_, g)| g);
                let (ae, ar) = (gain(e.argmax_addable()), gain(r.argmax_addable()));
                prop_assert!(ae == ar || (ae - ar).abs() < 1e-7 * (1.0 + ar.abs()));
                let Some((c, gr)) = r.argmax_move() else { break };
                let ge = gain(e.argmax_move());
                prop_assert!(
                    (ge - gr).abs() < 1e-7 * (1.0 + gr.abs()),
                    "epoch {}: best move pays {} seeded vs {} flipped", epoch, ge, gr
                );
                if gr <= 0.0 {
                    break;
                }
                e.flip(c);
                r.flip(c);
            }
            sets_seen.push(e.n_sets());
            asm.recycle(obs);
        }
        prop_assert!(
            sets_seen[3] > sets_seen[1] && sets_seen[1] > sets_seen[0],
            "later epochs must first-see sets: {:?}", sets_seen
        );
        // The seed kinds the doc promises did occur (deterministic per
        // case: the traffic and the seeds come from the case's rng).
        prop_assert!(unseen + quiet > 0, "no unseen or evidence-less seed in the run");
    }

    /// One flow table per epoch ≡ per-engine keying, bitwise. An engine
    /// reading tables built over a long-lived shared directory agrees to
    /// the bit — likelihood, Δ, along a flip — with an engine keying the
    /// same epochs itself; and an engine that first meets its keys epochs
    /// after the directory minted them (so it computes its ladders from
    /// the score instead of copying minted ones) agrees to the bit with
    /// a fresh engine that mints them all.
    #[test]
    fn shared_flow_table_is_bit_equal_to_private_keying(
        seed in 0u64..1000,
    ) {
        let topo = three_pod_clos();
        let router = Router::new(&topo);
        let hosts = topo.hosts().to_vec();
        let kinds = [InputKind::A2, InputKind::P];
        let params = HyperParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut asm = Assembler::new();
        let mut terms = TermDirectory::new(&params);
        let mut table = EpochFlowTable::new();
        let mut shared = Engine::unbound(&topo, params);
        let mut private = Engine::unbound(&topo, params);
        let bits = |e: &Engine| {
            let d: Vec<u64> = e.delta().iter().map(|x| x.to_bits()).collect();
            (e.log_likelihood().to_bits(), d, e.term_table_sizes())
        };
        for epoch in 0..3 {
            let traffic = epoch_traffic(&topo, &router, &hosts, &mut rng, 60);
            let obs = asm.assemble(&topo, &router, &traffic, &kinds, AnalysisMode::PerPacket);
            let all = accept_list(&obs, false);
            table.rebuild(&mut terms, &obs);
            shared.try_bind(&topo, &obs, &all, &table, &[]).unwrap();
            private.rebind(&topo, &obs);
            prop_assert_eq!(bits(&shared), bits(&private), "epoch {}", epoch);
            let c = rng.random_range(0..shared.n_comps() as u32);
            prop_assert_eq!(shared.flip(c).to_bits(), private.flip(c).to_bits());
            prop_assert_eq!(bits(&shared), bits(&private), "epoch {} after flip({})", epoch, c);

            if epoch == 2 {
                // A latecomer over the shared directory vs a fresh
                // engine: same first-touch order, so same local ids.
                let mut late = Engine::unbound(&topo, params);
                late.try_bind(&topo, &obs, &all, &table, &[]).unwrap();
                let fresh = built(&topo, &obs);
                prop_assert!(
                    late.term_table_sizes().0 > table.minted(),
                    "the palette repeats: most keys were minted in epochs 0 and 1"
                );
                prop_assert_eq!(bits(&late), bits(&fresh));
            }
            asm.recycle(obs);
        }
    }

    /// The central JLE invariant under arbitrary flip walks.
    #[test]
    fn delta_equals_brute_force_after_any_flip_walk(
        seed in 0u64..1000,
        flips in prop::collection::vec(any::<u16>(), 1..10),
        mixed in any::<bool>(),
    ) {
        let kinds: &[InputKind] = if mixed {
            &[InputKind::A2, InputKind::P]
        } else {
            &[InputKind::P]
        };
        let (topo, obs) = random_obs(seed, 40, kinds);
        let mut engine = Engine::new(&topo, &obs, HyperParams::default());
        let n = engine.n_comps() as u32;
        for &f in &flips {
            engine.flip(f as u32 % n);
        }
        let h = engine.hypothesis().to_vec();
        let base = engine.ll_of(&h);
        prop_assert!((base - engine.log_likelihood()).abs() < 1e-6);
        // Check a deterministic sample of components (all would be slow).
        for c in (0..n).step_by(7) {
            let mut h2 = h.clone();
            match h2.iter().position(|&x| x == c) {
                Some(p) => { h2.remove(p); }
                None => h2.push(c),
            }
            let expect = engine.ll_of(&h2) - base;
            let got = engine.delta()[c as usize];
            prop_assert!(
                (expect - got).abs() < 1e-6 * (1.0 + expect.abs()),
                "comp {}: delta {} vs brute {}", c, got, expect
            );
        }
    }

    /// Coalescing invariance: for random observation sets, the engine's
    /// log-likelihood and Δ array equal the raw-flow reference's — one
    /// likelihood term per observation, no super-flows — at the bind and
    /// along an arbitrary flip walk, and every flip gains what the
    /// reference says. The collapse of equal `(set, sent, bad)` evidence
    /// keys into weighted super-flows is exact, not an approximation.
    #[test]
    fn coalescing_is_invariant(
        seed in 0u64..1000,
        flips in prop::collection::vec(any::<u16>(), 0..8),
        quantized in any::<bool>(),
        mixed in any::<bool>(),
    ) {
        let kinds: &[InputKind] = if mixed {
            &[InputKind::A2, InputKind::P]
        } else {
            &[InputKind::P]
        };
        let (topo, obs) = random_obs_sized(seed, 60, kinds, quantized);
        let mut co = built(&topo, &obs);
        let raw = RawFlows::new(&topo, &obs, co.params());
        prop_assert!(co.n_flows() <= co.n_observations());
        prop_assert_eq!(co.n_observations(), raw.flows.len());
        let mut ll = assert_matches_raw(&co, &raw, 1e-7, "bind");

        let n = co.n_comps() as u32;
        for &f in &flips {
            let c = f as u32 % n;
            let gain = co.flip(c);
            let after = assert_matches_raw(&co, &raw, 1e-7, &format!("after flip({c})"));
            prop_assert!((gain - (after - ll)).abs() < 1e-7 * (1.0 + (after - ll).abs()),
                "flip({}) gain {} vs raw {}", c, gain, after - ll);
            ll = after;
        }
    }

    /// llf is bounded between its endpoints and exact at them.
    #[test]
    fn llf_bounds(score in -500.0f64..500.0, w in 1u32..64, b_frac in 0.0f64..1.0) {
        let b = ((w as f64) * b_frac) as u32;
        let v = llf(score, w, b.min(w));
        prop_assert!(v.is_finite());
        let lo = score.min(0.0);
        let hi = score.max(0.0);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "llf {} outside [{}, {}]", v, lo, hi);
        prop_assert_eq!(llf(score, w, 0), 0.0);
        prop_assert!((llf(score, w, w) - score).abs() < 1e-12);
    }

    /// The term table is a memo, not an approximation: every resident
    /// entry equals the direct `llf` evaluation bitwise — whether the
    /// ladder was copied from the table of the epoch that minted its id
    /// or computed epochs later from the score — re-resolving is a pure
    /// hit (same offset, no growth), and offsets stay valid as the table
    /// extends.
    #[test]
    fn term_table_matches_llf_bitwise(
        sent in 1u64..5000,
        bad_frac in 0.0f64..1.0,
        w in 1u32..64,
    ) {
        let params = HyperParams::default();
        let bad = ((sent as f64) * bad_frac) as u64;
        // Two observations of `(sent, bad)`: over a set of `w` paths and
        // over one of `w + 1`.
        let mut arena = PathArena::new();
        let paths: Vec<[LinkId; 1]> = (0..=w).map(|l| [LinkId(l)]).collect();
        let flows = [&paths[..w as usize], &paths[..]]
            .map(|members| FlowObs {
                prefix: [None, None],
                set: arena.intern_set(PathSet::from_paths(members)),
                sent,
                bad,
                weight: 1,
            })
            .to_vec();
        let obs = ObservationSet { arena: arena.into(), flows, mode: AnalysisMode::PerPacket };
        let mut dir = TermDirectory::new(&params);
        let mut minting = EpochFlowTable::new();
        minting.rebuild(&mut dir, &obs);
        let mut later = EpochFlowTable::new();
        later.rebuild(&mut dir, &obs);
        prop_assert_eq!((minting.minted(), later.minted()), (2, 0));

        for table in [&minting, &later] {
            let (id, score) = table.term(0);
            prop_assert_eq!(score.to_bits(), flow_score(&params, sent, bad).to_bits());
            let mut t = TermTable::new();
            t.bind(table);
            let off = t.resolve(id, score, w, table);
            for b in 0..=w {
                prop_assert_eq!(
                    t.values()[(off + b) as usize].to_bits(),
                    llf(score, w, b).to_bits(),
                    "entry b={}", b
                );
            }
            let (entries, tables) = (t.entries(), t.tables());
            prop_assert_eq!(t.resolve(id, score, w, table), off);
            prop_assert_eq!(t.entries(), entries);
            prop_assert_eq!(t.tables(), tables);
            // A different key extends the table without moving the old one.
            let (wider, _) = table.term(1);
            prop_assert_ne!(wider, id);
            let off2 = t.resolve(wider, score, w + 1, table);
            prop_assert!(off2 >= entries as u32);
            prop_assert_eq!(
                t.values()[(off + w) as usize].to_bits(),
                llf(score, w, w).to_bits()
            );
        }
    }

    /// Greedy equals bounded exhaustive search when failures sit on
    /// disjoint devices with clear evidence (the Theorem 2 regime).
    #[test]
    fn greedy_matches_exhaustive_on_separable_instances(seed in 0u64..300) {
        let topo = leaf_spine(LeafSpineParams { spines: 3, leaves: 3, hosts_per_leaf: 2 });
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        let fabric = topo.fabric_links();
        // 1-2 failed links on disjoint devices.
        let k = rng.random_range(1..=2usize);
        let mut bad: Vec<LinkId> = Vec::new();
        let mut guard = 0;
        while bad.len() < k && guard < 1000 {
            guard += 1;
            let l = fabric[rng.random_range(0..fabric.len())];
            let lk = topo.link(l);
            if bad.iter().all(|&b| {
                let bl = topo.link(b);
                lk.src != bl.src && lk.src != bl.dst && lk.dst != bl.src && lk.dst != bl.dst
            }) {
                bad.push(l);
            }
        }
        let hosts = topo.hosts().to_vec();
        let mut flows = Vec::new();
        for i in 0..400usize {
            let (s, d, tp) = random_route(&topo, &router, &hosts, &mut rng);
            let crossings = tp.iter().filter(|l| bad.contains(l)).count() as u64;
            flows.push(passive_flow(s, d, i, 1000, crossings * 6, tp));
        }
        let obs = assemble(&topo, &router, &flows, &[InputKind::Int], AnalysisMode::PerPacket);
        let mut e = SherlockFerret::with_jle(HyperParams::default(), 2)
            .localize(&topo, &obs).predicted;
        let mut g = FlockGreedy::default().localize(&topo, &obs).predicted;
        e.sort();
        g.sort();
        prop_assert_eq!(e, g);
    }
}

/// Coalescing is exact on traffic built to coalesce hard — fixed-size
/// flows, a handful of drop counts, many host pairs per ToR pair: the
/// engine's likelihood and entire Δ array equal the raw-flow reference,
/// at the bind and along a flip walk that exercises fabric components,
/// extras and a removal.
#[test]
fn coalesced_engine_matches_raw_engine() {
    let topo = three_pod_clos();
    let router = Router::new(&topo);
    let hosts = topo.hosts().to_vec();
    let mut rng = StdRng::seed_from_u64(31);
    let flows: Vec<MonitoredFlow> = (0..200)
        .map(|i| {
            let (s, d, tp) = random_route(&topo, &router, &hosts, &mut rng);
            let bad = [0u64, 0, 0, 1, 3][rng.random_range(0..5usize)];
            passive_flow(s, d, i, 100, bad, tp)
        })
        .collect();
    let kinds = [InputKind::A2, InputKind::P];
    let obs = assemble(&topo, &router, &flows, &kinds, AnalysisMode::PerPacket);
    let mut engine = built(&topo, &obs);
    let raw = RawFlows::new(&topo, &obs, engine.params());
    assert!(
        engine.n_flows() < engine.n_observations(),
        "fixed-size traffic must coalesce: {} super-flows of {} observations",
        engine.n_flows(),
        engine.n_observations()
    );
    assert_eq!(engine.n_observations(), raw.flows.len());
    let mut ll = assert_matches_raw(&engine, &raw, 1e-8, "bind");

    let n = engine.n_comps() as u32;
    // Mix fabric flips with host-link (extras) flips and removals.
    let mut walk: Vec<u32> = (0..10).map(|_| rng.random_range(0..n)).collect();
    walk.push(walk[2]); // guaranteed removal
    for c in walk {
        let gain = engine.flip(c);
        let after = assert_matches_raw(&engine, &raw, 1e-8, &format!("after flip({c})"));
        assert!(
            (gain - (after - ll)).abs() < 1e-8 * (1.0 + (after - ll).abs()),
            "flip({c}) gain {gain} vs raw {}",
            after - ll
        );
        ll = after;
    }
}

/// The first leaf-degraded three-pod Clos (half its fabric cables
/// omitted, seeds in order) with an unroutable leaf pair, and that pair.
fn fabric_with_unroutable_pair() -> (Topology, (NodeId, NodeId)) {
    use flock_topology::irregular::omit_links;
    let base = three_pod_clos();
    for seed in 0..64 {
        let topo = omit_links(&base, 0.5, &mut StdRng::seed_from_u64(seed)).0;
        let pair = {
            let router = Router::new(&topo);
            let leaves: Vec<NodeId> = topo.hosts().iter().map(|&h| topo.host_leaf(h)).collect();
            leaves
                .iter()
                .flat_map(|&a| leaves.iter().map(move |&b| (a, b)))
                .find(|&(a, b)| a != b && router.paths(a, b).is_empty())
        };
        if let Some(pair) = pair {
            return (topo, pair);
        }
    }
    panic!("no seed leaves an unroutable leaf pair");
}

/// An unroutable ToR pair's passive flows assemble to zero-width sets,
/// one per ordered pair (the assembler's per-pair cache hands each its
/// own empty set), and carry no evidence: the engine counts none of them,
/// and its likelihood, Δ and greedy verdict are bit-for-bit those of the
/// same traffic without them.
#[test]
fn unroutable_pair_flows_carry_no_evidence() {
    let (topo, (a, b)) = fabric_with_unroutable_pair();
    let router = Router::new(&topo);
    let hosts = topo.hosts().to_vec();
    let mut rng = StdRng::seed_from_u64(5);
    let fabric = topo.fabric_links();
    let lossy = fabric[rng.random_range(0..fabric.len())];
    let mut flows = Vec::new();
    while flows.len() < 150 {
        let (s, d) = (
            hosts[rng.random_range(0..hosts.len())],
            hosts[rng.random_range(0..hosts.len())],
        );
        let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
        if s == d || paths.is_empty() {
            continue;
        }
        let mut tp = vec![topo.host_uplink(s)];
        tp.extend_from_slice(&paths[rng.random_range(0..paths.len())]);
        tp.push(topo.host_downlink(d));
        let bad = if tp.contains(&lossy) {
            6
        } else {
            u64::from(rng.random::<f64>() < 0.1)
        };
        flows.push(passive_flow(s, d, flows.len(), 100, bad, tp));
    }
    let routed = flows.len();
    // Both directions of the unroutable pair, some with drops; a record of
    // an unroutable pair carries no path.
    let on = |leaf: NodeId| {
        hosts
            .iter()
            .copied()
            .find(|&h| topo.host_leaf(h) == leaf)
            .unwrap()
    };
    let (ha, hb) = (on(a), on(b));
    for (i, (s, d, bad)) in [(ha, hb, 0), (hb, ha, 9), (ha, hb, 3)]
        .into_iter()
        .enumerate()
    {
        flows.push(passive_flow(s, d, routed + i, 100, bad, Vec::new()));
    }
    let kinds = [InputKind::A2, InputKind::P];
    let all = assemble(&topo, &router, &flows, &kinds, AnalysisMode::PerPacket);
    let without = assemble(
        &topo,
        &router,
        &flows[..routed],
        &kinds,
        AnalysisMode::PerPacket,
    );
    let mut empty: Vec<u32> = all
        .flows
        .iter()
        .filter(|o| all.arena.members(o.set).is_empty())
        .map(|o| o.set.0)
        .collect();
    assert_eq!(
        empty.len(),
        3,
        "every unroutable flow is a zero-width observation"
    );
    assert_eq!(all.flows.len(), without.flows.len() + 3);
    empty.dedup();
    assert_eq!(empty.len(), 2, "one empty set per ordered pair");

    let (e_all, e_without) = (built(&topo, &all), built(&topo, &without));
    assert_eq!(e_all.n_observations(), without.flows.len());
    assert_eq!(e_all.n_flows(), e_without.n_flows());
    assert_eq!(e_all.n_comps(), e_without.n_comps());
    assert_eq!(
        e_all.log_likelihood().to_bits(),
        e_without.log_likelihood().to_bits()
    );
    for g in 0..e_all.n_global_comps() as u32 {
        let bits = |e: &Engine| e.local_comp(g).map(|c| e.delta()[c as usize].to_bits());
        assert_eq!(bits(&e_all), bits(&e_without), "global comp {g}");
    }
    let greedy = FlockGreedy::default();
    let verdict = greedy.localize(&topo, &all).predicted;
    assert!(
        !verdict.is_empty(),
        "the lossy link leaves something to blame"
    );
    assert_eq!(verdict, greedy.localize(&topo, &without).predicted);
}
