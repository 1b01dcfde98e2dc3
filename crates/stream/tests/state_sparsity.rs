//! State-sparsity regression tests for the per-shard view layer: each
//! shard engine's *allocated* state (sets / paths / components / Δ
//! length) must be proportional to the shard's own evidence, never to
//! the global arena. This is the invariant the `ArenaView` projection
//! exists to provide — before it, every plane engine allocated and reset
//! O(total arena) arrays per epoch, which capped plane-sharded speedup
//! (ROADMAP, PR 4 follow-up).

use flock_netsim::failure::{self, DEFAULT_NOISE_MAX};
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{EpochConfig, EpochReport, ShardKind, ShardPlan, StreamConfig, StreamPipeline};
use flock_telemetry::{AnalysisMode, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Router, SpinePlanes, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A wide-ish fixture: 4 pods × 3 planes, so any one shard's slice is a
/// clear minority of the global arena.
fn wide_clos() -> Topology {
    three_tier(ClosParams {
        pods: 4,
        tors_per_pod: 2,
        aggs_per_pod: 3,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    })
}

fn epoch_flows(topo: &Topology, rng: &mut StdRng, n: usize) -> Vec<MonitoredFlow> {
    let router = Router::new(topo);
    let sc = failure::silent_link_drops(topo, 1, (0.01, 0.02), DEFAULT_NOISE_MAX, rng);
    let demands = generate_demands(topo, &TrafficConfig::paper(n, TrafficPattern::Uniform), rng);
    simulate_flows(topo, &router, &sc, &demands, &FlowSimConfig::default(), rng)
}

/// Run `epochs` epochs through a pipeline and return the last report.
fn run_epochs(pipe: &mut StreamPipeline<'_>, epochs: &[Vec<MonitoredFlow>]) -> EpochReport {
    let mut last = None;
    for (i, flows) in epochs.iter().enumerate() {
        let i = i as u64;
        last = Some(pipe.run_flows(i, i * 1_000, (i + 1) * 1_000, flows));
    }
    last.expect("at least one epoch")
}

/// Every plane engine's resident state is a strict minority of the
/// single-spine engine's, the plane states partition the spine state
/// (traced evidence), and no shard's component space approaches the
/// global one.
#[test]
fn plane_engine_state_tracks_plane_local_evidence() {
    let topo = wide_clos();
    let planes = SpinePlanes::derive(&topo);
    assert_eq!(planes.n_planes(), 3);
    let mut rng = StdRng::seed_from_u64(42);
    let epochs: Vec<Vec<MonitoredFlow>> = (0..3)
        .map(|_| epoch_flows(&topo, &mut rng, 4_000))
        .collect();

    let cfg = StreamConfig {
        epoch: EpochConfig::tumbling(1_000),
        kinds: vec![InputKind::Int],
        mode: AnalysisMode::PerPacket,
        shard_by_pod: true,
        ..StreamConfig::paper_default()
    };
    let mut planes_pipe = StreamPipeline::new(&topo, cfg.clone());
    let mut spine_pipe =
        StreamPipeline::with_plan(&topo, cfg, ShardPlan::by_pod_single_spine(&topo));
    let plane_report = run_epochs(&mut planes_pipe, &epochs);
    let spine_report = run_epochs(&mut spine_pipe, &epochs);

    let spine = spine_report
        .shards
        .iter()
        .find(|s| s.kind == ShardKind::Spine)
        .expect("single-spine plan has a spine shard");
    let plane_states: Vec<_> = plane_report
        .spine_planes()
        .map(|s| (s.label.clone(), s.state))
        .collect();
    assert_eq!(plane_states.len(), 3);

    // Traced (INT) path sets touch exactly one plane, so the plane
    // views partition the spine view's sets and paths exactly.
    let sum_sets: usize = plane_states.iter().map(|(_, st)| st.sets).sum();
    let sum_paths: usize = plane_states.iter().map(|(_, st)| st.paths).sum();
    assert_eq!(
        sum_sets, spine.state.sets,
        "plane views must partition the spine view's sets"
    );
    assert_eq!(
        sum_paths, spine.state.paths,
        "plane views must partition the spine view's paths"
    );

    // Component footprint of each plane (its spine devices + incident
    // links): a plane engine on traced evidence must hold *none* of the
    // other planes' components, so its local comp space undercuts the
    // single-spine engine's by at least the other planes' footprints.
    let footprint = |p: u16| planes.incident_links(&topo, p).len() + planes.spines_in(p).len();
    let n_planes = plane_states.len();
    for (pi, (label, st)) in plane_states.iter().enumerate() {
        // Each plane holds its share of the spine evidence, with slack
        // for imbalance — not the whole tier.
        assert!(
            st.sets * n_planes <= spine.state.sets * 3 / 2,
            "{label}: {} sets vs spine total {} — state is not \
             proportional to plane-local evidence",
            st.sets,
            spine.state.sets
        );
        let foreign: usize = (0..n_planes as u16)
            .filter(|&q| q != pi as u16)
            .map(footprint)
            .sum();
        assert!(
            st.comps + foreign <= spine.state.comps,
            "{label}: local comps {} must exclude the other planes' \
             footprint ({foreign}) held by the single-spine engine ({})",
            st.comps,
            spine.state.comps
        );
        // The Δ array is exactly the local comp space.
        assert!(st.comps < st.global_comps);
    }

    // Pod shards: a pod engine views only the sets its pod's flows
    // touch — a strict minority of everything viewed. The all-shards
    // set total bounds the arena set count from above (every set is
    // viewed by at least one shard; straddlers by several).
    let arena_sets_upper: usize = plane_report.shards.iter().map(|s| s.state.sets).sum();
    for s in &plane_report.shards {
        if let ShardKind::Pod(_) = s.kind {
            // (Component sparsity is not structural for pods under
            // uniform all-to-all traffic — a pod's flows eventually
            // touch every other pod's components — so only the
            // set/path dimension is gated here.)
            assert!(
                s.state.sets * 2 < arena_sets_upper,
                "{}: pod views {} of ≤{} total viewed sets",
                s.label,
                s.state.sets,
                arena_sets_upper
            );
        }
    }
}

/// A fault confined to one plane leaves the *other* planes' engines
/// with evidence (and state) only from their own slices — localization
/// work stays where the evidence is.
#[test]
fn off_plane_engines_stay_small_under_plane_fault() {
    let topo = wide_clos();
    let planes = SpinePlanes::derive(&topo);
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(7);
    let sc = failure::plane_link_drops(
        &topo,
        &planes,
        0,
        1,
        (0.02, 0.03),
        DEFAULT_NOISE_MAX,
        &mut rng,
    );
    let epochs: Vec<Vec<MonitoredFlow>> = (0..2)
        .map(|_| {
            let demands = generate_demands(
                &topo,
                &TrafficConfig::paper(4_000, TrafficPattern::Uniform),
                &mut rng,
            );
            simulate_flows(
                &topo,
                &router,
                &sc,
                &demands,
                &FlowSimConfig::default(),
                &mut rng,
            )
        })
        .collect();
    let mut pipe = StreamPipeline::new(
        &topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(1_000),
            kinds: vec![InputKind::Int],
            mode: AnalysisMode::PerPacket,
            shard_by_pod: true,
            ..StreamConfig::paper_default()
        },
    );
    let report = run_epochs(&mut pipe, &epochs);
    let states: Vec<_> = report.spine_planes().collect();
    assert_eq!(states.len(), 3);
    let total: usize = states.iter().map(|s| s.state.sets).sum();
    for s in &states {
        assert!(
            s.state.sets * 3 <= total * 2,
            "{}: plane view holds {} of {} spine sets — a plane-confined \
             fault must not inflate other planes' state",
            s.label,
            s.state.sets,
            total
        );
        // The Δ array (comps) of every plane engine stays below the
        // global component space: the fixed per-epoch reset cost is
        // shard-local even while one plane carries the fault.
        assert!(s.state.comps < s.state.global_comps);
    }
}
