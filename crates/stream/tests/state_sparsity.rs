//! State-sparsity regression test for the per-shard view layer: each
//! shard engine's *allocated* state (sets / paths / components / Δ
//! length) must be proportional to the shard's own evidence, never to
//! the global arena. This is the invariant the `ArenaView` projection
//! exists to provide.

use flock_netsim::failure::{self, DEFAULT_NOISE_MAX};
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{EpochConfig, EpochReport, ShardKind, StreamConfig, StreamPipeline};
use flock_telemetry::{AnalysisMode, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Router, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A wide-ish fixture: 4 pods, so any one pod shard's slice is a clear
/// minority of the global arena.
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

/// Run `epochs` epochs through a fresh pipeline and return the last
/// report.
fn last_report(topo: &Topology, shard_by_pod: bool, epochs: &[Vec<MonitoredFlow>]) -> EpochReport {
    let mut pipe = StreamPipeline::new(
        topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(1_000),
            kinds: vec![InputKind::Int],
            mode: AnalysisMode::PerPacket,
            shard_by_pod,
            ..StreamConfig::paper_default()
        },
    );
    let mut last = None;
    for (i, flows) in epochs.iter().enumerate() {
        let i = i as u64;
        last = Some(pipe.run_flows(i, i * 1_000, (i + 1) * 1_000, flows));
    }
    last.expect("at least one epoch")
}

/// Pod engines view only the sets their pod's flows touch, and the
/// spine engine only the sets that cross the spine tier — never the
/// whole arena a single engine views.
#[test]
fn shard_engine_state_tracks_shard_local_evidence() {
    let topo = wide_clos();
    let mut rng = StdRng::seed_from_u64(42);
    let epochs: Vec<Vec<MonitoredFlow>> = (0..3)
        .map(|_| epoch_flows(&topo, &mut rng, 4_000))
        .collect();
    let report = last_report(&topo, true, &epochs);
    let whole = last_report(&topo, false, &epochs);
    assert_eq!(report.shards.len(), 5, "4 pods + spine");
    let all_sets = whole.shards[0].state.sets;

    // The all-shards set total bounds the arena set count from above
    // (every set is viewed by at least one shard; straddlers by
    // several).
    let arena_sets_upper: usize = report.shards.iter().map(|s| s.state.sets).sum();
    for s in &report.shards {
        match s.kind {
            // (Component sparsity is not structural for pods under
            // uniform all-to-all traffic — a pod's flows eventually
            // touch every other pod's components — so only the
            // set/path dimension is gated here.)
            ShardKind::Pod(_) => assert!(
                s.state.sets * 2 < arena_sets_upper,
                "{}: pod views {} of ≤{} total viewed sets",
                s.label,
                s.state.sets,
                arena_sets_upper
            ),
            // Traced intra-pod paths never reach a spine, so the spine
            // view holds strictly fewer sets than the whole arena.
            ShardKind::Spine => assert!(
                s.state.sets < all_sets,
                "spine views {} of the arena's {all_sets} sets — intra-pod \
                 evidence must stay out of its view",
                s.state.sets
            ),
            ShardKind::All => unreachable!("by-pod plan has no `all` shard"),
        }
    }
}
