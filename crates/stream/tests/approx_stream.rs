//! Stream-level contract of approximate evidence coalescing:
//!
//! * exact coalescing stays the default — `StreamConfig::paper_default()`
//!   runs `CoalesceMode::Exact` and every shard reports zero drift with a
//!   trivially-true exactness certificate;
//! * an approximate pipeline surfaces the drift bound / decision margin
//!   per shard, flags `proven_exact` by exactly the
//!   `margin > 2 · drift_bound` rule, and on a steady gray-link scenario
//!   produces the same verdicts as the exact pipeline.

use flock_netsim::failure::{self, DEFAULT_NOISE_MAX};
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{EpochConfig, StreamConfig, StreamPipeline};
use flock_telemetry::{AnalysisMode, CoalesceMode, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Router, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture(seed: u64, epochs: u64, flows_n: usize) -> (Topology, Vec<Vec<MonitoredFlow>>) {
    let topo = three_tier(ClosParams::tiny());
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = failure::silent_link_drops(&topo, 1, (0.02, 0.03), DEFAULT_NOISE_MAX, &mut rng);
    let flows = (0..epochs)
        .map(|_| {
            let demands = generate_demands(
                &topo,
                &TrafficConfig::paper(flows_n, TrafficPattern::Uniform),
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
    (topo, flows)
}

fn config(mode: CoalesceMode) -> StreamConfig {
    StreamConfig {
        epoch: EpochConfig::tumbling(1_000),
        kinds: vec![InputKind::A2, InputKind::P],
        mode: AnalysisMode::PerPacket,
        shard_by_pod: true,
        coalesce_mode: mode,
        ..StreamConfig::paper_default()
    }
}

/// Exact is the default, and exact shards report a zero drift bound with
/// the certificate trivially true.
#[test]
fn paper_default_is_exact_with_zero_drift() {
    assert_eq!(
        StreamConfig::paper_default().coalesce_mode,
        CoalesceMode::Exact
    );

    let (topo, epochs) = fixture(41, 2, 1_500);
    let mut pipe = StreamPipeline::new(&topo, config(CoalesceMode::Exact));
    for (i, flows) in epochs.iter().enumerate() {
        let i = i as u64;
        let report = pipe.run_flows(i, i * 1_000, (i + 1) * 1_000, flows);
        for shard in &report.shards {
            assert_eq!(
                shard.drift_bound, 0.0,
                "exact shard {} reported nonzero drift",
                shard.label
            );
            assert!(
                shard.proven_exact,
                "exact shard {} must be trivially certified",
                shard.label
            );
        }
    }
}

/// Approximate pipelines surface per-shard drift accounting, flag
/// `proven_exact` by exactly the `margin > 2 · drift_bound` rule, and
/// match the exact pipeline's verdicts on a steady gray-link scenario.
#[test]
fn approx_pipeline_reports_drift_and_matches_exact_verdicts() {
    let (topo, epochs) = fixture(42, 3, 2_000);
    let mut exact_pipe = StreamPipeline::new(&topo, config(CoalesceMode::Exact));
    let mut approx_pipe = StreamPipeline::new(&topo, config(CoalesceMode::approx_default()));

    for (i, flows) in epochs.iter().enumerate() {
        let i = i as u64;
        let ex = exact_pipe.run_flows(i, i * 1_000, (i + 1) * 1_000, flows);
        let ap = approx_pipe.run_flows(i, i * 1_000, (i + 1) * 1_000, flows);

        for shard in &ap.shards {
            assert!(shard.drift_bound >= 0.0);
            assert!(shard.margin >= 0.0);
            assert_eq!(
                shard.proven_exact,
                shard.drift_bound == 0.0 || shard.margin > 2.0 * shard.drift_bound,
                "shard {} certificate disagrees with the margin rule \
                 (drift {}, margin {})",
                shard.label,
                shard.drift_bound,
                shard.margin
            );
        }

        let mut pe = ex.result.predicted.clone();
        let mut pa = ap.result.predicted.clone();
        pe.sort();
        pa.sort();
        assert_eq!(pa, pe, "epoch {i}: approximate verdict diverged from exact");
    }
}
