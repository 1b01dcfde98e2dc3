//! Ground-truth recall of the by-pod shard plan (one shard per pod plus
//! one spine shard) on plane-confined faults: gray links incident to the
//! spines of one plane, or of two planes at once, must be blamed every
//! epoch, under traced and under passive telemetry.

use flock_core::evaluate;
use flock_netsim::failure::{self, FailureScenario, DEFAULT_NOISE_MAX};
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{EpochConfig, StreamConfig, StreamPipeline};
use flock_telemetry::{AnalysisMode, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Router, SpinePlanes, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn clos(pods: u32, aggs: u32) -> Topology {
    three_tier(ClosParams {
        pods,
        tors_per_pod: 2,
        aggs_per_pod: aggs,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    })
}

fn epoch_flows(
    topo: &Topology,
    router: &Router<'_>,
    sc: &FailureScenario,
    flows_n: usize,
    rng: &mut StdRng,
) -> Vec<MonitoredFlow> {
    let demands = generate_demands(
        topo,
        &TrafficConfig::paper(flows_n, TrafficPattern::Uniform),
        rng,
    );
    simulate_flows(topo, router, sc, &demands, &FlowSimConfig::default(), rng)
}

/// Drive the by-pod pipeline over `epochs` epochs of fresh traffic and
/// require every injected fault to be blamed in every epoch.
fn assert_by_pod_recalls(
    topo: &Topology,
    sc: &FailureScenario,
    kinds: &[InputKind],
    epochs: u64,
    flows_n: usize,
    seed: u64,
) {
    let router = Router::new(topo);
    let cfg = StreamConfig {
        epoch: EpochConfig::tumbling(1_000),
        kinds: kinds.to_vec(),
        mode: AnalysisMode::PerPacket,
        shard_by_pod: true,
        ..StreamConfig::paper_default()
    };
    let mut pipe = StreamPipeline::new(topo, cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    for epoch in 0..epochs {
        let flows = epoch_flows(topo, &router, sc, flows_n, &mut rng);
        let report = pipe.run_flows(epoch, epoch * 1_000, (epoch + 1) * 1_000, &flows);
        let pr = evaluate(topo, &report.result.predicted, &sc.truth);
        assert_eq!(
            pr.recall, 1.0,
            "epoch {epoch} (kinds {kinds:?}): blamed {:?}, truth {:?}",
            report.result.predicted, sc.truth.failed_links
        );
    }
}

/// One gray link in one plane, on a few seeds and both planes.
#[test]
fn by_pod_recalls_one_plane_faults() {
    for seed in [3u64, 17, 40] {
        let topo = clos(3, 2);
        let planes = SpinePlanes::derive(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        let plane = (seed % 2) as u16;
        let sc = failure::plane_link_drops(
            &topo,
            &planes,
            plane,
            1,
            (0.02, 0.03),
            DEFAULT_NOISE_MAX,
            &mut rng,
        );
        for kinds in [vec![InputKind::Int], vec![InputKind::A2, InputKind::P]] {
            assert_by_pod_recalls(&topo, &sc, &kinds, 4, 3_000, seed ^ 0xbeef);
        }
    }
}

/// One gray link in each of two planes at once: the spine shard must
/// blame both.
#[test]
fn by_pod_recalls_two_plane_faults() {
    let topo = clos(3, 2);
    let planes = SpinePlanes::derive(&topo);
    assert_eq!(planes.n_planes(), 2);
    let mut rng = StdRng::seed_from_u64(9);
    let sc = failure::multi_plane_link_drops(
        &topo,
        &planes,
        &[0, 1],
        1,
        (0.02, 0.03),
        DEFAULT_NOISE_MAX,
        &mut rng,
    );
    assert_eq!(sc.truth.failed_links.len(), 2);
    assert_by_pod_recalls(&topo, &sc, &[InputKind::Int], 4, 4_000, 77);
}
