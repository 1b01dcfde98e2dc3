//! Multi-epoch pipeline tests over dynamic failure scenarios: the
//! warm-started, sharded stream layer must track faults as they appear,
//! persist, and heal.

use flock_core::evaluate;
use flock_netsim::dynamic::DynamicScenario;
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{EpochConfig, StreamConfig, StreamPipeline};
use flock_telemetry::{AnalysisMode, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Router, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pods3() -> Topology {
    three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    })
}

/// One epoch of simulated telemetry under the scenario active at `epoch`.
fn epoch_flows(
    topo: &Topology,
    router: &Router<'_>,
    sc: &DynamicScenario,
    epoch: u64,
    flows_n: usize,
    rng: &mut StdRng,
) -> Vec<MonitoredFlow> {
    let snapshot = sc.scenario_at(epoch);
    let demands = generate_demands(
        topo,
        &TrafficConfig::paper(flows_n, TrafficPattern::Uniform),
        rng,
    );
    simulate_flows(
        topo,
        router,
        &snapshot,
        &demands,
        &FlowSimConfig::default(),
        rng,
    )
}

fn cfg(shard: bool) -> StreamConfig {
    StreamConfig {
        epoch: EpochConfig::tumbling(1_000),
        kinds: vec![InputKind::Int],
        mode: AnalysisMode::PerPacket,
        shard_by_pod: shard,
        ..StreamConfig::paper_default()
    }
}

/// `warm = false` is the cold reference: a fresh pipeline per epoch, so
/// every engine is built (and searched) from scratch — the offline
/// behavior the warm path must not diverge from.
fn run(warm: bool, shard: bool) {
    let topo = pods3();
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(40);

    // A hand-built timeline: fault appears at epoch 1, heals at epoch 4.
    let mut sc = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let link = topo.fabric_links()[11];
    sc.events.push(flock_netsim::dynamic::FaultEvent {
        link,
        drop_rate: 0.02,
        appear_epoch: 1,
        heal_epoch: Some(4),
    });

    let mut pipeline = StreamPipeline::new(&topo, cfg(shard));

    for epoch in 0..6u64 {
        let flows = epoch_flows(&topo, &router, &sc, epoch, 3_000, &mut rng);
        if !warm {
            pipeline = StreamPipeline::new(&topo, cfg(shard));
        }
        let report = pipeline.run_flows(epoch, epoch * 1_000, (epoch + 1) * 1_000, &flows);
        let truth = sc.scenario_at(epoch).truth;
        let pr = evaluate(&topo, &report.result.predicted, &truth);
        let active = sc.active_at(epoch);
        if active.is_empty() {
            assert!(
                report.result.predicted.is_empty(),
                "epoch {epoch} (warm={warm}, shard={shard}): clean network must \
                 yield the empty verdict, got {:?}",
                report.result.predicted
            );
        } else {
            assert_eq!(
                pr.recall, 1.0,
                "epoch {epoch} (warm={warm}, shard={shard}): active fault must be \
                 localized; blamed {:?}, truth {:?}",
                report.result.predicted, truth
            );
            assert_eq!(
                pr.precision, 1.0,
                "epoch {epoch} (warm={warm}, shard={shard}): no spurious blame; \
                 got {:?}",
                report.result.predicted
            );
        }
        // Warm engines must actually be warm from the second epoch on;
        // the cold reference never is.
        assert!(
            report.shards.iter().all(|s| s.warm == (warm && epoch > 0)),
            "epoch {epoch} (warm={warm}): got {:?}",
            report.shards.iter().map(|s| s.warm).collect::<Vec<_>>()
        );
    }
}

#[test]
fn warm_pipeline_tracks_appear_persist_heal() {
    run(true, false);
}

#[test]
fn cold_pipeline_tracks_appear_persist_heal() {
    run(false, false);
}

#[test]
fn sharded_warm_pipeline_tracks_appear_persist_heal() {
    run(true, true);
}

/// Warm and cold drivers must agree epoch by epoch on the same telemetry
/// (warm-start is an optimization, not a different model).
#[test]
fn warm_and_cold_agree_on_identical_epochs() {
    let topo = pods3();
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(41);
    let sc = DynamicScenario::generate(&topo, 5, 2, (0.015, 0.02), (2, 3), 1e-4, &mut rng);

    let mut warm_pipe = StreamPipeline::new(&topo, cfg(false));

    for epoch in 0..5u64 {
        let flows = epoch_flows(&topo, &router, &sc, epoch, 3_000, &mut rng);
        let a = warm_pipe.run_flows(epoch, epoch * 1_000, (epoch + 1) * 1_000, &flows);
        let b = StreamPipeline::new(&topo, cfg(false)).run_flows(
            epoch,
            epoch * 1_000,
            (epoch + 1) * 1_000,
            &flows,
        );
        let mut pa = a.result.predicted.clone();
        let mut pb = b.result.predicted.clone();
        pa.sort();
        pb.sort();
        assert_eq!(pa, pb, "epoch {epoch}: warm and cold verdicts diverge");
    }
}
