//! Fault containment at the pipeline's isolation boundaries: a
//! panicking shard degrades its own slice of the verdict (and recovers
//! next epoch), a stalled shard surfaces as a deadline truncation, and
//! evidence loss outside the inference path (late records, external
//! faults) marks the affected report `Degraded` instead of silently
//! shipping a verdict built on less evidence than the operator thinks.

use flock_netsim::dynamic::DynamicScenario;
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{
    ChaosHook, DegradeReason, EpochConfig, ShardChaos, StreamConfig, StreamPipeline,
};
use flock_telemetry::{AnalysisMode, DrainBatch, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Router, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn pods3() -> Topology {
    three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    })
}

fn epoch_flows(
    topo: &Topology,
    router: &Router<'_>,
    sc: &DynamicScenario,
    epoch: u64,
    rng: &mut StdRng,
) -> Vec<MonitoredFlow> {
    let snapshot = sc.scenario_at(epoch);
    let demands = generate_demands(
        topo,
        &TrafficConfig::paper(3_000, TrafficPattern::Uniform),
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

fn sharded_cfg() -> StreamConfig {
    StreamConfig {
        epoch: EpochConfig::tumbling(1_000),
        kinds: vec![InputKind::Int],
        mode: AnalysisMode::PerPacket,
        shard_by_pod: true,
        ..StreamConfig::paper_default()
    }
}

/// A shard panic at epoch 2 is contained: the fault's verdict (owned by
/// a *different* shard) is bit-identical to the chaos-free run, the
/// epoch is labeled `Degraded` with the panicked shard and reduced
/// evidence coverage, and the shard rebuilds cold on epoch 3 and is
/// warm again by epoch 4.
#[test]
fn shard_panic_is_contained_and_recovers() {
    let topo = pods3();
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(40);

    // Persistent fault from epoch 1 on; the same flows feed both runs.
    let mut sc = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let link = topo.fabric_links()[11];
    sc.events.push(flock_netsim::dynamic::FaultEvent {
        link,
        drop_rate: 0.02,
        appear_epoch: 1,
        heal_epoch: None,
    });
    let epochs: Vec<Vec<MonitoredFlow>> = (0..5u64)
        .map(|e| epoch_flows(&topo, &router, &sc, e, &mut rng))
        .collect();

    let mut baseline_pipe = StreamPipeline::new(&topo, sharded_cfg());
    let baseline: Vec<_> = epochs
        .iter()
        .enumerate()
        .map(|(e, flows)| {
            let e = e as u64;
            baseline_pipe.run_flows(e, e * 1_000, (e + 1) * 1_000, flows)
        })
        .collect();
    assert!(
        baseline.iter().all(|r| !r.health.is_degraded()),
        "chaos-free run must be healthy every epoch"
    );
    assert!(
        !baseline[2].provenance.is_empty(),
        "the injected fault must be blamed by epoch 2"
    );

    // Panic a shard the fault does NOT belong to, so the convicting
    // shard's verdict must come through bit-identical.
    let convicting = baseline[2].provenance[0].shard.clone();
    let victim = ["pod0", "pod1", "pod2"]
        .iter()
        .find(|&&p| p != convicting)
        .expect("three pod shards, at most one convicting")
        .to_string();
    let hook_victim = victim.clone();
    let mut cfg = sharded_cfg();
    cfg.chaos = Some(ChaosHook::new(move |label, epoch| {
        (label == hook_victim && epoch == 2).then_some(ShardChaos::Panic)
    }));
    let mut chaos_pipe = StreamPipeline::new(&topo, cfg);

    for (e, flows) in epochs.iter().enumerate() {
        let e = e as u64;
        let report = chaos_pipe.run_flows(e, e * 1_000, (e + 1) * 1_000, flows);
        // Verdicts on unaffected scopes are bit-identical to the
        // chaos-free run, chaos epoch included.
        assert_eq!(
            report.result.predicted, baseline[e as usize].result.predicted,
            "epoch {e}: verdict diverged from the chaos-free run"
        );
        assert_eq!(
            report.result.scores, baseline[e as usize].result.scores,
            "epoch {e}: scores diverged from the chaos-free run"
        );
        if e == 2 {
            assert!(report.health.is_degraded(), "panic epoch must degrade");
            assert!(
                report
                    .health
                    .reasons()
                    .contains(&DegradeReason::ShardPanicked {
                        shard: victim.clone()
                    }),
                "missing panic reason, got {:?}",
                report.health.reasons()
            );
            let cov = report.health.evidence_coverage();
            assert!(
                cov > 0.0 && cov < 1.0,
                "panicked shard must cost some (not all) coverage, got {cov}"
            );
            assert_eq!(report.failures.len(), 1);
            assert_eq!(report.failures[0].shard, victim);
            assert!(
                report.failures[0].panic_message.contains("chaos"),
                "panic payload should surface, got {:?}",
                report.failures[0].panic_message
            );
            assert!(
                report.shards.iter().all(|s| s.label != victim),
                "panicked shard must not report an outcome"
            );
        } else {
            assert!(
                !report.health.is_degraded(),
                "epoch {e} should be healthy, got {:?}",
                report.health
            );
            assert!(report.failures.is_empty());
            let v = report
                .shards
                .iter()
                .find(|s| s.label == victim)
                .expect("victim shard reports when not panicked");
            if e == 3 {
                assert!(!v.warm, "epoch 3: victim must rebuild cold after reset");
            }
            if e == 4 {
                assert!(v.warm, "epoch 4: recovered victim must be warm again");
            }
        }
    }
}

/// An injected stall is clamped to the epoch deadline and surfaces as a
/// `ShardDeadline` degrade with a partial (`timed_out`) outcome — not a
/// panic, not an unbounded hang.
#[test]
fn stall_surfaces_as_deadline_truncation() {
    let topo = pods3();
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(41);
    let sc = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);

    let mut cfg = sharded_cfg();
    cfg.epoch_deadline = Some(Duration::from_millis(100));
    cfg.chaos = Some(ChaosHook::new(|label, epoch| {
        (label == "pod1" && epoch == 1).then_some(ShardChaos::Stall(Duration::from_secs(30)))
    }));
    let mut pipe = StreamPipeline::new(&topo, cfg);

    for e in 0..3u64 {
        let flows = epoch_flows(&topo, &router, &sc, e, &mut rng);
        let started = std::time::Instant::now();
        let report = pipe.run_flows(e, e * 1_000, (e + 1) * 1_000, &flows);
        if e == 1 {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "stall must be clamped to the deadline, not slept in full"
            );
            assert!(report.health.is_degraded());
            assert!(
                report
                    .health
                    .reasons()
                    .contains(&DegradeReason::ShardDeadline {
                        shard: "pod1".into()
                    }),
                "missing deadline reason, got {:?}",
                report.health.reasons()
            );
            // Deadline truncation is not a failure: the shard reports a
            // partial outcome and full evidence coverage.
            assert!(report.failures.is_empty());
            let stalled = report
                .shards
                .iter()
                .find(|s| s.label == "pod1")
                .expect("stalled shard still reports");
            assert!(stalled.timed_out);
            assert_eq!(report.health.evidence_coverage(), 1.0);
        } else {
            assert!(
                !report.health.is_degraded(),
                "epoch {e} should be healthy, got {:?}",
                report.health
            );
        }
    }
}

/// Externally-flagged faults and late-dropped records degrade the next
/// report: evidence the pipeline never saw is not silently absorbed
/// into a `Healthy` verdict.
#[test]
fn external_flags_and_late_records_degrade_next_report() {
    let topo = pods3();
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(42);
    let sc = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);

    let mut cfg = sharded_cfg();
    cfg.epoch = EpochConfig::tumbling(1_000).with_late_horizon(100);
    let mut pipe = StreamPipeline::new(&topo, cfg);

    // One agent's export: a drain batch holding one stamp's run.
    let stamp = |flows: &[MonitoredFlow], ms: u64| DrainBatch {
        buckets: vec![(ms, flows.to_vec())],
    };

    // Epoch 0 closes healthy, but an externally-flagged store fault
    // attaches to its report.
    let flows0 = epoch_flows(&topo, &router, &sc, 0, &mut rng);
    pipe.ingest_bucketed(stamp(&flows0, 500));
    pipe.flag_degraded(DegradeReason::External {
        what: "store-append:disk-full".into(),
    });
    let reports = pipe.poll(1_000);
    assert_eq!(reports.len(), 1);
    assert!(reports[0].health.is_degraded());
    assert!(matches!(
        reports[0].health.reasons(),
        [DegradeReason::External { what }] if what.contains("disk-full")
    ));

    // A record far behind the watermark is dropped as late; the *next*
    // report carries the evidence loss.
    let flows1 = epoch_flows(&topo, &router, &sc, 1, &mut rng);
    pipe.ingest_bucketed(stamp(&flows1, 1_500));
    pipe.ingest_bucketed(stamp(&flows0[..3], 400)); // window 0: closed + beyond horizon
    assert_eq!(pipe.late_records(), 3);
    let reports = pipe.poll(2_000);
    assert_eq!(reports.len(), 1);
    assert!(
        reports[0]
            .health
            .reasons()
            .contains(&DegradeReason::LateRecords { count: 3 }),
        "late drop must degrade the next report, got {:?}",
        reports[0].health.reasons()
    );

    // With the faults cleared, reports return to Healthy.
    let flows2 = epoch_flows(&topo, &router, &sc, 2, &mut rng);
    pipe.ingest_bucketed(stamp(&flows2, 2_500));
    let reports = pipe.poll(3_000);
    assert_eq!(reports.len(), 1);
    assert!(!reports[0].health.is_degraded());
}

/// The wire has no payload checksum: a corrupted-but-framed message
/// decodes into records with arbitrary content. Impossible records —
/// node or link ids outside the topology, retransmission counts above
/// the packet count — must be rejected before assembly (where a garbage
/// node id would panic an index lookup), counted, and flagged on the
/// epoch's health; the sane records around them still localize.
#[test]
fn garbage_records_are_rejected_not_panicked() {
    let topo = pods3();
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(43);
    let mut sc = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let link = topo.fabric_links()[11];
    sc.events.push(flock_netsim::FaultEvent {
        link,
        drop_rate: 0.02,
        appear_epoch: 0,
        heal_epoch: None,
    });
    let mut pipe = StreamPipeline::new(&topo, sharded_cfg());

    let mut records = epoch_flows(&topo, &router, &sc, 0, &mut rng);
    // Three corruption shapes decodable from a well-formed frame: a
    // source node id beyond the topology, a traced path naming a link
    // that does not exist, and a retransmission count above packets.
    let mut garbage_node = records[0].clone();
    garbage_node.key.src = flock_topology::NodeId(u32::MAX / 2);
    let mut garbage_link = records[1].clone();
    garbage_link.true_path = vec![flock_topology::LinkId(9_999_999)];
    let mut garbage_stats = records[2].clone();
    garbage_stats.stats.retransmissions = garbage_stats.stats.packets + 1;
    records.extend([garbage_node, garbage_link, garbage_stats]);

    pipe.ingest_bucketed(DrainBatch {
        buckets: vec![(500, records)],
    });
    let reports = pipe.poll(1_000);
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(pipe.rejected_records(), 3);
    assert!(
        report
            .health
            .reasons()
            .contains(&DegradeReason::RejectedRecords { count: 3 }),
        "rejected garbage must degrade the report, got {:?}",
        report.health.reasons()
    );
    // The surviving evidence still convicts the real fault.
    assert_eq!(
        report.result.predicted,
        vec![flock_topology::Component::Link(link)],
        "sane records around the garbage must still localize"
    );
}
