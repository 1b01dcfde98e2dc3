//! Pipelined execution is an *optimization*, never a semantic change:
//!
//! * verdicts from [`StreamConfig::pipelined`] (assembly into the one
//!   arena while the in-flight epoch reads its snapshot + work-stealing
//!   executor, epochs overlapping) are
//!   bit-identical to the sequential path — property-tested over
//!   randomized topologies, fault scenarios (including simultaneous
//!   faults in two spine planes) and telemetry kinds;
//! * the overlap survives its edges: zero-record epochs, a stalled
//!   epoch with the next one queued behind it on every shard (each
//!   shard must still run its epochs in order), a shard panic
//!   while the next epoch is already assembled (the degraded epoch must
//!   not corrupt its successor),
//!   late records arriving during overlap, and dropping the pipeline
//!   with an epoch still in flight.

use flock_netsim::failure::{self, FailureScenario, DEFAULT_NOISE_MAX};
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{
    ChaosHook, DegradeReason, EpochConfig, EpochHealth, EpochReport, ShardChaos, StreamConfig,
    StreamPipeline,
};
use flock_telemetry::{AnalysisMode, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Router, SpinePlanes, Topology};
use proptest::prelude::*;
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

fn sharded_cfg(pipelined: bool) -> StreamConfig {
    StreamConfig {
        epoch: EpochConfig::tumbling(1_000),
        kinds: vec![InputKind::A2, InputKind::P],
        mode: AnalysisMode::PerPacket,
        shard_by_pod: true,
        pipelined,
        ..StreamConfig::paper_default()
    }
}

/// Bit-level equality of everything inference-derived in two reports.
/// Wall-clock fields (`runtime`, `elapsed`, `stages`) are excluded —
/// they are the only thing pipelining is allowed to change.
fn assert_reports_identical(a: &EpochReport, b: &EpochReport, what: &str) {
    assert_eq!(a.epoch_index, b.epoch_index, "{what}: epoch index");
    assert_eq!(a.records, b.records, "{what}: records");
    assert_eq!(a.observations, b.observations, "{what}: observations");
    assert_eq!(
        a.result.predicted, b.result.predicted,
        "{what}: predicted components"
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.result.scores),
        bits(&b.result.scores),
        "{what}: scores"
    );
    assert_eq!(
        a.result.log_likelihood.to_bits(),
        b.result.log_likelihood.to_bits(),
        "{what}: log-likelihood"
    );
    assert_eq!(
        a.result.hypotheses_scanned, b.result.hypotheses_scanned,
        "{what}: hypotheses scanned"
    );
    assert_eq!(a.shards.len(), b.shards.len(), "{what}: shard count");
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(sa.label, sb.label, "{what}: shard label");
        assert_eq!(sa.kept, sb.kept, "{what}: {} kept", sa.label);
        assert_eq!(sa.flows, sb.flows, "{what}: {} flows", sa.label);
        assert_eq!(sa.raw_flows, sb.raw_flows, "{what}: {} raw", sa.label);
        assert_eq!(sa.warm, sb.warm, "{what}: {} warm", sa.label);
        assert_eq!(
            sa.log_likelihood.to_bits(),
            sb.log_likelihood.to_bits(),
            "{what}: {} log-likelihood",
            sa.label
        );
    }
    assert_eq!(
        a.provenance.len(),
        b.provenance.len(),
        "{what}: provenance length"
    );
    for (pa, pb) in a.provenance.iter().zip(&b.provenance) {
        assert_eq!(pa.component, pb.component, "{what}: provenance component");
        assert_eq!(pa.shard, pb.shard, "{what}: convicting shard");
        assert_eq!(
            pa.score.to_bits(),
            pb.score.to_bits(),
            "{what}: provenance score"
        );
        assert_eq!(pa.sets, pb.sets, "{what}: provenance sets");
    }
    assert_eq!(
        format!("{:?}", a.health),
        format!("{:?}", b.health),
        "{what}: health"
    );
    assert_eq!(a.failures.len(), b.failures.len(), "{what}: failure count");
}

/// Drive the same epochs through a sequential and a pipelined pipeline
/// and require bit-identical reports, in order. Returns the reports.
fn assert_pipelined_identical(
    topo: &Topology,
    epochs: &[Vec<MonitoredFlow>],
    chaos: Option<ChaosHook>,
) -> Vec<EpochReport> {
    let mut seq_cfg = sharded_cfg(false);
    seq_cfg.chaos = chaos.clone();
    let mut pipe_cfg = sharded_cfg(true);
    pipe_cfg.chaos = chaos;
    let mut seq = StreamPipeline::new(topo, seq_cfg);
    let mut pipe = StreamPipeline::new(topo, pipe_cfg);

    let mut seq_reports = Vec::new();
    let mut pipe_reports = Vec::new();
    for (e, flows) in epochs.iter().enumerate() {
        let e = e as u64;
        seq_reports.push(seq.run_flows(e, e * 1_000, (e + 1) * 1_000, flows));
        pipe_reports.extend(pipe.submit_flows(e, e * 1_000, (e + 1) * 1_000, flows));
    }
    pipe_reports.extend(pipe.flush_inflight());

    assert_eq!(
        seq_reports.len(),
        pipe_reports.len(),
        "pipelining must emit every epoch exactly once"
    );
    for (a, b) in seq_reports.iter().zip(&pipe_reports) {
        assert_reports_identical(a, b, &format!("epoch {}", a.epoch_index));
    }
    seq_reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline invariant: over randomized topologies, fault
    /// scenarios (including simultaneous faults in two spine planes),
    /// the pipelined verdict stream is
    /// bit-identical to the sequential one.
    #[test]
    fn pipelined_is_bit_identical_to_sequential(
        pods in 2u32..4,
        aggs in 2u32..4,
        two_planes in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let topo = clos(pods, aggs);
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(seed);
        let sc = if two_planes {
            let planes = SpinePlanes::derive(&topo);
            failure::multi_plane_link_drops(
                &topo, &planes, &[0, 1], 1, (0.02, 0.03), DEFAULT_NOISE_MAX, &mut rng,
            )
        } else {
            failure::silent_link_drops(&topo, 2, (0.01, 0.02), DEFAULT_NOISE_MAX, &mut rng)
        };
        let epochs: Vec<Vec<MonitoredFlow>> = (0..3)
            .map(|_| epoch_flows(&topo, &router, &sc, 600, &mut rng))
            .collect();
        assert_pipelined_identical(&topo, &epochs, None);
    }
}

/// Zero-record epochs flow through the overlap: an empty epoch interns
/// nothing (its snapshot equals its predecessor's), and the epochs
/// around it still match the sequential run bit for bit.
#[test]
fn zero_record_epochs_flow_through_the_pipeline() {
    let topo = clos(3, 2);
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(7);
    let sc = failure::silent_link_drops(&topo, 1, (0.02, 0.03), DEFAULT_NOISE_MAX, &mut rng);
    let mut epochs: Vec<Vec<MonitoredFlow>> = Vec::new();
    for e in 0..5 {
        if e % 2 == 1 {
            epochs.push(Vec::new());
        } else {
            epochs.push(epoch_flows(&topo, &router, &sc, 500, &mut rng));
        }
    }
    let reports = assert_pipelined_identical(&topo, &epochs, None);
    assert_eq!(reports[1].observations, 0);
    assert_eq!(reports[3].observations, 0);
}

/// Per-shard FIFO under overlap. Epoch 0 stalls on pod0 — and on the
/// other pods, so every pool worker (at most one per shard) is held and
/// the spine's epoch 0 cannot start — while epoch 1 is submitted: some
/// shard queue then holds two epochs at once, and runs them in
/// submission order or its warm state (and the verdict) diverges from
/// the sequential run.
#[test]
fn stalled_shard_keeps_its_epoch_order() {
    let topo = clos(3, 2);
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(13);
    let sc = failure::silent_link_drops(&topo, 1, (0.02, 0.03), DEFAULT_NOISE_MAX, &mut rng);
    let epochs: Vec<Vec<MonitoredFlow>> = (0..4)
        .map(|_| epoch_flows(&topo, &router, &sc, 700, &mut rng))
        .collect();
    // No deadline: the stall runs its full length.
    let chaos = ChaosHook::new(|label: &str, epoch: u64| {
        (label.starts_with("pod") && epoch == 0)
            .then_some(ShardChaos::Stall(std::time::Duration::from_millis(50)))
    });
    let reports = assert_pipelined_identical(&topo, &epochs, Some(chaos));
    assert!(reports.iter().all(|r| !r.health.is_degraded()));
}

/// A shard panic while the *next* epoch is already assembled: the
/// panicking epoch degrades exactly as in the sequential run, and its
/// successor — whose assembly overlapped the panic — is untouched. This
/// is the "a failed epoch must not corrupt epoch N+1" contract of the
/// overlap.
#[test]
fn panic_during_overlap_degrades_only_its_epoch() {
    let topo = clos(3, 2);
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(11);
    let sc = failure::silent_link_drops(&topo, 1, (0.02, 0.03), DEFAULT_NOISE_MAX, &mut rng);
    let epochs: Vec<Vec<MonitoredFlow>> = (0..4)
        .map(|_| epoch_flows(&topo, &router, &sc, 700, &mut rng))
        .collect();
    // Deterministic chaos: pod1's shard panics on epoch 2, in both runs.
    let chaos = ChaosHook::new(|label: &str, epoch: u64| {
        (label == "pod1" && epoch == 2).then_some(ShardChaos::Panic)
    });
    let reports = assert_pipelined_identical(&topo, &epochs, Some(chaos));
    assert!(
        matches!(
            &reports[2].health,
            EpochHealth::Degraded { reasons, .. }
                if reasons.iter().any(|r| matches!(
                    r,
                    DegradeReason::ShardPanicked { shard } if shard == "pod1"
                ))
        ),
        "epoch 2 must degrade with the injected panic, got {:?}",
        reports[2].health
    );
    assert!(
        matches!(reports[3].health, EpochHealth::Healthy),
        "epoch 3 assembled during the panic must be healthy, got {:?}",
        reports[3].health
    );
}

/// Late records arriving while an epoch is in flight are attributed to
/// the next *submitted* epoch's health — never dropped silently, never
/// double-counted — and the verdict stream still matches sequential.
#[test]
fn late_records_during_overlap_are_flagged_once() {
    use flock_telemetry::{DrainBatch, FlowKey, FlowStats, MonitoredFlow, TrafficClass};

    let topo = clos(2, 2);
    let hosts = topo.hosts().to_vec();
    // A drain batch holding one record stamped `ts`.
    let rec = |ts: u64| DrainBatch {
        buckets: vec![(
            ts,
            vec![MonitoredFlow {
                key: FlowKey::tcp(hosts[0], hosts[hosts.len() - 1], 10_000, 443),
                stats: FlowStats {
                    packets: 100,
                    ..Default::default()
                },
                class: TrafficClass::Passive,
                true_path: Vec::new(),
            }],
        )],
    };
    let run = |pipelined: bool| -> Vec<EpochReport> {
        let mut pipe = StreamPipeline::new(&topo, sharded_cfg(pipelined));
        let mut reports = Vec::new();
        for e in 0..3u64 {
            for i in 0..20 {
                pipe.ingest_bucketed(rec(e * 1_000 + i * 37));
            }
            reports.extend(pipe.poll((e + 1) * 1_000));
            if e == 1 {
                // Arrives after epoch 1 closed: dropped as late, and the
                // drop must surface on a subsequent report's health.
                pipe.ingest_bucketed(rec(10));
            }
        }
        reports.extend(pipe.drain());
        reports
    };
    for pipelined in [false, true] {
        let reports = run(pipelined);
        assert_eq!(reports.len(), 3, "pipelined={pipelined}");
        let late_total: u64 = reports
            .iter()
            .filter_map(|r| match &r.health {
                EpochHealth::Degraded { reasons, .. } => Some(
                    reasons
                        .iter()
                        .filter_map(|reason| match reason {
                            DegradeReason::LateRecords { count } => Some(*count),
                            _ => None,
                        })
                        .sum::<u64>(),
                ),
                EpochHealth::Healthy => None,
            })
            .sum();
        assert_eq!(
            late_total, 1,
            "pipelined={pipelined}: the late record must be flagged exactly once"
        );
    }
}

/// Dropping the pipeline with an epoch still in flight shuts the
/// executor down cleanly: workers join, queued jobs are discarded, no
/// hang, no panic.
#[test]
fn drop_with_epoch_in_flight_shuts_down_cleanly() {
    let topo = clos(2, 2);
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(3);
    let sc = failure::silent_link_drops(&topo, 1, (0.02, 0.03), DEFAULT_NOISE_MAX, &mut rng);
    let flows = epoch_flows(&topo, &router, &sc, 400, &mut rng);
    let mut pipe = StreamPipeline::new(&topo, sharded_cfg(true));
    let none = pipe.submit_flows(0, 0, 1_000, &flows);
    assert!(none.is_none(), "first submission has nothing to collect");
    drop(pipe);
}

/// `run_flows` refuses to run over an in-flight epoch (the caller must
/// flush first) — mixing the sync and pipelined entry points cannot
/// silently reorder verdicts.
#[test]
#[should_panic(expected = "flush_inflight")]
fn run_flows_with_epoch_in_flight_panics() {
    let topo = clos(2, 2);
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(5);
    let sc = failure::silent_link_drops(&topo, 1, (0.02, 0.03), DEFAULT_NOISE_MAX, &mut rng);
    let flows = epoch_flows(&topo, &router, &sc, 300, &mut rng);
    let mut pipe = StreamPipeline::new(&topo, sharded_cfg(true));
    pipe.submit_flows(0, 0, 1_000, &flows);
    pipe.run_flows(1, 1_000, 2_000, &flows);
}
