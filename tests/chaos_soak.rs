//! Chaos soak: the full daemon pipeline — per-host agents exporting
//! over real TCP sockets to the reactor collector, epoch windowing,
//! sharded warm-started inference, durable verdict store — driven
//! through a seeded randomized fault schedule
//! ([`flock::netsim::chaos`]): agent crashes with reconnect-and-resend,
//! stalled connections, corrupt / torn / duplicated / reordered wire
//! frames, clock-skewed epoch stamps, a stalled collector reactor
//! shard, panicking inference shards, and failing store appends.
//!
//! The contract under chaos:
//!
//! * no fault escapes its containment boundary (the test completing is
//!   the no-panic/no-deadlock proof — every wait is deadlined);
//! * epochs whose faults all preserve the evidence stream produce
//!   verdicts **bit-identical** to a chaos-free run over the same
//!   flows;
//! * epochs with evidence-altering faults are **labeled degraded** with
//!   typed reasons, never silently wrong;
//! * the decoder/collector counters account for every wire fault;
//! * a failed store append degrades the store to ring-only with an ops
//!   alert while every query keeps serving;
//! * within 2 epochs of the chaos window closing, verdicts are healthy
//!   again with P = R = 1.0 against the live network fault.
//!
//! The schedule seed comes from `FLOCK_CHAOS_SEED` (fixed default, so
//! CI is reproducible; set it to fuzz new schedules locally).

use flock::netsim::chaos::{ChaosConfig, ChaosSchedule, FaultKind, WireMangler};
use flock::prelude::*;
use flock::store::AppendFault;
use flock::stream::{ChaosHook, ShardChaos};
use flock::telemetry::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
use flock::telemetry::{CollectorConfig, ReactorHook};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EPOCHS: u64 = 12;
const EPOCH_MS: u64 = 1_000;
const FLOWS_PER_EPOCH: usize = 2_000;
const CHAOS: ChaosConfig = ChaosConfig {
    start_epoch: 2,
    end_epoch: 8,
    faults_per_epoch: 3,
    victims: 64,
    max_magnitude_ms: 60,
};

fn chaos_seed() -> u64 {
    std::env::var("FLOCK_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF10C_5EED)
}

fn pods3() -> Topology {
    flock::topology::clos::three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    })
}

/// Pre-generate every epoch's flows once so the baseline and chaos runs
/// see the identical network: a persistent gray link fault under
/// uniform traffic.
fn generate_epochs(topo: &Topology, scenario: &DynamicScenario) -> Vec<Vec<MonitoredFlow>> {
    let router = Router::new(topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    (0..EPOCHS)
        .map(|e| {
            let snapshot = scenario.scenario_at(e);
            let demands = flock::netsim::traffic::generate_demands(
                topo,
                &TrafficConfig::paper(FLOWS_PER_EPOCH, TrafficPattern::Uniform),
                &mut rng,
            );
            flock::netsim::flowsim::simulate_flows(
                topo,
                &router,
                &snapshot,
                &demands,
                &FlowSimConfig::default(),
                &mut rng,
            )
        })
        .collect()
}

/// Block until the collector has gone quiet: no registered connections
/// and a stable pending count. Deadlined, so a wedged reactor fails the
/// test instead of hanging it.
fn await_quiesce(collector: &Collector) {
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut last = usize::MAX;
    let mut stable = 0;
    while Instant::now() < deadline {
        let pending = collector.pending();
        let active = collector.stats().snapshot().active_connections;
        if active == 0 && pending == last {
            stable += 1;
            if stable >= 5 {
                return;
            }
        } else {
            stable = 0;
        }
        last = pending;
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("collector did not quiesce within its deadline");
}

/// Sort every drained bucket by full record content. Reactor shards
/// interleave connections nondeterministically; canonical order makes
/// "same record multiset" imply "bit-identical verdicts" (arena
/// interning and f64 accumulation then run in the same order).
fn canonicalize(batch: &mut DrainBatch) {
    let key = |r: &StampedRecord| {
        (
            r.agent_id,
            r.export_ms,
            r.record.key.src,
            r.record.key.dst,
            r.record.key.src_port,
            r.record.key.dst_port,
            r.record.key.proto,
            r.record.stats.packets,
            r.record.stats.retransmissions,
            r.record.stats.bytes,
        )
    };
    for (_, bucket) in &mut batch.buckets {
        bucket.sort_by_key(key);
    }
    batch.unhinted.sort_by_key(key);
}

struct RunOutcome {
    reports: BTreeMap<u64, EpochReport>,
    collector_stats: StatsSnapshot,
    durability: Durability,
    ops_alerts: usize,
    history_epochs: Vec<u64>,
    agents_tracked: usize,
    rejected_records: u64,
}

/// Drive the full socket pipeline over the pre-generated flows, with
/// the fault schedule applied when one is given.
fn run_pipeline(
    topo: &Topology,
    epochs: &[Vec<MonitoredFlow>],
    faulty: LinkId,
    schedule: Option<&ChaosSchedule>,
    store_path: &PathBuf,
    pipelined: bool,
) -> RunOutcome {
    // Reactor-stall executor: the hook sleeps once per arming, on the
    // targeted shard only.
    let stall_shard = Arc::new(AtomicU64::new(u64::MAX));
    let stall_ms = Arc::new(AtomicU64::new(0));
    let hook = {
        let (shard, ms) = (stall_shard.clone(), stall_ms.clone());
        ReactorHook::new(move |idx| {
            if idx as u64 == shard.load(Ordering::Acquire) {
                let dur = ms.swap(0, Ordering::AcqRel);
                if dur > 0 {
                    std::thread::sleep(Duration::from_millis(dur.min(100)));
                }
            }
        })
    };
    let collector = Collector::bind_with(
        "127.0.0.1:0".parse().unwrap(),
        CollectorConfig {
            shards: 2,
            stall_hook: Some(hook),
            ..CollectorConfig::default()
        },
    )
    .unwrap();

    // Shard-panic executor: victims map onto the pod shards.
    let chaos_hook = schedule.map(|s| {
        let sched = s.clone();
        ChaosHook::new(move |label: &str, epoch: u64| {
            sched.faults_at(epoch).iter().find_map(|f| {
                (f.kind == FaultKind::ShardPanic && label == format!("pod{}", f.victim % 3))
                    .then_some(ShardChaos::Panic)
            })
        })
    });
    let mut pipeline = StreamPipeline::new(
        topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(EPOCH_MS),
            kinds: vec![InputKind::A2, InputKind::P],
            mode: AnalysisMode::PerPacket,
            shard_by_pod: true,
            epoch_deadline: Some(Duration::from_secs(5)),
            chaos: chaos_hook,
            pipelined,
            ..StreamConfig::paper_default()
        },
    );
    let mut store = VerdictStore::create(StoreConfig::default(), store_path).unwrap();
    let mut mangler = WireMangler::new(chaos_seed() ^ 0x5A5A);
    let mut hosts: Vec<NodeId> = topo.hosts().to_vec();
    hosts.sort();

    let mut reports: BTreeMap<u64, EpochReport> = BTreeMap::new();
    let ingest = |store: &mut VerdictStore,
                  reports: &mut BTreeMap<u64, EpochReport>,
                  report: EpochReport| {
        store.ingest(&report);
        reports.insert(report.epoch_index, report);
    };

    for epoch in 0..EPOCHS {
        let faults = schedule.map(|s| s.faults_at(epoch)).unwrap_or(&[]);
        // Arm the epoch's collector stall (if any) before the exports.
        for f in faults {
            if f.kind == FaultKind::CollectorStall {
                stall_shard.store(f.victim as u64 % 2, Ordering::Release);
                stall_ms.store(f.magnitude_ms, Ordering::Release);
            }
        }
        // One store-append failure per scheduled fault; ring-only is
        // sticky afterwards by contract.
        if faults.iter().any(|f| f.kind == FaultKind::StoreAppendFail) {
            store.inject_append_fault(AppendFault::Error(std::io::ErrorKind::Other));
        }

        for (idx, host) in hosts.iter().enumerate() {
            let mine: Vec<&MonitoredFlow> = epochs[epoch as usize]
                .iter()
                .filter(|f| f.key.src == *host)
                .collect();
            // Small chunks: several frames per export, so reordering
            // permutes something and a tear lands mid-stream.
            let mut agent = AgentCore::new(AgentConfig {
                agent_id: host.0,
                epoch_hint_ms: Some(EPOCH_MS),
                max_records_per_message: 24,
                ..Default::default()
            });
            for f in &mine {
                agent.observe(FlowSample {
                    key: f.key,
                    packets: f.stats.packets,
                    retransmissions: f.stats.retransmissions,
                    bytes: f.stats.bytes,
                    rtt_us: Some(f.stats.rtt_max_us),
                    path: (f.stats.retransmissions > 0).then(|| f.true_path.clone()),
                    class: flock::telemetry::TrafficClass::Passive,
                });
            }
            let records = agent.export();
            let mut export_ms = epoch * EPOCH_MS + EPOCH_MS / 2;
            let my_faults: Vec<&flock::netsim::chaos::ChaosFault> = faults
                .iter()
                .filter(|f| f.victim as usize % hosts.len() == idx)
                .collect();
            // Clock skew re-stamps the export before encoding; a skew
            // past the epoch boundary lands the records in the *next*
            // epoch's bucket (buffered, not lost).
            for f in &my_faults {
                if f.kind == FaultKind::ClockSkew {
                    export_ms =
                        flock::netsim::chaos::skew_stamp(export_ms, EPOCH_MS / 2 + f.magnitude_ms);
                }
            }
            let mut frames: Vec<Vec<u8>> = agent
                .encode_export(export_ms, &records)
                .iter()
                .map(|b| b.to_vec())
                .collect();
            let mut crash = false;
            let mut stall = 0u64;
            for f in &my_faults {
                match f.kind {
                    FaultKind::AgentCrash => crash = true,
                    FaultKind::ConnStall => stall = f.magnitude_ms,
                    k => mangler.apply(k, &mut frames),
                }
            }
            if stall > 0 {
                std::thread::sleep(Duration::from_millis(stall.min(60)));
            }
            if crash {
                // Crash mid-frame, then restart and resend everything:
                // at-least-once delivery, so the prefix arrives twice.
                let half = frames.len() / 2;
                let mut dying = Exporter::connect(collector.local_addr()).unwrap();
                for m in &frames[..half] {
                    dying.send(m).unwrap();
                }
                if let Some(next) = frames.get(half) {
                    let _ = dying.send(&next[..next.len() / 2]);
                }
                drop(dying);
            }
            let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
            for m in &frames {
                exporter.send(m).unwrap();
            }
            exporter.finish().unwrap();
        }

        await_quiesce(&collector);
        let mut batch = collector.drain_buckets();
        canonicalize(&mut batch);
        pipeline.ingest_bucketed(batch);
        for report in pipeline.poll((epoch + 1) * EPOCH_MS) {
            ingest(&mut store, &mut reports, report);
        }
    }
    for report in pipeline.drain() {
        ingest(&mut store, &mut reports, report);
    }

    let comp = flock::topology::Component::Link(faulty);
    let outcome = RunOutcome {
        collector_stats: collector.stats().snapshot(),
        durability: store.durability(),
        ops_alerts: store.ops_alerts().len(),
        history_epochs: store.history(comp).iter().map(|s| s.epoch).collect(),
        agents_tracked: collector.liveness().len(),
        rejected_records: pipeline.rejected_records(),
        reports,
    };
    collector.shutdown();
    outcome
}

#[test]
fn chaos_soak_contains_every_fault_and_recovers() {
    let seed = chaos_seed();
    let schedule = ChaosSchedule::generate(CHAOS, seed);
    let kinds = schedule.kinds();
    assert!(
        kinds.len() >= 6,
        "schedule (seed {seed:#x}) must span >= 6 fault kinds, got {kinds:?}"
    );

    let topo = pods3();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut scenario = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let faulty = topo.fabric_links()[11];
    scenario.events.push(FaultEvent {
        link: faulty,
        drop_rate: 0.02,
        appear_epoch: 0,
        heal_epoch: None,
    });
    let epochs = generate_epochs(&topo, &scenario);

    let base_path =
        std::env::temp_dir().join(format!("flock_soak_base_{}.seg", std::process::id()));
    let chaos_path =
        std::env::temp_dir().join(format!("flock_soak_chaos_{}.seg", std::process::id()));
    let _ = std::fs::remove_file(&base_path);
    let _ = std::fs::remove_file(&chaos_path);

    // The chaos leg runs pipelined (overlapping epochs on the shard
    // executor) against a sequential baseline: the bit-identity checks
    // below then also prove the pipelined path exact under wire chaos.
    let baseline = run_pipeline(&topo, &epochs, faulty, None, &base_path, false);
    let chaos = run_pipeline(&topo, &epochs, faulty, Some(&schedule), &chaos_path, true);

    // Both runs emitted every epoch (nothing hung, nothing was eaten).
    assert_eq!(baseline.reports.len() as u64, EPOCHS, "baseline epochs");
    for e in 0..EPOCHS {
        assert!(chaos.reports.contains_key(&e), "chaos run lost epoch {e}");
    }

    // The baseline saw no faults: healthy everywhere, clean counters,
    // durable store, exact localization once the warm-up epoch passed.
    for (e, r) in &baseline.reports {
        assert!(!r.health.is_degraded(), "baseline epoch {e} degraded");
    }
    assert_eq!(baseline.collector_stats.decode_errors, 0);
    assert_eq!(baseline.collector_stats.frames_quarantined, 0);
    assert_eq!(baseline.durability, Durability::Durable);
    assert_eq!(baseline.rejected_records, 0);

    let truth_of = |e: u64| scenario.scenario_at(e).truth;
    for (e, r) in &baseline.reports {
        let pr = flock::core::evaluate(&topo, &r.result.predicted, &truth_of(*e));
        assert_eq!(
            (pr.precision, pr.recall),
            (1.0, 1.0),
            "baseline epoch {e} must localize exactly"
        );
    }

    // Bit-identity: every epoch whose fault history is entirely
    // evidence-preserving must match the baseline to the bit — same
    // components, same f64 scores.
    let mut identical = 0;
    for e in 0..EPOCHS {
        if !schedule.bit_identity_epoch(e) {
            continue;
        }
        let (b, c) = (&baseline.reports[&e], &chaos.reports[&e]);
        assert_eq!(
            b.result.predicted, c.result.predicted,
            "epoch {e}: evidence-preserving chaos changed the verdict"
        );
        assert_eq!(
            b.result.scores, c.result.scores,
            "epoch {e}: evidence-preserving chaos changed the scores"
        );
        identical += 1;
    }
    assert!(
        identical >= CHAOS.start_epoch,
        "at least the pre-chaos epochs must be held to bit-identity"
    );

    // Every epoch that lost a shard to an injected panic is labeled
    // degraded with the typed reason naming that shard.
    let mut panic_epochs = 0;
    for e in CHAOS.start_epoch..CHAOS.end_epoch {
        let victims: Vec<String> = schedule
            .faults_at(e)
            .iter()
            .filter(|f| f.kind == FaultKind::ShardPanic)
            .map(|f| format!("pod{}", f.victim % 3))
            .collect();
        if victims.is_empty() {
            continue;
        }
        panic_epochs += 1;
        let r = &chaos.reports[&e];
        assert!(
            r.health.is_degraded(),
            "epoch {e} lost {victims:?} silently"
        );
        let reasons: Vec<String> = r.health.reasons().iter().map(|x| x.to_string()).collect();
        for v in &victims {
            assert!(
                reasons.contains(&format!("shard-panicked:{v}")),
                "epoch {e}: reasons {reasons:?} must name {v}"
            );
        }
        assert!(
            r.health.evidence_coverage() < 1.0,
            "epoch {e}: lost evidence must lower coverage"
        );
        assert!(!r.failures.is_empty(), "epoch {e}: failures must be typed");
    }
    assert!(panic_epochs > 0, "schedule must exercise shard panics");

    // Wire-level faults are visible in the typed collector counters,
    // never a silent connection teardown.
    let s = &chaos.collector_stats;
    if kinds.contains(&FaultKind::WireCorrupt) || kinds.contains(&FaultKind::WireTear) {
        let accounted = s.frames_quarantined
            + s.resyncs
            + s.decode_truncated
            + s.decode_bad_magic
            + s.decode_length_mismatch
            + s.decode_bad_version
            + chaos.rejected_records;
        assert!(
            accounted > 0,
            "wire mangling must surface in typed counters: {s:?}"
        );
    }
    assert_eq!(
        chaos.agents_tracked,
        topo.hosts().len(),
        "liveness must track every agent through crashes and reconnects"
    );

    // The scheduled store-append failure degraded the store to
    // ring-only with an ops alert — and every epoch stayed queryable.
    if kinds.contains(&FaultKind::StoreAppendFail) {
        assert_eq!(chaos.durability, Durability::RingOnly);
        assert!(chaos.ops_alerts >= 1, "degradation must raise an ops alert");
    }
    // An epoch whose owning shard panicked may legitimately miss the
    // blame (that is what "degraded" means) — but every epoch outside
    // the chaos window must be present and queryable.
    for e in (0..CHAOS.start_epoch).chain(CHAOS.end_epoch..EPOCHS) {
        assert!(
            chaos.history_epochs.contains(&e),
            "blame history must serve epoch {e} under chaos (got {:?})",
            chaos.history_epochs
        );
    }

    // Recovery: within 2 epochs of the chaos window closing, verdicts
    // are healthy and exact again.
    for e in CHAOS.end_epoch + 2..EPOCHS {
        let r = &chaos.reports[&e];
        assert!(
            !r.health.is_degraded(),
            "epoch {e}: health must recover after chaos stops, got {:?}",
            r.health
        );
        let pr = flock::core::evaluate(&topo, &r.result.predicted, &truth_of(e));
        assert_eq!(
            (pr.precision, pr.recall),
            (1.0, 1.0),
            "epoch {e}: P=R must recover to 1.0 after chaos stops"
        );
    }

    let _ = std::fs::remove_file(&base_path);
    let _ = std::fs::remove_file(&chaos_path);
}
