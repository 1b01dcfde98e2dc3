//! `flock-daemon` — the continuously-running localization service of
//! §5.1, end to end: per-host agents export 52-byte IPFIX-style records
//! over real TCP sockets to the sharded reactor collector; the stream
//! layer windows the drain into epochs by export stamp and localizes
//! each one with warm-started, pod-sharded inference while a fault
//! appears, persists, and heals — and every
//! verdict lands in a durable [`VerdictStore`]: blame history, debounced
//! alerts, and per-verdict provenance, all queryable and all surviving
//! a store close/reopen (asserted at the end of the run).
//!
//! One structured log line per epoch (human by default, one JSON object
//! per line with `--json`), plus a periodic metrics snapshot from the
//! store's registry.
//!
//! ```text
//! cargo run --release --example flock_daemon [-- --json]
//! ```

use flock::prelude::*;
use flock::telemetry::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCHS: u64 = 6;
const EPOCH_MS: u64 = 1_000;
const FLOWS_PER_EPOCH: usize = 3_000;
/// Epochs between metrics-snapshot emissions.
const METRICS_EVERY: u64 = 3;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    });
    let router = Router::new(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);

    // A fault timeline: one gray link failure appearing at epoch 1 and
    // healing at epoch 4.
    let mut scenario = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let faulty = topo.fabric_links()[9];
    scenario.events.push(FaultEvent {
        link: faulty,
        drop_rate: 0.02,
        appear_epoch: 1,
        heal_epoch: Some(4),
    });
    if !json {
        println!(
            "daemon: watching {} ({} links, {} switches); fault on {faulty:?} over epochs [1, 4)",
            topo.name,
            topo.link_count(),
            topo.switch_count()
        );
    }

    let collector = Collector::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    if !json {
        println!(
            "collector listening on {} ({} reactor shards)",
            collector.local_addr(),
            collector.reactor_shards()
        );
    }

    let mut pipeline = StreamPipeline::new(
        &topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(EPOCH_MS),
            kinds: vec![InputKind::A2, InputKind::P],
            mode: AnalysisMode::PerPacket,
            shard_by_pod: true,
            // Overlap epochs: assembly of epoch N+1 runs while N's
            // shards infer; reports trail submission by one epoch and
            // drain() flushes the tail. Verdicts are bit-identical to
            // the sequential mode.
            pipelined: true,
            ..StreamConfig::paper_default()
        },
    );
    if !json {
        println!(
            "stream: {} shards ({}), warm start on, pipelined epochs on",
            pipeline.plan().len(),
            pipeline
                .plan()
                .shards
                .iter()
                .map(|s| s.label.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // The verdict store: tier 1 kept deliberately tiny so the
    // end-of-run queries demonstrably hit the durable tier; alerts
    // raise after 2 persisting epochs and clear after 1 clean one.
    let store_path = std::env::temp_dir().join(format!("flock_daemon_{}.seg", std::process::id()));
    let store_cfg = StoreConfig {
        ring_capacity: 2,
        policy: AlertPolicy {
            raise_epochs: 2,
            clear_epochs: 1,
            ..AlertPolicy::default()
        },
    };
    let mut store = VerdictStore::create(store_cfg, &store_path).unwrap();
    if !json {
        println!(
            "store: durable segment at {} (ring {} epochs, raise after {}, clear after {})\n",
            store_path.display(),
            store_cfg.ring_capacity,
            store_cfg.policy.raise_epochs,
            store_cfg.policy.clear_epochs
        );
    }

    let mut reports: Vec<EpochReport> = Vec::new();
    for epoch in 0..EPOCHS {
        // ---- The network under its current condition. ----
        let snapshot = scenario.scenario_at(epoch);
        let demands = flock::netsim::traffic::generate_demands(
            &topo,
            &TrafficConfig::paper(FLOWS_PER_EPOCH, TrafficPattern::Uniform),
            &mut rng,
        );
        let flows = flock::netsim::flowsim::simulate_flows(
            &topo,
            &router,
            &snapshot,
            &demands,
            &FlowSimConfig::default(),
            &mut rng,
        );

        // ---- Per-host agents export over real sockets. ----
        let mut per_host: HashMap<NodeId, Vec<&MonitoredFlow>> = HashMap::new();
        for f in &flows {
            per_host.entry(f.key.src).or_default().push(f);
        }
        let export_ms = epoch * EPOCH_MS + EPOCH_MS / 2;
        for (host, host_flows) in &per_host {
            // Every export carries `export_ms`, which alone places its
            // records in this epoch's window.
            let mut agent = AgentCore::new(AgentConfig {
                agent_id: host.0,
                ..Default::default()
            });
            for f in host_flows {
                agent.observe(FlowSample {
                    key: f.key,
                    packets: f.stats.packets,
                    retransmissions: f.stats.retransmissions,
                    bytes: f.stats.bytes,
                    rtt_us: Some(f.stats.rtt_max_us),
                    // A2-style: flagged flows get their path traced.
                    path: (f.stats.retransmissions > 0).then(|| f.true_path.clone()),
                    class: flock::telemetry::TrafficClass::Passive,
                });
            }
            let records = agent.export();
            let msgs = agent.encode_export(export_ms, &records);
            let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
            for m in &msgs {
                exporter.send(m).unwrap();
            }
            exporter.finish().unwrap();
        }

        // ---- Drain, window, localize, store. ----
        let expected = flows.len();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while collector.pending() < expected && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(collector.pending(), expected, "collector lost records");
        pipeline.ingest_bucketed(collector.drain_buckets());
        for report in pipeline.poll((epoch + 1) * EPOCH_MS) {
            ingest_and_log(&topo, &scenario, &mut store, &report, &collector, json);
            reports.push(report);
        }
    }
    for report in pipeline.drain() {
        ingest_and_log(&topo, &scenario, &mut store, &report, &collector, json);
        reports.push(report);
    }
    store.sync().unwrap();

    // ---- The run must have done what the paper's service does. ----
    assert!(
        reports.len() >= 3,
        "stream layer must emit at least 3 epochs, got {}",
        reports.len()
    );
    for report in &reports {
        // A fault in the *monitored network* is the daemon's job, not a
        // pipeline failure: every epoch of this run must be healthy.
        assert!(
            !report.health.is_degraded(),
            "epoch {}: chaos-free run must stay healthy, got {:?}",
            report.epoch_index,
            report.health
        );
        let truth = scenario.scenario_at(report.epoch_index).truth;
        let pr = flock::core::evaluate(&topo, &report.result.predicted, &truth);
        if !truth.is_empty() {
            assert_eq!(
                (pr.precision, pr.recall),
                (1.0, 1.0),
                "epoch {}: active fault must be blamed exactly (blamed {:?}, truth {:?})",
                report.epoch_index,
                report.result.predicted,
                truth.failed_links
            );
        }
    }

    // ---- And the store must answer for it — before AND after a
    // close/reopen (history, the one debounced alert, provenance). ----
    let comp = flock::topology::Component::Link(faulty);
    check_store(&mut store, comp, "live store");
    drop(store);
    let mut reopened = VerdictStore::open(store_cfg, &store_path).unwrap();
    assert!(
        reopened.torn().is_none(),
        "clean close must leave no torn tail"
    );
    check_store(&mut reopened, comp, "reopened store");
    let prov = reopened
        .provenance(comp, 1)
        .expect("epoch-1 provenance must survive reopen (durable tier: ring is 2)");

    let snap = collector.stats().snapshot();
    if json {
        println!("{}", serde::json::to_string(&reopened.metrics_snapshot()));
    } else {
        println!(
            "\ndaemon done: {} epochs, {} records / {} bytes over {} connections \
             ({} decode errors, {} dropped)",
            reports.len(),
            snap.records,
            snap.bytes,
            snap.connections,
            snap.decode_errors,
            snap.dropped_records
        );
        let alert = &reopened.alerts()[0];
        println!(
            "store: blame history {:?} | alert raised @{} cleared @{:?} | provenance for \
             epoch 1: shard {} convicted via {} super-flows (weight {:.0}, sets {:?}) | \
             {} durable epochs, {} bytes",
            reopened
                .history(comp)
                .iter()
                .map(|s| s.epoch)
                .collect::<Vec<_>>(),
            alert.raised_epoch,
            alert.cleared_epoch,
            prov.shard,
            prov.super_flows,
            prov.raw_weight,
            prov.sets,
            reopened.durable_epochs(),
            reopened.segment_bytes()
        );
    }
    collector.shutdown();
    let _ = std::fs::remove_file(&store_path);
}

/// The acceptance checks, applied to the live store and again after
/// close/reopen: queryable blame history, exactly one debounced alert
/// (raised after 2 persisting epochs, cleared on heal), non-empty
/// provenance naming the convicting super-flows and shard.
fn check_store(store: &mut VerdictStore, comp: flock::topology::Component, what: &str) {
    let epochs: Vec<u64> = store.history(comp).iter().map(|s| s.epoch).collect();
    assert_eq!(epochs, vec![1, 2, 3], "{what}: blame history");
    assert_eq!(
        store.alerts().len(),
        1,
        "{what}: exactly one debounced alert"
    );
    let alert = &store.alerts()[0];
    assert_eq!(alert.component, comp, "{what}: alert names the fault");
    assert_eq!(
        alert.raised_epoch, 2,
        "{what}: raised after 2 persisting epochs"
    );
    assert_eq!(alert.cleared_epoch, Some(4), "{what}: cleared on heal");
    assert!(
        store.active_alerts().is_empty(),
        "{what}: nothing left active"
    );
    for epoch in [1u64, 2, 3] {
        let prov = store
            .provenance(comp, epoch)
            .unwrap_or_else(|| panic!("{what}: provenance for blamed epoch {epoch}"));
        assert!(prov.super_flows > 0, "{what}: provenance names super-flows");
        assert!(!prov.shard.is_empty(), "{what}: provenance names its shard");
    }
}

/// One structured log line per epoch — the same fields in both modes
/// (obs→super-flow ratio, Δ local/global bound, warm counts; plus the
/// store's alert activity).
#[derive(serde::Serialize)]
struct EpochLog {
    epoch: u64,
    start_ms: u64,
    end_ms: u64,
    records: usize,
    observations: usize,
    /// Raw accepted observations summed over shard engines (an
    /// observation counts once per shard whose filter accepts it).
    shard_raw_obs: usize,
    /// Weighted super-flows actually inferred over, same accounting.
    shard_super_flows: usize,
    coalesce_ratio: f64,
    /// Length of a shard engine's Δ array: the topology's components.
    delta_comps: usize,
    blamed: Vec<flock::topology::Component>,
    truth: Vec<LinkId>,
    precision: f64,
    recall: f64,
    warm_shards: usize,
    shards: usize,
    /// The epoch's health verdict: `false` means every shard completed
    /// on full evidence.
    degraded: bool,
    /// Machine-stable degradation reasons (`shard-panicked:pod2`,
    /// `late-records:17`, ...), empty when healthy.
    degrade_reasons: Vec<String>,
    /// Fraction of shard-relevant evidence that reached a completed
    /// shard (1.0 when healthy).
    evidence_coverage: f64,
    /// The store's durability tier after this ingest (`RingOnly` once
    /// a segment append has failed).
    durability: Durability,
    /// Operational (store self-diagnosis) alerts raised so far.
    ops_alerts: usize,
    /// Agents the collector currently tracks as live.
    agents_live: usize,
    /// Alerts the store raised on this epoch's ingest.
    alerts_raised: Vec<Alert>,
    /// Alerts it cleared.
    alerts_cleared: Vec<Alert>,
    active_alerts: u64,
    conns_up: u64,
    conns_closed: u64,
    runtime_ms: f64,
    /// Engine rebind (structure extension, flow table, initial Δ) and
    /// warm-search time summed over the epoch's shards — the split of
    /// `ShardOutcome::elapsed`.
    shard_rebind_ms: f64,
    shard_search_ms: f64,
    /// Where the caller-thread assembly stage went
    /// (`StageTimings::{assemble, index, flow_table}`): producing the
    /// observation set, touch signatures + accept lists, and keying the
    /// evidence into the epoch's flow table.
    prepare_assemble_ms: f64,
    prepare_index_ms: f64,
    prepare_flow_table_ms: f64,
}

fn ingest_and_log(
    topo: &Topology,
    scenario: &DynamicScenario,
    store: &mut VerdictStore,
    report: &EpochReport,
    collector: &Collector,
    json: bool,
) {
    let delta = store.ingest(report);
    let snap = collector.stats().snapshot();
    let truth = scenario.scenario_at(report.epoch_index).truth;
    let pr = flock::core::evaluate(topo, &report.result.predicted, &truth);
    let raw: usize = report.shards.iter().map(|s| s.raw_flows).sum();
    let sflows: usize = report.shards.iter().map(|s| s.flows).sum();
    let coalesce_ratio = raw as f64 / sflows.max(1) as f64;
    let log = EpochLog {
        epoch: report.epoch_index,
        start_ms: report.start_ms,
        end_ms: report.end_ms,
        records: report.records,
        observations: report.observations,
        shard_raw_obs: raw,
        shard_super_flows: sflows,
        coalesce_ratio,
        delta_comps: report
            .shards
            .iter()
            .map(|s| s.state.comps)
            .max()
            .unwrap_or(0),
        blamed: report.result.predicted.clone(),
        truth: truth.failed_links.clone(),
        precision: pr.precision,
        recall: pr.recall,
        warm_shards: report.shards.iter().filter(|s| s.warm).count(),
        shards: report.shards.len(),
        degraded: report.health.is_degraded(),
        degrade_reasons: report
            .health
            .reasons()
            .iter()
            .map(|r| r.to_string())
            .collect(),
        evidence_coverage: report.health.evidence_coverage(),
        durability: store.durability(),
        ops_alerts: store.ops_alerts().len(),
        agents_live: collector.liveness().len(),
        alerts_raised: delta.raised,
        alerts_cleared: delta.cleared,
        active_alerts: store.metrics().gauge("active_alerts").unwrap_or(0.0) as u64,
        conns_up: snap.active_connections,
        conns_closed: snap.closed_connections,
        runtime_ms: report.result.runtime.as_secs_f64() * 1e3,
        shard_rebind_ms: report
            .shards
            .iter()
            .map(|s| s.rebind)
            .sum::<std::time::Duration>()
            .as_secs_f64()
            * 1e3,
        shard_search_ms: report
            .shards
            .iter()
            .map(|s| s.search)
            .sum::<std::time::Duration>()
            .as_secs_f64()
            * 1e3,
        prepare_assemble_ms: report.stages.assemble.as_secs_f64() * 1e3,
        prepare_index_ms: report.stages.index.as_secs_f64() * 1e3,
        prepare_flow_table_ms: report.stages.flow_table.as_secs_f64() * 1e3,
    };
    if json {
        println!("{}", serde::json::to_string(&log));
    } else {
        let alerts = if !log.alerts_raised.is_empty() {
            format!(
                " | ALERT raised {:?}",
                log.alerts_raised
                    .iter()
                    .map(|a| a.component)
                    .collect::<Vec<_>>()
            )
        } else if !log.alerts_cleared.is_empty() {
            format!(
                " | alert cleared {:?}",
                log.alerts_cleared
                    .iter()
                    .map(|a| a.component)
                    .collect::<Vec<_>>()
            )
        } else {
            String::new()
        };
        let health = if log.degraded {
            format!(
                " | DEGRADED cov {:.2} [{}]",
                log.evidence_coverage,
                log.degrade_reasons.join(", ")
            )
        } else {
            String::new()
        };
        let durability = if log.durability != Durability::Durable {
            format!(
                " | store {:?} ({} ops alerts)",
                log.durability, log.ops_alerts
            )
        } else {
            String::new()
        };
        println!(
            "epoch {:>2} [{:>5}ms..{:>5}ms): {:>5} records → {:>4} obs | shard evidence \
             {:>5} → {:>4} super-flows (x{:.1}) | Δ {} | blamed {:?} | truth {:?} | \
             P {:.2} R {:.2} | {}/{} shards warm | {} agents live | conns {} up / {} closed | {:.1}ms{alerts}{health}{durability}",
            log.epoch,
            log.start_ms,
            log.end_ms,
            log.records,
            log.observations,
            log.shard_raw_obs,
            log.shard_super_flows,
            log.coalesce_ratio,
            log.delta_comps,
            log.blamed,
            log.truth,
            log.precision,
            log.recall,
            log.warm_shards,
            log.shards,
            log.agents_live,
            log.conns_up,
            log.conns_closed,
            log.runtime_ms,
        );
    }
    // The periodic metrics snapshot from the store's registry.
    if (report.epoch_index + 1) % METRICS_EVERY == 0 {
        if json {
            println!("{}", serde::json::to_string(&store.metrics_snapshot()));
        } else {
            let m = store.metrics();
            println!(
                "metrics: epochs {} | records {} | flips/s {:.0} | shard engine mean {:.2}ms \
                 | appends mean {:.3}ms | alerts {}/{} raised/cleared | segment {}B",
                m.counter("epochs_ingested"),
                m.counter("records_ingested"),
                m.gauge("flip_throughput_per_s").unwrap_or(0.0),
                m.histogram("shard_engine_ms")
                    .map(|h| h.mean())
                    .unwrap_or(0.0),
                m.histogram("append_ms").map(|h| h.mean()).unwrap_or(0.0),
                m.counter("alerts_raised"),
                m.counter("alerts_cleared"),
                m.gauge("segment_bytes").unwrap_or(0.0) as u64,
            );
        }
    }
}
