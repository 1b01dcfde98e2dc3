//! Integration: wire-version negotiation end to end. A v1 agent (no
//! epoch hints) exporting to the v2 reactor collector must yield exactly
//! the same epoch reports as a v2 agent exporting the same flows — the
//! pre-bucketed fast path is an optimization, never a behavior change.

use flock::prelude::*;
use flock::telemetry::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH_MS: u64 = 1_000;
const EPOCHS: u64 = 3;

fn run_pipeline(
    topo: &Topology,
    flows_per_epoch: &[Vec<MonitoredFlow>],
    epoch_hint_ms: Option<u64>,
) -> Vec<EpochReport> {
    let collector = Collector::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(
        topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(EPOCH_MS),
            kinds: vec![InputKind::A2, InputKind::P],
            shard_by_pod: false,
            ..StreamConfig::paper_default()
        },
    );

    let mut reports = Vec::new();
    for (epoch, flows) in flows_per_epoch.iter().enumerate() {
        let epoch = epoch as u64;
        let mut per_host: HashMap<NodeId, Vec<&MonitoredFlow>> = HashMap::new();
        for f in flows {
            per_host.entry(f.key.src).or_default().push(f);
        }
        for (host, host_flows) in &per_host {
            let mut agent = AgentCore::new(AgentConfig {
                agent_id: host.0,
                epoch_hint_ms,
                ..Default::default()
            });
            for f in host_flows {
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
            let msgs = agent.encode_export(epoch * EPOCH_MS + EPOCH_MS / 2, &records);
            let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
            for m in &msgs {
                exporter.send(m).unwrap();
            }
            exporter.finish().unwrap();
        }

        let expected = flows.len();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while collector.pending() < expected && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(collector.pending(), expected, "records lost in transit");

        let batch = collector.drain_buckets();
        if epoch_hint_ms.is_some() {
            assert!(batch.unhinted.is_empty(), "v2 agents pre-bucket everything");
            assert_eq!(batch.buckets.len(), 1, "one epoch per drain");
            assert_eq!(batch.buckets[0].0, epoch);
        } else {
            assert!(batch.buckets.is_empty(), "v1 agents carry no hints");
            assert_eq!(batch.unhinted.len(), expected);
        }
        pipeline.ingest_bucketed(batch);
        reports.extend(pipeline.poll((epoch + 1) * EPOCH_MS));
    }
    reports.extend(pipeline.drain());
    assert_eq!(pipeline.late_records(), 0);
    collector.shutdown();
    reports
}

#[test]
fn v1_agents_against_v2_collector_match_v2_reports() {
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    });
    let router = Router::new(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let scenario = flock::netsim::failure::silent_link_drops(&topo, 1, (0.03, 0.03), 0.0, &mut rng);

    // The same flow stream for both runs.
    let flows_per_epoch: Vec<Vec<MonitoredFlow>> = (0..EPOCHS)
        .map(|_| {
            let demands = flock::netsim::traffic::generate_demands(
                &topo,
                &TrafficConfig::paper(3_000, TrafficPattern::Uniform),
                &mut rng,
            );
            flock::netsim::flowsim::simulate_flows(
                &topo,
                &router,
                &scenario,
                &demands,
                &FlowSimConfig::default(),
                &mut rng,
            )
        })
        .collect();

    let v1_reports = run_pipeline(&topo, &flows_per_epoch, None);
    let v2_reports = run_pipeline(&topo, &flows_per_epoch, Some(EPOCH_MS));

    assert_eq!(v1_reports.len(), EPOCHS as usize);
    assert_eq!(v2_reports.len(), EPOCHS as usize);
    for (v1, v2) in v1_reports.iter().zip(&v2_reports) {
        assert_eq!(v1.epoch_index, v2.epoch_index);
        assert_eq!(v1.records, v2.records, "same records per epoch");
        assert_eq!(v1.observations, v2.observations, "same assembled obs");
        // Arrival order over concurrent sockets is nondeterministic, so
        // compare verdicts as sets, not score-ordered lists.
        let sorted = |r: &EpochReport| {
            let mut p = r.result.predicted.clone();
            p.sort();
            p
        };
        assert_eq!(
            sorted(v1),
            sorted(v2),
            "epoch {}: identical verdicts down both wire paths",
            v1.epoch_index
        );
        // Both paths localize the injected fault.
        let pr = evaluate(&topo, &v1.result.predicted, &scenario.truth);
        assert_eq!(
            (pr.precision, pr.recall),
            (1.0, 1.0),
            "epoch {}: fault must be localized exactly (blamed {:?}, truth {:?})",
            v1.epoch_index,
            v1.result.predicted,
            scenario.truth
        );
    }
}
