//! Integration: several export stamps per epoch window, end to end. Every
//! agent exports at its own jittered stamp, and a few stamps land past
//! the window's end, so each window fills from many stamp runs and some
//! runs belong to the next window. A record's epoch must be exactly
//! `export_ms / epoch_ms`: each report holds the records stamped into
//! its window, none is dropped late, and the injected fault is still
//! localized exactly.

use flock::prelude::*;
use flock::telemetry::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

const EPOCH_MS: u64 = 1_000;
const EPOCHS: u64 = 3;

/// Host `i`'s export stamp for the flows of epoch `e`: distinct per host,
/// and past the window's end for the highest-numbered hosts (at most 17
/// is 400 + 17·40 = 1,080 ms in). The final epoch stays inside its own
/// window, since no later window would carry those records to a report.
fn stamp(e: u64, i: u64) -> u64 {
    let offset = if e + 1 < EPOCHS { 400 } else { 0 };
    e * EPOCH_MS + offset + i * 40
}

#[test]
fn jittered_stamps_are_windowed_by_export_time() {
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
    let mut hosts = topo.hosts().to_vec();
    hosts.sort();

    let collector = Collector::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(
        &topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(EPOCH_MS),
            kinds: vec![InputKind::A2, InputKind::P],
            ..StreamConfig::paper_default()
        },
    );

    let mut expected: BTreeMap<u64, usize> = BTreeMap::new();
    let mut crossed = 0;
    let mut reports = Vec::new();
    for epoch in 0..EPOCHS {
        let demands = flock::netsim::traffic::generate_demands(
            &topo,
            &TrafficConfig::paper(3_000, TrafficPattern::Uniform),
            &mut rng,
        );
        let flows = flock::netsim::flowsim::simulate_flows(
            &topo,
            &router,
            &scenario,
            &demands,
            &FlowSimConfig::default(),
            &mut rng,
        );
        let mut per_host: HashMap<NodeId, Vec<&MonitoredFlow>> = HashMap::new();
        for f in &flows {
            per_host.entry(f.key.src).or_default().push(f);
        }
        for (i, host) in hosts.iter().enumerate() {
            let Some(host_flows) = per_host.get(host) else {
                continue;
            };
            let export_ms = stamp(epoch, i as u64);
            *expected.entry(export_ms / EPOCH_MS).or_default() += host_flows.len();
            crossed += usize::from(export_ms / EPOCH_MS != epoch);
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
                    path: (f.stats.retransmissions > 0).then(|| f.true_path.clone()),
                    class: flock::telemetry::TrafficClass::Passive,
                });
            }
            let records = agent.export();
            let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
            for m in &agent.encode_export(export_ms, &records) {
                exporter.send(m).unwrap();
            }
            exporter.finish().unwrap();
        }

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while collector.pending() < flows.len() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(collector.pending(), flows.len(), "records lost in transit");
        let batch = collector.drain_buckets();
        assert_eq!(
            batch.buckets.len(),
            per_host.len(),
            "one run per agent stamp"
        );
        pipeline.ingest_bucketed(batch);
        reports.extend(pipeline.poll((epoch + 1) * EPOCH_MS));
    }
    reports.extend(pipeline.drain());
    collector.shutdown();

    assert!(crossed > 0, "some exports must cross a window boundary");
    assert_eq!(pipeline.late_records(), 0);
    assert_eq!(reports.len(), EPOCHS as usize);
    for r in &reports {
        assert_eq!(
            r.records, expected[&r.epoch_index],
            "epoch {}: records stamped into the window",
            r.epoch_index
        );
        let pr = evaluate(&topo, &r.result.predicted, &scenario.truth);
        assert_eq!(
            (pr.precision, pr.recall),
            (1.0, 1.0),
            "epoch {}: fault must be localized exactly (blamed {:?}, truth {:?})",
            r.epoch_index,
            r.result.predicted,
            scenario.truth
        );
    }
}
