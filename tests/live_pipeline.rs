//! Integration: the full live pipeline — simulator feeding per-host
//! agents, real TCP export to the collector, inference.

use flock::prelude::*;
use flock::telemetry::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
use rand::SeedableRng;
use std::collections::HashMap;

#[test]
fn tcp_pipeline_localizes_failure() {
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

    let collector = Collector::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut per_host: HashMap<NodeId, Vec<&MonitoredFlow>> = HashMap::new();
    for f in &flows {
        per_host.entry(f.key.src).or_default().push(f);
    }
    let n_flows = flows.len();
    for (host, host_flows) in &per_host {
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
                // A2-style: flagged flows are path-traced.
                path: (f.stats.retransmissions > 0).then(|| f.true_path.clone()),
                class: flock::telemetry::TrafficClass::Passive,
            });
        }
        let records = agent.export();
        let msgs = agent.encode_export(0, &records);
        let mut exporter = Exporter::connect(collector.local_addr()).unwrap();
        for m in &msgs {
            exporter.send(m).unwrap();
        }
        exporter.finish().unwrap();
    }

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while collector.pending() < n_flows && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let monitored = collector.drain();
    assert_eq!(monitored.len(), n_flows, "all records must arrive");
    assert_eq!(
        collector.stats().snapshot().decode_errors,
        0,
        "no decode errors"
    );

    let obs = flock::telemetry::input::assemble(
        &topo,
        &router,
        &monitored,
        &[InputKind::A2, InputKind::P],
        AnalysisMode::PerPacket,
    );
    let result = FlockGreedy::default().localize(&topo, &obs);
    let pr = evaluate(&topo, &result.predicted, &scenario.truth);
    assert_eq!(
        pr.recall, 1.0,
        "pipeline must localize the failed link: blamed {:?}, truth {:?}",
        result.predicted, scenario.truth
    );
}
