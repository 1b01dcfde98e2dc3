//! End-to-end live pipeline: simulated hosts run monitoring agents that
//! export 52-byte IPFIX-style records over real TCP sockets to the
//! collector, which periodically hands the snapshot to the inference
//! engine — the deployment loop of §5.1 compressed into one process.
//!
//! ```text
//! cargo run --release --example agent_collector
//! ```

use flock::prelude::*;
use flock::telemetry::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
use rand::SeedableRng;
use std::collections::HashMap;

fn main() {
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 4,
    });
    let router = Router::new(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    // Gray failure: one link drops 2%.
    let scenario =
        flock::netsim::failure::silent_link_drops(&topo, 1, (0.02, 0.02), 1e-4, &mut rng);
    println!("injected failure: {:?}", scenario.truth.failed_links);

    // Simulate application traffic.
    let demands = flock::netsim::traffic::generate_demands(
        &topo,
        &TrafficConfig::paper(4_000, TrafficPattern::Uniform),
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

    // The collector listens on loopback.
    let collector = Collector::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    println!("collector listening on {}", collector.local_addr());

    // One agent per host; each observes its host's flows. Flagged flows
    // (>=1 retransmission) get their path traced, 007-style (A2).
    let mut per_host: HashMap<NodeId, Vec<&MonitoredFlow>> = HashMap::new();
    for f in &flows {
        per_host.entry(f.key.src).or_default().push(f);
    }
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

    // Wait for the collector to drain the sockets.
    let expected = flows.len();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while collector.pending() < expected && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // The drained records are monitored flows (paths are known only
    // where the agents traced them).
    let monitored = collector.drain();
    let snap = collector.stats().snapshot();
    println!(
        "collected {} records ({} connections, {} messages, {} bytes, {} errors)",
        monitored.len(),
        snap.connections,
        snap.messages,
        snap.bytes,
        snap.decode_errors
    );

    // Run inference on A2+P.
    let obs = flock::telemetry::input::assemble(
        &topo,
        &router,
        &monitored,
        &[InputKind::A2, InputKind::P],
        AnalysisMode::PerPacket,
    );
    let result = FlockGreedy::default().localize(&topo, &obs);
    let pr = evaluate(&topo, &result.predicted, &scenario.truth);
    println!(
        "\nFlock (A2+P) blamed {:?} — precision {:.2}, recall {:.2}",
        result.predicted, pr.precision, pr.recall
    );
    collector.shutdown();
}
