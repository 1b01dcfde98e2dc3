//! Shared fixtures for the criterion benchmarks: deterministic traces at a
//! few canonical scales, so every bench measures the same workloads the
//! paper's runtime figures use.
#![warn(missing_docs)]

use flock_netsim::failure::{self, DEFAULT_NOISE_MAX};
use flock_netsim::flowsim::{run_probes, simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_telemetry::input::{assemble, AnalysisMode, InputKind, ObservationSet};
use flock_telemetry::{plan_a1_probes, MonitoredFlow};
use flock_topology::{ClosParams, GroundTruth, Router, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic benchmark trace.
pub struct BenchTrace {
    /// Topology.
    pub topo: Topology,
    /// Monitored flows (passive + probes).
    pub flows: Vec<MonitoredFlow>,
    /// Ground truth.
    pub truth: GroundTruth,
}

/// Canonical scales: (name, servers, flows).
pub const SCALES: &[(&str, u32, usize)] = &[("small", 256, 4_000), ("medium", 1024, 20_000)];

/// Build a silent-drop trace at the given scale.
pub fn trace(servers: u32, flows_n: usize, seed: u64) -> BenchTrace {
    let topo = flock_topology::clos::three_tier(ClosParams::with_servers(servers));
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = failure::silent_link_drops(&topo, 3, (0.001, 0.01), DEFAULT_NOISE_MAX, &mut rng);
    let demands = generate_demands(
        &topo,
        &TrafficConfig::paper(flows_n, TrafficPattern::Uniform),
        &mut rng,
    );
    let cfg = FlowSimConfig::default();
    let mut flows = simulate_flows(&topo, &router, &scenario, &demands, &cfg, &mut rng);
    let probes = plan_a1_probes(&topo, &router, 50, Some(4096));
    flows.extend(run_probes(&scenario, &probes, &cfg, &mut rng));
    BenchTrace {
        truth: scenario.truth,
        topo,
        flows,
    }
}

/// Assemble an input for a trace.
pub fn input(t: &BenchTrace, kinds: &[InputKind]) -> ObservationSet {
    let router = Router::new(&t.topo);
    assemble(&t.topo, &router, &t.flows, kinds, AnalysisMode::PerPacket)
}
