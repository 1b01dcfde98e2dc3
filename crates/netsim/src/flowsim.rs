//! Flow-level network simulator.
//!
//! This is the paper's "large scale simulator" (§6.3): it "drops each
//! packet as per preset drop probabilities on links but does not model
//! queuing or TCP". Each flow picks one of its ECMP paths uniformly at
//! random (the paper's routing assumption, §3.2) and its packets traverse
//! the path's links in sequence, each link dropping survivors with its
//! configured probability. Dropped packets count as retransmissions — the
//! telemetry proxy for bad packets.
//!
//! Per DESIGN.md this simulator also substitutes for the paper's NS3
//! traces: the inference-visible signal (per-flow `(bad, sent)` counts
//! under silent per-link drop rates plus low-rate noise) is identical in
//! distribution.

use crate::dist::binomial;
use crate::failure::FailureScenario;
use crate::traffic::FlowDemand;
use flock_telemetry::{FlowKey, FlowStats, MonitoredFlow, ProbeSpec, TrafficClass};
use flock_topology::{LinkId, Router, Topology};
use rand::{Rng, RngExt};
use serde::Serialize;

/// Flow-level simulator knobs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FlowSimConfig {
    /// Base per-hop latency contribution in microseconds.
    pub per_hop_latency_us: u32,
    /// Uniform RTT jitter ceiling in microseconds.
    pub rtt_jitter_us: u32,
    /// Bytes per packet when filling in byte counts.
    pub mss_bytes: u32,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            per_hop_latency_us: 10,
            rtt_jitter_us: 40,
            mss_bytes: 1500,
        }
    }
}

/// Simulate passive application flows: route each demand over ECMP, drop
/// packets per the scenario, and emit monitored-flow records.
///
/// Demands whose endpoints have no valley-free route (possible in heavily
/// degraded topologies) are skipped.
pub fn simulate_flows<R: Rng + ?Sized>(
    topo: &Topology,
    router: &Router<'_>,
    scenario: &FailureScenario,
    demands: &[FlowDemand],
    cfg: &FlowSimConfig,
    rng: &mut R,
) -> Vec<MonitoredFlow> {
    let mut out = Vec::with_capacity(demands.len());
    for (i, d) in demands.iter().enumerate() {
        let paths = router.host_fabric_paths(d.src, d.dst);
        if paths.is_empty() {
            continue;
        }
        let choice = rng.random_range(0..paths.len());
        let mut full_path = Vec::with_capacity(paths[choice].links.len() + 2);
        full_path.push(topo.host_uplink(d.src));
        full_path.extend_from_slice(&paths[choice].links);
        full_path.push(topo.host_downlink(d.dst));

        let (delivered, dropped) = traverse(scenario, &full_path, d.packets, rng);
        let rtt = sample_rtt(scenario, &full_path, cfg, rng);
        let _ = delivered;

        out.push(MonitoredFlow {
            key: FlowKey::tcp(
                d.src,
                d.dst,
                1024 + (i % 60_000) as u16,
                80 + ((i / 60_000) % 1_000) as u16,
            ),
            stats: FlowStats {
                packets: d.packets,
                retransmissions: dropped,
                bytes: d.packets * cfg.mss_bytes as u64,
                rtt_sum_us: rtt as u64,
                rtt_count: 1,
                rtt_max_us: rtt,
            },
            class: TrafficClass::Passive,
            true_path: full_path,
        });
    }
    out
}

/// Execute active probes: each probe stream traverses its pinned
/// round-trip path under the scenario's drop model.
pub fn run_probes<R: Rng + ?Sized>(
    scenario: &FailureScenario,
    specs: &[ProbeSpec],
    cfg: &FlowSimConfig,
    rng: &mut R,
) -> Vec<MonitoredFlow> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let (_, dropped) = traverse(scenario, &spec.round_trip_path, spec.packets, rng);
        let rtt = cfg.per_hop_latency_us * spec.round_trip_path.len() as u32
            + rng.random_range(0..=cfg.rtt_jitter_us);
        out.push(MonitoredFlow {
            key: spec.key,
            stats: FlowStats {
                packets: spec.packets,
                retransmissions: dropped,
                bytes: spec.packets * 64,
                rtt_sum_us: rtt as u64,
                rtt_count: 1,
                rtt_max_us: rtt,
            },
            class: TrafficClass::Probe,
            true_path: spec.round_trip_path.clone(),
        });
    }
    out
}

/// Walk `packets` packets along `path`, dropping independently per link.
/// Returns `(delivered, dropped)`.
fn traverse<R: Rng + ?Sized>(
    scenario: &FailureScenario,
    path: &[LinkId],
    packets: u64,
    rng: &mut R,
) -> (u64, u64) {
    let mut alive = packets;
    for l in path {
        if alive == 0 {
            break;
        }
        let p = scenario.drop_rate[l.idx()];
        if p > 0.0 {
            alive -= binomial(rng, alive, p);
        }
    }
    (alive, packets - alive)
}

fn sample_rtt<R: Rng + ?Sized>(
    scenario: &FailureScenario,
    path: &[LinkId],
    cfg: &FlowSimConfig,
    rng: &mut R,
) -> u32 {
    let mut rtt =
        cfg.per_hop_latency_us * path.len() as u32 * 2 + rng.random_range(0..=cfg.rtt_jitter_us);
    for fault in &scenario.latency_faults {
        if path.contains(&fault.link) && rng.random::<f64>() < fault.affected_fraction {
            rtt += fault.added_rtt_us;
        }
    }
    rtt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{self, DEFAULT_NOISE_MAX};
    use crate::traffic::{generate_demands, TrafficConfig, TrafficPattern};
    use flock_topology::clos::{three_tier, ClosParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_network_drops_nothing() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sc = FailureScenario::noise_only(&topo, 0.0, &mut rng);
        sc.drop_rate.iter_mut().for_each(|r| *r = 0.0);
        let demands = generate_demands(
            &topo,
            &TrafficConfig::paper(200, TrafficPattern::Uniform),
            &mut rng,
        );
        let flows = simulate_flows(
            &topo,
            &router,
            &sc,
            &demands,
            &FlowSimConfig::default(),
            &mut rng,
        );
        assert_eq!(flows.len(), 200);
        assert!(flows.iter().all(|f| f.stats.retransmissions == 0));
    }

    #[test]
    fn failed_link_produces_proportional_drops() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(2);
        let sc = failure::silent_link_drops(&topo, 1, (0.05, 0.05), 0.0, &mut rng);
        let failed = sc.truth.failed_links[0];
        let demands = generate_demands(
            &topo,
            &TrafficConfig::paper(3000, TrafficPattern::Uniform),
            &mut rng,
        );
        let flows = simulate_flows(
            &topo,
            &router,
            &sc,
            &demands,
            &FlowSimConfig::default(),
            &mut rng,
        );
        let (mut crossing_pkts, mut crossing_drops) = (0u64, 0u64);
        let (mut clean_drops, mut clean_pkts) = (0u64, 0u64);
        for f in &flows {
            if f.true_path.contains(&failed) {
                crossing_pkts += f.stats.packets;
                crossing_drops += f.stats.retransmissions;
            } else {
                clean_pkts += f.stats.packets;
                clean_drops += f.stats.retransmissions;
            }
        }
        assert!(crossing_pkts > 0, "some flows must cross the failed link");
        let rate = crossing_drops as f64 / crossing_pkts as f64;
        assert!(
            (0.03..0.07).contains(&rate),
            "observed drop rate {rate} should track the 5% link rate"
        );
        assert_eq!(clean_drops, 0, "{clean_pkts} clean packets must survive");
    }

    #[test]
    fn true_paths_are_contiguous_host_to_host() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(3);
        let sc = FailureScenario::noise_only(&topo, DEFAULT_NOISE_MAX, &mut rng);
        let demands = generate_demands(
            &topo,
            &TrafficConfig::paper(100, TrafficPattern::Uniform),
            &mut rng,
        );
        let flows = simulate_flows(
            &topo,
            &router,
            &sc,
            &demands,
            &FlowSimConfig::default(),
            &mut rng,
        );
        for f in &flows {
            let mut at = f.key.src;
            for l in &f.true_path {
                assert_eq!(topo.link(*l).src, at);
                at = topo.link(*l).dst;
            }
            assert_eq!(at, f.key.dst);
        }
    }

    #[test]
    fn latency_fault_spikes_rtt() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(4);
        let sc = failure::link_flap(&topo, 100_000, 1.0, 0.0, &mut rng);
        let flapped = sc.truth.failed_links[0];
        let demands = generate_demands(
            &topo,
            &TrafficConfig::paper(2000, TrafficPattern::Uniform),
            &mut rng,
        );
        let flows = simulate_flows(
            &topo,
            &router,
            &sc,
            &demands,
            &FlowSimConfig::default(),
            &mut rng,
        );
        for f in &flows {
            if f.true_path.contains(&flapped) {
                assert!(f.stats.rtt_max_us >= 100_000);
                assert_eq!(f.stats.retransmissions, 0, "flap buffers, not drops");
            } else {
                assert!(f.stats.rtt_max_us < 10_000);
            }
        }
        assert!(flows.iter().any(|f| f.true_path.contains(&flapped)));
    }

    #[test]
    fn probes_traverse_round_trip() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(5);
        let sc = failure::silent_link_drops(&topo, 1, (0.5, 0.5), 0.0, &mut rng);
        let failed = sc.truth.failed_links[0];
        let specs = flock_telemetry::plan_a1_probes(&topo, &router, 200, None);
        let probes = run_probes(&sc, &specs, &FlowSimConfig::default(), &mut rng);
        assert_eq!(probes.len(), specs.len());
        for p in &probes {
            assert_eq!(p.class, TrafficClass::Probe);
            if p.true_path.contains(&failed) {
                assert!(
                    p.stats.retransmissions > 50,
                    "50% drop link must hit probes hard"
                );
            }
        }
        assert!(probes.iter().any(|p| p.true_path.contains(&failed)));
    }

    #[test]
    fn ecmp_spreads_flows_across_paths() {
        let topo = three_tier(ClosParams::tiny());
        let router = Router::new(&topo);
        let mut rng = StdRng::seed_from_u64(6);
        let sc = FailureScenario::noise_only(&topo, 0.0, &mut rng);
        let hosts = topo.hosts();
        // Many flows between one cross-pod pair.
        let demands: Vec<FlowDemand> = (0..400)
            .map(|_| FlowDemand {
                src: hosts[0],
                dst: hosts[11],
                packets: 10,
            })
            .collect();
        let flows = simulate_flows(
            &topo,
            &router,
            &sc,
            &demands,
            &FlowSimConfig::default(),
            &mut rng,
        );
        let distinct: std::collections::HashSet<&[LinkId]> =
            flows.iter().map(|f| f.true_path.as_slice()).collect();
        assert_eq!(distinct.len(), 4, "tiny Clos has 4 inter-pod ECMP paths");
    }
}
