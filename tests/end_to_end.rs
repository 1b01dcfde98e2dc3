//! Cross-crate integration: simulator → telemetry assembly → inference,
//! for every scheme, on shared traces.

use flock::prelude::*;
use flock::telemetry::plan_a1_probes;
use rand::SeedableRng;

struct Episode {
    topo: Topology,
    flows: Vec<MonitoredFlow>,
    truth: GroundTruth,
}

fn episode(n_failures: usize, flows_n: usize, seed: u64) -> Episode {
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 4,
    });
    let router = Router::new(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let scenario =
        flock::netsim::failure::silent_link_drops(&topo, n_failures, (0.01, 0.02), 1e-4, &mut rng);
    let demands = flock::netsim::traffic::generate_demands(
        &topo,
        &TrafficConfig::paper(flows_n, TrafficPattern::Uniform),
        &mut rng,
    );
    let cfg = FlowSimConfig::default();
    let mut flows =
        flock::netsim::flowsim::simulate_flows(&topo, &router, &scenario, &demands, &cfg, &mut rng);
    // 1000 packets per probe path: enough resolution to separate the
    // 1-2% failure rates under test from the 0.01% noise floor.
    let probes = plan_a1_probes(&topo, &router, 1000, None);
    flows.extend(flock::netsim::flowsim::run_probes(
        &scenario, &probes, &cfg, &mut rng,
    ));
    Episode {
        truth: scenario.truth,
        topo,
        flows,
    }
}

fn assemble(ep: &Episode, kinds: &[InputKind]) -> ObservationSet {
    let router = Router::new(&ep.topo);
    flock::telemetry::input::assemble(&ep.topo, &router, &ep.flows, kinds, AnalysisMode::PerPacket)
}

#[test]
fn flock_int_localizes_exactly() {
    // Seed chosen so the two drawn failures sit on disjoint devices (the
    // Theorem 2 separable regime); when both failed links share a switch
    // the MLE correctly prefers the device hypothesis, which App. A.1
    // scores as a precision miss.
    let ep = episode(2, 6_000, 2);
    let obs = assemble(&ep, &[InputKind::Int]);
    let r = FlockGreedy::default().localize(&ep.topo, &obs);
    let pr = evaluate(&ep.topo, &r.predicted, &ep.truth);
    assert_eq!(
        pr.recall, 1.0,
        "blamed {:?}, truth {:?}",
        r.predicted, ep.truth
    );
    assert!(pr.precision >= 0.99);
}

/// The gray-failure headline under heavy-tailed traffic: one fabric link
/// dropping 5 % of what crosses it, Pareto(shape 1.05) flow sizes (so
/// almost no two flows share an evidence key and coalescing has little
/// to merge), traced paths. Flock blames exactly that link, P = R = 1.0,
/// on every seed. Three pods: in a 2-pod Clos every agg–spine link is
/// exactly serial with its plane-mate in the other pod, so the truth
/// there is unidentifiable in principle.
#[test]
fn flock_int_localizes_heavy_tailed_gray_link() {
    use rand::RngExt;
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    });
    let router = Router::new(&topo);
    let hosts = topo.hosts();
    let fabric = topo.fabric_links();
    let sizes = flock::netsim::dist::Pareto::new(50.0, 1.05);
    for seed in 0..24u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gray = fabric[rng.random_range(0..fabric.len())];
        let flows: Vec<MonitoredFlow> = (0..400u16)
            .map(|i| {
                let s = hosts[rng.random_range(0..hosts.len())];
                let mut d = hosts[rng.random_range(0..hosts.len())];
                while d == s {
                    d = hosts[rng.random_range(0..hosts.len())];
                }
                let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
                let mut true_path = vec![topo.host_uplink(s)];
                true_path.extend_from_slice(&paths[rng.random_range(0..paths.len())]);
                true_path.push(topo.host_downlink(d));
                let packets = sizes.sample(&mut rng).clamp(1.0, 100_000.0) as u64;
                // 0.5 % of clean flows see one stray bad packet of noise.
                let retransmissions = if true_path.contains(&gray) {
                    (packets as f64 * 0.05).ceil() as u64
                } else {
                    u64::from(rng.random_range(0..200u32) == 0)
                };
                MonitoredFlow {
                    key: FlowKey::tcp(s, d, i, 80),
                    stats: flock::telemetry::FlowStats {
                        packets,
                        retransmissions,
                        bytes: 0,
                        rtt_sum_us: 0,
                        rtt_count: 0,
                        rtt_max_us: 0,
                    },
                    class: flock::telemetry::TrafficClass::Passive,
                    true_path,
                }
            })
            .collect();
        let obs = flock::telemetry::input::assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::Int],
            AnalysisMode::PerPacket,
        );
        let r = FlockGreedy::default().localize(&topo, &obs);
        assert_eq!(
            r.predicted,
            vec![Component::Link(gray)],
            "seed {seed}: missed the gray link"
        );
    }
}

#[test]
fn every_scheme_runs_on_its_input() {
    let ep = episode(1, 3_000, 2);
    let schemes: Vec<(Vec<InputKind>, Box<dyn Localizer>)> = vec![
        (vec![InputKind::Int], Box::new(FlockGreedy::default())),
        (
            vec![InputKind::A1, InputKind::P],
            Box::new(FlockGreedy::default()),
        ),
        (vec![InputKind::A1], Box::new(NetBouncer::new(1.0, 5e-3))),
        (vec![InputKind::A2], Box::new(ZeroZeroSeven::new(1.0))),
        (
            vec![InputKind::Int],
            Box::new(SherlockFerret::with_jle(HyperParams::default(), 1)),
        ),
    ];
    for (kinds, localizer) in schemes {
        let obs = assemble(&ep, &kinds);
        let r = localizer.localize(&ep.topo, &obs);
        let pr = evaluate(&ep.topo, &r.predicted, &ep.truth);
        // Sanity: on an easy single-failure episode no scheme should blame
        // a wildly wrong set (precision 0 with many predictions).
        assert!(
            pr.recall > 0.0 || r.predicted.len() <= 1,
            "{}: predicted {:?} truth {:?}",
            localizer.name(),
            r.predicted,
            ep.truth
        );
    }
}

#[test]
fn flock_beats_voting_under_skew() {
    // The §7.3 story: skewed traffic breaks 007's votes but not Flock.
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 4,
        tors_per_pod: 4,
        aggs_per_pod: 2,
        spines_per_plane: 4,
        hosts_per_tor: 6,
    });
    let router = Router::new(&topo);
    let mut flock_f = 0.0;
    let mut seven_f = 0.0;
    let trials = 6;
    for seed in 0..trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
        let scenario =
            flock::netsim::failure::silent_link_drops(&topo, 2, (0.008, 0.012), 1e-4, &mut rng);
        let demands = flock::netsim::traffic::generate_demands(
            &topo,
            &TrafficConfig::paper(15_000, TrafficPattern::paper_skewed()),
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
        let obs = flock::telemetry::input::assemble(
            &topo,
            &router,
            &flows,
            &[InputKind::A2],
            AnalysisMode::PerPacket,
        );
        // Parameters from the §5.2 calibration procedure (the fig2a
        // harness selects these for the A2 input kind).
        let params = HyperParams {
            p_g: 5e-4,
            p_b: 6e-3,
            rho_link: (-15.0f64).exp(),
            ..Default::default()
        };
        let rf = FlockGreedy::new(params).localize(&topo, &obs);
        let prf = evaluate(&topo, &rf.predicted, &scenario.truth);
        flock_f += fscore(prf.precision, prf.recall);
        let rs = ZeroZeroSeven::new(2.0).localize(&topo, &obs);
        let prs = evaluate(&topo, &rs.predicted, &scenario.truth);
        seven_f += fscore(prs.precision, prs.recall);
    }
    assert!(
        flock_f > seven_f,
        "Flock {:.3} should beat 007 {:.3} on the same A2 input under skew",
        flock_f / trials as f64,
        seven_f / trials as f64
    );
}

#[test]
fn passive_only_narrows_to_equivalence_class() {
    let ep = episode(1, 8_000, 4);
    let obs = assemble(&ep, &[InputKind::P]);
    let r = FlockGreedy::default().localize(&ep.topo, &obs);
    // The truly failed link must be inside the blamed set OR share an
    // equivalence class with it; at minimum recall through class members
    // means *something* was blamed.
    assert!(
        !r.predicted.is_empty(),
        "passive input carried enough signal to blame at least a class"
    );
}

#[test]
fn zero_failures_zero_blame() {
    let topo = flock::topology::clos::three_tier(ClosParams::tiny());
    let router = Router::new(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let scenario = FailureScenario::noise_only(&topo, 1e-4, &mut rng);
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
    let obs = flock::telemetry::input::assemble(
        &topo,
        &router,
        &flows,
        &[InputKind::Int],
        AnalysisMode::PerPacket,
    );
    let r = FlockGreedy::default().localize(&topo, &obs);
    assert!(
        r.predicted.is_empty(),
        "noise-only trace must produce the empty hypothesis, got {:?}",
        r.predicted
    );
}
