//! Integration: the full online loop — agents exporting over real TCP
//! sockets, the collector's stamped store, epoch windowing, and
//! warm-started localization — across a dynamic failure that appears and
//! heals mid-run.

use flock::prelude::*;
use flock::telemetry::agent::{AgentConfig, AgentCore, Exporter, FlowSample};
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH_MS: u64 = 1_000;

#[test]
fn collector_to_stream_detects_fault_and_heal() {
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    });
    let router = Router::new(&topo);
    let mut rng = rand::rngs::StdRng::seed_from_u64(55);

    // Fault active over epochs [1, 3): one appearance, one heal.
    let mut scenario = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let faulty = topo.fabric_links()[5];
    scenario.events.push(FaultEvent {
        link: faulty,
        drop_rate: 0.02,
        appear_epoch: 1,
        heal_epoch: Some(3),
    });

    let collector = Collector::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(
        &topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(EPOCH_MS),
            kinds: vec![InputKind::A2, InputKind::P],
            mode: AnalysisMode::PerPacket,
            shard_by_pod: false,
            ..StreamConfig::paper_default()
        },
    );

    let mut reports: Vec<EpochReport> = Vec::new();
    for epoch in 0..4u64 {
        let snapshot = scenario.scenario_at(epoch);
        let demands = flock::netsim::traffic::generate_demands(
            &topo,
            &TrafficConfig::paper(3_000, TrafficPattern::Uniform),
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
        pipeline.ingest_bucketed(collector.drain_buckets());
        reports.extend(pipeline.poll((epoch + 1) * EPOCH_MS));
    }
    reports.extend(pipeline.drain());
    assert_eq!(pipeline.late_records(), 0);
    assert_eq!(reports.len(), 4, "one report per epoch");

    for report in &reports {
        let active = scenario.active_at(report.epoch_index);
        let blamed = report.result.predicted_links();
        if active.is_empty() {
            assert!(
                blamed.is_empty(),
                "epoch {}: healed/clean network must clear the verdict, blamed {:?}",
                report.epoch_index,
                report.result.predicted
            );
        } else {
            assert_eq!(
                blamed, active,
                "epoch {}: active fault must be blamed exactly",
                report.epoch_index
            );
        }
    }
    // The assembly stage accounts for itself: its three named parts are
    // measured back to back inside `prepare`.
    for report in &reports {
        let st = report.stages;
        assert!(!st.assemble.is_zero() && !st.index.is_zero() && !st.flow_table.is_zero());
        assert!(
            st.assemble + st.index + st.flow_table <= st.prepare,
            "epoch {}: {st:?}",
            report.epoch_index
        );
    }
    // The heal is detected: the faulty link vanishes from later verdicts.
    assert!(reports[1].result.predicted_links().contains(&faulty));
    assert!(reports[2].result.predicted_links().contains(&faulty));
    assert!(!reports[3].result.predicted_links().contains(&faulty));
    collector.shutdown();
}

/// The knob count is held by the compiler: the benchmark's config
/// literal destructured *exhaustively* (no `..`), so adding a field to
/// `StreamConfig` — or bringing back a baseline switch — stops this
/// file compiling until the count below is changed on purpose.
#[test]
fn stream_config_has_exactly_nine_knobs() {
    let epoch = EpochConfig::tumbling(EPOCH_MS);
    let StreamConfig {
        epoch: got_epoch,
        kinds,
        mode,
        params: _,
        shard_by_pod,
        epoch_deadline,
        chaos,
        pipelined,
        workers,
    } = StreamConfig {
        epoch,
        shard_by_pod: true,
        pipelined: true,
        ..StreamConfig::paper_default()
    };
    assert_eq!(got_epoch, epoch);
    assert!(shard_by_pod && pipelined);
    // Everything the benchmark leaves alone sits at the paper default.
    assert_eq!(kinds, vec![InputKind::A2, InputKind::P]);
    assert_eq!(mode, AnalysisMode::PerPacket);
    assert!(epoch_deadline.is_none() && chaos.is_none());
    assert_eq!(workers, 0);
}

/// Epoch `k` of the overlap regression below: traffic among the first
/// `reach` hosts, sizes from a small palette, 5 % loss on every flow
/// crossing `faulty`. Paths are traced for lossy flows (A2) and ECMP
/// sets interned per ToR pair (P), so a wider `reach` interns new paths
/// and sets.
fn corner_traffic(
    topo: &Topology,
    router: &Router,
    faulty: LinkId,
    reach: usize,
    rng: &mut rand::rngs::StdRng,
) -> Vec<MonitoredFlow> {
    use rand::RngExt;
    let hosts = &topo.hosts()[..reach];
    (0..400u16)
        .map(|i| {
            let s = hosts[rng.random_range(0..hosts.len())];
            let mut d = hosts[rng.random_range(0..hosts.len())];
            while d == s {
                d = hosts[rng.random_range(0..hosts.len())];
            }
            let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
            let mut true_path = vec![topo.host_uplink(s)];
            true_path.extend_from_slice(&paths[rng.random_range(0..paths.len())].links);
            true_path.push(topo.host_downlink(d));
            let packets = [40u64, 100, 250][rng.random_range(0..3usize)];
            let retransmissions = if true_path.contains(&faulty) {
                packets / 20
            } else {
                0
            };
            MonitoredFlow {
                key: FlowKey::tcp(s, d, 1000 + i, 80),
                stats: flock::telemetry::FlowStats {
                    packets,
                    retransmissions,
                    bytes: packets * 1500,
                    rtt_sum_us: 100,
                    rtt_count: 1,
                    rtt_max_us: 100,
                },
                class: flock::telemetry::TrafficClass::Passive,
                true_path,
            }
        })
        .collect()
}

/// `submit_flows` overlaps epochs whatever `StreamConfig::pipelined`
/// says, so the collect path must catch the reclaimed arena copy up on
/// the default config too. The reach schedule is a sawtooth with rising
/// peaks: every peak interns new paths and sets into the copy the
/// in-flight epoch holds, and the corner epoch after it is assembled on
/// the *other* copy — which, if it missed the peak's interning, is
/// smaller than what the shard views have already seen.
#[test]
fn back_to_back_submit_on_the_default_config_matches_run_flows() {
    let topo = flock::topology::clos::three_tier(ClosParams {
        pods: 4,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    });
    let router = Router::new(&topo);
    let hosts = topo.hosts();
    // A ToR uplink inside the corner every epoch's traffic covers.
    let faulty = router.paths(topo.host_leaf(hosts[0]), topo.host_leaf(hosts[3]))[0].links[0];
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let epochs: Vec<Vec<MonitoredFlow>> = [2, 4, 2, 5, 2, 6, 2, 8]
        .iter()
        .map(|eighths| corner_traffic(&topo, &router, faulty, hosts.len() * eighths / 8, &mut rng))
        .collect();

    let mut overlapped = StreamPipeline::new(&topo, StreamConfig::paper_default());
    let mut sequential = StreamPipeline::new(&topo, StreamConfig::paper_default());
    let mut got: Vec<EpochReport> = Vec::new();
    let mut want: Vec<EpochReport> = Vec::new();
    for (k, flows) in epochs.iter().enumerate() {
        let (k, start, end) = (k as u64, k as u64 * EPOCH_MS, (k as u64 + 1) * EPOCH_MS);
        got.extend(overlapped.submit_flows(k, start, end, flows));
        want.push(sequential.run_flows(k, start, end, flows));
    }
    got.extend(overlapped.flush_inflight());
    assert_eq!(got.len(), epochs.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g.health,
            EpochHealth::Healthy,
            "epoch {}: {:?}",
            g.epoch_index,
            g.health.reasons()
        );
        assert_eq!(g.epoch_index, w.epoch_index);
        assert!(
            g.result.predicted_links().contains(&faulty),
            "epoch {}: blamed {:?}",
            g.epoch_index,
            g.result.predicted
        );
        assert_eq!(g.result.predicted, w.result.predicted);
        assert_eq!(g.result.scores, w.result.scores);
    }
}
