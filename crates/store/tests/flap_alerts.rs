//! Flap detection and alert debouncing end to end: a flapping gray
//! failure driven through the real pipeline must raise exactly ONE
//! debounced alert for the whole episode — no raise/clear churn per
//! oscillation — clear it after the final heal, and be reported by the
//! flapping query.

use flock_netsim::dynamic::{DynamicScenario, FaultEvent};
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_store::{AlertPolicy, StoreConfig, StoreQuery, VerdictStore};
use flock_stream::{EpochConfig, StreamConfig, StreamPipeline};
use flock_telemetry::{AnalysisMode, InputKind, MonitoredFlow};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Component, Router, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pods3() -> Topology {
    three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    })
}

fn epoch_flows(
    topo: &Topology,
    router: &Router<'_>,
    sc: &DynamicScenario,
    epoch: u64,
    rng: &mut StdRng,
) -> Vec<MonitoredFlow> {
    let snapshot = sc.scenario_at(epoch);
    let demands = generate_demands(
        topo,
        &TrafficConfig::paper(3_000, TrafficPattern::Uniform),
        rng,
    );
    simulate_flows(
        topo,
        router,
        &snapshot,
        &demands,
        &FlowSimConfig::default(),
        rng,
    )
}

#[test]
fn flapping_fault_raises_one_debounced_alert_and_clears_on_heal() {
    let topo = pods3();
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(40);

    // One link flapping three times: blamed on epochs {1,2}, {4,5},
    // {7,8}; clean in between and from epoch 9 on.
    let mut sc = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let link = topo.fabric_links()[11];
    for (appear, heal) in [(1, 3), (4, 6), (7, 9)] {
        sc.events.push(FaultEvent {
            link,
            drop_rate: 0.02,
            appear_epoch: appear,
            heal_epoch: Some(heal),
        });
    }
    let comp = Component::Link(link);

    let mut pipeline = StreamPipeline::new(
        &topo,
        StreamConfig {
            epoch: EpochConfig::tumbling(1_000),
            kinds: vec![InputKind::Int],
            mode: AnalysisMode::PerPacket,
            shard_by_pod: true,
            ..StreamConfig::paper_default()
        },
    );
    // Raise after 2 persisting epochs; hold through 1-epoch heals
    // (clear only after 2 consecutive clean epochs) — the oscillation
    // period here is inside the hold-down, so the episode must stay one
    // alert.
    let mut store = VerdictStore::in_memory(StoreConfig {
        ring_capacity: 16,
        policy: AlertPolicy {
            raise_epochs: 2,
            clear_epochs: 2,
            flap_transitions: 3,
            flap_window: 16,
        },
    });

    for epoch in 0..12u64 {
        let flows = epoch_flows(&topo, &router, &sc, epoch, &mut rng);
        let report = pipeline.run_flows(epoch, epoch * 1_000, (epoch + 1) * 1_000, &flows);
        // The pipeline layer must track the oscillation exactly — the
        // precondition for the alert-churn assertion to be meaningful.
        let active = !sc.active_at(epoch).is_empty();
        assert_eq!(
            report.result.predicted == vec![comp],
            active,
            "epoch {epoch}: blamed {:?}, fault active: {active}",
            report.result.predicted
        );
        let delta = store.ingest(&report);
        // Raise fires exactly once, at the 2nd persisting epoch.
        assert_eq!(
            !delta.raised.is_empty(),
            epoch == 2,
            "epoch {epoch}: unexpected raise set {:?}",
            delta.raised
        );
        // Clear fires exactly once, after the 2nd clean epoch past the
        // last oscillation.
        assert_eq!(
            !delta.cleared.is_empty(),
            epoch == 10,
            "epoch {epoch}: unexpected clear set {:?}",
            delta.cleared
        );
    }

    // One alert for the whole flapping episode — no churn.
    assert_eq!(store.alerts().len(), 1, "alert churn: {:?}", store.alerts());
    let alert = &store.alerts()[0];
    assert_eq!(alert.component, comp);
    assert_eq!(alert.first_epoch, 1);
    assert_eq!(alert.raised_epoch, 2);
    assert_eq!(alert.cleared_epoch, Some(10));
    assert!(store.active_alerts().is_empty());

    // The blame history holds exactly the active epochs.
    let epochs: Vec<u64> = store.history(comp).iter().map(|s| s.epoch).collect();
    assert_eq!(epochs, vec![1, 2, 4, 5, 7, 8]);

    // And the oscillation is visible to the flap query.
    assert_eq!(store.flapping(12), vec![comp]);

    // Provenance stays answerable per blamed epoch, naming the
    // convicting shard and super-flows.
    for e in [1u64, 5, 8] {
        let prov = store
            .provenance(comp, e)
            .expect("blamed epoch has provenance");
        assert!(prov.super_flows > 0, "epoch {e}: empty provenance");
        assert!(!prov.shard.is_empty());
        assert!(!prov.sets.is_empty());
    }
    assert!(store.provenance(comp, 3).is_none(), "clean epoch has none");
}
