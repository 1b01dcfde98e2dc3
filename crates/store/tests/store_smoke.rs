//! The store smoke CI runs: drive the standard appear/persist/heal
//! fixture through the pipeline into a *durable* store, close it,
//! reopen, and re-ask every query — blame history, the single debounced
//! alert, and per-epoch provenance must all survive the restart (the
//! tier-2 path is forced by a tiny tier-1 ring).

use flock_netsim::dynamic::{DynamicScenario, FaultEvent};
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_store::{AlertPolicy, StoreConfig, StoreQuery, VerdictStore};
use flock_stream::{EpochConfig, StreamConfig, StreamPipeline};
use flock_telemetry::{AnalysisMode, InputKind};
use flock_topology::clos::{three_tier, ClosParams};
use flock_topology::{Component, Router};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn write_reopen_query() {
    let topo = three_tier(ClosParams {
        pods: 3,
        tors_per_pod: 2,
        aggs_per_pod: 2,
        spines_per_plane: 2,
        hosts_per_tor: 3,
    });
    let router = Router::new(&topo);
    let mut rng = StdRng::seed_from_u64(40);

    // The standard fixture: fault appears at epoch 1, heals at epoch 4.
    let mut sc = DynamicScenario::noise_only(&topo, 1e-4, &mut rng);
    let link = topo.fabric_links()[11];
    sc.events.push(FaultEvent {
        link,
        drop_rate: 0.02,
        appear_epoch: 1,
        heal_epoch: Some(4),
    });
    let comp = Component::Link(link);

    let path = std::env::temp_dir().join(format!("flock_store_smoke_{}.seg", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cfg = StoreConfig {
        // Tiny ring: epoch-1 queries after reopen MUST come from the
        // durable tier, not the hot one.
        ring_capacity: 2,
        policy: AlertPolicy {
            raise_epochs: 2,
            clear_epochs: 1,
            ..AlertPolicy::default()
        },
    };

    // ---- Write: run the fixture into a fresh durable store. ----
    {
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
        let mut store = VerdictStore::create(cfg, &path).unwrap();
        for epoch in 0..6u64 {
            let snapshot = sc.scenario_at(epoch);
            let demands = generate_demands(
                &topo,
                &TrafficConfig::paper(3_000, TrafficPattern::Uniform),
                &mut rng,
            );
            let flows = simulate_flows(
                &topo,
                &router,
                &snapshot,
                &demands,
                &FlowSimConfig::default(),
                &mut rng,
            );
            let report = pipeline.run_flows(epoch, epoch * 1_000, (epoch + 1) * 1_000, &flows);
            store.ingest(&report);
        }
        store.sync().unwrap();
        // Sanity before the restart: one debounced alert, raised and
        // cleared.
        assert_eq!(store.alerts().len(), 1);
        assert_eq!(store.alerts()[0].raised_epoch, 2);
        assert_eq!(store.alerts()[0].cleared_epoch, Some(4));
    }

    // ---- Reopen: every query must survive the restart. ----
    let mut store = VerdictStore::open(cfg, &path).unwrap();
    assert!(store.torn().is_none());
    assert_eq!(store.durable_epochs(), 6);
    assert_eq!(store.metrics().counter("epochs_ingested"), 6);

    // Queryable blame history for the faulty component.
    let history = store.history(comp);
    let epochs: Vec<u64> = history.iter().map(|s| s.epoch).collect();
    assert_eq!(epochs, vec![1, 2, 3]);
    assert!(history.iter().all(|s| s.score.is_finite() && s.score > 0.0));

    // Exactly one debounced alert: raised after 2 persisting epochs,
    // cleared on heal.
    assert_eq!(store.alerts().len(), 1);
    let alert = &store.alerts()[0];
    assert_eq!(alert.component, comp);
    assert_eq!(alert.raised_epoch, 2);
    assert_eq!(alert.cleared_epoch, Some(4));
    assert!(store.active_alerts().is_empty());

    // Non-empty provenance naming the convicting super-flows/shard —
    // epoch 1 is outside the reopened 2-epoch ring, so this exercises
    // the durable tier.
    let prov = store
        .provenance(comp, 1)
        .expect("provenance survives reopen");
    assert!(prov.super_flows > 0);
    assert!(prov.raw_weight > 0.0);
    assert!(!prov.shard.is_empty());
    assert!(!prov.sets.is_empty());

    // The stored record also exports as JSON via the serde layer (what
    // the daemon's --json mode emits).
    let rec = store.recent().next().expect("ring has records").clone();
    let json = serde::json::to_string(&rec);
    assert!(
        json.starts_with('{') && json.contains("\"verdicts\""),
        "{json}"
    );

    std::fs::remove_file(&path).unwrap();
}
