//! Standalone per-layer probes, run after the measured blocks of a
//! traced run on two consecutive epochs of the cycle. They time public
//! entry points of single
//! layers that the end-to-end path only reaches through the pipeline.

use crate::gen::{StreamInputs, StreamSpec};
use crate::outcome::{Ops, Verdicts};
use crate::stats::{median, ms};
use flock::core::{Engine, FlockGreedy, HyperParams, KernelDispatch};
use flock::prelude::*;
use flock::stream::reconstruct;
use flock::telemetry::wire::{DecodeStep, StreamDecoder};
use flock::telemetry::Assembler;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

type Layers = BTreeMap<&'static str, f64>;

/// The two consecutive cycle positions probed (every workload has a
/// fault active at both; on `infer_churn` a third link fails between).
const PROBE_POSITIONS: [usize; 2] = [2, 3];

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (ms(started.elapsed()), out)
}

/// Wire decode, `reconstruct`, assembly and the engine, on a streaming
/// workload's inputs.
pub fn stream(topo: &Topology, spec: &StreamSpec, inputs: &mut StreamInputs, l: &mut Layers) {
    let mut decode_ns = Vec::new();
    let mut reconstruct_ms = Vec::new();
    let flows: [Vec<MonitoredFlow>; 2] = if spec.socket {
        PROBE_POSITIONS.map(|pos| {
            let records = inputs.epochs[pos].records(true);
            let bytes: Vec<u8> = inputs
                .encode(pos, pos as u64, 1)
                .into_iter()
                .flatten()
                .flatten()
                .collect();
            let mut decoded = Vec::new();
            for _ in 0..REPS {
                let mut decoder = StreamDecoder::new();
                let (t, messages) = timed_ms(|| {
                    decoder.feed(&bytes);
                    let mut messages = Vec::new();
                    while let DecodeStep::Message(m) = decoder.next_step() {
                        messages.push(m);
                    }
                    messages
                });
                decode_ns.push(t * 1e6 / records as f64);
                decoded = messages;
            }
            let records: Vec<FlowRecord> = decoded.into_iter().flat_map(|m| m.records).collect();
            let mut flows = Vec::new();
            for _ in 0..REPS {
                let input = records.clone();
                let (t, out) = timed_ms(|| reconstruct(input));
                reconstruct_ms.push(t);
                flows = out;
            }
            flows
        })
    } else {
        PROBE_POSITIONS.map(|pos| inputs.epochs[pos].flows.clone())
    };
    l.insert("wire.decode_ns_per_record", median(&decode_ns));
    l.insert("pipeline.reconstruct_ms", median(&reconstruct_ms));
    let kinds = StreamConfig::paper_default().kinds;
    input_and_core(topo, &flows, &kinds, l);
}

/// Assembly (cold, then warm against the recycled arena) and the engine
/// (cold build and search, then rebind and warm search) over two
/// consecutive inputs.
pub fn input_and_core(
    topo: &Topology,
    flows: &[Vec<MonitoredFlow>; 2],
    kinds: &[InputKind],
    l: &mut Layers,
) {
    let params = HyperParams::default();
    let greedy = FlockGreedy::new(params);
    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..REPS {
        let router = Router::new(topo);
        let mut asm = Assembler::new();
        let (cold_ms, obs0) =
            timed_ms(|| asm.assemble(topo, &router, &flows[0], kinds, AnalysisMode::PerPacket));
        let (build_ms, mut engine) = timed_ms(|| Engine::new(topo, &obs0, params));
        let (search_ms, (picked, _)) = timed_ms(|| greedy.search(&mut engine));
        let stats = engine.stats();
        let seed: Vec<_> = picked.iter().map(|&(c, _)| c).collect();
        asm.recycle(obs0);
        let (warm_ms, obs1) =
            timed_ms(|| asm.assemble(topo, &router, &flows[1], kinds, AnalysisMode::PerPacket));
        let (rebind_ms, ()) = timed_ms(|| engine.rebind(topo, &obs1));
        let (search_warm_ms, warm) = timed_ms(|| greedy.search_warm(&mut engine, &seed));
        black_box(warm);
        let sizes = engine.state_sizes();
        for (name, v) in [
            ("input.assemble_cold_ms", cold_ms),
            ("input.assemble_warm_ms", warm_ms),
            ("input.observations", obs1.flows.len() as f64),
            ("input.super_flows", obs1.coalesced_count() as f64),
            ("input.arena_paths", obs1.arena.path_count() as f64),
            ("input.arena_sets", obs1.arena.set_count() as f64),
            ("core.engine_build_ms", build_ms),
            ("core.search_cold_ms", search_ms),
            ("core.flips", stats.flips as f64),
            ("core.flow_updates", stats.flow_updates as f64),
            ("core.flips_per_s", stats.flips as f64 / (search_ms / 1e3)),
            ("core.rebind_ms", rebind_ms),
            ("core.search_warm_ms", search_warm_ms),
            (
                "core.term_table_entries",
                engine.term_table_sizes().1 as f64,
            ),
            ("core.state_sets", sizes.sets as f64),
            ("core.state_paths", sizes.paths as f64),
        ] {
            m.entry(name).or_default().push(v);
        }
    }
    for (name, v) in m {
        l.insert(name, median(&v));
    }
    l.insert(
        "input.coalesce_ratio",
        l["input.observations"] / l["input.super_flows"].max(1.0),
    );
    l.insert("topology.links", topo.link_count() as f64);
    l.insert(
        "topology.components",
        flock::core::ComponentSpace::new(topo).n_comps() as f64,
    );
    l.insert(
        "core.kernel_dispatch",
        f64::from(KernelDispatch::resolve().level()),
    );
}

/// Close the store and replay it (`VerdictStore::open`), check that
/// every ingested epoch came back, and time the two operator queries.
pub fn store(
    store: VerdictStore,
    path: &Path,
    ingested: usize,
    verdicts: &Verdicts,
    ops: &mut Ops,
    l: &mut Layers,
) {
    drop(store);
    let (reopen_ms, reopened) = timed_ms(|| VerdictStore::open(StoreConfig::default(), path));
    l.insert("store.reopen_ms", reopen_ms);
    let mut reopened = match reopened {
        Ok(s) if s.torn().is_none() && s.durable_epochs() == ingested => s,
        Ok(s) => {
            return ops.fail(format!(
                "store reopen: {} of {ingested} epochs, torn {:?}",
                s.durable_epochs(),
                s.torn()
            ))
        }
        Err(e) => return ops.fail(format!("store reopen: {e}")),
    };
    // Query a blamed component's history, then the provenance of its
    // oldest blame: long out of the ring, so served from the segment.
    let Some(comp) = verdicts.any_blamed() else {
        return;
    };
    let mut history_us = Vec::new();
    let mut provenance_us = Vec::new();
    for _ in 0..REPS {
        let (t, history) = timed_ms(|| reopened.history(comp));
        history_us.push(t * 1e3);
        let oldest = history.first().map_or(0, |s| s.epoch);
        let (t, prov) = timed_ms(|| reopened.provenance(comp, oldest));
        provenance_us.push(t * 1e3);
        if history.is_empty() || prov.is_none() {
            return ops.fail(format!("store: no history or provenance for {comp:?}"));
        }
    }
    l.insert("store.history_query_us", median(&history_us));
    l.insert("store.provenance_query_us", median(&provenance_us));
}
