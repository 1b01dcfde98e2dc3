//! The run protocol of `offline_cold`: the paper's setting.
//!
//! Each operation localizes one seeded trace from scratch — a fresh
//! `Router` and arena, `assemble`, `FlockGreedy::localize` — with no warm
//! start, sharding or executor. The trace cycle is K traces long; every
//! trace is regenerated from `(seed, position)` right before its
//! operation (load generator, outside the clocks), so a second pass over
//! the cycle must reproduce the first pass's verdicts. Latency is flows
//! in memory → `LocalizationResult`; one operation is outstanding at a
//! time, so the same operations also give throughput and CPU cost.

use crate::gen::{OfflineInputs, OfflineSpec};
use crate::outcome::{Latencies, Outcome, Verdicts};
use crate::stats::{median, ms, process_cpu};
use crate::trace::Tracer;
use crate::{probes, Args};
use flock::prelude::*;
use flock::telemetry::input::assemble;
use flock::topology::clos::three_tier;
use std::time::{Duration, Instant};

const KINDS: [InputKind; 3] = [InputKind::A1, InputKind::A2, InputKind::P];

/// One operation: flows in memory → `LocalizationResult`.
fn localize(
    topo: &Topology,
    flows: &[MonitoredFlow],
    tracer: &mut Tracer,
    op: u64,
) -> LocalizationResult {
    tracer.enter("epoch", op);
    tracer.enter("input.assemble", op);
    let router = Router::new(topo);
    let obs = assemble(topo, &router, flows, &KINDS, AnalysisMode::PerPacket);
    tracer.exit();
    tracer.enter("core.localize", op);
    let result = FlockGreedy::default().localize(topo, &obs);
    tracer.exit();
    tracer.exit();
    result
}

pub fn run(name: &str, spec: &OfflineSpec, args: &Args) -> Outcome {
    let gen_started = Instant::now();
    let inputs: OfflineInputs = crate::gen::offline_inputs(spec, args.seed);
    let gen_router = Router::new(&inputs.topo);
    let mut gen_s = gen_started.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut digest = crate::gen::Fnv::new();

    // Set-up: topology plus a first, discarded, trace.
    let first = inputs.trace(spec, &gen_router, 0);
    let mut topology_ms = Vec::new();
    for _ in 0..args.setups {
        let started = Instant::now();
        let topo = three_tier(inputs.clos);
        topology_ms.push(ms(started.elapsed()));
        std::hint::black_box(localize(&topo, &first.flows, &mut tracer, 0));
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    drop(first);

    let topo = &inputs.topo;
    let mut verdicts = Verdicts::new(spec.k);
    let mut truths = vec![GroundTruth::default(); spec.k];
    let mut latencies = Latencies::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    // At least one full cycle, so that accuracy is scored on the same
    // traces whatever the machine's speed.
    while op < spec.k as u64 || Instant::now() < deadline {
        let pos = (op % spec.k as u64) as usize;
        // Every other operation is traced, the phase flipping from pass
        // to pass.
        let traced = args.trace && (op / spec.k as u64 + op).is_multiple_of(2);
        tracer.set(traced);
        let gen_started = Instant::now();
        let trace = inputs.trace(spec, &gen_router, pos);
        if op < spec.k as u64 {
            digest.flows(&trace.flows);
            digest.truth(&trace.truth);
            gen_s += gen_started.elapsed().as_secs_f64();
            out.records_per_cycle += trace.flows.len();
        }
        let cpu0 = process_cpu();
        let started = Instant::now();
        let result = localize(topo, &trace.flows, &mut tracer, op);
        let took = ms(started.elapsed());
        out.sat_cpu_ms.push(pos, ms(process_cpu() - cpu0));
        out.sat_wall_ms.push(pos, took);
        latencies.push(pos, traced, took);
        out.ops.attempted += 1;
        verdicts.check(&mut out.ops, pos, &result.predicted);
        truths[pos] = trace.truth;
        op += 1;
    }
    tracer.set(false);
    let overhead_pct = latencies.trace_overhead_pct();
    out.latency_ms = latencies.merged();
    let (fscore, verdict_digest) = verdicts.score(topo, truths.iter());
    out.fscore = fscore;

    if args.trace {
        let l = &mut out.layers;
        l.insert("gen.workload_s", gen_s);
        l.insert("gen.input_digest", digest.folded());
        l.insert("verdict_digest", verdict_digest.folded());
        l.insert("topology.build_ms", median(&topology_ms));
        l.insert("trace.overhead_pct", overhead_pct);
        crate::shares(&tracer, l);
        let flows = [0, 1].map(|pos| inputs.trace(spec, &gen_router, pos).flows);
        probes::input_and_core(topo, &flows, &KINDS, l);
        crate::write_trace(args, name, &tracer);
    }
    out
}
