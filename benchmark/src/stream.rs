//! The run protocol of the streaming workloads.
//!
//! One driver thread hands a cycle of K pre-generated epochs to the
//! product in the daemon's shape — pod-sharded, pipelined, exact
//! coalescing, product-default thread counts — either through 2
//! persistent loopback TCP connections into the reactor collector or, for
//! the inference-bound workloads, straight into `submit_flows`.
//!
//! After set-up (constructors plus one warm-up cycle) blocks of K epochs
//! alternate **L S L S …**. In a *latency* block the driver hands over
//! one epoch and immediately asks for its verdict (`flush_inflight`),
//! timing first socket byte / `submit_flows` call → `VerdictStore::ingest`
//! returned. In a *saturation* block epochs are handed over back to back,
//! so assembly of epoch N+1 overlaps inference of epoch N. Both are a
//! closed loop with one (latency) or at most two (saturation) epochs
//! outstanding. Socket payloads are encoded per block, before the block's
//! clock starts.

use crate::gen::{StreamInputs, StreamSpec, EPOCH_MS};
use crate::outcome::{check_report, Latencies, Ops, Outcome, Verdicts};
use crate::stats::{median, ms, process_cpu};
use crate::trace::Tracer;
use crate::{probes, Args};
use flock::prelude::*;
use flock::telemetry::agent::Exporter;
use flock::topology::clos::three_tier;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Connections the driver keeps open to the collector.
const CONNS: usize = 2;

/// One epoch's socket payload: per connection, its messages.
type Payload = Vec<Vec<Vec<u8>>>;

/// The collector and the driver's connections to it.
struct Wire {
    collector: Collector,
    conns: Vec<Exporter>,
}

/// Samples of product-reported and driver-observed per-epoch quantities,
/// taken on latency blocks.
#[derive(Default)]
struct Ledger {
    prepare_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    shard_critical_ms: Vec<f64>,
    shard_sum_ms: Vec<f64>,
    shard_skew: Vec<f64>,
    warm_share: Vec<f64>,
    raw_obs: Vec<f64>,
    super_flows: Vec<f64>,
    hypotheses: Vec<f64>,
    shards: usize,
    refined: u64,
    latency_blocks: u64,
    encode: Duration,
    encoded_records: u64,
    wire_bytes: u64,
}

struct Session<'a> {
    spec: &'a StreamSpec,
    inputs: &'a mut StreamInputs,
    pipeline: StreamPipeline<'a>,
    store: VerdictStore,
    store_path: PathBuf,
    wire: Option<Wire>,
    next_index: u64,
    verdicts: Verdicts,
    ops: Ops,
    tracer: Tracer,
    ledger: Ledger,
    latencies: Latencies,
    ingested: usize,
}

/// Encode one pass over the cycle as epochs `first_index …` (load
/// generator; outside every clock). Empty for in-memory workloads.
fn encode_cycle(spec: &StreamSpec, inputs: &mut StreamInputs, first_index: u64) -> Vec<Payload> {
    if !spec.socket {
        return Vec::new();
    }
    (0..spec.k)
        .map(|pos| inputs.encode(pos, first_index + pos as u64, CONNS))
        .collect()
}

impl<'a> Session<'a> {
    /// The constructors of set-up, in the daemon's order.
    fn new(
        topo: &'a Topology,
        spec: &'a StreamSpec,
        inputs: &'a mut StreamInputs,
        store_path: PathBuf,
    ) -> Self {
        let wire = spec.socket.then(|| {
            let collector = Collector::bind("127.0.0.1:0".parse().expect("literal address"))
                .expect("bind loopback collector");
            let conns = (0..CONNS)
                .map(|_| Exporter::connect(collector.local_addr()).expect("connect to collector"))
                .collect();
            Wire { collector, conns }
        });
        let pipeline = StreamPipeline::new(
            topo,
            StreamConfig {
                epoch: EpochConfig::tumbling(EPOCH_MS),
                shard_by_pod: true,
                pipelined: true,
                ..StreamConfig::paper_default()
            },
        );
        let store =
            VerdictStore::create(StoreConfig::default(), &store_path).expect("create store");
        Session {
            verdicts: Verdicts::new(spec.k),
            spec,
            inputs,
            pipeline,
            store,
            store_path,
            wire,
            next_index: 0,
            ops: Ops::default(),
            tracer: Tracer::new(),
            ledger: Ledger::default(),
            latencies: Latencies::default(),
            ingested: 0,
        }
    }

    /// Encode the next block's socket payloads, on the generator's
    /// account.
    fn encode_block(&mut self) -> Vec<Payload> {
        let started = Instant::now();
        let payloads = encode_cycle(self.spec, self.inputs, self.next_index);
        self.ledger.encode += started.elapsed();
        for (pos, p) in payloads.iter().enumerate() {
            self.ledger.encoded_records += self.inputs.epochs[pos].records(true) as u64;
            self.ledger.wire_bytes += p.iter().flatten().map(|m| m.len() as u64).sum::<u64>();
        }
        payloads
    }

    /// Hand cycle position `pos` to the product as epoch `index`.
    /// Returns what came back — under pipelining the report of the epoch
    /// before, if one was in flight — and the span that holds `prepare`.
    fn hand_over(
        &mut self,
        pos: usize,
        index: u64,
        payload: Option<&Payload>,
    ) -> (Vec<EpochReport>, Option<usize>) {
        let epoch = &self.inputs.epochs[pos];
        let tr = &mut self.tracer;
        let Some(wire) = &mut self.wire else {
            let span = tr.enter("stream.submit_flows", index);
            let prev = self.pipeline.submit_flows(
                index,
                index * EPOCH_MS,
                (index + 1) * EPOCH_MS,
                &epoch.flows,
            );
            tr.exit();
            return (prev.into_iter().collect(), span);
        };
        let payload = payload.expect("socket workloads encode their blocks");
        let expected = epoch.records(true);

        tr.enter("socket.write", index);
        let longest = payload.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (conn, msgs) in wire.conns.iter_mut().zip(payload) {
                if let Some(m) = msgs.get(i) {
                    conn.send(m).expect("collector connection is up");
                }
            }
        }
        tr.exit();

        tr.enter("collector.wait", index);
        let deadline = Instant::now() + Duration::from_secs(10);
        while wire.collector.pending() < expected && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(50));
        }
        tr.exit();

        tr.enter("collector.drain", index);
        let batch = wire.collector.drain_buckets();
        tr.exit();
        if batch.len() != expected {
            self.ops.fail(format!(
                "epoch {index}: collector held {} of {expected} records",
                batch.len()
            ));
        }

        tr.enter("stream.ingest_bucketed", index);
        self.pipeline.ingest_bucketed(batch);
        tr.exit();

        let span = tr.enter("stream.poll", index);
        let reports = self.pipeline.poll((index + 1) * EPOCH_MS);
        tr.exit();
        (reports, span)
    }

    fn store_ingest(&mut self, report: &EpochReport) {
        self.tracer.enter("store.ingest", report.epoch_index);
        self.store.ingest(report);
        self.tracer.exit();
        self.ingested += 1;
    }

    /// One latency block: each epoch handed over, collected and stored
    /// before the next starts. With `trace`, every other epoch is
    /// traced, the phase flipping from block to block.
    fn latency_block(&mut self, trace: bool) {
        let payloads = self.encode_block();
        for pos in 0..self.spec.k {
            let index = self.next_index;
            let traced = trace && (self.ledger.latency_blocks + pos as u64).is_multiple_of(2);
            self.tracer.set(traced);
            self.next_index += 1;
            let records = self.inputs.epochs[pos].records(self.spec.socket);

            let started = Instant::now();
            self.tracer.enter("epoch", index);
            let (mut reports, prepare_span) = self.hand_over(pos, index, payloads.get(pos));
            let flush_span = self.tracer.enter("stream.flush_inflight", index);
            reports.extend(self.pipeline.flush_inflight());
            self.tracer.exit();
            for r in &reports {
                self.store_ingest(r);
            }
            self.tracer.exit();
            let latency = ms(started.elapsed());

            self.latencies.push(pos, traced, latency);
            if reports.len() > 1 {
                self.ops
                    .fail(format!("epoch {index}: {} reports", reports.len()));
            }
            let report = reports.first();
            check_report(
                &mut self.ops,
                Some(&mut self.verdicts),
                pos,
                index,
                records,
                report,
            );
            if let Some(r) = report {
                self.tracer
                    .attach(prepare_span, "prepare", r.stages.prepare, false);
                self.tracer
                    .attach(flush_span, "merge", r.stages.merge, false);
                for s in r.shards.iter().chain(&r.refined) {
                    self.tracer.attach(flush_span, "shard", s.elapsed, true);
                }
                self.ledger.observe(r);
            }
        }
        self.tracer.set(false);
        self.ledger.latency_blocks += 1;
    }

    /// One saturation block: epochs handed over back to back, reports
    /// trailing by one. When `out` is given the block is a measured one:
    /// its verdicts are checked against the first pass and its wall and
    /// CPU time recorded (as one sample each — under pipelining the cost
    /// of an epoch is not attributable to the interval it was handed over
    /// in). The warm-up cycle passes `None`: its first epoch starts cold.
    fn saturation_block(&mut self, payloads: Vec<Payload>, out: Option<&mut Outcome>) {
        let mut handed: Vec<(usize, u64, usize)> = Vec::with_capacity(self.spec.k);
        let mut reports: Vec<EpochReport> = Vec::with_capacity(self.spec.k);
        let started = (Instant::now(), process_cpu());
        for pos in 0..self.spec.k {
            let index = self.next_index;
            self.next_index += 1;
            let records = self.inputs.epochs[pos].records(self.spec.socket);
            handed.push((pos, index, records));
            let (back, _) = self.hand_over(pos, index, payloads.get(pos));
            for r in back {
                self.store_ingest(&r);
                reports.push(r);
            }
        }
        if let Some(r) = self.pipeline.flush_inflight() {
            self.store_ingest(&r);
            reports.push(r);
        }
        let measured = out.is_some();
        if let Some(out) = out {
            out.sat_wall_ms.push(0, ms(started.0.elapsed()));
            out.sat_cpu_ms.push(0, ms(process_cpu() - started.1));
        }
        let mut reports = reports.iter();
        for (pos, index, records) in handed {
            let verdicts = measured.then_some(&mut self.verdicts);
            check_report(&mut self.ops, verdicts, pos, index, records, reports.next());
        }
    }

    /// Alternate latency and saturation blocks for `--seconds`; at least
    /// one of each.
    fn measure(&mut self, args: &Args, out: &mut Outcome) {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut block = 0u64;
        while block < 2 || Instant::now() < deadline {
            if block.is_multiple_of(2) {
                self.latency_block(args.trace);
            } else {
                let payloads = self.encode_block();
                self.saturation_block(payloads, Some(out));
            }
            block += 1;
        }
    }

    /// End-of-run checks; for the measured session also accuracy and, on
    /// a traced run, the per-layer ledger.
    fn finish(
        mut self,
        name: &str,
        args: &Args,
        measured: bool,
        topo: &Topology,
        out: &mut Outcome,
    ) {
        let snap = self
            .wire
            .as_ref()
            .map(|w| w.collector.stats().snapshot())
            .unwrap_or_default();
        if snap.decode_errors > 0 || snap.dropped_records > 0 {
            self.ops.fail(format!(
                "collector: {} decode errors, {} dropped records",
                snap.decode_errors, snap.dropped_records
            ));
        }
        let sync_started = Instant::now();
        let synced = self.store.sync();
        let sync_ms = ms(sync_started.elapsed());
        if synced.is_err()
            || self.store.durability() != Durability::Durable
            || self.store.durable_epochs() != self.ingested
        {
            self.ops.fail(format!(
                "store: {:?}, {} of {} epochs durable",
                self.store.durability(),
                self.store.durable_epochs(),
                self.ingested
            ));
        }
        let (late, rejected) = (
            self.pipeline.late_records(),
            self.pipeline.rejected_records(),
        );
        if late > 0 || rejected > 0 {
            self.ops.fail(format!(
                "pipeline: {late} late, {rejected} rejected records"
            ));
        }
        if measured {
            let truths = self.inputs.epochs.iter().map(|e| &e.truth);
            let (fscore, verdict_digest) = self.verdicts.score(topo, truths);
            out.fscore = fscore;
            out.records_per_cycle = (0..self.spec.k)
                .map(|pos| self.inputs.epochs[pos].records(self.spec.socket))
                .sum();
            let overhead_pct = self.latencies.trace_overhead_pct();
            out.latency_ms = std::mem::take(&mut self.latencies).merged();
            if args.trace {
                let led = &self.ledger;
                let tr = &self.tracer;
                let span = |n: &str| median(&tr.durations_ms(n));
                let encoded = led.encoded_records.max(1) as f64;
                let epochs = self.ingested.max(1) as f64;
                let l = &mut out.layers;
                l.extend([
                    (
                        "gen.encode_ns_per_record",
                        led.encode.as_secs_f64() * 1e9 / encoded,
                    ),
                    ("wire.bytes_per_record", led.wire_bytes as f64 / encoded),
                    ("verdict_digest", verdict_digest.folded()),
                    (
                        "collector.ingest_ms",
                        span("socket.write") + span("collector.wait"),
                    ),
                    ("collector.drain_ms", span("collector.drain")),
                    ("collector.records", snap.records as f64 / epochs),
                    ("collector.decode_errors", snap.decode_errors as f64),
                    ("collector.dropped_records", snap.dropped_records as f64),
                    ("epoch.ingest_bucketed_ms", span("stream.ingest_bucketed")),
                    ("epoch.late_records", late as f64),
                    ("pipeline.rejected_records", rejected as f64),
                    (
                        "pipeline.poll_ms",
                        span("stream.poll") + span("stream.submit_flows"),
                    ),
                    ("pipeline.prepare_ms", median(&led.prepare_ms)),
                    ("pipeline.collect_wait_ms", span("stream.flush_inflight")),
                    ("pipeline.merge_ms", median(&led.merge_ms)),
                    (
                        "pipeline.refined_epochs",
                        led.refined as f64 / led.latency_blocks.max(1) as f64,
                    ),
                    (
                        "pipeline.overlap_ratio",
                        out.sat_wall_ms.best().iter().sum::<f64>()
                            / out.latency_ms.best().iter().sum::<f64>(),
                    ),
                    ("shards.count", led.shards as f64),
                    ("shards.critical_ms", median(&led.shard_critical_ms)),
                    ("shards.sum_ms", median(&led.shard_sum_ms)),
                    ("shards.skew", median(&led.shard_skew)),
                    ("shards.warm_share", median(&led.warm_share)),
                    ("shards.raw_obs", median(&led.raw_obs)),
                    ("shards.super_flows", median(&led.super_flows)),
                    ("shards.hypotheses_scanned", median(&led.hypotheses)),
                    ("store.ingest_us", span("store.ingest") * 1e3),
                    ("store.sync_ms", sync_ms),
                    (
                        "store.segment_bytes_per_epoch",
                        self.store.segment_bytes() as f64 / epochs,
                    ),
                    ("trace.overhead_pct", overhead_pct),
                ]);
                crate::shares(tr, l);
                probes::store(
                    self.store,
                    &self.store_path,
                    self.ingested,
                    &self.verdicts,
                    &mut self.ops,
                    l,
                );
                probes::stream(topo, self.spec, self.inputs, l);
                crate::write_trace(args, name, tr);
            }
        }
        out.ops.attempted += self.ops.attempted;
        out.ops.failed += self.ops.failed;
        out.ops.reasons.append(&mut self.ops.reasons);
    }
}

impl Ledger {
    fn observe(&mut self, r: &EpochReport) {
        let shard_ms: Vec<f64> = r
            .shards
            .iter()
            .chain(&r.refined)
            .map(|s| ms(s.elapsed))
            .collect();
        let sum: f64 = shard_ms.iter().sum();
        let critical = shard_ms.iter().copied().fold(0.0, f64::max);
        let n = r.shards.len().max(1) as f64;
        self.prepare_ms.push(ms(r.stages.prepare));
        self.merge_ms.push(ms(r.stages.merge));
        self.shard_critical_ms.push(critical);
        self.shard_sum_ms.push(sum);
        self.shard_skew.push(critical * shard_ms.len() as f64 / sum);
        self.shards = r.shards.len();
        self.warm_share
            .push(r.shards.iter().filter(|s| s.warm).count() as f64 / n);
        self.raw_obs
            .push(r.shards.iter().map(|s| s.raw_flows).sum::<usize>() as f64);
        self.super_flows
            .push(r.shards.iter().map(|s| s.flows).sum::<usize>() as f64);
        self.hypotheses.push(r.result.hypotheses_scanned as f64);
        self.refined += u64::from(r.refined.is_some());
    }
}

/// Run one streaming workload.
pub fn run(name: &str, spec: &StreamSpec, args: &Args) -> Outcome {
    let gen_started = Instant::now();
    let mut inputs = crate::gen::stream_inputs(spec, args.seed);
    let gen_s = gen_started.elapsed().as_secs_f64();
    let store_path = args
        .out
        .join(format!("store_{name}_{}.seg", std::process::id()));

    let mut out = Outcome::default();
    let mut topology_ms = Vec::new();
    for round in 0..args.setups {
        // Set-up: process ready → end of the warm-up cycle. The warm-up
        // payload is the load generator's and is encoded first.
        let warm_up = encode_cycle(spec, &mut inputs, 0);
        let started = Instant::now();
        let topo = three_tier(inputs.clos);
        topology_ms.push(ms(started.elapsed()));
        let mut s = Session::new(&topo, spec, &mut inputs, store_path.clone());
        s.saturation_block(warm_up, None);
        out.setup_s.push(started.elapsed().as_secs_f64());
        // Only the last session is measured; the warm-up epochs of every
        // set-up count as operations.
        let last = round + 1 == args.setups;
        if last {
            s.measure(args, &mut out);
        }
        s.finish(name, args, last, &topo, &mut out);
        let _ = std::fs::remove_file(&store_path);
    }
    if args.trace {
        let l = &mut out.layers;
        l.insert("gen.workload_s", gen_s);
        l.insert("gen.input_digest", inputs.digest.folded());
        l.insert("topology.build_ms", median(&topology_ms));
    }
    out
}
