//! `flock-sysbench` — the socket-to-verdict system benchmark.
//!
//! ```text
//! flock-sysbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! flock-sysbench [--seed N] [--runs R] [--trace] [--quick]     # every workload
//! flock-sysbench --compare A.json B.json
//! ```
//!
//! With `--workload` the process runs that one workload, prints every
//! metric by name with its unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of an untraced run (`--trace 0`) or the per-layer ledger of a
//! traced one (`--trace 1`). Without it, each workload runs in a fresh
//! child process and the results are collected into one file under
//! `benchmark/out/`. See `benchmark/README.md`.

mod compare;
mod gen;
mod json;
mod offline;
mod outcome;
mod probes;
mod stats;
mod stream;
mod trace;

use gen::{Faults, OfflineSpec, StreamSpec, Traffic};
use json::Value;
use outcome::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups performed per run; `setup_s` is their median.
    pub setups: usize,
    pub out: PathBuf,
}

enum Kind {
    Stream(StreamSpec),
    Offline(OfflineSpec),
}

pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    /// `fscore` below this fails the run, whatever the seed.
    fscore_floor: f64,
    /// Shares of the latency pass that together must hold the majority
    /// of its wall time (checked on traced runs).
    dominant: &'static [&'static str],
}

/// The five workloads; sizes are frozen (see `benchmark/README.md`).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "daemon_steady",
        kind: Kind::Stream(StreamSpec {
            servers: 1024,
            flows_per_epoch: 16_000,
            k: 8,
            socket: true,
            traffic: Traffic::Uniform,
            faults: Faults::PodUplink,
        }),
        fscore_floor: 0.9,
        dominant: &["share.prepare_pct", "share.infer_pct"],
    },
    Workload {
        name: "ingest_flood",
        kind: Kind::Stream(StreamSpec {
            servers: 128,
            flows_per_epoch: 64_000,
            k: 4,
            socket: true,
            traffic: Traffic::Uniform,
            faults: Faults::PodUplink,
        }),
        fscore_floor: 0.9,
        dominant: &["share.ingest_pct", "share.prepare_pct"],
    },
    Workload {
        name: "infer_churn",
        kind: Kind::Stream(StreamSpec {
            servers: 1024,
            flows_per_epoch: 32_000,
            k: 12,
            socket: false,
            traffic: Traffic::RpcInterPod,
            faults: Faults::Churn,
        }),
        fscore_floor: 0.9,
        dominant: &["share.infer_pct"],
    },
    Workload {
        name: "heavy_tail",
        kind: Kind::Stream(StreamSpec {
            servers: 1024,
            flows_per_epoch: 32_000,
            k: 8,
            socket: false,
            traffic: Traffic::ParetoFanIn,
            faults: Faults::StorageDownlink,
        }),
        fscore_floor: 0.9,
        dominant: &["share.prepare_pct", "share.infer_pct"],
    },
    Workload {
        name: "offline_cold",
        kind: Kind::Offline(OfflineSpec {
            servers: 1536,
            flows: 30_000,
            faults: 3,
            drop_range: (0.001, 0.01),
            k: 24,
        }),
        fscore_floor: 0.7,
        dominant: &["share.prepare_pct"],
    },
];

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("verdict_latency_p50_ms", "ms"),
    ("verdict_latency_p95_ms", "ms"),
    ("records_per_s", "rec/s"),
    ("cpu_ms_per_epoch", "ms"),
    ("peak_rss_mib", "MiB"),
    ("fscore", "f1"),
];

/// Per-layer metrics: name and unit. A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("topology.build_ms", "ms"),
    ("topology.links", "count"),
    ("topology.components", "count"),
    ("gen.workload_s", "s"),
    ("gen.encode_ns_per_record", "ns"),
    ("gen.input_digest", "hash"),
    ("wire.decode_ns_per_record", "ns"),
    ("wire.bytes_per_record", "B"),
    ("collector.ingest_ms", "ms"),
    ("collector.drain_ms", "ms"),
    ("collector.records", "count"),
    ("collector.decode_errors", "count"),
    ("collector.dropped_records", "count"),
    ("epoch.ingest_bucketed_ms", "ms"),
    ("epoch.late_records", "count"),
    ("pipeline.rejected_records", "count"),
    ("pipeline.reconstruct_ms", "ms"),
    ("pipeline.poll_ms", "ms"),
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.collect_wait_ms", "ms"),
    ("pipeline.merge_ms", "ms"),
    ("pipeline.refined_epochs", "count"),
    ("pipeline.overlap_ratio", "ratio"),
    ("input.assemble_cold_ms", "ms"),
    ("input.assemble_warm_ms", "ms"),
    ("input.observations", "count"),
    ("input.super_flows", "count"),
    ("input.coalesce_ratio", "ratio"),
    ("input.arena_paths", "count"),
    ("input.arena_sets", "count"),
    ("shards.count", "count"),
    ("shards.critical_ms", "ms"),
    ("shards.sum_ms", "ms"),
    ("shards.skew", "ratio"),
    ("shards.warm_share", "ratio"),
    ("shards.raw_obs", "count"),
    ("shards.super_flows", "count"),
    ("shards.hypotheses_scanned", "count"),
    ("core.engine_build_ms", "ms"),
    ("core.search_cold_ms", "ms"),
    ("core.flips", "count"),
    ("core.flow_updates", "count"),
    ("core.flips_per_s", "1/s"),
    ("core.rebind_ms", "ms"),
    ("core.search_warm_ms", "ms"),
    ("core.term_table_entries", "count"),
    ("core.state_sets", "count"),
    ("core.state_paths", "count"),
    ("core.kernel_dispatch", "level"),
    ("store.ingest_us", "us"),
    ("store.sync_ms", "ms"),
    ("store.segment_bytes_per_epoch", "B"),
    ("store.reopen_ms", "ms"),
    ("store.history_query_us", "us"),
    ("store.provenance_query_us", "us"),
    ("share.ingest_pct", "%"),
    ("share.prepare_pct", "%"),
    ("share.infer_pct", "%"),
    ("share.merge_pct", "%"),
    ("share.store_pct", "%"),
    ("share.dominant_pct", "%"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("verdict_digest", "hash"),
    ("ops.attempted", "count"),
    ("ops.failed", "count"),
];

/// Put the tracer's dominance shares and residual into the ledger.
fn shares(tracer: &trace::Tracer, layers: &mut BTreeMap<&'static str, f64>) {
    layers.extend(tracer.shares_pct());
    layers.insert("trace.spans", tracer.spans.len() as f64);
}

fn write_trace(args: &Args, workload: &str, tracer: &trace::Tracer) {
    let path = args.out.join(format!("trace_{workload}.json"));
    std::fs::write(&path, tracer.to_json().to_string()).expect("write trace file");
    println!(
        "trace: {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );
}

/// Run one workload in this process and print its result.
fn run_workload(w: &Workload, args: &Args) -> ExitCode {
    std::fs::create_dir_all(&args.out).expect("create output directory");
    println!(
        "workload {} | seed {} | {} s measured | {} | closed loop, 1 driver thread, \
         {} hardware threads",
        w.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut out: Outcome = match &w.kind {
        Kind::Stream(spec) => stream::run(w.name, spec, args),
        Kind::Offline(spec) => offline::run(w.name, spec, args),
    };

    if out.fscore < w.fscore_floor {
        out.ops.fail(format!(
            "fscore {:.4} below the workload's floor {}",
            out.fscore, w.fscore_floor
        ));
    }
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let dominant: f64 = w.dominant.iter().map(|share| out.layers[share]).sum();
        out.layers.insert("share.dominant_pct", dominant);
        if dominant < 50.0 {
            out.ops.fail(format!(
                "{:?} hold {dominant:.1}% of the latency pass, not the majority",
                w.dominant
            ));
        }
        let residual = out.layers["trace.residual_pct"];
        if residual > 10.0 {
            out.ops
                .fail(format!("unexplained residual {residual:.1}% > 10%"));
        }
        let socket = matches!(&w.kind, Kind::Stream(s) if s.socket);
        if !socket
            && out
                .layers
                .get("collector.ingest_ms")
                .is_some_and(|&v| v != 0.0)
        {
            out.ops
                .fail("collector spans on an in-memory workload".into());
        }
        out.layers.insert("ops.attempted", out.ops.attempted as f64);
        out.layers.insert("ops.failed", out.ops.failed as f64);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, out.layers.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        // Each slot of the cycle at its best over the run's passes:
        // interference only ever adds time (see `BySlot::best`).
        let latency = out.latency_ms.best();
        let cycle_wall_ms: f64 = out.sat_wall_ms.best().iter().sum();
        let cycle_cpu_ms: f64 = out.sat_cpu_ms.best().iter().sum();
        for (name, sample) in [
            ("setup_s", &out.setup_s),
            ("verdict_latency_ms, every sample", &out.latency_ms.all()),
            ("verdict_latency_ms, best per position", &latency),
        ] {
            let s = stats::summarize(sample);
            println!(
                "  {name}: median {:.4}, quartiles {:.4} .. {:.4}, p95 {:.4}, n = {}",
                s.median, s.q1, s.q3, s.p95, s.n
            );
        }
        println!(
            "  saturated cycle of {} operations: best {cycle_wall_ms:.4} ms wall, \
             {cycle_cpu_ms:.4} ms CPU, over {} passes",
            latency.len(),
            out.sat_wall_ms.all().len() / out.sat_wall_ms.best().len()
        );
        let values = [
            stats::median(&out.setup_s),
            stats::quantile_of(&latency, 0.5),
            stats::quantile_of(&latency, 0.95),
            out.records_per_cycle as f64 / (cycle_wall_ms / 1e3),
            cycle_cpu_ms / latency.len() as f64,
            stats::peak_rss_mib(),
            out.fscore,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, value));
        }
    }
    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "ops_attempted = {} | ops_failed = {}",
        out.ops.attempted, out.ops.failed
    );
    for reason in &out.ops.reasons {
        println!("FAILED: {reason}");
    }
    let correct = out.ops.failed == 0;
    let result = Value::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(out.ops.attempted as f64)),
        (
            "failed",
            Value::Number(out.ops.failed.min(out.ops.attempted) as f64),
        ),
        (
            "metrics",
            Value::object(metrics.into_iter().map(|(name, unit, value)| {
                (
                    name,
                    Value::object([
                        ("value", Value::Number(value)),
                        ("unit", Value::String(unit.into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload `runs` times, each run in a fresh child process
/// (seed, seed + 1, …), and collect the result lines into one file.
fn run_suite(args: &Args, runs: u64, quick: bool) -> ExitCode {
    std::fs::create_dir_all(&args.out).expect("create output directory");
    let exe = std::env::current_exe().expect("path of this executable");
    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    for w in &WORKLOADS {
        let mut results = Vec::new();
        for run in 0..runs {
            for traced in [false, true] {
                if traced && !args.trace {
                    continue;
                }
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", w.name])
                    .args(["--seed", &(args.seed + run).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&args.out);
                if quick {
                    cmd.arg("--quick");
                }
                let output = cmd.output().expect("spawn workload process");
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                all_correct &= output.status.success();
                match stdout.lines().last().map(Value::parse) {
                    Some(Ok(line)) => results.push(line),
                    _ => {
                        eprintln!("{}: no result line", w.name);
                        all_correct = false;
                    }
                }
            }
        }
        workloads.insert(w.name.to_string(), Value::Array(results));
    }
    let path = args.out.join(format!("result_seed{}.json", args.seed));
    let file = Value::object([
        ("seed", Value::Number(args.seed as f64)),
        ("runs", Value::Number(runs as f64)),
        ("workloads", Value::Object(workloads)),
    ]);
    std::fs::write(&path, file.to_string()).expect("write result file");
    println!("results written to {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("flock-sysbench: {problem}");
    eprintln!(
        "usage: flock-sysbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
         [--runs R] [--quick] [--out DIR] | --compare A.json B.json"
    );
    ExitCode::from(2)
}

/// What the command line asks for.
enum Command {
    Compare(String, String),
    Suite { runs: u64, quick: bool },
    Workload(String),
}

fn parse(argv: &[String]) -> Result<(Command, Args), String> {
    let mut args = Args {
        seed: 1,
        seconds: 15.0,
        trace: false,
        setups: 5,
        out: PathBuf::from("benchmark/out"),
    };
    let (mut workload, mut runs, mut quick) = (None, 1, false);
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => args.seed = number(value()?)?,
            "--runs" => runs = number(value()?)?,
            "--seconds" => {
                args.seconds = match value()?.parse() {
                    Ok(s) if s > 0.0 => s,
                    _ => return Err("--seconds needs a positive number".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            // `--trace 0|1` as the benchmark contract passes it, or a
            // bare `--trace`.
            "--trace" => {
                args.trace = rest.clone().next().is_none_or(|v| v != "0");
                if rest.clone().next().is_some_and(|v| v == "0" || v == "1") {
                    rest.next();
                }
            }
            "--quick" => quick = true,
            "--compare" => return Ok((Command::Compare(value()?.clone(), value()?.clone()), args)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if quick {
        // Smoke run for `cargo test`: same inputs, about a second each.
        args.seconds = 1.0;
        args.setups = 1;
    }
    let command = match workload {
        Some(name) => Command::Workload(name),
        None => Command::Suite { runs, quick },
    };
    Ok((command, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Err(problem) => usage(&problem),
        Ok((Command::Compare(a, b), _)) => compare::run(&a, &b),
        Ok((Command::Suite { runs, quick }, args)) => run_suite(&args, runs, quick),
        Ok((Command::Workload(name), args)) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => run_workload(w, &args),
            None => usage(&format!("unknown workload `{name}`")),
        },
    }
}
