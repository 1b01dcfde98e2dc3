//! In-memory spans recorded by the driver around each call into a layer.
//!
//! A span has a name, the epoch it belongs to (the identifier spans of
//! one operation share), the span that caused it, and a start and end on
//! the driver's clock. Durations the product reports about its own
//! stages (`prepare`, `merge`, each shard) are attached as duration-only
//! children: they have no start of their own on the driver's clock.
//! Spans stay in memory and are written out once, when the run ends.
//! With the tracer off every call is a branch and nothing else.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub epoch: u64,
    pub parent: Option<usize>,
    /// Microseconds since the tracer's origin; `None` for a
    /// duration-only child.
    pub start_us: Option<f64>,
    pub dur_us: f64,
    /// Ran concurrently with its siblings (shard searches), so its
    /// duration is not subtracted from the parent's self time.
    pub parallel: bool,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, epoch: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            epoch,
            parent: self.open.last().map(|&(p, _)| p),
            start_us: Some((now - self.origin).as_secs_f64() * 1e6),
            dur_us: 0.0,
            parallel: false,
        });
        self.open.push((id, now));
        Some(id)
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let (id, started) = self.open.pop().expect("exit without enter");
        self.spans[id].dur_us = started.elapsed().as_secs_f64() * 1e6;
    }

    /// Attach a product-reported duration under `parent`.
    pub fn attach(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        dur: Duration,
        parallel: bool,
    ) {
        let Some(parent) = parent else { return };
        self.spans.push(Span {
            name,
            epoch: self.spans[parent].epoch,
            parent: Some(parent),
            start_us: None,
            dur_us: dur.as_secs_f64() * 1e6,
            parallel,
        });
    }

    /// Where the traced operations' wall time went: per traced `epoch`
    /// span, the share of its duration in each of ingest, prepare,
    /// infer, merge and store, and the residual no child span explains;
    /// the median of each over the traced operations, in percent, under
    /// its per-layer metric name.
    ///
    /// A span's self time is its duration minus what its serial
    /// children cover, and each span name belongs to one category (the
    /// hand-over call's own time is ingest: windowing, `reconstruct`,
    /// sanitation; waiting for the shards is infer).
    pub fn shares_pct(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.parallel) {
                covered[p] += s.dur_us;
            }
        }
        // Per epoch id: wall, then self time per category.
        let mut per_epoch: BTreeMap<u64, (f64, BTreeMap<&'static str, f64>)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let category = match s.name {
                "epoch" => "residual",
                "socket.write" | "collector.wait" | "collector.drain" => "ingest",
                "stream.ingest_bucketed" | "stream.poll" | "stream.submit_flows" => "ingest",
                "prepare" | "input.assemble" => "prepare",
                "stream.flush_inflight" | "core.localize" => "infer",
                "merge" => "merge",
                "store.ingest" => "store",
                _ => continue,
            };
            let entry = per_epoch.entry(s.epoch).or_default();
            if s.name == "epoch" {
                entry.0 = s.dur_us;
            }
            *entry.1.entry(category).or_default() += s.dur_us - c;
        }
        [
            ("share.ingest_pct", "ingest"),
            ("share.prepare_pct", "prepare"),
            ("share.infer_pct", "infer"),
            ("share.merge_pct", "merge"),
            ("share.store_pct", "store"),
            ("trace.residual_pct", "residual"),
        ]
        .into_iter()
        .map(|(metric, category)| {
            let shares: Vec<f64> = per_epoch
                .values()
                .map(|(wall, by)| 100.0 * by.get(category).copied().unwrap_or(0.0) / wall)
                .collect();
            (metric, crate::stats::median(&shares))
        })
        .collect()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::object([
                        ("id", Value::Number(id as f64)),
                        ("name", Value::String(s.name.into())),
                        ("epoch", Value::Number(s.epoch as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                        ),
                        ("start_us", s.start_us.map_or(Value::Null, Value::Number)),
                        ("dur_us", Value::Number(s.dur_us)),
                    ])
                })
                .collect(),
        )
    }
}
