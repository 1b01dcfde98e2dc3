//! Fig. 4c/4d — inference runtime and scalability (§7.8).
//!
//! Fig. 4c compares Flock's inference against Sherlock across topology
//! sizes, plus the two single-optimization ablations: "greedy only"
//! (greedy search, per-candidate likelihood evaluation) and "JLE only"
//! (exhaustive K=2 search with the JLE Δ array, i.e. Sherlock+JLE /
//! Algorithm 3). Like the paper, the slow configurations are measured on
//! a bounded partial run and extrapolated ("whose runtime on a large
//! network was estimated to be 19 days, based on extrapolating a partial
//! run").
//!
//! Fig. 4d reports wall-clock inference time of every scheme×input cell
//! at the same sizes.

use crate::report::{dur, Table};
use crate::scenario::{silent_drop_trace, ExpOpts, TraceBundle, Workload};
use crate::schemes::defaults;
use flock_core::{Engine, FlockGreedy, HyperParams, SherlockFerret};
use flock_netsim::traffic::TrafficPattern;
use flock_telemetry::input::AnalysisMode;
use flock_telemetry::InputKind::{self, *};
use flock_topology::ClosParams;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sizes(opts: &ExpOpts) -> Vec<u32> {
    if opts.quick {
        vec![512, 1024]
    } else {
        vec![4096, 8192, 16384, 32768]
    }
}

fn scale_trace(servers: u32, opts: &ExpOpts) -> TraceBundle {
    let topo = Arc::new(flock_topology::clos::three_tier(ClosParams::with_servers(
        servers,
    )));
    let flows = servers as usize * opts.pick(4, 12);
    silent_drop_trace(
        &topo,
        3,
        &Workload::with_flows(flows, TrafficPattern::Uniform),
        servers as u64,
    )
}

/// Total hypotheses a K≤2 exhaustive search examines.
pub(crate) fn k2_hypotheses(n: u64) -> u64 {
    1 + n + n * (n - 1) / 2
}

/// Fig. 4c.
pub fn run_inference_scaling(opts: &ExpOpts) -> String {
    let mut out = String::from("# Fig 4c: inference runtime vs topology size (INT input)\n\n");
    let mut tbl = Table::new(&[
        "servers",
        "links",
        "flows",
        "Flock",
        "Flock (JLE only, est)",
        "Flock (greedy only, est)",
        "Sherlock (est)",
    ]);
    for servers in sizes(opts) {
        let trace = scale_trace(servers, opts);
        let obs = trace.assemble(&[Int], AnalysisMode::PerPacket);
        let n_links = trace.topo.link_count();
        let flows = obs.flow_count();

        // Flock proper: full measured run.
        let flock = FlockGreedy::default().localize_timed(&trace.topo, &obs);
        let (flock_time, iters) = flock;

        // Greedy-only: time a sample of per-candidate evaluations and
        // scale to n candidates × (iterations + 1) scans.
        let engine = Engine::new(&trace.topo, &obs, HyperParams::default());
        let n = engine.n_comps() as u64;
        let sample = 128usize.min(n as usize);
        let t0 = Instant::now();
        let mut sink = 0.0;
        for i in 0..sample {
            let c = (i as u64 * n / sample as u64) as u32;
            sink += engine.delta_single(c);
        }
        let per_candidate = t0.elapsed().as_secs_f64() / sample as f64;
        std::hint::black_box(sink);
        let greedy_only_est =
            Duration::from_secs_f64(per_candidate * n as f64 * (iters + 1) as f64);

        // JLE-only (Sherlock+JLE, K=2): bounded partial run, extrapolated.
        let jle_budget = if opts.quick { 200_000 } else { 400_000 };
        let mut sj = SherlockFerret::with_jle(HyperParams::default(), 2);
        sj.hypothesis_budget = Some(jle_budget);
        let jle_only_est = sherlock_estimate(&sj, &trace.topo, &obs, k2_hypotheses(n));

        // Plain Sherlock: smaller budget (each hypothesis needs a state
        // flip), extrapolated.
        let sh_budget = if opts.quick { 3_000 } else { 10_000 };
        let mut sp = SherlockFerret::new(HyperParams::default(), 2);
        sp.hypothesis_budget = Some(sh_budget);
        let sherlock_est = sherlock_estimate(&sp, &trace.topo, &obs, k2_hypotheses(n));

        tbl.row(vec![
            servers.to_string(),
            n_links.to_string(),
            flows.to_string(),
            dur(flock_time),
            dur(jle_only_est),
            dur(greedy_only_est),
            dur(sherlock_est),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str("\n(est) = extrapolated from a bounded partial run, as in §7.8.\n");
    out
}

/// Runtime of a full `total`-hypothesis run of `sherlock`, estimated from
/// its bounded partial run over `obs`: the engine build is paid once, and
/// only the search scales with the hypotheses examined.
pub(crate) fn sherlock_estimate(
    sherlock: &SherlockFerret,
    topo: &flock_topology::Topology,
    obs: &flock_telemetry::ObservationSet,
    total: u64,
) -> Duration {
    let start = Instant::now();
    let mut engine = Engine::new(topo, obs, sherlock.params);
    let bind = start.elapsed();
    let start = Instant::now();
    let (_, _, scanned) = sherlock.search(&mut engine);
    extrapolate(bind, start.elapsed(), scanned, total)
}

/// `bind + search × total / scanned`: a search that examined `scanned`
/// hypotheses in `search`, scaled to `total`, after a one-time `bind`.
fn extrapolate(bind: Duration, search: Duration, scanned: u64, total: u64) -> Duration {
    if scanned == 0 {
        return bind + search;
    }
    bind + search.mul_f64(total as f64 / scanned as f64)
}

trait LocalizeTimed {
    /// Run and return (runtime, greedy iterations).
    fn localize_timed(
        &self,
        topo: &flock_topology::Topology,
        obs: &flock_telemetry::ObservationSet,
    ) -> (Duration, u64);
}

impl LocalizeTimed for FlockGreedy {
    fn localize_timed(
        &self,
        topo: &flock_topology::Topology,
        obs: &flock_telemetry::ObservationSet,
    ) -> (Duration, u64) {
        let r = flock_core::Localizer::localize(self, topo, obs);
        (r.runtime, r.iterations)
    }
}

/// Fig. 4d.
pub fn run_scheme_runtime(opts: &ExpOpts) -> String {
    let mut out = String::from("# Fig 4d: scheme runtime vs topology size\n\n");
    let cells: Vec<(&str, Vec<InputKind>)> = vec![
        ("NetBouncer (INT)", vec![Int]),
        ("Flock (A1+A2+P)", vec![A1, A2, P]),
        ("Flock (INT)", vec![Int]),
        ("NetBouncer (A1)", vec![A1]),
        ("Flock (A1)", vec![A1]),
        ("Flock (A2)", vec![A2]),
        ("007 (A2)", vec![A2]),
    ];
    let mut header = vec!["servers".to_string(), "links".to_string()];
    header.extend(cells.iter().map(|(l, _)| l.to_string()));
    let hdr_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut tbl = Table::new(&hdr_refs);

    for servers in sizes(opts) {
        let trace = scale_trace(servers, opts);
        let mut row = vec![servers.to_string(), trace.topo.link_count().to_string()];
        for (label, kinds) in &cells {
            let obs = trace.assemble(kinds, AnalysisMode::PerPacket);
            let scheme = if label.starts_with("Flock") {
                defaults::flock(label, kinds)
            } else if label.starts_with("NetBouncer") {
                defaults::netbouncer(label, kinds)
            } else {
                defaults::seven(label, kinds)
            };
            let localizer = scheme.config.build();
            let r = localizer.localize(&trace.topo, &obs);
            row.push(dur(r.runtime));
        }
        tbl.row(row);
    }
    out.push_str(&tbl.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolation_scales_the_search_and_adds_the_bind_once() {
        let ms = Duration::from_millis;
        let est = extrapolate(ms(2), ms(3), 1_000, 5_000);
        let expect = ms(2) + ms(15);
        assert!(est.abs_diff(expect) < Duration::from_micros(1), "{est:?}");
        assert_eq!(extrapolate(ms(2), ms(3), 0, 5_000), ms(5));
    }
}
