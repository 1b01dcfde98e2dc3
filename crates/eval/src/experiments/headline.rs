//! The §1/§7.8 headline experiment: Flock's inference on a Clos with
//! ~88K links and ~9.5M flows — "scanning ~3.5M hypotheses in 17 sec,
//! over 10⁴× faster than Sherlock", with Sherlock's runtime extrapolated
//! from a partial run exactly as the paper does.

use super::fig4cd::{k2_hypotheses, sherlock_estimate};
use crate::report::{dur, Table};
use crate::scenario::{silent_drop_trace, ExpOpts, Workload};
use flock_core::{FlockGreedy, HyperParams, Localizer, SherlockFerret};
use flock_netsim::traffic::TrafficPattern;
use flock_telemetry::input::AnalysisMode;
use flock_telemetry::InputKind::*;
use flock_topology::ClosParams;
use std::sync::Arc;

/// Run the headline measurement; `flows_override` adjusts the passive
/// flow count (default ~9.5M; quick mode uses 500K on a smaller fabric).
pub fn run(opts: &ExpOpts, flows_override: Option<usize>) -> String {
    let (params, flows) = if opts.quick {
        (
            ClosParams {
                pods: 12,
                tors_per_pod: 12,
                aggs_per_pod: 6,
                spines_per_plane: 4,
                hosts_per_tor: 16,
            },
            flows_override.unwrap_or(500_000),
        )
    } else {
        // 2·(24·24·12 + 24·12·6 + 24·24·61) = 87,552 directed links — the
        // paper's "88K links".
        (
            ClosParams {
                pods: 24,
                tors_per_pod: 24,
                aggs_per_pod: 12,
                spines_per_plane: 6,
                hosts_per_tor: 61,
            },
            flows_override.unwrap_or(9_500_000),
        )
    };
    let topo = Arc::new(flock_topology::clos::three_tier(params));
    let mut out = format!(
        "# Headline (§7.8): {} directed links, {} hosts, {} flows\n\n",
        topo.link_count(),
        topo.hosts().len(),
        flows
    );

    let gen_start = std::time::Instant::now();
    let trace = silent_drop_trace(
        &topo,
        5,
        &Workload::with_flows(flows, TrafficPattern::Uniform),
        424_242,
    );
    out.push_str(&format!("trace generation: {}\n", dur(gen_start.elapsed())));

    let asm_start = std::time::Instant::now();
    let obs = trace.assemble(&[A1, A2, P], AnalysisMode::PerPacket);
    out.push_str(&format!(
        "input assembly (A1+A2+P): {} ({} aggregated observations from {} flows; \
         {} super-flows after evidence coalescing, x{:.1})\n\n",
        dur(asm_start.elapsed()),
        obs.flows.len(),
        obs.flow_count(),
        obs.coalesced_count(),
        obs.flows.len() as f64 / obs.coalesced_count().max(1) as f64,
    ));

    let mut tbl = Table::new(&[
        "scheme",
        "runtime",
        "hypotheses scanned",
        "found/true failures",
    ]);

    let flock = FlockGreedy::default();
    let r = flock.localize(&topo, &obs);
    let pr = flock_core::evaluate(&topo, &r.predicted, &trace.truth);
    tbl.row(vec![
        "Flock (A1+A2+P)".into(),
        dur(r.runtime),
        r.hypotheses_scanned.to_string(),
        format!(
            "{}/{} (precision {:.2})",
            r.predicted.len(),
            trace.truth.len(),
            pr.precision
        ),
    ]);
    let flock_secs = r.runtime.as_secs_f64();

    // Sherlock: partial run, extrapolated (the paper estimated 19 days).
    let total_k2 = k2_hypotheses((topo.link_count() + topo.switch_count()) as u64);
    let mut sherlock = SherlockFerret::new(HyperParams::default(), 2);
    sherlock.hypothesis_budget = Some(if opts.quick { 500 } else { 2_000 });
    let est = sherlock_estimate(&sherlock, &topo, &obs, total_k2).as_secs_f64();
    tbl.row(vec![
        "Sherlock K=2 (extrapolated)".into(),
        format!("{:.1} days", est / 86_400.0),
        format!("{total_k2} (total)"),
        "-".into(),
    ]);
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "\nSpeedup over Sherlock: {:.0}x\n",
        est / flock_secs.max(1e-9)
    ));
    out
}
