//! Property tests of the SIMD kernel layer's bit-identity contract: a
//! forced-portable and a forced-AVX2 engine walked through the same flip
//! sequence over randomized topologies and telemetry must agree
//! **bitwise** — Δ array, log-likelihood, argmax picks, and greedy
//! verdicts — under both traced (Int) and passive (A2+P) schemes. On
//! hosts without AVX2 the forced-AVX2 engine clamps to portable and the
//! comparisons hold trivially; CI's AVX2 runners give them teeth.

use flock_core::simd::{self, KernelDispatch};
use flock_core::{
    flow_score, llf, Engine, EngineOptions, EpochFlowTable, FlockGreedy, HyperParams,
    TermDirectory, TermTable,
};
use flock_telemetry::input::{assemble, AnalysisMode, InputKind};
use flock_telemetry::{
    FlowKey, FlowObs, FlowStats, MonitoredFlow, ObservationSet, PathArena, TrafficClass,
};
use flock_topology::clos::{leaf_spine, three_tier, ClosParams, LeafSpineParams};
use flock_topology::{LinkId, Router, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random mixed-telemetry observation set on one of two small fabrics
/// (a 2-pod Clos or a leaf-spine), same shape as `prop_engine`'s.
fn random_obs(
    seed: u64,
    n_flows: usize,
    kinds: &[InputKind],
    leafspine: bool,
) -> (Topology, ObservationSet) {
    let topo = if leafspine {
        leaf_spine(LeafSpineParams {
            spines: 2,
            leaves: 3,
            hosts_per_leaf: 2,
        })
    } else {
        three_tier(ClosParams::tiny())
    };
    let router = Router::new(&topo);
    let hosts = topo.hosts().to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flows = Vec::new();
    for i in 0..n_flows {
        let s = hosts[rng.random_range(0..hosts.len())];
        let mut d = hosts[rng.random_range(0..hosts.len())];
        while d == s {
            d = hosts[rng.random_range(0..hosts.len())];
        }
        let paths = router.paths(topo.host_leaf(s), topo.host_leaf(d));
        let pick = rng.random_range(0..paths.len());
        let mut tp = vec![topo.host_uplink(s)];
        tp.extend_from_slice(&paths[pick].links);
        tp.push(topo.host_downlink(d));
        let sent = rng.random_range(1..300u64);
        let bad = rng.random_range(0..=sent.min(8));
        flows.push(MonitoredFlow {
            key: FlowKey::tcp(s, d, (i % 60000) as u16, 80),
            stats: FlowStats {
                packets: sent,
                retransmissions: bad,
                bytes: 0,
                rtt_sum_us: 0,
                rtt_count: 0,
                rtt_max_us: 0,
            },
            class: TrafficClass::Passive,
            true_path: tp,
        });
    }
    let obs = assemble(&topo, &router, &flows, kinds, AnalysisMode::PerPacket);
    (topo, obs)
}

fn forced(topo: &Topology, obs: &ObservationSet, k: KernelDispatch) -> Engine {
    Engine::with_options(
        topo,
        obs,
        HyperParams::default(),
        None,
        EngineOptions {
            kernel: Some(k),
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline contract: scalar and SIMD engines never diverge by
    /// a single bit, along any flip walk, under either telemetry scheme.
    #[test]
    fn scalar_and_simd_engines_are_bit_identical(
        seed in 0u64..1000,
        flips in prop::collection::vec(any::<u16>(), 1..12),
        traced in any::<bool>(),
        leafspine in any::<bool>(),
    ) {
        let kinds: &[InputKind] = if traced {
            &[InputKind::Int]
        } else {
            &[InputKind::A2, InputKind::P]
        };
        let (topo, obs) = random_obs(seed, 50, kinds, leafspine);
        let mut p = forced(&topo, &obs, KernelDispatch::Portable);
        let mut v = forced(&topo, &obs, KernelDispatch::Avx2);
        prop_assert_eq!(p.log_likelihood().to_bits(), v.log_likelihood().to_bits());
        let n = p.n_comps() as u32;
        for &f in &flips {
            let c = f as u32 % n;
            let dp = p.flip(c);
            let dv = v.flip(c);
            prop_assert_eq!(dp.to_bits(), dv.to_bits(), "flip({}) gain", c);
            prop_assert_eq!(
                p.log_likelihood().to_bits(), v.log_likelihood().to_bits(),
                "ll after flip({})", c
            );
            // The greedy-facing argmaxes agree exactly at every step —
            // same pick, same gain bits (ties included: pass 2 breaks
            // them by global id in both paths).
            let bits = |o: Option<(u32, f64)>| o.map(|(c, g)| (c, g.to_bits()));
            prop_assert_eq!(bits(p.argmax_move()), bits(v.argmax_move()));
            prop_assert_eq!(bits(p.argmax_addable()), bits(v.argmax_addable()));
        }
        for (i, (a, b)) in p.delta().iter().zip(v.delta()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "delta[{}]", i);
        }

        // Whole greedy searches on fresh engines: identical verdicts in
        // order, identical scores in bits, identical scan counts.
        let mut p2 = forced(&topo, &obs, KernelDispatch::Portable);
        let mut v2 = forced(&topo, &obs, KernelDispatch::Avx2);
        let greedy = FlockGreedy::default();
        let (wp, sp) = greedy.search(&mut p2);
        let (wv, sv) = greedy.search(&mut v2);
        prop_assert_eq!(sp, sv, "hypotheses scanned");
        prop_assert_eq!(wp.len(), wv.len(), "verdict length");
        for ((cp, gp), (cv, gv)) in wp.iter().zip(wv.iter()) {
            prop_assert_eq!(cp, cv);
            prop_assert_eq!(gp.to_bits(), gv.to_bits());
        }
    }

    /// Non-finite guard: NaN and ±inf term-table entries flow through
    /// both dispatch paths with identical bit patterns (x86 scalar and
    /// vector mul/add share NaN-propagation rules, and the argmax's
    /// fixed reduction shape keeps even the NaN outcome deterministic).
    #[test]
    fn kernels_agree_bitwise_on_nonfinite_tables(seed in 0u64..500) {
        if !KernelDispatch::Avx2.is_supported() {
            return; // nothing to compare against on this host
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 41; // odd: exercises the scalar tails
        let tbl: Vec<f64> = (0..64)
            .map(|_| match rng.random_range(0..10u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.random_range(-3.0..1.0f64),
            })
            .collect();
        let g_old: Vec<u32> = (0..n).map(|_| rng.random_range(0..24u32)).collect();
        let g_new: Vec<u32> = (0..n).map(|_| rng.random_range(0..24u32)).collect();
        let lanes: Vec<u32> = (0..n).map(|_| rng.random_range(0..n as u32)).collect();
        let mut d_p = vec![0.5f64; n];
        let mut d_v = d_p.clone();
        for (d, out) in [
            (KernelDispatch::Portable, &mut d_p),
            (KernelDispatch::Avx2, &mut d_v),
        ] {
            simd::fabric_delta_sweep(
                d, &tbl, 3, 5, &g_old, &g_new, &lanes, 0.75, -0.5, 0.25, out,
            );
        }
        for i in 0..n {
            prop_assert_eq!(d_p[i].to_bits(), d_v[i].to_bits(), "fabric lane {}", i);
        }

        for negate in [false, true] {
            let mut m_p = d_p.clone();
            let mut m_v = d_p.clone();
            for (d, out) in [
                (KernelDispatch::Portable, &mut m_p),
                (KernelDispatch::Avx2, &mut m_v),
            ] {
                simd::member_delta_sweep(d, &tbl, 7, &g_old, &lanes, 1.5, 0.125, negate, out);
            }
            for i in 0..n {
                prop_assert_eq!(m_p[i].to_bits(), m_v[i].to_bits(), "member lane {}", i);
            }
        }

        let mut s_p = vec![0.25f64; n];
        let mut s_v = s_p.clone();
        for (d, out) in [
            (KernelDispatch::Portable, &mut s_p),
            (KernelDispatch::Avx2, &mut s_v),
        ] {
            simd::weighted_table_accumulate(d, &tbl, &g_new, 2.25, out);
        }
        for i in 0..n {
            prop_assert_eq!(s_p[i].to_bits(), s_v[i].to_bits(), "sum lane {}", i);
        }

        let globals: Vec<u32> = (0..n as u32).rev().collect();
        let bits = |o: Option<(u32, f64)>| o.map(|(c, g)| (c, g.to_bits()));
        prop_assert_eq!(
            bits(simd::argmax_gain(KernelDispatch::Portable, &d_p, &s_p, &globals)),
            bits(simd::argmax_gain(KernelDispatch::Avx2, &d_v, &s_v, &globals))
        );
    }

    /// The term table is a memo, not an approximation: every resident
    /// entry equals the direct `llf` evaluation bitwise — whether the
    /// ladder was copied from the table of the epoch that minted its id
    /// or computed epochs later from the score — re-resolving is a pure
    /// hit (same offset, no growth), and offsets stay valid as the table
    /// extends.
    #[test]
    fn term_table_matches_llf_bitwise(
        sent in 1u64..5000,
        bad_frac in 0.0f64..1.0,
        w in 1u32..64,
    ) {
        let params = HyperParams::default();
        let bad = ((sent as f64) * bad_frac) as u64;
        // Two observations of `(sent, bad)`: over a set of `w` paths and
        // over one of `w + 1`.
        let mut arena = PathArena::new();
        let paths: Vec<_> = (0..=w).map(|l| arena.intern_path(&[LinkId(l)])).collect();
        let flows = [&paths[..w as usize], &paths[..]]
            .map(|members| FlowObs {
                prefix: [None, None],
                set: arena.intern_set(members.to_vec()),
                sent,
                bad,
                weight: 1,
            })
            .to_vec();
        let obs = ObservationSet { arena, flows, mode: AnalysisMode::PerPacket };
        let mut dir = TermDirectory::new(&params);
        let mut minting = EpochFlowTable::new();
        minting.rebuild(&mut dir, &obs);
        let mut later = EpochFlowTable::new();
        later.rebuild(&mut dir, &obs);
        prop_assert_eq!((minting.minted(), later.minted()), (2, 0));

        for table in [&minting, &later] {
            let (id, score) = table.term(0);
            prop_assert_eq!(score.to_bits(), flow_score(&params, sent, bad).to_bits());
            let mut t = TermTable::new();
            t.bind(table);
            let off = t.resolve(id, score, w, table);
            for b in 0..=w {
                prop_assert_eq!(
                    t.values()[(off + b) as usize].to_bits(),
                    llf(score, w, b).to_bits(),
                    "entry b={}", b
                );
            }
            let (entries, tables) = (t.entries(), t.tables());
            prop_assert_eq!(t.resolve(id, score, w, table), off);
            prop_assert_eq!(t.entries(), entries);
            prop_assert_eq!(t.tables(), tables);
            // A different key extends the table without moving the old one.
            let (wider, _) = table.term(1);
            prop_assert_ne!(wider, id);
            let off2 = t.resolve(wider, score, w + 1, table);
            prop_assert!(off2 >= entries as u32);
            prop_assert_eq!(
                t.values()[(off + w) as usize].to_bits(),
                llf(score, w, w).to_bits()
            );
        }
    }
}
