//! Property-based tests of topology construction, routing, and
//! degradation invariants.

use flock_topology::clos::{leaf_spine, three_tier, ClosParams, LeafSpineParams};
use flock_topology::irregular::omit_links;
use flock_topology::{LinkId, NodeId, NodeRole, Router, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

fn arb_clos() -> impl Strategy<Value = ClosParams> {
    (2u32..5, 1u32..4, 1u32..4, 1u32..4, 1u32..5).prop_map(|(pods, tors, aggs, spines, hosts)| {
        ClosParams {
            pods,
            tors_per_pod: tors,
            aggs_per_pod: aggs,
            spines_per_plane: spines,
            hosts_per_tor: hosts,
        }
    })
}

/// Every ordered pair of switches: leaves, aggs and spines alike.
fn switch_pairs(t: &Topology) -> Vec<(NodeId, NodeId)> {
    let sw = t.switches();
    sw.iter()
        .flat_map(|&a| sw.iter().map(move |&b| (a, b)))
        .collect()
}

/// The fabrics the routing oracle covers for one draw: the Clos and a
/// leaf–spine of matching size, each whole and with up to half its cables
/// omitted (irregular fabrics, where switches differ in what their upward
/// sweeps reach).
fn oracle_fabrics(p: ClosParams, frac: f64, seed: u64) -> Vec<Topology> {
    let clos = three_tier(p);
    let ls = leaf_spine(LeafSpineParams {
        spines: p.aggs_per_pod * p.spines_per_plane,
        leaves: p.pods * p.tors_per_pod,
        hosts_per_leaf: 1,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let clos_omitted = omit_links(&clos, frac, &mut rng).0;
    let ls_omitted = omit_links(&ls, frac, &mut rng).0;
    vec![clos, clos_omitted, ls, ls_omitted]
}

/// The switches `links` visits, starting from `src`; panics if two
/// consecutive links do not meet.
fn path_nodes(t: &Topology, src: NodeId, links: &[LinkId]) -> Vec<NodeId> {
    let mut out = vec![src];
    for &l in links {
        assert_eq!(t.link(l).src, *out.last().unwrap());
        out.push(t.link(l).dst);
    }
    out
}

/// Brute-force routing oracle: a DFS from `src` over strictly tier-rising
/// links, then strictly tier-falling ones, recording every valley-free path
/// it finds. Returns, per reached switch, the minimal-hop paths in link
/// order (the order `Router::paths` promises).
fn valley_free_oracle(t: &Topology, src: NodeId) -> HashMap<NodeId, Vec<Vec<LinkId>>> {
    fn dfs(
        t: &Topology,
        node: NodeId,
        descending: bool,
        links: &mut Vec<LinkId>,
        found: &mut HashMap<NodeId, Vec<Vec<LinkId>>>,
    ) {
        found.entry(node).or_default().push(links.clone());
        let tier = t.node(node).role.tier();
        for &l in t.out_links(node) {
            let next = t.link(l).dst;
            let next_tier = t.node(next).role.tier();
            let descend = match next_tier.cmp(&tier) {
                std::cmp::Ordering::Greater if !descending => false,
                std::cmp::Ordering::Less => true,
                _ => continue,
            };
            links.push(l);
            dfs(t, next, descend, links, found);
            links.pop();
        }
    }
    let mut found = HashMap::new();
    dfs(t, src, false, &mut Vec::new(), &mut found);
    found.retain(|n, _| t.node(*n).role.is_switch());
    for paths in found.values_mut() {
        let min = paths.iter().map(Vec::len).min().unwrap();
        paths.retain(|p| p.len() == min);
        paths.sort();
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clos_counts_match_formula(p in arb_clos()) {
        let t = three_tier(p);
        prop_assert_eq!(t.hosts().len() as u32, p.total_hosts());
        prop_assert_eq!(t.link_count() as u32, p.total_links());
        // Reverse pairing is involutive and endpoint-swapping.
        for (id, l) in t.links() {
            prop_assert_eq!(t.link(l.reverse).reverse, id);
            prop_assert_eq!(t.link(l.reverse).src, l.dst);
        }
    }

    #[test]
    fn ecmp_widths_follow_structure(p in arb_clos()) {
        let t = three_tier(p);
        let r = Router::new(&t);
        let leaves: Vec<_> = t.switches().iter().copied()
            .filter(|s| t.node(*s).role == NodeRole::Leaf).collect();
        for &a in leaves.iter().take(3) {
            for &b in leaves.iter().rev().take(3) {
                if a == b { continue; }
                let ps = r.paths(a, b);
                let expect = if t.node(a).pod == t.node(b).pod {
                    p.aggs_per_pod as usize
                } else {
                    (p.aggs_per_pod * p.spines_per_plane) as usize
                };
                prop_assert_eq!(ps.len(), expect);
                for path in ps.iter() {
                    // Paths are valley-free: tiers rise then fall.
                    let nodes = path_nodes(&t, a, path);
                    let tiers: Vec<u8> = nodes.iter().map(|n| t.node(*n).role.tier()).collect();
                    let apex = tiers.iter().enumerate().max_by_key(|(_, v)| **v).unwrap().0;
                    prop_assert!(tiers[..=apex].windows(2).all(|w| w[0] < w[1]));
                    prop_assert!(tiers[apex..].windows(2).all(|w| w[0] > w[1]));
                }
            }
        }
    }

    #[test]
    fn leaf_spine_width_is_spine_count(spines in 1u32..6, leaves in 2u32..6, hosts in 1u32..4) {
        let p = LeafSpineParams { spines, leaves, hosts_per_leaf: hosts };
        let t = leaf_spine(p);
        let r = Router::new(&t);
        let ls: Vec<_> = t.switches().iter().copied()
            .filter(|s| t.node(*s).role == NodeRole::Leaf).collect();
        prop_assert_eq!(r.paths(ls[0], ls[1]).len(), spines as usize);
    }

    #[test]
    fn router_paths_equal_brute_force_oracle(p in arb_clos(), frac in 0.0f64..0.5, seed: u64) {
        for t in oracle_fabrics(p, frac, seed) {
            let r = Router::new(&t);
            for &src in t.switches() {
                let oracle = valley_free_oracle(&t, src);
                for &dst in t.switches() {
                    let expect: Vec<&[LinkId]> =
                        oracle.get(&dst).map_or(Vec::new(), |ps| ps.iter().map(Vec::as_slice).collect());
                    let set = r.paths(src, dst);
                    let got: Vec<&[LinkId]> = set.iter().collect();
                    prop_assert_eq!(
                        got,
                        expect,
                        "{}: {:?} -> {:?}",
                        t.name,
                        src,
                        dst
                    );
                }
            }
        }
    }

    #[test]
    fn router_memo_is_order_and_thread_independent(
        p in arb_clos(),
        frac in 0.0f64..0.5,
        seed: u64,
    ) {
        let t = omit_links(&three_tier(p), frac, &mut StdRng::seed_from_u64(seed)).0;
        // Shuffled over every ordered switch pair: `a→b` lands before
        // `b→a` for some pairs and after it for others, with leaf→spine,
        // spine→leaf and agg pairs in between.
        let mut pairs = switch_pairs(&t);
        pairs.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
        // A fresh router per pair has no memo to get wrong.
        let fresh: HashMap<_, _> = pairs
            .iter()
            .map(|&(a, b)| ((a, b), Router::new(&t).paths(a, b)))
            .collect();

        let shared = Router::new(&t);
        for &(a, b) in &pairs {
            prop_assert_eq!(&shared.paths(a, b), &fresh[&(a, b)]);
        }
        prop_assert_eq!(shared.cached_pairs(), pairs.len());

        // Two threads through one `&Router`, over lists that overlap in
        // their middle third, one walked in reverse.
        let concurrent = Router::new(&t);
        let third = pairs.len() / 3;
        let (front, back) = (&pairs[..2 * third], &pairs[third..]);
        let (got_front, got_back) = std::thread::scope(|s| {
            let r = &concurrent;
            let a = s.spawn(move || front.iter().map(|&(x, y)| r.paths(x, y)).collect::<Vec<_>>());
            let b = s.spawn(move || {
                back.iter().rev().map(|&(x, y)| r.paths(x, y)).collect::<Vec<_>>()
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        let got_back: Vec<_> = got_back.into_iter().rev().collect();
        for (pair, got) in front.iter().zip(&got_front).chain(back.iter().zip(&got_back)) {
            prop_assert_eq!(got, &fresh[pair]);
        }
        // On the overlap both threads hold the one cached handle.
        for (i, got) in got_front[third..].iter().enumerate() {
            prop_assert!(Arc::ptr_eq(got, &got_back[i]));
        }
        prop_assert_eq!(concurrent.cached_pairs(), pairs.len());
    }

    #[test]
    fn omission_preserves_counts_and_guardrails(p in arb_clos(), frac in 0.0f64..0.5, seed: u64) {
        let t = three_tier(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let (t2, removed) = omit_links(&t, frac, &mut rng);
        prop_assert_eq!(t2.hosts().len(), t.hosts().len());
        prop_assert_eq!(t2.link_count(), t.link_count() - 2 * removed);
        // Every leaf/agg keeps an uplink.
        for (id, n) in t2.nodes() {
            if matches!(n.role, NodeRole::Leaf | NodeRole::Agg) {
                let ups = t2.out_links(id).iter()
                    .filter(|l| t2.node(t2.link(**l).dst).role.tier() > n.role.tier())
                    .count();
                prop_assert!(ups >= 1);
            }
        }
    }
}
