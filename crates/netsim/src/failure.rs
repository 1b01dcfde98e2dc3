//! Failure-scenario generation (§6.4).
//!
//! A [`FailureScenario`] assigns every directed link a drop probability —
//! low "noise" rates on good links (the paper sets 0–0.01%, which TCP
//! tolerates) and substantially higher rates on failed links — plus
//! optional latency faults, and records the [`GroundTruth`] an evaluation
//! scores against.

use flock_topology::{GroundTruth, LinkId, NodeId, SpinePlanes, Topology};
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, RngExt};
use serde::Serialize;

/// A latency fault on a link: flows crossing it within the fault window
/// see their RTT inflated (the flow-level analogue of a link flap that
/// buffers packets, §6.4).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyFault {
    /// The affected link.
    pub link: LinkId,
    /// Extra RTT in microseconds for affected flows.
    pub added_rtt_us: u32,
    /// Fraction of flows crossing the link that experience the spike
    /// (a flap is transient; not every flow overlaps it).
    pub affected_fraction: f64,
}

/// Per-link drop probabilities plus ground truth.
#[derive(Debug, Clone, Serialize)]
pub struct FailureScenario {
    /// Drop probability per directed link, indexed by `LinkId`.
    pub drop_rate: Vec<f64>,
    /// Latency faults (empty unless exercising per-flow analysis).
    pub latency_faults: Vec<LatencyFault>,
    /// What actually failed.
    pub truth: GroundTruth,
}

impl FailureScenario {
    /// A scenario with uniform-random noise drop rates on all links and no
    /// failures.
    pub fn noise_only<R: Rng + ?Sized>(topo: &Topology, noise_max: f64, rng: &mut R) -> Self {
        let drop_rate = (0..topo.link_count())
            .map(|_| rng.random::<f64>() * noise_max)
            .collect();
        FailureScenario {
            drop_rate,
            latency_faults: Vec::new(),
            truth: GroundTruth::default(),
        }
    }

    /// Drop rate of a link.
    #[inline]
    pub fn link_drop_rate(&self, l: LinkId) -> f64 {
        self.drop_rate[l.idx()]
    }

    /// Maximum drop rate over links *not* in the ground truth — the noise
    /// floor used in the paper's SNR metric (§7.3).
    pub fn noise_floor(&self) -> f64 {
        let failed: std::collections::HashSet<usize> =
            self.truth.failed_links.iter().map(|l| l.idx()).collect();
        self.drop_rate
            .iter()
            .enumerate()
            .filter(|(i, _)| !failed.contains(i))
            .map(|(_, r)| *r)
            .fold(0.0, f64::max)
    }

    /// Signal-to-noise ratio (§7.3): min failed drop rate / noise floor.
    pub fn snr(&self) -> f64 {
        let signal = self
            .truth
            .failed_links
            .iter()
            .map(|l| self.drop_rate[l.idx()])
            .fold(f64::INFINITY, f64::min);
        let noise = self.noise_floor();
        if noise <= 0.0 {
            f64::INFINITY
        } else {
            signal / noise
        }
    }
}

/// Default noise ceiling on good links (0.01%, §6.3).
pub const DEFAULT_NOISE_MAX: f64 = 1e-4;

/// Silent link drops (§7.1): fail `n_failed` random fabric links with a
/// drop rate drawn uniformly from `fail_range` (the paper uses 0.1%–1%).
pub fn silent_link_drops<R: Rng + ?Sized>(
    topo: &Topology,
    n_failed: usize,
    fail_range: (f64, f64),
    noise_max: f64,
    rng: &mut R,
) -> FailureScenario {
    let mut sc = FailureScenario::noise_only(topo, noise_max, rng);
    let mut candidates = topo.fabric_links();
    candidates.shuffle(rng);
    for l in candidates.into_iter().take(n_failed) {
        let rate = fail_range.0 + rng.random::<f64>() * (fail_range.1 - fail_range.0);
        sc.drop_rate[l.idx()] = rate;
        sc.truth.failed_links.push(l);
    }
    sc.truth.failed_links.sort_unstable();
    sc
}

/// A single soft gray failure with an exact drop rate (§7.3's sweep).
pub fn single_soft_failure<R: Rng + ?Sized>(
    topo: &Topology,
    drop_rate: f64,
    noise_max: f64,
    rng: &mut R,
) -> FailureScenario {
    let mut sc = FailureScenario::noise_only(topo, noise_max, rng);
    let link = *topo
        .fabric_links()
        .choose(rng)
        .expect("topology has no fabric links");
    sc.drop_rate[link.idx()] = drop_rate;
    sc.truth.failed_links.push(link);
    sc
}

/// Silent device failure (§7.2): fail `frac_links` of each chosen device's
/// attached cables (both directions), with per-link drop rates from
/// `fail_range`. Mimics a faulty line card taking out a subset of a
/// switch's ports.
pub fn device_failure<R: Rng + ?Sized>(
    topo: &Topology,
    n_devices: usize,
    frac_links: f64,
    fail_range: (f64, f64),
    noise_max: f64,
    rng: &mut R,
) -> FailureScenario {
    assert!((0.0..=1.0).contains(&frac_links));
    let mut sc = FailureScenario::noise_only(topo, noise_max, rng);
    let mut devices: Vec<NodeId> = topo.switches().to_vec();
    devices.shuffle(rng);
    for dev in devices.into_iter().take(n_devices) {
        sc.truth.failed_devices.push(dev);
        // Cables attached to the device (dedup directions via canonical id).
        let mut cables: Vec<LinkId> = topo
            .links_of_node(dev)
            .into_iter()
            .filter(|l| topo.link(*l).src < topo.link(*l).dst)
            .collect();
        cables.shuffle(rng);
        let n_fail = ((cables.len() as f64) * frac_links).round().max(1.0) as usize;
        for cable in cables.into_iter().take(n_fail) {
            let rate = fail_range.0 + rng.random::<f64>() * (fail_range.1 - fail_range.0);
            let rev = topo.link(cable).reverse;
            sc.drop_rate[cable.idx()] = rate;
            sc.drop_rate[rev.idx()] = rate;
            sc.truth.failed_links.push(cable);
            sc.truth.failed_links.push(rev);
        }
    }
    sc.truth.failed_links.sort_unstable();
    sc.truth.failed_links.dedup();
    sc.truth.failed_devices.sort_unstable();
    sc
}

/// All directed links incident to the spines of one plane — the
/// candidate set of the plane-confined scenarios.
fn plane_incident_links(topo: &Topology, planes: &SpinePlanes, plane: u16) -> Vec<LinkId> {
    planes.incident_links(topo, plane)
}

/// Plane-confined gray failures: fail `n_failed` random links incident
/// to the spines of one plane, with drop rates from `fail_range`.
///
/// Because a striped Clos carries disjoint ECMP slices per plane, every
/// flow that can observe these failures crosses exactly this plane.
pub fn plane_link_drops<R: Rng + ?Sized>(
    topo: &Topology,
    planes: &SpinePlanes,
    plane: u16,
    n_failed: usize,
    fail_range: (f64, f64),
    noise_max: f64,
    rng: &mut R,
) -> FailureScenario {
    multi_plane_link_drops(topo, planes, &[plane], n_failed, fail_range, noise_max, rng)
}

/// [`plane_link_drops`] across several planes at once: `n_failed` links
/// in *each* listed plane, one shared noise floor. Simultaneous faults
/// in two or more planes give every spine-plane slice of the evidence
/// its own fault at once; the stream tests build such scenarios through
/// this helper so the composition (noise applied once, per-plane
/// candidate selection, merged ground truth) cannot drift between them.
pub fn multi_plane_link_drops<R: Rng + ?Sized>(
    topo: &Topology,
    planes: &SpinePlanes,
    fault_planes: &[u16],
    n_failed: usize,
    fail_range: (f64, f64),
    noise_max: f64,
    rng: &mut R,
) -> FailureScenario {
    let mut sc = FailureScenario::noise_only(topo, noise_max, rng);
    for &plane in fault_planes {
        let mut candidates = plane_incident_links(topo, planes, plane);
        candidates.shuffle(rng);
        for l in candidates.into_iter().take(n_failed) {
            let rate = fail_range.0 + rng.random::<f64>() * (fail_range.1 - fail_range.0);
            sc.drop_rate[l.idx()] = rate;
            sc.truth.failed_links.push(l);
        }
    }
    sc.truth.failed_links.sort_unstable();
    sc
}

/// A whole spine plane going dark (a maintenance window gone wrong, or
/// a shared-power/line-card failure taking out one stripe): every link
/// incident to every spine of the plane drops all traffic, in both
/// directions, and the plane's spine devices are the ground truth.
pub fn plane_down<R: Rng + ?Sized>(
    topo: &Topology,
    planes: &SpinePlanes,
    plane: u16,
    noise_max: f64,
    rng: &mut R,
) -> FailureScenario {
    let mut sc = FailureScenario::noise_only(topo, noise_max, rng);
    for l in plane_incident_links(topo, planes, plane) {
        sc.drop_rate[l.idx()] = 1.0;
        sc.truth.failed_links.push(l);
    }
    sc.truth
        .failed_devices
        .extend_from_slice(planes.spines_in(plane));
    sc.truth.failed_links.sort_unstable();
    sc.truth.failed_devices.sort_unstable();
    sc
}

/// A link-flap latency fault on a random fabric link (§7.5): no extra
/// packet loss, but affected flows see a large RTT spike.
pub fn link_flap<R: Rng + ?Sized>(
    topo: &Topology,
    added_rtt_us: u32,
    affected_fraction: f64,
    noise_max: f64,
    rng: &mut R,
) -> FailureScenario {
    let mut sc = FailureScenario::noise_only(topo, noise_max, rng);
    let link = *topo
        .fabric_links()
        .choose(rng)
        .expect("topology has no fabric links");
    sc.latency_faults.push(LatencyFault {
        link,
        added_rtt_us,
        affected_fraction,
    });
    sc.truth.failed_links.push(link);
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_topology::clos::{three_tier, ClosParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo() -> Topology {
        three_tier(ClosParams::tiny())
    }

    #[test]
    fn silent_drops_fail_exactly_n_links() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(1);
        let sc = silent_link_drops(&t, 4, (0.001, 0.01), DEFAULT_NOISE_MAX, &mut rng);
        assert_eq!(sc.truth.failed_links.len(), 4);
        for l in &sc.truth.failed_links {
            assert!(sc.drop_rate[l.idx()] >= 0.001);
            assert!(sc.drop_rate[l.idx()] <= 0.01);
        }
        // Good links stay under the noise ceiling.
        assert!(sc.noise_floor() <= DEFAULT_NOISE_MAX);
        assert!(sc.snr() >= 10.0);
    }

    #[test]
    fn device_failure_marks_device_and_links() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(2);
        let sc = device_failure(&t, 2, 0.5, (0.001, 0.01), DEFAULT_NOISE_MAX, &mut rng);
        assert_eq!(sc.truth.failed_devices.len(), 2);
        assert!(!sc.truth.failed_links.is_empty());
        // Every failed link belongs to a failed device.
        for l in &sc.truth.failed_links {
            let link = t.link(*l);
            assert!(
                sc.truth.failed_devices.contains(&link.src)
                    || sc.truth.failed_devices.contains(&link.dst)
            );
        }
        // Both directions of each failed cable are failed.
        for l in &sc.truth.failed_links {
            assert!(sc.truth.failed_links.contains(&t.link(*l).reverse));
        }
    }

    #[test]
    fn full_device_failure_fails_all_cables() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(3);
        let sc = device_failure(&t, 1, 1.0, (0.005, 0.005), 0.0, &mut rng);
        let dev = sc.truth.failed_devices[0];
        let attached = t.links_of_node(dev);
        assert_eq!(sc.truth.failed_links.len(), attached.len());
    }

    #[test]
    fn flap_has_no_extra_drops() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(4);
        let sc = link_flap(&t, 50_000, 0.5, DEFAULT_NOISE_MAX, &mut rng);
        assert_eq!(sc.latency_faults.len(), 1);
        let l = sc.latency_faults[0].link;
        assert!(sc.drop_rate[l.idx()] <= DEFAULT_NOISE_MAX);
        assert_eq!(sc.truth.failed_links, vec![l]);
    }

    #[test]
    fn plane_link_drops_stay_in_their_plane() {
        let t = topo();
        let planes = SpinePlanes::derive(&t);
        assert_eq!(planes.n_planes(), 2);
        for plane in 0..planes.n_planes() as u16 {
            let mut rng = StdRng::seed_from_u64(10 + u64::from(plane));
            let sc = plane_link_drops(&t, &planes, plane, 3, (0.01, 0.02), 0.0, &mut rng);
            assert_eq!(sc.truth.failed_links.len(), 3);
            for l in &sc.truth.failed_links {
                let link = t.link(*l);
                let touched = [link.src, link.dst]
                    .into_iter()
                    .find_map(|n| planes.plane_of(n));
                assert_eq!(
                    touched,
                    Some(plane),
                    "failed link {l:?} is not incident to plane {plane}"
                );
            }
        }
    }

    #[test]
    fn plane_down_fails_every_incident_link_hard() {
        let t = topo();
        let planes = SpinePlanes::derive(&t);
        let mut rng = StdRng::seed_from_u64(12);
        let sc = plane_down(&t, &planes, 1, DEFAULT_NOISE_MAX, &mut rng);
        // Truth: the plane's spines, and both directions of each of
        // their cables at drop rate 1.
        assert_eq!(sc.truth.failed_devices, planes.spines_in(1));
        let expected: usize = planes
            .spines_in(1)
            .iter()
            .map(|&s| t.links_of_node(s).len())
            .sum();
        assert_eq!(sc.truth.failed_links.len(), expected);
        for l in &sc.truth.failed_links {
            assert_eq!(sc.drop_rate[l.idx()], 1.0);
            assert!(sc.truth.failed_links.contains(&t.link(*l).reverse));
        }
        // The other plane is untouched.
        for &s in planes.spines_in(0) {
            for l in t.links_of_node(s) {
                assert!(sc.drop_rate[l.idx()] <= DEFAULT_NOISE_MAX);
            }
        }
    }

    #[test]
    fn noise_only_has_empty_truth() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(5);
        let sc = FailureScenario::noise_only(&t, 1e-4, &mut rng);
        assert!(sc.truth.is_empty());
        assert_eq!(sc.drop_rate.len(), t.link_count());
    }

    #[test]
    fn snr_matches_definition() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(6);
        let mut sc = FailureScenario::noise_only(&t, 0.0, &mut rng);
        let l = t.fabric_links()[0];
        sc.drop_rate[l.idx()] = 0.01;
        sc.truth.failed_links.push(l);
        assert_eq!(sc.snr(), f64::INFINITY, "no noise → infinite SNR");
        // Add noise on one good link.
        let g = t.fabric_links()[1];
        sc.drop_rate[g.idx()] = 1e-4;
        assert!((sc.snr() - 100.0).abs() < 1e-9);
    }
}
