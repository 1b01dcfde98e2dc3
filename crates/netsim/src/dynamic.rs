//! Dynamic failure scenarios: faults that appear, persist, and heal
//! across the epochs of an online localization run.
//!
//! The static generators in [`crate::failure`] describe one instant; the
//! continuously running pipeline of §5.1 instead watches the network
//! *evolve*. A [`DynamicScenario`] is a fixed per-link noise floor plus a
//! timeline of [`FaultEvent`]s, each active over a half-open epoch window
//! `[appear, heal)`; [`DynamicScenario::scenario_at`] projects the
//! timeline onto any epoch as an ordinary [`FailureScenario`], so every
//! existing simulator runs unchanged per epoch.

use crate::failure::FailureScenario;
use flock_topology::{GroundTruth, LinkId, Topology};
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};
use serde::Serialize;

/// One fault on the timeline: a link dropping packets over an epoch
/// window.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FaultEvent {
    /// The failing link.
    pub link: LinkId,
    /// Drop probability while active.
    pub drop_rate: f64,
    /// First epoch (inclusive) the fault is active.
    pub appear_epoch: u64,
    /// First epoch the fault is healed (`None` = never heals).
    pub heal_epoch: Option<u64>,
}

impl FaultEvent {
    /// Whether the fault is active during `epoch`.
    #[inline]
    pub fn active_at(&self, epoch: u64) -> bool {
        epoch >= self.appear_epoch && self.heal_epoch.is_none_or(|h| epoch < h)
    }
}

/// A per-link noise floor plus a timeline of faults.
#[derive(Debug, Clone, Serialize)]
pub struct DynamicScenario {
    /// Static noise drop rate per directed link (drawn once; real noise
    /// floors drift far slower than the epoch cadence).
    pub noise: Vec<f64>,
    /// The fault timeline.
    pub events: Vec<FaultEvent>,
}

impl DynamicScenario {
    /// A noise-only timeline with no fault events.
    pub fn noise_only<R: Rng + ?Sized>(topo: &Topology, noise_max: f64, rng: &mut R) -> Self {
        DynamicScenario {
            noise: (0..topo.link_count())
                .map(|_| rng.random::<f64>() * noise_max)
                .collect(),
            events: Vec::new(),
        }
    }

    /// Generate a timeline of `n_events` silent-drop faults on distinct
    /// fabric links over `epochs` epochs. Each fault appears at a uniform
    /// epoch, persists for a uniform duration in `duration_range` epochs,
    /// and heals (faults whose window would overrun the horizon persist
    /// to the end). Drop rates are drawn uniformly from `fail_range`.
    pub fn generate<R: Rng + ?Sized>(
        topo: &Topology,
        epochs: u64,
        n_events: usize,
        fail_range: (f64, f64),
        duration_range: (u64, u64),
        noise_max: f64,
        rng: &mut R,
    ) -> Self {
        assert!(epochs > 0, "need at least one epoch");
        assert!(duration_range.0 >= 1 && duration_range.0 <= duration_range.1);
        let mut sc = Self::noise_only(topo, noise_max, rng);
        let mut candidates = topo.fabric_links();
        candidates.shuffle(rng);
        for link in candidates.into_iter().take(n_events) {
            let appear = rng.random_range(0..epochs);
            let duration = rng.random_range(duration_range.0..=duration_range.1);
            let heal = appear.saturating_add(duration);
            let drop_rate = fail_range.0 + rng.random::<f64>() * (fail_range.1 - fail_range.0);
            sc.events.push(FaultEvent {
                link,
                drop_rate,
                appear_epoch: appear,
                heal_epoch: (heal < epochs).then_some(heal),
            });
        }
        sc.events.sort_by_key(|e| (e.appear_epoch, e.link));
        sc
    }

    /// The links whose faults are active during `epoch`, sorted.
    pub fn active_at(&self, epoch: u64) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = self
            .events
            .iter()
            .filter(|e| e.active_at(epoch))
            .map(|e| e.link)
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// Project the timeline onto one epoch as a static
    /// [`FailureScenario`] (noise floor plus the active faults, with the
    /// matching ground truth).
    pub fn scenario_at(&self, epoch: u64) -> FailureScenario {
        let mut drop_rate = self.noise.clone();
        let mut truth = GroundTruth::default();
        for e in self.events.iter().filter(|e| e.active_at(epoch)) {
            drop_rate[e.link.idx()] = drop_rate[e.link.idx()].max(e.drop_rate);
            truth.failed_links.push(e.link);
        }
        truth.failed_links.sort_unstable();
        truth.failed_links.dedup();
        FailureScenario {
            drop_rate,
            latency_faults: Vec::new(),
            truth,
        }
    }

    /// First epoch after which no fault is active (`None` if some fault
    /// never heals).
    pub fn all_healed_epoch(&self) -> Option<u64> {
        self.events
            .iter()
            .map(|e| e.heal_epoch)
            .try_fold(0u64, |acc, h| h.map(|h| acc.max(h)))
    }
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
    fn events_respect_their_windows() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(1);
        let sc = DynamicScenario::generate(&t, 10, 3, (0.01, 0.02), (2, 4), 1e-4, &mut rng);
        assert_eq!(sc.events.len(), 3);
        for e in &sc.events {
            assert!(e.appear_epoch < 10);
            assert!(
                !e.active_at(e.appear_epoch.wrapping_sub(1).min(e.appear_epoch))
                    || e.appear_epoch == 0
            );
            assert!(e.active_at(e.appear_epoch));
            if let Some(h) = e.heal_epoch {
                assert!(h > e.appear_epoch);
                assert!(!e.active_at(h));
                assert!(e.active_at(h - 1));
            }
        }
    }

    #[test]
    fn scenario_projection_matches_active_set() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(2);
        let sc = DynamicScenario::generate(&t, 8, 4, (0.01, 0.02), (1, 3), 1e-4, &mut rng);
        for epoch in 0..8 {
            let snap = sc.scenario_at(epoch);
            assert_eq!(snap.truth.failed_links, sc.active_at(epoch));
            for l in &snap.truth.failed_links {
                assert!(
                    snap.drop_rate[l.idx()] >= 0.01,
                    "active fault must dominate the noise floor"
                );
            }
            // Inactive links stay at the noise floor.
            for (i, &r) in snap.drop_rate.iter().enumerate() {
                if !snap.truth.failed_links.contains(&LinkId(i as u32)) {
                    assert!(r <= 1e-4);
                }
            }
        }
    }

    #[test]
    fn faults_appear_and_heal_over_the_horizon() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(3);
        let sc = DynamicScenario::generate(&t, 12, 2, (0.01, 0.02), (2, 3), 0.0, &mut rng);
        // Some epoch has no active faults before the first appear.
        let first = sc.events.iter().map(|e| e.appear_epoch).min().unwrap();
        if first > 0 {
            assert!(sc.active_at(first - 1).is_empty());
        }
        // Active set is non-empty at each event's appear epoch.
        for e in &sc.events {
            assert!(sc.active_at(e.appear_epoch).contains(&e.link));
        }
        if let Some(done) = sc.all_healed_epoch() {
            assert!(sc.active_at(done).is_empty());
        }
    }

    #[test]
    fn distinct_links_per_event() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(4);
        let sc = DynamicScenario::generate(&t, 6, 5, (0.01, 0.02), (1, 6), 1e-4, &mut rng);
        let mut links: Vec<LinkId> = sc.events.iter().map(|e| e.link).collect();
        links.sort_unstable();
        links.dedup();
        assert_eq!(links.len(), 5, "events land on distinct links");
    }
}
