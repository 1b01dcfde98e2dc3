//! Parameter grids, shaped after the ranges the paper explores (Fig. 8:
//! `p_b ∈ [0.2, 1.0]×10⁻²`, `p_g ∈ {1,3,5,7}×10⁻⁴`, priors
//! `−ln ρ ∈ {5,10,15,20}`).

use crate::scheme::SchemeConfig;
use flock_core::HyperParams;
use serde::Serialize;

/// Grid over Flock's three hyperparameters.
#[derive(Debug, Clone, Serialize)]
pub struct FlockGrid {
    /// Values of `p_g`.
    pub p_g: Vec<f64>,
    /// Values of `p_b`.
    pub p_b: Vec<f64>,
    /// Values of `−ln ρ` (link prior).
    pub neg_ln_rho: Vec<f64>,
}

impl Default for FlockGrid {
    fn default() -> Self {
        FlockGrid {
            p_g: vec![1e-4, 3e-4, 5e-4, 7e-4],
            p_b: vec![2e-3, 4e-3, 6e-3, 8e-3, 1e-2],
            neg_ln_rho: vec![5.0, 10.0, 15.0, 20.0],
        }
    }
}

impl FlockGrid {
    /// All grid points (skipping invalid `p_g ≥ p_b` combinations).
    pub fn points(&self) -> Vec<SchemeConfig> {
        let mut out = Vec::new();
        for &p_g in &self.p_g {
            for &p_b in &self.p_b {
                if p_g >= p_b {
                    continue;
                }
                for &nlr in &self.neg_ln_rho {
                    out.push(SchemeConfig::Flock(HyperParams {
                        p_g,
                        p_b,
                        rho_link: (-nlr).exp(),
                        device_prior_factor: 5.0,
                    }));
                }
            }
        }
        out
    }
}

/// Grid over NetBouncer's three hyperparameters.
#[derive(Debug, Clone, Serialize)]
pub struct NetBouncerGrid {
    /// Regularization weights.
    pub lambda: Vec<f64>,
    /// Link drop-rate thresholds.
    pub link_threshold: Vec<f64>,
    /// Device problematic-flow thresholds (`u64::MAX` = off).
    pub device_flow_threshold: Vec<u64>,
}

impl Default for NetBouncerGrid {
    fn default() -> Self {
        NetBouncerGrid {
            lambda: vec![0.1, 0.5, 1.0, 5.0, 10.0],
            link_threshold: vec![2e-4, 5e-4, 1e-3, 2e-3, 5e-3],
            device_flow_threshold: vec![u64::MAX],
        }
    }
}

impl NetBouncerGrid {
    /// All grid points.
    pub fn points(&self) -> Vec<SchemeConfig> {
        let mut out = Vec::new();
        for &lambda in &self.lambda {
            for &link_threshold in &self.link_threshold {
                for &device_flow_threshold in &self.device_flow_threshold {
                    out.push(SchemeConfig::NetBouncer {
                        lambda,
                        link_threshold,
                        device_flow_threshold,
                    });
                }
            }
        }
        out
    }
}

/// Grid over 007's single hyperparameter.
#[derive(Debug, Clone, Serialize)]
pub struct SevenGrid {
    /// Vote thresholds.
    pub vote_threshold: Vec<f64>,
}

impl Default for SevenGrid {
    fn default() -> Self {
        SevenGrid {
            vote_threshold: vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
        }
    }
}

impl SevenGrid {
    /// All grid points.
    pub fn points(&self) -> Vec<SchemeConfig> {
        self.vote_threshold
            .iter()
            .map(|&vote_threshold| SchemeConfig::Seven { vote_threshold })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flock_grid_skips_invalid_combos() {
        let g = FlockGrid {
            p_g: vec![1e-3, 5e-3],
            p_b: vec![2e-3],
            neg_ln_rho: vec![10.0],
        };
        // 5e-3 >= 2e-3 is invalid; only one point remains.
        assert_eq!(g.points().len(), 1);
    }

    #[test]
    fn default_grids_have_expected_sizes() {
        assert_eq!(FlockGrid::default().points().len(), 4 * 5 * 4);
        assert_eq!(NetBouncerGrid::default().points().len(), 5 * 5);
        assert_eq!(SevenGrid::default().points().len(), 7);
    }
}
