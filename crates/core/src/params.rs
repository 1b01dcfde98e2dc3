//! Model hyperparameters (§3.2, §5.2).

use serde::Serialize;

/// Hyperparameters of Flock's PGM.
///
/// * `p_g` — probability that a packet experiences a problem on a *good*
///   path (congestion, noise). Must satisfy `p_g < p_b`.
/// * `p_b` — probability that a packet experiences a problem on a *bad*
///   path (one with ≥ 1 failed component).
/// * `rho_link` — prior failure probability of a link. The prior
///   multiplies hypothesis likelihood by `ρ^|H| (1-ρ)^(n-|H|)`,
///   penalizing larger hypotheses (§3.2 "Incorporating Priors").
/// * `device_prior_factor` — the device prior is this factor larger on
///   log scale: `ln ρ_device = factor · ln ρ_link` (§3.2 found 5×
///   effective: device blame requires stronger evidence).
///
/// Defaults sit mid-range of the calibration grids of Fig. 8; the
/// `flock-calibrate` crate reproduces the paper's automated calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HyperParams {
    /// Per-packet problem probability on good paths.
    pub p_g: f64,
    /// Per-packet problem probability on bad paths.
    pub p_b: f64,
    /// Prior failure probability of a link.
    pub rho_link: f64,
    /// Device prior factor on log scale.
    pub device_prior_factor: f64,
}

impl Default for HyperParams {
    fn default() -> Self {
        HyperParams {
            p_g: 4e-4,
            p_b: 5e-3,
            rho_link: (-10.0f64).exp(),
            device_prior_factor: 5.0,
        }
    }
}

impl HyperParams {
    /// Validate the parameter ranges; panics with a descriptive message on
    /// violation. Called by the inference constructors.
    pub fn validate(&self) {
        assert!(
            0.0 < self.p_g && self.p_g < self.p_b && self.p_b < 1.0,
            "require 0 < p_g < p_b < 1, got p_g={}, p_b={}",
            self.p_g,
            self.p_b
        );
        assert!(
            0.0 < self.rho_link && self.rho_link < 0.5,
            "rho_link must be in (0, 0.5), got {}",
            self.rho_link
        );
        assert!(self.device_prior_factor >= 1.0);
    }

    /// Prior log-odds of a link being failed: `ln(ρ/(1-ρ))` (negative).
    pub fn link_prior_logodds(&self) -> f64 {
        (self.rho_link / (1.0 - self.rho_link)).ln()
    }

    /// Prior log-odds of a device being failed, with the 5×-on-log-scale
    /// device prior: `ρ_dev = ρ_link^factor`.
    pub fn device_prior_logodds(&self) -> f64 {
        let rho_dev = self.rho_link.powf(self.device_prior_factor);
        (rho_dev / (1.0 - rho_dev)).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        HyperParams::default().validate();
    }

    #[test]
    fn priors_are_negative_and_device_is_stronger() {
        let p = HyperParams::default();
        assert!(p.link_prior_logodds() < 0.0);
        assert!(p.device_prior_logodds() < p.link_prior_logodds());
        // 5× on log scale (ρ ≈ odds for tiny ρ).
        let ratio = p.device_prior_logodds() / p.link_prior_logodds();
        assert!((ratio - 5.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "p_g < p_b")]
    fn rejects_inverted_probabilities() {
        HyperParams {
            p_g: 0.5,
            p_b: 0.01,
            ..Default::default()
        }
        .validate();
    }
}
