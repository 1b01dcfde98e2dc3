//! Serializable scheme parameterizations.

use flock_baselines::{NetBouncer, ZeroZeroSeven};
use flock_core::{FlockGreedy, HyperParams, Localizer};
use serde::Serialize;

/// A fully-specified scheme configuration; `build` instantiates the
/// corresponding localizer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SchemeConfig {
    /// Flock greedy inference with the given model hyperparameters.
    Flock(HyperParams),
    /// NetBouncer with (λ, link drop threshold, device flow threshold).
    NetBouncer {
        /// Regularization weight λ.
        lambda: f64,
        /// Drop-rate threshold above which a link is blamed.
        link_threshold: f64,
        /// Problematic-flow count at which a device is blamed
        /// (`u64::MAX` disables device detection).
        device_flow_threshold: u64,
    },
    /// 007 with its vote threshold.
    Seven {
        /// Minimum vote total for a link to be blamed.
        vote_threshold: f64,
    },
}

impl SchemeConfig {
    /// Instantiate the localizer for this configuration.
    pub fn build(&self) -> Box<dyn Localizer + Send + Sync> {
        match self {
            SchemeConfig::Flock(params) => Box::new(FlockGreedy::new(*params)),
            SchemeConfig::NetBouncer {
                lambda,
                link_threshold,
                device_flow_threshold,
            } => {
                let mut nb = NetBouncer::new(*lambda, *link_threshold);
                nb.device_flow_threshold = *device_flow_threshold;
                Box::new(nb)
            }
            SchemeConfig::Seven { vote_threshold } => Box::new(ZeroZeroSeven::new(*vote_threshold)),
        }
    }

    /// Compact human-readable parameter description for tables.
    pub fn describe(&self) -> String {
        match self {
            SchemeConfig::Flock(p) => format!(
                "p_g={:.1e} p_b={:.1e} -ln(rho)={:.0}",
                p.p_g,
                p.p_b,
                -p.rho_link.ln()
            ),
            SchemeConfig::NetBouncer {
                lambda,
                link_threshold,
                device_flow_threshold,
            } => {
                if *device_flow_threshold == u64::MAX {
                    format!("lambda={lambda} thresh={link_threshold:.1e}")
                } else {
                    format!(
                        "lambda={lambda} thresh={link_threshold:.1e} dev={device_flow_threshold}"
                    )
                }
            }
            SchemeConfig::Seven { vote_threshold } => format!("thresh={vote_threshold}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_named_localizers() {
        assert_eq!(
            SchemeConfig::Flock(HyperParams::default()).build().name(),
            "Flock"
        );
        assert_eq!(
            SchemeConfig::NetBouncer {
                lambda: 1.0,
                link_threshold: 1e-3,
                device_flow_threshold: u64::MAX
            }
            .build()
            .name(),
            "NetBouncer"
        );
        assert_eq!(
            SchemeConfig::Seven {
                vote_threshold: 1.0
            }
            .build()
            .name(),
            "007"
        );
    }

    #[test]
    fn describe_mentions_family_parameters() {
        let s = SchemeConfig::Flock(HyperParams::default()).describe();
        assert!(s.contains("p_g") && s.contains("p_b"));
    }
}
