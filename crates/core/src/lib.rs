//! The Flock fault-localization algorithm (the paper's primary
//! contribution) and the other PGM-based inference schemes it is compared
//! against.
//!
//! # Model
//!
//! Flock builds a three-layer discrete Bayesian network over the telemetry
//! (§3.2): hidden binary *link-nodes* and *device-nodes* at the top,
//! *path-nodes* in the middle (a path fails iff any of its components
//! failed), and observed *flow-nodes* at the bottom. Conditioned on a
//! hypothesis `H` (a set of failed components), a flow with `w` possible
//! paths, `r` bad packets of `t` sent has probability (Eq. 1)
//!
//! ```text
//! P[F=(r,t) | H] = 1/w · Σᵢ (1-γᵢ)·p_bʳ(1-p_b)^(t-r) + γᵢ·p_gʳ(1-p_g)^(t-r)
//! ```
//!
//! which this crate evaluates in normalized log space ([`likelihood`]).
//!
//! # Inference
//!
//! * [`engine`] — the shared inference state: the hypothesis, the
//!   per-epoch evidence, and the Δ array of Joint Likelihood
//!   Exploration (JLE), over a set layer (`sets.rs`) that numbers the
//!   path sets the engine's evidence touches, holds their structure and
//!   counts their member paths. A single `flip` maintains all `n`
//!   neighbor deltas in `O(D·T)` (Theorem 1), the source of the `O(n)`
//!   speedup over per-hypothesis evaluation.
//! * [`greedy`] — Flock's greedy MLE search (Algorithms 1–2), with and
//!   without JLE (the Fig. 4c ablation).
//! * [`sherlock`] — the Sherlock/Ferret bounded-failure exhaustive search
//!   on the same PGM, plain and JLE-accelerated (Algorithm 3).
//! * [`metrics`] — precision/recall per Appendix A.1, including the
//!   device-failure accounting.
//!
//! All schemes implement [`Localizer`] and consume the same
//! [`ObservationSet`](flock_telemetry::ObservationSet) — the property that
//! lets the evaluation compare them on identical input telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod greedy;
pub mod kernels;
pub mod likelihood;
pub mod localizer;
pub mod metrics;
pub mod params;
mod sets;
pub mod sherlock;
pub mod space;

pub use engine::{ConvictingEvidence, Engine, EngineStateSizes, EngineStats};
pub use greedy::{BudgetedSearch, FlockGreedy};
pub use kernels::KernelDispatch;
pub use likelihood::{flow_score, llf, EpochFlowTable, TermDirectory};
pub use localizer::{LocalizationResult, Localizer};
pub use metrics::{evaluate, fscore, MetricsAccumulator, PrecisionRecall};
pub use params::HyperParams;
pub use sets::BindError;
pub use sherlock::SherlockFerret;
pub use space::{CompIdx, ComponentSpace};
