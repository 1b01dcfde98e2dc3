//! # Flock — network fault localization at scale, in Rust
//!
//! A from-scratch reproduction of *"Flock: Accurate Network Fault
//! Localization at Scale"* (Harsh, Meng, Agrawal, Godfrey — CoNEXT 2023),
//! covering the Flock inference algorithm (a discrete Bayesian PGM solved
//! by greedy maximum-likelihood search with Joint Likelihood Exploration),
//! every substrate its evaluation depends on, and the baselines it is
//! compared against.
//!
//! This facade crate re-exports the workspace members under short module
//! names and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use flock::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. A small three-tier Clos fabric.
//! let topo = flock::topology::clos::three_tier(ClosParams::tiny());
//! let router = Router::new(&topo);
//!
//! // 2. Inject a silent gray failure and simulate telemetry.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let scenario = flock::netsim::failure::silent_link_drops(
//!     &topo, 1, (0.02, 0.02), 0.0, &mut rng);
//! let demands = flock::netsim::traffic::generate_demands(
//!     &topo,
//!     &TrafficConfig::paper(2_000, TrafficPattern::Uniform),
//!     &mut rng);
//! let flows = flock::netsim::flowsim::simulate_flows(
//!     &topo, &router, &scenario, &demands, &FlowSimConfig::default(), &mut rng);
//!
//! // 3. Assemble INT-style input and run Flock.
//! let obs = flock::telemetry::input::assemble(
//!     &topo, &router, &flows, &[InputKind::Int], AnalysisMode::PerPacket);
//! let result = FlockGreedy::default().localize(&topo, &obs);
//! assert_eq!(result.predicted_links(), scenario.truth.failed_links);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`topology`] | `flock-topology` | Clos fabrics, ECMP routing, equivalence classes |
//! | [`telemetry`] | `flock-telemetry` | flow records, wire codec, agent/collector, input assembly |
//! | [`netsim`] | `flock-netsim` | flow-level and packet-level simulators, failure injection |
//! | [`core`] | `flock-core` | the PGM, the JLE engine, greedy/Sherlock/Gibbs inference, metrics |
//! | [`baselines`] | `flock-baselines` | 007 and NetBouncer |
//! | [`calibrate`] | `flock-calibrate` | automated hyperparameter calibration |
//! | [`stream`] | `flock-stream` | online epoch pipeline with warm-start inference |
//! | [`store`] | `flock-store` | tiered verdict store: blame history, alerts, provenance, metrics |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flock_baselines as baselines;
pub use flock_calibrate as calibrate;
pub use flock_core as core;
pub use flock_netsim as netsim;
pub use flock_store as store;
pub use flock_stream as stream;
pub use flock_telemetry as telemetry;
pub use flock_topology as topology;

/// The most commonly used types, for `use flock::prelude::*`.
pub mod prelude {
    pub use flock_baselines::{NetBouncer, ZeroZeroSeven};
    pub use flock_core::{
        evaluate, fscore, FlockGreedy, GibbsSampler, HyperParams, KernelDispatch,
        LocalizationResult, Localizer, PrecisionRecall, SherlockFerret,
    };
    pub use flock_netsim::{
        DesConfig, DesFaults, DynamicScenario, FailureScenario, FaultEvent, FlowSimConfig,
        TrafficConfig, TrafficPattern,
    };
    pub use flock_store::{
        Alert, AlertPolicy, Durability, MetricsRegistry, OpsAlert, StoreConfig, StoreQuery,
        VerdictStore,
    };
    pub use flock_stream::{
        DegradeReason, EpochConfig, EpochHealth, EpochReport, Provenance, StreamConfig,
        StreamPipeline,
    };
    pub use flock_telemetry::{
        AnalysisMode, Collector, CollectorConfig, DrainBatch, FlowKey, FlowRecord, InputKind,
        MonitoredFlow, ObservationSet, StampedRecord, StatsSnapshot,
    };
    pub use flock_topology::{
        ClosParams, Component, GroundTruth, LeafSpineParams, LinkId, NodeId, Router, Topology,
    };
}
