//! `flock-stream` — the online, epoch-based localization pipeline.
//!
//! The paper's deployment model (§5.1, Fig. 7) is a continuously running
//! service: end-host agents export flow records to a central collector
//! and the inference engine drains the store every ~30 s, localizing
//! faults as they appear and heal. The sibling crates provide one-shot
//! offline localization over a pre-assembled
//! [`ObservationSet`](flock_telemetry::ObservationSet); this crate turns
//! that into the online loop:
//!
//! * [`epoch`] — windows the collector's record stream into fixed
//!   (tumbling) epochs against a caller-driven watermark, placing each
//!   run of records drained under one export stamp with one judgement
//!   of that stamp;
//! * [`shard`] — partitions blame ownership over the component space
//!   (one shard per pod plus one for the spine tier) so per-epoch
//!   inference can run shard-parallel;
//! * the infer stage (crate-private) — one job per shard per epoch, run
//!   on a persistent pool of `min(cores, shards)` workers over per-shard
//!   FIFO queues (home shards first, steal when idle), so consecutive
//!   epochs overlap per shard without a spawn/join barrier; it resets a
//!   panicked shard's engine and reports the panic as that shard's
//!   result;
//! * [`pipeline`] — the driver: per epoch it assembles observations
//!   against a persistent arena ([`flock_telemetry::Assembler`]),
//!   **warm-starts** each shard's engine from the previous epoch
//!   ([`flock_core::Engine::try_bind`] +
//!   [`flock_core::FlockGreedy::search_warm`], with removal moves so
//!   healed faults are dropped), and merges shard verdicts into one
//!   [`flock_core::LocalizationResult`] per epoch. With
//!   [`StreamConfig::pipelined`] set, assembly of epoch `N + 1` extends
//!   the one arena while inference of epoch `N` reads its snapshot
//!   ([`StreamPipeline::submit_flows`]), keeping steady-state wall time
//!   near the slowest single shard's critical path.
//!
//! The end-to-end wiring (agents → TCP collector → stream →
//! per-epoch verdicts) is demonstrated by the `flock_daemon` example and
//! exercised under failure churn by the `stream_pipeline` integration
//! test; the repository's `benchmark/` package measures it socket to
//! verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
mod exec;
pub mod pipeline;
pub mod shard;

pub use epoch::{Epoch, EpochConfig, EpochManager};
pub use pipeline::{
    reconstruct, ChaosHook, DegradeReason, EpochHealth, EpochReport, Provenance, ShardChaos,
    ShardFailure, ShardOutcome, StageTimings, StreamConfig, StreamPipeline, PROVENANCE_SETS_CAP,
};
pub use shard::{SetTouch, SetTouchIndex, Shard, ShardKind, ShardPlan};
