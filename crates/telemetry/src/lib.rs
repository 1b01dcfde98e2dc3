//! Telemetry substrate for the Flock fault-localization suite.
//!
//! This crate implements the monitoring plane of §3.1/§5.1 of the paper and
//! the input-assembly logic of §6.2:
//!
//! * [`flow`] — flow keys, per-flow statistics, and the monitored-flow
//!   record: the one record type of the simulators, the agent, the wire
//!   and the collector, through to input assembly.
//! * [`wire`] — the IPFIX-style export format: fixed message header plus
//!   52-byte fixed flow-stats records (matching the paper's "52 bytes per
//!   flow"), with an optional variable-length path attachment for flows
//!   whose exact route is known (active probes / INT). One 32-byte
//!   header version; its `export_time_ms` is what epochs are cut by.
//! * [`agent`] — the end-host agent: aggregates packet/flow samples by flow
//!   key, optionally downsamples, and periodically exports records.
//! * [`collector`] — a sharded, event-driven TCP reactor that multiplexes
//!   many agent connections over a few threads, decodes export messages
//!   into shard-local stores bucketed by export stamp, and sheds load at a
//!   configurable high-water mark (reproduces the Fig. 7 scalability
//!   measurements).
//! * [`probes`] — active-probe planning: A1 host↔spine bounce probes with
//!   pinned paths (NetBouncer-style) and path-tracing for flagged flows
//!   (007-style A2).
//! * [`input`] — assembly of inference inputs: given monitored flows and a
//!   set of telemetry kinds (A1 / A2 / P / INT), produce the
//!   [`ObservationSet`] consumed by every inference
//!   scheme, with interned fabric paths and ECMP path sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod collector;
pub mod flow;
pub mod input;
pub mod probes;
pub mod wire;

pub use agent::{AgentConfig, AgentCore, FlowSample};
pub use collector::{
    AgentSeen, Collector, CollectorConfig, CollectorStats, DrainBatch, ReactorHook, StatsSnapshot,
};
pub use flow::{FlowKey, FlowRecord, FlowStats, MonitoredFlow, TrafficClass};
pub use input::{
    AnalysisMode, ArenaSnapshot, Assembler, Column, FlowObs, InputKind, ObservationSet, PathArena,
    PathSetId,
};
pub use probes::{plan_a1_probes, ProbeSpec};
