//! Datacenter topology substrate for the Flock fault-localization suite.
//!
//! This crate provides everything the inference layers need to know about
//! the network under diagnosis:
//!
//! * [`Topology`] — a directed multigraph of hosts and switches with typed
//!   tiers (host / leaf / aggregation / spine), built by the constructors in
//!   [`clos`] (three-tier Clos / fat-tree and two-tier leaf–spine, matching
//!   the environments of §6.3 of the paper).
//! * [`irregular`] — derivation of "irregular" topologies by omitting a
//!   fraction of fabric links (§7.6), preserving host reachability.
//! * [`planes`] — spine-plane membership recovered from the stripe
//!   structure of the graph (with a validated single-plane fallback),
//!   which `flock-netsim` uses to draw plane-confined failures.
//! * [`routing`] — valley-free (up–down) ECMP shortest-path enumeration
//!   with per-pair path-set and per-switch up-sweep caching, producing the
//!   path sets that define the PGM's path layer (§3.2).
//! * [`equivalence`] — link equivalence classes under passive observation
//!   and the theoretical maximum precision used in Fig. 5c.
//! * [`fasthash`] — the deterministic multiply-mix hasher behind every
//!   id-keyed index map on the epoch hot path (assembly caches, touch
//!   indexes, term tables).
//!
//! The graph structures are intentionally small and purpose-built (no
//! general graph library): the only operations the suite needs are tiered
//! construction, up-down traversal, and link/neighbor lookups, and keeping
//! the representation flat (`Vec`-indexed arenas) makes the large-scale
//! experiments (tens of thousands of links) cheap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clos;
pub mod equivalence;
pub mod fasthash;
pub mod faults;
pub mod graph;
pub mod irregular;
pub mod planes;
pub mod routing;

pub use clos::{ClosParams, LeafSpineParams};
pub use equivalence::{EquivalenceClasses, LinkSignature};
pub use fasthash::{FxHashMap, FxHashSet};
pub use faults::{Component, GroundTruth};
pub use graph::{Link, LinkId, Node, NodeId, NodeRole, Topology};
pub use planes::SpinePlanes;
pub use routing::{PathSet, PathSetHandle, Router};
