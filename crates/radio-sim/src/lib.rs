//! # radio-sim: the dual graph radio network model, executable
//!
//! This crate implements the *substrate* of Lynch & Newport's
//! "A (Truly) Local Broadcast Layer for Unreliable Radio Networks"
//! (MIT-CSAIL-TR-2015-016 / PODC 2015): the **dual graph model** of Section 2
//! of the paper, as a deterministic, seedable, synchronous discrete-event
//! simulator.
//!
//! The model describes a radio network with two graphs over the same vertex
//! set: a *reliable* graph `G = (V, E)` and an *unreliable* supergraph
//! `G' = (V, E')` with `E ⊆ E'`. In each synchronous round the communication
//! topology consists of all edges of `E` plus an arbitrary subset of
//! `E' \ E` chosen by a **link scheduler**. Communication follows the
//! standard radio collision rule: a node `u` receives a message from `v`
//! exactly when `u` is listening, `v` transmits, and `v` is the *only*
//! transmitter among `u`'s neighbors in the round's topology. There is no
//! collision detection: a silent round and a collided round are
//! indistinguishable (both deliver `⊥`).
//!
//! ## Crate layout
//!
//! * [`geometry`] — Euclidean embeddings, the `r`-geographic property, and
//!   the grid *region partition* of Appendix A (Lemmas A.1–A.3).
//! * [`graph`] — the [`DualGraph`](graph::DualGraph) type and its invariants.
//! * [`topology`] — generators for the network families used by the
//!   experiments (random geometric, grids, lines, stars, clustered, and
//!   adversarial grey-zone constructions).
//! * [`scheduler`] — the oblivious [`LinkScheduler`](scheduler::LinkScheduler)
//!   trait and a library of concrete adversaries, plus the *adaptive*
//!   scheduler used to reproduce the oblivious/adaptive separation.
//! * [`process`] — the [`Process`](process::Process) trait: the probabilistic
//!   automata that model wireless devices.
//! * [`environment`] — deterministic environments that feed inputs and
//!   consume outputs, per the round structure of Section 2.
//! * [`engine`] — the synchronous round loop, the only one in the
//!   repository, generic over its channel.
//! * [`channel`] — the [`Channel`](channel::Channel) trait the engine
//!   resolves receptions through (an index-level reply: silence, a
//!   collision, or the one sender), and the simulator's
//!   [`SimChannel`](channel::SimChannel). The `net` crate's mock network
//!   plugs in as another channel.
//! * [`resolve`] — the collision rule as one free function (a scatter
//!   over each transmitter's neighbors) behind the sim channel.
//! * [`timeline`] — epoch-based dynamic geometry: the
//!   [`GraphTimeline`](timeline::GraphTimeline) schedule of dual-graph
//!   snapshots that mobility and moving jammers run on; a single-epoch
//!   timeline is byte-identical to the static path.
//! * [`fault`] — declarative fault plans (node churn, jamming windows,
//!   message-drop bursts) injected deterministically by the engine.
//! * [`trace`] — execution traces: the first-class record of an execution
//!   over which specification predicates are evaluated.
//! * [`rng`] — deterministic per-node randomness (ChaCha streams).
//!
//! ## Round structure
//!
//! Following Section 2 of the paper, each round proceeds as:
//!
//! 1. every process receives inputs (if any) from the environment;
//! 2. every process decides to transmit or listen (possibly randomly);
//! 3. the link scheduler's topology for the round resolves receptions;
//! 4. every process generates outputs (if any), consumed by the environment.
//!
//! ## Example
//!
//! ```
//! use radio_sim::prelude::*;
//!
//! // Five nodes on a line, 0.9 apart: adjacent pairs are reliable
//! // neighbors, distance-2 pairs fall in the grey zone and get
//! // scheduler-controlled unreliable edges.
//! let topo = topology::line(5, 0.9, 2.0);
//! topo.check_geographic().expect("generators witness r-geography");
//! let config = topo.configuration(Box::new(scheduler::AllExtraEdges));
//! assert_eq!(config.graph.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod engine;
pub mod environment;
pub mod fault;
pub mod geometry;
pub mod graph;
pub mod process;
pub mod resolve;
pub mod rng;
pub mod scheduler;
pub mod timeline;
pub mod topology;
pub mod trace;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::engine::{Configuration, Engine};
    pub use crate::environment::{Environment, NullEnvironment};
    pub use crate::fault::FaultPlan;
    pub use crate::geometry::{Embedding, Point, RegionId, RegionPartition};
    pub use crate::graph::{DualGraph, NodeId};
    pub use crate::process::{Action, Context, ProcId, Process};
    pub use crate::scheduler;
    pub use crate::scheduler::LinkScheduler;
    pub use crate::timeline::GraphTimeline;
    pub use crate::topology;
    pub use crate::trace::{Event, EventKind, Trace};
}

pub use engine::{Configuration, Engine};
pub use graph::{DualGraph, NodeId};
