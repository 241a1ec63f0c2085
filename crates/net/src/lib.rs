//! # net: running the paper's processes off the simulator
//!
//! The process layer ([`radio_sim::process::Process`]) is already pure
//! message-in/message-out: a process sees inputs, makes a transmit/listen
//! decision, and handles a reception — nothing else. The only thing that
//! ties `LbProcess`/`SeedProcess`/the baselines to the simulator is the
//! *channel*: how one round's transmit decisions become per-node
//! receptions. [`radio_sim::engine::Engine`] is the one round loop and
//! is generic over that channel ([`radio_sim::channel::Channel`]).
//!
//! This crate supplies the deterministic mock network on that seam:
//!
//! * [`MockNetTransport`] — a network with
//!   per-link delivery delay, Bernoulli loss, and partition windows,
//!   seeded from the existing [`StreamKind`](radio_sim::rng::StreamKind)
//!   machinery (`StreamKind::Transport`, so a lossy network never
//!   perturbs process randomness). It is a
//!   [`Channel`](radio_sim::channel::Channel): run it with
//!   [`Engine::with_channel`](radio_sim::engine::Engine::with_channel),
//!   and its share of a round costs the round's traffic, not the
//!   vertex count. Any `radio_sim::Process` runs unmodified, and the
//!   engine records the same [`Trace`](radio_sim::trace::Trace) and
//!   telemetry on every substrate, so every specification predicate
//!   evaluates unchanged.
//!   With delay 0, no loss, and no partitions its executions
//!   byte-compare equal to the simulator's.
//! * [`Transport`],
//!   [`TransportChannel`] and
//!   [`Cluster`] / [`ClusterConfig`]
//!   — the older message-level contract (one action and one reception
//!   per vertex per round), its adapter onto the channel seam, and
//!   constructors for an engine over it. The mock network implements it
//!   over the same fan-out and arrival pop, so both paths give
//!   byte-identical executions; it remains for the benchmark's traced
//!   mode, which wraps it.
//!
//! See `docs/transport.md` for the channel and transport contracts, the
//! delay/loss/partition model, the sim-equivalence argument, and how a
//! real-socket backend plugs in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runtime;
pub mod transport;

pub use runtime::{Cluster, ClusterConfig};
pub use transport::{
    LinkSet, MockNetConfig, MockNetTransport, PartitionWindow, Reception, Transport,
    TransportChannel,
};
