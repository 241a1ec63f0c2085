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
//! This crate supplies the message-level side of that seam:
//!
//! * [`Transport`](transport::Transport) — the per-round "actions in,
//!   receptions out" contract a network backend implements, and
//!   [`TransportChannel`](transport::TransportChannel), the one adapter
//!   that runs any transport as the engine's channel.
//! * [`MockNetTransport`](transport::MockNetTransport) — a deterministic
//!   network with per-link delivery delay, Bernoulli loss, and partition
//!   windows, seeded from the existing
//!   [`StreamKind`](radio_sim::rng::StreamKind) machinery
//!   (`StreamKind::Transport`, so a lossy network never perturbs
//!   process randomness). With delay 0, no loss, and no partitions its
//!   executions byte-compare equal to the simulator's.
//! * [`Cluster`](runtime::Cluster) / [`ClusterConfig`](runtime::ClusterConfig)
//!   — constructors for an engine over a transport. Any
//!   `radio_sim::Process` runs unmodified, and the engine records the
//!   same [`Trace`](radio_sim::trace::Trace) and telemetry on every
//!   substrate, so every specification predicate evaluates unchanged.
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
