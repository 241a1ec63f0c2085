//! The channel: the one part of a round that differs between substrates.
//!
//! [`Engine::step`](crate::engine::Engine::step) owns the whole Section 2
//! round — faults, inputs, transmit decisions, per-listener
//! classification (jamming, drop bursts), delivery, outputs — and asks
//! its [`Channel`] a single question per round: given who transmitted,
//! what does each listener hear? In I/O-automata terms the channel is the
//! one automaton composed with the node automata that a substrate swaps
//! out.
//!
//! The reply is *index-level*: silence, a collision, or the one sender
//! `v` ([`Heard`]), never a cloned message. The engine clones out of its
//! own message slots only for deliveries it actually makes, so the
//! simulator's zero-allocation steady state is unchanged; a channel that
//! holds its own copies (a delayed network) hands one over through
//! [`Channel::deliver`], again only for deliveries that happen.
//!
//! [`SimChannel`] is the simulator's channel: the link scheduler picks
//! the round's extra edges and [`crate::resolve`] applies the collision
//! rule, serial or sharded. Other substrates (the `net` crate's mock
//! network) plug in through [`Engine::with_channel`](crate::engine::Engine::with_channel).

use crate::graph::{DualGraph, NodeId};
use crate::resolve;
use crate::scheduler::SchedulerBox;

/// What one listener hears in one round, reported by index.
///
/// `Silence` and `Collision` both deliver `⊥` to the process (the model
/// has no collision detection); the distinction feeds channel
/// statistics only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heard {
    /// Nothing reached the listener.
    Silence,
    /// Two or more transmissions interfered.
    Collision,
    /// Exactly one transmission reached the listener, from this vertex.
    From(NodeId),
}

/// One round's transmit decisions, as the engine hands them to its
/// channel.
#[derive(Debug)]
pub struct Transmissions<'a, M> {
    /// The round being resolved (rounds start at 1 and strictly increase).
    pub round: u64,
    /// The dual graph in force this round (the current epoch's snapshot
    /// when geometry is dynamic).
    pub graph: &'a DualGraph,
    /// `transmitting[v]`: did `v` transmit this round?
    pub transmitting: &'a [bool],
    /// This round's transmitters, ascending.
    pub tx_list: &'a [usize],
    /// `messages[v]` is `Some` exactly for this round's transmitters.
    pub messages: &'a [Option<M>],
}

/// How one round's transmissions become what each listener hears.
///
/// The contract the engine relies on:
///
/// * [`Channel::resolve`] is called exactly once per round, after every
///   transmit decision and before any listener is classified.
/// * [`Channel::heard`] is asked only of vertices that are up and did
///   not transmit this round.
/// * [`Channel::deliver`] is called at most once per listener per round,
///   only after `heard` reported [`Heard::From`], and only when the
///   engine actually delivers (the listener is not jammed and no drop
///   burst suppressed the reception).
/// * The replies are a pure function of the construction parameters and
///   the sequence of `resolve` calls, so executions replay byte for byte.
pub trait Channel<M> {
    /// Resolves one round. `shard_busy`, present when engine telemetry is
    /// on, has one busy-nanoseconds slot per [`Channel::shards`] for a
    /// channel that times parallel work.
    fn resolve(&mut self, tx: &Transmissions<'_, M>, shard_busy: Option<&mut [u64]>);

    /// What listener `u` hears this round.
    fn heard(&self, u: usize) -> Heard;

    /// The message of the delivery to `u` that `heard` reported as
    /// coming from `from`. `messages` are the engine's slots for this
    /// round's transmitters.
    fn deliver(&mut self, u: usize, from: NodeId, messages: &[Option<M>]) -> M;

    /// How many parallel shards `resolve` fans out over (1 = serial).
    fn shards(&self) -> usize {
        1
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The simulator's channel: the link scheduler fixes the round topology
/// and the collision rule resolves receptions over it.
///
/// After `resolve`, `tx_neighbors[u]` counts `u`'s transmitting
/// neighbors and `last_sender[u]` names the unique one when that count
/// is 1 (see [`crate::resolve`]). Both buffers are sized at construction,
/// so resolution allocates only what the scheduler itself returns.
pub struct SimChannel {
    scheduler: SchedulerBox,
    shards: usize,
    tx_neighbors: Vec<u32>,
    last_sender: Vec<NodeId>,
}

impl SimChannel {
    /// A channel over `n` vertices resolving with the given scheduler
    /// across `shards` worker threads (clamped to ≥ 1; every count is
    /// byte-identical to serial).
    pub fn new(scheduler: SchedulerBox, shards: usize, n: usize) -> Self {
        SimChannel {
            scheduler,
            shards: shards.max(1),
            tx_neighbors: vec![0; n],
            last_sender: vec![NodeId(0); n],
        }
    }
}

impl<M: Clone> Channel<M> for SimChannel {
    fn resolve(&mut self, tx: &Transmissions<'_, M>, shard_busy: Option<&mut [u64]>) {
        let selection = match &mut self.scheduler {
            SchedulerBox::Oblivious(s) => s.extra_edges(tx.round, tx.graph),
            SchedulerBox::Adaptive(s) => s.extra_edges(tx.round, tx.graph, tx.transmitting),
        };
        if self.shards > 1 {
            resolve::resolve_receptions_sharded(
                tx.graph,
                &selection,
                tx.transmitting,
                self.shards,
                &mut self.tx_neighbors,
                &mut self.last_sender,
                shard_busy,
            );
        } else {
            resolve::resolve_receptions_serial(
                tx.graph,
                &selection,
                tx.transmitting,
                tx.tx_list,
                &mut self.tx_neighbors,
                &mut self.last_sender,
            );
        }
    }

    #[inline]
    fn heard(&self, u: usize) -> Heard {
        match self.tx_neighbors[u] {
            0 => Heard::Silence,
            1 => Heard::From(self.last_sender[u]),
            _ => Heard::Collision,
        }
    }

    #[inline]
    fn deliver(&mut self, _u: usize, from: NodeId, messages: &[Option<M>]) -> M {
        messages[from.0]
            .clone()
            .expect("sender marked transmitting must carry a message")
    }

    fn shards(&self) -> usize {
        self.shards
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}
