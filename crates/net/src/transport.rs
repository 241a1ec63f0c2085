//! The [`Transport`] trait, the adapter that runs a transport as the
//! engine's channel, and the deterministic mock network.
//!
//! A transport answers exactly one question per synchronous round: given
//! every node's transmit/listen decision, what does every node *hear*?
//! The answer is a [`Reception`] per vertex; the engine owns everything
//! else — process callbacks, fault masks, traces, statistics — and
//! reaches a transport through [`TransportChannel`].

use radio_sim::channel::{Channel, Heard, Transmissions};
use radio_sim::graph::{DualGraph, NodeId};
use radio_sim::process::Action;
use radio_sim::rng::{derive_stream, StreamKind};
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// What one node hears in one round, as reported by a transport.
///
/// Radio semantics, no collision detection: a node that transmitted
/// this round hears nothing regardless of the variant reported for it
/// (the engine ignores transports' values for transmitters), and
/// `Silence` vs `Collision` are indistinguishable *to the process*
/// (both deliver `⊥`) — the distinction exists only for the outside
/// view (channel statistics).
#[derive(Debug, Clone, PartialEq)]
pub enum Reception<M> {
    /// Nothing arrived at this node.
    Silence,
    /// Two or more arrivals interfered; the node hears noise (`⊥`).
    Collision,
    /// Exactly one message arrived.
    Message {
        /// The transmitting vertex.
        from: NodeId,
        /// The message.
        msg: M,
    },
}

/// How per-round transmit decisions become per-node receptions.
///
/// The contract:
///
/// * `resolve_round` is called exactly once per round, with strictly
///   increasing round numbers starting at 1.
/// * `actions` has one entry per vertex; `Action::Transmit(m)` means
///   the vertex put `m` on the air this round.
/// * On return, `receptions` has one entry per vertex describing what
///   that vertex hears *this* round (which, for a delayed transport,
///   may be traffic transmitted in an earlier round).
/// * Entries for transmitting vertices are ignored by the engine
///   (a radio cannot listen while transmitting).
/// * The result must be a pure function of the construction parameters
///   and the sequence of `resolve_round` calls — transports are
///   deterministic and replayable, like everything else in the stack.
pub trait Transport<M: Clone + Send>: Send {
    /// Resolves one round of traffic.
    fn resolve_round(&mut self, round: u64, actions: &[Action<M>], receptions: &mut Vec<Reception<M>>);

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str {
        "transport"
    }
}

// ---------------------------------------------------------------------------
// TransportChannel
// ---------------------------------------------------------------------------

/// Any [`Transport`] as the engine's [`Channel`]: the one adapter between
/// the message-level transport contract and the engine's index-level
/// reception step.
///
/// Each round the adapter hands the transport one action per vertex
/// (cloning each transmitter's message out of the engine's slots), then
/// reports the transport's receptions by sender index. A delivered
/// message is moved out of the transport's reception, so the copy the
/// network carried is the one the process receives.
pub struct TransportChannel<T, M> {
    transport: T,
    /// Per-round action vector handed to the transport, reused across
    /// rounds.
    actions: Vec<Action<M>>,
    /// Per-round receptions filled by the transport, reused across
    /// rounds.
    receptions: Vec<Reception<M>>,
}

impl<T, M> TransportChannel<T, M> {
    /// Wraps a transport.
    pub fn new(transport: T) -> Self {
        TransportChannel {
            transport,
            actions: Vec::new(),
            receptions: Vec::new(),
        }
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }
}

impl<M: Clone + Send, T: Transport<M>> Channel<M> for TransportChannel<T, M> {
    fn resolve(&mut self, tx: &Transmissions<'_, M>, _shard_busy: Option<&mut [u64]>) {
        self.actions.clear();
        self.actions.extend(tx.messages.iter().map(|m| match m {
            Some(m) => Action::Transmit(m.clone()),
            None => Action::Receive,
        }));
        self.transport
            .resolve_round(tx.round, &self.actions, &mut self.receptions);
        assert_eq!(
            self.receptions.len(),
            self.actions.len(),
            "transport must report one reception per vertex"
        );
    }

    fn heard(&self, u: usize) -> Heard {
        match &self.receptions[u] {
            Reception::Silence => Heard::Silence,
            Reception::Collision => Heard::Collision,
            Reception::Message { from, .. } => Heard::From(*from),
        }
    }

    fn deliver(&mut self, u: usize, _from: NodeId, _messages: &[Option<M>]) -> M {
        match std::mem::replace(&mut self.receptions[u], Reception::Silence) {
            Reception::Message { msg, .. } => msg,
            _ => unreachable!("the engine delivers only receptions reported as From"),
        }
    }

    fn name(&self) -> &'static str {
        self.transport.name()
    }
}

// ---------------------------------------------------------------------------
// MockNetTransport
// ---------------------------------------------------------------------------

/// Which static links the mock network routes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSet {
    /// The reliable edges `E` only (the `Gₜ = G` worst case).
    Reliable,
    /// Every edge of `E'` (the `Gₜ = G'` best case).
    All,
}

/// A network partition: during rounds `[from, to]` (inclusive), every
/// link crossing the boundary between `nodes` and its complement is cut
/// (messages on it are silently lost at send time).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// One side of the partition (vertex indices).
    pub nodes: Vec<usize>,
    /// First partitioned round (inclusive; rounds start at 1).
    pub from: u64,
    /// Last partitioned round (inclusive).
    pub to: u64,
}

/// The mock network's delay/loss/partition model.
#[derive(Debug, Clone, PartialEq)]
pub struct MockNetConfig {
    /// The static link set messages route over.
    pub links: LinkSet,
    /// Per-hop delivery delay in rounds. `0` reproduces the simulator's
    /// synchronous round structure exactly (the sim-equivalence
    /// keystone); `d > 0` delivers a round-`t` transmission at round
    /// `t + d`. Memory tracks the copies in flight, not `d`.
    pub delay_rounds: u64,
    /// Independent per-link Bernoulli loss probability, applied at send
    /// time. Coins come from `StreamKind::Transport` (one stream per
    /// send round, consumed in (sender, link-neighbor) ascending order),
    /// so loss never perturbs process, scheduler, or fault randomness —
    /// and `loss_p = 0` consumes no coins at all.
    pub loss_p: f64,
    /// Partition windows; a link crossed by *any* active window is cut.
    pub partitions: Vec<PartitionWindow>,
}

impl Default for MockNetConfig {
    fn default() -> Self {
        MockNetConfig {
            links: LinkSet::All,
            delay_rounds: 0,
            loss_p: 0.0,
            partitions: Vec::new(),
        }
    }
}

/// A deterministic mock network: one queue of copies in flight, keyed
/// by arrival round.
///
/// Every transmission fans out over the sender's static links; each
/// copy independently survives partitions and loss, then waits in the
/// queue until its arrival round. At arrival, radio semantics apply: a
/// receiver that is itself transmitting discards the arrivals (it cannot
/// listen), one surviving arrival is a delivery, and two or more
/// interfere ([`Reception::Collision`]).
pub struct MockNetTransport<M> {
    graph: Arc<DualGraph>,
    config: MockNetConfig,
    master_seed: u64,
    /// `partition_masks[w][v]` — is `v` on the `nodes` side of window `w`?
    partition_masks: Vec<Vec<bool>>,
    /// Copies in flight, in send order: `(arrival round, receiver,
    /// sender, msg)`. The per-hop delay is constant, so arrival rounds
    /// never decrease along the queue and each round's arrivals are its
    /// front. The storage is reused across rounds.
    in_flight: VecDeque<(u64, usize, NodeId, M)>,
}

impl<M: Clone + Send> MockNetTransport<M> {
    /// A mock network over the given graph's links, seeded like every
    /// other component (the seed selects the loss-coin streams).
    ///
    /// # Panics
    ///
    /// Panics if `loss_p` is outside `[0, 1]`, or a partition window is
    /// malformed (zero-based round, empty or out-of-range node set).
    pub fn new(graph: impl Into<Arc<DualGraph>>, config: MockNetConfig, master_seed: u64) -> Self {
        let graph = graph.into();
        let n = graph.len();
        assert!(
            (0.0..=1.0).contains(&config.loss_p),
            "loss_p must be in [0, 1], got {}",
            config.loss_p
        );
        let partition_masks = config
            .partitions
            .iter()
            .map(|w| {
                assert!(w.from >= 1 && w.to >= w.from, "malformed partition window");
                let mut mask = vec![false; n];
                for &v in &w.nodes {
                    assert!(v < n, "partition references vertex {v} out of range");
                    mask[v] = true;
                }
                mask
            })
            .collect();
        MockNetTransport {
            graph,
            config,
            master_seed,
            partition_masks,
            in_flight: VecDeque::new(),
        }
    }

    /// The model this network runs.
    pub fn config(&self) -> &MockNetConfig {
        &self.config
    }
}

impl<M: Clone + Send> Transport<M> for MockNetTransport<M> {
    fn resolve_round(
        &mut self,
        round: u64,
        actions: &[Action<M>],
        receptions: &mut Vec<Reception<M>>,
    ) {
        let n = self.graph.len();
        assert_eq!(actions.len(), n, "one action per vertex required");

        // Send phase: fan each transmission out over the sender's
        // links, drop partition-crossing and lossy copies at send time,
        // enqueue the rest for arrival at `round + delay`. Loss coins
        // are flipped in (sender ascending, neighbor ascending) order
        // from this round's Transport stream, and only when the model
        // is actually lossy.
        let arrival = round.saturating_add(self.config.delay_rounds);
        let partitions = &self.config.partitions;
        let masks = &self.partition_masks;
        let partitioned = partitions.iter().any(|w| w.from <= round && round <= w.to);
        let cut = |v: usize, u: usize| {
            partitions
                .iter()
                .zip(masks)
                .any(|(w, mask)| w.from <= round && round <= w.to && mask[v] != mask[u])
        };
        let loss_p = self.config.loss_p;
        let mut loss_rng = None;
        for (v, action) in actions.iter().enumerate() {
            let Action::Transmit(m) = action else { continue };
            let neighbors = match self.config.links {
                LinkSet::Reliable => self.graph.reliable_neighbors(NodeId(v)),
                LinkSet::All => self.graph.all_neighbors(NodeId(v)),
            };
            for &u in neighbors {
                if partitioned && cut(v, u.0) {
                    continue;
                }
                if loss_p > 0.0 {
                    let rng = loss_rng.get_or_insert_with(|| {
                        derive_stream(self.master_seed, StreamKind::Transport, round)
                    });
                    if rng.gen_bool(loss_p) {
                        continue;
                    }
                }
                self.in_flight
                    .push_back((arrival, u.0, NodeId(v), m.clone()));
            }
        }

        // Arrival phase: pop this round's arrivals off the front of the
        // queue and classify. Entries for vertices transmitting this
        // round are discarded by the engine — a radio cannot listen
        // while transmitting, and a delayed message is not buffered past
        // its arrival round.
        receptions.clear();
        receptions.extend((0..n).map(|_| Reception::Silence));
        while self.in_flight.front().is_some_and(|c| c.0 == round) {
            let (_, u, from, msg) = self.in_flight.pop_front().expect("front checked");
            receptions[u] = match receptions[u] {
                Reception::Silence => Reception::Message { from, msg },
                _ => Reception::Collision,
            };
        }
    }

    fn name(&self) -> &'static str {
        "mock-net"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::channel::SimChannel;
    use radio_sim::scheduler::{NoExtraEdges, SchedulerBox};

    fn line4() -> DualGraph {
        DualGraph::new(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)]).unwrap()
    }

    fn tx(m: u32) -> Action<u32> {
        Action::Transmit(m)
    }

    fn rx() -> Action<u32> {
        Action::Receive
    }

    #[test]
    fn mock_net_zero_delay_matches_sim_on_reliable_links() {
        let g = line4();
        let mut sim = SimChannel::new(SchedulerBox::Oblivious(Box::new(NoExtraEdges)), 1, 4);
        let mut mock = TransportChannel::new(MockNetTransport::new(
            g.clone(),
            MockNetConfig {
                links: LinkSet::Reliable,
                ..MockNetConfig::default()
            },
            0xFEED,
        ));
        for round in 1..=6 {
            let messages = match round % 3 {
                0 => [Some(1u32), None, Some(2), None],
                1 => [None, Some(3), None, None],
                _ => [Some(4), None, None, Some(5)],
            };
            let transmitting = messages.map(|m| m.is_some());
            let tx_list: Vec<usize> = (0..4).filter(|&v| transmitting[v]).collect();
            let round_tx = Transmissions {
                round,
                graph: &g,
                transmitting: &transmitting,
                tx_list: &tx_list,
                messages: &messages,
            };
            Channel::<u32>::resolve(&mut sim, &round_tx, None);
            mock.resolve(&round_tx, None);
            // Transmitter entries are unspecified; compare listeners, and
            // the message each delivery hands over.
            for u in (0..4).filter(|&u| !transmitting[u]) {
                let heard = Channel::<u32>::heard(&sim, u);
                assert_eq!(heard, mock.heard(u), "round {round}, u {u}");
                if let Heard::From(from) = heard {
                    assert_eq!(
                        sim.deliver(u, from, &messages),
                        mock.deliver(u, from, &messages),
                        "round {round}, u {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn mock_net_delays_delivery_by_the_configured_rounds() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let mut mock = MockNetTransport::new(
            g,
            MockNetConfig {
                links: LinkSet::Reliable,
                delay_rounds: 2,
                ..MockNetConfig::default()
            },
            1,
        );
        let mut out = Vec::new();
        mock.resolve_round(1, &[tx(7), rx()], &mut out);
        assert_eq!(out[1], Reception::Silence, "in flight");
        mock.resolve_round(2, &[rx(), rx()], &mut out);
        assert_eq!(out[1], Reception::Silence, "still in flight");
        mock.resolve_round(3, &[rx(), rx()], &mut out);
        assert_eq!(
            out[1],
            Reception::Message {
                from: NodeId(0),
                msg: 7
            },
            "arrives two rounds after transmission"
        );
    }

    #[test]
    fn mock_net_discards_arrivals_at_a_transmitting_receiver() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let mut mock = MockNetTransport::new(
            g,
            MockNetConfig {
                links: LinkSet::Reliable,
                delay_rounds: 1,
                ..MockNetConfig::default()
            },
            1,
        );
        let mut out = Vec::new();
        mock.resolve_round(1, &[tx(7), rx()], &mut out);
        // Node 1 transmits exactly when node 0's message arrives: lost.
        mock.resolve_round(2, &[rx(), tx(8)], &mut out);
        mock.resolve_round(3, &[rx(), rx()], &mut out);
        assert_eq!(out[1], Reception::Silence, "not buffered past arrival");
    }

    #[test]
    fn partition_window_cuts_crossing_links_only_while_active() {
        let g = DualGraph::reliable_only(3, [(0, 1), (1, 2)]).unwrap();
        let mut mock = MockNetTransport::new(
            g,
            MockNetConfig {
                links: LinkSet::Reliable,
                partitions: vec![PartitionWindow {
                    nodes: vec![0],
                    from: 2,
                    to: 3,
                }],
                ..MockNetConfig::default()
            },
            1,
        );
        let mut out = Vec::new();
        for round in 1..=4 {
            mock.resolve_round(round, &[tx(round as u32), rx(), tx(50)], &mut out);
            let heard = matches!(out[1], Reception::Message { .. } | Reception::Collision);
            if (2..=3).contains(&round) {
                // 0→1 is cut, so only 2's copy arrives: a clean delivery.
                assert_eq!(
                    out[1],
                    Reception::Message {
                        from: NodeId(2),
                        msg: 50
                    },
                    "round {round}: the uncut side still delivers"
                );
            } else {
                assert!(heard, "round {round}");
                assert_eq!(out[1], Reception::Collision, "both sides reach 1");
            }
        }
    }

    #[test]
    fn loss_coins_are_deterministic_and_seed_sensitive() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let run = |seed: u64| {
            let mut mock = MockNetTransport::new(
                g.clone(),
                MockNetConfig {
                    links: LinkSet::Reliable,
                    loss_p: 0.5,
                    ..MockNetConfig::default()
                },
                seed,
            );
            let mut out = Vec::new();
            (1..=64)
                .map(|round| {
                    mock.resolve_round(round, &[tx(round as u32), rx()], &mut out);
                    matches!(out[1], Reception::Message { .. })
                })
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same losses");
        assert_ne!(a, run(8), "loss pattern tracks the seed");
        let delivered = a.iter().filter(|&&d| d).count();
        assert!((10..=54).contains(&delivered), "p = 0.5 loses about half");
    }
}
