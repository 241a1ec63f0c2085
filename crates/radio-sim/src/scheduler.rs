//! Link schedulers: the adversary that picks which unreliable edges exist.
//!
//! Section 2 defines a link scheduler as a sequence `G₁, G₂, …` fixed at
//! the start of the execution, where each `Gₜ` contains all reliable edges
//! plus some subset of `E' \ E`. That sequence is *oblivious*: it cannot
//! react to coin flips. The [`LinkScheduler`] trait enforces this
//! structurally — an implementation sees only the round number and the
//! static graph, so it is necessarily equivalent to a pre-committed
//! sequence.
//!
//! The paper's guarantees are quantified over **all** oblivious schedulers;
//! we cannot iterate over all of them, so this module provides the
//! adversaries the paper's discussion singles out (notably the
//! contention-pumping schedule "constructed with the intent of thwarting"
//! fixed probability schedules, Section 1), plus a family of structural and
//! randomized schedules for coverage.
//!
//! The [`AdaptiveScheduler`] trait models the *stronger* adversary of the
//! authors' earlier work ([11]): it observes the current round's transmit
//! decisions before choosing edges. The paper proves efficient local
//! broadcast progress is **impossible** against such a scheduler; we
//! include a greedy jammer to reproduce that separation empirically
//! (experiment E8).

use crate::graph::{DualGraph, Edge};
use crate::rng::{derive_stream, StreamKind};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The subset of `E' \ E` present in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeSelection {
    /// Every unreliable edge is present (`Gₜ = G'`).
    All,
    /// No unreliable edge is present (`Gₜ = G`).
    None,
    /// Exactly the listed extra edges are present. The list must be
    /// sorted ascending and duplicate-free — membership tests
    /// binary-search it. Schedulers that filter the graph's (sorted)
    /// extra-edge list inherit the order for free; anything else should
    /// go through [`EdgeSelection::subset`].
    Subset(Vec<Edge>),
}

impl EdgeSelection {
    /// Builds a `Subset` selection from an arbitrarily ordered edge
    /// list, sorting and deduplicating it to establish the invariant
    /// [`EdgeSelection::contains`] relies on.
    pub fn subset(mut edges: Vec<Edge>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        EdgeSelection::Subset(edges)
    }

    /// Whether the given extra edge is included by this selection
    /// (binary search on the sorted `Subset` list).
    pub fn contains(&self, e: &Edge) -> bool {
        match self {
            EdgeSelection::All => true,
            EdgeSelection::None => false,
            EdgeSelection::Subset(v) => {
                debug_assert!(
                    v.windows(2).all(|w| w[0] < w[1]),
                    "Subset edges must be sorted and deduplicated"
                );
                v.binary_search(e).is_ok()
            }
        }
    }
}

/// An *oblivious* link scheduler: a function of the round number and the
/// static dual graph only.
///
/// Implementations may keep internal state (e.g. a lazily advanced RNG)
/// but must behave as a function of `(round, graph)`; the provided
/// implementations all do, and the engine's determinism tests rely on it.
pub trait LinkScheduler: Send {
    /// The extra edges present in round `round` (rounds start at 1).
    fn extra_edges(&mut self, round: u64, graph: &DualGraph) -> EdgeSelection;

    /// A short human-readable name for experiment tables.
    fn name(&self) -> &'static str {
        "scheduler"
    }
}

/// An *adaptive* scheduler: sees this round's transmit decisions before
/// picking edges. Strictly stronger than the model's oblivious adversary;
/// used only to reproduce the separation of [11] (experiment E8).
pub trait AdaptiveScheduler: Send {
    /// The extra edges for `round`, given which vertices transmit.
    fn extra_edges(
        &mut self,
        round: u64,
        graph: &DualGraph,
        transmitting: &[bool],
    ) -> EdgeSelection;

    /// A short human-readable name for experiment tables.
    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// Either flavor of scheduler, as the engine consumes it.
pub enum SchedulerBox {
    /// The model's standard oblivious adversary.
    Oblivious(Box<dyn LinkScheduler>),
    /// The stronger adaptive adversary (outside the model; for E8 only).
    Adaptive(Box<dyn AdaptiveScheduler>),
}

impl std::fmt::Debug for SchedulerBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerBox::Oblivious(s) => write!(f, "Oblivious({})", s.name()),
            SchedulerBox::Adaptive(s) => write!(f, "Adaptive({})", s.name()),
        }
    }
}

// ---------------------------------------------------------------------------
// Oblivious schedulers
// ---------------------------------------------------------------------------

/// Includes every unreliable edge in every round; `Gₜ = G'` always.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllExtraEdges;

impl LinkScheduler for AllExtraEdges {
    fn extra_edges(&mut self, _round: u64, _graph: &DualGraph) -> EdgeSelection {
        EdgeSelection::All
    }
    fn name(&self) -> &'static str {
        "all-edges"
    }
}

/// Excludes every unreliable edge in every round; `Gₜ = G` always
/// (the classical reliable radio model).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExtraEdges;

impl LinkScheduler for NoExtraEdges {
    fn extra_edges(&mut self, _round: u64, _graph: &DualGraph) -> EdgeSelection {
        EdgeSelection::None
    }
    fn name(&self) -> &'static str {
        "no-edges"
    }
}

/// Each unreliable edge is present independently with probability `p`,
/// re-drawn per round from a stream keyed by `(seed, round, edge index)` —
/// a randomized but still oblivious schedule.
#[derive(Debug, Clone)]
pub struct BernoulliEdges {
    /// Per-round inclusion probability of each extra edge.
    pub p: f64,
    /// Seed fixing the schedule at "the beginning of the execution".
    pub seed: u64,
}

impl BernoulliEdges {
    /// Creates the scheduler with inclusion probability `p` and seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        BernoulliEdges { p, seed }
    }

    fn round_rng(&self, round: u64) -> ChaCha8Rng {
        derive_stream(self.seed, StreamKind::Scheduler, round)
    }
}

impl LinkScheduler for BernoulliEdges {
    fn extra_edges(&mut self, round: u64, graph: &DualGraph) -> EdgeSelection {
        let mut rng = self.round_rng(round);
        let subset: Vec<Edge> = graph
            .extra_edges()
            .iter()
            .filter(|_| rng.gen_bool(self.p))
            .copied()
            .collect();
        EdgeSelection::Subset(subset)
    }
    fn name(&self) -> &'static str {
        "bernoulli"
    }
}

/// Alternates between `G'` and `G` with a fixed period: all extra edges
/// for `high` rounds, then none for `low` rounds, repeating.
#[derive(Debug, Clone, Copy)]
pub struct AlternatingEdges {
    /// Rounds per cycle with all extra edges present.
    pub high: u64,
    /// Rounds per cycle with no extra edges present.
    pub low: u64,
}

impl AlternatingEdges {
    /// Creates the alternating scheduler.
    ///
    /// # Panics
    ///
    /// Panics if both `high` and `low` are zero.
    pub fn new(high: u64, low: u64) -> Self {
        assert!(high + low > 0, "cycle must be non-empty");
        AlternatingEdges { high, low }
    }
}

impl LinkScheduler for AlternatingEdges {
    fn extra_edges(&mut self, round: u64, _graph: &DualGraph) -> EdgeSelection {
        let pos = (round - 1) % (self.high + self.low);
        if pos < self.high {
            EdgeSelection::All
        } else {
            EdgeSelection::None
        }
    }
    fn name(&self) -> &'static str {
        "alternating"
    }
}

/// The contention pump of Section 1's discussion: an oblivious schedule
/// built to defeat *fixed* geometrically decreasing probability schedules
/// (Decay-style baselines).
///
/// Such baselines cycle deterministically through broadcast probabilities
/// `1/2, 1/4, …, 1/Δ` as a function of the round number alone — so an
/// oblivious scheduler, knowing the cycle, can include **many** unreliable
/// edges exactly when the broadcast probability is high (flooding each
/// receiver with colliding grey-zone senders) and **exclude** them when
/// the probability is low (leaving so few potential senders that silence
/// dominates). The "right" probability for the realized contention never
/// coincides with the schedule.
#[derive(Debug, Clone, Copy)]
pub struct ContentionPump {
    /// Length of the baseline's probability cycle (`log₂ Δ` for Decay).
    pub cycle: u64,
    /// Positions `< knee` in the cycle (high-probability rounds) get all
    /// extra edges; the rest get none.
    pub knee: u64,
    /// Offset aligning the pump with the baseline's cycle start.
    pub phase: u64,
}

impl ContentionPump {
    /// Builds a pump against a Decay baseline with `log₂ Δ = cycle`
    /// probability steps: contention is pumped during the first half of
    /// each cycle (probabilities ≥ `1/2^{cycle/2}`).
    pub fn against_decay(cycle: u64) -> Self {
        assert!(cycle > 0, "cycle must be positive");
        ContentionPump {
            cycle,
            knee: cycle.div_ceil(2),
            phase: 0,
        }
    }
}

impl LinkScheduler for ContentionPump {
    fn extra_edges(&mut self, round: u64, _graph: &DualGraph) -> EdgeSelection {
        let pos = (round - 1 + self.phase) % self.cycle;
        if pos < self.knee {
            EdgeSelection::All
        } else {
            EdgeSelection::None
        }
    }
    fn name(&self) -> &'static str {
        "contention-pump"
    }
}

/// A pump with an explicit per-cycle-position mask: position `i` of each
/// cycle includes all extra edges iff `mask[i]`. This is the fully
/// general fixed-cycle oblivious pump; [`ContentionPump`] is the
/// half-cycle special case. Experiment E7 builds the mask from a Decay
/// baseline's probability ladder and a contention threshold.
#[derive(Debug, Clone)]
pub struct MaskedPump {
    mask: Vec<bool>,
}

impl MaskedPump {
    /// Creates a pump from its per-position inclusion mask.
    ///
    /// # Panics
    ///
    /// Panics on an empty mask.
    pub fn new(mask: Vec<bool>) -> Self {
        assert!(!mask.is_empty(), "pump cycle must be non-empty");
        MaskedPump { mask }
    }

    /// Builds the anti-Decay pump: for a Decay cycle of `log₂ Δ̂` rungs
    /// with probabilities `2^{-1}, …, 2^{-log Δ̂}`, include all extra
    /// edges exactly on the rungs whose probability exceeds
    /// `threshold` — flooding the receiver with grey-zone colliders when
    /// the baseline transmits aggressively, and starving it when the
    /// baseline's probability is too small for its reliable senders to
    /// break through.
    pub fn against_decay_with_threshold(log_delta: u32, threshold: f64) -> Self {
        let mask = (1..=log_delta.max(1))
            .map(|i| 2f64.powi(-(i as i32)) > threshold)
            .collect();
        MaskedPump::new(mask)
    }

    /// The inclusion mask (cycle positions in order).
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }
}

impl LinkScheduler for MaskedPump {
    fn extra_edges(&mut self, round: u64, _graph: &DualGraph) -> EdgeSelection {
        let pos = ((round - 1) % self.mask.len() as u64) as usize;
        if self.mask[pos] {
            EdgeSelection::All
        } else {
            EdgeSelection::None
        }
    }
    fn name(&self) -> &'static str {
        "masked-pump"
    }
}

/// A striped schedule: extra edge with index `j` is present in round `t`
/// iff `(t + j) mod k == 0`. Exercises schedules where different edges
/// flicker out of phase with each other.
#[derive(Debug, Clone, Copy)]
pub struct StripedEdges {
    /// Stripe modulus; each edge is present once every `k` rounds.
    pub k: u64,
}

impl StripedEdges {
    /// Creates a striped scheduler with modulus `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "stripe modulus must be at least 1");
        StripedEdges { k }
    }
}

impl LinkScheduler for StripedEdges {
    fn extra_edges(&mut self, round: u64, graph: &DualGraph) -> EdgeSelection {
        let subset = graph
            .extra_edges()
            .iter()
            .enumerate()
            .filter(|(j, _)| (round + *j as u64).is_multiple_of(self.k))
            .map(|(_, e)| *e)
            .collect();
        EdgeSelection::Subset(subset)
    }
    fn name(&self) -> &'static str {
        "striped"
    }
}

/// Round-robin edges: in round `t`, exactly the extra edges with index
/// `≡ t (mod k)` are present, rotating through the unreliable fringe one
/// slice at a time — a nod to Clementi et al.'s result that round-robin
/// scheduling is optimal for fault-tolerant broadcast.
#[derive(Debug, Clone, Copy)]
pub struct RoundRobinEdges {
    /// Number of slices the extra edge set is divided into.
    pub k: u64,
}

impl RoundRobinEdges {
    /// Creates a round-robin scheduler with `k ≥ 1` slices.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "need at least one slice");
        RoundRobinEdges { k }
    }
}

impl LinkScheduler for RoundRobinEdges {
    fn extra_edges(&mut self, round: u64, graph: &DualGraph) -> EdgeSelection {
        let slice = round % self.k;
        let subset = graph
            .extra_edges()
            .iter()
            .enumerate()
            .filter(|(j, _)| (*j as u64) % self.k == slice)
            .map(|(_, e)| *e)
            .collect();
        EdgeSelection::Subset(subset)
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Epoch-random edges: a fresh random subset is drawn once per
/// `epoch`-round block and held constant within the block — slowly
/// flapping links, as opposed to [`BernoulliEdges`]' per-round churn.
///
/// Block `k`'s subset is a function of `(seed, k, graph)` alone: one
/// coin per extra edge, in edge order, from the block's own stream. The
/// scheduler keeps the block it drew last and replays it while rounds
/// stay in that block over the same graph, so the coins are flipped
/// once per block rather than once per round.
#[derive(Debug, Clone)]
pub struct EpochRandomEdges {
    /// Rounds per epoch.
    pub epoch: u64,
    /// Per-epoch inclusion probability of each extra edge.
    pub p: f64,
    /// Seed fixing the whole schedule up front.
    pub seed: u64,
    /// The last drawn block: its index, the graph it was drawn over
    /// (held, so that graph's storage cannot be freed and reused by
    /// another), and its subset.
    current: Option<(u64, DualGraph, Vec<Edge>)>,
}

impl EpochRandomEdges {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics unless `epoch ≥ 1` and `0 ≤ p ≤ 1`.
    pub fn new(epoch: u64, p: f64, seed: u64) -> Self {
        assert!(epoch >= 1, "epoch must be at least one round");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        EpochRandomEdges {
            epoch,
            p,
            seed,
            current: None,
        }
    }
}

impl LinkScheduler for EpochRandomEdges {
    fn extra_edges(&mut self, round: u64, graph: &DualGraph) -> EdgeSelection {
        let epoch_index = (round - 1) / self.epoch;
        if let Some((index, drawn_over, subset)) = &self.current {
            if *index == epoch_index && drawn_over.shares_storage(graph) {
                return EdgeSelection::Subset(subset.clone());
            }
        }
        let mut rng = derive_stream(self.seed, StreamKind::Scheduler, epoch_index);
        let subset: Vec<Edge> = graph
            .extra_edges()
            .iter()
            .filter(|_| rng.gen_bool(self.p))
            .copied()
            .collect();
        self.current = Some((epoch_index, graph.clone(), subset.clone()));
        EdgeSelection::Subset(subset)
    }
    fn name(&self) -> &'static str {
        "epoch-random"
    }
}

/// The standard library of oblivious adversaries, used by tests and
/// experiments that sweep "∀ scheduler" claims over a concrete family.
pub fn oblivious_family(seed: u64) -> Vec<Box<dyn LinkScheduler>> {
    vec![
        Box::new(AllExtraEdges),
        Box::new(NoExtraEdges),
        Box::new(BernoulliEdges::new(0.5, seed)),
        Box::new(BernoulliEdges::new(0.1, seed ^ 0xD1CE)),
        Box::new(AlternatingEdges::new(3, 5)),
        Box::new(ContentionPump::against_decay(8)),
        Box::new(StripedEdges::new(4)),
        Box::new(RoundRobinEdges::new(3)),
        Box::new(EpochRandomEdges::new(16, 0.5, seed ^ 0xEB0C)),
    ]
}

// ---------------------------------------------------------------------------
// Adaptive scheduler (outside the model; for the E8 separation)
// ---------------------------------------------------------------------------

/// A greedy adaptive jammer. For each listening vertex `u` that would
/// otherwise receive a message (exactly one reliable transmitting
/// neighbor), it includes an extra edge from `u` to some other transmitter
/// when one exists, manufacturing a collision. It never includes an edge
/// that would *create* a sole transmitter at a silent listener.
///
/// This reproduces the adversary style under which [11] proves efficient
/// progress impossible.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyJammer;

impl AdaptiveScheduler for GreedyJammer {
    fn extra_edges(
        &mut self,
        _round: u64,
        graph: &DualGraph,
        transmitting: &[bool],
    ) -> EdgeSelection {
        let mut chosen = Vec::new();
        for u in graph.vertices() {
            if transmitting[u.0] {
                continue;
            }
            let reliable_tx = graph
                .reliable_neighbors(u)
                .iter()
                .filter(|v| transmitting[v.0])
                .count();
            if reliable_tx == 1 {
                // Find any extra-edge neighbor that transmits; one edge
                // suffices to collide u's reception.
                if let Some(v) = graph
                    .extra_neighbors(u)
                    .iter()
                    .find(|v| transmitting[v.0])
                {
                    chosen.push(Edge::new(u, *v));
                }
            } else if reliable_tx == 0 {
                // Adding >= 2 transmitting extra neighbors keeps u deaf
                // while burning the senders' rounds.
                let txs: Vec<_> = graph
                    .extra_neighbors(u)
                    .iter()
                    .filter(|v| transmitting[v.0])
                    .take(2)
                    .collect();
                if txs.len() == 2 {
                    for v in txs {
                        chosen.push(Edge::new(u, *v));
                    }
                }
            }
        }
        EdgeSelection::subset(chosen)
    }
    fn name(&self) -> &'static str {
        "greedy-jammer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    fn grey_triangle() -> DualGraph {
        DualGraph::new(3, [(0, 1)], [(0, 2), (1, 2)]).unwrap()
    }

    #[test]
    fn all_and_none_are_constant() {
        let g = grey_triangle();
        assert_eq!(AllExtraEdges.extra_edges(1, &g), EdgeSelection::All);
        assert_eq!(NoExtraEdges.extra_edges(9, &g), EdgeSelection::None);
    }

    #[test]
    fn bernoulli_is_deterministic_per_round() {
        let g = grey_triangle();
        let mut s1 = BernoulliEdges::new(0.5, 7);
        let mut s2 = BernoulliEdges::new(0.5, 7);
        for t in 1..=20 {
            assert_eq!(s1.extra_edges(t, &g), s2.extra_edges(t, &g));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let g = grey_triangle();
        let mut zero = BernoulliEdges::new(0.0, 1);
        let mut one = BernoulliEdges::new(1.0, 1);
        match zero.extra_edges(1, &g) {
            EdgeSelection::Subset(v) => assert!(v.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match one.extra_edges(1, &g) {
            EdgeSelection::Subset(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alternating_cycles() {
        let g = grey_triangle();
        let mut s = AlternatingEdges::new(2, 1);
        assert_eq!(s.extra_edges(1, &g), EdgeSelection::All);
        assert_eq!(s.extra_edges(2, &g), EdgeSelection::All);
        assert_eq!(s.extra_edges(3, &g), EdgeSelection::None);
        assert_eq!(s.extra_edges(4, &g), EdgeSelection::All);
    }

    #[test]
    fn pump_tracks_decay_cycle() {
        let g = grey_triangle();
        let mut s = ContentionPump::against_decay(4);
        // knee = 2: rounds 1,2 high; 3,4 low; then repeat.
        assert_eq!(s.extra_edges(1, &g), EdgeSelection::All);
        assert_eq!(s.extra_edges(2, &g), EdgeSelection::All);
        assert_eq!(s.extra_edges(3, &g), EdgeSelection::None);
        assert_eq!(s.extra_edges(4, &g), EdgeSelection::None);
        assert_eq!(s.extra_edges(5, &g), EdgeSelection::All);
    }

    #[test]
    fn masked_pump_follows_mask() {
        let g = grey_triangle();
        let mut s = MaskedPump::new(vec![true, false, false]);
        assert_eq!(s.extra_edges(1, &g), EdgeSelection::All);
        assert_eq!(s.extra_edges(2, &g), EdgeSelection::None);
        assert_eq!(s.extra_edges(3, &g), EdgeSelection::None);
        assert_eq!(s.extra_edges(4, &g), EdgeSelection::All);
    }

    #[test]
    fn anti_decay_mask_tracks_threshold() {
        // log_delta = 4: probs 1/2, 1/4, 1/8, 1/16; threshold 1/8 keeps
        // the first two rungs pumped.
        let s = MaskedPump::against_decay_with_threshold(4, 0.125);
        assert_eq!(s.mask(), &[true, true, false, false]);
    }

    #[test]
    fn striped_spreads_edges() {
        let g = grey_triangle();
        let mut s = StripedEdges::new(2);
        let sel1 = s.extra_edges(1, &g);
        let sel2 = s.extra_edges(2, &g);
        // The two extra edges appear in different rounds.
        assert_ne!(sel1, sel2);
    }

    #[test]
    fn round_robin_covers_all_edges_over_k_rounds() {
        let g = grey_triangle(); // two extra edges
        let mut s = RoundRobinEdges::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for t in 1..=2 {
            if let EdgeSelection::Subset(edges) = s.extra_edges(t, &g) {
                seen.extend(edges);
            }
        }
        assert_eq!(seen.len(), 2, "every edge appears within one rotation");
    }

    #[test]
    fn epoch_random_is_constant_within_epoch() {
        let g = grey_triangle();
        let mut s = EpochRandomEdges::new(5, 0.5, 3);
        let first = s.extra_edges(1, &g);
        for t in 2..=5 {
            assert_eq!(s.extra_edges(t, &g), first);
        }
        // A later epoch eventually differs (probabilistic, but with two
        // edges and many epochs a change is practically certain).
        let changed = (6..=200).any(|t| s.extra_edges(t, &g) != first);
        assert!(changed);
    }

    #[test]
    fn jammer_collides_sole_reliable_sender() {
        // 0-1 reliable; 1-2 extra. If 0 and 2 transmit, 1 would receive
        // from 0; jammer must include edge (1,2) to collide.
        let g = DualGraph::new(3, [(0, 1)], [(1, 2)]).unwrap();
        let mut j = GreedyJammer;
        let sel = j.extra_edges(1, &g, &[true, false, true]);
        assert!(sel.contains(&Edge::new(NodeId(1), NodeId(2))));
    }

    #[test]
    fn jammer_never_creates_sole_sender() {
        // 1 has no reliable transmitting neighbor and exactly one
        // transmitting extra neighbor: including the edge would deliver a
        // message, so the jammer must not include it.
        let g = DualGraph::new(3, [], [(1, 2)]).unwrap();
        let mut j = GreedyJammer;
        let sel = j.extra_edges(1, &g, &[false, false, true]);
        assert!(!sel.contains(&Edge::new(NodeId(1), NodeId(2))));
    }

    #[test]
    fn subset_constructor_sorts_and_dedups() {
        let e01 = Edge::new(NodeId(0), NodeId(1));
        let e12 = Edge::new(NodeId(1), NodeId(2));
        let e23 = Edge::new(NodeId(2), NodeId(3));
        let sel = EdgeSelection::subset(vec![e23, e01, e23, e12]);
        assert_eq!(sel, EdgeSelection::Subset(vec![e01, e12, e23]));
        assert!(sel.contains(&e01) && sel.contains(&e12) && sel.contains(&e23));
        assert!(!sel.contains(&Edge::new(NodeId(0), NodeId(3))));
    }

    #[test]
    fn contains_binary_search_matches_linear_scan() {
        // Every per-round Subset a scheduler emits stays sorted, so
        // `contains` may binary-search; cross-check against a linear
        // scan over a bigger fringe.
        let n = 40;
        let extra: Vec<(usize, usize)> = (0..n - 2).map(|i| (i, i + 2)).collect();
        let g = DualGraph::new(n, (0..n - 1).map(|i| (i, i + 1)), extra).unwrap();
        let mut sched = BernoulliEdges::new(0.5, 77);
        for round in 1..=8 {
            let sel = sched.extra_edges(round, &g);
            let EdgeSelection::Subset(chosen) = &sel else {
                panic!("bernoulli always returns a subset");
            };
            for e in g.extra_edges() {
                assert_eq!(sel.contains(e), chosen.iter().any(|c| c == e));
            }
        }
    }

    #[test]
    fn family_is_nonempty_and_named() {
        for s in oblivious_family(3) {
            assert!(!s.name().is_empty());
        }
    }
}
