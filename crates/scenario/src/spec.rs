//! The declarative scenario description: serde types and validation.
//!
//! A [`Scenario`] is a complete, self-contained description of a
//! simulation campaign — topology family, dual-graph adversary schedule,
//! fault plan, workload, stop condition, and seeding — expressible as a
//! JSON file. Everything the runner does is a pure function of the
//! scenario value, so campaigns are shareable, diffable, and replayable.
//!
//! Construction goes through [`ScenarioBuilder`] (or JSON via
//! [`Scenario::from_json`]); both validate the description before any
//! simulation runs, so a `Scenario` accepted by the runner never panics
//! inside a topology generator or the engine's fault-plan check.

use local_broadcast::LbConfig;
use radio_sim::fault::FaultPlan;
use radio_sim::geometry::{Embedding, Point};
use radio_sim::graph::NodeId;
use radio_sim::scheduler::{self, AdaptiveScheduler, DutyCycleEdges, LinkScheduler};
use radio_sim::topology::{self, RggParams, Topology};
use seed_agreement::SeedConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from scenario validation and JSON loading.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The JSON could not be parsed into a [`Scenario`].
    Parse(String),
    /// A field failed validation; the string names field and constraint.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "cannot parse scenario: {e}"),
            ScenarioError::Invalid(e) => write!(f, "invalid scenario: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

/// A topology family plus its parameters, mirroring the generators in
/// [`radio_sim::topology`] (and the E7 pump arena from the experiment
/// suite) as plain data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// `n` nodes on a line, `spacing` apart; grey-zone pairs unreliable.
    Line {
        /// Node count.
        n: usize,
        /// Distance between adjacent nodes.
        spacing: f64,
        /// Geographic parameter `r ≥ 1`.
        r: f64,
    },
    /// `n` nodes on a circle of circumference `n · spacing`.
    Ring {
        /// Node count (≥ 3).
        n: usize,
        /// Arc distance between adjacent nodes.
        spacing: f64,
        /// Geographic parameter `r ≥ 1`.
        r: f64,
    },
    /// A `rows × cols` grid with the given spacing.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Distance between adjacent grid points.
        spacing: f64,
        /// Geographic parameter `r ≥ 1`.
        r: f64,
    },
    /// `n` nodes packed in a disc of diameter < 1: a reliable clique.
    Clique {
        /// Node count.
        n: usize,
        /// Geographic parameter `r ≥ 1`.
        r: f64,
    },
    /// The grey-zone sandwich: receiver + reliable senders + a ring of
    /// grey (unreliable-only) senders.
    GreySandwich {
        /// Reliable senders within distance 1 of the receiver.
        reliable: usize,
        /// Grey senders in the annulus `(1, r]`.
        grey: usize,
        /// Geographic parameter `r > 1`.
        r: f64,
    },
    /// The E7 arena: a grey sandwich plus a remote clique inflating the
    /// global degree bound Δ (stretching Decay's probability ladder).
    PumpArena {
        /// Reliable senders near the receiver.
        reliable: usize,
        /// Grey senders on the unreliable ring.
        grey: usize,
    },
    /// Dense core clique with a sparse grey-zone periphery ring.
    TwoTier {
        /// Core clique size.
        core: usize,
        /// Periphery node count.
        periphery: usize,
        /// Periphery ring radius, in `(1, r]`.
        ring_radius: f64,
        /// Geographic parameter.
        r: f64,
    },
    /// Clusters of tightly packed nodes bridged by grey-zone links.
    Clustered {
        /// Number of clusters.
        clusters: usize,
        /// Nodes per cluster.
        cluster_size: usize,
        /// Distance between adjacent cluster centers.
        spacing: f64,
        /// Cluster radius.
        spread: f64,
        /// Geographic parameter.
        r: f64,
        /// Placement seed.
        seed: u64,
    },
    /// Uniformly random placement in a `side × side` square.
    RandomGeometric {
        /// Node count.
        n: usize,
        /// Deployment square side length.
        side: f64,
        /// Geographic parameter.
        r: f64,
        /// Probability a grey-zone pair becomes reliable.
        grey_reliable_p: f64,
        /// Probability a (non-reliable) grey-zone pair becomes unreliable.
        grey_unreliable_p: f64,
        /// Placement and wiring seed.
        seed: u64,
    },
    /// Constant-density deployment whose area grows with `n` (E9).
    ConstantDensity {
        /// Node count.
        n: usize,
        /// Expected nodes per unit disc.
        density: f64,
        /// Geographic parameter.
        r: f64,
        /// Placement seed.
        seed: u64,
    },
}

/// Most vertices a topology may have: 20x the largest registered
/// deployment (the 50k-node `scale-curve` points), so a typo cannot
/// request a graph that exhausts memory.
pub const MAX_TOPOLOGY_NODES: usize = 1_000_000;

/// Most `G'` edges a topology's parameters may imply (see
/// [`TopologySpec::implied_edges`]): 20x the largest registered
/// deployment. The graph stores every edge in several adjacency arrays,
/// so this bounds its memory to well under a gigabyte.
pub const MAX_TOPOLOGY_EDGES: f64 = 10_000_000.0;

/// `Σ_{d=1..k} (c − d)`: pairs at index offsets `1..=k` along a row of
/// `c` points.
fn offset_pairs(k: f64, c: f64) -> f64 {
    k * c - k * (k + 1.0) / 2.0
}

impl TopologySpec {
    /// The vertex count the built topology will have (saturating, so an
    /// absurd spec reports `usize::MAX` instead of overflowing).
    pub fn node_count(&self) -> usize {
        match self {
            TopologySpec::Line { n, .. }
            | TopologySpec::Ring { n, .. }
            | TopologySpec::Clique { n, .. }
            | TopologySpec::RandomGeometric { n, .. }
            | TopologySpec::ConstantDensity { n, .. } => *n,
            TopologySpec::Grid { rows, cols, .. } => rows.saturating_mul(*cols),
            TopologySpec::GreySandwich { reliable, grey, .. } => {
                reliable.saturating_add(*grey).saturating_add(1)
            }
            TopologySpec::PumpArena { reliable, grey } => reliable
                .saturating_add(*grey)
                .saturating_add((*grey).max(4))
                .saturating_add(1),
            TopologySpec::TwoTier {
                core, periphery, ..
            } => core.saturating_add(*periphery),
            TopologySpec::Clustered {
                clusters,
                cluster_size,
                ..
            } => clusters.saturating_mul(*cluster_size),
        }
    }

    /// The number of `G'` edges the parameters imply, without building
    /// the graph: exact for the line, ring, grid and clique; for the
    /// other fixed arenas (grey sandwich, pump arena, two-tier) every
    /// pair; for clusters every pair in clusters close enough to link;
    /// and the expectation for the random-geometric families (ignoring
    /// edge effects, so slightly high). Exact counts can be off by one
    /// offset where a distance ties `r` in floating point.
    pub fn implied_edges(&self) -> f64 {
        let n = self.node_count() as f64;
        let all_pairs = n * (n - 1.0) / 2.0;
        // Probability that two uniform points in a square of the given
        // side lie within distance `d` (boundary effects ignored).
        let within = |d: f64, side: f64| (std::f64::consts::PI * d * d / (side * side)).min(1.0);
        match *self {
            TopologySpec::Line { spacing, r, .. } => {
                offset_pairs((r / spacing).floor().min(n - 1.0), n)
            }
            TopologySpec::Ring { spacing, r, .. } => {
                // Chord of index offset k: 2R·sin(πk/n), increasing in
                // k up to n/2.
                let radius = n * spacing / (2.0 * std::f64::consts::PI);
                if r >= 2.0 * radius {
                    return all_pairs;
                }
                let k = (n / std::f64::consts::PI * (r / (2.0 * radius)).asin())
                    .floor()
                    .min((n / 2.0).floor());
                if 2.0 * k == n {
                    all_pairs
                } else {
                    n * k
                }
            }
            TopologySpec::Grid {
                rows,
                cols,
                spacing,
                r,
            } => {
                let (rows, cols, reach) = (rows as f64, cols as f64, r / spacing);
                let row_pairs = |dy: f64| (reach * reach - dy * dy).sqrt().floor().min(cols - 1.0);
                let mut edges = rows * offset_pairs(row_pairs(0.0), cols);
                let mut dy = 1.0;
                while dy <= reach.min(rows - 1.0) {
                    edges += (rows - dy) * (cols + 2.0 * offset_pairs(row_pairs(dy), cols));
                    dy += 1.0;
                }
                edges
            }
            TopologySpec::Clique { .. }
            | TopologySpec::GreySandwich { .. }
            | TopologySpec::PumpArena { .. }
            | TopologySpec::TwoTier { .. } => all_pairs,
            TopologySpec::Clustered {
                clusters,
                cluster_size,
                spacing,
                spread,
                r,
                ..
            } => {
                // Points sit within `spread` of their center along x, so
                // clusters more than `r + 2·spread` apart never link.
                let (c, size) = (clusters as f64, cluster_size as f64);
                let linked = ((r + 2.0 * spread) / spacing).floor().min(c - 1.0);
                c * size * (size - 1.0) / 2.0 + size * size * offset_pairs(linked, c)
            }
            TopologySpec::RandomGeometric {
                side,
                r,
                grey_reliable_p,
                grey_unreliable_p,
                ..
            } => {
                let grey = within(r, side) - within(1.0, side);
                let wired = grey_reliable_p + (1.0 - grey_reliable_p) * grey_unreliable_p;
                all_pairs * (within(1.0, side) + grey * wired)
            }
            TopologySpec::ConstantDensity { density, r, .. } => {
                all_pairs * within(r, topology::constant_density_side(self.node_count(), density))
            }
        }
    }

    /// Checks the parameters the generators would otherwise `assert!` on.
    fn validate(&self) -> Result<(), ScenarioError> {
        let check_r = |r: f64| {
            if r >= 1.0 && r.is_finite() {
                Ok(())
            } else {
                Err(invalid(format!("topology: r must be >= 1, got {r}")))
            }
        };
        let check_spacing = |s: f64| {
            if s > 0.0 && s.is_finite() {
                Ok(())
            } else {
                Err(invalid(format!("topology: spacing must be > 0, got {s}")))
            }
        };
        let n = self.node_count();
        if n == 0 {
            return Err(invalid("topology: node count must be >= 1"));
        }
        if n > MAX_TOPOLOGY_NODES {
            return Err(invalid(format!(
                "topology: node count must be <= {MAX_TOPOLOGY_NODES}, got {n}"
            )));
        }
        let params = match *self {
            TopologySpec::Line { spacing, r, .. } | TopologySpec::Grid { spacing, r, .. } => {
                check_spacing(spacing)?;
                check_r(r)
            }
            TopologySpec::Ring { n, spacing, r } => {
                if n < 3 {
                    return Err(invalid("topology: a ring needs at least 3 nodes"));
                }
                check_spacing(spacing)?;
                check_r(r)
            }
            TopologySpec::Clique { r, .. } => check_r(r),
            TopologySpec::GreySandwich { r, .. } => {
                if r <= 1.0 {
                    return Err(invalid("topology: grey sandwich needs r > 1"));
                }
                check_r(r)
            }
            TopologySpec::PumpArena { .. } => Ok(()),
            TopologySpec::TwoTier { ring_radius, r, .. } => {
                check_r(r)?;
                if ring_radius > 1.0 && ring_radius <= r {
                    Ok(())
                } else {
                    Err(invalid(format!(
                        "topology: two-tier ring radius must lie in (1, r], got {ring_radius}"
                    )))
                }
            }
            TopologySpec::Clustered {
                spacing, spread, r, ..
            } => {
                check_spacing(spacing)?;
                if spread <= 0.0 || !spread.is_finite() {
                    return Err(invalid("topology: cluster spread must be > 0"));
                }
                check_r(r)
            }
            TopologySpec::RandomGeometric {
                side,
                r,
                grey_reliable_p,
                grey_unreliable_p,
                ..
            } => {
                check_spacing(side)?;
                check_r(r)?;
                for p in [grey_reliable_p, grey_unreliable_p] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(invalid(format!(
                            "topology: grey wiring probability must be in [0, 1], got {p}"
                        )));
                    }
                }
                Ok(())
            }
            TopologySpec::ConstantDensity { density, r, .. } => {
                if density <= 0.0 || !density.is_finite() {
                    return Err(invalid("topology: density must be > 0"));
                }
                check_r(r)
            }
        };
        params?;
        let edges = self.implied_edges();
        if edges > MAX_TOPOLOGY_EDGES {
            return Err(invalid(format!(
                "topology: the parameters imply {edges:.3e} G' edges, more than \
                 the cap of {MAX_TOPOLOGY_EDGES:.0}"
            )));
        }
        Ok(())
    }

    /// Builds the topology. Call only on a validated spec.
    pub fn build(&self) -> Topology {
        match *self {
            TopologySpec::Line { n, spacing, r } => topology::line(n, spacing, r),
            TopologySpec::Ring { n, spacing, r } => topology::ring(n, spacing, r),
            TopologySpec::Grid {
                rows,
                cols,
                spacing,
                r,
            } => topology::grid(rows, cols, spacing, r),
            TopologySpec::Clique { n, r } => topology::clique(n, r),
            TopologySpec::GreySandwich { reliable, grey, r } => {
                topology::grey_sandwich(reliable, grey, r)
            }
            TopologySpec::PumpArena { reliable, grey } => topology::pump_arena(reliable, grey),
            TopologySpec::TwoTier {
                core,
                periphery,
                ring_radius,
                r,
            } => topology::two_tier(core, periphery, ring_radius, r),
            TopologySpec::Clustered {
                clusters,
                cluster_size,
                spacing,
                spread,
                r,
                seed,
            } => topology::clustered(topology::ClusterParams {
                clusters,
                cluster_size,
                spacing,
                spread,
                r,
                seed,
            }),
            TopologySpec::RandomGeometric { .. } | TopologySpec::ConstantDensity { .. } => {
                topology::random_geometric(self.arena().expect("an arena family"))
            }
        }
    }

    /// The random-geometric deployment of the arena families
    /// (`RandomGeometric` and `ConstantDensity`); `None` for every other
    /// family. The static build and every mobility epoch deploy from it.
    pub fn arena(&self) -> Option<RggParams> {
        match *self {
            TopologySpec::RandomGeometric {
                n,
                side,
                r,
                grey_reliable_p,
                grey_unreliable_p,
                seed,
            } => Some(RggParams {
                n,
                side,
                r,
                grey_reliable_p,
                grey_unreliable_p,
                seed,
            }),
            TopologySpec::ConstantDensity { n, density, r, seed } => {
                Some(RggParams::constant_density(n, density, r, seed))
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Adversary (link scheduler)
// ---------------------------------------------------------------------------

/// The dual-graph adversary schedule, mirroring the scheduler library.
///
/// Randomized schedules (`Bernoulli`, `EpochRandom`) derive their seed
/// from each trial's master seed, so Monte-Carlo trials see independent
/// schedules — exactly how the experiment suite uses them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdversarySpec {
    /// Every unreliable edge present every round (`Gₜ = G'`).
    AllExtraEdges,
    /// No unreliable edge ever present (`Gₜ = G`).
    NoExtraEdges,
    /// Each extra edge present independently with probability `p` per
    /// round.
    Bernoulli {
        /// Per-round inclusion probability.
        p: f64,
    },
    /// All extra edges for `high` rounds, none for `low`, repeating.
    /// `ContentionPump` and `MaskedPumpAgainstDecay` are this same duty
    /// cycle with derived lengths.
    Alternating {
        /// Rounds per cycle with all extra edges.
        high: u64,
        /// Rounds per cycle with none.
        low: u64,
    },
    /// The §1 contention pump against a Decay cycle of the given length:
    /// the duty cycle `Alternating { ⌈C/2⌉, ⌊C/2⌋ }`.
    ContentionPump {
        /// Baseline probability-cycle length (`log₂ Δ̂`).
        cycle: u64,
    },
    /// The anti-Decay pump: flood the rungs whose transmit probability
    /// exceeds `threshold`, starve the rest. The ladder only falls, so
    /// the flooded rungs lead each `log_delta`-round cycle.
    MaskedPumpAgainstDecay {
        /// Decay ladder length (`log₂ Δ̂`).
        log_delta: u32,
        /// Contention threshold selecting the flooded rungs.
        threshold: f64,
    },
    /// Edge `j` present in round `t` iff `(t + j) mod k == 0`.
    Striped {
        /// Stripe modulus.
        k: u64,
    },
    /// Round-robin rotation through `k` slices of the extra edges.
    RoundRobin {
        /// Slice count.
        k: u64,
    },
    /// A fresh random subset held constant for `epoch` rounds at a time.
    EpochRandom {
        /// Rounds per epoch.
        epoch: u64,
        /// Per-epoch inclusion probability.
        p: f64,
    },
    /// The adaptive greedy jammer — outside the paper's model; reproduces
    /// the oblivious/adaptive separation (E8).
    GreedyJammer,
}

impl AdversarySpec {
    /// Whether this is the adaptive (outside-the-model) adversary.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, AdversarySpec::GreedyJammer)
    }

    /// A short name for report tables.
    pub fn name(&self) -> &'static str {
        match self {
            AdversarySpec::AllExtraEdges => "all-edges",
            AdversarySpec::NoExtraEdges => "no-edges",
            AdversarySpec::Bernoulli { .. } => "bernoulli",
            AdversarySpec::Alternating { .. } => "alternating",
            AdversarySpec::ContentionPump { .. } => "contention-pump",
            AdversarySpec::MaskedPumpAgainstDecay { .. } => "masked-pump",
            AdversarySpec::Striped { .. } => "striped",
            AdversarySpec::RoundRobin { .. } => "round-robin",
            AdversarySpec::EpochRandom { .. } => "epoch-random",
            AdversarySpec::GreedyJammer => "greedy-jammer",
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        match *self {
            AdversarySpec::Bernoulli { p } | AdversarySpec::EpochRandom { p, .. }
                if !(0.0..=1.0).contains(&p) =>
            {
                Err(invalid(format!(
                    "adversary: inclusion probability must be in [0, 1], got {p}"
                )))
            }
            AdversarySpec::EpochRandom { epoch: 0, .. } => {
                Err(invalid("adversary: epoch must be >= 1"))
            }
            AdversarySpec::Alternating { high: 0, low: 0 } => {
                Err(invalid("adversary: alternating cycle must be non-empty"))
            }
            AdversarySpec::Alternating { high, low } if high.checked_add(low).is_none() => {
                Err(invalid(format!(
                    "adversary: alternating cycle high + low overflows u64 ({high} + {low})"
                )))
            }
            AdversarySpec::ContentionPump { cycle: 0 } => {
                Err(invalid("adversary: pump cycle must be >= 1"))
            }
            AdversarySpec::MaskedPumpAgainstDecay {
                log_delta,
                threshold,
            } => {
                if log_delta == 0 || log_delta > MAX_PUMP_LOG_DELTA {
                    Err(invalid(format!(
                        "adversary: log_delta must be in [1, {MAX_PUMP_LOG_DELTA}], got {log_delta}"
                    )))
                } else if !(0.0..=1.0).contains(&threshold) {
                    Err(invalid(format!(
                        "adversary: pump threshold must be in [0, 1], got {threshold}"
                    )))
                } else {
                    Ok(())
                }
            }
            AdversarySpec::Striped { k: 0 } | AdversarySpec::RoundRobin { k: 0 } => {
                Err(invalid("adversary: modulus must be >= 1"))
            }
            _ => Ok(()),
        }
    }

    /// Builds the oblivious scheduler for one trial. `None` for the
    /// adaptive adversary (see [`AdversarySpec::build_adaptive`]).
    pub fn build_oblivious(&self, master_seed: u64) -> Option<Box<dyn LinkScheduler>> {
        match *self {
            AdversarySpec::AllExtraEdges => Some(Box::new(scheduler::AllExtraEdges)),
            AdversarySpec::NoExtraEdges => Some(Box::new(scheduler::NoExtraEdges)),
            AdversarySpec::Bernoulli { p } => {
                Some(Box::new(scheduler::BernoulliEdges::new(p, master_seed)))
            }
            AdversarySpec::Alternating { high, low } => {
                Some(Box::new(DutyCycleEdges::alternating(high, low)))
            }
            AdversarySpec::ContentionPump { cycle } => {
                Some(Box::new(DutyCycleEdges::against_decay(cycle)))
            }
            AdversarySpec::MaskedPumpAgainstDecay {
                log_delta,
                threshold,
            } => Some(Box::new(DutyCycleEdges::against_decay_with_threshold(
                log_delta, threshold,
            ))),
            AdversarySpec::Striped { k } => Some(Box::new(scheduler::StripedEdges::new(k))),
            AdversarySpec::RoundRobin { k } => {
                Some(Box::new(scheduler::RoundRobinEdges::new(k)))
            }
            AdversarySpec::EpochRandom { epoch, p } => Some(Box::new(
                scheduler::EpochRandomEdges::new(epoch, p, master_seed ^ 0xEB0C),
            )),
            AdversarySpec::GreedyJammer => None,
        }
    }

    /// Builds the adaptive scheduler, when this spec names one.
    pub fn build_adaptive(&self) -> Option<Box<dyn AdaptiveScheduler>> {
        match self {
            AdversarySpec::GreedyJammer => Some(Box::new(scheduler::GreedyJammer)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// A set of nodes, either listed explicitly or described geometrically
/// against the topology's embedding (e.g. "everything within 1 unit of
/// the arena center").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RegionSpec {
    /// An explicit vertex list.
    Nodes {
        /// The vertex indices.
        nodes: Vec<usize>,
    },
    /// All vertices within `radius` of `(x, y)` in the embedding.
    Disc {
        /// Disc center x.
        x: f64,
        /// Disc center y.
        y: f64,
        /// Disc radius.
        radius: f64,
    },
}

/// A crash/recover entry in the scenario's fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// The affected vertex.
    pub node: usize,
    /// First round (1-based) the node is down.
    pub down_from: u64,
    /// First round it is back up; `None` = never.
    pub up_at: Option<u64>,
    /// Recovery semantics: `false` (the default, so scenario files
    /// written before this field existed keep their behavior) is
    /// power-save churn — the process state survives the outage.
    /// `true` is a true crash-restart: the process loses its volatile
    /// memory on recovery (see
    /// [`radio_sim::fault::Crash::restart`]).
    #[serde(default)]
    pub restart: bool,
}

/// Serde predicate: omit zero-valued velocity components so scenario
/// files and search archives written before moving jams existed stay
/// byte-identical when re-serialized.
fn f64_is_zero(v: &f64) -> bool {
    *v == 0.0
}

/// A jamming window over a region.
///
/// A nonzero velocity turns a `Disc` region into a **moving jammer**:
/// the disc center starts at `(x, y)` when the window opens and drifts
/// by `(vx, vy)` per round. Moving jams require node mobility on the
/// scenario (the per-epoch geometry machinery resolves the disc against
/// each epoch's embedding) and compile to one static jam window per
/// overlapped epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JamSpec {
    /// The jammed region.
    pub region: RegionSpec,
    /// First jammed round (inclusive).
    pub from: u64,
    /// Last jammed round (inclusive).
    pub to: u64,
    /// Disc-center x velocity in arena units per round (0 = parked).
    #[serde(default, skip_serializing_if = "f64_is_zero")]
    pub vx: f64,
    /// Disc-center y velocity in arena units per round (0 = parked).
    #[serde(default, skip_serializing_if = "f64_is_zero")]
    pub vy: f64,
}

impl JamSpec {
    /// Whether the jam region moves (any nonzero or non-finite velocity
    /// component — NaN counts as moving so validation rejects it).
    pub fn is_moving(&self) -> bool {
        self.vx != 0.0 || self.vy != 0.0 || !self.vx.is_finite() || !self.vy.is_finite()
    }

    /// The disc center at round `t` (≥ `from`), for a `Disc` region.
    /// `None` for explicit node lists, which cannot move.
    pub fn center_at(&self, t: u64) -> Option<Point> {
        match self.region {
            RegionSpec::Disc { x, y, .. } => {
                let dt = t.saturating_sub(self.from) as f64;
                Some(Point::new(x + self.vx * dt, y + self.vy * dt))
            }
            RegionSpec::Nodes { .. } => None,
        }
    }
}

/// A message-drop burst.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DropSpec {
    /// First affected round (inclusive).
    pub from: u64,
    /// Last affected round (inclusive).
    pub to: u64,
    /// Per-reception drop probability.
    pub p: f64,
}

/// The scenario-level fault plan; regions are resolved against the built
/// topology into a [`radio_sim::fault::FaultPlan`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlanSpec {
    /// Node churn events.
    pub crashes: Vec<CrashSpec>,
    /// Jamming windows.
    pub jams: Vec<JamSpec>,
    /// Drop bursts.
    pub drops: Vec<DropSpec>,
}

impl FaultPlanSpec {
    /// Whether the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.jams.is_empty() && self.drops.is_empty()
    }

    /// Compiles the plan into the engine's fault plan over the geometry
    /// epochs a trial runs through, each given as `(first round,
    /// embedding)` — a static scenario is the one epoch `(1, embedding)`.
    ///
    /// Crashes, drop bursts and explicit node-list jams are
    /// epoch-independent. Every disc jam (moving or parked — the *nodes*
    /// move either way) compiles to one window per overlapped epoch,
    /// resolved against that epoch's embedding at the clipped window's
    /// opening round. Jam transitions are edge-triggered on the
    /// per-round mask, so contiguous same-set windows are
    /// indistinguishable from one long window.
    ///
    /// # Errors
    ///
    /// Rejects a disc jam that resolves to **no vertices** in every
    /// epoch (e.g. a disc whose finite center lies outside the arena):
    /// such a window would silently no-op at runtime while the scenario
    /// claims to jam. Structural errors (out-of-range vertices,
    /// malformed windows) are caught earlier by [`Scenario::validate`].
    pub fn resolve(&self, epochs: &[(u64, &Embedding)]) -> Result<FaultPlan, ScenarioError> {
        let mut plan = FaultPlan::none();
        for c in &self.crashes {
            plan = if c.restart {
                plan.with_crash_restart(NodeId(c.node), c.down_from, c.up_at)
            } else {
                plan.with_crash(NodeId(c.node), c.down_from, c.up_at)
            };
        }
        for j in &self.jams {
            let radius = match &j.region {
                RegionSpec::Nodes { nodes } => {
                    plan = plan.with_jam(nodes.iter().map(|&v| NodeId(v)).collect(), j.from, j.to);
                    continue;
                }
                RegionSpec::Disc { radius, .. } => *radius,
            };
            let mut hit_any = false;
            for (e, &(start, emb)) in epochs.iter().enumerate() {
                let end = epochs.get(e + 1).map_or(u64::MAX, |&(next, _)| next - 1);
                let (lo, hi) = (j.from.max(start), j.to.min(end));
                if lo > hi {
                    continue;
                }
                let center = j.center_at(lo).expect("disc region has a center");
                let nodes: Vec<NodeId> = (0..emb.len())
                    .filter(|&v| emb.position(v).distance(&center) <= radius)
                    .map(NodeId)
                    .collect();
                if nodes.is_empty() {
                    continue;
                }
                hit_any = true;
                plan = plan.with_jam(nodes, lo, hi);
            }
            if !hit_any {
                return Err(invalid(format!(
                    "faults: jam window [{}, {}] resolves to no vertices (region {:?} with \
                     velocity ({}, {}) misses the topology in every epoch)",
                    j.from, j.to, j.region, j.vx, j.vy
                )));
            }
        }
        for d in &self.drops {
            plan = plan.with_drop_burst(d.from, d.to, d.p);
        }
        Ok(plan)
    }

    /// Structural validation against a vertex count, mirroring the
    /// engine's [`FaultPlan::validate`] without building the topology:
    /// disc regions resolve to in-range vertices by construction, so no
    /// embedding is needed to validate a plan.
    fn validate(&self, n: usize) -> Result<(), ScenarioError> {
        for c in &self.crashes {
            if c.node >= n {
                return Err(invalid(format!(
                    "faults: crash references vertex {} but the graph has {n} vertices",
                    c.node
                )));
            }
            if c.down_from == 0 {
                return Err(invalid("faults: crash rounds are 1-based"));
            }
            if c.up_at.is_some_and(|up| up <= c.down_from) {
                return Err(invalid(format!(
                    "faults: crash of node {} recovers before going down",
                    c.node
                )));
            }
        }
        for j in &self.jams {
            match &j.region {
                RegionSpec::Nodes { nodes } => {
                    // An empty explicit list would pass every per-vertex
                    // check yet jam nothing — the same silent-no-op
                    // failure mode as an out-of-arena disc.
                    if nodes.is_empty() {
                        return Err(invalid(
                            "faults: jam region lists no vertices (the window would \
                             silently jam nothing)",
                        ));
                    }
                    if let Some(v) = nodes.iter().find(|&&v| v >= n) {
                        return Err(invalid(format!(
                            "faults: jam references vertex {v} but the graph has {n} vertices"
                        )));
                    }
                }
                RegionSpec::Disc { x, y, radius } => {
                    if *radius < 0.0 || !radius.is_finite() {
                        return Err(invalid(format!(
                            "faults: jam disc radius must be >= 0, got {radius}"
                        )));
                    }
                    // A NaN/infinite center would pass the radius check
                    // yet resolve to an *empty* region — the scenario
                    // would claim to jam while injecting nothing.
                    if !x.is_finite() || !y.is_finite() {
                        return Err(invalid(format!(
                            "faults: jam disc center must be finite, got ({x}, {y})"
                        )));
                    }
                }
            }
            if j.from == 0 || j.to < j.from {
                return Err(invalid(format!(
                    "faults: malformed jam window [{}, {}]",
                    j.from, j.to
                )));
            }
            if j.is_moving() {
                if !j.vx.is_finite() || !j.vy.is_finite() {
                    return Err(invalid(format!(
                        "faults: jam velocity must be finite, got ({}, {})",
                        j.vx, j.vy
                    )));
                }
                if !matches!(j.region, RegionSpec::Disc { .. }) {
                    return Err(invalid(
                        "faults: a moving jam needs a disc region (an explicit \
                         node list has no position to move)",
                    ));
                }
            }
        }
        for d in &self.drops {
            if d.from == 0 || d.to < d.from {
                return Err(invalid(format!(
                    "faults: malformed drop burst [{}, {}]",
                    d.from, d.to
                )));
            }
            if !(0.0..=1.0).contains(&d.p) {
                return Err(invalid(format!(
                    "faults: drop probability must be in [0, 1], got {}",
                    d.p
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Workload and stop condition
// ---------------------------------------------------------------------------

/// What runs on the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// `SeedAlg` with no environment inputs (E1–E3, E10).
    SeedAgreement {
        /// Error parameter ε₁.
        epsilon1: f64,
        /// Seed length κ in bits.
        seed_bits: usize,
    },
    /// `LBAlg` with per-sender payload queues injected one-at-a-time
    /// after each ack (the well-formed LB workload).
    LocalBroadcast {
        /// Error parameter ε₁.
        epsilon1: f64,
        /// Broadcasting vertices.
        senders: Vec<usize>,
        /// Payloads queued per sender.
        messages_per_sender: u64,
    },
    /// The Decay fixed-probability baseline; every sender gets one
    /// broadcast input at round 1.
    Decay {
        /// Broadcasting vertices.
        senders: Vec<usize>,
    },
    /// A uniform fixed-probability baseline.
    Uniform {
        /// Per-round transmit probability.
        p: f64,
        /// Broadcasting vertices.
        senders: Vec<usize>,
    },
    /// Flood broadcast over the `LBAlg`-backed abstract MAC layer (E11).
    /// Supports only oblivious adversaries and an empty fault plan (the
    /// MAC adapter drives its own engine).
    AmacFlood {
        /// Error parameter ε₁ of the underlying `LBAlg`.
        epsilon1: f64,
        /// Flood source vertices.
        sources: Vec<usize>,
    },
}

impl WorkloadSpec {
    /// A short name for report tables.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::SeedAgreement { .. } => "seed-agreement",
            WorkloadSpec::LocalBroadcast { .. } => "local-broadcast",
            WorkloadSpec::Decay { .. } => "decay",
            WorkloadSpec::Uniform { .. } => "uniform",
            WorkloadSpec::AmacFlood { .. } => "amac-flood",
        }
    }

    fn senders(&self) -> &[usize] {
        match self {
            WorkloadSpec::SeedAgreement { .. } => &[],
            WorkloadSpec::LocalBroadcast { senders, .. }
            | WorkloadSpec::Decay { senders }
            | WorkloadSpec::Uniform { senders, .. } => senders,
            WorkloadSpec::AmacFlood { sources, .. } => sources,
        }
    }

    fn validate(&self, n: usize) -> Result<(), ScenarioError> {
        // Each bound is the one the algorithm's config constructor
        // asserts, so a file that validates never panics the run.
        let check_eps = |eps: f64, max: f64| {
            if eps > 0.0 && eps <= max {
                Ok(())
            } else {
                Err(invalid(format!(
                    "workload: {} epsilon1 must be in (0, {max}], got {eps}",
                    self.name()
                )))
            }
        };
        for &s in self.senders() {
            if s >= n {
                return Err(invalid(format!(
                    "workload: sender {s} out of range for {n} vertices"
                )));
            }
        }
        match *self {
            WorkloadSpec::SeedAgreement {
                epsilon1,
                seed_bits,
            } => {
                check_eps(epsilon1, SeedConfig::MAX_EPSILON1)?;
                if seed_bits == 0 || seed_bits > MAX_SEED_BITS {
                    return Err(invalid(format!(
                        "workload: seed_bits must be in [1, {MAX_SEED_BITS}], got {seed_bits}"
                    )));
                }
                Ok(())
            }
            WorkloadSpec::LocalBroadcast {
                epsilon1,
                ref senders,
                messages_per_sender,
            } => {
                check_eps(epsilon1, LbConfig::MAX_EPSILON1)?;
                if senders.is_empty() {
                    return Err(invalid("workload: local broadcast needs >= 1 sender"));
                }
                if messages_per_sender == 0 {
                    return Err(invalid("workload: messages_per_sender must be >= 1"));
                }
                if messages_per_sender > 1_000_000 {
                    return Err(invalid(format!(
                        "workload: messages_per_sender must be <= 1000000, \
                         got {messages_per_sender}"
                    )));
                }
                Ok(())
            }
            WorkloadSpec::Decay { ref senders } => {
                if senders.is_empty() {
                    return Err(invalid("workload: decay needs >= 1 sender"));
                }
                Ok(())
            }
            WorkloadSpec::Uniform { p, ref senders } => {
                if senders.is_empty() {
                    return Err(invalid("workload: uniform needs >= 1 sender"));
                }
                if p > 0.0 && p <= 1.0 {
                    Ok(())
                } else {
                    Err(invalid(format!(
                        "workload: uniform probability must be in (0, 1], got {p}"
                    )))
                }
            }
            WorkloadSpec::AmacFlood {
                epsilon1,
                ref sources,
            } => {
                check_eps(epsilon1, LbConfig::MAX_EPSILON1)?;
                if sources.is_empty() {
                    return Err(invalid("workload: amac flood needs >= 1 source"));
                }
                Ok(())
            }
        }
    }
}

/// When a trial ends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StopSpec {
    /// Run exactly this many rounds.
    Rounds {
        /// Round budget.
        rounds: u64,
    },
    /// Run this many workload phases (`LBAlg`/`SeedAlg` phase length;
    /// 128 rounds per "phase" for the fixed-schedule baselines).
    Phases {
        /// Phase budget.
        phases: u64,
    },
    /// Run the workload's natural horizon: `SeedAlg`'s full schedule;
    /// `t_ack + t_prog` per queued message for `LBAlg`; 1024 rounds for
    /// the baselines; `f_ack · (n + 4) · 2` for the MAC flood.
    Complete,
    /// Run until `node` first outputs a delivery (a `recv` for broadcast
    /// workloads, a `decide` for seed agreement), censored at the
    /// horizon.
    FirstDeliveryAt {
        /// The watched vertex.
        node: usize,
        /// Censoring horizon in rounds.
        horizon_rounds: u64,
    },
}

/// Upper bound on explicit round budgets — large enough for any real
/// campaign, small enough that horizon arithmetic cannot overflow and a
/// typo cannot request an effectively unbounded run.
pub const MAX_STOP_ROUNDS: u64 = 50_000_000;

/// Upper bound on explicit phase budgets (phases are multiplied by the
/// workload's phase length at run time).
pub const MAX_STOP_PHASES: u64 = 1_000_000;

/// Upper bound on a seed-agreement workload's seed length in bits —
/// far above any seed the repository runs (8–64 bits), small enough
/// that per-node seed buffers stay bounded.
pub const MAX_SEED_BITS: usize = 4096;

/// Upper bound on a scenario's trial count, and on the trials one
/// campaign runs in total (runs keep one outcome per trial in memory).
pub const MAX_TRIALS: usize = 100_000;

/// Upper bound on `MaskedPumpAgainstDecay`'s `log_delta`, the rung count
/// of the pumped Decay cycle (a Decay ladder over [`MAX_TOPOLOGY_NODES`]
/// vertices has 20 rungs).
pub const MAX_PUMP_LOG_DELTA: u32 = 64;

impl StopSpec {
    /// The explicit round horizon, when the stop condition names one
    /// (`Rounds` and `FirstDeliveryAt`; `Phases`/`Complete` derive
    /// their horizon from the workload at run time).
    pub fn horizon_rounds(&self) -> Option<u64> {
        match *self {
            StopSpec::Rounds { rounds } => Some(rounds),
            StopSpec::FirstDeliveryAt { horizon_rounds, .. } => Some(horizon_rounds),
            StopSpec::Phases { .. } | StopSpec::Complete => None,
        }
    }

    fn validate(&self, n: usize) -> Result<(), ScenarioError> {
        let check_rounds = |what: &str, r: u64| {
            if r == 0 {
                Err(invalid(format!("stop: {what} must be >= 1")))
            } else if r > MAX_STOP_ROUNDS {
                Err(invalid(format!(
                    "stop: {what} must be <= {MAX_STOP_ROUNDS}, got {r}"
                )))
            } else {
                Ok(())
            }
        };
        match *self {
            StopSpec::Rounds { rounds } => check_rounds("rounds", rounds),
            StopSpec::Phases { phases } => {
                if phases == 0 {
                    Err(invalid("stop: phases must be >= 1"))
                } else if phases > MAX_STOP_PHASES {
                    Err(invalid(format!(
                        "stop: phases must be <= {MAX_STOP_PHASES}, got {phases}"
                    )))
                } else {
                    Ok(())
                }
            }
            StopSpec::FirstDeliveryAt {
                node,
                horizon_rounds,
            } => {
                if node >= n {
                    Err(invalid(format!(
                        "stop: watched node {node} out of range for {n} vertices"
                    )))
                } else {
                    check_rounds("horizon_rounds", horizon_rounds)
                }
            }
            StopSpec::Complete => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Mobility
// ---------------------------------------------------------------------------

/// Upper bound on the number of geometry epochs a trial may span
/// (each epoch rebuilds the dual graph; the cap keeps a typo'd epoch
/// length from requesting millions of rebuilds).
pub const MAX_MOBILITY_EPOCHS: u64 = 4096;

/// Node mobility: random-waypoint motion over the deployment arena.
///
/// Each node walks toward a uniformly drawn waypoint at `speed` arena
/// units per round, drawing a fresh waypoint on arrival. The dual graph
/// is re-sampled from the moved embedding every `epoch_rounds` rounds,
/// producing a deterministic timeline of graph snapshots (one per
/// epoch) built once per trial before the first round. Motion draws
/// from the dedicated mobility RNG stream, so enabling it never
/// perturbs placement, wiring, scheduling, or process randomness — and
/// `speed = 0` (or a horizon inside one epoch) is byte-identical to
/// the static scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilitySpec {
    /// Distance each node covers per round, in arena units (≥ 0).
    pub speed: f64,
    /// Rounds between dual-graph rebuilds (epoch length, ≥ 1).
    pub epoch_rounds: u64,
}

impl MobilitySpec {
    /// The number of geometry epochs a `horizon`-round trial spans
    /// (≥ 1; the last epoch covers any remainder).
    pub fn epochs_for(&self, horizon: u64) -> u64 {
        horizon.div_ceil(self.epoch_rounds).max(1)
    }

    /// The `G'` edges a `horizon`-round timeline keeps when each graph
    /// implies `edges`: one graph per epoch when nodes move, one shared
    /// graph when they are parked.
    fn timeline_edges(&self, horizon: u64, edges: f64) -> f64 {
        if self.speed > 0.0 {
            self.epochs_for(horizon) as f64 * edges
        } else {
            edges
        }
    }

    /// Checks the spec against the trial horizon and the `G'` edges
    /// one graph of the topology implies.
    fn validate(&self, horizon: Option<u64>, edges: f64) -> Result<(), ScenarioError> {
        if !(self.speed >= 0.0 && self.speed.is_finite()) {
            return Err(invalid(format!(
                "mobility: speed must be finite and >= 0, got {}",
                self.speed
            )));
        }
        if self.epoch_rounds == 0 {
            return Err(invalid("mobility: epoch_rounds must be >= 1"));
        }
        // The timeline is materialized up front, so the trial horizon
        // must be known before the first round.
        let Some(h) = horizon else {
            return Err(invalid(
                "mobility: the stop condition must name an explicit round \
                 horizon (Rounds or FirstDeliveryAt); Phases/Complete derive \
                 theirs from the workload after the timeline would be built",
            ));
        };
        let epochs = self.epochs_for(h);
        if epochs > MAX_MOBILITY_EPOCHS {
            return Err(invalid(format!(
                "mobility: horizon {h} at epoch length {} spans {epochs} \
                 epochs, over the {MAX_MOBILITY_EPOCHS} cap — raise \
                 epoch_rounds or shorten the trial",
                self.epoch_rounds
            )));
        }
        // The whole timeline is built before the first round, so the cap
        // on one graph bounds the sum over its epochs.
        let total = self.timeline_edges(h, edges);
        if total > MAX_TOPOLOGY_EDGES {
            return Err(invalid(format!(
                "mobility: {epochs} moving epochs of about {edges:.3e} G' edges \
                 each imply {total:.3e} in the timeline, more than the cap of \
                 {MAX_TOPOLOGY_EDGES:.0} — raise epoch_rounds, shorten the \
                 trial or shrink the topology"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// A network partition window for the mock-net transport: every link
/// crossing the boundary of `nodes` is cut during rounds `[from, to]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// One side of the partition (vertex indices).
    pub nodes: Vec<usize>,
    /// First partitioned round (inclusive; rounds are 1-based).
    pub from: u64,
    /// Last partitioned round (inclusive).
    pub to: u64,
}

/// Which substrate executes the scenario's trials.
///
/// `Sim` (the default — absent in older scenario files) is the lockstep
/// engine; every golden metric and replay trace is pinned against it.
/// `MockNet` runs the same processes on the same engine with the `net`
/// crate's deterministic mock network as its channel instead: the adversary
/// selects the static link set (`AllExtraEdges` → all of `G'`,
/// `NoExtraEdges` → `G` only; nothing else is expressible over a static
/// network, so other adversaries are rejected), and the transport adds
/// per-hop delivery delay, Bernoulli link loss, and partition windows on
/// top. With delay 0, no loss, and no partitions, mock-net executions are
/// byte-identical to the simulator's.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum TransportSpec {
    /// The lockstep simulator engine (the default).
    #[default]
    Sim,
    /// The deterministic mock network from the `net` crate.
    MockNet {
        /// Per-hop delivery delay in rounds (0 = synchronous).
        delay_rounds: u64,
        /// Independent per-link Bernoulli loss probability.
        loss_p: f64,
        /// Partition windows cutting boundary-crossing links.
        partitions: Vec<PartitionSpec>,
    },
}

impl TransportSpec {
    /// Short name for reports and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            TransportSpec::Sim => "sim",
            TransportSpec::MockNet { .. } => "mock-net",
        }
    }

    /// A mock-net transport with no delay, loss, or partitions — the
    /// configuration whose executions byte-compare equal to the
    /// simulator's.
    pub fn mock_net_synchronous() -> Self {
        TransportSpec::MockNet {
            delay_rounds: 0,
            loss_p: 0.0,
            partitions: Vec::new(),
        }
    }

    fn validate(&self, n: usize) -> Result<(), ScenarioError> {
        let TransportSpec::MockNet {
            delay_rounds,
            loss_p,
            partitions,
        } = self
        else {
            return Ok(());
        };
        if *delay_rounds > MAX_STOP_ROUNDS {
            return Err(invalid(format!(
                "transport: delay_rounds must be <= {MAX_STOP_ROUNDS}, got {delay_rounds}"
            )));
        }
        if !(0.0..=1.0).contains(loss_p) {
            return Err(invalid(format!(
                "transport: loss_p must be in [0, 1], got {loss_p}"
            )));
        }
        for (i, w) in partitions.iter().enumerate() {
            if w.from < 1 || w.to < w.from {
                return Err(invalid(format!(
                    "transport: partition {i} window [{}, {}] is malformed (rounds are 1-based, to >= from)",
                    w.from, w.to
                )));
            }
            if w.nodes.is_empty() {
                return Err(invalid(format!("transport: partition {i} has no nodes")));
            }
            if let Some(&v) = w.nodes.iter().find(|&&v| v >= n) {
                return Err(invalid(format!(
                    "transport: partition {i} references node {v}, out of range for {n} vertices"
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// A complete scenario description. See the module docs; construct via
/// [`ScenarioBuilder`] or [`Scenario::from_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Identifier (registry key / report caption).
    pub name: String,
    /// Human description of what the scenario exercises.
    pub description: String,
    /// The network family.
    pub topology: TopologySpec,
    /// The dual-graph adversary schedule.
    pub adversary: AdversarySpec,
    /// Injected faults (churn, jamming, drop bursts).
    pub faults: FaultPlanSpec,
    /// What runs on the network.
    pub workload: WorkloadSpec,
    /// When each trial ends.
    pub stop: StopSpec,
    /// Monte-Carlo trial count.
    pub trials: usize,
    /// Master seed of trial 0; trial `i` uses `base_seed.wrapping_add(i)`
    /// (wrapping, so seeds near `u64::MAX` are legal).
    pub base_seed: u64,
    /// Which substrate executes the trials (defaults to the simulator,
    /// so scenario files written before this field existed still parse).
    #[serde(default)]
    pub transport: TransportSpec,
    /// Node mobility (dynamic geometry). `None` — the default, and
    /// omitted from serialized scenarios so pre-mobility files and
    /// archives stay byte-identical — keeps the arena static.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mobility: Option<MobilitySpec>,
}

impl Scenario {
    /// Validates every field (including resolving the fault plan against
    /// the built topology).
    ///
    /// # Errors
    ///
    /// Returns the first constraint violation found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(invalid("name must be non-empty"));
        }
        if self.trials == 0 || self.trials > MAX_TRIALS {
            return Err(invalid(format!(
                "trials must be in [1, {MAX_TRIALS}], got {}",
                self.trials
            )));
        }
        self.topology.validate()?;
        self.adversary.validate()?;
        let n = self.topology.node_count();
        self.workload.validate(n)?;
        self.stop.validate(n)?;
        self.faults.validate(n)?;
        if let WorkloadSpec::AmacFlood { .. } = self.workload {
            if !self.faults.is_empty() {
                return Err(invalid(
                    "amac flood drives its own engine and does not support fault plans",
                ));
            }
            if self.adversary.is_adaptive() {
                return Err(invalid(
                    "amac flood supports only oblivious adversaries",
                ));
            }
            if matches!(self.stop, StopSpec::FirstDeliveryAt { .. }) {
                return Err(invalid(
                    "amac flood does not support the first-delivery stop condition",
                ));
            }
        }
        self.transport.validate(n)?;
        if matches!(self.transport, TransportSpec::MockNet { .. }) {
            // The mock network routes over a static link set; only the
            // two static adversaries map onto one. Everything dynamic
            // (per-round subsets, adaptivity) is the simulator's domain.
            if !matches!(
                self.adversary,
                AdversarySpec::AllExtraEdges | AdversarySpec::NoExtraEdges
            ) {
                return Err(invalid(format!(
                    "transport: mock-net requires a static link set; adversary '{}' \
                     schedules per-round edges and only runs on the simulator",
                    self.adversary.name()
                )));
            }
            if let WorkloadSpec::AmacFlood { .. } = self.workload {
                return Err(invalid(
                    "transport: amac flood drives its own engine and only runs on the simulator",
                ));
            }
        }
        if let Some(m) = &self.mobility {
            m.validate(self.stop.horizon_rounds(), self.topology.implied_edges())?;
            // Mobility re-samples an RGG from the moved embedding each
            // epoch; only the arena families have that construction.
            if self.topology.arena().is_none() {
                return Err(invalid(
                    "mobility: only the RandomGeometric and ConstantDensity \
                     arena topologies support node mobility",
                ));
            }
            if matches!(self.transport, TransportSpec::MockNet { .. }) {
                return Err(invalid(
                    "mobility: the mock network routes over a static link set; \
                     dynamic geometry runs on the simulator transport",
                ));
            }
            if let WorkloadSpec::AmacFlood { .. } = self.workload {
                return Err(invalid(
                    "mobility: amac flood drives its own engine and does not \
                     support dynamic geometry",
                ));
            }
        } else if let Some(j) = self.faults.jams.iter().find(|j| j.is_moving()) {
            return Err(invalid(format!(
                "faults: jam window [{}, {}] has velocity ({}, {}) but the \
                 scenario has no mobility spec — moving jams ride the \
                 per-epoch geometry machinery (set mobility, speed 0 is fine)",
                j.from, j.to, j.vx, j.vy
            )));
        }
        Ok(())
    }

    /// Serializes to pretty-printed JSON (the on-disk scenario format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("scenarios always serialize");
        s.push('\n');
        s
    }

    /// Parses and validates a scenario from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON and
    /// [`ScenarioError::Invalid`] on a well-formed but invalid scenario.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let scenario: Scenario =
            serde_json::from_str(json).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        scenario.validate()?;
        Ok(scenario)
    }
}

/// Step-by-step construction of a [`Scenario`] with validation at
/// [`ScenarioBuilder::build`] time.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Starts a scenario with the given name, topology, and workload.
    /// Defaults: no description, the all-edges adversary, no faults, the
    /// `Complete` stop condition, 4 trials, base seed 1.
    pub fn new(
        name: impl Into<String>,
        topology: TopologySpec,
        workload: WorkloadSpec,
    ) -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                description: String::new(),
                topology,
                adversary: AdversarySpec::AllExtraEdges,
                faults: FaultPlanSpec::default(),
                workload,
                stop: StopSpec::Complete,
                trials: 4,
                base_seed: 1,
                transport: TransportSpec::default(),
                mobility: None,
            },
        }
    }

    /// Sets the human description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.scenario.description = d.into();
        self
    }

    /// Sets the adversary schedule.
    pub fn adversary(mut self, a: AdversarySpec) -> Self {
        self.scenario.adversary = a;
        self
    }

    /// Adds a power-save crash/recover event (state kept across the
    /// outage).
    pub fn crash(mut self, node: usize, down_from: u64, up_at: Option<u64>) -> Self {
        self.scenario.faults.crashes.push(CrashSpec {
            node,
            down_from,
            up_at,
            restart: false,
        });
        self
    }

    /// Adds a crash-restart event: the process loses its volatile
    /// memory on recovery (see [`CrashSpec::restart`]).
    pub fn crash_restart(mut self, node: usize, down_from: u64, up_at: Option<u64>) -> Self {
        self.scenario.faults.crashes.push(CrashSpec {
            node,
            down_from,
            up_at,
            restart: true,
        });
        self
    }

    /// Adds a jamming window over an explicit node set.
    pub fn jam_nodes(mut self, nodes: Vec<usize>, from: u64, to: u64) -> Self {
        self.scenario.faults.jams.push(JamSpec {
            region: RegionSpec::Nodes { nodes },
            from,
            to,
            vx: 0.0,
            vy: 0.0,
        });
        self
    }

    /// Adds a jamming window over a disc in the embedding.
    pub fn jam_disc(mut self, x: f64, y: f64, radius: f64, from: u64, to: u64) -> Self {
        self.scenario.faults.jams.push(JamSpec {
            region: RegionSpec::Disc { x, y, radius },
            from,
            to,
            vx: 0.0,
            vy: 0.0,
        });
        self
    }

    /// Adds a moving jam disc: the center starts at `(x, y)` when the
    /// window opens and drifts by `(vx, vy)` per round. Requires
    /// [`ScenarioBuilder::mobility`].
    #[allow(clippy::too_many_arguments)]
    pub fn moving_jam_disc(
        mut self,
        x: f64,
        y: f64,
        radius: f64,
        vx: f64,
        vy: f64,
        from: u64,
        to: u64,
    ) -> Self {
        self.scenario.faults.jams.push(JamSpec {
            region: RegionSpec::Disc { x, y, radius },
            from,
            to,
            vx,
            vy,
        });
        self
    }

    /// Enables random-waypoint node mobility: each node walks at
    /// `speed` arena units per round and the dual graph is re-sampled
    /// every `epoch_rounds` rounds.
    pub fn mobility(mut self, speed: f64, epoch_rounds: u64) -> Self {
        self.scenario.mobility = Some(MobilitySpec {
            speed,
            epoch_rounds,
        });
        self
    }

    /// Adds a message-drop burst.
    pub fn drop_burst(mut self, from: u64, to: u64, p: f64) -> Self {
        self.scenario.faults.drops.push(DropSpec { from, to, p });
        self
    }

    /// Sets the stop condition.
    pub fn stop(mut self, s: StopSpec) -> Self {
        self.scenario.stop = s;
        self
    }

    /// Sets the trial count.
    pub fn trials(mut self, t: usize) -> Self {
        self.scenario.trials = t;
        self
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, s: u64) -> Self {
        self.scenario.base_seed = s;
        self
    }

    /// Selects the execution substrate (simulator or mock network).
    pub fn transport(mut self, t: TransportSpec) -> Self {
        self.scenario.transport = t;
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violation (see [`Scenario::validate`]).
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> ScenarioBuilder {
        ScenarioBuilder::new(
            "t",
            TopologySpec::Clique { n: 4, r: 1.0 },
            WorkloadSpec::LocalBroadcast {
                epsilon1: 0.25,
                senders: vec![0],
                messages_per_sender: 1,
            },
        )
    }

    #[test]
    fn builder_produces_valid_scenario() {
        let s = minimal()
            .description("demo")
            .adversary(AdversarySpec::Bernoulli { p: 0.5 })
            .crash(1, 3, Some(9))
            .jam_nodes(vec![2], 2, 5)
            .drop_burst(1, 4, 0.25)
            .stop(StopSpec::Phases { phases: 2 })
            .trials(2)
            .base_seed(7)
            .build()
            .unwrap();
        assert_eq!(s.trials, 2);
        assert!(!s.faults.is_empty());
    }

    #[test]
    fn json_roundtrip_preserves_scenario() {
        let s = minimal()
            .adversary(AdversarySpec::EpochRandom { epoch: 8, p: 0.3 })
            .jam_disc(0.0, 0.0, 0.6, 4, 9)
            .build()
            .unwrap();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn rejects_out_of_range_sender() {
        let err = ScenarioBuilder::new(
            "t",
            TopologySpec::Clique { n: 4, r: 1.0 },
            WorkloadSpec::LocalBroadcast {
                epsilon1: 0.25,
                senders: vec![9],
                messages_per_sender: 1,
            },
        )
        .build()
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
    }

    #[test]
    fn rejects_bad_probabilities_and_windows() {
        assert!(minimal()
            .adversary(AdversarySpec::Bernoulli { p: 1.5 })
            .build()
            .is_err());
        assert!(minimal().drop_burst(5, 2, 0.5).build().is_err());
        assert!(minimal().crash(0, 0, None).build().is_err());
        assert!(minimal().trials(0).build().is_err());
    }

    #[test]
    fn rejects_non_finite_jam_disc() {
        // Regression: only the radius used to be validated, so a
        // NaN/infinite center passed and silently resolved to an empty
        // jam region — the plan claimed to jam but injected nothing.
        for (x, y) in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 0.0),
            (0.0, f64::NEG_INFINITY),
        ] {
            let err = minimal().jam_disc(x, y, 1.0, 1, 5).build().unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Invalid(m) if m.contains("center")),
                "({x}, {y}): {err}"
            );
        }
        // Finite centers (and a zero radius) remain legal.
        assert!(minimal().jam_disc(0.0, 0.0, 0.0, 1, 5).build().is_ok());
        assert!(minimal()
            .jam_disc(1.0, 1.0, f64::NAN, 1, 5)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_amac_flood_with_faults_or_jammer() {
        let flood = |b: ScenarioBuilder| {
            let mut s = b;
            s.scenario.workload = WorkloadSpec::AmacFlood {
                epsilon1: 0.25,
                sources: vec![0],
            };
            s
        };
        assert!(flood(minimal()).build().is_ok());
        assert!(flood(minimal().crash(0, 1, None)).build().is_err());
        assert!(flood(minimal().adversary(AdversarySpec::GreedyJammer))
            .build()
            .is_err());
    }

    fn mobile() -> ScenarioBuilder {
        ScenarioBuilder::new(
            "m",
            TopologySpec::RandomGeometric {
                n: 20,
                side: 3.0,
                r: 2.0,
                grey_reliable_p: 0.1,
                grey_unreliable_p: 0.8,
                seed: 5,
            },
            WorkloadSpec::Uniform {
                p: 0.25,
                senders: vec![0],
            },
        )
        .stop(StopSpec::Rounds { rounds: 40 })
        .mobility(0.1, 10)
    }

    #[test]
    fn mobility_scenario_round_trips_through_json() {
        let s = mobile()
            .moving_jam_disc(0.5, 0.5, 1.0, 0.05, -0.02, 3, 30)
            .build()
            .unwrap();
        let json = s.to_json();
        assert!(json.contains("mobility"), "{json}");
        assert!(json.contains("vx"), "{json}");
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn static_scenarios_serialize_without_mobility_keys() {
        // Byte-stability: pre-mobility scenario files, goldens, and the
        // search archive must re-serialize without the new fields.
        let s = minimal().jam_disc(0.0, 0.0, 0.6, 4, 9).build().unwrap();
        let json = s.to_json();
        assert!(!json.contains("mobility"), "{json}");
        assert!(!json.contains("vx"), "{json}");
        assert!(!json.contains("vy"), "{json}");
    }

    #[test]
    fn rejects_malformed_mobility() {
        // Moving jam without a mobility spec.
        assert!(minimal()
            .moving_jam_disc(0.0, 0.0, 0.6, 0.1, 0.0, 1, 5)
            .build()
            .is_err());
        // Moving jam over an explicit node list.
        {
            let mut b = mobile();
            b.scenario.faults.jams.push(JamSpec {
                region: RegionSpec::Nodes { nodes: vec![1] },
                from: 1,
                to: 5,
                vx: 0.1,
                vy: 0.0,
            });
            assert!(b.build().is_err());
        }
        // Non-finite velocity.
        assert!(mobile()
            .moving_jam_disc(0.5, 0.5, 1.0, f64::NAN, 0.0, 1, 5)
            .build()
            .is_err());
        // Mobility outside the arena families.
        assert!(minimal()
            .stop(StopSpec::Rounds { rounds: 40 })
            .mobility(0.1, 10)
            .build()
            .is_err());
        // Mobility without an explicit horizon.
        assert!(mobile().stop(StopSpec::Complete).build().is_err());
        // Bad speed / epoch length / epoch-count blowup.
        assert!(mobile().mobility(-1.0, 10).build().is_err());
        assert!(mobile().mobility(f64::INFINITY, 10).build().is_err());
        assert!(mobile().mobility(0.1, 0).build().is_err());
        assert!(mobile()
            .stop(StopSpec::Rounds {
                rounds: MAX_STOP_ROUNDS
            })
            .mobility(0.1, 1)
            .build()
            .is_err());
        // Speed 0 with a sane horizon remains legal.
        assert!(mobile().mobility(0.0, 10).build().is_ok());
        // Each of 4096 epochs fits the edge cap, their sum does not;
        // parked, the epochs share one graph.
        let big = |speed| {
            let mut b = mobile()
                .stop(StopSpec::Rounds { rounds: 4096 })
                .mobility(speed, 1);
            b.scenario.topology = TopologySpec::RandomGeometric {
                n: 100_000,
                side: 100.0,
                r: 2.0,
                grey_reliable_p: 0.1,
                grey_unreliable_p: 0.8,
                seed: 5,
            };
            b.build()
        };
        let err = big(0.01).unwrap_err().to_string();
        assert!(
            err.contains("mobility:") && err.contains("timeline"),
            "{err}"
        );
        assert!(big(0.0).is_ok());
    }

    #[test]
    fn moving_jam_center_drifts_from_window_open() {
        let j = JamSpec {
            region: RegionSpec::Disc {
                x: 1.0,
                y: 2.0,
                radius: 0.5,
            },
            from: 10,
            to: 30,
            vx: 0.1,
            vy: -0.2,
        };
        assert!(j.is_moving());
        let c = j.center_at(20).unwrap();
        assert!((c.x - 2.0).abs() < 1e-12 && (c.y - 0.0).abs() < 1e-12);
        assert_eq!(j.center_at(10), Some(Point::new(1.0, 2.0)));
    }

    #[test]
    fn disc_region_resolves_against_embedding() {
        let topo = TopologySpec::Line {
            n: 5,
            spacing: 1.0,
            r: 2.0,
        }
        .build();
        let faults = FaultPlanSpec {
            jams: vec![JamSpec {
                region: RegionSpec::Disc {
                    x: 2.0,
                    y: 0.0,
                    radius: 1.1,
                },
                from: 1,
                to: 9,
                vx: 0.0,
                vy: 0.0,
            }],
            ..FaultPlanSpec::default()
        };
        let plan = faults.resolve(&[(1, &topo.embedding)]).unwrap();
        assert_eq!(plan.jams[0].nodes, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn deeply_nested_json_is_a_parse_error_not_a_stack_overflow() {
        let err = Scenario::from_json(&"[".repeat(200_000)).unwrap_err();
        assert!(matches!(err, ScenarioError::Parse(_)), "{err}");
        assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
    }

    #[test]
    fn rejects_topologies_past_the_size_caps() {
        let err = |topology| {
            ScenarioBuilder::new("t", topology, WorkloadSpec::Decay { senders: vec![0] })
                .build()
                .unwrap_err()
                .to_string()
        };
        // 10^10 nodes: the grid that used to abort allocating 160 GB.
        let e = err(TopologySpec::Grid {
            rows: 100_000,
            cols: 100_000,
            spacing: 1.0,
            r: 2.0,
        });
        assert!(e.contains("topology: node count must be <= 1000000"), "{e}");
        // The clique that used to be OOM-killed.
        let e = err(TopologySpec::Clique { n: 3_000_000, r: 1.0 });
        assert!(e.contains("topology: node count"), "{e}");
        // Overflowing dimensions saturate rather than panic.
        let e = err(TopologySpec::Grid {
            rows: usize::MAX,
            cols: 3,
            spacing: 1.0,
            r: 2.0,
        });
        assert!(e.contains("topology: node count"), "{e}");
        // Few enough nodes, but ~5·10^7 edges, exactly or in expectation.
        let e = err(TopologySpec::Clique { n: 10_000, r: 1.0 });
        assert!(e.contains("G' edges"), "{e}");
        let e = err(TopologySpec::RandomGeometric {
            n: 100_000,
            side: 20.0,
            r: 2.0,
            grey_reliable_p: 0.1,
            grey_unreliable_p: 0.8,
            seed: 1,
        });
        assert!(e.contains("G' edges"), "{e}");
    }

    #[test]
    fn every_shipped_scenario_fits_the_size_caps() {
        let mut scenarios = crate::registry::all();
        for sweep in crate::sweep::sweeps() {
            scenarios.extend(sweep.expand().unwrap().scenarios());
        }
        for preset in crate::search::presets() {
            preset.validate().unwrap();
            scenarios.push(preset.base);
        }
        let found = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/found");
        for entry in std::fs::read_dir(found).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("found-") {
                scenarios.push(Scenario::from_json(&std::fs::read_to_string(path).unwrap()).unwrap());
            }
        }
        assert!(scenarios.iter().any(|s| s.topology.node_count() == 50_000));
        for s in &scenarios {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            // Headroom: the caps sit well above anything shipped.
            assert!(s.topology.node_count() * 10 <= MAX_TOPOLOGY_NODES, "{}", s.name);
            let edges = s.topology.implied_edges();
            assert!(edges * 10.0 <= MAX_TOPOLOGY_EDGES, "{}", s.name);
            if let Some(m) = &s.mobility {
                let horizon = s.stop.horizon_rounds().unwrap();
                assert!(
                    m.timeline_edges(horizon, edges) * 10.0 <= MAX_TOPOLOGY_EDGES,
                    "{}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn implied_edges_expect_the_random_geometric_builds() {
        // Edge effects only lower the built count below the expectation.
        for spec in [
            TopologySpec::RandomGeometric {
                n: 400,
                side: 10.0,
                r: 2.0,
                grey_reliable_p: 0.1,
                grey_unreliable_p: 0.8,
                seed: 2,
            },
            TopologySpec::ConstantDensity {
                n: 2_000,
                density: 8.0,
                r: 1.5,
                seed: 3,
            },
        ] {
            let g = spec.build().graph;
            let (expected, built) = (
                spec.implied_edges(),
                (g.reliable_edges().len() + g.extra_edges().len()) as f64,
            );
            assert!(
                built <= expected * 1.05 && built >= expected * 0.7,
                "{spec:?}: expected {expected}, built {built}"
            );
        }
    }

    /// Every pump variant schedules exactly the rule its docs state, over
    /// three cycles: `Alternating` pumps `(t−1) mod (h+l) < h`,
    /// `ContentionPump` `(t−1) mod c < ⌈c/2⌉`, and
    /// `MaskedPumpAgainstDecay` each round whose rung probability
    /// `2^−((t−1) mod L + 1)` exceeds τ, evaluated rung by rung, so the
    /// prefix form of the threshold mask is checked rather than assumed.
    #[test]
    fn duty_cycle_adversaries_follow_their_documented_rules() {
        let g = topology::clique(2, 1.0).graph;
        let follows = |spec: &AdversarySpec, cycle: u64, rule: &dyn Fn(u64) -> bool| {
            spec.validate().unwrap();
            let mut sched = spec.build_oblivious(0).expect("an oblivious adversary");
            for t in 1..=3 * cycle {
                let want = if rule(t) {
                    scheduler::EdgeSelection::All
                } else {
                    scheduler::EdgeSelection::None
                };
                assert_eq!(sched.extra_edges(t, &g), want, "{spec:?}, round {t}");
            }
        };
        for high in 0..=6u64 {
            for low in (0..=6u64).filter(|&low| high + low > 0) {
                let spec = AdversarySpec::Alternating { high, low };
                follows(&spec, high + low, &|t| (t - 1) % (high + low) < high);
            }
        }
        for c in 1..=64u64 {
            let spec = AdversarySpec::ContentionPump { cycle: c };
            follows(&spec, c, &|t| (t - 1) % c < c.div_ceil(2));
        }
        // 2^-i, exactly, for the rungs i ≤ 64 the cap allows.
        let rung = |i: u64| 1.0 / (1u128 << i) as f64;
        let just_below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut thresholds = vec![0.0, f64::from_bits(1), 0.45, 0.5, 1.0];
        for k in 1..=64 {
            thresholds.extend([rung(k), just_below(rung(k))]);
        }
        for log_delta in 1..=MAX_PUMP_LOG_DELTA {
            let l = u64::from(log_delta);
            for &threshold in &thresholds {
                let spec = AdversarySpec::MaskedPumpAgainstDecay {
                    log_delta,
                    threshold,
                };
                follows(&spec, l, &|t| rung((t - 1) % l + 1) > threshold);
            }
        }
    }

    #[test]
    fn node_counts_match_built_topologies() {
        let specs = vec![
            TopologySpec::Line {
                n: 5,
                spacing: 0.9,
                r: 2.0,
            },
            TopologySpec::Ring {
                n: 6,
                spacing: 0.9,
                r: 2.0,
            },
            TopologySpec::Ring {
                n: 40,
                spacing: 0.7,
                r: 3.0,
            },
            TopologySpec::Grid {
                rows: 3,
                cols: 4,
                spacing: 0.9,
                r: 2.0,
            },
            TopologySpec::Grid {
                rows: 6,
                cols: 5,
                spacing: 0.7,
                r: 3.0,
            },
            TopologySpec::Clique { n: 7, r: 1.0 },
            TopologySpec::GreySandwich {
                reliable: 2,
                grey: 5,
                r: 2.0,
            },
            TopologySpec::PumpArena {
                reliable: 1,
                grey: 6,
            },
            TopologySpec::TwoTier {
                core: 3,
                periphery: 4,
                ring_radius: 1.5,
                r: 2.0,
            },
            TopologySpec::Clustered {
                clusters: 2,
                cluster_size: 3,
                spacing: 1.5,
                spread: 0.4,
                r: 2.0,
                seed: 1,
            },
            TopologySpec::RandomGeometric {
                n: 12,
                side: 3.0,
                r: 2.0,
                grey_reliable_p: 0.1,
                grey_unreliable_p: 0.8,
                seed: 2,
            },
            TopologySpec::ConstantDensity {
                n: 16,
                density: 8.0,
                r: 1.5,
                seed: 3,
            },
        ];
        for spec in specs {
            spec.validate().unwrap();
            let topo = spec.build();
            assert_eq!(topo.graph.len(), spec.node_count(), "{spec:?}");
            topo.check_geographic().unwrap();
            // The implied edge count is exact for the lattices and the
            // clique and bounds the fixed arenas (random builds are
            // checked in expectation above).
            let edges = (topo.graph.reliable_edges().len() + topo.graph.extra_edges().len()) as f64;
            match spec {
                TopologySpec::Line { .. }
                | TopologySpec::Ring { .. }
                | TopologySpec::Grid { .. }
                | TopologySpec::Clique { .. } => assert_eq!(spec.implied_edges(), edges, "{spec:?}"),
                TopologySpec::RandomGeometric { .. } | TopologySpec::ConstantDensity { .. } => {}
                _ => assert!(spec.implied_edges() >= edges, "{spec:?}"),
            }
        }
    }
}
