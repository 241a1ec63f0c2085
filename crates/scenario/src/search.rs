//! Adversary search: automated exploration of the fault/adversary space.
//!
//! The paper quantifies over *every* link-scheduler adversary; the
//! registry pins the handful of hand-written worst cases we thought of.
//! This module closes the gap between the two: a [`SearchSpec`]
//! describes a **budgeted search** over the declarative
//! [`AdversarySpec`] × [`FaultPlanSpec`](crate::spec::FaultPlanSpec) ×
//! drop/jam parameter space that maximizes a chosen [`Objective`]
//! (censored mean or p99 ack latency, spec-violation rate) against the
//! `LBAlg` workload of a base scenario.
//!
//! Two strategies ship behind the [`SearchStrategy`] trait: seeded
//! [random sampling](RandomSearch) and a (μ+λ) [evolutionary
//! loop](Evolutionary) with typed mutation and crossover operators on
//! the spec space. Both draw every random decision from a single
//! `ChaCha8` stream seeded by the search seed, and candidates are
//! evaluated in batches on the existing [`Campaign`] worker pool —
//! whose results are job-index-ordered regardless of thread count — so
//! a search is **fully deterministic**: same seed and budget ⇒ a
//! byte-identical [`SearchArchive`] at any `--threads` value.
//!
//! Found worst cases round-trip into the regression corpus: the CLI
//! emits the top candidates as ordinary scenario JSON under
//! `scenarios/found/` (see [`found_scenario`]), and `scenario campaign
//! <file> --bless` pins their metrics like any registry entry — the
//! golden gate permanently remembers every adversary the search ever
//! discovered. Budget math: a search costs exactly
//! `budget × trials-per-candidate` simulated trials; at the engine's
//! measured thousands of trials per second, thousand-candidate searches
//! are routine (see `docs/search.md`).

use crate::campaign::Campaign;
use crate::runner::{ScenarioRunner, TrialOutcome};
use crate::spec::{
    AdversarySpec, CrashSpec, DropSpec, FaultPlanSpec, JamSpec, RegionSpec, Scenario,
    ScenarioError, TransportSpec, WorkloadSpec, MAX_STOP_ROUNDS,
};
use analysis::stats::Summary;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

/// Most candidate evaluations one search may be budgeted for — large
/// enough for an overnight exploration, small enough that a typo'd
/// budget cannot request an effectively unbounded campaign.
pub const MAX_SEARCH_BUDGET: usize = 4096;

// ---------------------------------------------------------------------------
// Objectives
// ---------------------------------------------------------------------------

/// What the search maximizes. All objectives are **total** over the
/// candidate space: ack-latency objectives censor ack-less trials at
/// the executed round count, so a candidate that suppresses the ack
/// entirely scores the full horizon instead of being unmeasurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Mean censored ack latency over the candidate's trials.
    MeanAckLatency,
    /// 99th percentile of the censored per-trial ack latencies.
    P99AckLatency,
    /// Fraction of trials whose deterministic workload spec
    /// (timely-ack/validity for `LBAlg`) was violated.
    SpecViolationRate,
}

impl Objective {
    /// The CLI name of the objective.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::MeanAckLatency => "mean-ack",
            Objective::P99AckLatency => "p99-ack",
            Objective::SpecViolationRate => "spec-violations",
        }
    }

    /// Parses a CLI name (see [`Objective::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mean-ack" => Some(Objective::MeanAckLatency),
            "p99-ack" => Some(Objective::P99AckLatency),
            "spec-violations" => Some(Objective::SpecViolationRate),
            _ => None,
        }
    }

    /// The candidate's score under this objective (higher = worse for
    /// the algorithm = better for the search).
    pub fn score(&self, m: &CandidateMetrics) -> f64 {
        match self {
            Objective::MeanAckLatency => m.mean_ack,
            Objective::P99AckLatency => m.p99_ack,
            Objective::SpecViolationRate => m.spec_violation_rate,
        }
    }
}

/// Per-candidate measurements, computed from the trial outcomes with
/// censoring so every candidate is comparable (see [`Objective`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateMetrics {
    /// Mean censored ack latency in rounds.
    pub mean_ack: f64,
    /// p99 of the censored per-trial ack latencies.
    pub p99_ack: f64,
    /// Fraction of trials with a violated workload spec.
    pub spec_violation_rate: f64,
    /// Trials in which an ack was actually observed (un-censored).
    pub ack_trials: usize,
    /// Total trials measured.
    pub trials: usize,
}

impl CandidateMetrics {
    /// Measures a candidate from its trial outcomes. Trials without an
    /// ack contribute their executed round count (the censoring bound).
    pub fn of(outcomes: &[TrialOutcome]) -> Self {
        let censored: Vec<f64> = outcomes
            .iter()
            .map(|o| o.first_ack.unwrap_or(o.rounds) as f64)
            .collect();
        let sum = Summary::try_of(&censored).expect("every scenario runs >= 1 trial");
        let violations = outcomes.iter().filter(|o| !o.spec_ok).count();
        CandidateMetrics {
            mean_ack: sum.mean,
            p99_ack: sum.p99,
            spec_violation_rate: violations as f64 / outcomes.len() as f64,
            ack_trials: outcomes.iter().filter(|o| o.first_ack.is_some()).count(),
            trials: outcomes.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Search space
// ---------------------------------------------------------------------------

/// The adversary families the sampler may draw, parameters sampled
/// within always-valid bounds. The baseline-specific pumps and the
/// adaptive greedy jammer are deliberately absent: the search explores
/// the *oblivious* space the paper's guarantees quantify over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversaryFamily {
    /// `Gₜ = G'` every round.
    AllExtraEdges,
    /// `Gₜ = G` every round.
    NoExtraEdges,
    /// Independent per-round edge inclusion.
    Bernoulli,
    /// All-edges / no-edges duty cycling.
    Alternating,
    /// Stripes `(t + j) mod k == 0`.
    Striped,
    /// Rotation through `k` edge slices.
    RoundRobin,
    /// Random subsets held for whole epochs.
    EpochRandom,
}

impl AdversaryFamily {
    /// Every samplable family, in declaration order.
    pub fn all() -> Vec<AdversaryFamily> {
        vec![
            AdversaryFamily::AllExtraEdges,
            AdversaryFamily::NoExtraEdges,
            AdversaryFamily::Bernoulli,
            AdversaryFamily::Alternating,
            AdversaryFamily::Striped,
            AdversaryFamily::RoundRobin,
            AdversaryFamily::EpochRandom,
        ]
    }

    /// Draws a concrete adversary of this family.
    fn sample(&self, rng: &mut ChaCha8Rng) -> AdversarySpec {
        match self {
            AdversaryFamily::AllExtraEdges => AdversarySpec::AllExtraEdges,
            AdversaryFamily::NoExtraEdges => AdversarySpec::NoExtraEdges,
            AdversaryFamily::Bernoulli => AdversarySpec::Bernoulli {
                p: rng.gen::<f64>(),
            },
            AdversaryFamily::Alternating => AdversarySpec::Alternating {
                high: rng.gen_range(1..65u64),
                low: rng.gen_range(1..65u64),
            },
            AdversaryFamily::Striped => AdversarySpec::Striped {
                k: rng.gen_range(1..9u64),
            },
            AdversaryFamily::RoundRobin => AdversarySpec::RoundRobin {
                k: rng.gen_range(1..9u64),
            },
            AdversaryFamily::EpochRandom => AdversarySpec::EpochRandom {
                epoch: rng.gen_range(1..129u64),
                p: rng.gen::<f64>(),
            },
        }
    }
}

/// Bounds of sampled **moving jam discs**. When a [`SpaceSpec`]
/// carries one of these, every sampled jam window is a disc with a
/// per-axis drift velocity instead of an explicit node list — the
/// dynamic-geometry half of the fault space. The base scenario must be
/// a mobility scenario (see [`SearchSpec::validate`]): the runner
/// re-resolves each disc against every epoch's embedding, so a moving
/// disc on a static deployment would be indistinguishable from a
/// parked one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MovingJamSpace {
    /// Side of the square arena disc centers are drawn from (match the
    /// base topology's arena so sampled discs overlap the deployment).
    pub arena_side: f64,
    /// Largest sampled disc radius; draws land in `[radius/2, radius]`
    /// so a disc is never vanishingly small.
    pub radius: f64,
    /// Per-axis velocity bound in arena units per round: `vx` and `vy`
    /// are drawn uniformly from `[-velocity, velocity]`.
    pub velocity: f64,
}

impl MovingJamSpace {
    fn validate(&self) -> Result<(), ScenarioError> {
        if !(self.arena_side.is_finite() && self.arena_side > 0.0) {
            return Err(invalid(format!(
                "search space: moving-jam arena_side must be finite and > 0, got {}",
                self.arena_side
            )));
        }
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(invalid(format!(
                "search space: moving-jam radius must be finite and > 0, got {}",
                self.radius
            )));
        }
        if !(self.velocity.is_finite() && self.velocity >= 0.0) {
            return Err(invalid(format!(
                "search space: moving-jam velocity must be finite and >= 0, got {}",
                self.velocity
            )));
        }
        Ok(())
    }

    fn sample(&self, horizon: u64, max_window: u64, rng: &mut ChaCha8Rng) -> JamSpec {
        let x = rng.gen::<f64>() * self.arena_side;
        let y = rng.gen::<f64>() * self.arena_side;
        let radius = self.radius * (0.5 + 0.5 * rng.gen::<f64>());
        let vx = (rng.gen::<f64>() * 2.0 - 1.0) * self.velocity;
        let vy = (rng.gen::<f64>() * 2.0 - 1.0) * self.velocity;
        let from = rng.gen_range(1..horizon + 1);
        JamSpec {
            region: RegionSpec::Disc { x, y, radius },
            from,
            to: from + rng.gen_range(0..max_window),
            vx,
            vy,
        }
    }
}

/// Bounds of the sampled fault/adversary space. Every candidate drawn
/// from a validated space is a valid scenario by construction —
/// windows are 1-based and non-empty, vertices in range, probabilities
/// in `[0, 1]` — so the fuzz net can hammer the runner with raw
/// samples. Only the geometry can refuse one: a sampled moving disc may
/// miss the deployment in every epoch it spans, and [`run_search`]
/// drops such a window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceSpec {
    /// Latest round a sampled fault window may start at (use the base
    /// scenario's horizon: windows past it would no-op).
    pub horizon: u64,
    /// Most crash windows per candidate.
    pub max_crashes: usize,
    /// Most jam windows per candidate.
    pub max_jams: usize,
    /// Most drop bursts per candidate.
    pub max_drops: usize,
    /// Most (distinct) vertices per jam window.
    pub max_jam_nodes: usize,
    /// Longest crash outage in rounds.
    pub max_outage: u64,
    /// Longest jam/drop window in rounds.
    pub max_window: u64,
    /// Upper bound of the sampled drop probability.
    pub drop_p_max: f64,
    /// Whether crash windows may carry crash-restart semantics
    /// (volatile state loss; see [`CrashSpec::restart`]).
    pub allow_restart: bool,
    /// The adversary families candidates may use (non-empty).
    pub adversaries: Vec<AdversaryFamily>,
    /// When set, sampled jam windows are moving discs drawn from these
    /// bounds instead of explicit node lists; requires a mobility base.
    /// `None` (the default) keeps the classic node-set jams — and the
    /// sampler's RNG consumption — exactly as before.
    #[serde(default)]
    pub moving_jams: Option<MovingJamSpace>,
}

impl SpaceSpec {
    /// A practical default space bounded by the given horizon: a few
    /// windows of every fault type, every oblivious adversary family,
    /// restart semantics allowed.
    pub fn for_horizon(horizon: u64) -> Self {
        SpaceSpec {
            horizon,
            max_crashes: 4,
            max_jams: 2,
            max_drops: 2,
            max_jam_nodes: 8,
            max_outage: (horizon / 8).max(1),
            max_window: (horizon / 2).max(1),
            drop_p_max: 0.9,
            allow_restart: true,
            adversaries: AdversaryFamily::all(),
            moving_jams: None,
        }
    }

    fn validate(&self, n: usize) -> Result<(), ScenarioError> {
        if self.horizon == 0 || self.horizon > MAX_STOP_ROUNDS {
            return Err(invalid(format!(
                "search space: horizon must be in [1, {MAX_STOP_ROUNDS}], got {}",
                self.horizon
            )));
        }
        if self.adversaries.is_empty() {
            return Err(invalid("search space: needs >= 1 adversary family"));
        }
        if self.max_jams > 0 && (self.max_jam_nodes == 0 || self.max_jam_nodes > n) {
            return Err(invalid(format!(
                "search space: max_jam_nodes must be in [1, {n}], got {}",
                self.max_jam_nodes
            )));
        }
        if self.max_outage == 0 || self.max_window == 0 {
            return Err(invalid(
                "search space: max_outage and max_window must be >= 1",
            ));
        }
        if !(0.0..=1.0).contains(&self.drop_p_max) {
            return Err(invalid(format!(
                "search space: drop_p_max must be in [0, 1], got {}",
                self.drop_p_max
            )));
        }
        if self.max_crashes > 32 || self.max_jams > 32 || self.max_drops > 32 {
            return Err(invalid(
                "search space: at most 32 windows of each fault type",
            ));
        }
        if let Some(mj) = &self.moving_jams {
            mj.validate()?;
        }
        Ok(())
    }

    /// Draws a uniform candidate from the space, valid by construction
    /// for any base with `n` vertices.
    pub fn sample(&self, n: usize, rng: &mut ChaCha8Rng) -> Candidate {
        let family = self.adversaries[rng.gen_range(0..self.adversaries.len())];
        let adversary = family.sample(rng);
        let crashes = (0..rng.gen_range(0..self.max_crashes + 1))
            .map(|_| self.sample_crash(n, rng))
            .collect();
        let jams = (0..rng.gen_range(0..self.max_jams + 1))
            .map(|_| self.sample_jam(n, rng))
            .collect();
        let drops = (0..rng.gen_range(0..self.max_drops + 1))
            .map(|_| self.sample_drop(rng))
            .collect();
        Candidate {
            adversary,
            crashes,
            jams,
            drops,
        }
    }

    fn sample_crash(&self, n: usize, rng: &mut ChaCha8Rng) -> CrashSpec {
        let down_from = rng.gen_range(1..self.horizon + 1);
        let outage = rng.gen_range(1..self.max_outage + 1);
        CrashSpec {
            node: rng.gen_range(0..n),
            down_from,
            // A quarter of sampled crashes are permanent.
            up_at: if rng.gen_bool(0.25) {
                None
            } else {
                Some(down_from + outage)
            },
            restart: self.allow_restart && rng.gen_bool(0.5),
        }
    }

    fn sample_jam(&self, n: usize, rng: &mut ChaCha8Rng) -> JamSpec {
        if let Some(mj) = &self.moving_jams {
            return mj.sample(self.horizon, self.max_window, rng);
        }
        let count = rng.gen_range(1..self.max_jam_nodes + 1);
        let mut nodes: Vec<usize> = (0..count).map(|_| rng.gen_range(0..n)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let from = rng.gen_range(1..self.horizon + 1);
        JamSpec {
            region: RegionSpec::Nodes { nodes },
            from,
            to: from + rng.gen_range(0..self.max_window),
            vx: 0.0,
            vy: 0.0,
        }
    }

    fn sample_drop(&self, rng: &mut ChaCha8Rng) -> DropSpec {
        let from = rng.gen_range(1..self.horizon + 1);
        DropSpec {
            from,
            to: from + rng.gen_range(0..self.max_window),
            // `gen * max` instead of `gen_range` so a zero bound is the
            // always-zero distribution rather than an empty range.
            p: rng.gen::<f64>() * self.drop_p_max,
        }
    }

    /// Applies one to two typed mutation operators to `c` in place,
    /// keeping it inside the space's bounds.
    pub fn mutate(&self, c: &mut Candidate, n: usize, rng: &mut ChaCha8Rng) {
        for _ in 0..rng.gen_range(1..3usize) {
            match rng.gen_range(0..8u32) {
                // Adversary: resample the family, or perturb a
                // probability knob when the current one has any.
                0 => {
                    let family = self.adversaries[rng.gen_range(0..self.adversaries.len())];
                    c.adversary = family.sample(rng);
                }
                1 => match &mut c.adversary {
                    AdversarySpec::Bernoulli { p } | AdversarySpec::EpochRandom { p, .. } => {
                        *p = (*p + (rng.gen::<f64>() - 0.5) * 0.4).clamp(0.0, 1.0);
                    }
                    _ => {
                        let family = self.adversaries[rng.gen_range(0..self.adversaries.len())];
                        c.adversary = family.sample(rng);
                    }
                },
                // Crash list: grow/replace, or shrink.
                2 => {
                    let fresh = self.sample_crash(n, rng);
                    if c.crashes.len() < self.max_crashes {
                        c.crashes.push(fresh);
                    } else if !c.crashes.is_empty() {
                        let i = rng.gen_range(0..c.crashes.len());
                        c.crashes[i] = fresh;
                    }
                }
                3 => {
                    if !c.crashes.is_empty() {
                        let i = rng.gen_range(0..c.crashes.len());
                        c.crashes.remove(i);
                    }
                }
                // Jam list.
                4 => {
                    if self.max_jams > 0 {
                        let fresh = self.sample_jam(n, rng);
                        if c.jams.len() < self.max_jams {
                            c.jams.push(fresh);
                        } else {
                            let i = rng.gen_range(0..c.jams.len());
                            c.jams[i] = fresh;
                        }
                    }
                }
                5 => {
                    if !c.jams.is_empty() {
                        let i = rng.gen_range(0..c.jams.len());
                        c.jams.remove(i);
                    }
                }
                // Drop list: grow/replace, or perturb a probability.
                6 => {
                    if self.max_drops > 0 {
                        if c.drops.is_empty() || c.drops.len() < self.max_drops && rng.gen_bool(0.5)
                        {
                            let fresh = self.sample_drop(rng);
                            c.drops.push(fresh);
                        } else {
                            let i = rng.gen_range(0..c.drops.len());
                            let p = (c.drops[i].p + (rng.gen::<f64>() - 0.5) * 0.4)
                                .clamp(0.0, self.drop_p_max);
                            c.drops[i].p = p;
                        }
                    }
                }
                _ => {
                    if !c.drops.is_empty() {
                        let i = rng.gen_range(0..c.drops.len());
                        c.drops.remove(i);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Candidates
// ---------------------------------------------------------------------------

/// One point of the search space: the adversary schedule plus the
/// fault plan a candidate scenario overlays on the base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The dual-graph adversary.
    pub adversary: AdversarySpec,
    /// Crash/recover windows (power-save or crash-restart).
    pub crashes: Vec<CrashSpec>,
    /// Jamming windows.
    pub jams: Vec<JamSpec>,
    /// Drop bursts.
    pub drops: Vec<DropSpec>,
}

impl Candidate {
    /// Uniform crossover: each gene (adversary, crash list, jam list,
    /// drop list) comes wholesale from one parent.
    pub fn crossover(a: &Candidate, b: &Candidate, rng: &mut ChaCha8Rng) -> Candidate {
        let pick = |rng: &mut ChaCha8Rng| rng.gen_bool(0.5);
        Candidate {
            adversary: if pick(rng) {
                a.adversary.clone()
            } else {
                b.adversary.clone()
            },
            crashes: if pick(rng) {
                a.crashes.clone()
            } else {
                b.crashes.clone()
            },
            jams: if pick(rng) {
                a.jams.clone()
            } else {
                b.jams.clone()
            },
            drops: if pick(rng) {
                a.drops.clone()
            } else {
                b.drops.clone()
            },
        }
    }

    /// Materializes the candidate as a runnable scenario: the base with
    /// this adversary and fault plan, named by evaluation index.
    pub fn apply(&self, spec: &SearchSpec, index: usize) -> Scenario {
        let mut s = spec.base.clone();
        s.name = format!("{}-c{index:04}", spec.name);
        s.description = format!(
            "search '{}' candidate {index} (objective {}, search seed {})",
            spec.name,
            spec.objective.name(),
            spec.seed
        );
        s.adversary = self.adversary.clone();
        s.faults = FaultPlanSpec {
            crashes: self.crashes.clone(),
            jams: self.jams.clone(),
            drops: self.drops.clone(),
        };
        if let Some(t) = spec.trials {
            s.trials = t;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// How the next batch of candidates is chosen. Implementations must be
/// deterministic functions of their observation history and the RNG
/// stream — the driver guarantees single-threaded proposal order, so
/// this suffices for thread-count-independent archives.
pub trait SearchStrategy {
    /// The strategy's display name.
    fn name(&self) -> &'static str;

    /// Proposes the next batch: at least one and at most `remaining`
    /// candidates.
    fn propose(
        &mut self,
        space: &SpaceSpec,
        n: usize,
        remaining: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Candidate>;

    /// Observes the scored batch, in proposal order.
    fn observe(&mut self, scored: &[(Candidate, f64)]);
}

/// Seeded uniform sampling: the whole budget is drawn up front and
/// evaluated as one maximally parallel batch.
#[derive(Debug, Default)]
pub struct RandomSearch;

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose(
        &mut self,
        space: &SpaceSpec,
        n: usize,
        remaining: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Candidate> {
        (0..remaining).map(|_| space.sample(n, rng)).collect()
    }

    fn observe(&mut self, _scored: &[(Candidate, f64)]) {}
}

/// (μ+λ) evolution: keep the `mu` best candidates ever seen, breed
/// `lambda` children per generation by uniform crossover plus typed
/// mutation, and re-select from parents and children together.
#[derive(Debug)]
pub struct Evolutionary {
    mu: usize,
    lambda: usize,
    /// The μ best (candidate, score) pairs seen so far, best first;
    /// ties keep the earlier-evaluated candidate first.
    population: Vec<(Candidate, f64)>,
}

impl Evolutionary {
    /// Creates the loop with the given parent/offspring counts.
    pub fn new(mu: usize, lambda: usize) -> Self {
        Evolutionary {
            mu,
            lambda,
            population: Vec::new(),
        }
    }
}

impl SearchStrategy for Evolutionary {
    fn name(&self) -> &'static str {
        "evolutionary"
    }

    fn propose(
        &mut self,
        space: &SpaceSpec,
        n: usize,
        remaining: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Candidate> {
        if self.population.is_empty() {
            // Bootstrap generation: uniform samples.
            let k = remaining.min(self.mu.max(self.lambda));
            return (0..k).map(|_| space.sample(n, rng)).collect();
        }
        let k = remaining.min(self.lambda);
        (0..k)
            .map(|_| {
                let a = self.population[rng.gen_range(0..self.population.len())]
                    .0
                    .clone();
                let mut child = if self.population.len() >= 2 && rng.gen_bool(0.5) {
                    let b = &self.population[rng.gen_range(0..self.population.len())].0;
                    Candidate::crossover(&a, b, rng)
                } else {
                    a
                };
                space.mutate(&mut child, n, rng);
                child
            })
            .collect()
    }

    fn observe(&mut self, scored: &[(Candidate, f64)]) {
        self.population.extend(scored.iter().cloned());
        // Stable sort: equal scores keep the earlier-evaluated
        // candidate ahead, so selection is deterministic.
        self.population
            .sort_by(|x, y| y.1.partial_cmp(&x.1).expect("scores are finite"));
        self.population.truncate(self.mu);
    }
}

/// The declarative strategy choice carried by a [`SearchSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// Seeded uniform sampling ([`RandomSearch`]).
    Random,
    /// (μ+λ) evolution ([`Evolutionary`]).
    Evolutionary {
        /// Parent population size (≥ 1).
        mu: usize,
        /// Offspring per generation (≥ 1).
        lambda: usize,
    },
}

impl StrategySpec {
    /// The CLI name of the strategy.
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Random => "random",
            StrategySpec::Evolutionary { .. } => "evolutionary",
        }
    }

    /// Instantiates the strategy.
    pub fn build(&self) -> Box<dyn SearchStrategy> {
        match *self {
            StrategySpec::Random => Box::new(RandomSearch),
            StrategySpec::Evolutionary { mu, lambda } => Box::new(Evolutionary::new(mu, lambda)),
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if let StrategySpec::Evolutionary { mu, lambda } = self {
            if *mu == 0 || *lambda == 0 {
                return Err(invalid("search strategy: mu and lambda must be >= 1"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Search spec
// ---------------------------------------------------------------------------

/// A complete, serializable search description: base scenario,
/// objective, strategy, budget, seed, and space bounds. Construct in
/// code, load from JSON, or take a [preset](presets).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpec {
    /// Identifier: prefixes candidate scenario names and names the
    /// archive.
    pub name: String,
    /// Human description of what the search hunts for.
    pub description: String,
    /// The scenario every candidate starts from; its adversary and
    /// fault plan are replaced by the candidate's.
    pub base: Scenario,
    /// What to maximize.
    pub objective: Objective,
    /// How to explore.
    pub strategy: StrategySpec,
    /// Total candidate evaluations (1 to [`MAX_SEARCH_BUDGET`]).
    pub budget: usize,
    /// Seed of the single RNG stream all proposals draw from.
    pub seed: u64,
    /// Per-candidate trial override (`None` = the base's trial count).
    #[serde(default)]
    pub trials: Option<usize>,
    /// Bounds of the sampled space.
    pub space: SpaceSpec,
}

impl SearchSpec {
    /// Validates the search: base scenario, budget, strategy, space.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violation found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(invalid("search: name must be non-empty"));
        }
        if self.budget == 0 || self.budget > MAX_SEARCH_BUDGET {
            return Err(invalid(format!(
                "search: budget must be in [1, {MAX_SEARCH_BUDGET}], got {}",
                self.budget
            )));
        }
        self.base.validate()?;
        if !matches!(
            self.base.workload,
            WorkloadSpec::LocalBroadcast { .. } | WorkloadSpec::SeedAgreement { .. }
        ) {
            return Err(invalid(
                "search: the base workload must be LocalBroadcast or SeedAgreement \
                 (ack objectives measure LBAlg's censored ack round; SeedAlg bases \
                 report no acks, so pair them with the spec-violations objective)",
            ));
        }
        if self.space.moving_jams.is_some()
            && self.space.max_jams > 0
            && self.base.mobility.is_none()
        {
            return Err(invalid(
                "search: a moving-jam space needs a mobility base (the runner \
                 resolves moving discs against each epoch's embedding)",
            ));
        }
        if !matches!(self.base.transport, TransportSpec::Sim) {
            return Err(invalid(
                "search: the base transport must be the simulator (candidates \
                 schedule dynamic adversaries a static mock-net link set cannot express)",
            ));
        }
        if self.trials == Some(0) {
            return Err(invalid("search: trials override must be >= 1"));
        }
        self.strategy.validate()?;
        self.space.validate(self.base.topology.node_count())
    }

    /// Serializes to pretty-printed JSON (the on-disk search format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("searches always serialize");
        s.push('\n');
        s
    }

    /// Parses and validates a search from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON and
    /// [`ScenarioError::Invalid`] on a well-formed but invalid search.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let spec: SearchSpec =
            serde_json::from_str(json).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Archive and driver
// ---------------------------------------------------------------------------

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchiveEntry {
    /// Evaluation index (also the candidate scenario's name suffix).
    pub index: usize,
    /// Objective score (higher = worse for the algorithm).
    pub score: f64,
    /// The full censored measurements.
    pub metrics: CandidateMetrics,
    /// The candidate itself.
    pub candidate: Candidate,
}

/// The complete, deterministic result of a search: every candidate in
/// evaluation order plus the ranking. Serialized bytes are identical
/// for every thread count (the determinism test pins this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchArchive {
    /// The search's name.
    pub search: String,
    /// The maximized objective.
    pub objective: Objective,
    /// The strategy's display name.
    pub strategy: String,
    /// Candidate evaluations performed.
    pub budget: usize,
    /// The search seed.
    pub seed: u64,
    /// Trials per candidate.
    pub trials: usize,
    /// Every evaluated candidate, in evaluation order.
    pub entries: Vec<ArchiveEntry>,
    /// Entry indices ranked best-first; ties rank the
    /// earlier-evaluated candidate first.
    pub ranking: Vec<usize>,
}

impl SearchArchive {
    /// The best candidate found.
    pub fn winner(&self) -> &ArchiveEntry {
        &self.entries[self.ranking[0]]
    }

    /// Serializes to pretty-printed JSON (the archive artifact).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("archives always serialize");
        s.push('\n');
        s
    }

    /// Parses an archive from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(json).map_err(|e| ScenarioError::Parse(e.to_string()))
    }
}

/// Runs a search to completion. Proposal is single-threaded off the
/// seeded stream; evaluation fans each batch across the [`Campaign`]
/// worker pool (`threads = None` uses the pool's default), whose
/// results are job-index-ordered — so the returned archive is
/// byte-identical for every thread count.
///
/// # Errors
///
/// Returns the first validation failure. Candidate scenarios drawn
/// from a validated space always build: a jam disc the fault compiler
/// refuses because it hits no vertex in any epoch jams nothing, so it
/// is dropped from its candidate before the candidate is evaluated.
pub fn run_search(
    spec: &SearchSpec,
    threads: Option<usize>,
) -> Result<SearchArchive, ScenarioError> {
    spec.validate()?;
    let n = spec.base.topology.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut strategy = spec.strategy.build();
    let mut entries: Vec<ArchiveEntry> = Vec::with_capacity(spec.budget);
    let compile = |candidates: &[Candidate], first: usize| {
        let scenarios = candidates
            .iter()
            .enumerate()
            .map(|(j, c)| c.apply(spec, first + j))
            .collect();
        Campaign::new(scenarios)
    };
    while entries.len() < spec.budget {
        let remaining = spec.budget - entries.len();
        let mut candidates = strategy.propose(&spec.space, n, remaining, &mut rng);
        assert!(
            !candidates.is_empty() && candidates.len() <= remaining,
            "strategy must propose 1..=remaining candidates"
        );
        let mut campaign = match compile(&candidates, entries.len()) {
            Ok(campaign) => campaign,
            Err(_) => {
                // A sampled disc can miss every node in every epoch it
                // spans, and the fault compiler refuses such a window.
                // It jams nothing, so drop it and compile once more: no
                // coin is drawn, and the archive keeps the candidates as
                // evaluated. A candidate without such a window is left
                // as it is.
                let mut bare = spec.base.clone();
                bare.faults = FaultPlanSpec::default();
                let geometry = ScenarioRunner::new(bare)?;
                let epochs = geometry.epochs();
                for c in &mut candidates {
                    c.jams.retain(|j| {
                        let alone = FaultPlanSpec {
                            jams: vec![j.clone()],
                            ..FaultPlanSpec::default()
                        };
                        alone.resolve(&epochs).is_ok()
                    });
                }
                compile(&candidates, entries.len())?
            }
        };
        if let Some(t) = threads {
            campaign = campaign.threads(t);
        }
        let report = campaign.run();
        let metrics: Vec<CandidateMetrics> = report
            .reports
            .iter()
            .map(|r| CandidateMetrics::of(&r.outcomes))
            .collect();
        let scored: Vec<(Candidate, f64)> = candidates
            .into_iter()
            .zip(&metrics)
            .map(|(c, m)| (c, spec.objective.score(m)))
            .collect();
        strategy.observe(&scored);
        for ((candidate, score), metrics) in scored.into_iter().zip(metrics) {
            entries.push(ArchiveEntry {
                index: entries.len(),
                score,
                metrics,
                candidate,
            });
        }
    }
    let mut ranking: Vec<usize> = (0..entries.len()).collect();
    ranking.sort_by(|&a, &b| {
        entries[b].score
            .partial_cmp(&entries[a].score)
            .expect("scores are finite")
            .then(a.cmp(&b))
    });
    Ok(SearchArchive {
        search: spec.name.clone(),
        objective: spec.objective,
        strategy: spec.strategy.name().to_string(),
        budget: spec.budget,
        seed: spec.seed,
        trials: spec.trials.unwrap_or(spec.base.trials),
        entries,
        ranking,
    })
}

/// Rebuilds an archived candidate as a standalone **found scenario**
/// ready for `scenarios/found/`: same execution as during the search
/// (name is not part of seeding), renamed `found-<search>-c<index>`
/// with a provenance description, blessable into the golden registry
/// like any registry entry.
pub fn found_scenario(spec: &SearchSpec, entry: &ArchiveEntry) -> Scenario {
    let mut s = entry.candidate.apply(spec, entry.index);
    s.name = format!("found-{}-c{:04}", spec.name, entry.index);
    s.description = format!(
        "found by `scenario search {}` (seed {}, {} strategy, budget {}): \
         {} = {:.2} over {} trial(s)",
        spec.name,
        spec.seed,
        spec.strategy.name(),
        spec.budget,
        spec.objective.name(),
        entry.score,
        entry.metrics.trials,
    );
    s
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

/// The search preset files, in registry order: `lb-worst`, the pinned
/// small-budget search whose archive CI reproduces byte for byte, and
/// `lb-mobile-jam`, which pins the moving-jam sampler end to end.
const FILES: &[&str] = &[
    include_str!("../../../scenarios/search/lb_worst.json"),
    include_str!("../../../scenarios/search/lb_mobile_jam.json"),
];

/// The parsed presets, built on first use.
fn registry() -> &'static [SearchSpec] {
    static REGISTRY: OnceLock<Vec<SearchSpec>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        FILES
            .iter()
            .map(|json| {
                SearchSpec::from_json(json)
                    .unwrap_or_else(|e| panic!("embedded search file is invalid: {e}"))
            })
            .collect()
    })
}

/// The registered search presets, in registry order.
pub fn presets() -> Vec<SearchSpec> {
    registry().to_vec()
}

/// Looks up a preset by name (case-insensitive).
pub fn find_preset(name: &str) -> Option<SearchSpec> {
    registry()
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SearchSpec {
        let base = crate::spec::ScenarioBuilder::new(
            "tiny",
            crate::spec::TopologySpec::Clique { n: 4, r: 1.0 },
            WorkloadSpec::LocalBroadcast {
                epsilon1: 0.25,
                senders: vec![0],
                messages_per_sender: 1,
            },
        )
        .stop(crate::spec::StopSpec::Rounds { rounds: 200 })
        .trials(1)
        .build()
        .unwrap();
        let mut space = SpaceSpec::for_horizon(200);
        space.max_jam_nodes = 3;
        SearchSpec {
            name: "tiny".into(),
            description: String::new(),
            base,
            objective: Objective::MeanAckLatency,
            strategy: StrategySpec::Random,
            budget: 3,
            seed: 7,
            trials: None,
            space,
        }
    }

    #[test]
    fn presets_validate() {
        for p in presets() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
        assert!(find_preset("LB-WORST").is_some());
        assert!(find_preset("nope").is_none());
    }

    #[test]
    fn sampled_candidates_build_valid_scenarios() {
        let spec = tiny_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for i in 0..50 {
            let c = spec.space.sample(4, &mut rng);
            let s = c.apply(&spec, i);
            s.validate().unwrap_or_else(|e| panic!("candidate {i}: {e}"));
        }
    }

    #[test]
    fn mutation_stays_in_bounds() {
        let spec = tiny_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let mut c = spec.space.sample(4, &mut rng);
        for i in 0..200 {
            spec.space.mutate(&mut c, 4, &mut rng);
            let s = c.apply(&spec, i);
            s.validate().unwrap_or_else(|e| panic!("mutation {i}: {e}"));
            assert!(c.crashes.len() <= spec.space.max_crashes);
            assert!(c.jams.len() <= spec.space.max_jams);
            assert!(c.drops.len() <= spec.space.max_drops);
        }
    }

    #[test]
    fn censoring_makes_every_candidate_scoreable() {
        use radio_sim::trace::RoundStats;
        let outcome = |first_ack: Option<u64>, spec_ok: bool| TrialOutcome {
            master_seed: 1,
            rounds: 100,
            acks: usize::from(first_ack.is_some()),
            recvs: 0,
            totals: RoundStats::default(),
            first_ack,
            first_delivery: None,
            stop_satisfied: true,
            max_owners: None,
            jammed_recvs: None,
            clear_recvs: None,
            spec_ok,
        };
        let m = CandidateMetrics::of(&[outcome(Some(40), true), outcome(None, false)]);
        assert_eq!(m.mean_ack, 70.0);
        assert_eq!(m.ack_trials, 1);
        assert_eq!(m.spec_violation_rate, 0.5);
        assert_eq!(Objective::SpecViolationRate.score(&m), 0.5);
    }

    #[test]
    fn search_runs_and_ranks() {
        let spec = tiny_spec();
        let archive = run_search(&spec, Some(1)).unwrap();
        assert_eq!(archive.entries.len(), 3);
        assert_eq!(archive.ranking.len(), 3);
        let w = archive.winner();
        assert!(archive.entries.iter().all(|e| e.score <= w.score));
        // Archive JSON round-trips.
        let back = SearchArchive::from_json(&archive.to_json()).unwrap();
        assert_eq!(back, archive);
        // Found scenarios are valid standalone files.
        let found = found_scenario(&spec, w);
        Scenario::from_json(&found.to_json()).unwrap();
        assert!(found.name.starts_with("found-tiny-c"));
    }

    #[test]
    fn evolutionary_strategy_is_exercised() {
        let mut spec = tiny_spec();
        spec.strategy = StrategySpec::Evolutionary { mu: 2, lambda: 2 };
        spec.budget = 6;
        let archive = run_search(&spec, Some(2)).unwrap();
        assert_eq!(archive.entries.len(), 6);
        assert_eq!(archive.strategy, "evolutionary");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = tiny_spec();
        s.budget = 0;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.budget = MAX_SEARCH_BUDGET + 1;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.space.adversaries.clear();
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.space.drop_p_max = 1.5;
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.strategy = StrategySpec::Evolutionary { mu: 0, lambda: 1 };
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.base.workload = WorkloadSpec::Decay { senders: vec![0] };
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.trials = Some(0);
        assert!(s.validate().is_err());
        // Moving-jam spaces demand a mobility base and sane bounds.
        let mut s = tiny_spec();
        s.space.moving_jams = Some(MovingJamSpace {
            arena_side: 3.0,
            radius: 1.0,
            velocity: 0.01,
        });
        assert!(s.validate().is_err(), "static base must reject moving jams");
        let mut s = find_preset("lb-mobile-jam").unwrap();
        s.space.moving_jams = Some(MovingJamSpace {
            arena_side: 3.0,
            radius: 0.0,
            velocity: 0.01,
        });
        assert!(s.validate().is_err(), "zero-radius disc space");
        let mut s = find_preset("lb-mobile-jam").unwrap();
        s.space.moving_jams = Some(MovingJamSpace {
            arena_side: 3.0,
            radius: 1.0,
            velocity: f64::NAN,
        });
        assert!(s.validate().is_err(), "non-finite velocity bound");
    }

    /// Satellite of the dynamic-geometry work: SeedAlg bases are legal
    /// search subjects. They report no acks (every ack objective sees
    /// the censoring bound), so the meaningful pairing is the
    /// spec-violation objective — and the archive stays byte-identical
    /// across thread counts like any other search.
    #[test]
    fn seed_agreement_bases_search_deterministically() {
        let base = crate::spec::ScenarioBuilder::new(
            "seed-tiny",
            crate::spec::TopologySpec::Clique { n: 4, r: 1.0 },
            WorkloadSpec::SeedAgreement {
                epsilon1: 0.25,
                seed_bits: 8,
            },
        )
        .stop(crate::spec::StopSpec::Rounds { rounds: 150 })
        .trials(1)
        .base_seed(77)
        .build()
        .unwrap();
        let mut space = SpaceSpec::for_horizon(150);
        space.max_jam_nodes = 3;
        let spec = SearchSpec {
            name: "seed-tiny".into(),
            description: String::new(),
            base,
            objective: Objective::SpecViolationRate,
            strategy: StrategySpec::Random,
            budget: 4,
            seed: 21,
            trials: None,
            space,
        };
        spec.validate().unwrap();
        let a = run_search(&spec, Some(1)).unwrap();
        let b = run_search(&spec, Some(3)).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.entries.len(), 4);
        // Censoring keeps ack-less SeedAlg trials scoreable.
        assert!(a.entries.iter().all(|e| e.metrics.mean_ack.is_finite()));
    }

    /// The pinned moving-jam preset actually samples drifting discs:
    /// every candidate's jams are disc regions, at least one drifts,
    /// and the search runs to completion (no disc misses every epoch).
    #[test]
    fn mobile_jam_preset_samples_moving_discs() {
        let spec = find_preset("lb-mobile-jam").unwrap();
        let archive = run_search(&spec, Some(2)).unwrap();
        assert_eq!(archive.entries.len(), spec.budget);
        let jams: Vec<&JamSpec> = archive
            .entries
            .iter()
            .flat_map(|e| &e.candidate.jams)
            .collect();
        assert!(!jams.is_empty(), "budget 6 should sample some jam windows");
        assert!(jams
            .iter()
            .all(|j| matches!(j.region, RegionSpec::Disc { .. })));
        assert!(jams.iter().any(|j| j.is_moving()), "discs should drift");
        let back = SearchArchive::from_json(&archive.to_json()).unwrap();
        assert_eq!(back, archive);
    }

    /// A sampled disc can miss all 16 moving nodes in every epoch it
    /// spans; at budget 20 the preset seed and seeds 1, 6 and 8 each
    /// draw one. The window jams nothing, so the search drops it and
    /// carries on, byte-identically at any thread count, and archives
    /// only candidates that compile.
    #[test]
    fn mobile_jam_search_drops_discs_that_miss_the_deployment() {
        let preset = find_preset("lb-mobile-jam").unwrap();
        for seed in [preset.seed, 1, 6, 8] {
            let spec = SearchSpec {
                budget: 20,
                seed,
                ..preset.clone()
            };
            let archive = run_search(&spec, Some(1)).unwrap();
            assert_eq!(archive.entries.len(), 20, "seed {seed}");
            let threaded = run_search(&spec, Some(2)).unwrap();
            assert_eq!(archive.to_json(), threaded.to_json(), "seed {seed}");
            for entry in &archive.entries {
                let found = found_scenario(&spec, entry);
                ScenarioRunner::new(found)
                    .unwrap_or_else(|e| panic!("seed {seed}, c{:04}: {e}", entry.index));
            }
        }
    }

    #[test]
    fn search_spec_json_roundtrip() {
        let spec = find_preset("lb-worst").unwrap();
        let back = SearchSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }
}
