//! Parameter-sweep families: one base scenario expanded over a grid.
//!
//! The paper's headline claims are *curves*, not points — ack latency
//! vs. churn rate, throughput vs. loss-burst length. A [`SweepSpec`]
//! makes such a curve a single declarative value: one base
//! [`Scenario`] plus up to three named axes, each axis a list of
//! labelled [`OverrideSpec`] points. [`SweepSpec::expand`] validates
//! the family and produces the full cross-product of concrete
//! scenarios with deterministic derived names
//! (`churn@period=240,adv=0.5`), which feed the existing [`Campaign`]
//! job-flattening pool unchanged — a 5×3 grid parallelizes across all
//! points and trials at once.
//!
//! [`SweepReport`] pivots the campaign outcomes back into per-axis
//! curve tables (markdown and CSV), and the golden-metric gate applies
//! per expanded point: a sweep pins a small subset of its grid
//! ([`SweepSpec::pinned`]) whose blessed metrics `scenario sweep
//! --check` re-measures, so every checked-in curve is regression-gated
//! by the same machinery as single scenarios.
//!
//! The sweep registry ([`sweeps`]) is the files under
//! `scenarios/sweeps/`, embedded at compile time and parsed once per
//! process: `churn-knee` (crash/recover-rate grid over the `churn`
//! base — the §4.2 preamble-amortization knee), `loss-grid`
//! (`drops.p` × burst length over `drop-burst`, `LBAlg` vs. the Decay
//! baseline), `mobility-knee` (geometry-epoch length × node speed over
//! `mobility` — the epoch-staleness quantization curve), and
//! `scale-curve` (node count up to 50k × link-inclusion probability on
//! a constant-density deployment — the scale-out throughput curve the
//! cell-grid topology builder makes practical).
//! `docs/scenarios.md` explains how each base is re-aimed.

use crate::campaign::{Campaign, CampaignReport, MeasuredMetrics};
use crate::spec::{
    AdversarySpec, CrashSpec, DropSpec, JamSpec, Scenario, ScenarioError, StopSpec, TopologySpec,
    WorkloadSpec, MAX_STOP_ROUNDS,
};
use analysis::report::markdown_report;
use analysis::table::{fnum, Table};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

/// Most points a single sweep may expand to — large enough for any
/// real curve family, small enough that a typo'd axis cannot request
/// an effectively unbounded campaign.
pub const MAX_SWEEP_POINTS: usize = 1024;

/// Most axes a sweep may have (derived names and pivot tables are
/// designed for at most a 3-dimensional grid).
pub const MAX_SWEEP_AXES: usize = 3;

/// Most crash windows one `Churn` override may generate (nodes × cycles)
/// — checked before the list is built, so a one-round period over a
/// long window is refused instead of allocating millions of entries.
pub const MAX_CHURN_WINDOWS: u64 = 100_000;

// ---------------------------------------------------------------------------
// Overrides
// ---------------------------------------------------------------------------

/// One JSON-expressible modification of the base scenario. An axis
/// point applies a list of these in order; later overrides see the
/// effect of earlier ones (within a point, and across axes in axis
/// order).
///
/// Field-level overrides (`DropP`, `DropLen`, `AdversaryP`) **reject**
/// bases they cannot affect — a sweep that claims to vary the drop
/// probability of a plan with no drop bursts would silently sweep
/// nothing, exactly the failure mode the disc-region validation fix
/// closes for jam regions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OverrideSpec {
    /// Sets the Monte-Carlo trial count.
    Trials {
        /// New trial count (≥ 1; validated by scenario validation).
        trials: usize,
    },
    /// Sets the master seed of trial 0.
    BaseSeed {
        /// New base seed.
        base_seed: u64,
    },
    /// Replaces the topology family.
    Topology {
        /// New topology.
        topology: TopologySpec,
    },
    /// Replaces the adversary schedule.
    Adversary {
        /// New adversary.
        adversary: AdversarySpec,
    },
    /// Replaces the workload.
    Workload {
        /// New workload.
        workload: WorkloadSpec,
    },
    /// Replaces the stop condition.
    Stop {
        /// New stop condition.
        stop: StopSpec,
    },
    /// Replaces the crash/recover list.
    Crashes {
        /// New crash events.
        crashes: Vec<CrashSpec>,
    },
    /// Replaces the jamming-window list.
    Jams {
        /// New jam windows.
        jams: Vec<JamSpec>,
    },
    /// Replaces the drop-burst list.
    Drops {
        /// New drop bursts.
        drops: Vec<DropSpec>,
    },
    /// Sets the drop probability of **every** drop burst in the plan.
    /// Rejected when the plan has no drop bursts.
    DropP {
        /// New per-reception drop probability.
        p: f64,
    },
    /// Sets the length of **every** drop burst in the plan
    /// (`to = from + len − 1`). Rejected when the plan has no drop
    /// bursts.
    DropLen {
        /// New burst length in rounds (≥ 1).
        len: u64,
    },
    /// Sets the inclusion probability of a randomized adversary
    /// (`Bernoulli` or `EpochRandom`). Rejected for any other base
    /// adversary — the sweep would otherwise claim an adversary axis
    /// while varying nothing.
    AdversaryP {
        /// New per-round (or per-epoch) inclusion probability.
        p: f64,
    },
    /// Rescales the topology's node count: sets `n` on a base whose
    /// family takes an explicit node-count parameter (`Line`, `Ring`,
    /// `Clique`, `RandomGeometric`, `ConstantDensity`). Rejected for
    /// composite families (`Grid`, `GreySandwich`, …) whose size is the
    /// product or sum of several fields — a "size" axis that silently
    /// left them unscaled is the same no-op failure mode the field
    /// overrides above reject.
    Size {
        /// New node count (≥ 1; validated by scenario validation).
        n: usize,
    },
    /// Replaces the crash list with **periodic churn**: each node in
    /// `nodes` is down for `down` rounds at the start of every
    /// `period`-round cycle, beginning at round `start` and repeating
    /// while the cycle starts at or before `until`. `down: 0` clears
    /// the crash list (the no-churn grid point).
    Churn {
        /// The power-cycling vertices.
        nodes: Vec<usize>,
        /// Cycle length in rounds (≥ 1).
        period: u64,
        /// Down rounds per cycle (≤ `period`; 0 = no churn).
        down: u64,
        /// First round (1-based) of the first down window.
        start: u64,
        /// Last round a down window may start at.
        until: u64,
        /// Recovery semantics of every generated window: `false` (the
        /// default) is power-save churn, `true` a volatile-memory
        /// crash-restart (see [`CrashSpec::restart`]) — so a sweep can
        /// put the two recovery models side by side as axis points.
        #[serde(default)]
        restart: bool,
    },
    /// Sets the geometry-epoch length of a mobility base. Rejected
    /// when the base has no [`MobilitySpec`](crate::spec::MobilitySpec)
    /// — an epoch axis over a static scenario would sweep nothing.
    EpochRounds {
        /// New epoch length in rounds (≥ 1; validated by scenario
        /// validation against the horizon and the epoch cap).
        epoch_rounds: u64,
    },
    /// Sets the random-waypoint node speed of a mobility base (arena
    /// units per round; 0 parks the deployment while keeping the
    /// epoch machinery live). Rejected when the base has no mobility.
    MobilitySpeed {
        /// New node speed (≥ 0; validated by scenario validation).
        speed: f64,
    },
}

impl OverrideSpec {
    /// Applies this override to `s`.
    fn apply(&self, s: &mut Scenario) -> Result<(), ScenarioError> {
        match self {
            OverrideSpec::Trials { trials } => s.trials = *trials,
            OverrideSpec::BaseSeed { base_seed } => s.base_seed = *base_seed,
            OverrideSpec::Topology { topology } => s.topology = topology.clone(),
            OverrideSpec::Adversary { adversary } => s.adversary = adversary.clone(),
            OverrideSpec::Workload { workload } => s.workload = workload.clone(),
            OverrideSpec::Stop { stop } => s.stop = stop.clone(),
            OverrideSpec::Crashes { crashes } => s.faults.crashes = crashes.clone(),
            OverrideSpec::Jams { jams } => s.faults.jams = jams.clone(),
            OverrideSpec::Drops { drops } => s.faults.drops = drops.clone(),
            OverrideSpec::DropP { p } => {
                if s.faults.drops.is_empty() {
                    return Err(invalid(
                        "sweep: DropP override on a base with no drop bursts sweeps nothing",
                    ));
                }
                for d in &mut s.faults.drops {
                    d.p = *p;
                }
            }
            OverrideSpec::DropLen { len } => {
                if s.faults.drops.is_empty() {
                    return Err(invalid(
                        "sweep: DropLen override on a base with no drop bursts sweeps nothing",
                    ));
                }
                if *len == 0 || *len > MAX_STOP_ROUNDS {
                    return Err(invalid(format!(
                        "sweep: drop-burst length must be in [1, {MAX_STOP_ROUNDS}], got {len}"
                    )));
                }
                for d in &mut s.faults.drops {
                    d.to = d.from.saturating_add(len - 1);
                }
            }
            OverrideSpec::AdversaryP { p } => match &mut s.adversary {
                AdversarySpec::Bernoulli { p: base } | AdversarySpec::EpochRandom { p: base, .. } => {
                    *base = *p;
                }
                other => {
                    return Err(invalid(format!(
                        "sweep: AdversaryP override needs a Bernoulli or EpochRandom base \
                         adversary, got {}",
                        other.name()
                    )));
                }
            },
            OverrideSpec::Size { n } => match &mut s.topology {
                TopologySpec::Line { n: base, .. }
                | TopologySpec::Ring { n: base, .. }
                | TopologySpec::Clique { n: base, .. }
                | TopologySpec::RandomGeometric { n: base, .. }
                | TopologySpec::ConstantDensity { n: base, .. } => *base = *n,
                _ => {
                    return Err(invalid(
                        "sweep: Size override needs a topology with an explicit node \
                         count (Line, Ring, Clique, RandomGeometric, ConstantDensity)",
                    ));
                }
            },
            OverrideSpec::Churn {
                nodes,
                period,
                down,
                start,
                until,
                restart,
            } => {
                if *period == 0 || *period > MAX_STOP_ROUNDS {
                    return Err(invalid(format!(
                        "sweep: churn period must be in [1, {MAX_STOP_ROUNDS}], got {period}"
                    )));
                }
                if down > period {
                    return Err(invalid(format!(
                        "sweep: churn down time {down} exceeds the period {period}"
                    )));
                }
                // `start > until` would generate an *empty* crash list
                // — a grid point claiming churn while injecting
                // nothing, the same no-op failure mode the field
                // overrides above reject.
                if *start == 0 || *start > *until || *until > MAX_STOP_ROUNDS {
                    return Err(invalid(format!(
                        "sweep: churn window must satisfy 1 <= start <= until \
                         <= {MAX_STOP_ROUNDS}, got [{start}, {until}]"
                    )));
                }
                if nodes.is_empty() {
                    return Err(invalid(
                        "sweep: churn needs >= 1 node (use down = 0 for a no-churn point)",
                    ));
                }
                let cycles = (until - start) / period + 1;
                let windows = (nodes.len() as u64).saturating_mul(cycles);
                if *down > 0 && windows > MAX_CHURN_WINDOWS {
                    return Err(invalid(format!(
                        "sweep: churn would generate {windows} crash windows ({} node(s) × \
                         {cycles} cycle(s)), more than the cap of {MAX_CHURN_WINDOWS}",
                        nodes.len()
                    )));
                }
                let mut crashes = Vec::new();
                if *down > 0 {
                    for &node in nodes {
                        let mut t = *start;
                        while t <= *until {
                            crashes.push(CrashSpec {
                                node,
                                down_from: t,
                                up_at: Some(t + down),
                                restart: *restart,
                            });
                            t += period;
                        }
                    }
                }
                s.faults.crashes = crashes;
            }
            OverrideSpec::EpochRounds { epoch_rounds } => match &mut s.mobility {
                Some(m) => m.epoch_rounds = *epoch_rounds,
                None => {
                    return Err(invalid(
                        "sweep: EpochRounds override on a base without mobility sweeps \
                         nothing",
                    ));
                }
            },
            OverrideSpec::MobilitySpeed { speed } => match &mut s.mobility {
                Some(m) => m.speed = *speed,
                None => {
                    return Err(invalid(
                        "sweep: MobilitySpeed override on a base without mobility sweeps \
                         nothing",
                    ));
                }
            },
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sweep spec
// ---------------------------------------------------------------------------

/// One labelled point on a sweep axis: the label names the point in
/// derived scenario names and curve tables; `set` is the override list
/// the point applies (empty = the base itself, useful for baseline
/// points such as an `alg=lb` arm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Value label (`0.3`, `64`, `decay`, …); must be unique within
    /// the axis and use only `[A-Za-z0-9._+-]`.
    pub label: String,
    /// Overrides applied at this point, in order.
    pub set: Vec<OverrideSpec>,
}

/// A named sweep axis: an ordered list of points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepAxis {
    /// Axis name (`p`, `burst`, `period`, …); appears in derived
    /// scenario names (`<base>@<axis>=<label>,…`) and table headers.
    pub axis: String,
    /// The axis points, in curve order.
    pub points: Vec<SweepPoint>,
}

/// A declarative parameter-sweep family. See the module docs;
/// construct in code or load via [`SweepSpec::from_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Identifier (sweep-registry key / report caption).
    pub name: String,
    /// Human description of the curve the sweep draws.
    pub description: String,
    /// The base scenario every grid point starts from.
    pub base: Scenario,
    /// The named axes (1 to [`MAX_SWEEP_AXES`]); the grid is their
    /// cross-product, expanded row-major (first axis outermost).
    pub axes: Vec<SweepAxis>,
    /// Per-point trial override applied before any axis override
    /// (`None` = keep the base scenario's trial count).
    #[serde(default)]
    pub trials: Option<usize>,
    /// Derived names of the grid points the golden gate pins
    /// (`scenario sweep --check`/`--bless` run exactly this subset;
    /// empty = gate every point).
    #[serde(default)]
    pub pinned: Vec<String>,
}

/// Axis names and point labels must render safely into derived
/// scenario names (which become golden file names and CSV cells).
fn check_token(what: &str, token: &str) -> Result<(), ScenarioError> {
    if token.is_empty() {
        return Err(invalid(format!("sweep: {what} must be non-empty")));
    }
    if !token
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-'))
    {
        return Err(invalid(format!(
            "sweep: {what} {token:?} may only use [A-Za-z0-9._+-]"
        )));
    }
    Ok(())
}

impl SweepSpec {
    /// Validates the family without materializing the grid.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violation (see [`SweepSpec::expand`]).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.expand().map(|_| ())
    }

    /// Serializes to pretty-printed JSON (the on-disk sweep format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("sweep specs always serialize");
        s.push('\n');
        s
    }

    /// Parses and validates a sweep spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON and
    /// [`ScenarioError::Invalid`] on a well-formed but invalid sweep.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let spec: SweepSpec =
            serde_json::from_str(json).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    fn validate_shape(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(invalid("sweep: name must be non-empty"));
        }
        self.base.validate()?;
        if self.axes.is_empty() || self.axes.len() > MAX_SWEEP_AXES {
            return Err(invalid(format!(
                "sweep: needs 1 to {MAX_SWEEP_AXES} axes, got {}",
                self.axes.len()
            )));
        }
        for (i, axis) in self.axes.iter().enumerate() {
            check_token("axis name", &axis.axis)?;
            if self.axes[..i].iter().any(|a| a.axis == axis.axis) {
                return Err(invalid(format!("sweep: duplicate axis {:?}", axis.axis)));
            }
            if axis.points.is_empty() {
                return Err(invalid(format!("sweep: axis {:?} has no points", axis.axis)));
            }
            for (j, pt) in axis.points.iter().enumerate() {
                check_token(&format!("axis {:?} point label", axis.axis), &pt.label)?;
                if axis.points[..j].iter().any(|q| q.label == pt.label) {
                    return Err(invalid(format!(
                        "sweep: axis {:?} has duplicate label {:?}",
                        axis.axis, pt.label
                    )));
                }
            }
        }
        let total: usize = self.axes.iter().map(|a| a.points.len()).product();
        if total > MAX_SWEEP_POINTS {
            return Err(invalid(format!(
                "sweep: grid has {total} points, more than the {MAX_SWEEP_POINTS} cap"
            )));
        }
        Ok(())
    }

    /// Expands the cross-product into concrete, validated scenarios
    /// with deterministic derived names, row-major (first axis
    /// outermost). Expansion is a pure function of the spec: repeated
    /// calls yield identical grids, and permuting an axis's points
    /// permutes the grid without changing any derived scenario.
    ///
    /// # Errors
    ///
    /// Returns the first violation: a malformed shape (empty/duplicate
    /// axis or label, illegal characters, too many points), an
    /// override that cannot apply to the base (e.g. [`OverrideSpec::DropP`]
    /// with no drop bursts), an expanded scenario that fails
    /// [`Scenario::validate`], or a [`SweepSpec::pinned`] name that
    /// matches no grid point.
    pub fn expand(&self) -> Result<SweepGrid, ScenarioError> {
        self.validate_shape()?;
        let dims: Vec<usize> = self.axes.iter().map(|a| a.points.len()).collect();
        let total: usize = dims.iter().product();
        let mut points = Vec::with_capacity(total);
        let mut coords = vec![0usize; dims.len()];
        for _ in 0..total {
            let mut scenario = self.base.clone();
            if let Some(t) = self.trials {
                scenario.trials = t;
            }
            let mut parts = Vec::with_capacity(dims.len());
            for (ai, axis) in self.axes.iter().enumerate() {
                let pt = &axis.points[coords[ai]];
                parts.push(format!("{}={}", axis.axis, pt.label));
                for ov in &pt.set {
                    ov.apply(&mut scenario).map_err(|e| {
                        invalid(format!(
                            "sweep {}: point {}={}: {e}",
                            self.name, axis.axis, pt.label
                        ))
                    })?;
                }
            }
            let joined = parts.join(",");
            scenario.name = format!("{}@{}", self.base.name, joined);
            scenario.description =
                format!("{} (sweep {} point {joined})", self.base.description, self.name);
            scenario.validate().map_err(|e| {
                invalid(format!("sweep {}: point {joined}: {e}", self.name))
            })?;
            points.push(GridPoint {
                coords: coords.clone(),
                labels: coords
                    .iter()
                    .zip(&self.axes)
                    .map(|(&c, a)| a.points[c].label.clone())
                    .collect(),
                scenario,
            });
            // Row-major increment: last axis varies fastest.
            for ai in (0..dims.len()).rev() {
                coords[ai] += 1;
                if coords[ai] < dims[ai] {
                    break;
                }
                coords[ai] = 0;
            }
        }
        for (i, name) in self.pinned.iter().enumerate() {
            if !points.iter().any(|p| &p.scenario.name == name) {
                return Err(invalid(format!(
                    "sweep {}: pinned name {name:?} matches no grid point",
                    self.name
                )));
            }
            if self.pinned[..i].contains(name) {
                return Err(invalid(format!(
                    "sweep {}: duplicate pinned name {name:?}",
                    self.name
                )));
            }
        }
        Ok(SweepGrid {
            spec: self.clone(),
            points,
        })
    }
}

// ---------------------------------------------------------------------------
// Expanded grid
// ---------------------------------------------------------------------------

/// One expanded grid point: its per-axis coordinates and labels, and
/// the concrete validated scenario.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Per-axis point index (row-major position in the grid).
    pub coords: Vec<usize>,
    /// Per-axis point label, in axis order.
    pub labels: Vec<String>,
    /// The concrete scenario (derived name, overrides applied).
    pub scenario: Scenario,
}

/// The materialized cross-product of a [`SweepSpec`].
#[derive(Debug, Clone)]
pub struct SweepGrid {
    spec: SweepSpec,
    points: Vec<GridPoint>,
}

impl SweepGrid {
    /// The spec this grid expanded from.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The expanded points, row-major (first axis outermost).
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty (never true for a validated spec).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The expanded scenarios, in grid order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.points.iter().map(|p| p.scenario.clone()).collect()
    }

    /// The grid restricted to the spec's pinned subset (the whole grid
    /// when no names are pinned) — what `--check`/`--bless` run.
    pub fn pinned(&self) -> SweepGrid {
        if self.spec.pinned.is_empty() {
            return self.clone();
        }
        SweepGrid {
            spec: self.spec.clone(),
            points: self
                .points
                .iter()
                .filter(|p| self.spec.pinned.contains(&p.scenario.name))
                .cloned()
                .collect(),
        }
    }

    /// A campaign over this grid's scenarios: every *(point, trial)*
    /// pair flattens onto one worker pool, so the whole grid
    /// parallelizes at once.
    ///
    /// # Errors
    ///
    /// Propagates [`Campaign::new`] validation (cannot fail for a grid
    /// from [`SweepSpec::expand`]).
    pub fn campaign(&self) -> Result<Campaign, ScenarioError> {
        Campaign::new(self.scenarios())
    }
}

// ---------------------------------------------------------------------------
// Sweep report
// ---------------------------------------------------------------------------

/// Per-point measured summary metrics, pivoted from a campaign run.
struct SweepRow {
    labels: Vec<String>,
    scenario: String,
    trials: usize,
    m: MeasuredMetrics,
}

/// A metric extractor over one sweep row (curve pivots and charts).
type MetricGetter = fn(&SweepRow) -> Option<f64>;

/// One summary value of a grid point, before rendering.
enum Value {
    Count(usize),
    Mean(Option<f64>),
    Round(Option<u64>),
}

impl Value {
    /// The display cell rounds means (`fnum`) and marks an absent value
    /// with `—`; the CSV cell carries full precision and leaves an
    /// absent value empty.
    fn render(&self, csv: bool) -> String {
        match *self {
            Value::Count(c) => c.to_string(),
            Value::Mean(Some(v)) if csv => v.to_string(),
            Value::Mean(Some(v)) => fnum(v),
            Value::Round(Some(r)) => r.to_string(),
            Value::Mean(None) | Value::Round(None) if csv => String::new(),
            Value::Mean(None) | Value::Round(None) => "—".into(),
        }
    }
}

/// A summary column: its header and its value in one sweep row.
type Column = (&'static str, fn(&SweepRow) -> Value);

/// The summary columns of the long table and the CSV, in order.
const SUMMARY: [Column; 14] = [
    ("trials", |r| Value::Count(r.trials)),
    ("spec_ok_rate", |r| Value::Mean(Some(r.m.spec_ok_rate))),
    ("acks", |r| Value::Mean(Some(r.m.acks))),
    ("deliveries", |r| Value::Mean(Some(r.m.deliveries))),
    ("ack_latency", |r| Value::Mean(r.m.ack_latency)),
    ("ack_trials", |r| Value::Count(r.m.ack_trials)),
    ("delivery_latency", |r| Value::Mean(r.m.delivery_latency)),
    ("delivery_trials", |r| Value::Count(r.m.delivery_trials)),
    ("ack_p50", |r| Value::Round(r.m.ack_p50)),
    ("ack_p95", |r| Value::Round(r.m.ack_p95)),
    ("ack_p99", |r| Value::Round(r.m.ack_p99)),
    ("delivery_p50", |r| Value::Round(r.m.delivery_p50)),
    ("delivery_p95", |r| Value::Round(r.m.delivery_p95)),
    ("delivery_p99", |r| Value::Round(r.m.delivery_p99)),
];

/// A sweep's outcome tables: the long-format grid table (the CSV
/// schema) and per-metric curve pivots (last axis across the columns).
pub struct SweepReport {
    name: String,
    description: String,
    axes: Vec<String>,
    /// Per-axis label lists, in axis order (drives pivot layout).
    axis_labels: Vec<Vec<String>>,
    rows: Vec<SweepRow>,
}

impl SweepReport {
    /// Pivots a campaign run back onto the grid. Points absent from
    /// the report (e.g. a pinned-subset run against the full grid)
    /// render as `—` cells in the pivots and are omitted from the
    /// long table.
    pub fn new(grid: &SweepGrid, report: &CampaignReport) -> Self {
        let spec = grid.spec();
        let rows = grid
            .points()
            .iter()
            .filter_map(|p| {
                let r = report
                    .reports
                    .iter()
                    .find(|r| r.scenario.name == p.scenario.name)?;
                Some(SweepRow {
                    labels: p.labels.clone(),
                    scenario: p.scenario.name.clone(),
                    trials: r.outcomes.len(),
                    m: MeasuredMetrics::of(r),
                })
            })
            .collect();
        SweepReport {
            name: spec.name.clone(),
            description: spec.description.clone(),
            axes: spec.axes.iter().map(|a| a.axis.clone()).collect(),
            axis_labels: spec
                .axes
                .iter()
                .map(|a| a.points.iter().map(|p| p.label.clone()).collect())
                .collect(),
            rows,
        }
    }

    /// The header, then one row per measured point: the point's name,
    /// its axis labels, then the [`SUMMARY`] columns rendered for
    /// display or for CSV.
    fn grid(&self, csv: bool) -> (Vec<String>, Vec<Vec<String>>) {
        let mut headers = vec!["point".to_string()];
        headers.extend(self.axes.iter().cloned());
        headers.extend(SUMMARY.iter().map(|(name, _)| name.to_string()));
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![r.scenario.clone()];
                row.extend(r.labels.iter().cloned());
                row.extend(SUMMARY.iter().map(|(_, value)| value(r).render(csv)));
                row
            })
            .collect();
        (headers, rows)
    }

    /// The long-format grid table: one row per measured point, one
    /// column per axis, then the summary metrics. `to_csv` of this
    /// table is the sweep CSV schema.
    pub fn long_table(&self) -> Table {
        let (headers, rows) = self.grid(false);
        let mut t = Table::new(
            format!("{}-grid", self.name),
            format!("sweep {}: all measured grid points", self.name),
            self.description.clone(),
            headers.iter().map(String::as_str).collect(),
        );
        for row in rows {
            t.push_row(row);
        }
        t
    }

    /// The CSV artifact: the [`SweepReport::long_table`] schema (same
    /// header, same row order), but with **full-precision** values
    /// (shortest round-trip `f64` formatting) and **empty cells** for
    /// unmeasured metrics. The rounded `fnum` rendering and `—` dashes
    /// are display conventions for the markdown and terminal tables
    /// only — a consumer fitting curves from the CSV needs the raw
    /// means, and an em-dash cell forces every column to be parsed as
    /// text.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let (headers, rows) = self.grid(true);
        let mut out = String::new();
        for row in std::iter::once(headers).chain(rows) {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Looks up a measured metric by exact label coordinates.
    fn cell(&self, labels: &[String], metric: impl Fn(&SweepRow) -> Option<f64>) -> String {
        self.rows
            .iter()
            .find(|r| r.labels == labels)
            .and_then(&metric)
            .map_or("—".into(), fnum)
    }

    /// The per-metric curve getters, in pivot/chart order.
    fn metrics() -> [(&'static str, MetricGetter); 5] {
        [
            ("ack_latency", |r| r.m.ack_latency),
            ("delivery_latency", |r| r.m.delivery_latency),
            ("acks", |r| Some(r.m.acks)),
            ("deliveries", |r| Some(r.m.deliveries)),
            ("spec_ok_rate", |r| Some(r.m.spec_ok_rate)),
        ]
    }

    /// Every combination of leading-axis labels, row-major; one empty
    /// combination when there are no leading axes.
    fn lead_combos(&self) -> Vec<Vec<String>> {
        let mut combos: Vec<Vec<String>> = vec![Vec::new()];
        for labels in &self.axis_labels[..self.axes.len() - 1] {
            combos = combos
                .iter()
                .flat_map(|combo| {
                    labels.iter().map(move |l| {
                        let mut c = combo.clone();
                        c.push(l.clone());
                        c
                    })
                })
                .collect();
        }
        combos
    }

    /// Per-metric curve pivots: the **last axis runs across the
    /// columns**, every combination of the leading axes is a row. For
    /// a 1-axis sweep the long table already is the curve, so this
    /// returns one single-row pivot per metric.
    pub fn curve_tables(&self) -> Vec<Table> {
        let metrics = Self::metrics();
        let (lead_axes, col_axis) = self.axes.split_at(self.axes.len() - 1);
        let col_labels = &self.axis_labels[self.axes.len() - 1];
        let lead_combos = self.lead_combos();
        metrics
            .iter()
            .map(|(metric, get)| {
                let mut headers: Vec<&str> = lead_axes.iter().map(|a| a.as_str()).collect();
                if headers.is_empty() {
                    headers.push("sweep");
                }
                let col_headers: Vec<String> = col_labels
                    .iter()
                    .map(|l| format!("{}={l}", col_axis[0]))
                    .collect();
                headers.extend(col_headers.iter().map(String::as_str));
                let mut t = Table::new(
                    format!("{}-{metric}", self.name),
                    format!("sweep {}: {metric} curve", self.name),
                    format!("{metric} per grid point; columns sweep the {} axis", col_axis[0]),
                    headers,
                );
                for combo in &lead_combos {
                    let mut row: Vec<String> = if combo.is_empty() {
                        vec![self.name.clone()]
                    } else {
                        combo.clone()
                    };
                    for col in col_labels {
                        let mut labels = combo.clone();
                        labels.push(col.clone());
                        row.push(self.cell(&labels, get));
                    }
                    t.push_row(row);
                }
                t
            })
            .collect()
    }

    /// Renders the sweep as one markdown document: the grid table,
    /// then the curve pivots. Byte-identical across runs and thread
    /// counts.
    pub fn to_markdown(&self) -> String {
        let sections = vec![
            ("Grid".to_string(), vec![self.long_table()]),
            ("Curves".to_string(), self.curve_tables()),
        ];
        markdown_report(
            &format!("Sweep report: {}", self.name),
            &format!(
                "{} — {} measured point(s), axes: {}.",
                self.description,
                self.rows.len(),
                self.axes.join(" × "),
            ),
            &sections,
        )
    }

    /// ASCII line charts of the curve pivots (the `--plot` rendering):
    /// one chart per metric, the last axis across the x positions, one
    /// lettered series per leading-axis combination, linear
    /// interpolation dots between measured points. Pure ASCII and
    /// byte-identical across runs and thread counts, like every other
    /// rendering. Metrics with no measured value are skipped.
    pub fn ascii_charts(&self) -> String {
        const WIDTH: usize = 56;
        const HEIGHT: usize = 12;
        let (lead_axes, col_axis) = self.axes.split_at(self.axes.len() - 1);
        let col_labels = &self.axis_labels[self.axes.len() - 1];
        let combos = self.lead_combos();
        // x position of each column, spread across the canvas.
        let xpos: Vec<usize> = (0..col_labels.len())
            .map(|i| {
                if col_labels.len() == 1 {
                    0
                } else {
                    i * (WIDTH - 1) / (col_labels.len() - 1)
                }
            })
            .collect();
        let mut out = String::new();
        for (metric, get) in Self::metrics() {
            // One series per leading combo: the metric over the columns.
            let series: Vec<Vec<Option<f64>>> = combos
                .iter()
                .map(|combo| {
                    col_labels
                        .iter()
                        .map(|col| {
                            let mut labels = combo.clone();
                            labels.push(col.clone());
                            self.rows.iter().find(|r| r.labels == labels).and_then(get)
                        })
                        .collect()
                })
                .collect();
            let values: Vec<f64> = series.iter().flatten().filter_map(|v| *v).collect();
            let Some(lo) = values.iter().copied().reduce(f64::min) else {
                continue; // nothing measured for this metric
            };
            let hi = values.iter().copied().reduce(f64::max).expect("non-empty");
            // A flat curve still renders: pad the range around it.
            let (lo, hi) = if lo == hi { (lo - 1.0, hi + 1.0) } else { (lo, hi) };
            let y_of = |v: f64| {
                let t = (v - lo) / (hi - lo);
                HEIGHT - 1 - ((t * (HEIGHT - 1) as f64).round() as usize).min(HEIGHT - 1)
            };
            let mut canvas = vec![[' '; WIDTH]; HEIGHT];
            for (si, points) in series.iter().enumerate() {
                let symbol = (b'a' + (si % 26) as u8) as char;
                // Interpolation dots between consecutive measured points.
                let measured: Vec<(usize, f64)> = points
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.map(|v| (i, v)))
                    .collect();
                for w in measured.windows(2) {
                    let ((i0, v0), (i1, v1)) = (w[0], w[1]);
                    // `canvas[y][x]` with y a function of x: not a
                    // row-slice iteration.
                    #[allow(clippy::needless_range_loop)]
                    for x in xpos[i0]..=xpos[i1] {
                        let t = if xpos[i1] == xpos[i0] {
                            0.0
                        } else {
                            (x - xpos[i0]) as f64 / (xpos[i1] - xpos[i0]) as f64
                        };
                        let y = y_of(v0 + t * (v1 - v0));
                        if canvas[y][x] == ' ' {
                            canvas[y][x] = '.';
                        }
                    }
                }
                for (i, v) in measured {
                    let cell = &mut canvas[y_of(v)][xpos[i]];
                    // Overlapping series points render as '*'.
                    *cell = match *cell {
                        ' ' | '.' => symbol,
                        c if c == symbol => symbol,
                        _ => '*',
                    };
                }
            }
            let lo_label = fnum(lo);
            let hi_label = fnum(hi);
            let margin = lo_label.len().max(hi_label.len());
            out.push_str(&format!("### {metric}\n\n"));
            for (y, row) in canvas.iter().enumerate() {
                let label = match y {
                    0 => hi_label.clone(),
                    y if y == HEIGHT - 1 => lo_label.clone(),
                    _ => String::new(),
                };
                let line: String = row.iter().collect();
                out.push_str(&format!("{label:>margin$} |{}\n", line.trim_end()));
            }
            out.push_str(&format!("{:>margin$} +{}\n", "", "-".repeat(WIDTH)));
            let first = format!("{}={}", col_axis[0], col_labels[0]);
            let last = format!(
                "{}={}",
                col_axis[0],
                col_labels.last().expect("axes have points")
            );
            let gap = (WIDTH + 1).saturating_sub(first.len() + last.len());
            out.push_str(&format!(
                "{:>margin$}  {first}{}{last}\n",
                "",
                " ".repeat(gap)
            ));
            if !lead_axes.is_empty() {
                for (si, combo) in combos.iter().enumerate() {
                    let symbol = (b'a' + (si % 26) as u8) as char;
                    let name: Vec<String> = lead_axes
                        .iter()
                        .zip(combo)
                        .map(|(a, l)| format!("{a}={l}"))
                        .collect();
                    out.push_str(&format!(
                        "{:>margin$}  {symbol} = {}\n",
                        "",
                        name.join(",")
                    ));
                }
            }
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("(no measured points to plot)\n");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Sweep registry
// ---------------------------------------------------------------------------

/// The sweep files, in registry order. Each is self-contained: its base
/// scenario is written inline, not referenced by registry name.
const FILES: &[&str] = &[
    include_str!("../../../scenarios/sweeps/churn_knee.json"),
    include_str!("../../../scenarios/sweeps/loss_grid.json"),
    include_str!("../../../scenarios/sweeps/mobility_knee.json"),
    include_str!("../../../scenarios/sweeps/scale_curve.json"),
];

/// The parsed sweep registry, built on first use.
fn registry() -> &'static [SweepSpec] {
    static REGISTRY: OnceLock<Vec<SweepSpec>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        FILES
            .iter()
            .map(|json| {
                SweepSpec::from_json(json)
                    .unwrap_or_else(|e| panic!("embedded sweep file is invalid: {e}"))
            })
            .collect()
    })
}

/// All registered sweep families, in registry order.
pub fn sweeps() -> Vec<SweepSpec> {
    registry().to_vec()
}

/// The registered sweep names, in registry order.
pub fn sweep_names() -> Vec<String> {
    registry().iter().map(|s| s.name.clone()).collect()
}

/// Looks up a sweep by name (case-insensitive).
pub fn find_sweep(name: &str) -> Option<SweepSpec> {
    registry()
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioBuilder;

    fn tiny_base() -> Scenario {
        ScenarioBuilder::new(
            "tiny",
            TopologySpec::Clique { n: 4, r: 1.0 },
            WorkloadSpec::LocalBroadcast {
                epsilon1: 0.25,
                senders: vec![0],
                messages_per_sender: 1,
            },
        )
        .drop_burst(5, 20, 0.5)
        .adversary(AdversarySpec::Bernoulli { p: 0.5 })
        .trials(2)
        .base_seed(7)
        .build()
        .unwrap()
    }

    fn tiny_sweep() -> SweepSpec {
        SweepSpec {
            name: "t".into(),
            description: "demo".into(),
            base: tiny_base(),
            axes: vec![
                SweepAxis {
                    axis: "p".into(),
                    points: vec![
                        SweepPoint {
                            label: "0.2".into(),
                            set: vec![OverrideSpec::DropP { p: 0.2 }],
                        },
                        SweepPoint {
                            label: "0.8".into(),
                            set: vec![OverrideSpec::DropP { p: 0.8 }],
                        },
                    ],
                },
                SweepAxis {
                    axis: "adv".into(),
                    points: vec![
                        SweepPoint {
                            label: "0.3".into(),
                            set: vec![OverrideSpec::AdversaryP { p: 0.3 }],
                        },
                        SweepPoint {
                            label: "0.9".into(),
                            set: vec![OverrideSpec::AdversaryP { p: 0.9 }],
                        },
                    ],
                },
            ],
            trials: None,
            pinned: vec![],
        }
    }

    #[test]
    fn expands_row_major_with_derived_names() {
        let grid = tiny_sweep().expand().unwrap();
        let names: Vec<&str> = grid
            .points()
            .iter()
            .map(|p| p.scenario.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "tiny@p=0.2,adv=0.3",
                "tiny@p=0.2,adv=0.9",
                "tiny@p=0.8,adv=0.3",
                "tiny@p=0.8,adv=0.9",
            ]
        );
        assert_eq!(grid.points()[2].coords, vec![1, 0]);
        assert_eq!(grid.points()[2].scenario.faults.drops[0].p, 0.8);
        assert!(matches!(
            grid.points()[1].scenario.adversary,
            AdversarySpec::Bernoulli { p } if p == 0.9
        ));
    }

    #[test]
    fn sweep_json_roundtrip_preserves_spec() {
        let spec = tiny_sweep();
        let back = SweepSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn trials_override_applies_to_every_point() {
        let mut spec = tiny_sweep();
        spec.trials = Some(5);
        let grid = spec.expand().unwrap();
        assert!(grid.points().iter().all(|p| p.scenario.trials == 5));
    }

    #[test]
    fn rejects_malformed_shapes() {
        let mut no_axes = tiny_sweep();
        no_axes.axes.clear();
        assert!(no_axes.expand().is_err());

        let mut dup_axis = tiny_sweep();
        dup_axis.axes[1].axis = "p".into();
        assert!(dup_axis.expand().is_err());

        let mut dup_label = tiny_sweep();
        dup_label.axes[0].points[1].label = "0.2".into();
        assert!(dup_label.expand().is_err());

        let mut bad_label = tiny_sweep();
        bad_label.axes[0].points[0].label = "a,b".into();
        assert!(bad_label.expand().is_err());

        let mut bad_pin = tiny_sweep();
        bad_pin.pinned = vec!["tiny@p=0.2,adv=0.5".into()];
        assert!(bad_pin.expand().is_err());
    }

    #[test]
    fn rejects_overrides_that_sweep_nothing() {
        // DropP on a base with no drop bursts would claim a loss axis
        // while varying nothing; same for AdversaryP on a fixed
        // schedule.
        let mut no_drops = tiny_sweep();
        no_drops.base.faults.drops.clear();
        assert!(no_drops.expand().is_err());

        let mut fixed_adv = tiny_sweep();
        fixed_adv.base.adversary = AdversarySpec::AllExtraEdges;
        assert!(fixed_adv.expand().is_err());
    }

    #[test]
    fn rejects_invalid_expanded_scenarios() {
        let mut bad = tiny_sweep();
        bad.axes[0].points[0].set = vec![OverrideSpec::DropP { p: 1.5 }];
        let err = bad.expand().unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
    }

    #[test]
    fn churn_override_generates_periodic_windows() {
        let mut s = tiny_base();
        OverrideSpec::Churn {
            nodes: vec![1, 2],
            period: 50,
            down: 10,
            start: 5,
            until: 120,
            restart: false,
        }
        .apply(&mut s)
        .unwrap();
        let windows: Vec<(usize, u64, Option<u64>)> = s
            .faults
            .crashes
            .iter()
            .map(|c| (c.node, c.down_from, c.up_at))
            .collect();
        assert_eq!(
            windows,
            vec![
                (1, 5, Some(15)),
                (1, 55, Some(65)),
                (1, 105, Some(115)),
                (2, 5, Some(15)),
                (2, 55, Some(65)),
                (2, 105, Some(115)),
            ]
        );
        // down = 0 is the no-churn point.
        OverrideSpec::Churn {
            nodes: vec![1],
            period: 50,
            down: 0,
            start: 5,
            until: 120,
            restart: false,
        }
        .apply(&mut s)
        .unwrap();
        assert!(s.faults.crashes.is_empty());
    }

    #[test]
    fn churn_rejects_empty_windows() {
        // Regression: `start > until` would generate an empty crash
        // list — a point claiming churn while injecting nothing.
        let mut s = tiny_base();
        let err = OverrideSpec::Churn {
            nodes: vec![1],
            period: 50,
            down: 10,
            start: 500,
            until: 100,
            restart: false,
        }
        .apply(&mut s)
        .unwrap_err();
        assert!(matches!(&err, ScenarioError::Invalid(m) if m.contains("start")), "{err}");
    }

    #[test]
    fn pinned_restriction_keeps_only_named_points() {
        let mut spec = tiny_sweep();
        spec.pinned = vec!["tiny@p=0.8,adv=0.3".into()];
        let grid = spec.expand().unwrap();
        assert_eq!(grid.len(), 4);
        let pinned = grid.pinned();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned.points()[0].scenario.name, "tiny@p=0.8,adv=0.3");
        // No pins = the whole grid.
        assert_eq!(tiny_sweep().expand().unwrap().pinned().len(), 4);
    }

    #[test]
    fn registry_sweeps_expand_and_meet_the_roadmap_shape() {
        for spec in sweeps() {
            let grid = spec
                .expand()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                grid.len() >= 12,
                "{}: expected a >= 12-point grid, got {}",
                spec.name,
                grid.len()
            );
            assert!(!spec.pinned.is_empty(), "{}: no pinned subset", spec.name);
            assert!(!spec.description.is_empty());
            // Derived names are unique (Campaign re-checks this too).
            let mut names: Vec<_> = grid.points().iter().map(|p| &p.scenario.name).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), grid.len());
        }
        assert!(find_sweep("CHURN-KNEE").is_some());
        assert!(find_sweep("nope").is_none());
        assert_eq!(
            sweep_names(),
            vec!["churn-knee", "loss-grid", "mobility-knee", "scale-curve"]
        );
    }

    #[test]
    fn mobility_overrides_require_a_mobility_base() {
        let mut s = tiny_base();
        let err = OverrideSpec::EpochRounds { epoch_rounds: 64 }
            .apply(&mut s)
            .unwrap_err();
        assert!(matches!(&err, ScenarioError::Invalid(m) if m.contains("EpochRounds")), "{err}");
        let err = OverrideSpec::MobilitySpeed { speed: 0.01 }
            .apply(&mut s)
            .unwrap_err();
        assert!(matches!(&err, ScenarioError::Invalid(m) if m.contains("MobilitySpeed")), "{err}");

        let mut m = crate::registry::find("mobility").unwrap();
        OverrideSpec::EpochRounds { epoch_rounds: 64 }
            .apply(&mut m)
            .unwrap();
        OverrideSpec::MobilitySpeed { speed: 0.25 }.apply(&mut m).unwrap();
        let spec = m.mobility.unwrap();
        assert_eq!(spec.epoch_rounds, 64);
        assert_eq!(spec.speed, 0.25);
    }

    #[test]
    fn mobility_knee_sweeps_epoch_length_with_a_pinned_parked_curve() {
        let spec = find_sweep("mobility-knee").unwrap();
        let grid = spec.expand().unwrap();
        assert_eq!(grid.len(), 12);
        assert_eq!(spec.pinned.len(), 4, "four pinned epoch points");
        // Pinned points all sit on the parked (speed = 0) curve, in
        // increasing epoch order — what the monotonicity gate walks.
        for (name, rounds) in spec.pinned.iter().zip([60u64, 120, 240, 480]) {
            let p = grid
                .points()
                .iter()
                .find(|p| &p.scenario.name == name)
                .unwrap();
            let m = p.scenario.mobility.as_ref().unwrap();
            assert_eq!(m.epoch_rounds, rounds);
            assert_eq!(m.speed, 0.0);
            assert!(p.scenario.faults.jams.iter().all(|j| j.is_moving()));
        }
    }

    #[test]
    fn scale_curve_reaches_fifty_thousand_nodes() {
        let spec = find_sweep("scale-curve").unwrap();
        let grid = spec.expand().unwrap();
        let max_n = grid
            .points()
            .iter()
            .map(|p| p.scenario.topology.node_count())
            .max()
            .unwrap();
        assert!(max_n >= 50_000, "largest point is {max_n} nodes");
        // Density (and so Δ) is pinned while n sweeps: every point stays
        // on the constant-density family.
        for p in grid.points() {
            assert!(
                matches!(
                    p.scenario.topology,
                    TopologySpec::ConstantDensity { density, r, .. }
                        if density == 8.0 && r == 1.5
                ),
                "{}",
                p.scenario.name
            );
        }
        // The pinned subset covers the scale extremes the BENCH scale
        // cases time.
        assert!(spec.pinned.contains(&"scale@n=50000,adv=0.5".to_string()));
    }

    #[test]
    fn size_override_rescales_explicit_node_counts() {
        let mut s = tiny_base();
        OverrideSpec::Size { n: 9 }.apply(&mut s).unwrap();
        assert_eq!(s.topology.node_count(), 9);
        s.topology = TopologySpec::ConstantDensity {
            n: 16,
            density: 8.0,
            r: 1.5,
            seed: 1,
        };
        OverrideSpec::Size { n: 256 }.apply(&mut s).unwrap();
        assert_eq!(s.topology.node_count(), 256);
        // Composite families have no single n knob: rejecting beats
        // silently sweeping nothing.
        s.topology = TopologySpec::Grid {
            rows: 2,
            cols: 2,
            spacing: 1.0,
            r: 1.0,
        };
        let err = OverrideSpec::Size { n: 9 }.apply(&mut s).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Invalid(m) if m.contains("Size")),
            "{err}"
        );
    }

    #[test]
    fn report_pivots_grid_outcomes_into_curves() {
        let mut spec = tiny_sweep();
        spec.trials = Some(1);
        let grid = spec.expand().unwrap();
        let report = grid.campaign().unwrap().run();
        let sweep = SweepReport::new(&grid, &report);
        let long = sweep.long_table();
        assert_eq!(long.rows.len(), 4);
        assert_eq!(
            long.headers,
            vec![
                "point",
                "p",
                "adv",
                "trials",
                "spec_ok_rate",
                "acks",
                "deliveries",
                "ack_latency",
                "ack_trials",
                "delivery_latency",
                "delivery_trials",
                "ack_p50",
                "ack_p95",
                "ack_p99",
                "delivery_p50",
                "delivery_p95",
                "delivery_p99"
            ]
        );
        let curves = sweep.curve_tables();
        assert_eq!(curves.len(), 5);
        // Each pivot: rows = leading axis (p), columns = last axis (adv).
        for t in &curves {
            assert_eq!(t.headers, vec!["p", "adv=0.3", "adv=0.9"]);
            assert_eq!(t.rows.len(), 2);
        }
        let csv = sweep.to_csv();
        assert!(csv.starts_with("point,p,adv,trials,"));
        assert_eq!(csv.lines().count(), 5);
        let md = sweep.to_markdown();
        assert!(md.contains("# Sweep report: t"));
        assert!(md.contains("## Grid") && md.contains("## Curves"));
    }

    #[test]
    fn csv_emits_full_precision_values_and_empty_cells() {
        // Regression: the CSV artifact used to reuse the markdown
        // table's `fnum` rounding and `—` dashes, so curve fits lost
        // precision and every latency column parsed as text. The CSV
        // now carries shortest-round-trip f64 values and leaves
        // unmeasured cells empty; the display tables keep the dashes.
        let report = SweepReport {
            name: "t".into(),
            description: "demo".into(),
            axes: vec!["p".into()],
            axis_labels: vec![vec!["a".into()]],
            rows: vec![SweepRow {
                labels: vec!["a".into()],
                scenario: "tiny@p=a".into(),
                trials: 3,
                m: MeasuredMetrics {
                    ack_latency: Some(1.0 / 3.0),
                    ack_trials: 3,
                    delivery_latency: None,
                    delivery_trials: 0,
                    ack_p50: Some(7),
                    ack_p95: Some(9),
                    ack_p99: Some(9),
                    delivery_p50: None,
                    delivery_p95: None,
                    delivery_p99: None,
                    acks: 1234.5678901234567,
                    deliveries: 2.0,
                    spec_ok_rate: 1.0,
                    spec_ok_trials: 3,
                },
            }],
        };
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "point,p,trials,spec_ok_rate,acks,deliveries,ack_latency,ack_trials,\
             delivery_latency,delivery_trials,ack_p50,ack_p95,ack_p99,\
             delivery_p50,delivery_p95,delivery_p99"
        );
        assert_eq!(
            lines[1],
            "tiny@p=a,a,3,1,1234.5678901234567,2,0.3333333333333333,3,,0,7,9,9,,,"
        );
        assert!(!csv.contains('—'), "dashes are display-table-only");
        // The markdown/terminal table keeps its display conventions.
        assert!(report.long_table().to_csv().contains('—'));
    }

    #[test]
    fn report_renders_missing_points_as_dashes() {
        let mut spec = tiny_sweep();
        spec.trials = Some(1);
        spec.pinned = vec!["tiny@p=0.2,adv=0.3".into()];
        let grid = spec.expand().unwrap();
        let report = grid.pinned().campaign().unwrap().run();
        let sweep = SweepReport::new(&grid, &report);
        assert_eq!(sweep.long_table().rows.len(), 1, "only the pinned point ran");
        let curves = sweep.curve_tables();
        let acks = &curves[2];
        assert_eq!(acks.rows[0][2], "—", "unmeasured cell renders as dash");
        assert_ne!(acks.rows[0][1], "—", "measured cell has a value");
    }

    #[test]
    fn ascii_charts_render_deterministic_series() {
        let mut spec = tiny_sweep();
        spec.trials = Some(1);
        let grid = spec.expand().unwrap();
        let report = grid.campaign().unwrap().run();
        let sweep = SweepReport::new(&grid, &report);
        let charts = sweep.ascii_charts();
        // Always-measured metrics chart; every chart carries the column
        // axis ruler and the per-series legend.
        assert!(charts.contains("### acks"));
        assert!(charts.contains("### spec_ok_rate"));
        assert!(charts.contains("adv=0.3"));
        assert!(charts.contains("adv=0.9"));
        assert!(charts.contains("a = p=0.2"));
        assert!(charts.contains("b = p=0.8"));
        assert!(charts.is_ascii(), "plot output is pure ASCII");
        assert_eq!(charts, sweep.ascii_charts(), "rendering is deterministic");
        // A second run of the same grid plots byte-identically.
        let again = SweepReport::new(&grid, &grid.campaign().unwrap().run());
        assert_eq!(charts, again.ascii_charts());
    }

    #[test]
    fn single_axis_sweep_pivots_into_one_row() {
        let mut spec = tiny_sweep();
        spec.axes.pop();
        spec.trials = Some(1);
        let grid = spec.expand().unwrap();
        let report = grid.campaign().unwrap().run();
        let sweep = SweepReport::new(&grid, &report);
        let curves = sweep.curve_tables();
        for t in &curves {
            assert_eq!(t.headers, vec!["sweep", "p=0.2", "p=0.8"]);
            assert_eq!(t.rows.len(), 1);
        }
    }
}
