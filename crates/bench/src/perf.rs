//! The perf harness: measured engine and campaign throughput, recorded
//! as a schema'd `BENCH.json` so every PR leaves a comparable perf
//! trajectory point. See docs/perf.md for the methodology and how to
//! compare runs.

use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::NullEnvironment;
use radio_sim::fault::FaultPlan;
use radio_sim::graph::NodeId;
use radio_sim::process::{Action, Context, Process};
use radio_sim::scheduler;
use radio_sim::topology::Topology;
use radio_sim::trace::RecordingPolicy;
use scenario::Campaign;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version of the `BENCH.json` schema this crate writes and validates.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// The pinned campaign subset every perf run measures — the same subset
/// the CI golden gate checks, so throughput numbers track a fixed
/// workload across PRs.
pub const PINNED_CAMPAIGN: [&str; 4] = ["e2", "e5", "e11", "drop-burst"];

/// One engine micro-measurement: a fixed topology and scheduler driven
/// for a fixed number of rounds under stats-only recording.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCase {
    /// Case name (`<topology>/<scheduler>`).
    pub case: String,
    /// Vertex count of the measured topology.
    pub nodes: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Wall-clock seconds for the measured run.
    pub elapsed_s: f64,
    /// `rounds / elapsed_s`.
    pub rounds_per_sec: f64,
    /// `rounds * nodes / elapsed_s` — the cross-topology comparable
    /// number.
    pub node_rounds_per_sec: f64,
}

/// One mock-net transport measurement: the chatter workload running on
/// the engine over `MockNetTransport` with one round of per-hop delay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransportCase {
    /// Case name (`mock-net-<n>`).
    pub case: String,
    /// Vertex count of the measured topology.
    pub nodes: usize,
    /// Rounds executed in the timed window.
    pub rounds: u64,
    /// Wall-clock seconds for the timed window.
    pub elapsed_s: f64,
    /// Delivered messages per wall-clock second — the transport's
    /// end-to-end throughput (send fan-out, inbox queues, and collision
    /// classification included).
    pub messages_per_sec: f64,
    /// Mean rounds between a message's send and its delivery, measured
    /// from a full-recording run (equals the configured per-hop delay on
    /// the mock network; a real-socket backend would add queueing here).
    pub delivery_latency_rounds: f64,
}

/// One dynamic-geometry measurement: the registry `mobility` scenario
/// re-aimed at a given epoch length, reporting the geometry-rebuild
/// overhead (summed from the runner's per-epoch rebuild clock) next to
/// the trial throughput it buys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MobilityCase {
    /// Case name (`mobility-epoch-<rounds>`).
    pub case: String,
    /// Vertex count of the moving deployment.
    pub nodes: usize,
    /// Rounds the measured trial executed.
    pub rounds: u64,
    /// Epochs the timeline compiled to.
    pub epochs: usize,
    /// Total wall-clock milliseconds spent rebuilding RGG adjacency
    /// across all epochs (entry 0, the static deployment build,
    /// included).
    pub rebuild_ms: f64,
    /// Wall-clock seconds for the measured trial.
    pub elapsed_s: f64,
    /// `rounds / elapsed_s`.
    pub rounds_per_sec: f64,
}

/// The campaign fan-out measurement: repeated runs of the pinned
/// scenario subset on the default worker pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignPerf {
    /// Scenario names, in run order.
    pub scenarios: Vec<String>,
    /// How many times the whole subset ran.
    pub repetitions: u32,
    /// Trials per repetition (summed over scenarios).
    pub trials: usize,
    /// Wall-clock seconds over all repetitions.
    pub elapsed_s: f64,
    /// `repetitions * trials / elapsed_s`.
    pub trials_per_sec: f64,
}

/// The `BENCH.json` document: one measured perf trajectory point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Engine micro-measurements.
    pub engine: Vec<EngineCase>,
    /// The scale-curve section: the same chatter workload on
    /// constant-density deployments of growing `n` (Δ stays flat, so
    /// `node_rounds_per_sec` vs. `nodes` isolates the engine's scaling
    /// behavior from neighborhood-size effects). Empty in reports
    /// written before the section existed.
    #[serde(default)]
    pub scale: Vec<EngineCase>,
    /// The transport section: the chatter workload on the engine over
    /// the mock network (see docs/transport.md). Empty in
    /// reports written before the section existed.
    #[serde(default)]
    pub transport: Vec<TransportCase>,
    /// The mobility section: the registry mobility scenario across
    /// epoch lengths, tracking how much wall-clock the per-epoch RGG
    /// rebuilds cost (see docs/mobility.md). Empty in reports written
    /// before the section existed.
    #[serde(default)]
    pub mobility: Vec<MobilityCase>,
    /// Campaign fan-out measurement.
    pub campaign: CampaignPerf,
}

impl BenchReport {
    /// Serializes to pretty-printed JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("bench report serializes");
        s.push('\n');
        s
    }

    /// Parses and validates a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let report: BenchReport =
            serde_json::from_str(json).map_err(|e| format!("BENCH.json: {e}"))?;
        report.validate()?;
        Ok(report)
    }

    /// Checks the schema invariants: supported version, at least one
    /// engine case, and finite positive throughput numbers throughout.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.engine.is_empty() {
            return Err("engine: needs at least one case".into());
        }
        // `scale` may be empty (pre-scale reports), but any present
        // point obeys the same invariants as an engine case.
        for c in self.engine.iter().chain(&self.scale) {
            if c.case.is_empty() {
                return Err("engine case: empty name".into());
            }
            if c.nodes == 0 || c.rounds == 0 {
                return Err(format!("engine case {}: zero nodes or rounds", c.case));
            }
            for (field, v) in [
                ("elapsed_s", c.elapsed_s),
                ("rounds_per_sec", c.rounds_per_sec),
                ("node_rounds_per_sec", c.node_rounds_per_sec),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "engine case {}: {field} must be finite and positive, got {v}",
                        c.case
                    ));
                }
            }
        }
        // `transport` may be empty (pre-transport reports) but any
        // present case carries finite positive measurements.
        for c in &self.transport {
            if c.case.is_empty() {
                return Err("transport case: empty name".into());
            }
            if c.nodes == 0 || c.rounds == 0 {
                return Err(format!("transport case {}: zero nodes or rounds", c.case));
            }
            for (field, v) in [
                ("elapsed_s", c.elapsed_s),
                ("messages_per_sec", c.messages_per_sec),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "transport case {}: {field} must be finite and positive, got {v}",
                        c.case
                    ));
                }
            }
            if !c.delivery_latency_rounds.is_finite() || c.delivery_latency_rounds < 0.0 {
                return Err(format!(
                    "transport case {}: delivery_latency_rounds must be finite and >= 0, got {}",
                    c.case, c.delivery_latency_rounds
                ));
            }
        }
        // `mobility` may be empty (pre-mobility reports); present cases
        // carry a sane timeline shape and finite measurements.
        for c in &self.mobility {
            if c.case.is_empty() {
                return Err("mobility case: empty name".into());
            }
            if c.nodes == 0 || c.rounds == 0 || c.epochs == 0 {
                return Err(format!(
                    "mobility case {}: zero nodes, rounds, or epochs",
                    c.case
                ));
            }
            for (field, v) in [
                ("elapsed_s", c.elapsed_s),
                ("rounds_per_sec", c.rounds_per_sec),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "mobility case {}: {field} must be finite and positive, got {v}",
                        c.case
                    ));
                }
            }
            if !c.rebuild_ms.is_finite() || c.rebuild_ms < 0.0 {
                return Err(format!(
                    "mobility case {}: rebuild_ms must be finite and >= 0, got {}",
                    c.case, c.rebuild_ms
                ));
            }
        }
        let c = &self.campaign;
        if c.scenarios.is_empty() {
            return Err("campaign: needs at least one scenario".into());
        }
        if c.repetitions == 0 || c.trials == 0 {
            return Err("campaign: zero repetitions or trials".into());
        }
        for (field, v) in [("elapsed_s", c.elapsed_s), ("trials_per_sec", c.trials_per_sec)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "campaign: {field} must be finite and positive, got {v}"
                ));
            }
        }
        Ok(())
    }

    /// A human-readable summary table of the measurement.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("engine cases:\n");
        for c in &self.engine {
            out.push_str(&format!(
                "  {:<28} n = {:>5}  {:>10.0} rounds/s  {:>12.0} node-rounds/s\n",
                c.case, c.nodes, c.rounds_per_sec, c.node_rounds_per_sec
            ));
        }
        if !self.scale.is_empty() {
            out.push_str("scale curve (constant density):\n");
            for c in &self.scale {
                out.push_str(&format!(
                    "  {:<28} n = {:>5}  {:>10.0} rounds/s  {:>12.0} node-rounds/s\n",
                    c.case, c.nodes, c.rounds_per_sec, c.node_rounds_per_sec
                ));
            }
        }
        if !self.transport.is_empty() {
            out.push_str("transport (mock-net cluster):\n");
            for c in &self.transport {
                out.push_str(&format!(
                    "  {:<28} n = {:>5}  {:>10.0} msgs/s  {:>6.2} rounds/hop\n",
                    c.case, c.nodes, c.messages_per_sec, c.delivery_latency_rounds
                ));
            }
        }
        if !self.mobility.is_empty() {
            out.push_str("mobility (per-epoch RGG rebuilds):\n");
            for c in &self.mobility {
                out.push_str(&format!(
                    "  {:<28} n = {:>5}  {:>3} epoch(s)  {:>8.2} ms rebuild  {:>10.0} rounds/s\n",
                    c.case, c.nodes, c.epochs, c.rebuild_ms, c.rounds_per_sec
                ));
            }
        }
        out.push_str(&format!(
            "campaign ({}, x{}): {:.0} trials/s over {} trial(s)\n",
            self.campaign.scenarios.join(" "),
            self.campaign.repetitions,
            self.campaign.trials_per_sec,
            self.campaign.trials,
        ));
        out
    }
}

/// One throughput number compared between two `BENCH.json` reports.
#[derive(Debug, Clone)]
pub struct CaseDelta {
    /// Case name (engine/scale case name, or `campaign`).
    pub case: String,
    /// Baseline throughput (node-rounds/s for engine cases, trials/s
    /// for the campaign).
    pub old: f64,
    /// Measured throughput in the new report.
    pub new: f64,
    /// `new / old` — below 1.0 means the new report is slower.
    pub ratio: f64,
    /// Whether the ratio fell below the comparison threshold.
    pub regressed: bool,
}

/// The result of comparing a new perf report against a baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Minimum acceptable `new / old` ratio.
    pub threshold: f64,
    /// Deltas for every case present in both reports.
    pub cases: Vec<CaseDelta>,
    /// Baseline cases absent from the new report (informational).
    pub missing: Vec<String>,
    /// New-report cases absent from the baseline (informational).
    pub added: Vec<String>,
}

impl CompareReport {
    /// The cases whose ratio fell below the threshold.
    pub fn regressions(&self) -> Vec<&CaseDelta> {
        self.cases.iter().filter(|c| c.regressed).collect()
    }

    /// A human-readable delta table, one line per compared case.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "perf comparison (regression below {:.0}% of baseline):\n",
            self.threshold * 100.0
        );
        for c in &self.cases {
            out.push_str(&format!(
                "  {:<28} {:>12.0} -> {:>12.0}  ({:>+6.1}%){}\n",
                c.case,
                c.old,
                c.new,
                (c.ratio - 1.0) * 100.0,
                if c.regressed { "  REGRESSED" } else { "" }
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("  {m:<28} baseline only (not compared)\n"));
        }
        for a in &self.added {
            out.push_str(&format!("  {a:<28} new case (no baseline)\n"));
        }
        let n = self.regressions().len();
        out.push_str(&if n == 0 {
            format!("no regressions across {} compared case(s)\n", self.cases.len())
        } else {
            format!("{n} regression(s) across {} compared case(s)\n", self.cases.len())
        });
        out
    }
}

/// Compares a new report against a baseline, case by case.
///
/// Engine and scale cases are matched by name and compared on
/// `node_rounds_per_sec`; the campaign measurement is compared on
/// `trials_per_sec` (only when both reports pinned the same scenario
/// subset, so the workload is actually comparable). A case regresses
/// when `new / old < threshold` — perf numbers are noisy, so the
/// threshold should leave generous headroom (CI uses 0.5 as a
/// non-blocking signal; see docs/perf.md).
pub fn compare(old: &BenchReport, new: &BenchReport, threshold: f64) -> CompareReport {
    let mut cases = Vec::new();
    let mut missing = Vec::new();
    let mut added = Vec::new();
    // Transport cases ride along on their own throughput number; a
    // baseline without the section simply reports them as added cases
    // (informational churn), never as regressions.
    let old_cases: Vec<(&str, f64)> = old
        .engine
        .iter()
        .chain(&old.scale)
        .map(|c| (c.case.as_str(), c.node_rounds_per_sec))
        .chain(old.transport.iter().map(|c| (c.case.as_str(), c.messages_per_sec)))
        .chain(old.mobility.iter().map(|c| (c.case.as_str(), c.rounds_per_sec)))
        .collect();
    let new_cases: Vec<(&str, f64)> = new
        .engine
        .iter()
        .chain(&new.scale)
        .map(|c| (c.case.as_str(), c.node_rounds_per_sec))
        .chain(new.transport.iter().map(|c| (c.case.as_str(), c.messages_per_sec)))
        .chain(new.mobility.iter().map(|c| (c.case.as_str(), c.rounds_per_sec)))
        .collect();
    for &(name, old_v) in &old_cases {
        match new_cases.iter().find(|(n, _)| *n == name) {
            Some(&(_, new_v)) => {
                let ratio = new_v / old_v;
                cases.push(CaseDelta {
                    case: name.to_string(),
                    old: old_v,
                    new: new_v,
                    ratio,
                    regressed: ratio < threshold,
                });
            }
            None => missing.push(name.to_string()),
        }
    }
    for &(name, _) in &new_cases {
        if !old_cases.iter().any(|(n, _)| *n == name) {
            added.push(name.to_string());
        }
    }
    if old.campaign.scenarios == new.campaign.scenarios {
        let (old_v, new_v) = (old.campaign.trials_per_sec, new.campaign.trials_per_sec);
        let ratio = new_v / old_v;
        cases.push(CaseDelta {
            case: "campaign".to_string(),
            old: old_v,
            new: new_v,
            ratio,
            regressed: ratio < threshold,
        });
    } else {
        missing.push("campaign (scenario subsets differ)".to_string());
    }
    CompareReport { threshold, cases, missing, added }
}

/// The engine micro-bench process: transmits its round number with
/// probability 1/4 (`Copy` message, contention-heavy). Shared by the
/// Criterion engine bench so both artifacts measure the same workload
/// (the radio-sim zero-alloc test keeps its own copy — `radio-sim`
/// cannot depend on this crate).
pub struct Chatter;

impl Process for Chatter {
    type Msg = u64;
    type Input = ();
    type Output = ();

    fn on_input(&mut self, _i: (), _ctx: &mut Context<'_>) {}

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u64> {
        use rand::Rng;
        if ctx.rng.gen_bool(0.25) {
            Action::Transmit(ctx.round)
        } else {
            Action::Receive
        }
    }

    fn on_receive(&mut self, _m: Option<u64>, _ctx: &mut Context<'_>) {}

    fn take_outputs(&mut self) -> Vec<()> {
        Vec::new()
    }
}

/// Drives `Chatter` processes for `rounds` rounds on the given topology
/// and scheduler under stats-only recording, and returns the timed case.
pub fn measure_engine_case(
    case: &str,
    topo: &Topology,
    mk_scheduler: impl Fn() -> Box<dyn scheduler::LinkScheduler>,
    faults: FaultPlan,
    rounds: u64,
) -> EngineCase {
    let n = topo.graph.len();
    let procs: Vec<Chatter> = (0..n).map(|_| Chatter).collect();
    let config = Configuration::new(topo.graph.clone(), mk_scheduler())
        .with_r(topo.r)
        .with_recording(RecordingPolicy::stats_only())
        .with_faults(faults);
    let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 0xBEEF);
    // Warmup sizes the engine's reusable scratch; reserve the stats
    // capacity so the measured window is the steady state.
    engine.run(16);
    engine.reserve_rounds(rounds);
    let start = Instant::now();
    engine.run(rounds);
    let elapsed = start.elapsed().as_secs_f64();
    EngineCase {
        case: case.to_string(),
        nodes: n,
        rounds,
        elapsed_s: elapsed,
        rounds_per_sec: rounds as f64 / elapsed,
        node_rounds_per_sec: (rounds as f64 * n as f64) / elapsed,
    }
}

/// The standard engine case set: mid-size sparse, large dense, and a
/// faulted variant, across the scheduler kinds the hot path
/// distinguishes (`All`, per-round `Subset`).
pub fn engine_cases(rounds: u64) -> Vec<EngineCase> {
    use radio_sim::topology::{random_geometric, RggParams};
    let rgg = |n: usize, side: f64| {
        random_geometric(RggParams {
            n,
            side,
            r: 2.0,
            grey_reliable_p: 0.1,
            grey_unreliable_p: 0.8,
            seed: 7,
        })
    };
    let mid = rgg(256, (256f64 / 8.0).sqrt());
    let dense = rgg(1024, (1024f64 / 24.0).sqrt());
    let faults = FaultPlan::none()
        .with_crash(NodeId(1), 16, Some(64))
        .with_jam(vec![NodeId(2), NodeId(3)], 8, 128)
        .with_drop_burst(4, 256, 0.1);
    vec![
        measure_engine_case(
            "rgg-256/bernoulli",
            &mid,
            || Box::new(scheduler::BernoulliEdges::new(0.5, 9)),
            FaultPlan::none(),
            rounds,
        ),
        measure_engine_case(
            "rgg-256/all-edges",
            &mid,
            || Box::new(scheduler::AllExtraEdges),
            FaultPlan::none(),
            rounds,
        ),
        measure_engine_case(
            "rgg-1024-dense/all-edges",
            &dense,
            || Box::new(scheduler::AllExtraEdges),
            FaultPlan::none(),
            rounds,
        ),
        measure_engine_case(
            "rgg-256/all-edges+faults",
            &mid,
            || Box::new(scheduler::AllExtraEdges),
            faults,
            rounds,
        ),
    ]
}

/// The scale-curve case set: the chatter workload on constant-density
/// deployments at growing `n` — the `BENCH.json` companion to the
/// `scale-curve` sweep family. Density, `r`, and the placement seed
/// match the sweep's `ConstantDensity` base, so the two artifacts
/// describe the same deployments.
pub fn scale_cases(rounds: u64) -> Vec<EngineCase> {
    use radio_sim::topology::constant_density;
    [1_000usize, 10_000, 50_000]
        .into_iter()
        .map(|n| {
            let topo = constant_density(n, 8.0, 1.5, 97);
            measure_engine_case(
                &format!("scale-{n}/bernoulli"),
                &topo,
                || Box::new(scheduler::BernoulliEdges::new(0.5, 9)),
                FaultPlan::none(),
                rounds,
            )
        })
        .collect()
}

/// Measures the chatter workload on the engine over the mock network
/// (full `G'` link set, one round of per-hop delay) on an RGG of `n`
/// vertices: a timed stats-only window for throughput, plus a
/// short full-recording run for the measured per-hop delivery latency.
pub fn measure_transport_case(n: usize, rounds: u64) -> TransportCase {
    use net::{Cluster, ClusterConfig, MockNetConfig, MockNetTransport};
    use radio_sim::topology::{random_geometric, RggParams};
    let topo = random_geometric(RggParams {
        n,
        side: (n as f64 / 8.0).sqrt(),
        r: 2.0,
        grey_reliable_p: 0.1,
        grey_unreliable_p: 0.8,
        seed: 7,
    });
    let config = MockNetConfig {
        delay_rounds: 1,
        ..MockNetConfig::default()
    };
    let cluster = |recording: RecordingPolicy| {
        let procs: Vec<Chatter> = (0..n).map(|_| Chatter).collect();
        Cluster::new(
            ClusterConfig::new(topo.graph.clone())
                .with_r(topo.r)
                .with_recording(recording),
            MockNetTransport::new(topo.graph.clone(), config.clone(), 0xBEEF),
            procs,
            Box::new(NullEnvironment),
            0xBEEF,
        )
    };

    // Timed window: stats-only recording, warmed up like the engine
    // cases so scratch sizing lands outside the measurement.
    let mut timed = cluster(RecordingPolicy::stats_only());
    timed.run(16);
    timed.reserve_rounds(rounds);
    let start = Instant::now();
    timed.run(rounds);
    let elapsed = start.elapsed().as_secs_f64();
    let warmup_deliveries = timed.trace().round_stats[..16]
        .iter()
        .map(|s| s.deliveries as u64)
        .sum::<u64>();
    let deliveries = timed.trace().total_stats().deliveries as u64 - warmup_deliveries;

    // Latency probe: a short full-recording run; the chatter message is
    // its send round, so delivery latency is `round - msg` per reception.
    let mut probe = cluster(RecordingPolicy::full());
    probe.run(rounds.min(128));
    let (sum, count) = probe
        .trace()
        .receptions()
        .fold((0u64, 0u64), |(s, c), (round, _, _, &msg)| {
            (s + (round - msg), c + 1)
        });

    TransportCase {
        case: format!("mock-net-{n}"),
        nodes: n,
        rounds,
        elapsed_s: elapsed,
        messages_per_sec: deliveries as f64 / elapsed,
        delivery_latency_rounds: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
    }
}

/// The transport case set: mock-net clusters at `n = 64` and `n = 256`.
pub fn transport_cases(rounds: u64) -> Vec<TransportCase> {
    [64usize, 256].into_iter().map(|n| measure_transport_case(n, rounds)).collect()
}

/// Measures the registry `mobility` scenario with its epoch length
/// re-aimed to `epoch_rounds`: the timeline (and its per-epoch RGG
/// rebuilds) is built in the runner constructor, then one trial runs
/// timed. Shorter epochs buy geometric fidelity with more rebuilds —
/// this case pair makes that trade measurable across PRs.
pub fn measure_mobility_case(epoch_rounds: u64) -> MobilityCase {
    use scenario::{registry, ScenarioRunner};
    let mut s = registry::find("mobility").expect("mobility is registered");
    s.mobility
        .as_mut()
        .expect("the mobility scenario has a mobility spec")
        .epoch_rounds = epoch_rounds;
    let runner = ScenarioRunner::new(s).expect("registry scenario compiles");
    let nodes = runner.topology().graph.len();
    let rebuild_ns: u64 = runner
        .rebuild_ns()
        .expect("mobility runner tracks rebuild cost")
        .iter()
        .sum();
    let epochs = runner
        .timeline()
        .expect("mobility runner has a timeline")
        .num_epochs();
    let start = Instant::now();
    let outcome = runner.run_trial(0);
    let elapsed = start.elapsed().as_secs_f64();
    MobilityCase {
        case: format!("mobility-epoch-{epoch_rounds}"),
        nodes,
        rounds: outcome.rounds,
        epochs,
        rebuild_ms: rebuild_ns as f64 / 1e6,
        elapsed_s: elapsed,
        rounds_per_sec: outcome.rounds as f64 / elapsed,
    }
}

/// The mobility case set: the registry scenario at its native epoch
/// length and at a 4x finer grid (more rebuilds over the same horizon).
pub fn mobility_cases() -> Vec<MobilityCase> {
    [120u64, 30].into_iter().map(measure_mobility_case).collect()
}

/// Runs the pinned campaign subset `repetitions` times and returns the
/// timed fan-out measurement.
pub fn measure_campaign(repetitions: u32) -> CampaignPerf {
    let campaign = Campaign::subset(&PINNED_CAMPAIGN).expect("pinned subset is registered");
    let trials: usize = campaign.scenarios().map(|s| s.trials).sum();
    // One untimed warmup repetition: first-touch page faults, allocator
    // growth, and worker-pool spin-up used to land inside the timed
    // region, depressing the first repetition (and so the whole
    // number at low repetition counts) below steady state.
    let warmup = campaign.run();
    assert_eq!(warmup.reports.len(), PINNED_CAMPAIGN.len());
    let start = Instant::now();
    for _ in 0..repetitions {
        let report = campaign.run();
        assert_eq!(report.reports.len(), PINNED_CAMPAIGN.len());
    }
    let elapsed = start.elapsed().as_secs_f64();
    CampaignPerf {
        scenarios: PINNED_CAMPAIGN.iter().map(|s| s.to_string()).collect(),
        repetitions,
        trials,
        elapsed_s: elapsed,
        trials_per_sec: (repetitions as f64 * trials as f64) / elapsed,
    }
}

/// Runs the whole measurement suite: `quick` uses a tiny budget (CI
/// smoke), the default budget targets a stable local number.
pub fn run(quick: bool) -> BenchReport {
    let (rounds, reps) = if quick { (64, 2) } else { (4_096, 40) };
    // Scale points cost `rounds × n`; 1024 rounds at 50k nodes is the
    // same order of work as the 4096-round engine cases.
    let scale_rounds = if quick { 64 } else { 1_024 };
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        engine: engine_cases(rounds),
        scale: scale_cases(scale_rounds),
        transport: transport_cases(rounds),
        // Mobility cases are cheap (a 40-node, 720-round trial per
        // epoch length); the same pair runs at every budget.
        mobility: mobility_cases(),
        campaign: measure_campaign(reps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_valid_and_roundtrips() {
        let report = run(true);
        report.validate().expect("fresh report validates");
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.engine.len(), report.engine.len());
        assert_eq!(back.campaign.scenarios, report.campaign.scenarios);
        assert!(!report.summary().is_empty());
        // The scale curve covers three decades of n, largest 50k, and
        // mirrors the scale-curve sweep's deployments.
        let ns: Vec<usize> = report.scale.iter().map(|c| c.nodes).collect();
        assert_eq!(ns, vec![1_000, 10_000, 50_000]);
        assert_eq!(back.scale.len(), report.scale.len());
        assert!(report.summary().contains("scale curve"));
        // The mobility section pairs the native epoch length with a 4x
        // finer grid over the same horizon.
        let epochs: Vec<usize> = report.mobility.iter().map(|c| c.epochs).collect();
        assert_eq!(epochs, vec![6, 24]);
        assert!(report.summary().contains("rebuild"));
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let base = run(true);

        let mut report = base.clone();
        report.schema_version = 99;
        assert!(report.validate().is_err());

        let mut report = base.clone();
        report.engine.clear();
        assert!(report.validate().is_err());

        let mut report = base.clone();
        report.scale[0].node_rounds_per_sec = f64::NAN;
        assert!(report.validate().is_err());

        let mut report = base.clone();
        report.campaign.trials_per_sec = f64::NAN;
        assert!(report.validate().is_err());

        assert!(BenchReport::from_json("{").is_err());
    }

    #[test]
    fn compare_flags_regressions_and_tracks_case_churn() {
        let base = run(true);

        // Identical reports: every ratio is 1.0, nothing regresses.
        let same = compare(&base, &base, 0.5);
        assert_eq!(
            same.cases.len(),
            base.engine.len()
                + base.scale.len()
                + base.transport.len()
                + base.mobility.len()
                + 1
        );
        assert!(same.regressions().is_empty());
        assert!(same.missing.is_empty() && same.added.is_empty());
        assert!(same.summary().contains("no regressions"));

        // Slow one engine case and the campaign below the threshold.
        let mut slow = base.clone();
        slow.engine[0].node_rounds_per_sec = base.engine[0].node_rounds_per_sec * 0.25;
        slow.campaign.trials_per_sec = base.campaign.trials_per_sec * 0.25;
        let cmp = compare(&base, &slow, 0.5);
        let regressed: Vec<&str> =
            cmp.regressions().iter().map(|c| c.case.as_str()).collect();
        assert_eq!(regressed, vec![base.engine[0].case.as_str(), "campaign"]);
        assert!(cmp.summary().contains("REGRESSED"));

        // A faster run never regresses.
        let mut fast = base.clone();
        for c in fast.engine.iter_mut().chain(&mut fast.scale) {
            c.node_rounds_per_sec *= 2.0;
        }
        fast.campaign.trials_per_sec *= 2.0;
        assert!(compare(&base, &fast, 0.5).regressions().is_empty());

        // Case churn is informational, not a regression.
        let mut churned = base.clone();
        let dropped = churned.engine.remove(1);
        churned.scale.push(EngineCase {
            case: "scale-new/bernoulli".into(),
            ..churned.scale[0].clone()
        });
        churned.campaign.scenarios.push("extra".into());
        let cmp = compare(&base, &churned, 0.5);
        assert!(cmp.regressions().is_empty());
        assert!(cmp.missing.contains(&dropped.case));
        assert!(cmp.missing.iter().any(|m| m.starts_with("campaign")));
        assert_eq!(cmp.added, vec!["scale-new/bernoulli".to_string()]);
        assert!(cmp.summary().contains("baseline only"));
        assert!(cmp.summary().contains("new case"));
    }

    #[test]
    fn reports_without_a_transport_section_still_load_and_compare() {
        // Pre-transport BENCH.json files have no `transport` key: they
        // parse (empty section), validate, and compare against a report
        // that has one — the new cases surface as informational churn,
        // never as regressions.
        let base = run(true);
        let mut legacy = base.clone();
        legacy.transport.clear();
        let json = legacy.to_json();
        let stripped = json.replace("\"transport\": [],\n  ", "");
        assert_ne!(json, stripped, "test must actually strip the key");
        let back = BenchReport::from_json(&stripped).unwrap();
        assert!(back.transport.is_empty());
        assert!(!back.summary().contains("mock-net"));

        let cmp = compare(&back, &base, 0.5);
        assert!(cmp.regressions().is_empty());
        assert_eq!(
            cmp.added,
            base.transport.iter().map(|c| c.case.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn transport_cases_measure_throughput_and_delay() {
        let case = measure_transport_case(64, 32);
        assert_eq!(case.nodes, 64);
        assert!(case.messages_per_sec > 0.0);
        // The mock net is configured with one round of per-hop delay and
        // the latency probe measures exactly that.
        assert_eq!(case.delivery_latency_rounds, 1.0);
    }

    #[test]
    fn mobility_cases_track_rebuild_cost_across_epoch_lengths() {
        let coarse = measure_mobility_case(240);
        let fine = measure_mobility_case(60);
        assert_eq!(coarse.nodes, fine.nodes);
        assert_eq!(coarse.rounds, fine.rounds, "same horizon either way");
        assert_eq!(coarse.epochs, 3);
        assert_eq!(fine.epochs, 12);
        // More epochs can only mean more (well, not less) rebuild work;
        // both totals include the shared static deployment build.
        assert!(fine.rebuild_ms >= coarse.rebuild_ms * 0.5, "rebuild clock sane");
        assert!(coarse.rebuild_ms >= 0.0 && fine.rebuild_ms >= 0.0);
    }

    #[test]
    fn reports_without_a_mobility_section_still_load() {
        // Pre-mobility BENCH.json files have no `mobility` key: they
        // parse (empty section), validate, and the new cases surface as
        // informational churn in a comparison, never as regressions.
        let report = run(true);
        let mut legacy = report.clone();
        legacy.mobility.clear();
        let json = legacy.to_json();
        let stripped = json.replace("\"mobility\": [],\n  ", "");
        assert_ne!(json, stripped, "test must actually strip the key");
        let back = BenchReport::from_json(&stripped).unwrap();
        assert!(back.mobility.is_empty());
        assert!(!back.summary().contains("rebuild"));
        let cmp = compare(&back, &report, 0.5);
        assert!(cmp.regressions().is_empty());
        assert_eq!(
            cmp.added,
            report.mobility.iter().map(|c| c.case.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reports_without_a_scale_section_still_load() {
        // Pre-scale BENCH.json files have no `scale` key: they must
        // parse (empty section) and validate, so old trajectory points
        // stay readable.
        let mut report = run(true);
        report.scale.clear();
        let json = report.to_json();
        let legacy = json.replace("\"scale\": [],\n  ", "");
        assert_ne!(json, legacy, "test must actually strip the key");
        let back = BenchReport::from_json(&legacy).unwrap();
        assert!(back.scale.is_empty());
        assert!(!back.summary().contains("scale curve"));
    }
}
