//! The perf harness: host-time samples of pinned trials, recorded as a
//! schema'd `BENCH.json` so every PR leaves a comparable perf trajectory
//! point with a noise band. See docs/perf.md for the methodology and the
//! compare rule.

use analysis::stats::quantile_sorted;
use analysis::table::fnum;
use local_broadcast::config::LbConfig;
use local_broadcast::service::{build_engine, QueueWorkload};
use radio_sim::graph::NodeId;
use radio_sim::scheduler::BernoulliEdges;
use radio_sim::topology;
use radio_sim::trace::RecordingPolicy;
use scenario::{
    registry, sweep, AdversarySpec, Campaign, Scenario, ScenarioBuilder, ScenarioRunner, StopSpec,
    TopologySpec, TransportSpec, TrialOutcome, WorkloadSpec,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version of the `BENCH.json` schema this crate writes and validates.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Timed samples per case. Every sample reruns the same trial, so the
/// samples differ only by host noise and their spread is the noise band.
pub const SAMPLES: usize = 5;

/// The pinned campaign subset every perf run measures — the same subset
/// CI's observed (telemetry) campaign gates, so throughput numbers
/// track a fixed workload across PRs.
pub const PINNED_CAMPAIGN: [&str; 4] = ["e2", "e5", "e11", "drop-burst"];

const NODE_ROUNDS: &str = "node-rounds/s";

/// Which direction of a case's samples is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// Throughputs: larger is faster.
    Higher,
    /// Costs: smaller is faster.
    Lower,
}

/// One measured quantity: [`SAMPLES`] host-time samples of one case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Case {
    /// Case name, unique within a report.
    pub name: String,
    /// Unit of every sample (`node-rounds/s`, `ms`, ...).
    pub unit: String,
    /// Whether higher or lower samples are better.
    pub better: Better,
    /// The samples, in measurement order.
    pub samples: Vec<f64>,
}

impl Case {
    fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, q)
    }

    /// The median sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The interquartile range: the case's noise band.
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }
}

/// The `BENCH.json` document: one measured perf trajectory point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Every measured case, in measurement order.
    pub cases: Vec<Case>,
}

/// The version field alone, read before the rest so a file of another
/// schema gets a version message rather than a missing-field error.
#[derive(Deserialize)]
struct SchemaVersion {
    schema_version: u32,
}

fn check_version(version: u32) -> Result<(), String> {
    if version == BENCH_SCHEMA_VERSION {
        Ok(())
    } else {
        Err(format!(
            "unsupported schema_version {version} (expected {BENCH_SCHEMA_VERSION}; \
             regenerate the file with `perf`)"
        ))
    }
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
    /// Returns a description of the first malformed field; a file of
    /// another schema version is named as such.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let version: SchemaVersion =
            serde_json::from_str(json).map_err(|e| format!("BENCH.json: {e}"))?;
        check_version(version.schema_version)?;
        let report: BenchReport =
            serde_json::from_str(json).map_err(|e| format!("BENCH.json: {e}"))?;
        report.validate()?;
        Ok(report)
    }

    /// Checks the schema invariants: supported version, at least one
    /// case, unique non-empty names and units, and a non-empty list of
    /// finite, non-negative samples per case.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        check_version(self.schema_version)?;
        if self.cases.is_empty() {
            return Err("cases: needs at least one case".into());
        }
        for (i, c) in self.cases.iter().enumerate() {
            if c.name.is_empty() || c.unit.is_empty() {
                return Err(format!("case {i}: empty name or unit"));
            }
            if self.cases[..i].iter().any(|o| o.name == c.name) {
                return Err(format!("case {}: duplicate name", c.name));
            }
            if c.samples.is_empty() {
                return Err(format!("case {}: no samples", c.name));
            }
            if let Some(v) = c.samples.iter().find(|v| !v.is_finite() || **v < 0.0) {
                return Err(format!(
                    "case {}: samples must be finite and non-negative, got {v}",
                    c.name
                ));
            }
        }
        Ok(())
    }

    /// A human-readable table: each case's median and IQR.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{:<32} {:>12} {:>10}  unit ({SAMPLES} samples per case)\n",
            "case", "median", "IQR"
        );
        for c in &self.cases {
            out.push_str(&format!(
                "{:<32} {:>12} {:>10}  {}\n",
                c.name,
                fnum(c.median()),
                fnum(c.iqr()),
                c.unit
            ));
        }
        out
    }
}

/// One case compared between two reports.
#[derive(Debug, Clone)]
pub struct CaseDelta {
    /// Case name.
    pub name: String,
    /// Unit of both medians.
    pub unit: String,
    /// The baseline's median.
    pub old_median: f64,
    /// The baseline's IQR: how far the new median may be worse.
    pub old_iqr: f64,
    /// The new report's median.
    pub new_median: f64,
    /// Whether the new median is worse than the baseline's by more than
    /// the baseline's IQR.
    pub regressed: bool,
}

/// The result of comparing a new perf report against a baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Deltas for every case present in both reports.
    pub cases: Vec<CaseDelta>,
    /// Baseline cases absent from the new report (informational).
    pub missing: Vec<String>,
    /// New-report cases absent from the baseline (informational).
    pub added: Vec<String>,
}

impl CompareReport {
    /// The cases flagged as regressed.
    pub fn regressions(&self) -> Vec<&CaseDelta> {
        self.cases.iter().filter(|c| c.regressed).collect()
    }

    /// A human-readable delta table, one line per compared case.
    pub fn summary(&self) -> String {
        let mut out =
            "perf comparison (regression: median worse than the baseline's by more than its IQR):\n"
                .to_string();
        for c in &self.cases {
            out.push_str(&format!(
                "  {:<32} {:>12} ± {:<10} -> {:>12}  {}{}\n",
                c.name,
                fnum(c.old_median),
                fnum(c.old_iqr),
                fnum(c.new_median),
                c.unit,
                if c.regressed { "  REGRESSED" } else { "" }
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("  {m:<32} baseline only (not compared)\n"));
        }
        for a in &self.added {
            out.push_str(&format!("  {a:<32} new case (no baseline)\n"));
        }
        out.push_str(&format!(
            "{} regression(s) across {} compared case(s)\n",
            self.regressions().len(),
            self.cases.len()
        ));
        out
    }
}

/// Compares a new report against a baseline, matching cases by name. A
/// case regresses when its new median is worse than the baseline's
/// median by more than the baseline's IQR; cases on only one side are
/// informational, never regressions.
pub fn compare(old: &BenchReport, new: &BenchReport) -> CompareReport {
    let mut cases = Vec::new();
    let mut missing = Vec::new();
    for o in &old.cases {
        let Some(n) = new.cases.iter().find(|n| n.name == o.name) else {
            missing.push(o.name.clone());
            continue;
        };
        let (old_median, old_iqr, new_median) = (o.median(), o.iqr(), n.median());
        let worse_by = match o.better {
            Better::Higher => old_median - new_median,
            Better::Lower => new_median - old_median,
        };
        cases.push(CaseDelta {
            name: o.name.clone(),
            unit: o.unit.clone(),
            old_median,
            old_iqr,
            new_median,
            regressed: worse_by > old_iqr,
        });
    }
    let added = new
        .cases
        .iter()
        .filter(|n| !old.cases.iter().any(|o| o.name == n.name))
        .map(|n| n.name.clone())
        .collect();
    CompareReport {
        cases,
        missing,
        added,
    }
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// One untimed warmup run of `run`, then [`SAMPLES`] timed reruns; each
/// run returns the work it did, and a sample is work per second.
fn throughput(mut run: impl FnMut() -> f64) -> Vec<f64> {
    run();
    (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let work = run();
            work / start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Times trial 0 of `scenario` through [`ScenarioRunner::run_trial`];
/// `work` reads the trial's work units off its outcome, given the
/// vertex count.
fn trial_case(
    name: &str,
    unit: &str,
    scenario: Scenario,
    work: impl Fn(&TrialOutcome, usize) -> f64,
) -> Case {
    let runner = ScenarioRunner::new(scenario).expect("perf scenarios validate");
    let n = runner.topology().graph.len();
    Case {
        name: name.into(),
        unit: unit.into(),
        better: Better::Higher,
        samples: throughput(|| work(&runner.run_trial(0), n)),
    }
}

fn node_rounds(outcome: &TrialOutcome, n: usize) -> f64 {
    outcome.rounds as f64 * n as f64
}

/// The pinned RGG family the engine and transport cases run on.
fn rgg(n: usize, nodes_per_unit_area: f64) -> TopologySpec {
    TopologySpec::RandomGeometric {
        n,
        side: (n as f64 / nodes_per_unit_area).sqrt(),
        r: 2.0,
        grey_reliable_p: 0.1,
        grey_unreliable_p: 0.8,
        seed: 7,
    }
}

/// LBAlg streaming from four evenly spaced senders on `topology` for
/// `rounds` rounds: most nodes listen most rounds, as in the paper's
/// workloads.
fn lb_stream(name: &str, topology: TopologySpec, rounds: u64) -> ScenarioBuilder {
    let n = topology.node_count();
    ScenarioBuilder::new(
        name,
        topology,
        WorkloadSpec::LocalBroadcast {
            epsilon1: 0.25,
            senders: (0..4).map(|i| i * n / 4).collect(),
            messages_per_sender: 1_000,
        },
    )
    .stop(StopSpec::Rounds { rounds })
    .trials(1)
}

/// The engine cases: LBAlg on a 256-node RGG under a Bernoulli schedule,
/// under all extra edges, and the same with a churn + jamming + drop
/// fault plan, plus SeedAlg on a dense 1024-node RGG.
fn engine_cases(rounds: u64) -> Vec<Case> {
    let lb = |adversary| lb_stream("perf-lb-rgg-256", rgg(256, 8.0), rounds).adversary(adversary);
    let faulted = lb(AdversarySpec::AllExtraEdges)
        .crash(1, 16, Some(64))
        .jam_nodes(vec![2, 3], 8, 128)
        .drop_burst(4, 256, 0.1);
    let seed = ScenarioBuilder::new(
        "perf-seed-rgg-1024-dense",
        rgg(1024, 24.0),
        WorkloadSpec::SeedAgreement {
            epsilon1: 0.25,
            seed_bits: 64,
        },
    )
    .stop(StopSpec::Rounds { rounds })
    .trials(1);
    [
        (
            "lb-rgg-256/bernoulli",
            lb(AdversarySpec::Bernoulli { p: 0.5 }),
        ),
        ("lb-rgg-256/all-edges", lb(AdversarySpec::AllExtraEdges)),
        ("lb-rgg-256/all-edges+faults", faulted),
        ("seed-rgg-1024-dense/all-edges", seed),
    ]
    .into_iter()
    .map(|(name, s)| {
        trial_case(
            name,
            NODE_ROUNDS,
            s.build().expect("perf scenario"),
            node_rounds,
        )
    })
    .collect()
}

/// The scale cases: the `scale-curve` sweep's pinned points (a Decay
/// flood on constant-density deployments of 1k, 10k and 50k nodes under
/// a Bernoulli schedule) run for `rounds` rounds. Density is fixed, so
/// flat node-rounds/s along `n` means no super-linear cost.
fn scale_cases(rounds: u64) -> Vec<Case> {
    let points = scale_curve().scenarios();
    [1_000usize, 10_000, 50_000]
        .into_iter()
        .map(|n| {
            let mut s = points
                .iter()
                .find(|s| s.name == format!("scale@n={n},adv=0.5"))
                .expect("pinned scale point")
                .clone();
            s.stop = StopSpec::Rounds { rounds };
            trial_case(&format!("scale-{n}/bernoulli"), NODE_ROUNDS, s, node_rounds)
        })
        .collect()
}

/// The registered `scale-curve` sweep, expanded.
fn scale_curve() -> sweep::SweepGrid {
    sweep::find_sweep("scale-curve")
        .expect("scale-curve is registered")
        .expand()
        .expect("scale-curve expands")
}

/// Set-up of the `scale-curve` sweep: expanding it and compiling its
/// campaign, so every `ScenarioRunner::new` of its 12 points over six
/// deployments of 1k–50k nodes. Each sample is timed after the previous
/// campaign is dropped, so no build is served from a live runner.
fn setup_case() -> Case {
    let compile = || scale_curve().campaign().expect("scale-curve compiles");
    drop(compile());
    let samples = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let campaign = compile();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            drop(campaign);
            ms
        })
        .collect();
    Case {
        name: "scale-curve/setup".into(),
        unit: "ms".into(),
        better: Better::Lower,
        samples,
    }
}

/// The transport cases: LBAlg streaming over the mock network (all of
/// `G'`, one round of per-hop delay) on RGGs of 64 and 256 nodes,
/// measured in channel deliveries per second.
fn transport_cases(rounds: u64) -> Vec<Case> {
    [64usize, 256]
        .into_iter()
        .map(|n| {
            let s = lb_stream("perf-mock-net", rgg(n, 8.0), rounds)
                .transport(TransportSpec::MockNet {
                    delay_rounds: 1,
                    loss_p: 0.0,
                    partitions: Vec::new(),
                })
                .build()
                .expect("perf scenario");
            trial_case(&format!("mock-net-{n}"), "msgs/s", s, |o, _| {
                o.totals.deliveries as f64
            })
        })
        .collect()
}

/// The registry `mobility` scenario re-aimed at `epoch_rounds`: trial
/// throughput (`mobility-epoch-<rounds>`) and the summed per-epoch RGG
/// rebuild time at runner construction (`.../rebuild`). Each sample
/// builds a fresh runner, so both quantities are resampled.
fn mobility_pair(epoch_rounds: u64) -> [Case; 2] {
    let mut s = registry::find("mobility").expect("mobility is registered");
    s.mobility
        .as_mut()
        .expect("the mobility scenario has a mobility spec")
        .epoch_rounds = epoch_rounds;
    let mut rebuild_ms = Vec::new();
    let rounds_per_s = throughput(|| {
        let runner = ScenarioRunner::new(s.clone()).expect("registry scenario compiles");
        let rebuild_ns: u64 = runner.rebuild_ns().expect("mobility runner").iter().sum();
        rebuild_ms.push(rebuild_ns as f64 / 1e6);
        runner.run_trial(0).rounds as f64
    });
    // The warmup run's rebuild is dropped like its throughput.
    rebuild_ms.remove(0);
    let name = format!("mobility-epoch-{epoch_rounds}");
    [
        Case {
            name: name.clone(),
            unit: "rounds/s".into(),
            better: Better::Higher,
            samples: rounds_per_s,
        },
        Case {
            name: format!("{name}/rebuild"),
            unit: "ms".into(),
            better: Better::Lower,
            samples: rebuild_ms,
        },
    ]
}

/// Campaign fan-out: `repetitions` runs of the pinned subset on the
/// default worker pool per sample, in trials per second.
fn campaign_case(repetitions: u32) -> Case {
    let campaign = Campaign::subset(&PINNED_CAMPAIGN).expect("pinned subset is registered");
    let trials: usize = campaign.scenarios().map(|s| s.trials).sum();
    Case {
        name: "campaign".into(),
        unit: "trials/s".into(),
        better: Better::Higher,
        samples: throughput(|| {
            for _ in 0..repetitions {
                assert_eq!(campaign.run().reports.len(), PINNED_CAMPAIGN.len());
            }
            (repetitions as usize * trials) as f64
        }),
    }
}

/// The E13 ablations: one streamed LBAlg phase on an 8-clique under a
/// Bernoulli schedule, for seed reuse k ∈ {1, 2, 4, 8} and for private
/// seeds (`seed-reuse-k1` is the default agreed-seed configuration, the
/// other side of that pair). A sample runs `phases` phases on fresh
/// engines. These are the only cases that build an engine by hand: seed
/// reuse and private seeds are `LbConfig` knobs no scenario field
/// reaches.
fn ablation_cases(phases: u64) -> Vec<Case> {
    let topo = topology::clique(8, 1.0);
    let base = LbConfig::practical(0.25);
    let variants = [1u32, 2, 4, 8]
        .map(|k| {
            (
                format!("ablation/seed-reuse-k{k}"),
                base.clone().with_seed_reuse(k),
            )
        })
        .into_iter()
        .chain([(
            "ablation/seed-mode-private".to_string(),
            base.clone().with_private_seeds(),
        )]);
    variants
        .map(|(name, cfg)| {
            let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
            let samples = throughput(|| {
                for seed in 1..=phases {
                    let env = QueueWorkload::uniform(8, &[NodeId(0)], 1_000);
                    let mut engine = build_engine(
                        &topo,
                        Box::new(BernoulliEdges::new(0.5, seed)),
                        &cfg,
                        Box::new(env),
                        seed,
                        RecordingPolicy::outputs_only(),
                    );
                    engine.run(params.phase_len());
                }
                phases as f64
            });
            Case {
                name,
                unit: "phases/s".into(),
                better: Better::Higher,
                samples,
            }
        })
        .collect()
}

/// Runs the whole measurement suite: `quick` uses a tiny budget (CI
/// smoke), the default budget targets a stable local number.
pub fn run(quick: bool) -> BenchReport {
    let (rounds, scale_rounds, repetitions, phases) = if quick {
        (64, 16, 1, 4)
    } else {
        (4_096, 128, 8, 64)
    };
    let mut cases = engine_cases(rounds);
    cases.extend(scale_cases(scale_rounds));
    cases.push(setup_case());
    cases.extend(transport_cases(rounds));
    // The registry mobility scenario at its native epoch length and at a
    // 4x finer grid (more rebuilds over the same horizon). A trial is a
    // 40-node, 720-round run; the same pairs run at every budget.
    cases.extend([120u64, 30].into_iter().flat_map(mobility_pair));
    cases.push(campaign_case(repetitions));
    cases.extend(ablation_cases(phases));
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, better: Better, samples: &[f64]) -> Case {
        Case {
            name: name.into(),
            unit: "u".into(),
            better,
            samples: samples.to_vec(),
        }
    }

    fn report(cases: Vec<Case>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            cases,
        }
    }

    #[test]
    fn quick_report_is_valid_and_roundtrips() {
        let report = run(true);
        report.validate().expect("fresh report validates");
        assert_eq!(BenchReport::from_json(&report.to_json()).unwrap(), report);
        assert!(report.cases.iter().all(|c| c.samples.len() == SAMPLES));
        let names: Vec<&str> = report.cases.iter().map(|c| c.name.as_str()).collect();
        // The scale curve covers three decades of n, largest 50k, and
        // its set-up; the mobility pairs split throughput from rebuild
        // cost; the E13 ablations ride along.
        for name in [
            "scale-1000/bernoulli",
            "scale-50000/bernoulli",
            "scale-curve/setup",
            "mobility-epoch-30/rebuild",
            "campaign",
            "ablation/seed-reuse-k8",
            "ablation/seed-mode-private",
        ] {
            assert!(names.contains(&name), "missing case {name}");
        }
        let summary = report.summary();
        assert!(summary.contains("IQR") && summary.contains("scale-10000/bernoulli"));
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let base = report(vec![case("a", Better::Higher, &[1.0, 2.0, 3.0])]);
        base.validate().unwrap();

        let mut bad = base.clone();
        bad.schema_version = 99;
        assert!(bad.validate().unwrap_err().contains("schema_version 99"));

        let mut bad = base.clone();
        bad.cases.clear();
        assert!(bad.validate().is_err());

        let mut bad = base.clone();
        bad.cases[0].samples[1] = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = base.clone();
        bad.cases[0].samples.clear();
        assert!(bad.validate().is_err());

        let mut bad = base.clone();
        bad.cases.push(bad.cases[0].clone());
        assert!(bad.validate().unwrap_err().contains("duplicate"));

        assert!(BenchReport::from_json("{").is_err());
        // A v1 file is refused by version, not by a missing field.
        let v1 = r#"{"schema_version": 1, "engine": [], "campaign": {}}"#;
        let err = BenchReport::from_json(v1).unwrap_err();
        assert!(err.contains("unsupported schema_version 1"), "{err}");
    }

    #[test]
    fn compare_flags_regressions_and_tracks_case_churn() {
        // Medians 100 and 10; IQRs 10 and 1.
        let speed = [90.0, 95.0, 100.0, 105.0, 110.0];
        let cost = [9.0, 9.5, 10.0, 10.5, 11.0];
        let base = report(vec![
            case("speed", Better::Higher, &speed),
            case("cost", Better::Lower, &cost),
        ]);
        let shifted = |ds: f64, dc: f64| {
            report(vec![
                case("speed", Better::Higher, &speed.map(|v| v + ds)),
                case("cost", Better::Lower, &cost.map(|v| v + dc)),
            ])
        };
        let flagged = |new: &BenchReport| -> Vec<String> {
            compare(&base, new)
                .regressions()
                .iter()
                .map(|c| c.name.clone())
                .collect()
        };

        let same = compare(&base, &base);
        assert_eq!(same.cases.len(), 2);
        assert!(same.regressions().is_empty());
        assert!(same.missing.is_empty() && same.added.is_empty());
        assert!(same.summary().contains("0 regression(s)"));

        // Worse, but inside the baseline's IQR: noise, not flagged.
        assert!(flagged(&shifted(-8.0, 0.8)).is_empty());
        // Worse beyond the IQR: flagged.
        assert_eq!(flagged(&shifted(-12.0, 0.0)), vec!["speed"]);
        assert_eq!(flagged(&shifted(0.0, 1.5)), vec!["cost"]);
        assert!(compare(&base, &shifted(-12.0, 1.5))
            .summary()
            .contains("REGRESSED"));
        // Better by any amount: never flagged.
        assert!(flagged(&shifted(50.0, -5.0)).is_empty());

        // Case churn is informational, not a regression.
        let churned = report(vec![
            case("speed", Better::Higher, &speed),
            case("new", Better::Lower, &cost),
        ]);
        let cmp = compare(&base, &churned);
        assert!(cmp.regressions().is_empty());
        assert_eq!(cmp.missing, vec!["cost".to_string()]);
        assert_eq!(cmp.added, vec!["new".to_string()]);
        assert!(cmp.summary().contains("baseline only") && cmp.summary().contains("new case"));
    }

    #[test]
    fn transport_cases_measure_throughput_and_delay() {
        let cases = transport_cases(32);
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["mock-net-64", "mock-net-256"]);
        for c in &cases {
            assert_eq!(c.unit, "msgs/s");
            assert!(c.samples.iter().all(|&v| v > 0.0), "{c:?}");
        }
    }

    #[test]
    fn mobility_cases_track_rebuild_cost_across_epoch_lengths() {
        let [coarse, coarse_rebuild] = mobility_pair(240);
        let [fine, fine_rebuild] = mobility_pair(60);
        assert_eq!(coarse.name, "mobility-epoch-240");
        assert_eq!(fine_rebuild.name, "mobility-epoch-60/rebuild");
        assert_eq!(
            (coarse.better, coarse_rebuild.better),
            (Better::Higher, Better::Lower)
        );
        for c in [&coarse, &coarse_rebuild, &fine, &fine_rebuild] {
            assert_eq!(c.samples.len(), SAMPLES);
        }
        // Four times the epochs can only mean more (well, not less)
        // rebuild work; both include the shared static deployment build.
        assert!(
            fine_rebuild.median() >= coarse_rebuild.median() * 0.5,
            "rebuild clock sane"
        );
    }
}
