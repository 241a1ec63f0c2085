//! Whole-suite campaigns and the golden-metric regression gate.
//!
//! A [`Campaign`] runs many scenarios — the full registry or a named
//! subset — by flattening every *(scenario, trial)* pair into one job
//! list for [`analysis::runner::run_jobs_on`], so the worker pool fans
//! out **across scenarios as well as trials**: a slow scenario's last
//! trials overlap the next scenario's first ones instead of serializing
//! behind them. Per-scenario [`ScenarioReport`]s are reassembled in
//! registry order and render into one combined markdown report.
//!
//! On top of the campaign sits the regression gate: each scenario's
//! summary metrics — mean first-ack latency, mean deliveries, mean
//! acks, and the deterministic-spec pass rate — are pinned as
//! [`GoldenMetrics`] (mean ± absolute tolerance, checked into
//! `scenarios/golden/*.json`). [`CampaignReport::check`] diffs a fresh
//! run against the blessed values with a readable pass/fail table;
//! [`CampaignReport::golden`] regenerates them. Because every trial is
//! a pure function of `(scenario, trial index)`, a fresh run of
//! unchanged code reproduces the blessed means exactly — the tolerance
//! band exists so intended small algorithmic drift can land without
//! re-blessing, while real regressions in `LBAlg` or the seed-agreement
//! preamble trip the gate.

use crate::obs::{RunTelemetry, ScenarioTelemetry};
use crate::runner::{ScenarioReport, ScenarioRunner, TrialOutcome};
use crate::spec::{Scenario, ScenarioError, MAX_TRIALS};
use analysis::report::{markdown_report, pm, within_tolerance};
use analysis::runner::{effective_threads, run_jobs_observed, run_jobs_on};
use analysis::table::{fnum, Table};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{Heartbeat, Histogram};

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// A validated batch of scenarios, runnable as one parallel job pool.
pub struct Campaign {
    runners: Vec<ScenarioRunner>,
    threads: Option<usize>,
}

impl Campaign {
    /// A campaign over every registry entry, in suite order.
    pub fn from_registry() -> Self {
        Campaign::new(crate::registry::all()).expect("registry scenarios are valid")
    }

    /// A campaign over the given scenarios.
    ///
    /// # Errors
    ///
    /// Rejects an empty list, more than [`MAX_TRIALS`] trials in total,
    /// a duplicate scenario name (golden files are keyed by name), and
    /// any scenario that fails validation.
    pub fn new(scenarios: Vec<Scenario>) -> Result<Self, ScenarioError> {
        if scenarios.is_empty() {
            return Err(invalid("campaign: needs at least one scenario"));
        }
        let total = scenarios
            .iter()
            .fold(0usize, |t, s| t.saturating_add(s.trials));
        if total > MAX_TRIALS {
            return Err(invalid(format!(
                "campaign: trials sum to {total} over {} scenario(s), more than the cap of \
                 {MAX_TRIALS}",
                scenarios.len()
            )));
        }
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(invalid(format!(
                "campaign: duplicate scenario name {:?}",
                w[0]
            )));
        }
        let runners = scenarios
            .into_iter()
            .map(ScenarioRunner::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Campaign {
            runners,
            threads: None,
        })
    }

    /// A campaign over the named registry entries, in the given order.
    ///
    /// # Errors
    ///
    /// Rejects unknown names (listing the registry) and duplicates.
    pub fn subset<S: AsRef<str>>(names: &[S]) -> Result<Self, ScenarioError> {
        let scenarios = names
            .iter()
            .map(|n| {
                crate::registry::find(n.as_ref()).ok_or_else(|| {
                    invalid(format!(
                        "campaign: unknown registry scenario {:?} (known: {})",
                        n.as_ref(),
                        crate::registry::names().join(", ")
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Campaign::new(scenarios)
    }

    /// Caps the worker pool at `threads` (default: available
    /// parallelism). Results are identical for any cap — the campaign
    /// report is byte-stable across thread counts.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The scenarios in run order.
    pub fn scenarios(&self) -> impl Iterator<Item = &Scenario> {
        self.runners.iter().map(|r| r.scenario())
    }

    /// Runs every trial of every scenario on one worker pool and
    /// reassembles per-scenario reports in campaign order.
    pub fn run(&self) -> CampaignReport {
        // Flatten (scenario, trial) pairs into a single job list so the
        // pool crosses scenario boundaries without a barrier.
        let jobs: Vec<(usize, usize)> = self
            .runners
            .iter()
            .enumerate()
            .flat_map(|(si, r)| (0..r.scenario().trials).map(move |t| (si, t)))
            .collect();
        let mut outcomes = run_jobs_on(jobs.len(), self.threads, |j| {
            let (si, trial) = jobs[j];
            self.runners[si].run_trial(trial)
        })
        .into_iter();
        let reports = self
            .runners
            .iter()
            .map(|r| ScenarioReport {
                scenario: r.scenario().clone(),
                outcomes: outcomes.by_ref().take(r.scenario().trials).collect(),
            })
            .collect();
        CampaignReport { reports }
    }

    /// Like [`Campaign::run`], but **observed**: every trial runs with
    /// engine telemetry attached, the worker pool reports per-trial
    /// wall-clock and per-worker busy time, and the optional
    /// [`Heartbeat`] ticks as trials and scenarios drain. The returned
    /// report is identical to [`Campaign::run`] — telemetry observes
    /// the execution, it never feeds back — so golden checks and
    /// markdown bytes are unchanged; only wall-clock (`_ns`) fields
    /// vary run to run. Each trial's engine metrics are merged into its
    /// scenario's accumulator as the trial finishes, so memory grows by
    /// one outcome per trial, not one 16 KiB histogram; the merge only
    /// adds and takes min/max, so completion order cannot change it.
    pub fn run_observed(&self, heartbeat: Option<&Heartbeat>) -> (CampaignReport, RunTelemetry) {
        let jobs: Vec<(usize, usize)> = self
            .runners
            .iter()
            .enumerate()
            .flat_map(|(si, r)| (0..r.scenario().trials).map(move |t| (si, t)))
            .collect();
        let threads = effective_threads(jobs.len(), self.threads);
        struct Acc {
            worker_busy_ns: Vec<u64>,
            elapsed_ns: Vec<u64>,
            remaining: Vec<usize>,
        }
        let acc = Mutex::new(Acc {
            worker_busy_ns: vec![0; threads],
            elapsed_ns: vec![0; jobs.len()],
            remaining: self.runners.iter().map(|r| r.scenario().trials).collect(),
        });
        let scenarios: Vec<Mutex<ScenarioTelemetry>> = self
            .runners
            .iter()
            .map(|r| Mutex::new(ScenarioTelemetry::new(&r.scenario().name)))
            .collect();
        let start = Instant::now();
        let outcomes = run_jobs_observed(
            jobs.len(),
            self.threads,
            |j| {
                let (si, trial) = jobs[j];
                let (outcome, engine) = self.runners[si].run_trial_instrumented(trial);
                if let Some(m) = engine {
                    scenarios[si]
                        .lock()
                        .expect("scenario telemetry")
                        .merge_engine(&m);
                }
                outcome
            },
            |obs| {
                let (si, _) = jobs[obs.job];
                let drained = {
                    let mut a = acc.lock().expect("telemetry accumulator");
                    a.worker_busy_ns[obs.worker] += obs.elapsed_ns;
                    a.elapsed_ns[obs.job] = obs.elapsed_ns;
                    a.remaining[si] -= 1;
                    a.remaining[si] == 0
                };
                if let Some(hb) = heartbeat {
                    hb.trial_done();
                    if drained {
                        hb.scenario_done();
                    }
                }
            },
        );
        let wall_ns = start.elapsed().as_nanos() as u64;
        let acc = acc.into_inner().expect("telemetry accumulator");

        // Reassemble per scenario. Jobs are contiguous per scenario and
        // outcomes/elapsed are job-index-ordered, so a single zip walks
        // every scenario's trials in trial order.
        let mut scenarios: Vec<ScenarioTelemetry> = scenarios
            .into_iter()
            .map(|s| s.into_inner().expect("scenario telemetry"))
            .collect();
        let mut per_outcomes: Vec<Vec<TrialOutcome>> = self
            .runners
            .iter()
            .map(|r| Vec::with_capacity(r.scenario().trials))
            .collect();
        for ((&(si, _), outcome), &elapsed) in jobs.iter().zip(outcomes).zip(&acc.elapsed_ns) {
            scenarios[si].record_trial(&outcome, elapsed);
            per_outcomes[si].push(outcome);
        }
        let reports = self
            .runners
            .iter()
            .zip(per_outcomes)
            .map(|(r, outcomes)| ScenarioReport {
                scenario: r.scenario().clone(),
                outcomes,
            })
            .collect();
        let mut trial_ns = Histogram::new();
        for s in &scenarios {
            trial_ns.merge(&s.trial_ns);
        }
        let telemetry = RunTelemetry {
            threads,
            wall_ns,
            worker_busy_ns: acc.worker_busy_ns,
            trial_ns,
            scenarios,
        };
        (CampaignReport { reports }, telemetry)
    }
}

// ---------------------------------------------------------------------------
// Combined report
// ---------------------------------------------------------------------------

/// All scenario reports of one campaign run, in campaign order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scenario reports.
    pub reports: Vec<ScenarioReport>,
}

impl CampaignReport {
    /// One-row-per-scenario summary table.
    pub fn overview(&self) -> Table {
        let mut t = Table::new(
            "campaign",
            "campaign overview",
            "per-scenario summary metrics (means and latency percentiles over trials)",
            vec![
                "scenario", "workload", "adversary", "trials", "spec ok", "acks",
                "deliveries", "first ack", "ack p50", "ack p95", "ack p99",
                "first delivery", "del p50", "del p95", "del p99",
            ],
        );
        let p = |v: Option<u64>| v.map_or("—".into(), |v| v.to_string());
        for r in &self.reports {
            let m = MeasuredMetrics::of(r);
            t.push_row(vec![
                r.scenario.name.clone(),
                r.scenario.workload.name().into(),
                r.scenario.adversary.name().into(),
                r.outcomes.len().to_string(),
                format!("{}/{}", m.spec_ok_trials, r.outcomes.len()),
                fnum(m.acks),
                fnum(m.deliveries),
                m.ack_latency.map_or("—".into(), fnum),
                p(m.ack_p50),
                p(m.ack_p95),
                p(m.ack_p99),
                m.delivery_latency.map_or("—".into(), fnum),
                p(m.delivery_p50),
                p(m.delivery_p95),
                p(m.delivery_p99),
            ]);
        }
        t
    }

    /// Renders the whole campaign as one markdown document: the
    /// overview, then every scenario's stats tables. Byte-identical
    /// across runs and thread counts.
    pub fn to_markdown(&self) -> String {
        let mut sections = vec![("Overview".to_string(), vec![self.overview()])];
        for r in &self.reports {
            sections.push((r.scenario.name.clone(), r.tables()));
        }
        markdown_report(
            "Campaign report",
            &format!(
                "{} scenario(s), {} trial(s) total.",
                self.reports.len(),
                self.reports.iter().map(|r| r.outcomes.len()).sum::<usize>(),
            ),
            &sections,
        )
    }

    /// Blesses this run: golden metrics (with default tolerances) for
    /// every scenario, in campaign order.
    pub fn golden(&self) -> Vec<GoldenMetrics> {
        self.reports.iter().map(GoldenMetrics::from_report).collect()
    }

    /// Diffs this run against blessed metrics. Every scenario is matched
    /// to its golden entry by name; a scenario without one fails its
    /// `golden file` row. Extra golden entries for scenarios not in this
    /// campaign are ignored (subset runs are first-class).
    pub fn check(&self, golden: &[GoldenMetrics]) -> CheckReport {
        let mut rows = Vec::new();
        for r in &self.reports {
            match golden.iter().find(|g| g.scenario == r.scenario.name) {
                Some(g) => rows.extend(g.check(r)),
                None => rows.push(MetricCheck {
                    scenario: r.scenario.name.clone(),
                    metric: "golden file".into(),
                    expected: "blessed metrics".into(),
                    actual: "missing".into(),
                    ok: false,
                }),
            }
        }
        CheckReport { rows }
    }
}

// ---------------------------------------------------------------------------
// Golden metrics
// ---------------------------------------------------------------------------

/// The summary metrics a golden file pins, measured from one report.
/// (Shared with the sweep report, which pivots the same quantities into
/// per-axis curve tables.)
pub(crate) struct MeasuredMetrics {
    pub(crate) ack_latency: Option<f64>,
    /// How many trials observed at least one ack — the sample the
    /// `ack_latency` mean averages over.
    pub(crate) ack_trials: usize,
    pub(crate) delivery_latency: Option<f64>,
    /// How many trials observed the watched delivery — the sample the
    /// `delivery_latency` mean averages over.
    pub(crate) delivery_trials: usize,
    /// First-ack round percentiles over observing trials, from the
    /// telemetry histogram (exact below 256 rounds, ≤ 1/32 relative
    /// error above; deterministic).
    pub(crate) ack_p50: Option<u64>,
    pub(crate) ack_p95: Option<u64>,
    pub(crate) ack_p99: Option<u64>,
    /// Watched-delivery round percentiles over observing trials.
    pub(crate) delivery_p50: Option<u64>,
    pub(crate) delivery_p95: Option<u64>,
    pub(crate) delivery_p99: Option<u64>,
    pub(crate) acks: f64,
    pub(crate) deliveries: f64,
    pub(crate) spec_ok_rate: f64,
    pub(crate) spec_ok_trials: usize,
}

impl MeasuredMetrics {
    pub(crate) fn of(report: &ScenarioReport) -> Self {
        let outcomes = &report.outcomes;
        let mean = |f: &dyn Fn(&TrialOutcome) -> f64| -> f64 {
            outcomes.iter().map(f).sum::<f64>() / outcomes.len().max(1) as f64
        };
        let lat: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.first_ack.map(|r| r as f64))
            .collect();
        let dlat: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.first_delivery.map(|r| r as f64))
            .collect();
        // Percentiles come from the same fixed-slot histogram the run
        // journal serializes, so report columns and journal agree.
        let mut ack_hist = Histogram::new();
        let mut delivery_hist = Histogram::new();
        for o in outcomes {
            if let Some(r) = o.first_ack {
                ack_hist.record(r);
            }
            if let Some(r) = o.first_delivery {
                delivery_hist.record(r);
            }
        }
        let spec_ok_trials = outcomes.iter().filter(|o| o.spec_ok).count();
        MeasuredMetrics {
            ack_latency: (!lat.is_empty())
                .then(|| lat.iter().sum::<f64>() / lat.len() as f64),
            ack_trials: lat.len(),
            delivery_latency: (!dlat.is_empty())
                .then(|| dlat.iter().sum::<f64>() / dlat.len() as f64),
            delivery_trials: dlat.len(),
            ack_p50: ack_hist.p50(),
            ack_p95: ack_hist.p95(),
            ack_p99: ack_hist.p99(),
            delivery_p50: delivery_hist.p50(),
            delivery_p95: delivery_hist.p95(),
            delivery_p99: delivery_hist.p99(),
            acks: mean(&|o| o.acks as f64),
            deliveries: mean(&|o| o.recvs as f64),
            spec_ok_rate: spec_ok_trials as f64 / outcomes.len().max(1) as f64,
            spec_ok_trials,
        }
    }
}

/// One pinned metric: an expected mean and a symmetric absolute
/// tolerance (`|expected − actual| ≤ tol` passes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenMetric {
    /// Expected mean over trials.
    pub mean: f64,
    /// Absolute tolerance band.
    pub tol: f64,
}

impl GoldenMetric {
    fn accepts(&self, actual: f64) -> bool {
        within_tolerance(self.mean, actual, self.tol)
    }
}

/// A scenario's checked-in expected summary metrics — the golden file
/// schema (`scenarios/golden/<name>.json`).
///
/// `trials` and `base_seed` pin the measurement configuration: metrics
/// are means over trials, so comparing runs with different trial counts
/// or seeding would be meaningless, and the gate fails loudly on such
/// config drift instead of reporting a spurious metric diff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenMetrics {
    /// The scenario this pins (registry name).
    pub scenario: String,
    /// Trial count the means were measured over.
    pub trials: usize,
    /// Base seed the trials derived from.
    pub base_seed: u64,
    /// Mean round of the first acknowledgment, over trials that observed
    /// one; `None` for ack-free workloads (and runs where no ack landed
    /// before the horizon). Absence must match absence.
    pub ack_latency: Option<GoldenMetric>,
    /// How many trials observed an ack — the sample `ack_latency`
    /// averages over, pinned **exactly**. Without it, a regression where
    /// some trials stop acking entirely but the survivors' mean stays in
    /// band would pass the gate. Defaults to 0 for pre-existing golden
    /// files (which then fail the check until re-blessed).
    #[serde(default)]
    pub ack_trials: usize,
    /// Mean round of the watched first delivery (`FirstDeliveryAt`
    /// stops) or of the first delivery anywhere otherwise, over trials
    /// that observed one; `None` when none did. This is the metric
    /// loss-burst and censoring curves move when ack timing (a fixed
    /// `LBAlg` schedule) cannot. Defaults to `None` for pre-existing
    /// golden files.
    #[serde(default)]
    pub delivery_latency: Option<GoldenMetric>,
    /// How many trials observed the watched delivery, pinned exactly
    /// (same rationale as `ack_trials`). Defaults to 0 for
    /// pre-existing golden files.
    #[serde(default)]
    pub delivery_trials: usize,
    /// First-ack round p50, pinned **exactly** when present: the
    /// percentile comes from the deterministic telemetry histogram, so
    /// any drift is a real behavior change, not noise. `None` (the
    /// default, and the value in golden files blessed before these
    /// fields existed) skips the comparison entirely — the fields are
    /// opt-in, not a parse break.
    #[serde(default)]
    pub ack_p50: Option<u64>,
    /// First-ack round p95, pinned exactly when present (see `ack_p50`).
    #[serde(default)]
    pub ack_p95: Option<u64>,
    /// First-ack round p99, pinned exactly when present (see `ack_p50`).
    #[serde(default)]
    pub ack_p99: Option<u64>,
    /// Watched-delivery round p50, pinned exactly when present.
    #[serde(default)]
    pub delivery_p50: Option<u64>,
    /// Watched-delivery round p95, pinned exactly when present.
    #[serde(default)]
    pub delivery_p95: Option<u64>,
    /// Watched-delivery round p99, pinned exactly when present.
    #[serde(default)]
    pub delivery_p99: Option<u64>,
    /// Mean acknowledgment outputs per trial.
    pub acks: GoldenMetric,
    /// Mean delivery outputs per trial (`recv`s / `decide`s / learned).
    pub deliveries: GoldenMetric,
    /// Fraction of trials whose deterministic spec conditions held.
    pub spec_ok_rate: GoldenMetric,
}

/// Default tolerance for count/latency metrics at bless time: 10% of
/// the mean, floored at 2.0 so near-zero means keep a usable band.
fn default_tol(mean: f64) -> f64 {
    (mean.abs() * 0.10).max(2.0)
}

/// Default tolerance for the spec-ok rate: tight enough that one trial
/// flipping (≥ 1/8 at registry trial counts) trips the gate.
const RATE_TOL: f64 = 0.10;

impl GoldenMetrics {
    /// Measures golden metrics from a report, with default tolerances.
    pub fn from_report(report: &ScenarioReport) -> Self {
        let m = MeasuredMetrics::of(report);
        GoldenMetrics {
            scenario: report.scenario.name.clone(),
            trials: report.outcomes.len(),
            base_seed: report.scenario.base_seed,
            ack_latency: m.ack_latency.map(|mean| GoldenMetric {
                mean,
                tol: default_tol(mean),
            }),
            ack_trials: m.ack_trials,
            delivery_latency: m.delivery_latency.map(|mean| GoldenMetric {
                mean,
                tol: default_tol(mean),
            }),
            delivery_trials: m.delivery_trials,
            ack_p50: m.ack_p50,
            ack_p95: m.ack_p95,
            ack_p99: m.ack_p99,
            delivery_p50: m.delivery_p50,
            delivery_p95: m.delivery_p95,
            delivery_p99: m.delivery_p99,
            acks: GoldenMetric {
                mean: m.acks,
                tol: default_tol(m.acks),
            },
            deliveries: GoldenMetric {
                mean: m.deliveries,
                tol: default_tol(m.deliveries),
            },
            spec_ok_rate: GoldenMetric {
                mean: m.spec_ok_rate,
                tol: RATE_TOL,
            },
        }
    }

    /// Serializes to pretty-printed JSON (the on-disk golden format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("golden metrics serialize");
        s.push('\n');
        s
    }

    /// Parses and validates golden metrics from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON and
    /// [`ScenarioError::Invalid`] on non-finite means, negative or
    /// non-finite tolerances, an empty name, or zero trials.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let golden: GoldenMetrics =
            serde_json::from_str(json).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        golden.validate()?;
        Ok(golden)
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if self.scenario.is_empty() {
            return Err(invalid("golden: scenario name must be non-empty"));
        }
        if self.trials == 0 {
            return Err(invalid("golden: trials must be >= 1"));
        }
        let metrics = [
            ("ack_latency", self.ack_latency.as_ref()),
            ("delivery_latency", self.delivery_latency.as_ref()),
            ("acks", Some(&self.acks)),
            ("deliveries", Some(&self.deliveries)),
            ("spec_ok_rate", Some(&self.spec_ok_rate)),
        ];
        for (name, m) in metrics.into_iter().filter_map(|(n, m)| m.map(|m| (n, m))) {
            if !m.mean.is_finite() {
                return Err(invalid(format!("golden: {name} mean must be finite")));
            }
            if !m.tol.is_finite() || m.tol < 0.0 {
                return Err(invalid(format!(
                    "golden: {name} tolerance must be finite and >= 0"
                )));
            }
        }
        Ok(())
    }

    /// Diffs a fresh report against these blessed metrics, one row per
    /// comparison. An empty failure set (`rows.iter().all(|r| r.ok)`)
    /// means the scenario passed; by construction a report always
    /// accepts the golden metrics blessed from it.
    pub fn check(&self, report: &ScenarioReport) -> Vec<MetricCheck> {
        let name = &report.scenario.name;
        let mut rows = Vec::new();
        let config_ok = self.trials == report.outcomes.len()
            && self.base_seed == report.scenario.base_seed;
        rows.push(MetricCheck {
            scenario: name.clone(),
            metric: "config".into(),
            expected: format!("{} trial(s), seed {}", self.trials, self.base_seed),
            actual: format!(
                "{} trial(s), seed {}",
                report.outcomes.len(),
                report.scenario.base_seed
            ),
            ok: config_ok,
        });
        let m = MeasuredMetrics::of(report);
        // The observing-trial count is pinned exactly, not within a
        // band: losing ack observers is a regression even when the
        // survivors' latency mean stays within tolerance.
        rows.push(MetricCheck {
            scenario: name.clone(),
            metric: "ack trials".into(),
            expected: format!("{}/{}", self.ack_trials, self.trials),
            actual: format!("{}/{}", m.ack_trials, report.outcomes.len()),
            ok: self.ack_trials == m.ack_trials,
        });
        // Same rationale for the watched-delivery count: censoring
        // curves lose observers before the surviving mean drifts.
        rows.push(MetricCheck {
            scenario: name.clone(),
            metric: "delivery trials".into(),
            expected: format!("{}/{}", self.delivery_trials, self.trials),
            actual: format!("{}/{}", m.delivery_trials, report.outcomes.len()),
            ok: self.delivery_trials == m.delivery_trials,
        });
        let metric = |metric: &str, golden: Option<&GoldenMetric>, actual: Option<f64>| {
            let (expected, actual_s, ok) = match (golden, actual) {
                (Some(g), Some(a)) => (pm(g.mean, g.tol), fnum(a), g.accepts(a)),
                (Some(g), None) => (pm(g.mean, g.tol), "—".into(), false),
                (None, Some(a)) => ("—".into(), fnum(a), false),
                (None, None) => ("—".into(), "—".into(), true),
            };
            MetricCheck {
                scenario: name.clone(),
                metric: metric.into(),
                expected,
                actual: actual_s,
                ok,
            }
        };
        rows.push(metric("ack latency", self.ack_latency.as_ref(), m.ack_latency));
        rows.push(metric(
            "delivery latency",
            self.delivery_latency.as_ref(),
            m.delivery_latency,
        ));
        // Percentiles pin exactly when blessed — the histogram is
        // deterministic — and are skipped entirely for golden files
        // blessed before the fields existed (opt-in, not a gate break).
        let percentile = |metric: &str, golden: Option<u64>, actual: Option<u64>| {
            golden.map(|g| MetricCheck {
                scenario: name.clone(),
                metric: metric.into(),
                expected: g.to_string(),
                actual: actual.map_or("—".into(), |a| a.to_string()),
                ok: actual == Some(g),
            })
        };
        rows.extend(percentile("ack p50", self.ack_p50, m.ack_p50));
        rows.extend(percentile("ack p95", self.ack_p95, m.ack_p95));
        rows.extend(percentile("ack p99", self.ack_p99, m.ack_p99));
        rows.extend(percentile("delivery p50", self.delivery_p50, m.delivery_p50));
        rows.extend(percentile("delivery p95", self.delivery_p95, m.delivery_p95));
        rows.extend(percentile("delivery p99", self.delivery_p99, m.delivery_p99));
        rows.push(metric("acks", Some(&self.acks), Some(m.acks)));
        rows.push(metric("deliveries", Some(&self.deliveries), Some(m.deliveries)));
        rows.push(metric("spec ok rate", Some(&self.spec_ok_rate), Some(m.spec_ok_rate)));
        rows
    }
}

// ---------------------------------------------------------------------------
// Check report
// ---------------------------------------------------------------------------

/// One golden-metric comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// The scenario checked.
    pub scenario: String,
    /// Which metric (or `config` / `golden file`).
    pub metric: String,
    /// The blessed expectation (`mean ± tol`).
    pub expected: String,
    /// The freshly measured value.
    pub actual: String,
    /// Whether the comparison passed.
    pub ok: bool,
}

/// The full pass/fail result of a campaign `--check`.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// All comparison rows, in campaign order.
    pub rows: Vec<MetricCheck>,
}

impl CheckReport {
    /// Whether every comparison passed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// The failing rows.
    pub fn failures(&self) -> impl Iterator<Item = &MetricCheck> {
        self.rows.iter().filter(|r| !r.ok)
    }

    /// A readable pass/fail table (one row per comparison).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "golden-check",
            "golden-metric regression gate",
            "fresh means must stay within each blessed mean ± tolerance",
            vec!["scenario", "metric", "expected", "actual", "status"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.scenario.clone(),
                r.metric.clone(),
                r.expected.clone(),
                r.actual.clone(),
                if r.ok { "ok".into() } else { "DRIFT".into() },
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ScenarioBuilder, TopologySpec, WorkloadSpec};

    fn tiny(name: &str, seed: u64) -> Scenario {
        ScenarioBuilder::new(
            name,
            TopologySpec::Clique { n: 4, r: 1.0 },
            WorkloadSpec::LocalBroadcast {
                epsilon1: 0.25,
                senders: vec![0],
                messages_per_sender: 1,
            },
        )
        .trials(2)
        .base_seed(seed)
        .build()
        .unwrap()
    }

    #[test]
    fn campaign_groups_outcomes_per_scenario_in_order() {
        let campaign = Campaign::new(vec![tiny("a", 5), tiny("b", 9)]).unwrap();
        let report = campaign.run();
        assert_eq!(report.reports.len(), 2);
        assert_eq!(report.reports[0].scenario.name, "a");
        assert_eq!(report.reports[1].scenario.name, "b");
        for (r, seed) in report.reports.iter().zip([5u64, 9]) {
            assert_eq!(r.outcomes.len(), 2);
            assert_eq!(r.outcomes[0].master_seed, seed);
            assert_eq!(r.outcomes[1].master_seed, seed + 1);
        }
    }

    #[test]
    fn campaign_matches_standalone_runs() {
        let campaign = Campaign::new(vec![tiny("a", 5), tiny("b", 9)]).unwrap();
        let report = campaign.run();
        for (i, s) in [tiny("a", 5), tiny("b", 9)].into_iter().enumerate() {
            let solo = ScenarioRunner::new(s).unwrap().run();
            for (a, b) in report.reports[i].outcomes.iter().zip(&solo.outcomes) {
                assert_eq!(a.master_seed, b.master_seed);
                assert_eq!(a.acks, b.acks);
                assert_eq!(a.recvs, b.recvs);
                assert_eq!(a.totals, b.totals);
            }
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_fills_telemetry() {
        // The observed pool must not perturb results: outcomes and the
        // whole markdown report are byte-identical to a plain run, at
        // any thread count. Telemetry rides along: trial/ack histograms
        // filled, engine metrics merged per scenario, valid journal.
        let plain = Campaign::new(vec![tiny("a", 5), tiny("b", 9)]).unwrap().run();
        for threads in [1, 4] {
            let campaign = Campaign::new(vec![tiny("a", 5), tiny("b", 9)])
                .unwrap()
                .threads(threads);
            let (report, telem) = campaign.run_observed(None);
            assert_eq!(report.to_markdown(), plain.to_markdown(), "{threads} threads");
            assert!(report.check(&plain.golden()).passed(), "{threads} threads");

            assert_eq!(telem.threads, threads.min(4));
            assert_eq!(telem.total_trials(), 4);
            assert_eq!(telem.trial_ns.count(), 4);
            assert_eq!(telem.scenarios.len(), 2);
            for s in &telem.scenarios {
                assert_eq!(s.trials, 2);
                assert_eq!(s.trial_ns.count(), 2);
                let engine = s.engine.as_ref().expect("lb workload exposes the engine");
                assert!(engine.rounds > 0 && engine.busy_ns() > 0);
                assert_eq!(s.ack_latency_rounds.count(), 2, "both trials ack");
            }
            assert!(telem.worker_busy_ns.iter().sum::<u64>() > 0);
            let journal = telem.journal("campaign", "test");
            let stats = telemetry::validate_journal(&journal)
                .unwrap_or_else(|e| panic!("{threads} threads: {e}\n{journal}"));
            assert_eq!(stats.scenarios, 2);
            assert_eq!(stats.engine_scenarios, 2);
        }
    }

    #[test]
    fn observed_ack_histograms_are_identical_across_threads() {
        // The deterministic half of the telemetry (latency histograms
        // in rounds, engine counters) is a pure function of the
        // scenario — byte-identical across worker threads; only the
        // `_ns` wall-clock fields may differ.
        let make = |threads: usize| {
            Campaign::new(vec![tiny("a", 5), tiny("b", 9)])
                .unwrap()
                .threads(threads)
                .run_observed(None)
                .1
        };
        let base = make(1);
        for threads in [2, 4] {
            let telem = make(threads);
            for (a, b) in base.scenarios.iter().zip(&telem.scenarios) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.ack_latency_rounds, b.ack_latency_rounds, "{threads}t: {}", a.name);
                assert_eq!(a.delivery_latency_rounds, b.delivery_latency_rounds);
                let (ea, eb) = (a.engine.as_ref().unwrap(), b.engine.as_ref().unwrap());
                assert_eq!(ea.rounds, eb.rounds);
                assert_eq!(ea.transmissions, eb.transmissions);
                assert_eq!(ea.deliveries, eb.deliveries);
                assert_eq!(ea.collisions, eb.collisions);
                assert_eq!(ea.jammed, eb.jammed);
                assert_eq!(ea.dropped, eb.dropped);
            }
        }
    }

    #[test]
    fn campaign_rejects_empty_duplicate_and_unknown() {
        assert!(Campaign::new(vec![]).is_err());
        assert!(Campaign::new(vec![tiny("a", 1), tiny("a", 2)]).is_err());
        assert!(Campaign::subset(&["no-such-scenario"]).is_err());
        assert!(Campaign::subset(&["e5"]).is_ok());
    }

    #[test]
    fn golden_roundtrips_and_accepts_its_own_run() {
        let report = Campaign::new(vec![tiny("a", 5)]).unwrap().run();
        let golden = report.golden();
        let back = GoldenMetrics::from_json(&golden[0].to_json()).unwrap();
        assert_eq!(golden[0], back);
        let check = report.check(&golden);
        assert!(check.passed(), "{}", check.table());
    }

    #[test]
    fn check_flags_drift_missing_golden_and_config_mismatch() {
        let report = Campaign::new(vec![tiny("a", 5)]).unwrap().run();
        let mut golden = report.golden();

        let mut drifted = golden.clone();
        drifted[0].deliveries.mean += drifted[0].deliveries.tol + 1.0;
        let check = report.check(&drifted);
        assert!(!check.passed());
        assert!(check.failures().any(|r| r.metric == "deliveries"));

        let check = report.check(&[]);
        assert!(check.failures().any(|r| r.metric == "golden file"));

        golden[0].trials += 1;
        let check = report.check(&golden);
        assert!(check.failures().any(|r| r.metric == "config"));
    }

    #[test]
    fn check_flags_lost_ack_observers_despite_in_band_mean() {
        // Regression: the ack-latency mean averages only over trials
        // that observed an ack, so a run where some trials stop acking
        // but the survivors' mean stays in band used to pass. The
        // observing-trial count is now pinned exactly.
        let mut report = Campaign::new(vec![tiny("a", 5)]).unwrap().run();
        let golden = report.golden();
        assert_eq!(golden[0].ack_trials, 2, "both trials ack in this scenario");

        // Trial 1 stops acking; keep trial 0's latency identical, so the
        // surviving mean moves at most within the blessed tolerance.
        report.reports[0].outcomes[1].first_ack = None;
        let check = report.check(&golden);
        assert!(!check.passed());
        assert!(check.failures().any(|r| r.metric == "ack trials"));
    }

    #[test]
    fn old_golden_files_without_ack_trials_load_and_fail_check() {
        // Pre-ack_trials golden files (no such key) still parse — the
        // field defaults to 0 — and then fail the gate loudly until
        // re-blessed, instead of erroring at load time.
        let report = Campaign::new(vec![tiny("a", 5)]).unwrap().run();
        let golden = &report.golden()[0];
        let json = golden.to_json();
        let legacy = json.replace("\"ack_trials\": 2,\n  ", "");
        assert_ne!(json, legacy, "test must actually strip the field");
        let old = GoldenMetrics::from_json(&legacy).unwrap();
        assert_eq!(old.ack_trials, 0);
        let check = report.check(&[old]);
        assert!(check.failures().any(|r| r.metric == "ack trials"));
    }

    #[test]
    fn percentiles_are_pinned_exactly_once_blessed() {
        // A blessed golden carries the deterministic latency percentiles
        // and pins them exactly: shifting any observing trial's first-ack
        // round enough to move a percentile slot fails the gate even when
        // the mean stays within its band.
        let mut report = Campaign::new(vec![tiny("a", 5)]).unwrap().run();
        let golden = report.golden();
        assert!(golden[0].ack_p50.is_some(), "acking scenario blesses p50");
        assert!(report.check(&golden).passed());

        for o in &mut report.reports[0].outcomes {
            if let Some(r) = o.first_ack.as_mut() {
                *r += 500;
            }
        }
        let check = report.check(&golden);
        assert!(check.failures().any(|r| r.metric == "ack p50"), "{}", check.table());
    }

    #[test]
    fn old_golden_files_without_percentiles_skip_those_rows() {
        // Percentile pins are opt-in: a golden file blessed before the
        // fields existed parses with `None` and its check has no
        // percentile rows at all — it passes or fails on the pre-existing
        // metrics alone.
        let report = Campaign::new(vec![tiny("a", 5)]).unwrap().run();
        let golden = &report.golden()[0];
        let mut legacy = golden.to_json();
        for field in ["ack_p50", "ack_p95", "ack_p99", "delivery_p50", "delivery_p95", "delivery_p99"] {
            let key = format!("\"{field}\"");
            legacy = legacy
                .lines()
                .filter(|l| !l.contains(&key))
                .collect::<Vec<_>>()
                .join("\n");
        }
        assert_ne!(golden.to_json(), legacy, "test must actually strip the fields");
        let old = GoldenMetrics::from_json(&legacy).unwrap();
        assert_eq!(old.ack_p50, None);
        let check = report.check(&[old]);
        assert!(check.passed(), "{}", check.table());
        assert!(check.rows.iter().all(|r| !r.metric.contains("p50")));
    }

    #[test]
    fn golden_json_rejects_malformed_values() {
        let report = Campaign::new(vec![tiny("a", 5)]).unwrap().run();
        let golden = &report.golden()[0];
        let mut bad = golden.clone();
        bad.acks.tol = -1.0;
        assert!(GoldenMetrics::from_json(&bad.to_json()).is_err());
        assert!(GoldenMetrics::from_json("{").is_err());
    }

    #[test]
    fn overview_has_one_row_per_scenario() {
        let report = Campaign::new(vec![tiny("a", 5), tiny("b", 9)]).unwrap().run();
        let t = report.overview();
        assert_eq!(t.rows.len(), 2);
        let md = report.to_markdown();
        assert!(md.contains("# Campaign report"));
        assert!(md.contains("## Overview"));
        assert!(md.contains("## a") && md.contains("## b"));
    }
}
