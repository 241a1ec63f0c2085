//! Run-level observability: per-scenario latency/timing aggregation
//! and the structured JSONL run journal.
//!
//! [`Campaign::run_observed`](crate::campaign::Campaign::run_observed)
//! fills a [`RunTelemetry`] while it runs — per-trial wall-clock
//! histograms, per-worker busy time, ack/delivery latency histograms
//! (in rounds, built from the same [`TrialOutcome`] fields the golden
//! gate pins, so they are deterministic), and merged engine metrics
//! for every workload that exposes the engine. [`RunTelemetry::journal`]
//! serializes the whole run as a JSONL journal (`telemetry::journal`
//! schema, checked by `telemetry::validate_journal`), and
//! [`RunTelemetry::footer`] renders the wall-clock/throughput footer
//! the CLI appends to written reports.
//!
//! None of this feeds back into simulation: outcomes, reports, and
//! golden metrics from an observed run are identical to a plain run.

use crate::runner::TrialOutcome;
use telemetry::{
    EngineMetrics, EngineRecord, Histogram, HistogramRecord, MetaRecord, PoolRecord,
    ScenarioRecord, SummaryRecord,
};

/// Telemetry aggregated over one scenario's trials.
pub struct ScenarioTelemetry {
    /// Scenario (registry or derived sweep-point) name.
    pub name: String,
    /// Trials measured.
    pub trials: usize,
    /// Per-trial wall-clock distribution (ns).
    pub trial_ns: Histogram,
    /// First-ack round across trials that observed one (deterministic:
    /// a pure function of the outcomes).
    pub ack_latency_rounds: Histogram,
    /// Watched-delivery round across trials that observed one.
    pub delivery_latency_rounds: Histogram,
    /// Engine metrics merged over all trials; `None` when no trial
    /// reported any.
    pub engine: Option<EngineMetrics>,
}

impl ScenarioTelemetry {
    /// An empty sink for a named scenario.
    pub fn new(name: &str) -> Self {
        ScenarioTelemetry {
            name: name.into(),
            trials: 0,
            trial_ns: Histogram::new(),
            ack_latency_rounds: Histogram::new(),
            delivery_latency_rounds: Histogram::new(),
            engine: None,
        }
    }

    /// Folds one trial's outcome in. `elapsed_ns` is the trial's
    /// wall-clock time on its worker.
    pub fn record_trial(&mut self, outcome: &TrialOutcome, elapsed_ns: u64) {
        self.trials += 1;
        self.trial_ns.record(elapsed_ns);
        if let Some(r) = outcome.first_ack {
            self.ack_latency_rounds.record(r);
        }
        if let Some(r) = outcome.first_delivery {
            self.delivery_latency_rounds.record(r);
        }
    }

    /// Folds one trial's engine metrics in (order-invariant).
    pub fn merge_engine(&mut self, m: &EngineMetrics) {
        self.engine.get_or_insert_with(EngineMetrics::new).merge(m);
    }

    fn record(&self) -> ScenarioRecord {
        let mut rec = ScenarioRecord::new(&self.name, self.trials);
        rec.trial_ns = HistogramRecord::of(&self.trial_ns);
        rec.ack_latency_rounds = HistogramRecord::of(&self.ack_latency_rounds);
        rec.delivery_latency_rounds = HistogramRecord::of(&self.delivery_latency_rounds);
        rec.engine = self.engine.as_ref().map(EngineRecord::of);
        rec
    }
}

/// Telemetry for one whole observed run (campaign, sweep, or a
/// single-scenario run wrapped in a one-entry campaign).
pub struct RunTelemetry {
    /// Worker threads the pool actually used.
    pub threads: usize,
    /// Total run wall-clock (ns).
    pub wall_ns: u64,
    /// Busy nanoseconds per pool worker.
    pub worker_busy_ns: Vec<u64>,
    /// Per-trial wall-clock distribution over the whole run.
    pub trial_ns: Histogram,
    /// Per-scenario aggregates, in campaign order.
    pub scenarios: Vec<ScenarioTelemetry>,
}

impl RunTelemetry {
    /// Total trials measured.
    pub fn total_trials(&self) -> usize {
        self.scenarios.iter().map(|s| s.trials).sum()
    }

    /// Run wall-clock in seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// The run as a JSONL journal: one `meta` line, one `scenario`
    /// line per scenario, one `pool` line, one `summary` line — the
    /// schema `telemetry::validate_journal` checks.
    pub fn journal(&self, mode: &str, label: &str) -> String {
        let meta = MetaRecord::new(
            mode,
            label,
            self.scenarios.len(),
            self.total_trials(),
            self.threads,
        );
        let pool = PoolRecord::new(
            self.total_trials() as u64,
            self.wall_ns,
            self.worker_busy_ns.clone(),
        );
        let summary = SummaryRecord::new(self.scenarios.len(), self.total_trials(), self.wall_s());
        let mut out = String::new();
        let mut push = |json: String| {
            out.push_str(&json);
            out.push('\n');
        };
        push(serde_json::to_string(&meta).expect("meta record serializes"));
        for s in &self.scenarios {
            push(serde_json::to_string(&s.record()).expect("scenario record serializes"));
        }
        push(serde_json::to_string(&pool).expect("pool record serializes"));
        push(serde_json::to_string(&summary).expect("summary record serializes"));
        out
    }

    /// The perf footer for written reports: total wall-clock, aggregate
    /// trials/s, worker-thread count. Appended by the CLI at file-write
    /// time only — never part of `to_markdown` (byte-identity).
    pub fn footer(&self) -> String {
        analysis::report::perf_footer(self.total_trials(), self.wall_s(), self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::trace::RoundStats;

    fn outcome(first_ack: Option<u64>, first_delivery: Option<u64>) -> TrialOutcome {
        TrialOutcome {
            master_seed: 1,
            rounds: 10,
            acks: first_ack.map_or(0, |_| 1),
            recvs: first_delivery.map_or(0, |_| 1),
            totals: RoundStats::default(),
            first_ack,
            first_delivery,
            stop_satisfied: true,
            max_owners: None,
            jammed_recvs: None,
            clear_recvs: None,
            spec_ok: true,
        }
    }

    fn sample_run() -> RunTelemetry {
        let mut s1 = ScenarioTelemetry::new("a");
        let mut engine = EngineMetrics::new();
        engine.record_round([1, 2, 3, 4, 5, 6]);
        s1.record_trial(&outcome(Some(7), Some(3)), 10_000);
        s1.merge_engine(&engine);
        let mut engine2 = EngineMetrics::new();
        engine2.record_round([2, 2, 2, 2, 2, 2]);
        s1.record_trial(&outcome(Some(9), None), 12_000);
        s1.merge_engine(&engine2);
        let mut s2 = ScenarioTelemetry::new("b");
        s2.record_trial(&outcome(None, Some(4)), 20_000);
        let mut trial_ns = Histogram::new();
        for v in [10_000u64, 12_000, 20_000] {
            trial_ns.record(v);
        }
        RunTelemetry {
            threads: 2,
            wall_ns: 50_000,
            worker_busy_ns: vec![22_000, 20_000],
            trial_ns,
            scenarios: vec![s1, s2],
        }
    }

    #[test]
    fn scenario_telemetry_merges_trials() {
        let run = sample_run();
        let s1 = &run.scenarios[0];
        assert_eq!(s1.trials, 2);
        assert_eq!(s1.ack_latency_rounds.count(), 2);
        assert_eq!(s1.ack_latency_rounds.p50(), Some(7));
        assert_eq!(s1.delivery_latency_rounds.count(), 1);
        let engine = s1.engine.as_ref().expect("merged engine metrics");
        assert_eq!(engine.rounds, 2);
        assert!(run.scenarios[1].engine.is_none());
        assert_eq!(run.total_trials(), 3);
    }

    #[test]
    fn journal_validates_and_counts_scenarios() {
        let journal = sample_run().journal("campaign", "test");
        let stats = telemetry::validate_journal(&journal).expect("journal validates");
        assert_eq!(stats.scenarios, 2);
        assert_eq!(stats.engine_scenarios, 1);
        assert_eq!(stats.ack_scenarios, 1);
        assert_eq!(stats.trials, 3);
        assert!(journal.contains("\"mode\":\"campaign\""));
    }

    #[test]
    fn footer_reports_throughput() {
        let f = sample_run().footer();
        assert!(f.contains("3 trials"), "{f}");
        assert!(f.contains("2 worker threads"), "{f}");
    }
}
