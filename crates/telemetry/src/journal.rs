//! Structured JSONL run journal: record schema + validator.
//!
//! A journal is one JSON object per line, discriminated by a literal
//! `kind` field:
//!
//! 1. `meta`     — first line; schema version, run mode/label, totals
//! 2. `scenario` — one per scenario: trial wall-clock histogram,
//!    ack/delivery latency histograms (rounds), merged engine
//!    metrics (when the workload exposes them)
//! 3. `pool`     — worker-pool utilization: per-worker busy ns vs wall
//! 4. `summary`  — last line; total wall-clock and aggregate trials/s
//!
//! Unknown fields are ignored on read (the derive tolerates them), so
//! the schema can grow additively. `validate_journal` is the checker
//! the `scenario journal` subcommand and the CI telemetry smoke job
//! run against produced files.

use serde::{Deserialize, Serialize};

use crate::engine::{EngineMetrics, ENGINE_PHASES, ENGINE_PHASE_NAMES};
use crate::hist::Histogram;

pub const JOURNAL_SCHEMA_VERSION: u32 = 2;

/// Sparse serialized form of a [`Histogram`]: summary statistics plus
/// parallel arrays of occupied-bucket lower bounds and counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramRecord {
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub bucket_lo: Vec<u64>,
    pub bucket_count: Vec<u64>,
}

impl HistogramRecord {
    /// Serialized form of a histogram; `None` when it holds no samples.
    pub fn of(h: &Histogram) -> Option<Self> {
        if h.is_empty() {
            return None;
        }
        let (mut bucket_lo, mut bucket_count) = (Vec::new(), Vec::new());
        for (lo, _hi, count) in h.nonzero_buckets() {
            bucket_lo.push(lo);
            bucket_count.push(count);
        }
        Some(HistogramRecord {
            count: h.count(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            mean: h.mean(),
            p50: h.p50().unwrap_or(0),
            p95: h.p95().unwrap_or(0),
            p99: h.p99().unwrap_or(0),
            bucket_lo,
            bucket_count,
        })
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        if self.bucket_lo.len() != self.bucket_count.len() {
            return Err(format!("{what}: bucket_lo/bucket_count length mismatch"));
        }
        let total: u64 = self.bucket_count.iter().sum();
        if total != self.count {
            return Err(format!(
                "{what}: bucket counts sum to {total} but count is {}",
                self.count
            ));
        }
        if !(self.min <= self.p50 && self.p50 <= self.p95 && self.p95 <= self.p99 && self.p99 <= self.max)
        {
            return Err(format!(
                "{what}: percentiles not monotone (min {} p50 {} p95 {} p99 {} max {})",
                self.min, self.p50, self.p95, self.p99, self.max
            ));
        }
        if !self.mean.is_finite() {
            return Err(format!("{what}: non-finite mean"));
        }
        Ok(())
    }
}

/// First journal line: identifies the run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetaRecord {
    pub kind: String,
    pub schema_version: u32,
    /// CLI mode that produced the journal: `single`, `campaign`, `sweep`.
    pub mode: String,
    /// Campaign/sweep/scenario label.
    pub label: String,
    pub scenarios: usize,
    pub trials: usize,
    pub threads: usize,
}

impl MetaRecord {
    pub fn new(mode: &str, label: &str, scenarios: usize, trials: usize, threads: usize) -> Self {
        MetaRecord {
            kind: "meta".into(),
            schema_version: JOURNAL_SCHEMA_VERSION,
            mode: mode.into(),
            label: label.into(),
            scenarios,
            trials,
            threads,
        }
    }
}

/// Serialized form of [`EngineMetrics`], merged over a scenario's trials.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineRecord {
    pub rounds: u64,
    /// Phase names, parallel to `phase_ns` (`EnginePhase` order).
    pub phase: Vec<String>,
    pub phase_ns: Vec<u64>,
    pub round_ns: Option<HistogramRecord>,
    pub transmissions: u64,
    pub deliveries: u64,
    pub collisions: u64,
    pub silent: u64,
    pub jammed: u64,
    pub dropped: u64,
    pub down_node_rounds: u64,
    /// Dynamic-geometry epoch switches; defaulted so pre-mobility
    /// journals still parse.
    #[serde(default)]
    pub epoch_switches: u64,
}

impl EngineRecord {
    pub fn of(m: &EngineMetrics) -> Self {
        EngineRecord {
            rounds: m.rounds,
            phase: ENGINE_PHASE_NAMES.iter().map(|s| s.to_string()).collect(),
            phase_ns: m.phase_ns.to_vec(),
            round_ns: HistogramRecord::of(&m.round_ns),
            transmissions: m.transmissions,
            deliveries: m.deliveries,
            collisions: m.collisions,
            silent: m.silent,
            jammed: m.jammed,
            dropped: m.dropped,
            down_node_rounds: m.down_node_rounds,
            epoch_switches: m.epoch_switches,
        }
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        if self.phase.len() != ENGINE_PHASES || self.phase_ns.len() != ENGINE_PHASES {
            return Err(format!("{what}: engine phase arrays must have {ENGINE_PHASES} entries"));
        }
        for (got, want) in self.phase.iter().zip(ENGINE_PHASE_NAMES) {
            if got != want {
                return Err(format!("{what}: unexpected phase name {got:?} (want {want:?})"));
            }
        }
        if let Some(h) = &self.round_ns {
            h.validate(&format!("{what}: round_ns"))?;
            if h.count != self.rounds {
                return Err(format!(
                    "{what}: round_ns holds {} samples for {} rounds",
                    h.count, self.rounds
                ));
            }
        }
        Ok(())
    }
}

/// One journal line per scenario (or sweep point).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRecord {
    pub kind: String,
    pub name: String,
    pub trials: usize,
    /// Per-trial wall-clock distribution (ns).
    pub trial_ns: Option<HistogramRecord>,
    /// First-ack latency distribution across trials (rounds).
    pub ack_latency_rounds: Option<HistogramRecord>,
    /// First-delivery latency distribution across trials (rounds).
    pub delivery_latency_rounds: Option<HistogramRecord>,
    /// Merged engine metrics; absent for workloads that wrap the
    /// engine behind an adapter that hides it.
    pub engine: Option<EngineRecord>,
}

impl ScenarioRecord {
    pub fn new(name: &str, trials: usize) -> Self {
        ScenarioRecord {
            kind: "scenario".into(),
            name: name.into(),
            trials,
            trial_ns: None,
            ack_latency_rounds: None,
            delivery_latency_rounds: None,
            engine: None,
        }
    }
}

/// Worker-pool utilization for the whole run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolRecord {
    pub kind: String,
    pub workers: usize,
    pub jobs: u64,
    pub wall_ns: u64,
    pub worker_busy_ns: Vec<u64>,
    /// Sum of busy time over `workers * wall` — 1.0 means every worker
    /// was busy for the whole run.
    pub utilization: f64,
}

impl PoolRecord {
    pub fn new(jobs: u64, wall_ns: u64, worker_busy_ns: Vec<u64>) -> Self {
        let workers = worker_busy_ns.len();
        let busy: u64 = worker_busy_ns.iter().sum();
        let denom = wall_ns.saturating_mul(workers as u64);
        let utilization = if denom > 0 { busy as f64 / denom as f64 } else { 0.0 };
        PoolRecord { kind: "pool".into(), workers, jobs, wall_ns, worker_busy_ns, utilization }
    }
}

/// Last journal line: run totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryRecord {
    pub kind: String,
    pub scenarios: usize,
    pub trials: usize,
    pub wall_s: f64,
    pub trials_per_sec: f64,
}

impl SummaryRecord {
    pub fn new(scenarios: usize, trials: usize, wall_s: f64) -> Self {
        let trials_per_sec = if wall_s > 0.0 { trials as f64 / wall_s } else { 0.0 };
        SummaryRecord { kind: "summary".into(), scenarios, trials, wall_s, trials_per_sec }
    }
}

/// What `validate_journal` learned about a well-formed journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalStats {
    pub lines: usize,
    pub scenarios: usize,
    /// Scenario records carrying merged engine metrics.
    pub engine_scenarios: usize,
    /// Scenario records carrying an ack-latency histogram.
    pub ack_scenarios: usize,
    pub trials: usize,
}

/// Validate a journal's structure and internal consistency. Returns
/// aggregate stats on success, the first violation on failure.
pub fn validate_journal(text: &str) -> Result<JournalStats, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() < 2 {
        return Err(format!("journal has {} lines; need at least meta + summary", lines.len()));
    }
    let kind_of = |i: usize, line: &str| -> Result<String, String> {
        let v: serde::Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not valid JSON: {e}", i + 1))?;
        match v.get("kind") {
            Some(serde::Value::String(k)) => Ok(k.clone()),
            _ => Err(format!("line {}: missing string `kind` field", i + 1)),
        }
    };

    let meta: MetaRecord = match kind_of(0, lines[0])?.as_str() {
        "meta" => serde_json::from_str(lines[0]).map_err(|e| format!("line 1: bad meta record: {e}"))?,
        k => return Err(format!("line 1 must be a meta record, got kind {k:?}")),
    };
    if meta.schema_version != JOURNAL_SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {} (expected {JOURNAL_SCHEMA_VERSION})",
            meta.schema_version
        ));
    }

    let mut stats = JournalStats {
        lines: lines.len(),
        scenarios: 0,
        engine_scenarios: 0,
        ack_scenarios: 0,
        trials: 0,
    };
    let mut summaries = 0usize;
    for (i, line) in lines.iter().enumerate().skip(1) {
        let what = format!("line {}", i + 1);
        match kind_of(i, line)?.as_str() {
            "meta" => return Err(format!("{what}: duplicate meta record")),
            "scenario" => {
                let rec: ScenarioRecord =
                    serde_json::from_str(line).map_err(|e| format!("{what}: bad scenario record: {e}"))?;
                if let Some(h) = &rec.trial_ns {
                    h.validate(&format!("{what} ({}): trial_ns", rec.name))?;
                    if h.count != rec.trials as u64 {
                        return Err(format!(
                            "{what} ({}): trial_ns holds {} samples for {} trials",
                            rec.name, h.count, rec.trials
                        ));
                    }
                }
                if let Some(h) = &rec.ack_latency_rounds {
                    h.validate(&format!("{what} ({}): ack_latency_rounds", rec.name))?;
                    stats.ack_scenarios += 1;
                }
                if let Some(h) = &rec.delivery_latency_rounds {
                    h.validate(&format!("{what} ({}): delivery_latency_rounds", rec.name))?;
                }
                if let Some(e) = &rec.engine {
                    e.validate(&format!("{what} ({})", rec.name))?;
                    stats.engine_scenarios += 1;
                }
                stats.scenarios += 1;
                stats.trials += rec.trials;
            }
            "pool" => {
                let rec: PoolRecord =
                    serde_json::from_str(line).map_err(|e| format!("{what}: bad pool record: {e}"))?;
                if rec.worker_busy_ns.len() != rec.workers {
                    return Err(format!("{what}: worker_busy_ns length != workers"));
                }
                if !rec.utilization.is_finite() || rec.utilization < 0.0 {
                    return Err(format!("{what}: bad utilization {}", rec.utilization));
                }
            }
            "summary" => {
                let rec: SummaryRecord =
                    serde_json::from_str(line).map_err(|e| format!("{what}: bad summary record: {e}"))?;
                summaries += 1;
                if i + 1 != lines.len() {
                    return Err(format!("{what}: summary record must be the last line"));
                }
                if !rec.wall_s.is_finite() || rec.wall_s < 0.0 {
                    return Err(format!("{what}: bad wall_s {}", rec.wall_s));
                }
                if rec.scenarios != stats.scenarios {
                    return Err(format!(
                        "{what}: summary says {} scenarios, journal has {}",
                        rec.scenarios, stats.scenarios
                    ));
                }
            }
            k => return Err(format!("{what}: unknown record kind {k:?}")),
        }
    }
    if summaries != 1 {
        return Err(format!("journal has {summaries} summary records; want exactly 1 (last line)"));
    }
    if stats.scenarios != meta.scenarios {
        return Err(format!(
            "meta promises {} scenarios, journal has {}",
            meta.scenarios, stats.scenarios
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hist() -> Histogram {
        let mut h = Histogram::new();
        for v in [3u64, 5, 5, 9, 1000, 2000] {
            h.record(v);
        }
        h
    }

    fn sample_journal() -> String {
        let meta = MetaRecord::new("campaign", "test", 2, 6, 4);
        let mut s1 = ScenarioRecord::new("e2", 4);
        let mut trial = Histogram::new();
        for v in [10_000u64, 20_000, 30_000, 40_000] {
            trial.record(v);
        }
        s1.trial_ns = HistogramRecord::of(&trial);
        s1.ack_latency_rounds = HistogramRecord::of(&sample_hist());
        let mut em = EngineMetrics::new();
        em.record_round([1, 2, 3, 4, 5, 6]);
        em.deliveries = 42;
        s1.engine = Some(EngineRecord::of(&em));
        let mut s2 = ScenarioRecord::new("amac", 2);
        let mut trial2 = Histogram::new();
        trial2.record(500);
        trial2.record(700);
        s2.trial_ns = HistogramRecord::of(&trial2);
        let pool = PoolRecord::new(6, 1_000_000, vec![400_000, 500_000, 450_000, 100_000]);
        let summary = SummaryRecord::new(2, 6, 0.001);
        [
            serde_json::to_string(&meta).unwrap(),
            serde_json::to_string(&s1).unwrap(),
            serde_json::to_string(&s2).unwrap(),
            serde_json::to_string(&pool).unwrap(),
            serde_json::to_string(&summary).unwrap(),
        ]
        .join("\n")
    }

    #[test]
    fn histogram_record_roundtrips_and_validates() {
        let h = sample_hist();
        let rec = HistogramRecord::of(&h).unwrap();
        assert_eq!(rec.count, 6);
        assert_eq!(rec.min, 3);
        assert_eq!(rec.bucket_count.iter().sum::<u64>(), 6);
        rec.validate("test").unwrap();
        let json = serde_json::to_string(&rec).unwrap();
        let back: HistogramRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count, rec.count);
        assert_eq!(back.bucket_lo, rec.bucket_lo);
        assert_eq!(HistogramRecord::of(&Histogram::new()), None);
    }

    #[test]
    fn valid_journal_passes() {
        let stats = validate_journal(&sample_journal()).unwrap();
        assert_eq!(stats.lines, 5);
        assert_eq!(stats.scenarios, 2);
        assert_eq!(stats.engine_scenarios, 1);
        assert_eq!(stats.ack_scenarios, 1);
        assert_eq!(stats.trials, 6);
    }

    #[test]
    fn corrupt_journals_fail() {
        let good = sample_journal();
        // Truncated: no summary.
        let no_summary: String =
            good.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(validate_journal(&no_summary).unwrap_err().contains("summary"));
        // Garbage line.
        let garbage = good.replace("\"kind\":\"pool\"", "\"kind\":\"mystery\"");
        assert!(validate_journal(&garbage).unwrap_err().contains("unknown record kind"));
        // Meta/scenario count mismatch.
        let missing: String = good
            .lines()
            .filter(|l| !l.contains("\"name\":\"amac\""))
            .collect::<Vec<_>>()
            .join("\n");
        let err = validate_journal(&missing).unwrap_err();
        assert!(err.contains("scenarios"), "{err}");
        // A v1 journal is refused by version.
        let v1 = good.replace("\"schema_version\":2", "\"schema_version\":1");
        let err = validate_journal(&v1).unwrap_err();
        assert!(err.contains("unsupported schema_version 1"), "{err}");
        // Not JSON at all.
        assert!(validate_journal("meta\nsummary").is_err());
        assert!(validate_journal("").is_err());
    }
}
