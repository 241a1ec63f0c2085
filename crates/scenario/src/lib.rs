//! # scenario: declarative simulation campaigns for the dual graph model
//!
//! The paper's guarantees are quantified over an *adversarial* dual
//! graph `(G, G')`: the interesting behavior of `Seed(δ, ε)` and
//! `LB(t_ack, t_prog, ε)` only shows up under hostile link schedules,
//! churn, and interference. This crate makes such campaigns **data**
//! instead of code:
//!
//! * [`spec`] — the serde-serializable [`Scenario`](spec::Scenario)
//!   description (topology family + adversary schedule + fault plan +
//!   workload + stop condition + seeds) and its validating
//!   [`ScenarioBuilder`](spec::ScenarioBuilder).
//! * [`registry`] — named scenarios: the E1–E11 experiment suite
//!   re-expressed as data, plus fault-injection scenarios (churn,
//!   crash-restart, jamming window, mobility, drop burst) the hard-coded
//!   suite could not state. The registry is the files under
//!   `scenarios/`, embedded at compile time.
//! * [`runner`] — the [`ScenarioRunner`](runner::ScenarioRunner),
//!   compiling a scenario into configured `radio-sim` executions, fanning
//!   trials across cores, and aggregating experiment-style stats tables.
//!   A trial's [`TrialOutcome`] is measured from its trace in one
//!   place for every workload: one walk over the outputs counts acks
//!   and deliveries, finds the first ack and the watched delivery, and
//!   splits deliveries over jammed and clear nodes.
//! * [`campaign`] — the [`Campaign`](campaign::Campaign) batch runner
//!   (every registry entry, or a subset, fanned out across scenarios as
//!   well as trials), its combined markdown report, and the
//!   golden-metric regression gate
//!   ([`GoldenMetrics`](campaign::GoldenMetrics), `scenarios/golden/`).
//! * [`obs`] — run-level observability: [`Campaign::run_observed`]
//!   (campaign) fills a [`RunTelemetry`](obs::RunTelemetry) — per-trial
//!   wall-clock and latency histograms, worker-pool utilization, merged
//!   engine phase timings — serialized as a JSONL run journal
//!   (`telemetry::validate_journal` checks it). Telemetry observes
//!   only: outcomes, reports, and golden metrics stay byte-identical.
//! * [`sweep`] — parameter-sweep families: a [`SweepSpec`](sweep::SweepSpec)
//!   expands one base scenario over up to three named override axes
//!   into a grid of derived scenarios (run as one campaign), and a
//!   [`SweepReport`](sweep::SweepReport) pivots the outcomes into
//!   per-axis curve tables (markdown + CSV). The sweep registry
//!   ([`sweep::sweeps`]) is the files under `scenarios/sweeps/`: the
//!   churn-knee, loss-grid, mobility-knee and scale-curve families.
//! * [`search`] — the adversary search engine: a
//!   [`SearchSpec`](search::SearchSpec) describes a budgeted,
//!   seed-deterministic exploration of the adversary × fault space
//!   (random or (μ+λ) evolutionary) maximizing an ack-latency or
//!   spec-violation [`Objective`](search::Objective); worst cases land
//!   in a [`SearchArchive`](search::SearchArchive) and are re-emitted
//!   as blessable scenario files (`scenarios/found/`). The presets
//!   ([`search::presets`]) are the files under `scenarios/search/`.
//!
//! Scenarios serialize to JSON (`Scenario::to_json` /
//! `Scenario::from_json`); the `scenario` binary in the `bench` crate
//! runs a registry name or a JSON file end-to-end, always as an
//! observed one-scenario [`Campaign`], and saves trial 0's full trace
//! with [`ScenarioRunner::trial_trace_json`].
//! Executions are pure functions of `(scenario, trial index)`:
//! replaying a trial yields a byte-identical trace, fault injection
//! included.
//!
//! ```
//! use scenario::prelude::*;
//!
//! let s = ScenarioBuilder::new(
//!     "demo",
//!     TopologySpec::Clique { n: 4, r: 1.0 },
//!     WorkloadSpec::LocalBroadcast {
//!         epsilon1: 0.25,
//!         senders: vec![0],
//!         messages_per_sender: 1,
//!     },
//! )
//! .drop_burst(5, 20, 0.25)
//! .trials(2)
//! .build()
//! .expect("valid scenario");
//! let report = ScenarioRunner::new(s).expect("runnable").run();
//! assert_eq!(report.outcomes.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod obs;
pub mod registry;
pub mod runner;
pub mod search;
pub mod spec;
pub mod sweep;

pub use campaign::{Campaign, CampaignReport, CheckReport, GoldenMetric, GoldenMetrics};
pub use obs::{RunTelemetry, ScenarioTelemetry};
pub use runner::{ScenarioReport, ScenarioRunner, TrialOutcome};
pub use search::{
    run_search, ArchiveEntry, CandidateMetrics, Objective, SearchArchive, SearchSpec, StrategySpec,
};
pub use spec::{
    AdversarySpec, FaultPlanSpec, PartitionSpec, RegionSpec, Scenario, ScenarioBuilder,
    ScenarioError, StopSpec, TopologySpec, TransportSpec, WorkloadSpec,
};
pub use sweep::{OverrideSpec, SweepAxis, SweepGrid, SweepPoint, SweepReport, SweepSpec};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::campaign::{
        Campaign, CampaignReport, CheckReport, GoldenMetric, GoldenMetrics, MetricCheck,
    };
    pub use crate::registry;
    pub use crate::runner::{ScenarioReport, ScenarioRunner, TrialOutcome};
    pub use crate::search::{
        self, run_search, ArchiveEntry, Candidate, CandidateMetrics, Objective, SearchArchive,
        SearchSpec, SearchStrategy, SpaceSpec, StrategySpec,
    };
    pub use crate::spec::{
        AdversarySpec, CrashSpec, DropSpec, FaultPlanSpec, JamSpec, PartitionSpec, RegionSpec,
        Scenario, ScenarioBuilder, ScenarioError, StopSpec, TopologySpec, TransportSpec,
        WorkloadSpec,
    };
    pub use crate::sweep::{
        self, GridPoint, OverrideSpec, SweepAxis, SweepGrid, SweepPoint, SweepReport, SweepSpec,
    };
}
