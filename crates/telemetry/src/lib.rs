//! Telemetry core for the dual-graph broadcast stack.
//!
//! Design constraints (see `docs/observability.md`):
//!
//! * **Zero-alloc in steady state.** Counters are fixed slots,
//!   histograms are fixed 2048-slot arrays, span timers are a single
//!   optional `Instant`. Nothing allocates after construction, so
//!   `radio_sim::Engine` keeps its counting-allocator contract with
//!   telemetry enabled.
//! * **Determinism-preserving.** Telemetry observes; it never feeds
//!   back. Counters are pure functions of the simulated execution and
//!   merge order-invariantly; wall-clock fields are labelled `_ns` and
//!   treated as noisy measurements. Enabling telemetry must leave
//!   traces, reports, and golden metrics byte-identical.
//! * **Structured output.** Runs emit a JSONL journal
//!   ([`journal::validate_journal`] checks it) and a stderr-only
//!   heartbeat, keeping stdout/report bytes untouched.

pub mod engine;
pub mod heartbeat;
pub mod hist;
pub mod journal;
pub mod span;

pub use engine::{EngineMetrics, EnginePhase, ENGINE_PHASES, ENGINE_PHASE_NAMES};
pub use heartbeat::Heartbeat;
pub use hist::Histogram;
pub use journal::{
    validate_journal, EngineRecord, HistogramRecord, JournalStats, MetaRecord, PoolRecord,
    ScenarioRecord, SummaryRecord, JOURNAL_SCHEMA_VERSION,
};
pub use span::Stopwatch;
