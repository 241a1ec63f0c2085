//! Engine-side metric sink.
//!
//! [`EngineMetrics`] is the fixed-shape accumulator `radio_sim::Engine`
//! owns when telemetry is enabled: per-phase round timing, a
//! round-duration histogram, and cumulative channel counters. Every
//! field is a fixed slot, so recording inside the round loop never
//! allocates (the PR 4 counting-allocator contract).
//!
//! Counters and the counter side of `merge` are deterministic: they
//! are pure functions of the simulated execution and sum
//! order-invariantly. The `*_ns` fields are wall-clock measurements —
//! consumers must treat them as noisy observations, never as inputs to
//! anything that feeds back into simulation state.

use crate::hist::Histogram;

/// Phases of `Engine::step`, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum EnginePhase {
    /// Fault-plan evaluation: down/jam/drop masks for the round.
    Faults = 0,
    /// Environment input delivery.
    Inputs = 1,
    /// Per-process transmit decisions.
    Transmit = 2,
    /// Scheduler edge selection + reception resolution.
    Resolve = 3,
    /// Per-listener delivery and `on_receive` callbacks.
    Deliver = 4,
    /// Output collection and double-buffer swap.
    Outputs = 5,
}

pub const ENGINE_PHASES: usize = 6;

/// Journal/display names, indexed by `EnginePhase as usize`.
pub const ENGINE_PHASE_NAMES: [&str; ENGINE_PHASES] =
    ["faults", "inputs", "transmit", "resolve", "deliver", "outputs"];

/// Telemetry accumulated by one engine over its lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineMetrics {
    /// Rounds stepped while telemetry was attached.
    pub rounds: u64,
    /// Cumulative nanoseconds per step phase (`EnginePhase` order).
    pub phase_ns: [u64; ENGINE_PHASES],
    /// Distribution of whole-round durations (ns).
    pub round_ns: Histogram,
    /// Processes that transmitted, summed over rounds.
    pub transmissions: u64,
    /// Messages delivered to listeners.
    pub deliveries: u64,
    /// Listener-rounds lost to collision (>= 2 reachable transmitters).
    pub collisions: u64,
    /// Listener-rounds with no reachable transmitter.
    pub silent: u64,
    /// Listener-rounds suppressed by jamming faults.
    pub jammed: u64,
    /// Listener-rounds suppressed by drop faults.
    pub dropped: u64,
    /// Node-rounds spent crashed/down.
    pub down_node_rounds: u64,
    /// Dynamic-geometry epoch boundaries crossed (graph snapshot
    /// swaps); 0 for static geometry or a single-epoch timeline.
    pub epoch_switches: u64,
}

impl EngineMetrics {
    /// A zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one round's phase laps in: bumps `rounds`, accumulates the
    /// per-phase totals, and records the round's total duration.
    /// Allocation-free.
    #[inline]
    pub fn record_round(&mut self, laps: [u64; ENGINE_PHASES]) {
        self.rounds += 1;
        let mut total = 0u64;
        for (slot, ns) in self.phase_ns.iter_mut().zip(laps) {
            *slot += ns;
            total += ns;
        }
        self.round_ns.record(total);
    }

    /// Total instrumented busy time across all phases.
    pub fn busy_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Merge another engine's metrics (e.g. one per trial) into this
    /// one. Counter merge is order-invariant; timing fields sum.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.rounds += other.rounds;
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *a += b;
        }
        self.round_ns.merge(&other.round_ns);
        self.transmissions += other.transmissions;
        self.deliveries += other.deliveries;
        self.collisions += other.collisions;
        self.silent += other.silent;
        self.jammed += other.jammed;
        self.dropped += other.dropped;
        self.down_node_rounds += other.down_node_rounds;
        self.epoch_switches += other.epoch_switches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_accumulates_phases_and_histogram() {
        let mut m = EngineMetrics::new();
        m.record_round([1, 2, 3, 4, 5, 6]);
        m.record_round([10, 20, 30, 40, 50, 60]);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.phase_ns, [11, 22, 33, 44, 55, 66]);
        assert_eq!(m.busy_ns(), 231);
        assert_eq!(m.round_ns.count(), 2);
        assert_eq!(m.round_ns.min(), Some(21));
        assert_eq!(m.round_ns.max(), Some(210));
    }

    #[test]
    fn merge_is_order_invariant_on_counters() {
        let mut a = EngineMetrics::new();
        a.record_round([5; ENGINE_PHASES]);
        a.deliveries = 7;
        a.collisions = 2;
        a.epoch_switches = 1;
        let mut b = EngineMetrics::new();
        b.record_round([9; ENGINE_PHASES]);
        b.deliveries = 3;
        b.epoch_switches = 2;

        let mut ab = EngineMetrics::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = EngineMetrics::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.rounds, 2);
        assert_eq!(ab.deliveries, 10);
        assert_eq!(ab.epoch_switches, 3);
    }
}
