//! The hot-path allocation contract: in the stats-only steady state,
//! `Engine::step` performs **zero** heap allocations per round, over the
//! simulator's channel and over the mock network's alike.
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup (which sizes the engine's and the channel's reusable buffers)
//! and an explicit stats-capacity reservation, a long run of rounds must
//! not allocate at all. See docs/perf.md for the methodology.

use net::{Cluster, ClusterConfig, MockNetConfig, MockNetTransport};
use radio_sim::channel::Channel;
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::NullEnvironment;
use radio_sim::process::{Action, Context, Process};
use radio_sim::scheduler::AllExtraEdges;
use radio_sim::topology::{self, random_geometric, RggParams, Topology};
use radio_sim::trace::RecordingPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation that grows the heap (alloc, alloc_zeroed,
/// realloc) and the bytes it requests — but only on the thread that
/// armed the counter, and into that thread's own tallies, so concurrent
/// tests and libtest-harness threads (timers, monitors) cannot pollute
/// the measured window. Deallocation is free and uncounted.
struct CountingAllocator;

thread_local! {
    /// Whether allocations on this thread count, and this thread's
    /// tallies. Const-initialized so touching them never itself
    /// allocates (no lazy TLS registration for droppable state).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed; returns the allocations and bytes
/// it performed on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let tallies = || (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let (count, bytes) = tallies();
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    let (count_after, bytes_after) = tallies();
    (count_after - count, bytes_after - bytes)
}

/// A contention-heavy process with a `Copy` message: transmits its round
/// number with probability 1/4.
struct Chatter;

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

const MEASURED_ROUNDS: u64 = 1_000;

/// Runs `warmup` rounds (the engine's and the channel's scratch reach
/// their steady sizes), reserves the stats capacity of the measured
/// window (the only per-round append is the aggregate `RoundStats`
/// record, so amortized `Vec` growth cannot fire inside it), then counts
/// the allocations of `MEASURED_ROUNDS` further rounds.
fn steady_state_allocations<P: Process, C: Channel<P::Msg>>(
    engine: &mut Engine<P, C>,
    warmup: u64,
) -> u64 {
    engine.run(warmup);
    engine.reserve_rounds(MEASURED_ROUNDS);
    counted(|| engine.run(MEASURED_ROUNDS)).0
}

fn rgg64() -> Topology {
    random_geometric(RggParams {
        n: 64,
        side: 3.0,
        r: 2.0,
        grey_reliable_p: 0.1,
        grey_unreliable_p: 0.8,
        seed: 5,
    })
}

fn chatters(n: usize) -> Vec<Chatter> {
    (0..n).map(|_| Chatter).collect()
}

/// Traffic on a fixed rotation: vertex `v` transmits its round number
/// when `round + v ≡ 0 (mod 16)`, so the load repeats every sixteen
/// rounds and a warmup sees its peak.
struct Rotor;

impl Process for Rotor {
    type Msg = u64;
    type Input = ();
    type Output = ();

    fn on_input(&mut self, _i: (), _ctx: &mut Context<'_>) {}

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u64> {
        if (ctx.round + ctx.id).is_multiple_of(16) {
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

#[test]
fn stats_only_steady_state_allocates_nothing() {
    let topo = rgg64();
    let config = Configuration::new(topo.graph.clone(), Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::stats_only());
    let mut engine = Engine::new(
        config,
        chatters(topo.graph.len()),
        Box::new(NullEnvironment),
        42,
    );

    let allocations = steady_state_allocations(&mut engine, 16);
    assert_eq!(
        allocations, 0,
        "Engine::step allocated {allocations} time(s) over {MEASURED_ROUNDS} rounds"
    );
    // The run did real work: stats were recorded every round.
    assert_eq!(
        engine.trace().round_stats.len() as u64,
        16 + MEASURED_ROUNDS
    );
    let totals = engine.trace().total_stats();
    assert!(totals.transmitters > 0 && totals.deliveries > 0);
}

#[test]
fn instrumented_steady_state_allocates_nothing() {
    // Same contract with telemetry enabled: the metrics core is all
    // fixed slots (counters, the 2048-bucket histogram, per-shard busy
    // slots sized at construction), so phase timing and counter
    // recording must add zero allocations per round.
    let topo = rgg64();
    let config = Configuration::new(topo.graph.clone(), Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::stats_only())
        .with_telemetry(true);
    let mut engine = Engine::new(
        config,
        chatters(topo.graph.len()),
        Box::new(NullEnvironment),
        42,
    );

    let allocations = steady_state_allocations(&mut engine, 16);
    assert_eq!(
        allocations, 0,
        "instrumented Engine::step allocated {allocations} time(s) over {MEASURED_ROUNDS} rounds"
    );
    let telem = engine.telemetry().expect("telemetry enabled");
    assert_eq!(telem.rounds, 16 + MEASURED_ROUNDS);
    assert_eq!(telem.round_ns.count(), telem.rounds);
    assert!(telem.busy_ns() > 0 && telem.deliveries > 0);
    // Telemetry observed the same execution the trace recorded.
    let totals = engine.trace().total_stats();
    assert_eq!(telem.deliveries, totals.deliveries as u64);
    assert_eq!(telem.transmissions, totals.transmitters as u64);
}

#[test]
fn mock_net_steady_state_allocates_nothing() {
    // The same contract over the mock network's channel: the action and
    // reception vectors and the in-flight queue are reused, so once the
    // warmup has sized them to the traffic, rounds allocate nothing —
    // with and without per-hop delay. (The traffic is periodic so the
    // warmup sees its peak; random traffic can still grow the queue at
    // a later, higher peak.)
    let topo = rgg64();
    for delay_rounds in [0, 1, 4] {
        let transport = MockNetTransport::new(
            topo.graph.clone(),
            MockNetConfig {
                delay_rounds,
                ..MockNetConfig::default()
            },
            42,
        );
        let config =
            ClusterConfig::new(topo.graph.clone()).with_recording(RecordingPolicy::stats_only());
        let procs = (0..topo.graph.len()).map(|_| Rotor).collect();
        let mut cluster = Cluster::new(config, transport, procs, Box::new(NullEnvironment), 42);

        let allocations = steady_state_allocations(&mut cluster, 64);
        assert_eq!(
            allocations, 0,
            "delay {delay_rounds}: the mock-net round allocated {allocations} time(s) \
             over {MEASURED_ROUNDS} rounds"
        );
        let totals = cluster.trace().total_stats();
        assert!(
            totals.transmitters > 0 && totals.deliveries > 0,
            "delay {delay_rounds}"
        );
    }
}

#[test]
fn a_huge_delay_costs_memory_per_message_not_per_round() {
    // A scenario validation accepts: a 4-node clique, a 10-round horizon,
    // and a per-hop delay of 50M rounds. The in-flight queue holds one
    // entry per copy sent, so building and running it stays tiny; a
    // per-round delay ring would need 50M slots up front.
    let topo = topology::clique(4, 1.0);
    let (allocations, bytes) = counted(|| {
        let transport = MockNetTransport::new(
            topo.graph.clone(),
            MockNetConfig {
                delay_rounds: 50_000_000,
                ..MockNetConfig::default()
            },
            7,
        );
        let config =
            ClusterConfig::new(topo.graph.clone()).with_recording(RecordingPolicy::stats_only());
        let mut cluster =
            Cluster::new(config, transport, chatters(4), Box::new(NullEnvironment), 7);
        cluster.run(10);
        let totals = cluster.trace().total_stats();
        assert!(totals.transmitters > 0, "traffic is in flight");
        assert_eq!(totals.deliveries, 0, "nothing arrives within the horizon");
    });
    assert!(
        bytes < 64 * 1024,
        "a 50M-round delay cost {bytes} bytes in {allocations} allocations"
    );
}
