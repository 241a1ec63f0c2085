//! Fault-injection tests for the mock network: delay, Bernoulli loss,
//! partition windows — and determinism of all three under a fixed seed.
//! The network runs as the engine's channel, as in scenario trials.

use net::{LinkSet, MockNetConfig, MockNetTransport, PartitionWindow};
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::NullEnvironment;
use radio_sim::graph::{DualGraph, NodeId};
use radio_sim::process::{Action, Context, Process};
use radio_sim::scheduler::NoExtraEdges;
use radio_sim::trace::{RecordingPolicy, Trace};

/// Transmits its fixed message on configured rounds, outputs every
/// message it hears (the engine test suite's beacon).
struct Beacon {
    msg: u32,
    tx_rounds: Vec<u64>,
    heard: Vec<u32>,
}

impl Beacon {
    fn new(msg: u32, tx_rounds: Vec<u64>) -> Self {
        Beacon {
            msg,
            tx_rounds,
            heard: Vec::new(),
        }
    }
}

impl Process for Beacon {
    type Msg = u32;
    type Input = ();
    type Output = u32;

    fn on_input(&mut self, _input: (), _ctx: &mut Context<'_>) {}

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
        if self.tx_rounds.contains(&ctx.round) {
            Action::Transmit(self.msg)
        } else {
            Action::Receive
        }
    }

    fn on_receive(&mut self, msg: Option<u32>, _ctx: &mut Context<'_>) {
        if let Some(m) = msg {
            self.heard.push(m);
        }
    }

    fn take_outputs(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.heard)
    }
}

fn line5() -> DualGraph {
    DualGraph::reliable_only(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
}

fn run_beacons(
    graph: DualGraph,
    config: MockNetConfig,
    specs: Vec<(u32, Vec<u64>)>,
    rounds: u64,
    seed: u64,
) -> Trace<(), u32, u32> {
    let procs = specs.into_iter().map(|(m, r)| Beacon::new(m, r)).collect();
    let channel = MockNetTransport::new(graph.clone(), config, seed);
    let mut engine = Engine::with_channel(
        engine_config(graph),
        channel,
        procs,
        Box::new(NullEnvironment),
        seed,
    );
    engine.run(rounds);
    engine.into_trace()
}

/// Full recording over `graph`; the scheduler configures only the
/// simulator's channel and goes unused.
fn engine_config(graph: DualGraph) -> Configuration {
    Configuration::new(graph, Box::new(NoExtraEdges)).with_recording(RecordingPolicy::full())
}

#[test]
fn delay_shifts_every_delivery_by_the_configured_hops() {
    let specs = || vec![(7, vec![1, 4]), (0, vec![]), (8, vec![2]), (0, vec![]), (9, vec![3])];
    let immediate = run_beacons(
        line5(),
        MockNetConfig {
            links: LinkSet::Reliable,
            ..MockNetConfig::default()
        },
        specs(),
        10,
        3,
    );
    let delayed = run_beacons(
        line5(),
        MockNetConfig {
            links: LinkSet::Reliable,
            delay_rounds: 3,
            ..MockNetConfig::default()
        },
        specs(),
        10,
        3,
    );
    let rounds_of = |t: &Trace<(), u32, u32>| {
        t.receptions()
            .map(|(round, v, from, msg)| (round, v, from, *msg))
            .collect::<Vec<_>>()
    };
    let base = rounds_of(&immediate);
    assert!(!base.is_empty(), "the lossless run must deliver");
    // No transmitter in this schedule transmits at any arrival round, so
    // every delivery survives the shift, three rounds later.
    let shifted: Vec<_> = base
        .iter()
        .map(|&(round, v, from, msg)| (round + 3, v, from, msg))
        .collect();
    assert_eq!(rounds_of(&delayed), shifted);
}

#[test]
fn total_loss_silences_the_network() {
    let trace = run_beacons(
        line5(),
        MockNetConfig {
            links: LinkSet::Reliable,
            loss_p: 1.0,
            ..MockNetConfig::default()
        },
        vec![(7, vec![1, 2, 3]), (0, vec![]), (8, vec![2]), (0, vec![]), (9, vec![3])],
        6,
        3,
    );
    assert_eq!(trace.receptions().count(), 0);
    assert_eq!(trace.total_stats().deliveries, 0);
}

#[test]
fn partial_loss_thins_deliveries_deterministically() {
    let specs = || vec![(7, (1..=40).collect::<Vec<u64>>()), (0, vec![])];
    let g = || DualGraph::reliable_only(2, [(0, 1)]).unwrap();
    let lossless = run_beacons(g(), MockNetConfig::default(), specs(), 40, 11);
    assert_eq!(lossless.total_stats().deliveries, 40);
    let config = || MockNetConfig {
        loss_p: 0.5,
        ..MockNetConfig::default()
    };
    let lossy = run_beacons(g(), config(), specs(), 40, 11);
    let delivered = lossy.total_stats().deliveries;
    assert!(
        (5..=35).contains(&delivered),
        "p = 0.5 loses about half, got {delivered}/40"
    );
    // Same seed, same losses — byte for byte.
    let again = run_beacons(g(), config(), specs(), 40, 11);
    assert_eq!(lossy.events, again.events);
    assert_eq!(lossy.round_stats, again.round_stats);
    // A different seed flips different coins.
    let other = run_beacons(g(), config(), specs(), 40, 12);
    assert_ne!(lossy.events, other.events);
}

#[test]
fn partition_window_isolates_and_heals() {
    // 0-1-2 line; partition {0, 1} vs {2} during rounds 3..=6 cuts the
    // 1-2 link only.
    let g = || DualGraph::reliable_only(3, [(0, 1), (1, 2)]).unwrap();
    let config = MockNetConfig {
        links: LinkSet::Reliable,
        partitions: vec![PartitionWindow {
            nodes: vec![0, 1],
            from: 3,
            to: 6,
        }],
        ..MockNetConfig::default()
    };
    let trace = run_beacons(
        g(),
        config,
        vec![(7, (1..=8).collect()), (0, vec![]), (0, vec![])],
        8,
        5,
    );
    // Node 1 is inside the sender's side: hears every round.
    let to_1: Vec<u64> = trace
        .receptions()
        .filter(|&(_, v, _, _)| v == NodeId(1))
        .map(|(round, ..)| round)
        .collect();
    assert_eq!(to_1, (1..=8).collect::<Vec<u64>>());
    // Node 2 is across the cut... but node 0's transmissions never reach
    // it anyway (not neighbors); nothing changes for it. Re-run with
    // node 1 relaying to see the cut bite.
    let relayed = run_beacons(
        g(),
        MockNetConfig {
            links: LinkSet::Reliable,
            partitions: vec![PartitionWindow {
                nodes: vec![0, 1],
                from: 3,
                to: 6,
            }],
            ..MockNetConfig::default()
        },
        vec![(0, vec![]), (7, (1..=8).collect()), (0, vec![])],
        8,
        5,
    );
    let to_2: Vec<u64> = relayed
        .receptions()
        .filter(|&(_, v, _, _)| v == NodeId(2))
        .map(|(round, ..)| round)
        .collect();
    assert_eq!(
        to_2,
        vec![1, 2, 7, 8],
        "deliveries across the cut stop during the window and resume after"
    );
    // Node 0, on the sender's side, is unaffected throughout.
    let to_0 = relayed
        .receptions()
        .filter(|&(_, v, _, _)| v == NodeId(0))
        .count();
    assert_eq!(to_0, 8);
}

#[test]
fn faults_compose_with_the_mock_network() {
    // A drop burst (engine-level fault) on top of mock-net loss: both
    // thinning mechanisms apply, from independent streams.
    use radio_sim::fault::FaultPlan;
    let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
    let channel = MockNetTransport::new(
        g.clone(),
        MockNetConfig {
            loss_p: 0.3,
            ..MockNetConfig::default()
        },
        21,
    );
    let config = engine_config(g).with_faults(FaultPlan::none().with_drop_burst(10, 20, 1.0));
    let procs = vec![Beacon::new(7, (1..=30).collect()), Beacon::new(0, vec![])];
    let mut engine = Engine::with_channel(config, channel, procs, Box::new(NullEnvironment), 21);
    engine.run(30);
    let trace = engine.into_trace();
    let totals = trace.total_stats();
    // Inside the burst every mock-net survivor is dropped at the
    // receiver; outside it only mock-net loss applies.
    assert!(totals.dropped > 0, "the burst dropped survivors");
    assert!(totals.deliveries > 0, "rounds outside the burst deliver");
    assert!(
        trace
            .receptions()
            .all(|(round, ..)| !(10..=20).contains(&round)),
        "no delivery lands inside the burst window"
    );
}

#[test]
fn mock_net_runs_are_deterministic_end_to_end() {
    // Loss, delay, and a partition together: two runs with the same seed
    // produce identical traces (delivery orders included); this is the
    // satellite determinism pin.
    let g = || {
        DualGraph::new(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [(0, 2), (3, 5)]).unwrap()
    };
    let config = || MockNetConfig {
        links: LinkSet::All,
        delay_rounds: 1,
        loss_p: 0.25,
        partitions: vec![PartitionWindow {
            nodes: vec![0, 1, 2],
            from: 4,
            to: 9,
        }],
    };
    let specs = || {
        (0..6u32)
            .map(|v| (v, (1..=20).filter(|r| r % (u64::from(v) + 2) == 0).collect()))
            .collect::<Vec<_>>()
    };
    let a = run_beacons(g(), config(), specs(), 20, 33);
    let b = run_beacons(g(), config(), specs(), 20, 33);
    assert_eq!(a.events, b.events);
    assert_eq!(a.round_stats, b.round_stats);
}
