//! End-to-end: the paper's algorithms running unmodified on the engine
//! over a transport — broadcast-and-ack over the mock network, and the
//! keystone equivalence: when the mock network's delay model matches the
//! synchronous round structure (delay 0, no loss, no partitions),
//! executions byte-compare equal to the simulator's.

use local_broadcast::config::LbConfig;
use local_broadcast::service::QueueWorkload;
use local_broadcast::{LbOutput, LbProcess, Payload};
use net::{Cluster, ClusterConfig, MockNetConfig, MockNetTransport};
use radio_sim::engine::Engine;
use radio_sim::environment::NullEnvironment;
use radio_sim::graph::NodeId;
use radio_sim::scheduler::AllExtraEdges;
use radio_sim::topology;
use radio_sim::trace::RecordingPolicy;
use seed_agreement::{spec as seed_spec, SeedConfig, SeedProcess};
use std::collections::VecDeque;

/// A queue workload where only `sender` broadcasts one payload.
fn single_payload(n: usize, sender: NodeId) -> QueueWorkload {
    let mut queues = vec![VecDeque::new(); n];
    queues[sender.0].push_back(Payload::new(sender.0 as u64, 0));
    QueueWorkload::new(queues, 1)
}

/// Broadcast-and-ack over the mock network: an `LbProcess` cluster where
/// node 0 broadcasts one message; every node receives it and the sender
/// acks — the service works end-to-end with the simulator out of the
/// loop entirely.
#[test]
fn lb_broadcast_acks_over_the_mock_network() {
    let topo = topology::clique(4, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let transport = MockNetTransport::new(topo.graph.clone(), MockNetConfig::default(), 17);
    let config = ClusterConfig::new(topo.graph.clone()).with_r(topo.r);
    let mut cluster = Cluster::new(
        config,
        transport,
        procs,
        Box::new(single_payload(n, NodeId(0))),
        17,
    );
    let horizon = params.t_ack_rounds() + params.phase_len();
    let acked = cluster.run_until(horizon, |t| {
        t.outputs().any(|(_, v, o)| v == NodeId(0) && o.is_ack())
    });
    assert!(acked, "the sender acks within t_ack over the mock network");
    let trace = cluster.into_trace();
    let ack_round = trace
        .outputs()
        .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
        .map(|(round, ..)| round)
        .unwrap();
    for v in 1..n {
        let recv = trace
            .outputs()
            .find(|(_, u, o)| *u == NodeId(v) && matches!(o, LbOutput::Recv(_)));
        let recv_round = recv.map(|(round, ..)| round);
        assert!(
            recv_round.is_some_and(|r| r <= ack_round),
            "node {v} received before the ack (recv at {recv_round:?}, ack at {ack_round})"
        );
    }
}

/// The same service keeps working when every hop takes two extra rounds:
/// delayed delivery stretches latency but the broadcast still completes
/// (the algorithm never assumed same-round delivery, only eventual).
#[test]
fn lb_broadcast_completes_under_delivery_delay() {
    let topo = topology::clique(4, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let transport = MockNetTransport::new(
        topo.graph.clone(),
        MockNetConfig {
            delay_rounds: 2,
            ..MockNetConfig::default()
        },
        19,
    );
    let config = ClusterConfig::new(topo.graph.clone()).with_r(topo.r);
    let mut cluster = Cluster::new(
        config,
        transport,
        procs,
        Box::new(single_payload(n, NodeId(0))),
        19,
    );
    // Acks are deterministic in LBAlg (always within t_ack); receptions
    // under delay are not guaranteed, so assert only the ack.
    let acked = cluster.run_until(params.t_ack_rounds() + params.phase_len(), |t| {
        t.outputs().any(|(_, v, o)| v == NodeId(0) && o.is_ack())
    });
    assert!(acked, "t_ack holds regardless of the channel");
}

/// The keystone: with delay 0, no loss, and no partitions over the full
/// link set, the mock network *is* the synchronous `G' = G_t` channel —
/// an `LbProcess` execution over it byte-compares equal to the engine's
/// under the `AllExtraEdges` scheduler (events, stats, and rounds all
/// equal, under full recording).
#[test]
fn mock_net_matching_the_round_structure_equals_the_simulator() {
    let topo = topology::clique(5, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let rounds = params.phase_len() * 2;
    let seed = 23;

    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let config = topo
        .configuration(Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::full());
    let mut engine = Engine::new(config, procs, Box::new(single_payload(n, NodeId(0))), seed);
    engine.run(rounds);
    let reference = engine.into_trace();

    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let transport = MockNetTransport::new(topo.graph.clone(), MockNetConfig::default(), seed);
    let config = ClusterConfig::new(topo.graph.clone())
        .with_r(topo.r)
        .with_recording(RecordingPolicy::full());
    let mut cluster = Cluster::new(
        config,
        transport,
        procs,
        Box::new(single_payload(n, NodeId(0))),
        seed,
    );
    cluster.run(rounds);
    let trace = cluster.into_trace();

    assert_eq!(reference.events, trace.events);
    assert_eq!(reference.round_stats, trace.round_stats);
    assert_eq!(reference.rounds, trace.rounds);
}

/// Seed agreement over both substrates: the simulator and the
/// zero-delay mock network produce the same execution, and it satisfies
/// the deterministic `Seed` conditions.
#[test]
fn seed_agreement_runs_on_both_substrates() {
    let topo = topology::line(6, 0.9, 2.0);
    let cfg = SeedConfig::practical(0.125, 64);
    let total = cfg.total_rounds(topo.graph.delta());
    let seed = 42;

    let procs: Vec<SeedProcess> = (0..6).map(|_| SeedProcess::new(cfg.clone())).collect();
    let config = topo
        .configuration(Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::full());
    let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), seed);
    engine.run(total);
    let reference = engine.into_trace();
    seed_spec::check_well_formedness(&reference).unwrap();
    seed_spec::check_consistency(&reference).unwrap();

    let procs: Vec<SeedProcess> = (0..6).map(|_| SeedProcess::new(cfg.clone())).collect();
    let transport = MockNetTransport::new(topo.graph.clone(), MockNetConfig::default(), seed);
    let config = ClusterConfig::new(topo.graph.clone())
        .with_r(topo.r)
        .with_recording(RecordingPolicy::full());
    let mut mock_cluster = Cluster::new(config, transport, procs, Box::new(NullEnvironment), seed);
    mock_cluster.run(total);
    let mock_trace = mock_cluster.into_trace();
    assert_eq!(
        reference.events, mock_trace.events,
        "zero-delay mock net reproduces the simulator for seed agreement too"
    );
    assert_eq!(reference.round_stats, mock_trace.round_stats);
    seed_spec::check_well_formedness(&mock_trace).unwrap();
    seed_spec::check_consistency(&mock_trace).unwrap();
}
