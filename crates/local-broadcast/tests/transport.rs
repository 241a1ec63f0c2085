//! `LBAlg` off the simulator: the unmodified `LbProcess` runs on the
//! engine over the `net` crate's mock network, with the same `t_ack`
//! guarantee under delay and loss the simulator cannot express.

use local_broadcast::config::LbConfig;
use local_broadcast::service::QueueWorkload;
use local_broadcast::{LbOutput, LbProcess, Payload};
use net::{Cluster, ClusterConfig, MockNetConfig, MockNetTransport};
use radio_sim::graph::NodeId;
use radio_sim::topology;
use std::collections::VecDeque;

fn workload(n: usize, sender: usize) -> QueueWorkload {
    let mut queues = vec![VecDeque::new(); n];
    queues[sender].push_back(Payload::new(sender as u64, 0));
    QueueWorkload::new(queues, 1)
}

/// `t_ack` is a clock guarantee, not a channel guarantee: the sender
/// acks on schedule even when the mock network delays every hop and
/// drops a third of all deliveries.
#[test]
fn lb_ack_deadline_survives_a_degraded_mock_network() {
    let topo = topology::clique(4, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();

    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let transport = MockNetTransport::new(
        topo.graph.clone(),
        MockNetConfig {
            delay_rounds: 1,
            loss_p: 0.33,
            ..MockNetConfig::default()
        },
        31,
    );
    let config = ClusterConfig::new(topo.graph.clone()).with_r(topo.r);
    let mut cluster = Cluster::new(config, transport, procs, Box::new(workload(n, 0)), 31);
    let acked = cluster.run_until(params.t_ack_rounds() + params.phase_len(), |t| {
        t.outputs().any(|(_, v, o)| v == NodeId(0) && o.is_ack())
    });
    assert!(acked, "the ack deadline holds over a delayed, lossy channel");
}

/// Deliveries that do land over a lossy mock network are real LB
/// deliveries: every `Recv` carries the broadcast payload, at most once
/// per node.
#[test]
fn lb_deliveries_over_the_mock_network_are_exactly_once() {
    let topo = topology::clique(6, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();

    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let transport = MockNetTransport::new(
        topo.graph.clone(),
        MockNetConfig {
            loss_p: 0.25,
            ..MockNetConfig::default()
        },
        47,
    );
    let config = ClusterConfig::new(topo.graph.clone()).with_r(topo.r);
    let mut cluster = Cluster::new(config, transport, procs, Box::new(workload(n, 0)), 47);
    cluster.run(params.t_ack_rounds() + params.phase_len());
    let trace = cluster.into_trace();

    let mut recvs = vec![0usize; n];
    for (_, v, o) in trace.outputs() {
        if let LbOutput::Recv(p) = o {
            assert_eq!(p.origin, 0, "only node 0 broadcast");
            recvs[v.0] += 1;
        }
    }
    assert!(
        recvs.iter().all(|&c| c <= 1),
        "no duplicate deliveries: {recvs:?}"
    );
    assert!(
        recvs.iter().sum::<usize>() >= 1,
        "a 25%-lossy clique still delivers somewhere"
    );
}
