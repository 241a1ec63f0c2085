//! Transport demo: the local broadcast service running entirely off the
//! simulator — `LbProcess` nodes on the engine exchanging a broadcast
//! over the deterministic mock network, with a partition window injected
//! mid-run.
//!
//! ```text
//! cargo run --example transport_demo
//! ```

use dual_graph_broadcast::local_broadcast::config::LbConfig;
use dual_graph_broadcast::local_broadcast::service::QueueWorkload;
use dual_graph_broadcast::local_broadcast::{LbOutput, LbProcess, Payload};
use dual_graph_broadcast::net::{
    Cluster, ClusterConfig, MockNetConfig, MockNetTransport, PartitionWindow,
};
use dual_graph_broadcast::radio_sim::graph::NodeId;
use dual_graph_broadcast::radio_sim::topology;
use std::collections::VecDeque;

fn main() {
    // A 6-node clique: every pair is a reliable neighbor, so the mock
    // network routes over the full link set.
    let topo = topology::clique(6, 1.0);
    let n = topo.graph.len();
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    println!(
        "network: n = {n} (clique), t_prog = {} rounds, t_ack = {} rounds",
        params.phase_len(),
        params.t_ack_rounds()
    );

    // The channel: one round of per-hop delay, 10% link loss, and a
    // partition that splits {0, 1, 2} from the rest for 40 rounds —
    // none of which the simulator's synchronous rounds can express.
    let partition = PartitionWindow {
        nodes: vec![0, 1, 2],
        from: 30,
        to: 70,
    };
    println!(
        "mock net: delay 1 round/hop, loss 10%, partition {{0,1,2}} | {{3,4,5}} rounds 30–70"
    );
    let transport = MockNetTransport::new(
        topo.graph.clone(),
        MockNetConfig {
            delay_rounds: 1,
            loss_p: 0.10,
            partitions: vec![partition],
            ..MockNetConfig::default()
        },
        2015,
    );

    // Node 0 broadcasts one payload; every node runs an unmodified
    // LbProcess and communicates only through the transport.
    let mut queues = vec![VecDeque::new(); n];
    queues[0].push_back(Payload::new(0, 0));
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let mut cluster = Cluster::new(
        ClusterConfig::new(topo.graph.clone()).with_r(topo.r),
        transport,
        procs,
        Box::new(QueueWorkload::new(queues, 1)),
        2015,
    );

    let horizon = params.t_ack_rounds() + params.phase_len();
    cluster.run(horizon);
    let trace = cluster.into_trace();

    // Ack latency: LBAlg's ack is clock-driven, so it lands on schedule
    // even over a degraded channel.
    let ack_round = trace
        .outputs()
        .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
        .map(|(round, ..)| round)
        .expect("the sender acks within t_ack");
    println!("ack latency: node 0 acked its broadcast at round {ack_round} (t_ack = {})",
        params.t_ack_rounds());

    // Delivery pattern: who heard the broadcast, and when.
    let mut recvs: Vec<(NodeId, u64)> = trace
        .outputs()
        .filter_map(|(round, v, o)| match o {
            LbOutput::Recv(_) => Some((v, round)),
            LbOutput::Ack(_) => None,
        })
        .collect();
    recvs.sort_by_key(|&(v, _)| v);
    for (v, round) in &recvs {
        println!("  node {} delivered at round {round}", v.0);
    }
    println!(
        "{} of {} receivers delivered despite delay, loss, and the partition window",
        recvs.len(),
        n - 1
    );
}
