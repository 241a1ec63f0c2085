//! Integration coverage for the Section 4.2 variants (seed-agreement
//! amortization, private seeds) and the structuring/consensus algorithms
//! ported over the abstract MAC layer.

use dual_graph_broadcast::amac::adapter::LbMac;
use dual_graph_broadcast::amac::consensus::flood_consensus;
use dual_graph_broadcast::amac::spec::RecordingMac;
use dual_graph_broadcast::amac::structuring::{build_mis, MisState};
use dual_graph_broadcast::amac::AbstractMac;
use dual_graph_broadcast::local_broadcast::config::LbConfig;
use dual_graph_broadcast::local_broadcast::service::{build_engine, QueueWorkload};
use dual_graph_broadcast::local_broadcast::spec as lb_spec;
use dual_graph_broadcast::radio_sim::prelude::*;
use bytes::Bytes;
use radio_sim::trace::RecordingPolicy;

#[test]
fn seed_reuse_variant_meets_deterministic_spec() {
    let topo = topology::grid(3, 3, 0.9, 2.0);
    for k in [2u32, 4] {
        let cfg = LbConfig::fast(0.25).with_seed_reuse(k);
        let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
        let env = QueueWorkload::uniform(9, &[NodeId(4)], 2);
        let mut engine = build_engine(
            &topo,
            Box::new(scheduler::BernoulliEdges::new(0.5, k as u64)),
            &cfg,
            Box::new(env),
            k as u64,
            RecordingPolicy::full(),
        );
        engine.run(params.t_ack_rounds() * 2 + params.phase_len());
        let trace = engine.into_trace();
        lb_spec::check_timely_ack(&trace, params.t_ack_rounds())
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        lb_spec::check_validity(&trace, &topo.graph).unwrap_or_else(|e| panic!("k={k}: {e}"));
        // The message actually went out.
        assert!(
            trace.outputs().any(|(_, _, o)| !o.is_ack()),
            "k={k}: no deliveries"
        );
    }
}

#[test]
fn private_seed_variant_meets_deterministic_spec() {
    let topo = topology::clique(5, 1.0);
    let cfg = LbConfig::fast(0.25).with_private_seeds();
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    assert_eq!(params.t_s, 0, "private mode has no preamble");
    let env = QueueWorkload::uniform(5, &[NodeId(0), NodeId(2)], 1);
    let mut engine = build_engine(
        &topo,
        Box::new(scheduler::AllExtraEdges),
        &cfg,
        Box::new(env),
        5,
        RecordingPolicy::full(),
    );
    engine.run(params.t_ack_rounds() + params.phase_len());
    let trace = engine.into_trace();
    lb_spec::check_timely_ack(&trace, params.t_ack_rounds()).unwrap();
    lb_spec::check_validity(&trace, &topo.graph).unwrap();
}

#[test]
fn mis_is_valid_on_irregular_networks() {
    let cfg = LbConfig::with_constants(0.25, 1.0, 2.0, 1.0);
    let cases = vec![
        ("grid", topology::grid(2, 4, 0.9, 2.0)),
        ("ring", topology::ring(6, 0.9, 2.0)),
        ("clusters", topology::clustered(topology::ClusterParams {
            clusters: 3,
            cluster_size: 4,
            spacing: 1.5,
            spread: 0.3,
            r: 2.0,
            seed: 2,
        })),
    ];
    for (name, topo) in cases {
        let mut mac = LbMac::new(
            &topo,
            Box::new(scheduler::BernoulliEdges::new(0.4, 3)),
            cfg.clone(),
            3,
        );
        let out = build_mis(&mut mac, 10);
        assert_eq!(out.validate(&topo.graph), None, "{name}: {:?}", out.states);
        assert!(out.states.contains(&MisState::InMis));
    }
}

#[test]
fn consensus_tolerates_unreliable_links() {
    // Flapping scheduler on a grey-zone-rich ring: consensus must still
    // agree on the max-id node's value.
    let topo = topology::ring(5, 0.9, 2.0);
    let cfg = LbConfig::with_constants(0.25, 1.0, 2.0, 1.0);
    let mut mac = LbMac::new(
        &topo,
        Box::new(scheduler::DutyCycleEdges::alternating(2, 2)),
        cfg,
        11,
    );
    let initial = vec![3, 1, 4, 1, 5];
    let horizon = mac.f_ack() * 40;
    let out = flood_consensus(&mut mac, &initial, 4, horizon);
    assert!(out.agreement(), "decisions: {:?}", out.decisions);
    assert!(out.validity(&initial));
    // Max id is node 4 (id 4) whose value is 5.
    assert_eq!(out.decisions[0], Some(5));
}

#[test]
fn recording_mac_validates_a_real_run() {
    let topo = topology::line(4, 0.9, 1.0);
    let mut mac = RecordingMac::new(LbMac::new(
        &topo,
        Box::new(scheduler::NoExtraEdges),
        LbConfig::fast(0.25),
        9,
    ));
    mac.bcast(NodeId(0), Bytes::from_static(b"one"));
    mac.bcast(NodeId(3), Bytes::from_static(b"two"));
    let horizon = mac.f_ack() * 3;
    let _ = mac.run_collect(horizon);
    mac.check(2).expect("MAC event invariants hold end-to-end");
    assert_eq!(mac.submissions().len(), 2);
}
