//! Integration tests for the abstract MAC layer port on dual graph
//! networks with genuinely unreliable links.

use dual_graph_broadcast::amac::adapter::LbMac;
use dual_graph_broadcast::amac::apps::{elect_leader, flood_broadcast, neighbor_discovery};
use dual_graph_broadcast::amac::{AbstractMac, MacEvent};
use dual_graph_broadcast::local_broadcast::config::LbConfig;
use dual_graph_broadcast::radio_sim::prelude::*;
use bytes::Bytes;

fn cfg() -> LbConfig {
    LbConfig::with_constants(0.25, 1.0, 2.0, 1.0)
}

#[test]
fn flood_crosses_unreliable_shortcuts() {
    // Line with grey-zone shortcut edges under a flapping scheduler.
    let topo = topology::line(5, 0.9, 2.0);
    let mut mac = LbMac::new(
        &topo,
        Box::new(scheduler::DutyCycleEdges::alternating(2, 3)),
        cfg(),
        13,
    );
    let horizon = mac.f_ack() * 16;
    let out = flood_broadcast(&mut mac, &[NodeId(2)], 1, horizon);
    assert!(out.complete(1), "flood incomplete: {:?}", out.known);
}

#[test]
fn discovery_supersets_are_valid_neighbors() {
    // Validity side: everything heard must be a G'-neighbor.
    let topo = topology::grid(2, 3, 0.9, 2.0);
    let mut mac = LbMac::new(
        &topo,
        Box::new(scheduler::BernoulliEdges::new(0.5, 3)),
        cfg(),
        3,
    );
    let heard = neighbor_discovery(&mut mac, 1);
    for (v, set) in heard.iter().enumerate() {
        for id in set {
            let u = NodeId(*id as usize);
            assert!(
                topo.graph.is_any_edge(NodeId(v), u),
                "node {v} heard non-neighbor {id}"
            );
        }
    }
}

#[test]
fn election_is_stable_once_converged() {
    let topo = topology::clique(4, 1.0);
    let mut mac = LbMac::new(&topo, Box::new(scheduler::AllExtraEdges), cfg(), 21);
    let first = elect_leader(&mut mac, 2);
    assert_eq!(first, vec![3, 3, 3, 3]);
    // Additional iterations cannot change the max.
    let again = elect_leader(&mut mac, 1);
    assert_eq!(again, first);
}

#[test]
fn mac_events_preserve_bodies_across_relays() {
    let topo = topology::line(3, 0.9, 1.0);
    let mut mac = LbMac::new(&topo, Box::new(scheduler::NoExtraEdges), cfg(), 8);
    let body = Bytes::from_static(b"payload-bytes");
    mac.bcast(NodeId(0), body.clone());
    let events = mac.run_collect(mac.f_ack());
    let recv_bodies: Vec<&Bytes> = events
        .iter()
        .filter_map(|(_, e)| match e {
            MacEvent::Recv { body, .. } => Some(body),
            _ => None,
        })
        .collect();
    assert!(!recv_bodies.is_empty());
    for b in recv_bodies {
        assert_eq!(b, &body);
    }
}

#[test]
fn mac_round_counter_matches_engine() {
    let topo = topology::clique(3, 1.0);
    let mut mac = LbMac::new(&topo, Box::new(scheduler::AllExtraEdges), cfg(), 2);
    assert_eq!(mac.round(), 0);
    mac.step_round();
    mac.step_round();
    assert_eq!(mac.round(), 2);
}
