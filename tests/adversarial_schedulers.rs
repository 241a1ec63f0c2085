//! Integration tests exercising every link scheduler in the library
//! against both the baseline and `LBAlg`, including the adaptive jammer
//! (the adversary outside the model used for the E8 separation).

use dual_graph_broadcast::baselines::{decay_process, uniform_process};
use dual_graph_broadcast::local_broadcast::alg::LbProcess;
use dual_graph_broadcast::local_broadcast::config::LbConfig;
use dual_graph_broadcast::local_broadcast::msg::{LbInput, LbMsg, Payload};
use dual_graph_broadcast::local_broadcast::spec as lb_spec;
use dual_graph_broadcast::radio_sim::prelude::*;
use radio_sim::environment::ScriptedEnvironment;
use radio_sim::scheduler::DutyCycleEdges;
use radio_sim::trace::RecordingPolicy;

fn sandwich() -> radio_sim::topology::Topology {
    topology::grey_sandwich(2, 8, 2.0)
}

#[test]
fn decay_validity_holds_under_every_oblivious_scheduler() {
    let topo = sandwich();
    let n = topo.graph.len();
    for (si, _) in scheduler::oblivious_family(0).iter().enumerate() {
        let sched = scheduler::oblivious_family(7).remove(si);
        let procs: Vec<_> = (0..n).map(|_| decay_process(Some(128))).collect();
        let script: Vec<(u64, NodeId, LbInput)> = (1..=10)
            .map(|v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
            .collect();
        let mut engine = Engine::new(
            topo.configuration(sched),
            procs,
            Box::new(ScriptedEnvironment::new(script)),
            si as u64,
        );
        engine.run(200);
        lb_spec::check_validity(engine.trace(), &topo.graph).expect("validity");
    }
}

#[test]
fn uniform_baseline_acks_on_schedule() {
    let topo = topology::clique(4, 1.0);
    let procs: Vec<_> = (0..4).map(|_| uniform_process(0.3, Some(64))).collect();
    let script = vec![(1, NodeId(0), LbInput::Bcast(Payload::new(0, 0)))];
    let mut engine = Engine::new(
        topo.configuration(Box::new(scheduler::NoExtraEdges)),
        procs,
        Box::new(ScriptedEnvironment::new(script)),
        3,
    );
    engine.run(80);
    let ack = engine
        .trace()
        .outputs()
        .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
        .expect("acks");
    assert_eq!(ack.0, 64);
}

#[test]
fn masked_pump_cycles_deterministically() {
    let topo = sandwich();
    let mut a = DutyCycleEdges::against_decay_with_threshold(4, 0.2);
    let mut b = DutyCycleEdges::against_decay_with_threshold(4, 0.2);
    for t in 1..=32 {
        assert_eq!(a.extra_edges(t, &topo.graph), b.extra_edges(t, &topo.graph));
    }
}

#[test]
fn lbalg_survives_the_adaptive_jammer_structurally() {
    // Even under the adaptive jammer (which breaks the probabilistic
    // guarantees), the deterministic conditions must keep holding.
    let topo = sandwich();
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let script = vec![(1, NodeId(1), LbInput::Bcast(Payload::new(1, 0)))];
    let config = topo
        .configuration(Box::new(scheduler::NoExtraEdges))
        .with_adaptive(Box::new(scheduler::GreedyJammer))
        .with_recording(RecordingPolicy::full());
    let mut engine = Engine::new(config, procs, Box::new(ScriptedEnvironment::new(script)), 11);
    engine.run(params.t_ack_rounds() + params.phase_len());
    let trace = engine.into_trace();
    lb_spec::check_timely_ack(&trace, params.t_ack_rounds()).expect("timely ack");
    lb_spec::check_validity(&trace, &topo.graph).expect("validity");
}

#[test]
fn jammer_blocks_more_than_oblivious_on_average() {
    // The E8 separation in miniature: first-reception latency at the
    // sandwich receiver, jammer vs all-edges, averaged over trials.
    let topo = topology::grey_sandwich(1, 12, 2.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let horizon = params.phase_len() * 8;
    let latency = |adaptive: bool, seed: u64| -> u64 {
        let n = topo.graph.len();
        let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
        let script: Vec<(u64, NodeId, LbInput)> = (1..=13)
            .map(|v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
            .collect();
        let mut config = topo
            .configuration(Box::new(scheduler::AllExtraEdges))
            .with_recording(RecordingPolicy::full());
        if adaptive {
            config = config.with_adaptive(Box::new(scheduler::GreedyJammer));
        }
        let mut engine =
            Engine::new(config, procs, Box::new(ScriptedEnvironment::new(script)), seed);
        engine.run_until(horizon, |t| {
            t.receptions()
                .any(|(_, rx, _, m)| rx == NodeId(0) && matches!(m, LbMsg::Data(_)))
        });
        engine.round()
    };
    let oblivious: u64 = (0..6).map(|s| latency(false, s)).sum();
    let jammed: u64 = (0..6).map(|s| latency(true, 100 + s)).sum();
    assert!(
        jammed > oblivious,
        "jammer should slow progress: jammed {jammed} vs oblivious {oblivious}"
    );
}
