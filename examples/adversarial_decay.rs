//! The paper's Section 1 story, live: an oblivious link scheduler that
//! knows Decay's fixed probability schedule pumps contention exactly when
//! Decay transmits aggressively and starves the receiver when it
//! transmits meekly. LBAlg's seed-permuted schedule shrugs it off.
//!
//! ```text
//! cargo run --release --example adversarial_decay
//! ```

use dual_graph_broadcast::baselines::decay_process;
use dual_graph_broadcast::local_broadcast::alg::LbProcess;
use dual_graph_broadcast::local_broadcast::config::LbConfig;
use dual_graph_broadcast::local_broadcast::msg::{LbInput, LbMsg, Payload};
use dual_graph_broadcast::radio_sim::prelude::*;
use radio_sim::environment::ScriptedEnvironment;
use radio_sim::scheduler::DutyCycleEdges;
use radio_sim::trace::RecordingPolicy;

/// Receiver at the origin, one reliable sender nearby, `grey` unreliable
/// senders in the annulus, plus a remote clique pushing the global Δ up
/// so Decay's probability ladder stretches to ~1/grey.
fn arena(grey: usize) -> radio_sim::topology::Topology {
    let mut pts = vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0)];
    for i in 0..grey {
        let a = 2.0 * std::f64::consts::PI * (i as f64) / grey as f64;
        pts.push(Point::new(1.5 * a.cos(), 1.5 * a.sin()));
    }
    for i in 0..grey {
        let a = 2.0 * std::f64::consts::PI * (i as f64) / grey as f64;
        pts.push(Point::new(100.0 + 0.49 * a.cos(), 0.49 * a.sin()));
    }
    radio_sim::topology::from_embedding(
        Embedding::new(pts),
        2.0,
        radio_sim::topology::GreyKind::Unreliable,
    )
}

fn decay_latency(topo: &radio_sim::topology::Topology, grey: usize, pump: bool, seed: u64) -> u64 {
    let n = topo.graph.len();
    let horizon = 4096;
    let procs: Vec<_> = (0..n).map(|_| decay_process(Some(horizon * 2))).collect();
    let script: Vec<(u64, NodeId, LbInput)> = (1..=grey + 1)
        .map(|v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
        .collect();
    let log_delta = topo.graph.delta().next_power_of_two().trailing_zeros();
    let sched: Box<dyn scheduler::LinkScheduler> = if pump {
        Box::new(DutyCycleEdges::against_decay_with_threshold(
            log_delta,
            (8.0 / grey as f64).min(0.45),
        ))
    } else {
        Box::new(scheduler::NoExtraEdges)
    };
    let mut engine = Engine::new(
        topo.configuration(sched),
        procs,
        Box::new(ScriptedEnvironment::new(script)),
        seed,
    );
    engine.run_until(horizon, |t| {
        t.outputs().any(|(_, v, o)| v == NodeId(0) && !o.is_ack())
    });
    engine.round()
}

fn lbalg_latency(topo: &radio_sim::topology::Topology, grey: usize, seed: u64) -> u64 {
    let cfg = LbConfig::practical(0.25);
    let n = topo.graph.len();
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let horizon = params.phase_len() * 8;
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let script: Vec<(u64, NodeId, LbInput)> = (1..=grey + 1)
        .map(|v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
        .collect();
    let log_delta = topo.graph.delta().next_power_of_two().trailing_zeros();
    let config = topo
        .configuration(Box::new(DutyCycleEdges::against_decay_with_threshold(
            log_delta,
            (8.0 / grey as f64).min(0.45),
        )))
        .with_recording(RecordingPolicy::full());
    let mut engine = Engine::new(config, procs, Box::new(ScriptedEnvironment::new(script)), seed);
    engine.run_until(horizon, |t| {
        t.receptions()
            .any(|(_, rx, _, m)| rx == NodeId(0) && matches!(m, LbMsg::Data(_)))
    });
    engine.round()
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

fn main() {
    println!("receiver progress latency (rounds until it hears anything), 10 trials each\n");
    println!(
        "{:>6}  {:>12}  {:>12}  {:>8}  {:>12}  {:>8}",
        "grey G", "decay no-pump", "decay PUMPED", "slowdown", "LBAlg PUMPED", "/t_prog"
    );
    for grey in [16usize, 32, 64] {
        let topo = arena(grey);
        let cfg = LbConfig::practical(0.25);
        let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
        let no_pump: Vec<u64> = (0..10).map(|s| decay_latency(&topo, grey, false, s)).collect();
        let pumped: Vec<u64> = (0..10).map(|s| decay_latency(&topo, grey, true, 100 + s)).collect();
        let lb: Vec<u64> = (0..10).map(|s| lbalg_latency(&topo, grey, 200 + s)).collect();
        println!(
            "{:>6}  {:>12.1}  {:>12.1}  {:>7.1}x  {:>12.1}  {:>8.2}",
            grey,
            mean(&no_pump),
            mean(&pumped),
            mean(&pumped) / mean(&no_pump),
            mean(&lb),
            mean(&lb) / params.phase_len() as f64,
        );
    }
    println!("\nDecay's slowdown grows with grey contention; LBAlg stays within ~1 phase (t_prog).");
}
