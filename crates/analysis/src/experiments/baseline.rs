//! Baseline and adversary experiments: E7 (the oblivious contention pump
//! vs fixed schedules) and E8 (oblivious vs adaptive schedulers).

use super::Scale;
use crate::runner::run_trials;
use crate::stats::Summary;
use crate::table::{fnum, Table};
use baselines::{decay_process, FixedScheduleProcess};
use local_broadcast::alg::LbProcess;
use local_broadcast::config::LbConfig;
use local_broadcast::msg::{LbInput, LbMsg, Payload};
use radio_sim::engine::Engine;
use radio_sim::environment::ScriptedEnvironment;
use radio_sim::graph::NodeId;
use radio_sim::scheduler::{self, DutyCycleEdges, LinkScheduler};
use radio_sim::topology::{self, Topology};
use radio_sim::trace::RecordingPolicy;

/// Rounds until the arena's receiver (node 0) first receives anything,
/// under a Decay baseline with the given scheduler. Senders are the
/// reliable and grey nodes; the remote clique stays silent. Returns the
/// latency, censored at `horizon`.
fn decay_receiver_latency(
    topo: &Topology,
    reliable: usize,
    grey: usize,
    sched: Box<dyn LinkScheduler>,
    horizon: u64,
    master_seed: u64,
) -> f64 {
    let n = topo.graph.len();
    let procs: Vec<FixedScheduleProcess> =
        (0..n).map(|_| decay_process(Some(horizon * 2))).collect();
    let script: Vec<(u64, NodeId, LbInput)> = (1..=reliable + grey)
        .map(|v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
        .collect();
    let mut engine = Engine::new(
        topo.configuration(sched),
        procs,
        Box::new(ScriptedEnvironment::new(script)),
        master_seed,
    );
    let got = engine.run_until(horizon, |t| {
        t.outputs()
            .any(|(_, v, o)| v == NodeId(0) && !o.is_ack())
    });
    if got {
        engine.round() as f64
    } else {
        horizon as f64
    }
}

/// Same measurement for `LBAlg`: rounds until the receiver's first data
/// reception (raw receptions, not deduplicated outputs), censored at
/// `horizon`.
fn lbalg_receiver_latency(
    topo: &Topology,
    reliable: usize,
    grey: usize,
    sched: Box<dyn LinkScheduler>,
    cfg: &LbConfig,
    horizon: u64,
    master_seed: u64,
) -> f64 {
    let n = topo.graph.len();
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let script: Vec<(u64, NodeId, LbInput)> = (1..=reliable + grey)
        .map(|v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
        .collect();
    let config = topo
        .configuration(sched)
        .with_recording(RecordingPolicy::full());
    let mut engine = Engine::new(
        config,
        procs,
        Box::new(ScriptedEnvironment::new(script)),
        master_seed,
    );
    let got = engine.run_until(horizon, |t| {
        t.receptions()
            .any(|(_, rx, _, m)| rx == NodeId(0) && matches!(m, LbMsg::Data(_)))
    });
    if got {
        engine.round() as f64
    } else {
        horizon as f64
    }
}

/// E7: the pump starves Decay but not LBAlg.
pub fn e7_pump_separation(scale: Scale) -> Vec<Table> {
    let trials = scale.pick(10, 40);
    let cfg = LbConfig::practical(0.25);
    // A single reliable sender maximizes the pump's leverage: any rung
    // whose probability the pump starves delivers at most p per round.
    let reliable = 1;

    let mut t = Table::new(
        "E7",
        "receiver progress latency: Decay vs LBAlg under the anti-Decay pump",
        "Decay's latency under the pump grows with grey contention G (pump/no-pump ratio climbs); LBAlg's stays near its t_prog regardless",
        vec![
            "grey G",
            "Δ̂",
            "decay+pump",
            "decay+none",
            "decay ratio",
            "lbalg+pump",
            "lbalg t_prog",
            "lbalg/t_prog",
        ],
    );

    let greys = match scale {
        Scale::Quick => vec![16usize, 64],
        Scale::Full => vec![16, 32, 64, 128],
    };
    for (i, &grey) in greys.iter().enumerate() {
        let topo = topology::pump_arena(reliable, grey);
        let delta_hat = topo.graph.delta().max(2).next_power_of_two();
        let log_delta = delta_hat.trailing_zeros().max(1);
        // Flood every rung where the grey crowd collides (expected grey
        // transmitters ≥ 8); starve the rest, where the lone reliable
        // sender's probability is ≤ 8/G per round. Cap below 1/2 so the
        // top rung is always flooded.
        let threshold = (8.0 / grey as f64).min(0.45);
        let decay_horizon = 256 * u64::from(log_delta);

        let base = 20_000 + i as u64 * 1_000;
        let pump_lat: Vec<f64> = run_trials(trials, base, |s| {
            decay_receiver_latency(
                &topo,
                reliable,
                grey,
                Box::new(DutyCycleEdges::against_decay_with_threshold(log_delta, threshold)),
                decay_horizon,
                s,
            )
        });
        let none_lat: Vec<f64> = run_trials(trials, base + 100, |s| {
            decay_receiver_latency(
                &topo,
                reliable,
                grey,
                Box::new(scheduler::NoExtraEdges),
                decay_horizon,
                s,
            )
        });

        let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
        let lb_horizon = params.phase_len() * 6;
        let lb_lat: Vec<f64> = run_trials(trials, base + 200, |s| {
            lbalg_receiver_latency(
                &topo,
                reliable,
                grey,
                Box::new(DutyCycleEdges::against_decay_with_threshold(log_delta, threshold)),
                &cfg,
                lb_horizon,
                s,
            )
        });

        let pump_mean = Summary::of(&pump_lat).mean;
        let none_mean = Summary::of(&none_lat).mean;
        let lb_mean = Summary::of(&lb_lat).mean;
        t.push_row(vec![
            grey.to_string(),
            delta_hat.to_string(),
            fnum(pump_mean),
            fnum(none_mean),
            fnum(pump_mean / none_mean),
            fnum(lb_mean),
            params.phase_len().to_string(),
            fnum(lb_mean / params.phase_len() as f64),
        ]);
    }
    vec![t]
}

/// E8: the adaptive greedy jammer vs an oblivious scheduler of similar
/// edge budget.
pub fn e8_adaptive_separation(scale: Scale) -> Vec<Table> {
    let trials = scale.pick(8, 40);
    let cfg = LbConfig::practical(0.25);
    // One reliable sender: the jammer wins a round whenever any grey
    // sender transmits simultaneously.
    let reliable = 1;
    let grey = scale.pick(16, 24);
    let topo = topology::grey_sandwich(reliable, grey, 2.0);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let horizon = params.phase_len() * 8;

    let mut t = Table::new(
        "E8",
        "LBAlg receiver latency: oblivious family vs adaptive jammer",
        "oblivious schedulers (any of them) permit fast progress; the adaptive jammer — outside the model — delays or blocks it ([11])",
        vec!["scheduler", "kind", "mean latency", "p95", "censored at horizon"],
    );

    type SchedulerCase = (&'static str, fn() -> Box<dyn LinkScheduler>);
    let oblivious: Vec<SchedulerCase> = vec![
        ("all-edges", || Box::new(scheduler::AllExtraEdges)),
        ("no-edges", || Box::new(scheduler::NoExtraEdges)),
        ("bernoulli-0.5", || Box::new(scheduler::BernoulliEdges::new(0.5, 77))),
    ];
    for (j, (name, mk)) in oblivious.iter().enumerate() {
        let lat: Vec<f64> = run_trials(trials, 30_000 + j as u64 * 100, |s| {
            lbalg_receiver_latency(&topo, reliable, grey, mk(), &cfg, horizon, s)
        });
        let sum = Summary::of(&lat);
        let censored = lat.iter().filter(|&&l| l >= horizon as f64).count();
        t.push_row(vec![
            (*name).into(),
            "oblivious".into(),
            fnum(sum.mean),
            fnum(sum.p95),
            format!("{censored}/{trials}"),
        ]);
    }

    // Adaptive jammer run (uses the adaptive engine path).
    let lat: Vec<f64> = run_trials(trials, 31_000, |s| {
        let n = topo.graph.len();
        let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
        let script: Vec<(u64, NodeId, LbInput)> = (1..=reliable + grey)
            .map(|v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
            .collect();
        let config = topo
            .configuration(Box::new(scheduler::NoExtraEdges))
            .with_adaptive(Box::new(scheduler::GreedyJammer))
            .with_recording(RecordingPolicy::full());
        let mut engine = Engine::new(
            config,
            procs,
            Box::new(ScriptedEnvironment::new(script)),
            s,
        );
        let got = engine.run_until(horizon, |t| {
            t.receptions()
                .any(|(_, rx, _, m)| rx == NodeId(0) && matches!(m, LbMsg::Data(_)))
        });
        if got {
            engine.round() as f64
        } else {
            horizon as f64
        }
    });
    let sum = Summary::of(&lat);
    let censored = lat.iter().filter(|&&l| l >= horizon as f64).count();
    t.push_row(vec![
        "greedy-jammer".into(),
        "ADAPTIVE".into(),
        fnum(sum.mean),
        fnum(sum.p95),
        format!("{censored}/{trials}"),
    ]);

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_latency_is_finite_without_interference() {
        let topo = topology::pump_arena(2, 4);
        let lat = decay_receiver_latency(
            &topo,
            2,
            4,
            Box::new(scheduler::NoExtraEdges),
            512,
            5,
        );
        assert!(lat < 512.0, "decay should deliver without grey edges");
    }

    #[test]
    fn e7_quick_produces_rows() {
        let tables = e7_pump_separation(Scale::Quick);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
    }

    #[test]
    fn e8_quick_has_adaptive_row() {
        let tables = e8_adaptive_separation(Scale::Quick);
        let last = tables[0].rows.last().unwrap();
        assert_eq!(last[1], "ADAPTIVE");
    }
}
