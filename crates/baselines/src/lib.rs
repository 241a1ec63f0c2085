//! # baselines: fixed-probability-schedule broadcast strategies
//!
//! The classical strategy for radio-network broadcast — Bar-Yehuda,
//! Goldreich & Itai's *Decay* — cycles through a **fixed** schedule of
//! geometrically decreasing broadcast probabilities `1/2, 1/4, …, 1/Δ`,
//! betting that one rung matches the local contention. Section 1 of
//! Lynch & Newport explains why this fails in the dual graph model: the
//! oblivious link scheduler, which also knows the round number, can
//! *pump* contention (include many unreliable edges) exactly when the
//! schedule transmits aggressively and starve it (exclude them) when it
//! transmits meekly, so the realized contention never matches the rung.
//!
//! This crate implements those baselines as processes over the **same**
//! message/input/output types as `LBAlg`, so `local_broadcast::spec`'s
//! validity/progress/reliability checkers apply unchanged, making the
//! E7 comparison apples-to-apples:
//!
//! * [`DecayProcess`] — the Decay cycle;
//! * [`UniformProcess`] — a single fixed transmit probability.
//!
//! Neither baseline offers a principled acknowledgment rule in the dual
//! graph model (that is the point); they ack after a configured number of
//! rounds, defaulting to the classical `Θ(Δ log Δ)` budget that suffices
//! in the *reliable* model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use local_broadcast::msg::{LbInput, LbMsg, LbOutput, Payload};
use radio_sim::process::{Action, Context, ProcId, Process};
use rand::Rng;
use std::collections::HashSet;

/// Trace type shared with `LBAlg` (identical event vocabulary).
pub type BaselineTrace = local_broadcast::LbTrace;

/// Which fixed schedule a [`FixedScheduleProcess`] follows.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Decay: transmit with probability `2^{-(1 + (t-1) mod log Δ)}`,
    /// cycling `1/2, 1/4, …, 1/Δ` as a function of the round number
    /// alone.
    Decay,
    /// A single fixed probability every round.
    Uniform(f64),
}

impl Schedule {
    /// The transmit probability at (1-based) round `t` with `log Δ = l`.
    pub fn prob(&self, t: u64, l: u32) -> f64 {
        match self {
            Schedule::Decay => {
                let step = (t - 1) % u64::from(l.max(1));
                2f64.powi(-(step as i32 + 1))
            }
            Schedule::Uniform(p) => *p,
        }
    }

    /// The schedule's cycle length (1 for uniform).
    pub fn cycle(&self, l: u32) -> u64 {
        match self {
            Schedule::Decay => u64::from(l.max(1)),
            Schedule::Uniform(_) => 1,
        }
    }
}

/// A broadcast process with a fixed, round-indexed probability schedule.
///
/// On `bcast(m)` it starts transmitting `m` per the schedule; after
/// `ack_after` rounds of sending it outputs `ack(m)`. Listening rounds
/// produce deduplicated `recv` outputs, exactly like `LBAlg`.
#[derive(Debug)]
pub struct FixedScheduleProcess {
    schedule: Schedule,
    /// Sending rounds before acking; `None` uses `Δ̂ · log Δ̂` resolved at
    /// the first round.
    ack_after: Option<u64>,
    my_id: ProcId,
    log_delta: u32,
    resolved_ack_after: u64,
    sending: Option<(Payload, u64)>,
    received_keys: HashSet<(ProcId, u64)>,
    outputs: Vec<LbOutput>,
    initialized: bool,
}

impl FixedScheduleProcess {
    /// Creates a process with the given schedule; `ack_after = None`
    /// defaults to the classical `Δ̂ log Δ̂` sending budget.
    pub fn new(schedule: Schedule, ack_after: Option<u64>) -> Self {
        FixedScheduleProcess {
            schedule,
            ack_after,
            my_id: 0,
            log_delta: 1,
            resolved_ack_after: 1,
            sending: None,
            received_keys: HashSet::new(),
            outputs: Vec::new(),
            initialized: false,
        }
    }

    /// Whether the node is currently broadcasting a message.
    pub fn is_sending(&self) -> bool {
        self.sending.is_some()
    }
}

impl Process for FixedScheduleProcess {
    type Msg = LbMsg;
    type Input = LbInput;
    type Output = LbOutput;

    fn on_input(&mut self, input: LbInput, _ctx: &mut Context<'_>) {
        let LbInput::Bcast(p) = input;
        assert!(
            self.sending.is_none(),
            "environment violated well-formedness: bcast before previous ack"
        );
        self.sending = Some((p, 0));
    }

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<LbMsg> {
        if !self.initialized {
            self.my_id = ctx.id;
            let dhat = ctx.delta.max(2).next_power_of_two();
            self.log_delta = dhat.trailing_zeros().max(1);
            self.resolved_ack_after = self
                .ack_after
                .unwrap_or(dhat as u64 * u64::from(self.log_delta));
            self.initialized = true;
        }
        match &mut self.sending {
            Some((payload, _rounds)) => {
                let p = self.schedule.prob(ctx.round, self.log_delta);
                if ctx.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    Action::Transmit(LbMsg::Data(payload.clone()))
                } else {
                    Action::Receive
                }
            }
            None => Action::Receive,
        }
    }

    fn on_receive(&mut self, msg: Option<LbMsg>, _ctx: &mut Context<'_>) {
        if let Some(LbMsg::Data(p)) = msg {
            if self.received_keys.insert(p.key()) {
                self.outputs.push(LbOutput::Recv(p));
            }
        }
        if let Some((payload, rounds)) = &mut self.sending {
            *rounds += 1;
            if *rounds >= self.resolved_ack_after {
                let done = payload.clone();
                self.outputs.push(LbOutput::Ack(done));
                self.sending = None;
            }
        }
    }

    fn take_outputs(&mut self) -> Vec<LbOutput> {
        std::mem::take(&mut self.outputs)
    }
}

/// Decay baseline constructor (see [`Schedule::Decay`]).
pub fn decay_process(ack_after: Option<u64>) -> FixedScheduleProcess {
    FixedScheduleProcess::new(Schedule::Decay, ack_after)
}

/// Uniform-probability baseline constructor.
///
/// # Panics
///
/// Panics unless `0 < p ≤ 1`.
pub fn uniform_process(p: f64, ack_after: Option<u64>) -> FixedScheduleProcess {
    assert!(p > 0.0 && p <= 1.0, "p must be a nonzero probability");
    FixedScheduleProcess::new(Schedule::Uniform(p), ack_after)
}

/// Re-exported alias: the Decay process type.
pub type DecayProcess = FixedScheduleProcess;
/// Re-exported alias: the uniform process type.
pub type UniformProcess = FixedScheduleProcess;

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::environment::ScriptedEnvironment;
    use radio_sim::prelude::*;
    use radio_sim::scheduler::{AllExtraEdges, NoExtraEdges};

    fn run_baseline(
        topo: &radio_sim::topology::Topology,
        scheduler: Box<dyn LinkScheduler>,
        mk: impl Fn() -> FixedScheduleProcess,
        script: Vec<(u64, NodeId, LbInput)>,
        rounds: u64,
        master_seed: u64,
    ) -> BaselineTrace {
        let n = topo.graph.len();
        let procs: Vec<FixedScheduleProcess> = (0..n).map(|_| mk()).collect();
        let mut engine = Engine::new(
            topo.configuration(scheduler),
            procs,
            Box::new(ScriptedEnvironment::new(script)),
            master_seed,
        );
        engine.run(rounds);
        engine.into_trace()
    }

    #[test]
    fn decay_probability_cycle() {
        let s = Schedule::Decay;
        assert_eq!(s.prob(1, 3), 0.5);
        assert_eq!(s.prob(2, 3), 0.25);
        assert_eq!(s.prob(3, 3), 0.125);
        assert_eq!(s.prob(4, 3), 0.5); // cycle restarts
        assert_eq!(s.cycle(3), 3);
    }

    #[test]
    fn uniform_probability_is_constant() {
        let s = Schedule::Uniform(0.3);
        for t in 1..10 {
            assert_eq!(s.prob(t, 5), 0.3);
        }
        assert_eq!(s.cycle(5), 1);
    }

    #[test]
    fn decay_delivers_in_reliable_clique() {
        let topo = radio_sim::topology::clique(4, 1.0);
        let p = Payload::new(0, 0);
        let trace = run_baseline(
            &topo,
            Box::new(NoExtraEdges),
            || decay_process(None),
            vec![(1, NodeId(0), LbInput::Bcast(p.clone()))],
            200,
            5,
        );
        // All three neighbors eventually recv, and the sender acks.
        let recvs = trace
            .outputs()
            .filter(|(_, _, o)| !o.is_ack())
            .count();
        assert_eq!(recvs, 3);
        assert!(trace.outputs().any(|(_, v, o)| v == NodeId(0) && o.is_ack()));
        local_broadcast::spec::check_validity(&trace, &topo.graph).unwrap();
    }

    #[test]
    fn ack_fires_after_budget_rounds() {
        let topo = radio_sim::topology::clique(2, 1.0);
        let p = Payload::new(0, 0);
        let trace = run_baseline(
            &topo,
            Box::new(NoExtraEdges),
            || decay_process(Some(10)),
            vec![(1, NodeId(0), LbInput::Bcast(p.clone()))],
            30,
            5,
        );
        let ack = trace
            .outputs()
            .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
            .expect("acks after the fixed budget");
        assert_eq!(ack.0, 10);
    }

    #[test]
    fn uniform_one_sender_delivers_quickly() {
        let topo = radio_sim::topology::clique(3, 1.0);
        let p = Payload::new(0, 0);
        let trace = run_baseline(
            &topo,
            Box::new(AllExtraEdges),
            || uniform_process(0.5, Some(50)),
            vec![(1, NodeId(0), LbInput::Bcast(p.clone()))],
            60,
            9,
        );
        assert_eq!(trace.outputs().filter(|(_, _, o)| !o.is_ack()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "well-formedness")]
    fn rejects_overlapping_bcasts() {
        let topo = radio_sim::topology::clique(2, 1.0);
        let _ = run_baseline(
            &topo,
            Box::new(NoExtraEdges),
            || decay_process(Some(100)),
            vec![
                (1, NodeId(0), LbInput::Bcast(Payload::new(0, 0))),
                (2, NodeId(0), LbInput::Bcast(Payload::new(0, 1))),
            ],
            10,
            1,
        );
    }
}
