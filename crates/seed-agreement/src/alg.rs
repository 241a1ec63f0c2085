//! `SeedAlg(ε₁)`: aggressive local leader election with bounded damage.
//!
//! The algorithm (Section 3.2) runs `log Δ` phases of
//! `c₄ log²(1/ε₁)` rounds. An *active* node elects itself leader at the
//! start of phase `h` with probability `2^{-(log Δ − h + 1)}` — the
//! geometric ramp `1/Δ, 2/Δ, …, 1/2`. A leader immediately **decides** on
//! its own `(id, seed)` pair, broadcasts it at probability `1/log(1/ε₁)`
//! for the rest of the phase, and goes inactive. An active non-leader
//! listens; on first reception of some `(j, s)` it decides on that pair
//! and goes inactive. A node still active after the last phase decides on
//! its own pair by default.
//!
//! The `SeedProcess` counts rounds *locally* (not via `ctx.round`) so the
//! local broadcast layer can embed a fresh instance in each phase
//! preamble at arbitrary global offsets.

use crate::config::SeedConfig;
use crate::seed::Seed;
use crate::spec::Decide;
use radio_sim::process::{Action, Context, ProcId, Process};
use rand::Rng;

/// The message leaders broadcast: their id and initial seed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SeedMsg {
    /// The seed owner's process id (`j` in `decide(j, s)`).
    pub owner: ProcId,
    /// The owner's initial seed.
    pub seed: Seed,
}

/// The node's protocol status (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Still contending: may become a leader or adopt a received seed.
    Active,
    /// Elected leader this phase: decided on own seed, broadcasting it.
    Leader,
    /// Done: decided (as leader, adopter, or by default).
    Inactive,
}

/// Record of one phase, kept for the Appendix B goodness instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// 1-based phase number.
    pub phase: u32,
    /// Whether the node was active at the start of the phase.
    pub active_at_start: bool,
    /// Whether the node elected itself leader this phase.
    pub became_leader: bool,
}

/// The `SeedAlg(ε₁)` process.
#[derive(Debug)]
pub struct SeedProcess {
    cfg: SeedConfig,
    status: Status,
    /// Local round counter (1-based after the first transmit call).
    local_round: u64,
    phases: u32,
    phase_len: u64,
    my_id: ProcId,
    initial_seed: Option<Seed>,
    committed: Option<Decide>,
    outputs: Vec<Decide>,
    history: Vec<PhaseRecord>,
    initialized: bool,
    /// `phase_of(local_round)` computed by this round's `transmit` call;
    /// `on_receive` runs with the same `local_round` (the engine calls
    /// them in lockstep), so it reuses the cached value instead of
    /// re-dividing on the hot path.
    located: Option<(u32, u64)>,
}

impl SeedProcess {
    /// Creates a process ready to start at its first engine round.
    pub fn new(cfg: SeedConfig) -> Self {
        SeedProcess {
            cfg,
            status: Status::Active,
            local_round: 0,
            phases: 0,
            phase_len: 0,
            my_id: 0,
            initial_seed: None,
            committed: None,
            outputs: Vec::new(),
            history: Vec::new(),
            initialized: false,
            located: None,
        }
    }

    /// Returns the process to the state [`SeedProcess::new`] gives it,
    /// for a fresh run (the `LBAlg` preamble restarts one every phase),
    /// keeping only the capacity of the output and history buffers.
    pub fn reset(&mut self, cfg: SeedConfig) {
        let mut outputs = std::mem::take(&mut self.outputs);
        let mut history = std::mem::take(&mut self.history);
        outputs.clear();
        history.clear();
        *self = SeedProcess {
            outputs,
            history,
            ..SeedProcess::new(cfg)
        };
    }

    /// The algorithm's total running time for the degree bound it will
    /// learn from the engine context.
    pub fn total_rounds(cfg: &SeedConfig, delta: usize) -> u64 {
        cfg.total_rounds(delta)
    }

    /// The pair this node has committed to, if it has decided.
    pub fn committed(&self) -> Option<&Decide> {
        self.committed.as_ref()
    }

    /// Whether the protocol has completed all phases.
    pub fn is_done(&self) -> bool {
        self.initialized && self.local_round >= u64::from(self.phases) * self.phase_len
    }

    /// Whether this node's run is *settled*: decided and inactive, so
    /// every remaining round is a guaranteed no-op — it draws no
    /// randomness, never transmits, and ignores every reception. Hosts
    /// embedding the protocol (the `LBAlg` preamble) may skip driving a
    /// settled instance without changing the execution.
    pub fn is_settled(&self) -> bool {
        self.status == Status::Inactive
    }

    /// Per-phase activity records, for goodness instrumentation.
    pub fn history(&self) -> &[PhaseRecord] {
        &self.history
    }

    /// This node's initial seed (drawn at its first round).
    pub fn initial_seed(&self) -> Option<&Seed> {
        self.initial_seed.as_ref()
    }

    fn init(&mut self, ctx: &mut Context<'_>) {
        self.phases = self.cfg.phases(ctx.delta);
        self.phase_len = self.cfg.phase_len();
        self.my_id = ctx.id;
        self.initial_seed = Some(Seed::random(ctx.rng, self.cfg.seed_bits));
        self.initialized = true;
    }

    fn decide(&mut self, owner: ProcId, seed: Seed) {
        debug_assert!(self.committed.is_none(), "decide must fire exactly once");
        let d = Decide { owner, seed };
        self.committed = Some(d.clone());
        self.outputs.push(d);
    }

    fn decide_own(&mut self) {
        let seed = self
            .initial_seed
            .clone()
            .expect("initialized before deciding");
        let id = self.my_id;
        self.decide(id, seed);
    }

    /// 1-based phase of the local round, or `None` after completion.
    fn phase_of(&self, local_round: u64) -> Option<(u32, u64)> {
        if local_round == 0 || local_round > u64::from(self.phases) * self.phase_len {
            return None;
        }
        let idx = local_round - 1;
        let phase = (idx / self.phase_len) as u32 + 1;
        let pos = idx % self.phase_len;
        Some((phase, pos))
    }
}

impl Process for SeedProcess {
    type Msg = SeedMsg;
    type Input = ();
    type Output = Decide;

    fn on_input(&mut self, _input: (), _ctx: &mut Context<'_>) {}

    #[inline]
    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<SeedMsg> {
        if !self.initialized {
            self.init(ctx);
        }
        self.local_round += 1;
        // Advance the cached phase position incrementally — the local
        // round counter moves by exactly one per transmit call, so the
        // division in `phase_of` never needs to run on the hot path.
        self.located = match self.located {
            Some((ph, pos)) => {
                if pos + 1 < self.phase_len {
                    Some((ph, pos + 1))
                } else if ph < self.phases {
                    Some((ph + 1, 0))
                } else {
                    None
                }
            }
            None if self.local_round == 1 => Some((1, 0)),
            None => None,
        };
        debug_assert_eq!(self.located, self.phase_of(self.local_round));
        let Some((phase, pos)) = self.located else {
            return Action::Receive;
        };

        if pos == 0 {
            // Start of phase: leader election step.
            let active = self.status == Status::Active;
            let mut became_leader = false;
            if active {
                let p = self.cfg.leader_prob(phase, self.phases);
                if ctx.rng.gen_bool(p) {
                    self.status = Status::Leader;
                    self.decide_own();
                    became_leader = true;
                }
            }
            self.history.push(PhaseRecord {
                phase,
                active_at_start: active,
                became_leader,
            });
        }

        if self.status == Status::Leader
            && ctx.rng.gen_bool(self.cfg.tx_prob()) {
                let seed = self
                    .initial_seed
                    .clone()
                    .expect("leaders have drawn a seed");
                return Action::Transmit(SeedMsg {
                    owner: self.my_id,
                    seed,
                });
            }
        Action::Receive
    }

    #[inline]
    fn on_receive(&mut self, msg: Option<SeedMsg>, _ctx: &mut Context<'_>) {
        let Some((_phase, pos)) = self.located else {
            return;
        };
        if self.status == Status::Active {
            if let Some(m) = msg {
                self.decide(m.owner, m.seed);
                self.status = Status::Inactive;
            }
        }
        let last_round_of_phase = pos == self.phase_len - 1;
        if last_round_of_phase && self.status == Status::Leader {
            self.status = Status::Inactive;
        }
        let last_round_overall =
            self.local_round == u64::from(self.phases) * self.phase_len;
        if last_round_overall && self.status == Status::Active {
            // Completed all phases while active: default decision.
            self.decide_own();
            self.status = Status::Inactive;
        }
    }

    #[inline]
    fn has_outputs(&self) -> bool {
        !self.outputs.is_empty()
    }

    #[inline]
    fn take_outputs(&mut self) -> Vec<Decide> {
        std::mem::take(&mut self.outputs)
    }

    fn on_crash_restart(&mut self, _ctx: &mut Context<'_>) {
        // Volatile memory is lost: status, local round counter, the
        // drawn initial seed, any committed decision, and the phase
        // history. Only the static configuration survives; the process
        // re-initializes (drawing a fresh seed from its stream) at its
        // next callback, exactly as on first boot. A node that already
        // emitted `decide` may therefore decide again after the
        // restart — the well-formedness spec treats that as the
        // violation it is, which is precisely what makes crash-restart
        // a strictly harsher fault model than power-save churn.
        self.reset(self.cfg.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::environment::NullEnvironment;
    use radio_sim::prelude::*;
    use radio_sim::scheduler::AllExtraEdges;

    fn run_seed_alg(
        topo: &radio_sim::topology::Topology,
        cfg: &SeedConfig,
        master_seed: u64,
    ) -> crate::SeedTrace {
        let n = topo.graph.len();
        let total = cfg.total_rounds(topo.graph.delta());
        let procs: Vec<SeedProcess> = (0..n).map(|_| SeedProcess::new(cfg.clone())).collect();
        let mut engine = Engine::new(
            topo.configuration(Box::new(AllExtraEdges)),
            procs,
            Box::new(NullEnvironment),
            master_seed,
        );
        engine.run(total);
        engine.into_trace()
    }

    #[test]
    fn every_node_decides_exactly_once() {
        let topo = radio_sim::topology::line(8, 0.9, 2.0);
        let cfg = SeedConfig::practical(0.25, 32);
        for seed in 0..5 {
            let trace = run_seed_alg(&topo, &cfg, seed);
            let mut counts = vec![0usize; 8];
            for (_, v, _) in trace.outputs() {
                counts[v.0] += 1;
            }
            assert!(counts.iter().all(|&c| c == 1), "counts = {counts:?}");
        }
    }

    #[test]
    fn decisions_happen_within_time_bound() {
        let topo = radio_sim::topology::clique(8, 1.0);
        let cfg = SeedConfig::practical(0.25, 32);
        let total = cfg.total_rounds(topo.graph.delta());
        let trace = run_seed_alg(&topo, &cfg, 3);
        for (round, _, _) in trace.outputs() {
            assert!(round <= total);
        }
    }

    #[test]
    fn isolated_node_decides_own_seed() {
        // A single node can never hear anyone: it must default to itself.
        let topo = radio_sim::topology::line(1, 1.0, 1.0);
        let cfg = SeedConfig::practical(0.25, 32);
        let trace = run_seed_alg(&topo, &cfg, 1);
        let outs: Vec<_> = trace.outputs().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].2.owner, trace.proc_id(NodeId(0)));
    }

    #[test]
    fn committed_matches_output() {
        let topo = radio_sim::topology::clique(4, 1.0);
        let cfg = SeedConfig::practical(0.25, 32);
        let total = cfg.total_rounds(topo.graph.delta());
        let procs: Vec<SeedProcess> = (0..4).map(|_| SeedProcess::new(cfg.clone())).collect();
        let mut engine = Engine::new(
            topo.configuration(Box::new(AllExtraEdges)),
            procs,
            Box::new(NullEnvironment),
            9,
        );
        engine.run(total);
        for (v, p) in engine.processes().iter().enumerate() {
            assert!(p.is_done());
            let committed = p.committed().expect("all nodes decided");
            let in_trace = engine
                .trace()
                .outputs()
                .find(|(_, node, _)| node.0 == v)
                .map(|(_, _, d)| d.clone())
                .expect("decide in trace");
            assert_eq!(*committed, in_trace);
        }
    }

    #[test]
    fn history_covers_phases_until_inactive() {
        let topo = radio_sim::topology::clique(8, 1.0);
        let cfg = SeedConfig::practical(0.25, 32);
        let total = cfg.total_rounds(topo.graph.delta());
        let procs: Vec<SeedProcess> = (0..8).map(|_| SeedProcess::new(cfg.clone())).collect();
        let mut engine = Engine::new(
            topo.configuration(Box::new(AllExtraEdges)),
            procs,
            Box::new(NullEnvironment),
            11,
        );
        engine.run(total);
        let phases = cfg.phases(topo.graph.delta());
        for p in engine.processes() {
            assert_eq!(p.history().len() as u32, phases);
            // Phase numbers are 1..=phases in order.
            for (i, rec) in p.history().iter().enumerate() {
                assert_eq!(rec.phase, i as u32 + 1);
            }
        }
    }

    #[test]
    fn a_reset_process_replays_a_fresh_one() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let cfg = SeedConfig::practical(0.25, 96);
        let delta = 8;
        let total = cfg.total_rounds(delta);
        let heard = SeedMsg {
            owner: 99,
            seed: Seed::from_words(vec![0xABCD, 7], 96),
        };
        // Drives one run: every callback of every round, hearing `heard`
        // once if listening at `hear_at`; `drain` mirrors an engine host
        // (the LBAlg preamble leaves the outputs in place).
        let drive = |p: &mut SeedProcess, rng_seed: u64, hear_at: u64, drain: bool| {
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
            let mut log = Vec::new();
            for round in 1..=total + 2 {
                let ctx = &mut Context {
                    round,
                    id: 5,
                    delta,
                    delta_prime: delta,
                    r: 2.0,
                    rng: &mut rng,
                };
                let action = p.transmit(ctx);
                let msg = (round == hear_at && action == Action::Receive).then(|| heard.clone());
                p.on_receive(msg, ctx);
                let outputs = if drain { p.take_outputs() } else { Vec::new() };
                log.push((action, outputs));
            }
            log
        };
        for (first, replay) in [
            ((1, 3), (2, 5)),
            ((3, total + 9), (4, 2)),
            ((5, 2), (6, total + 9)),
        ] {
            let mut used = SeedProcess::new(cfg.clone());
            drive(&mut used, first.0, first.1, false);
            assert!(used.committed().is_some(), "the first run decided");
            used.reset(cfg.clone());
            let mut fresh = SeedProcess::new(cfg.clone());
            assert_eq!(format!("{used:?}"), format!("{fresh:?}"), "reset state");
            assert!(!used.has_outputs(), "reset clears undrained outputs");
            assert_eq!(
                drive(&mut used, replay.0, replay.1, true),
                drive(&mut fresh, replay.0, replay.1, true),
                "every callback replays"
            );
            assert_eq!(format!("{used:?}"), format!("{fresh:?}"), "final state");
            assert_eq!(used.history(), fresh.history());
        }
    }

    #[test]
    fn leaders_decide_on_their_own_id() {
        let topo = radio_sim::topology::clique(8, 1.0);
        let cfg = SeedConfig::practical(0.25, 32);
        let total = cfg.total_rounds(topo.graph.delta());
        let procs: Vec<SeedProcess> = (0..8).map(|_| SeedProcess::new(cfg.clone())).collect();
        let mut engine = Engine::new(
            topo.configuration(Box::new(AllExtraEdges)),
            procs,
            Box::new(NullEnvironment),
            13,
        );
        engine.run(total);
        for (v, p) in engine.processes().iter().enumerate() {
            let was_leader = p.history().iter().any(|r| r.became_leader);
            if was_leader {
                let d = p.committed().unwrap();
                assert_eq!(d.owner, engine.trace().proc_id(NodeId(v)));
            }
        }
    }
}
