//! `LBAlg(ε₁)`: the local broadcast automaton (Section 4.2).
//!
//! Rounds are partitioned into phases of `T_s + T_prog` rounds. Every
//! phase opens with a fresh run of `SeedAlg(ε₂)` (the *preamble*), after
//! which each node holds a committed seed shared with its group. During
//! the *body*, a node in sending state repeatedly:
//!
//! 1. consumes `⌈log(r² log(1/ε₂))⌉` shared-seed bits — if all zero it is
//!    a **participant** this round (probability `a/(r² log(1/ε₂))`,
//!    `a ∈ [1, 2)`), correlated across its whole seed group;
//! 2. as a participant, consumes `log log Δ` more shared bits selecting
//!    `b ∈ [log Δ]`, i.e. a broadcast probability `2^{-b}` from the
//!    geometric ladder — again correlated within the group (the
//!    *permuted* schedule that the oblivious scheduler cannot have
//!    anticipated);
//! 3. finally flips `b` **private** coins and transmits iff all land zero
//!    — independent within the group, breaking the remaining symmetry.
//!
//! Nodes in receiving state listen through the body. Every first-time
//! reception of a payload produces a `recv` output; after `T_ack` full
//! sending phases the sender outputs `ack` and returns to receiving.

use crate::config::{LbConfig, LbParams, SeedMode};
use crate::msg::{LbInput, LbMsg, LbOutput, Payload};
use radio_sim::process::{Action, Context, ProcId, Process};
use rand::Rng;
use seed_agreement::alg::SeedProcess;
use seed_agreement::seed::Seed;
use seed_agreement::spec::Decide;
use std::collections::HashSet;

/// Sending-side state of the service.
#[derive(Debug, Clone, PartialEq)]
enum NodeState {
    /// Not broadcasting; listening through phase bodies.
    Receiving,
    /// Broadcasting `payload`; counts completed sending body segments
    /// (each phase contributes `bodies` of them).
    Sending {
        payload: Payload,
        bodies_completed: u64,
    },
}

/// The handful of resolved scalars the per-round hot path reads,
/// flattened out of [`LbParams`] at initialization so `transmit` and
/// `on_receive` touch one small `Copy` struct instead of re-deriving
/// them from the full parameter block every round.
#[derive(Debug, Clone, Copy, Default)]
struct HotParams {
    t_s: u64,
    phase_len: u64,
    t_ack: u64,
    bodies: u32,
    participant_bits: usize,
    b_bits: usize,
    kappa: usize,
    agreement: bool,
}

impl HotParams {
    fn of(p: &LbParams) -> Self {
        HotParams {
            t_s: p.t_s,
            phase_len: p.phase_len(),
            t_ack: p.t_ack,
            bodies: p.bodies,
            participant_bits: p.participant_bits,
            b_bits: p.b_bits,
            kappa: p.kappa,
            agreement: p.seed_mode == SeedMode::Agreement,
        }
    }
}

/// The `LBAlg(ε₁)` process.
#[derive(Debug)]
pub struct LbProcess {
    cfg: LbConfig,
    params: Option<LbParams>,
    hot: HotParams,
    my_id: ProcId,
    state: NodeState,
    /// A `bcast` input waiting for the next phase boundary.
    pending: Option<Payload>,
    /// The embedded seed agreement instance for the current preamble,
    /// created at the node's first phase boundary and reset at every
    /// later one.
    preamble: Option<SeedProcess>,
    /// The committed seed for this phase's body, with its consumption
    /// cursor position and the round it was adopted at (used to detect
    /// a stale seed after a crash window spanned a phase boundary).
    phase_seed: Option<(Seed, usize, u64)>,
    /// One commitment per completed preamble, for instrumentation.
    commit_history: Vec<Decide>,
    received_keys: HashSet<(ProcId, u64)>,
    outputs: Vec<LbOutput>,
    /// The `(round, phase position)` computed by this round's `transmit`
    /// call. `on_receive` always runs after `transmit` in the same round
    /// (the engine skips both for down nodes), so it reuses the cached
    /// position instead of re-dividing — `locate` is hot-path cost.
    located: (u64, u64),
}

impl LbProcess {
    /// Creates a process; parameters resolve from the engine context at
    /// its first round.
    pub fn new(cfg: LbConfig) -> Self {
        LbProcess {
            cfg,
            params: None,
            hot: HotParams::default(),
            my_id: 0,
            state: NodeState::Receiving,
            pending: None,
            preamble: None,
            phase_seed: None,
            commit_history: Vec::new(),
            received_keys: HashSet::new(),
            outputs: Vec::new(),
            located: (0, 0),
        }
    }

    /// The resolved round structure, once the first round has run.
    pub fn params(&self) -> Option<&LbParams> {
        self.params.as_ref()
    }

    /// Whether the node is currently in sending state.
    pub fn is_sending(&self) -> bool {
        matches!(self.state, NodeState::Sending { .. })
    }

    /// The seed commitments made at each completed preamble
    /// (instrumentation for experiments E6/E10).
    pub fn commit_history(&self) -> &[Decide] {
        &self.commit_history
    }

    fn ensure_initialized(&mut self, ctx: &Context<'_>) {
        if self.params.is_none() {
            let params = self.cfg.resolve(ctx.r, ctx.delta, ctx.delta_prime);
            self.hot = HotParams::of(&params);
            self.params = Some(params);
            self.my_id = ctx.id;
        }
    }

    fn take_shared_bits(&mut self, k: usize) -> u64 {
        let (seed, pos, _) = self
            .phase_seed
            .as_mut()
            .expect("body rounds run with a committed phase seed");
        assert!(
            *pos + k <= seed.len(),
            "phase seed exhausted: κ sized too small for this configuration"
        );
        let mut out = 0u64;
        for j in 0..k {
            out |= u64::from(seed.bit(*pos + j)) << j;
        }
        *pos += k;
        out
    }
}

impl Process for LbProcess {
    type Msg = LbMsg;
    type Input = LbInput;
    type Output = LbOutput;

    fn on_input(&mut self, input: LbInput, ctx: &mut Context<'_>) {
        self.ensure_initialized(ctx);
        let LbInput::Bcast(payload) = input;
        assert!(
            self.pending.is_none() && !self.is_sending(),
            "environment violated well-formedness: bcast before previous ack (node id {})",
            self.my_id
        );
        assert_eq!(
            payload.origin, self.my_id,
            "payload origin must match the broadcasting node (M_u sets are disjoint)"
        );
        self.pending = Some(payload);
    }

    #[inline]
    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<LbMsg> {
        self.ensure_initialized(ctx);
        // Hot path: everything the round needs lives in the flat
        // `HotParams`, not the full parameter block.
        let HotParams {
            t_s,
            phase_len,
            participant_bits,
            b_bits,
            kappa,
            agreement,
            ..
        } = self.hot;
        // Advance the phase position incrementally over consecutive
        // rounds (the common case); `locate`'s division runs only after
        // a gap — e.g. the first round after a crash window, where the
        // engine skipped this node's transmit steps.
        let pos = if self.located.0 + 1 == ctx.round && self.located.0 != 0 {
            let next = self.located.1 + 1;
            if next == phase_len {
                0
            } else {
                next
            }
        } else {
            self.params.as_ref().expect("just initialized").locate(ctx.round).1
        };
        debug_assert_eq!(
            pos,
            self.params.as_ref().expect("initialized").locate(ctx.round).1
        );
        self.located = (ctx.round, pos);

        if pos == 0 {
            // Phase boundary: promote a pending bcast, restart SeedAlg.
            if let Some(payload) = self.pending.take() {
                debug_assert!(!self.is_sending());
                self.state = NodeState::Sending {
                    payload,
                    bodies_completed: 0,
                };
            }
            if agreement {
                // One instance for the node's life, reset in place so
                // its buffers outlive the phase.
                let seed_cfg = self.params.as_ref().expect("initialized").seed_cfg.clone();
                match self.preamble.as_mut() {
                    Some(inner) => inner.reset(seed_cfg),
                    None => self.preamble = Some(SeedProcess::new(seed_cfg)),
                }
            }
            self.phase_seed = None;
        }

        if pos < t_s {
            // In the preamble. A settled inner instance (decided and
            // inactive) is a guaranteed no-op for the rest of the
            // preamble — skip driving it. A node that was down at the
            // very first phase boundary of its life (crashed from round
            // 1) has no instance at all; it listens until the body.
            let Some(inner) = self.preamble.as_mut() else {
                return Action::Receive;
            };
            if inner.is_settled() {
                return Action::Receive;
            }
            return match inner.transmit(ctx) {
                Action::Transmit(m) => Action::Transmit(LbMsg::Seed(m)),
                Action::Receive => Action::Receive,
            };
        }

        if pos == t_s {
            // First body round: adopt the shared seed for this phase.
            // In the fault-free model the preamble instance exists and
            // has decided by now (SeedAlg well-formedness). Under churn
            // a node can be up here with a missed or partially driven
            // preamble — fall back to a fresh private seed, exactly the
            // no-coordination ablation arm, so the restarted node keeps
            // running (uncoordinated, hence measurably slower) instead
            // of crashing the trial.
            let decide = match (agreement, &self.preamble) {
                (true, Some(inner)) if inner.committed().is_some() => inner
                    .committed()
                    .expect("just checked")
                    .clone(),
                _ => Decide {
                    owner: self.my_id,
                    seed: Seed::random(ctx.rng, kappa),
                },
            };
            self.phase_seed = Some((decide.seed.clone(), 0, ctx.round));
            self.commit_history.push(decide);
        }

        match &self.state {
            NodeState::Receiving => Action::Receive,
            NodeState::Sending { payload, .. } => {
                // A sender that was down at this phase's adoption round
                // (`pos == t_s`) has no phase seed to coordinate with —
                // or, if the crash window also spanned the phase
                // boundary (`pos == 0`), a *stale* partially-consumed
                // seed from the previous phase, which could exhaust.
                // Either way it sits the rest of the phase out rather
                // than panicking in `take_shared_bits`. A seed is
                // current iff it was adopted within this phase (whose
                // first round is `ctx.round - pos`).
                let phase_start = ctx.round - pos;
                if !matches!(self.phase_seed, Some((_, _, adopted)) if adopted >= phase_start) {
                    return Action::Receive;
                }
                let payload = payload.clone();
                // Shared choice 1: participate this round?
                if self.take_shared_bits(participant_bits) != 0 {
                    return Action::Receive;
                }
                // Shared choice 2: which rung of the probability ladder?
                let b = self.take_shared_bits(b_bits) + 1;
                // Private choice: transmit with probability 2^{-b}.
                let p = 2f64.powi(-(b as i32));
                if ctx.rng.gen_bool(p) {
                    Action::Transmit(LbMsg::Data(payload))
                } else {
                    Action::Receive
                }
            }
        }
    }

    #[inline]
    fn on_receive(&mut self, msg: Option<LbMsg>, ctx: &mut Context<'_>) {
        let HotParams {
            t_s,
            phase_len,
            t_ack,
            bodies,
            ..
        } = self.hot;
        // `transmit` already located this round (the engine never calls
        // `on_receive` without it); reuse the cached position.
        debug_assert_eq!(self.located.0, ctx.round, "on_receive without transmit");
        let pos = if self.located.0 == ctx.round {
            self.located.1
        } else {
            self.params.as_ref().expect("initialized").locate(ctx.round).1
        };

        if pos < t_s {
            let inner_msg = match msg {
                Some(LbMsg::Seed(s)) => Some(s),
                // Data traffic cannot occur during globally aligned
                // preambles; tolerate and drop if it ever does.
                _ => None,
            };
            if let Some(inner) = self.preamble.as_mut() {
                // Settled instances ignore receptions and have already
                // decided; driving them further is a no-op. Internal
                // decide outputs are not service outputs: they stay in
                // the instance until the next phase's reset clears them.
                if !inner.is_settled() {
                    inner.on_receive(inner_msg, ctx);
                }
            }
        } else if let Some(LbMsg::Data(p)) = msg {
            if self.received_keys.insert(p.key()) {
                self.outputs.push(LbOutput::Recv(p));
            }
        }

        if pos == phase_len - 1 {
            // End of phase: each completed phase contributes `bodies`
            // sending body segments toward T_ack.
            if let NodeState::Sending {
                payload,
                bodies_completed,
            } = &mut self.state
            {
                *bodies_completed += u64::from(bodies);
                if *bodies_completed >= t_ack {
                    let done = payload.clone();
                    self.outputs.push(LbOutput::Ack(done));
                    self.state = NodeState::Receiving;
                }
            }
        }
    }

    #[inline]
    fn has_outputs(&self) -> bool {
        !self.outputs.is_empty()
    }

    #[inline]
    fn take_outputs(&mut self) -> Vec<LbOutput> {
        std::mem::take(&mut self.outputs)
    }

    fn on_crash_restart(&mut self, _ctx: &mut Context<'_>) {
        // Volatile memory is lost: the pending message, the adopted
        // phase seed, the embedded preamble instance, the reception
        // dedup set, and all phase-position bookkeeping. Only the
        // static configuration survives the power cycle; parameters
        // re-resolve from the engine context at the next callback, as
        // on first boot. Losing `received_keys` means a re-delivered
        // message may surface as a duplicate `recv` — a real symptom
        // of crash-restart the duplicate-suppression analysis assumes
        // away, now measurable.
        *self = LbProcess::new(self.cfg.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::environment::ScriptedEnvironment;
    use radio_sim::prelude::*;
    use radio_sim::scheduler::AllExtraEdges;

    fn run_lb(
        topo: &radio_sim::topology::Topology,
        cfg: &LbConfig,
        script: Vec<(u64, NodeId, LbInput)>,
        rounds: u64,
        master_seed: u64,
    ) -> crate::LbTrace {
        let n = topo.graph.len();
        let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
        let mut engine = Engine::new(
            topo.configuration(Box::new(AllExtraEdges)),
            procs,
            Box::new(ScriptedEnvironment::new(script)),
            master_seed,
        );
        engine.run(rounds);
        engine.into_trace()
    }

    #[test]
    fn ack_arrives_within_t_ack_rounds() {
        let topo = radio_sim::topology::clique(3, 1.0);
        let cfg = LbConfig::fast(0.25);
        let params = cfg.resolve(1.0, topo.graph.delta(), topo.graph.delta_prime());
        let payload = Payload::new(0, 1);
        let trace = run_lb(
            &topo,
            &cfg,
            vec![(1, NodeId(0), LbInput::Bcast(payload.clone()))],
            params.t_ack_rounds() + 2,
            3,
        );
        let ack = trace
            .outputs()
            .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
            .expect("sender acks");
        assert!(ack.0 <= 1 + params.t_ack_rounds(), "ack at {}", ack.0);
        assert_eq!(ack.2.payload(), &payload);
    }

    #[test]
    fn neighbors_receive_before_ack() {
        // With all links up and one sender in a small clique, delivery to
        // every neighbor before the ack is overwhelmingly likely.
        let topo = radio_sim::topology::clique(4, 1.0);
        let cfg = LbConfig::fast(0.25);
        let params = cfg.resolve(1.0, topo.graph.delta(), topo.graph.delta_prime());
        let payload = Payload::new(0, 9);
        let trace = run_lb(
            &topo,
            &cfg,
            vec![(1, NodeId(0), LbInput::Bcast(payload.clone()))],
            params.t_ack_rounds() + 2,
            11,
        );
        let ack_round = trace
            .outputs()
            .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
            .map(|(r, _, _)| r)
            .expect("sender acks");
        for v in 1..4 {
            let recv = trace.outputs().find(|(_, node, o)| {
                node.0 == v && !o.is_ack() && o.payload() == &payload
            });
            let (recv_round, _, _) = recv.unwrap_or_else(|| panic!("node {v} received"));
            assert!(recv_round <= ack_round);
        }
    }

    #[test]
    fn recv_outputs_are_deduplicated() {
        let topo = radio_sim::topology::clique(3, 1.0);
        let cfg = LbConfig::fast(0.25);
        let params = cfg.resolve(1.0, topo.graph.delta(), topo.graph.delta_prime());
        let payload = Payload::new(0, 2);
        let trace = run_lb(
            &topo,
            &cfg,
            vec![(1, NodeId(0), LbInput::Bcast(payload.clone()))],
            params.t_ack_rounds() + 2,
            5,
        );
        for v in 1..3 {
            let recvs = trace
                .outputs()
                .filter(|(_, node, o)| node.0 == v && !o.is_ack())
                .count();
            assert!(recvs <= 1, "node {v} produced {recvs} recv outputs");
        }
    }

    #[test]
    fn no_spurious_outputs_without_input() {
        let topo = radio_sim::topology::clique(3, 1.0);
        let cfg = LbConfig::fast(0.25);
        let params = cfg.resolve(1.0, topo.graph.delta(), topo.graph.delta_prime());
        let trace = run_lb(&topo, &cfg, vec![], params.phase_len() * 2, 7);
        assert_eq!(trace.outputs().count(), 0);
    }

    #[test]
    #[should_panic(expected = "well-formedness")]
    fn rejects_bcast_before_ack() {
        let topo = radio_sim::topology::clique(2, 1.0);
        let cfg = LbConfig::fast(0.25);
        let _ = run_lb(
            &topo,
            &cfg,
            vec![
                (1, NodeId(0), LbInput::Bcast(Payload::new(0, 1))),
                (2, NodeId(0), LbInput::Bcast(Payload::new(0, 2))),
            ],
            10,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "origin")]
    fn rejects_foreign_payload() {
        let topo = radio_sim::topology::clique(2, 1.0);
        let cfg = LbConfig::fast(0.25);
        let _ = run_lb(
            &topo,
            &cfg,
            vec![(1, NodeId(0), LbInput::Bcast(Payload::new(5, 1)))],
            10,
            1,
        );
    }

    #[test]
    fn private_mode_runs_and_delivers() {
        let topo = radio_sim::topology::clique(3, 1.0);
        let cfg = LbConfig::fast(0.25).with_private_seeds();
        let params = cfg.resolve(1.0, topo.graph.delta(), topo.graph.delta_prime());
        assert_eq!(params.t_s, 0);
        let payload = Payload::new(0, 1);
        let trace = run_lb(
            &topo,
            &cfg,
            vec![(1, NodeId(0), LbInput::Bcast(payload.clone()))],
            params.t_ack_rounds() + 2,
            3,
        );
        assert!(trace
            .outputs()
            .any(|(_, v, o)| v == NodeId(0) && o.is_ack()));
        assert!(trace.outputs().any(|(_, _, o)| !o.is_ack()));
        crate::spec::check_validity(&trace, &topo.graph).unwrap();
    }

    #[test]
    fn seed_reuse_mode_acks_within_adapted_bound() {
        let topo = radio_sim::topology::clique(3, 1.0);
        let cfg = LbConfig::fast(0.25).with_seed_reuse(3);
        let params = cfg.resolve(1.0, topo.graph.delta(), topo.graph.delta_prime());
        let payload = Payload::new(0, 1);
        let trace = run_lb(
            &topo,
            &cfg,
            vec![(1, NodeId(0), LbInput::Bcast(payload.clone()))],
            params.t_ack_rounds() + 2,
            5,
        );
        let ack = trace
            .outputs()
            .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
            .expect("acks");
        assert!(ack.0 <= 1 + params.t_ack_rounds());
        crate::spec::check_timely_ack(&trace, params.t_ack_rounds()).unwrap();
    }

    #[test]
    fn commit_history_grows_per_phase() {
        let topo = radio_sim::topology::clique(3, 1.0);
        let cfg = LbConfig::fast(0.25);
        let params = cfg.resolve(1.0, topo.graph.delta(), topo.graph.delta_prime());
        let n = topo.graph.len();
        let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
        let mut engine = Engine::new(
            topo.configuration(Box::new(AllExtraEdges)),
            procs,
            Box::new(radio_sim::environment::NullEnvironment),
            2,
        );
        engine.run(params.phase_len() * 3);
        for p in engine.processes() {
            assert_eq!(p.commit_history().len(), 3);
        }
    }
}
