//! `LbMac`: the abstract MAC layer implemented by `LBAlg`.
//!
//! The adaptation the paper sketches in its conclusion: `LBAlg`'s
//! `bcast`/`ack`/`recv` vocabulary already matches the abstract MAC
//! layer's, so the adapter's work is mediating between the *pull* style
//! of the round engine (environments answer "what inputs this round?")
//! and the *push* style of the layer interface (`bcast` may be called at
//! any time). A shared queue bridges the two: `bcast` enqueues, and the
//! engine-side environment injects each node's next payload as soon as
//! the `LB` well-formedness rule allows.

use crate::layer::{AbstractMac, MacEvent, MsgId};
use bytes::Bytes;
use local_broadcast::alg::LbProcess;
use local_broadcast::config::{LbConfig, LbParams};
use local_broadcast::msg::{LbInput, LbOutput, Payload};
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::Environment;
use radio_sim::graph::NodeId;
use radio_sim::process::ProcId;
use radio_sim::trace::RecordingPolicy;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct SharedQueues {
    queues: Vec<VecDeque<Payload>>,
    busy: Vec<bool>,
}

/// The engine-side environment: injects each node's next queued payload
/// once its previous broadcast has acked.
struct QueueBridge {
    shared: Arc<Mutex<SharedQueues>>,
}

impl Environment<LbInput, LbOutput> for QueueBridge {
    fn next_inputs(
        &mut self,
        _round: u64,
        prev_outputs: &[(NodeId, LbOutput)],
    ) -> Vec<(NodeId, LbInput)> {
        let mut shared = self.shared.lock().expect("queue bridge lock");
        for (v, out) in prev_outputs {
            if out.is_ack() {
                shared.busy[v.0] = false;
            }
        }
        let mut inputs = Vec::new();
        for v in 0..shared.queues.len() {
            if !shared.busy[v] {
                if let Some(p) = shared.queues[v].pop_front() {
                    shared.busy[v] = true;
                    inputs.push((NodeId(v), LbInput::Bcast(p)));
                }
            }
        }
        inputs
    }
}

/// The abstract MAC layer backed by an `LBAlg` deployment on a dual
/// graph: `f_ack = t_ack`, `f_prog = t_prog` (Theorem 4.1).
pub struct LbMac {
    engine: Engine<LbProcess>,
    shared: Arc<Mutex<SharedQueues>>,
    params: LbParams,
    proc_ids: Vec<ProcId>,
    next_seq: Vec<u64>,
    event_cursor: usize,
}

impl LbMac {
    /// Deploys `LBAlg(cfg)` on the topology under the given link
    /// scheduler. The trace keeps aggregate channel statistics next to
    /// inputs and outputs.
    pub fn new(
        topo: &radio_sim::topology::Topology,
        scheduler: Box<dyn radio_sim::scheduler::LinkScheduler>,
        cfg: LbConfig,
        master_seed: u64,
    ) -> Self {
        let config = topo
            .configuration(scheduler)
            .with_recording(RecordingPolicy::stats_only());
        Self::from_configuration(config, cfg, master_seed)
    }

    /// Deploys `LBAlg(cfg)` on the engine `config` describes: its graph,
    /// `r`, scheduler, faults, recording policy and telemetry. The layer
    /// reads only output events, which every recording policy records,
    /// so its behaviour does not depend on the policy.
    ///
    /// # Panics
    ///
    /// Panics if `config` carries a geometry timeline: the layer's
    /// bounds come from its one graph.
    pub fn from_configuration(config: Configuration, cfg: LbConfig, master_seed: u64) -> Self {
        assert!(config.timeline.is_none(), "LbMac runs on one static graph");
        let n = config.graph.len();
        let params = cfg.resolve(config.r, config.graph.delta(), config.graph.delta_prime());
        let shared = Arc::new(Mutex::new(SharedQueues {
            queues: vec![VecDeque::new(); n],
            busy: vec![false; n],
        }));
        let bridge = QueueBridge {
            shared: Arc::clone(&shared),
        };
        let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
        let proc_ids = config.proc_ids.clone();
        let engine = Engine::new(config, procs, Box::new(bridge), master_seed);
        LbMac {
            engine,
            shared,
            params,
            proc_ids,
            next_seq: vec![0; n],
            event_cursor: 0,
        }
    }

    /// The resolved `LBAlg` round structure backing this layer.
    pub fn params(&self) -> &LbParams {
        &self.params
    }

    /// The accumulated execution trace (for spec checking in tests).
    pub fn trace(&self) -> &local_broadcast::LbTrace {
        self.engine.trace()
    }

    /// Takes the engine's metrics (`None` unless telemetry is attached).
    pub fn take_telemetry(&mut self) -> Option<radio_sim::engine::EngineMetrics> {
        self.engine.take_telemetry()
    }
}

impl AbstractMac for LbMac {
    fn len(&self) -> usize {
        self.proc_ids.len()
    }

    fn proc_id(&self, node: NodeId) -> ProcId {
        self.proc_ids[node.0]
    }

    fn bcast(&mut self, node: NodeId, body: Bytes) -> MsgId {
        let seq = self.next_seq[node.0];
        self.next_seq[node.0] += 1;
        let origin = self.proc_ids[node.0];
        let payload = Payload::with_body(origin, seq, body);
        self.shared
            .lock()
            .expect("queue bridge lock")
            .queues[node.0]
            .push_back(payload);
        MsgId { origin, seq }
    }

    fn step_round(&mut self) {
        self.engine.step();
    }

    fn round(&self) -> u64 {
        self.engine.round()
    }

    fn poll_events(&mut self) -> Vec<(NodeId, MacEvent)> {
        let events = &self.engine.trace().events;
        let mut out = Vec::new();
        for e in &events[self.event_cursor..] {
            if let radio_sim::trace::EventKind::Output(o) = &e.kind {
                let msg = MsgId {
                    origin: o.payload().origin,
                    seq: o.payload().tag,
                };
                let ev = match o {
                    LbOutput::Ack(_) => MacEvent::Ack { msg },
                    LbOutput::Recv(p) => MacEvent::Recv {
                        msg,
                        body: p.body.clone(),
                    },
                };
                out.push((e.node, ev));
            }
        }
        self.event_cursor = events.len();
        out
    }

    fn f_ack(&self) -> u64 {
        self.params.t_ack_rounds()
    }

    fn f_prog(&self) -> u64 {
        self.params.phase_len()
    }
}

impl std::fmt::Debug for LbMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LbMac")
            .field("n", &self.len())
            .field("round", &self.engine.round())
            .field("f_ack", &self.f_ack())
            .field("f_prog", &self.f_prog())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::scheduler::AllExtraEdges;

    fn mk_mac(n: usize, seed: u64) -> LbMac {
        let topo = radio_sim::topology::clique(n, 1.0);
        LbMac::new(
            &topo,
            Box::new(AllExtraEdges),
            LbConfig::fast(0.25),
            seed,
        )
    }

    #[test]
    fn bcast_acks_within_f_ack() {
        let mut mac = mk_mac(3, 1);
        let id = mac.bcast(NodeId(0), Bytes::from_static(b"hi"));
        let events = mac.run_collect(mac.f_ack());
        let acked = events
            .iter()
            .any(|(v, e)| *v == NodeId(0) && matches!(e, MacEvent::Ack { msg } if *msg == id));
        assert!(acked, "events: {events:?}");
    }

    #[test]
    fn recv_carries_body_and_origin() {
        let mut mac = mk_mac(3, 2);
        let id = mac.bcast(NodeId(1), Bytes::from_static(b"payload"));
        let events = mac.run_collect(mac.f_ack());
        let recvs: Vec<_> = events
            .iter()
            .filter(|(_, e)| matches!(e, MacEvent::Recv { msg, .. } if *msg == id))
            .collect();
        assert_eq!(recvs.len(), 2, "both neighbors receive: {events:?}");
        for (_, e) in recvs {
            let MacEvent::Recv { body, .. } = e else { unreachable!() };
            assert_eq!(body.as_ref(), b"payload");
        }
    }

    #[test]
    fn queued_bcasts_serialize_per_node() {
        let mut mac = mk_mac(2, 3);
        let a = mac.bcast(NodeId(0), Bytes::from_static(b"a"));
        let b = mac.bcast(NodeId(0), Bytes::from_static(b"b"));
        assert_ne!(a, b);
        let events = mac.run_collect(mac.f_ack() * 2 + mac.f_prog());
        let acks: Vec<MsgId> = events
            .iter()
            .filter_map(|(v, e)| match e {
                MacEvent::Ack { msg } if *v == NodeId(0) => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![a, b], "FIFO ack order");
    }

    #[test]
    fn poll_events_drains_incrementally() {
        let mut mac = mk_mac(2, 4);
        mac.bcast(NodeId(0), Bytes::new());
        let all = mac.run_collect(mac.f_ack());
        assert!(!all.is_empty());
        // Nothing new without stepping.
        assert!(mac.poll_events().is_empty());
    }

    #[test]
    fn bounds_come_from_lb_params() {
        let mac = mk_mac(4, 5);
        assert_eq!(mac.f_prog(), mac.params().phase_len());
        assert_eq!(mac.f_ack(), mac.params().t_ack_rounds());
        assert!(mac.f_ack() > mac.f_prog());
    }
}
