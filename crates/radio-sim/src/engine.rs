//! The synchronous round engine: executes an algorithm in a configuration.
//!
//! A [`Configuration`] bundles the dual graph, the link scheduler, the id
//! assignment, and recording options; combined with a process vector, an
//! environment, and a master seed it determines an execution completely
//! (the paper's "configuration + algorithm ⇒ execution tree", with the
//! master seed selecting one branch).
//!
//! Each round follows the Section 2 step order exactly:
//! environment inputs → transmit decisions → collision-resolved reception →
//! outputs. The collision rule: `u` receives `m` from `v` iff `u`
//! listens, `v` transmits `m`, and `v` is the **only** transmitter among
//! `u`'s neighbors in the round's topology; otherwise `u` gets `⊥`
//! (no collision detection).
//!
//! [`Engine::step`] is the repository's only round loop. The reception
//! step is delegated to a [`Channel`]: the simulator's [`SimChannel`] by
//! default, or any other substrate through [`Engine::with_channel`].

use crate::channel::{Channel, Heard, SimChannel, Transmissions};
use crate::environment::Environment;
use crate::fault::FaultPlan;
use crate::graph::{DualGraph, NodeId};
use crate::process::{Action, Context, ProcId, Process};
use crate::rng::{derive_stream, StreamKind};
use crate::scheduler::{LinkScheduler, NoExtraEdges, SchedulerBox};
use crate::timeline::GraphTimeline;
use crate::trace::{Event, EventKind, FaultEvent, RecordingPolicy, Trace};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
pub use telemetry::EngineMetrics;

/// Everything that resolves model nondeterminism, minus the algorithm's
/// coins: dual graph, link scheduler, id assignment, geographic parameter.
#[derive(Debug)]
pub struct Configuration {
    /// The dual graph `(G, G')`, shareable across engines: Monte-Carlo
    /// fan-out hands every trial the same `Arc` instead of cloning the
    /// adjacency per trial.
    pub graph: Arc<DualGraph>,
    /// The link scheduler (oblivious, or adaptive for separation
    /// experiments). Together with `shards` it configures the
    /// [`SimChannel`]; an engine built [`Engine::with_channel`] leaves
    /// both unused.
    pub scheduler: SchedulerBox,
    /// Id assignment: `proc_ids[v]` is the process id at vertex `v`.
    /// Must be injective.
    pub proc_ids: Vec<ProcId>,
    /// The geographic parameter `r ≥ 1` the dual graph satisfies.
    pub r: f64,
    /// Dynamic geometry: the epoch schedule of dual-graph snapshots.
    /// `None` (the default) and a single-epoch timeline over `graph` are
    /// byte-identical to the static path; a multi-epoch timeline makes
    /// the engine swap `graph` at each epoch boundary before the round's
    /// fault step. Degree bounds reported to processes are the timeline
    /// maxima, so `Δ`/`Δ'` stay constant across epochs.
    pub timeline: Option<GraphTimeline>,
    /// What the engine records into the trace.
    pub recording: RecordingPolicy,
    /// The fault schedule (churn, jamming, drop bursts); empty by
    /// default, in which case execution is identical to the fault-free
    /// engine.
    pub faults: FaultPlan,
    /// How many parallel shards reception resolution fans out over
    /// (1 = serial). Executions are byte-identical for every value; the
    /// knob trades thread overhead for intra-trial parallelism on large
    /// graphs.
    pub shards: usize,
    /// Whether the engine accumulates [`telemetry::EngineMetrics`]
    /// (per-phase round timing, per-shard busy time, channel counters).
    /// Telemetry observes only: enabling it leaves the execution —
    /// traces, outputs, RNG streams — byte-identical, and recording
    /// stays allocation-free in the steady state.
    pub telemetry: bool,
}

impl Configuration {
    /// A configuration with the identity id assignment, `r = 2`, and
    /// output-only recording. Accepts an owned graph or an existing
    /// `Arc` (shared across trials without cloning the adjacency).
    pub fn new(graph: impl Into<Arc<DualGraph>>, scheduler: Box<dyn LinkScheduler>) -> Self {
        let graph = graph.into();
        let n = graph.len();
        Configuration {
            graph,
            scheduler: SchedulerBox::Oblivious(scheduler),
            proc_ids: (0..n as u64).collect(),
            r: 2.0,
            timeline: None,
            recording: RecordingPolicy::outputs_only(),
            faults: FaultPlan::none(),
            shards: 1,
            telemetry: false,
        }
    }

    /// Shards reception resolution across `shards` worker threads
    /// (clamped to ≥ 1; 1 keeps the serial path). The CSR adjacency is
    /// read-only in the hot loop and each shard writes a disjoint vertex
    /// range of the receive scratch, so every shard count produces a
    /// byte-identical execution.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Enables (or disables) engine telemetry. A disabled handle is a
    /// no-op: the hot path pays one branch per phase and nothing else.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Replaces the scheduler with an adaptive one (E8 separation runs).
    pub fn with_adaptive(
        mut self,
        scheduler: Box<dyn crate::scheduler::AdaptiveScheduler>,
    ) -> Self {
        self.scheduler = SchedulerBox::Adaptive(scheduler);
        self
    }

    /// Installs a dynamic-geometry timeline. The configuration's `graph`
    /// becomes the timeline's first snapshot so every consumer (fault
    /// validation, process count, `net`'s caches) sees the epoch-0
    /// geometry before the first round.
    ///
    /// # Panics
    ///
    /// Panics if the timeline's vertex count differs from the graph's.
    pub fn with_timeline(mut self, timeline: GraphTimeline) -> Self {
        assert_eq!(
            timeline.len(),
            self.graph.len(),
            "timeline must cover the same vertex set as the graph"
        );
        self.graph = Arc::clone(timeline.epoch_graph(0));
        self.timeline = Some(timeline);
        self
    }

    /// Sets the geographic parameter `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r < 1` (the model requires `r ≥ 1`).
    pub fn with_r(mut self, r: f64) -> Self {
        assert!(r >= 1.0, "the model requires r >= 1, got {r}");
        self.r = r;
        self
    }

    /// Sets an explicit id assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the vertex count or is
    /// not injective.
    pub fn with_proc_ids(mut self, ids: Vec<ProcId>) -> Self {
        assert_eq!(ids.len(), self.graph.len(), "one id per vertex required");
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "id assignment must be injective");
        self.proc_ids = ids;
        self
    }

    /// Sets the trace recording policy.
    pub fn with_recording(mut self, recording: RecordingPolicy) -> Self {
        self.recording = recording;
        self
    }

    /// Installs a fault plan (churn, jamming windows, drop bursts).
    ///
    /// # Panics
    ///
    /// Panics if the plan references a vertex outside the graph or
    /// contains a malformed window/probability (see
    /// [`FaultPlan::validate`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        faults
            .validate(self.graph.len())
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        self.faults = faults;
        self
    }
}

/// The synchronous executor for processes of type `P`, resolving
/// receptions through the channel `C`.
pub struct Engine<P: Process, C = SimChannel> {
    graph: Arc<DualGraph>,
    /// The epoch schedule `graph` is swapped from, if geometry is
    /// dynamic; `epoch` is the index of the epoch `graph` came from.
    timeline: Option<GraphTimeline>,
    epoch: usize,
    channel: C,
    r: f64,
    recording: RecordingPolicy,
    faults: FaultPlan,
    master_seed: u64,
    delta: usize,
    delta_prime: usize,
    procs: Vec<P>,
    rngs: Vec<ChaCha8Rng>,
    env: Box<dyn Environment<P::Input, P::Output>>,
    pending_outputs: Vec<(NodeId, P::Output)>,
    /// Last round's outputs, swapped with `pending_outputs` each round so
    /// neither buffer is reallocated in the steady state.
    outputs_prev: Vec<(NodeId, P::Output)>,
    round: u64,
    /// Fault masks for the round being executed and the previous round
    /// (the engine records Crash/Recover and JamStart/JamEnd transitions
    /// by comparing them).
    down: Vec<bool>,
    down_prev: Vec<bool>,
    jammed: Vec<bool>,
    jam_prev: Vec<bool>,
    // Per-round scratch, owned by the engine so `step` performs no heap
    // allocation in the steady state (the hot-path contract the
    // zero-alloc test pins; see docs/perf.md).
    transmitting: Vec<bool>,
    /// `messages[v]` is `Some` iff `v ∈ tx_list` — message slots are
    /// cleared by walking `tx_list`, so per-round message traffic costs
    /// O(transmitters), not O(n) (large message enums carry drop glue).
    messages: Vec<Option<P::Msg>>,
    /// This round's transmitters, in vertex order.
    tx_list: Vec<usize>,
    trace: Trace<P::Input, P::Output, P::Msg>,
    /// Metrics sink, present while telemetry is attached (by the
    /// configuration or [`Engine::set_telemetry`]). Boxed so the
    /// disabled engine doesn't carry the 16 KiB histogram; all slots are
    /// fixed when it is attached, so recording into it never allocates
    /// (preserving the zero-alloc steady-state contract).
    telemetry: Option<Box<EngineMetrics>>,
}

impl<P: Process> Engine<P> {
    /// Builds an engine from a configuration, one process per vertex, an
    /// environment, and the master seed from which all per-node random
    /// streams derive. Receptions resolve through the simulator's
    /// channel, built from the configuration's scheduler and shard count.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len()` differs from the graph's vertex count.
    pub fn new(
        mut config: Configuration,
        procs: Vec<P>,
        env: Box<dyn Environment<P::Input, P::Output>>,
        master_seed: u64,
    ) -> Self {
        // The scheduler moves into the channel; `with_channel` never
        // reads the inert stand-in left behind.
        let scheduler = std::mem::replace(
            &mut config.scheduler,
            SchedulerBox::Oblivious(Box::new(NoExtraEdges)),
        );
        let channel = SimChannel::new(scheduler, config.shards, config.graph.len());
        Engine::with_channel(config, channel, procs, env, master_seed)
    }
}

impl<P: Process, C: Channel<P::Msg>> Engine<P, C> {
    /// Builds an engine whose reception step is `channel`; everything
    /// else (faults, inputs, transmit decisions, classification, outputs,
    /// the trace and telemetry) is the same round loop as
    /// [`Engine::new`]. The configuration's `scheduler` and `shards`
    /// describe the simulator's channel and go unused here.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len()` differs from the graph's vertex count.
    pub fn with_channel(
        config: Configuration,
        channel: C,
        procs: Vec<P>,
        env: Box<dyn Environment<P::Input, P::Output>>,
        master_seed: u64,
    ) -> Self {
        let n = config.graph.len();
        assert_eq!(procs.len(), n, "need exactly one process per vertex");
        let rngs = (0..n)
            .map(|v| derive_stream(master_seed, StreamKind::Process, v as u64))
            .collect();
        // Degree bounds are timeline maxima when geometry is dynamic, so
        // the Δ/Δ' a process sees stay constant across epoch boundaries;
        // for static geometry these are exactly the graph's bounds.
        let (delta, delta_prime) = match &config.timeline {
            Some(t) => (t.delta(), t.delta_prime()),
            None => (config.graph.delta(), config.graph.delta_prime()),
        };
        let trace = Trace::new(n, config.proc_ids.clone());
        let mut engine = Engine {
            graph: config.graph,
            timeline: config.timeline,
            epoch: 0,
            channel,
            r: config.r,
            recording: config.recording,
            faults: config.faults,
            master_seed,
            delta,
            delta_prime,
            procs,
            rngs,
            env,
            pending_outputs: Vec::new(),
            outputs_prev: Vec::new(),
            round: 0,
            down: vec![false; n],
            down_prev: vec![false; n],
            jammed: vec![false; n],
            jam_prev: vec![false; n],
            transmitting: vec![false; n],
            messages: (0..n).map(|_| None).collect(),
            tx_list: Vec::with_capacity(n),
            trace,
            telemetry: None,
        };
        engine.set_telemetry(config.telemetry);
        engine
    }

    /// The number of completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The execution trace accumulated so far.
    pub fn trace(&self) -> &Trace<P::Input, P::Output, P::Msg> {
        &self.trace
    }

    /// Consumes the engine, yielding the trace.
    pub fn into_trace(self) -> Trace<P::Input, P::Output, P::Msg> {
        self.trace
    }

    /// Read access to the processes (for instrumentation in experiments).
    pub fn processes(&self) -> &[P] {
        &self.procs
    }

    /// The telemetry accumulated so far (None when disabled).
    pub fn telemetry(&self) -> Option<&EngineMetrics> {
        self.telemetry.as_deref()
    }

    /// Consumes the engine's telemetry sink (None when disabled),
    /// leaving telemetry disabled for any further rounds.
    pub fn take_telemetry(&mut self) -> Option<EngineMetrics> {
        self.telemetry.take().map(|b| *b)
    }

    /// Attaches a fresh telemetry sink, or detaches the current one.
    /// Metrics cover the rounds stepped while attached, so attach before
    /// the first round to observe the whole execution.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled.then(|| Box::new(EngineMetrics::new(self.channel.shards())));
    }

    /// The channel receptions resolve through.
    pub fn channel(&self) -> &C {
        &self.channel
    }

    /// The dual graph being simulated (the snapshot of the current
    /// epoch when geometry is dynamic).
    pub fn graph(&self) -> &DualGraph {
        &self.graph
    }

    /// The index of the epoch whose snapshot is currently in force
    /// (always 0 for static geometry).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Reserves trace capacity for `rounds` further rounds of aggregate
    /// channel stats, so the steady state appends without reallocating
    /// (the zero-allocation contract measured in docs/perf.md).
    pub fn reserve_rounds(&mut self, rounds: u64) {
        if self.recording.channel_stats {
            self.trace.round_stats.reserve(rounds as usize);
        }
    }

    /// Executes one synchronous round.
    pub fn step(&mut self) {
        let n = self.graph.len();
        let round = self.round + 1;
        let have_faults = !self.faults.is_empty();

        // Telemetry is taken out of `self` for the round so phase laps
        // and the sharded resolver can borrow it while the engine's own
        // fields stay independently borrowable; it is put back at the
        // end. A disabled handle costs one `None` branch per phase.
        let mut telem = self.telemetry.take();

        // Dynamic geometry: swap in the snapshot covering this round
        // before anything reads adjacency. A single-epoch timeline never
        // enters the loop, keeping the static path byte-identical.
        if let Some(tl) = &self.timeline {
            while self.epoch + 1 < tl.num_epochs() && tl.epoch_start(self.epoch + 1) <= round {
                self.epoch += 1;
                self.graph = Arc::clone(tl.epoch_graph(self.epoch));
                if let Some(t) = telem.as_deref_mut() {
                    t.epoch_switches += 1;
                }
            }
        }

        let mut span = telemetry::Stopwatch::armed(telem.is_some());

        // Step 0: fault masks for this round; record Crash/Recover and
        // JamStart/JamEnd transitions and fire recovery hooks.
        if have_faults {
            self.faults.fill_down(round, &mut self.down);
            self.faults.fill_jammed(round, &mut self.jammed);
            for v in 0..n {
                if self.down[v] != self.down_prev[v] {
                    let kind = if self.down[v] {
                        FaultEvent::Crash
                    } else {
                        FaultEvent::Recover
                    };
                    self.trace.events.push(Event {
                        round,
                        node: NodeId(v),
                        kind: EventKind::Fault(kind),
                    });
                    if !self.down[v] {
                        let ctx = &mut Context {
                            round,
                            id: self.trace.proc_ids[v],
                            delta: self.delta,
                            delta_prime: self.delta_prime,
                            r: self.r,
                            rng: &mut self.rngs[v],
                        };
                        if self.faults.restart_recovery(NodeId(v), round) {
                            self.procs[v].on_crash_restart(ctx);
                        } else {
                            self.procs[v].on_restart(ctx);
                        }
                    }
                }
                if self.jammed[v] != self.jam_prev[v] {
                    let kind = if self.jammed[v] {
                        FaultEvent::JamStart
                    } else {
                        FaultEvent::JamEnd
                    };
                    self.trace.events.push(Event {
                        round,
                        node: NodeId(v),
                        kind: EventKind::Fault(kind),
                    });
                }
            }
            self.down_prev.copy_from_slice(&self.down);
            self.jam_prev.copy_from_slice(&self.jammed);
        }
        let faults_ns = span.lap();

        // Step 1: environment inputs (receives last round's outputs).
        // The two output buffers swap roles each round instead of being
        // reallocated.
        std::mem::swap(&mut self.pending_outputs, &mut self.outputs_prev);
        self.pending_outputs.clear();
        let inputs = self.env.next_inputs(round, &self.outputs_prev);
        for (v, input) in inputs {
            assert!(v.0 < n, "environment addressed nonexistent vertex {v}");
            if have_faults && self.down[v.0] {
                // A down node misses its inputs entirely; record the
                // loss so the trace explains any stalled workload.
                self.trace.events.push(Event {
                    round,
                    node: v,
                    kind: EventKind::Fault(FaultEvent::InputLost),
                });
                continue;
            }
            self.trace.events.push(Event {
                round,
                node: v,
                kind: EventKind::Input(input.clone()),
            });
            let ctx = &mut Context {
                round,
                id: self.trace.proc_ids[v.0],
                delta: self.delta,
                delta_prime: self.delta_prime,
                r: self.r,
                rng: &mut self.rngs[v.0],
            };
            self.procs[v.0].on_input(input, ctx);
        }
        let inputs_ns = span.lap();

        // Step 2: transmit decisions, into the engine-owned scratch
        // buffers (no per-round allocation). Only last round's
        // transmitter slots hold messages, so clearing walks `tx_list`
        // instead of all n slots.
        self.transmitting.fill(false);
        for &v in &self.tx_list {
            self.messages[v] = None;
        }
        self.tx_list.clear();
        for (v, proc) in self.procs.iter_mut().enumerate() {
            if have_faults && self.down[v] {
                // Down nodes take no transmit step.
                continue;
            }
            let ctx = &mut Context {
                round,
                id: self.trace.proc_ids[v],
                delta: self.delta,
                delta_prime: self.delta_prime,
                r: self.r,
                rng: &mut self.rngs[v],
            };
            match proc.transmit(ctx) {
                Action::Transmit(m) => {
                    self.transmitting[v] = true;
                    self.messages[v] = Some(m);
                    self.tx_list.push(v);
                    if self.recording.transmissions {
                        self.trace.events.push(Event {
                            round,
                            node: NodeId(v),
                            kind: EventKind::Transmit,
                        });
                    }
                }
                Action::Receive => {}
            }
        }
        let transmit_ns = span.lap();

        // Step 3: the channel resolves this round's transmissions over
        // the current epoch's graph (for the simulator: the scheduler
        // fixes the round topology and the collision rule applies).
        self.channel.resolve(
            &Transmissions {
                round,
                graph: &self.graph,
                transmitting: &self.transmitting,
                tx_list: &self.tx_list,
                messages: &self.messages,
            },
            telem.as_deref_mut().map(|t| t.shard_busy_ns.as_mut_slice()),
        );
        let resolve_ns = span.lap();

        // Channel stats feed the trace (under the recording policy)
        // and/or the telemetry counters; both read the same RoundStats,
        // so telemetry cannot diverge from what the trace would record.
        let mut stats = (self.recording.channel_stats || telem.is_some()).then(|| {
            crate::trace::RoundStats {
                transmitters: self.tx_list.len(),
                ..Default::default()
            }
        });

        // The drop-burst stream for this round, derived lazily: fault
        // coins never touch process or scheduler randomness.
        let mut fault_rng: Option<ChaCha8Rng> = None;
        for u in 0..n {
            if have_faults && self.down[u] {
                // Down nodes take no receive step either.
                if let Some(s) = stats.as_mut() {
                    s.down += 1;
                }
                continue;
            }
            let received: Option<P::Msg> = if self.transmitting[u] {
                // Transmitters are not receiving this round.
                None
            } else if have_faults && self.jammed[u] {
                // Jammed listeners hear only noise (⊥), whatever the
                // channel carries.
                if let Some(s) = stats.as_mut() {
                    s.jammed += 1;
                }
                None
            } else {
                match self.channel.heard(u) {
                    Heard::From(from) => {
                        // An otherwise-successful reception may still be
                        // lost to an active drop burst (one coin per
                        // burst, in vertex order, from the dedicated
                        // fault stream).
                        let mut suppressed = false;
                        if have_faults {
                            for burst in self.faults.active_drops(round) {
                                let rng = fault_rng.get_or_insert_with(|| {
                                    derive_stream(self.master_seed, StreamKind::Fault, round)
                                });
                                if rng.gen_bool(burst.p) {
                                    suppressed = true;
                                }
                            }
                        }
                        if suppressed {
                            if self.recording.receptions {
                                self.trace.events.push(Event {
                                    round,
                                    node: NodeId(u),
                                    kind: EventKind::Fault(FaultEvent::Dropped { from }),
                                });
                            }
                            if let Some(s) = stats.as_mut() {
                                s.dropped += 1;
                            }
                            None
                        } else {
                            let msg = self.channel.deliver(u, from, &self.messages);
                            if self.recording.receptions {
                                self.trace.events.push(Event {
                                    round,
                                    node: NodeId(u),
                                    kind: EventKind::Receive {
                                        from,
                                        msg: msg.clone(),
                                    },
                                });
                            }
                            if let Some(s) = stats.as_mut() {
                                s.deliveries += 1;
                            }
                            Some(msg)
                        }
                    }
                    Heard::Silence => {
                        if let Some(s) = stats.as_mut() {
                            s.silent += 1;
                        }
                        None
                    }
                    Heard::Collision => {
                        if let Some(s) = stats.as_mut() {
                            s.collisions += 1;
                        }
                        None
                    }
                }
            };
            let ctx = &mut Context {
                round,
                id: self.trace.proc_ids[u],
                delta: self.delta,
                delta_prime: self.delta_prime,
                r: self.r,
                rng: &mut self.rngs[u],
            };
            self.procs[u].on_receive(received, ctx);
        }

        let deliver_ns = span.lap();

        if let Some(s) = stats {
            if let Some(t) = telem.as_deref_mut() {
                t.transmissions += s.transmitters as u64;
                t.deliveries += s.deliveries as u64;
                t.collisions += s.collisions as u64;
                t.silent += s.silent as u64;
                t.jammed += s.jammed as u64;
                t.dropped += s.dropped as u64;
                t.down_node_rounds += s.down as u64;
            }
            if self.recording.channel_stats {
                self.trace.round_stats.push(s);
            }
        }

        // Step 4: outputs, consumed by the environment at the start of the
        // next round.
        for v in 0..n {
            if have_faults && self.down[v] {
                continue;
            }
            if !self.procs[v].has_outputs() {
                continue;
            }
            for out in self.procs[v].take_outputs() {
                self.trace.events.push(Event {
                    round,
                    node: NodeId(v),
                    kind: EventKind::Output(out.clone()),
                });
                self.pending_outputs.push((NodeId(v), out));
            }
        }

        if let Some(t) = telem.as_deref_mut() {
            let outputs_ns = span.lap();
            if self.channel.shards() <= 1 {
                // The serial resolver is "shard 0"; sharded resolution
                // timed its chunks inside the workers.
                t.shard_busy_ns[0] += resolve_ns;
            }
            t.record_round([faults_ns, inputs_ns, transmit_ns, resolve_ns, deliver_ns, outputs_ns]);
        }
        self.telemetry = telem;

        self.round = round;
        self.trace.rounds = round;
    }

    /// Executes `rounds` additional rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Steps until `pred(trace)` holds or `max_rounds` total rounds have
    /// run; returns whether the predicate held.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut pred: impl FnMut(&Trace<P::Input, P::Output, P::Msg>) -> bool,
    ) -> bool {
        while self.round < max_rounds {
            self.step();
            if pred(&self.trace) {
                return true;
            }
        }
        false
    }
}

impl<P: Process, C: Channel<P::Msg>> std::fmt::Debug for Engine<P, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.graph.len())
            .field("round", &self.round)
            .field("channel", &self.channel.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::NullEnvironment;
    use crate::scheduler::AllExtraEdges;

    /// A test process: transmits its fixed message on configured rounds,
    /// listens otherwise, and outputs every message it hears.
    struct Beacon {
        msg: u32,
        tx_rounds: Vec<u64>,
        heard: Vec<u32>,
    }

    impl Beacon {
        fn new(msg: u32, tx_rounds: Vec<u64>) -> Self {
            Beacon {
                msg,
                tx_rounds,
                heard: Vec::new(),
            }
        }
    }

    impl Process for Beacon {
        type Msg = u32;
        type Input = ();
        type Output = u32;

        fn on_input(&mut self, _input: (), _ctx: &mut Context<'_>) {}

        fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
            if self.tx_rounds.contains(&ctx.round) {
                Action::Transmit(self.msg)
            } else {
                Action::Receive
            }
        }

        fn on_receive(&mut self, msg: Option<u32>, _ctx: &mut Context<'_>) {
            if let Some(m) = msg {
                self.heard.push(m);
            }
        }

        fn take_outputs(&mut self) -> Vec<u32> {
            std::mem::take(&mut self.heard)
        }
    }

    fn run_beacons(
        graph: DualGraph,
        scheduler: Box<dyn LinkScheduler>,
        specs: Vec<(u32, Vec<u64>)>,
        rounds: u64,
    ) -> Trace<(), u32, u32> {
        let procs = specs
            .into_iter()
            .map(|(m, r)| Beacon::new(m, r))
            .collect();
        let mut engine = Engine::new(
            Configuration::new(graph, scheduler),
            procs,
            Box::new(NullEnvironment),
            1,
        );
        engine.run(rounds);
        engine.into_trace()
    }

    #[test]
    fn sole_transmitter_is_received() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let trace = run_beacons(
            g,
            Box::new(NoExtraEdges),
            vec![(7, vec![1]), (9, vec![])],
            1,
        );
        let outs: Vec<_> = trace.outputs().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(*outs[0].2, 7);
        assert_eq!(outs[0].1, NodeId(1));
    }

    #[test]
    fn two_transmitters_collide() {
        // 0 and 2 both transmit to 1 in round 1: collision, 1 hears nothing.
        let g = DualGraph::reliable_only(3, [(0, 1), (1, 2)]).unwrap();
        let trace = run_beacons(
            g,
            Box::new(NoExtraEdges),
            vec![(7, vec![1]), (0, vec![]), (8, vec![1])],
            1,
        );
        assert_eq!(trace.outputs().count(), 0);
    }

    #[test]
    fn transmitter_does_not_receive() {
        // Both nodes transmit: neither receives despite being neighbors.
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let trace = run_beacons(
            g,
            Box::new(NoExtraEdges),
            vec![(7, vec![1]), (9, vec![1])],
            1,
        );
        assert_eq!(trace.outputs().count(), 0);
    }

    #[test]
    fn unreliable_edge_delivers_when_scheduled() {
        // 0-1 is an extra edge only. With AllExtraEdges the message flows;
        // with NoExtraEdges it does not.
        let g = DualGraph::new(2, [], [(0, 1)]).unwrap();
        let with = run_beacons(
            g.clone(),
            Box::new(AllExtraEdges),
            vec![(7, vec![1]), (9, vec![])],
            1,
        );
        assert_eq!(with.outputs().count(), 1);
        let without = run_beacons(
            g,
            Box::new(NoExtraEdges),
            vec![(7, vec![1]), (9, vec![])],
            1,
        );
        assert_eq!(without.outputs().count(), 0);
    }

    #[test]
    fn unreliable_edge_can_cause_collision() {
        // 1 hears 0 reliably; extra edge 1-2 brings a second transmitter
        // into range, colliding the reception.
        let g = DualGraph::new(3, [(0, 1)], [(1, 2)]).unwrap();
        let trace = run_beacons(
            g,
            Box::new(AllExtraEdges),
            vec![(7, vec![1]), (0, vec![]), (8, vec![1])],
            1,
        );
        assert_eq!(trace.outputs().count(), 0);
    }

    #[test]
    fn non_neighbors_do_not_hear() {
        let g = DualGraph::reliable_only(3, [(0, 1)]).unwrap();
        let trace = run_beacons(
            g,
            Box::new(NoExtraEdges),
            vec![(7, vec![1]), (0, vec![]), (8, vec![])],
            1,
        );
        // Only node 1 hears node 0; node 2 is isolated.
        let outs: Vec<_> = trace.outputs().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1, NodeId(1));
    }

    #[test]
    fn channel_stats_classify_listeners() {
        // Path 0-1-2-3: nodes 0 and 2 transmit. Node 1 has two
        // transmitting neighbors (collision); node 3 has one (delivery);
        // transmitters are not counted as listeners.
        let g = DualGraph::reliable_only(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let procs = vec![
            Beacon::new(1, vec![1]),
            Beacon::new(2, vec![]),
            Beacon::new(3, vec![1]),
            Beacon::new(4, vec![]),
        ];
        let config = Configuration::new(g, Box::new(NoExtraEdges))
            .with_recording(crate::trace::RecordingPolicy::stats_only());
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 1);
        engine.step();
        let stats = engine.trace().round_stats[0];
        assert_eq!(stats.transmitters, 2);
        assert_eq!(stats.deliveries, 1);
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.silent, 0);
        let total = engine.trace().total_stats();
        assert_eq!(total.deliveries, 1);
    }

    #[test]
    fn stats_absent_without_policy() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let procs = vec![Beacon::new(1, vec![1]), Beacon::new(2, vec![])];
        let mut engine = Engine::new(
            Configuration::new(g, Box::new(NoExtraEdges)),
            procs,
            Box::new(NullEnvironment),
            1,
        );
        engine.run(3);
        assert!(engine.trace().round_stats.is_empty());
    }

    #[test]
    fn executions_are_deterministic() {
        let g = DualGraph::new(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)]).unwrap();
        let mk = || {
            run_beacons(
                g.clone(),
                Box::new(crate::scheduler::BernoulliEdges::new(0.5, 11)),
                vec![
                    (1, vec![1, 3, 5]),
                    (2, vec![2, 4]),
                    (3, vec![1, 2, 3]),
                    (4, vec![5]),
                ],
                6,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let procs = vec![Beacon::new(5, vec![3]), Beacon::new(6, vec![])];
        let mut engine = Engine::new(
            Configuration::new(g, Box::new(NoExtraEdges)),
            procs,
            Box::new(NullEnvironment),
            1,
        );
        let hit = engine.run_until(10, |t| t.outputs().count() > 0);
        assert!(hit);
        assert_eq!(engine.round(), 3);
    }

    #[test]
    #[should_panic(expected = "one process per vertex")]
    fn engine_rejects_wrong_process_count() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let _ = Engine::new(
            Configuration::new(g, Box::new(NoExtraEdges)),
            vec![Beacon::new(1, vec![])],
            Box::new(NullEnvironment),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "injective")]
    fn configuration_rejects_duplicate_ids() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let _ = Configuration::new(g, Box::new(NoExtraEdges)).with_proc_ids(vec![3, 3]);
    }

    // -- fault injection ---------------------------------------------------

    use crate::fault::FaultPlan;
    use crate::trace::FaultEvent;

    fn run_beacons_with_faults(
        graph: DualGraph,
        faults: FaultPlan,
        specs: Vec<(u32, Vec<u64>)>,
        rounds: u64,
    ) -> Trace<(), u32, u32> {
        let procs = specs
            .into_iter()
            .map(|(m, r)| Beacon::new(m, r))
            .collect();
        let config = Configuration::new(graph, Box::new(NoExtraEdges))
            .with_recording(crate::trace::RecordingPolicy::full())
            .with_faults(faults);
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 1);
        engine.run(rounds);
        engine.into_trace()
    }

    #[test]
    fn crashed_node_is_silent_until_recovery() {
        // 0 transmits every round; 1 listens. 1 is down in rounds [2, 4).
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let faults = FaultPlan::none().with_crash(NodeId(1), 2, Some(4));
        let trace = run_beacons_with_faults(
            g,
            faults,
            vec![(7, vec![1, 2, 3, 4, 5]), (9, vec![])],
            5,
        );
        let recv_rounds: Vec<u64> = trace.receptions().map(|(t, _, _, _)| t).collect();
        assert_eq!(recv_rounds, vec![1, 4, 5], "deaf while down in rounds 2-3");
        let faults_seen: Vec<_> = trace.faults().collect();
        assert_eq!(
            faults_seen,
            vec![
                (2, NodeId(1), FaultEvent::Crash),
                (4, NodeId(1), FaultEvent::Recover),
            ]
        );
    }

    #[test]
    fn crashed_transmitter_does_not_deliver() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let faults = FaultPlan::none().with_crash(NodeId(0), 1, Some(3));
        let trace = run_beacons_with_faults(
            g,
            faults,
            vec![(7, vec![1, 2, 3]), (9, vec![])],
            3,
        );
        // Only the round-3 transmission (after recovery) lands.
        let recv_rounds: Vec<u64> = trace.receptions().map(|(t, _, _, _)| t).collect();
        assert_eq!(recv_rounds, vec![3]);
    }

    #[test]
    fn jammed_listener_hears_noise_only_inside_window() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let faults = FaultPlan::none().with_jam(vec![NodeId(1)], 2, 3);
        let trace = run_beacons_with_faults(
            g,
            faults,
            vec![(7, vec![1, 2, 3, 4]), (9, vec![])],
            4,
        );
        let recv_rounds: Vec<u64> = trace.receptions().map(|(t, _, _, _)| t).collect();
        assert_eq!(recv_rounds, vec![1, 4]);
        let marks: Vec<_> = trace.faults().collect();
        assert_eq!(
            marks,
            vec![
                (2, NodeId(1), FaultEvent::JamStart),
                (4, NodeId(1), FaultEvent::JamEnd),
            ]
        );
        // Jammed listens are counted separately in channel stats.
        let totals = trace.total_stats();
        assert_eq!(totals.jammed, 2);
        assert_eq!(totals.deliveries, 2);
    }

    #[test]
    fn drop_burst_extremes() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        // p = 1: every would-be delivery inside [2, 3] is lost.
        let all = FaultPlan::none().with_drop_burst(2, 3, 1.0);
        let trace = run_beacons_with_faults(
            g.clone(),
            all,
            vec![(7, vec![1, 2, 3, 4]), (9, vec![])],
            4,
        );
        let recv_rounds: Vec<u64> = trace.receptions().map(|(t, _, _, _)| t).collect();
        assert_eq!(recv_rounds, vec![1, 4]);
        let dropped: Vec<_> = trace
            .faults()
            .filter(|(_, _, f)| matches!(f, FaultEvent::Dropped { .. }))
            .map(|(t, v, _)| (t, v))
            .collect();
        assert_eq!(dropped, vec![(2, NodeId(1)), (3, NodeId(1))]);
        assert_eq!(trace.total_stats().dropped, 2);

        // p = 0: the burst is inert.
        let none = FaultPlan::none().with_drop_burst(2, 3, 0.0);
        let trace = run_beacons_with_faults(
            g,
            none,
            vec![(7, vec![1, 2, 3, 4]), (9, vec![])],
            4,
        );
        assert_eq!(trace.receptions().count(), 4);
        assert_eq!(trace.total_stats().dropped, 0);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let g = DualGraph::new(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)]).unwrap();
        let specs = vec![
            (1, vec![1, 3, 5]),
            (2, vec![2, 4]),
            (3, vec![1, 2, 3]),
            (4, vec![5]),
        ];
        let plain = run_beacons(
            g.clone(),
            Box::new(NoExtraEdges),
            specs.clone(),
            6,
        );
        let faulted = run_beacons_with_faults(g, FaultPlan::none(), specs, 6);
        // Recording policies differ (full vs outputs-only), so compare
        // outputs and round count, which full recording supersets.
        assert_eq!(
            plain.outputs().collect::<Vec<_>>(),
            faulted.outputs().collect::<Vec<_>>()
        );
        assert_eq!(plain.rounds, faulted.rounds);
        assert_eq!(faulted.faults().count(), 0);
    }

    #[test]
    fn faulted_executions_are_deterministic() {
        let g = DualGraph::new(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)]).unwrap();
        let faults = FaultPlan::none()
            .with_crash(NodeId(2), 2, Some(4))
            .with_jam(vec![NodeId(0), NodeId(3)], 3, 5)
            .with_drop_burst(1, 6, 0.5);
        let mk = || {
            run_beacons_with_faults(
                g.clone(),
                faults.clone(),
                vec![
                    (1, vec![1, 3, 5]),
                    (2, vec![2, 4]),
                    (3, vec![1, 2, 3]),
                    (4, vec![5, 6]),
                ],
                6,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.events, b.events);
        assert_eq!(a.round_stats, b.round_stats);
    }

    #[test]
    fn down_nodes_counted_in_stats() {
        let g = DualGraph::reliable_only(3, [(0, 1), (1, 2)]).unwrap();
        let faults = FaultPlan::none().with_crash(NodeId(2), 1, None);
        let trace = run_beacons_with_faults(
            g,
            faults,
            vec![(7, vec![1]), (9, vec![]), (5, vec![])],
            1,
        );
        let stats = trace.round_stats[0];
        assert_eq!(stats.down, 1);
        assert_eq!(stats.deliveries, 1);
        assert_eq!(stats.transmitters, 1);
    }

    // -- sharded reception resolution --------------------------------------

    /// One trace of a contention-heavy random topology under the given
    /// scheduler, faults, and shard count (full recording, so events and
    /// per-round stats pin the whole execution).
    fn shard_trace(
        scheduler: Box<dyn LinkScheduler>,
        faults: FaultPlan,
        shards: usize,
    ) -> Trace<(), u32, u32> {
        let topo = crate::topology::random_geometric(crate::topology::RggParams {
            n: 60,
            side: 3.0,
            r: 2.0,
            grey_reliable_p: 0.1,
            grey_unreliable_p: 0.8,
            seed: 13,
        });
        let procs = (0..60)
            .map(|v| Beacon::new(v as u32, vec![1 + v as u64 % 5, 3, 7 + v as u64 % 3]))
            .collect();
        let config = Configuration::new(topo.graph, scheduler)
            .with_recording(crate::trace::RecordingPolicy::full())
            .with_faults(faults)
            .with_shards(shards);
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 9);
        engine.run(12);
        engine.into_trace()
    }

    #[test]
    fn shard_counts_produce_byte_identical_traces() {
        let some_faults = || {
            FaultPlan::none()
                .with_crash(NodeId(4), 3, Some(8))
                .with_jam(vec![NodeId(1), NodeId(9)], 2, 6)
                .with_drop_burst(1, 10, 0.5)
        };
        type MkScheduler = Box<dyn Fn() -> Box<dyn LinkScheduler>>;
        let cases: Vec<(MkScheduler, FaultPlan)> = vec![
            // All-edges: the sharded gather covers the extra adjacency.
            (Box::new(|| Box::new(AllExtraEdges)), FaultPlan::none()),
            // No-edges: reliable gather only.
            (Box::new(|| Box::new(NoExtraEdges)), FaultPlan::none()),
            // Bernoulli: per-round Subset selections, applied serially on
            // top of the sharded gather.
            (
                Box::new(|| Box::new(crate::scheduler::BernoulliEdges::new(0.5, 3))),
                FaultPlan::none(),
            ),
            // Faults interleave crash/jam/drop with the sharded path.
            (Box::new(|| Box::new(AllExtraEdges)), some_faults()),
            (
                Box::new(|| Box::new(crate::scheduler::BernoulliEdges::new(0.7, 5))),
                some_faults(),
            ),
        ];
        for (mk_sched, faults) in cases {
            let serial = shard_trace(mk_sched(), faults.clone(), 1);
            for shards in [2, 8, 64] {
                let sharded = shard_trace(mk_sched(), faults.clone(), shards);
                assert_eq!(serial.events, sharded.events, "shards = {shards}");
                assert_eq!(serial.round_stats, sharded.round_stats, "shards = {shards}");
            }
        }
    }

    // -- dynamic geometry ---------------------------------------------------

    use crate::timeline::GraphTimeline;

    #[test]
    fn single_epoch_timeline_is_byte_identical_to_static() {
        // The identity refactor, pinned at the engine level: the same
        // contention-heavy faulted execution with and without a
        // single-epoch timeline must produce identical events and stats.
        let topo = crate::topology::random_geometric(crate::topology::RggParams {
            n: 50,
            side: 3.0,
            r: 2.0,
            grey_reliable_p: 0.1,
            grey_unreliable_p: 0.8,
            seed: 31,
        });
        let graph = Arc::new(topo.graph);
        let faults = FaultPlan::none()
            .with_crash(NodeId(2), 3, Some(7))
            .with_jam(vec![NodeId(5), NodeId(11)], 2, 6)
            .with_drop_burst(1, 9, 0.4);
        let run = |timeline: bool| {
            let procs = (0..50)
                .map(|v| Beacon::new(v as u32, vec![1 + v as u64 % 4, 5, 6 + v as u64 % 3]))
                .collect();
            let mut config = Configuration::new(
                Arc::clone(&graph),
                Box::new(crate::scheduler::BernoulliEdges::new(0.5, 7)) as Box<dyn LinkScheduler>,
            )
            .with_recording(crate::trace::RecordingPolicy::full())
            .with_faults(faults.clone());
            if timeline {
                config = config.with_timeline(GraphTimeline::single(Arc::clone(&graph)));
            }
            let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 23);
            engine.run(10);
            engine.into_trace()
        };
        let static_trace = run(false);
        let timeline_trace = run(true);
        assert_eq!(static_trace.events, timeline_trace.events);
        assert_eq!(static_trace.round_stats, timeline_trace.round_stats);
    }

    #[test]
    fn engine_swaps_graphs_at_epoch_boundaries() {
        // Epoch 1 (rounds 1-2): 0-1 connected. Epoch 2 (rounds 3+):
        // 0-2 connected instead. Node 0 transmits every round; who
        // hears it tracks the epoch schedule exactly.
        let a = Arc::new(DualGraph::reliable_only(3, [(0, 1)]).unwrap());
        let b = Arc::new(DualGraph::reliable_only(3, [(0, 2)]).unwrap());
        let timeline =
            GraphTimeline::new([(1, Arc::clone(&a)), (3, Arc::clone(&b))]).unwrap();
        let procs = vec![
            Beacon::new(7, vec![1, 2, 3, 4]),
            Beacon::new(8, vec![]),
            Beacon::new(9, vec![]),
        ];
        let config = Configuration::new(a, Box::new(NoExtraEdges))
            .with_recording(crate::trace::RecordingPolicy::full())
            .with_timeline(timeline);
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 1);
        assert_eq!(engine.epoch(), 0);
        engine.run(4);
        assert_eq!(engine.epoch(), 1);
        let recvs: Vec<(u64, NodeId)> = engine
            .trace()
            .receptions()
            .map(|(t, v, _, _)| (t, v))
            .collect();
        assert_eq!(
            recvs,
            vec![
                (1, NodeId(1)),
                (2, NodeId(1)),
                (3, NodeId(2)),
                (4, NodeId(2)),
            ]
        );
    }

    #[test]
    fn epoch_switches_are_counted_in_telemetry() {
        let a = Arc::new(DualGraph::reliable_only(2, [(0, 1)]).unwrap());
        let timeline = GraphTimeline::new([
            (1, Arc::clone(&a)),
            (3, Arc::clone(&a)),
            (5, Arc::clone(&a)),
        ])
        .unwrap();
        let procs = vec![Beacon::new(1, vec![1]), Beacon::new(2, vec![])];
        let config = Configuration::new(a, Box::new(NoExtraEdges))
            .with_timeline(timeline)
            .with_telemetry(true);
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 1);
        engine.run(6);
        assert_eq!(engine.telemetry().unwrap().epoch_switches, 2);
    }

    // -- engine telemetry ---------------------------------------------------

    /// One contention-heavy faulted trace, with or without telemetry,
    /// at the given shard count; returns the trace and the metrics.
    fn telemetry_trace(
        enabled: bool,
        shards: usize,
    ) -> (Trace<(), u32, u32>, Option<telemetry::EngineMetrics>) {
        let topo = crate::topology::random_geometric(crate::topology::RggParams {
            n: 40,
            side: 2.5,
            r: 2.0,
            grey_reliable_p: 0.1,
            grey_unreliable_p: 0.8,
            seed: 21,
        });
        let faults = FaultPlan::none()
            .with_crash(NodeId(3), 2, Some(6))
            .with_jam(vec![NodeId(0), NodeId(7)], 3, 5)
            .with_drop_burst(1, 8, 0.4);
        let procs = (0..40)
            .map(|v| Beacon::new(v as u32, vec![1 + v as u64 % 4, 5, 6 + v as u64 % 3]))
            .collect();
        let config = Configuration::new(
            topo.graph,
            Box::new(crate::scheduler::BernoulliEdges::new(0.5, 7)) as Box<dyn LinkScheduler>,
        )
        .with_recording(crate::trace::RecordingPolicy::full())
        .with_faults(faults)
        .with_shards(shards)
        .with_telemetry(enabled);
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 17);
        engine.run(10);
        let telem = engine.take_telemetry();
        (engine.into_trace(), telem)
    }

    #[test]
    fn telemetry_leaves_traces_byte_identical() {
        let (plain, none) = telemetry_trace(false, 1);
        assert!(none.is_none());
        for shards in [1, 4] {
            let (instrumented, telem) = telemetry_trace(true, shards);
            assert_eq!(plain.events, instrumented.events, "shards = {shards}");
            assert_eq!(plain.round_stats, instrumented.round_stats, "shards = {shards}");
            assert!(telem.is_some());
        }
    }

    #[test]
    fn telemetry_counters_match_trace_stats() {
        for shards in [1, 3] {
            let (trace, telem) = telemetry_trace(true, shards);
            let telem = telem.unwrap();
            let totals = trace.total_stats();
            assert_eq!(telem.rounds, trace.rounds);
            assert_eq!(telem.transmissions, totals.transmitters as u64);
            assert_eq!(telem.deliveries, totals.deliveries as u64);
            assert_eq!(telem.collisions, totals.collisions as u64);
            assert_eq!(telem.silent, totals.silent as u64);
            assert_eq!(telem.jammed, totals.jammed as u64);
            assert_eq!(telem.dropped, totals.dropped as u64);
            assert_eq!(telem.down_node_rounds, totals.down as u64);
            // Counters are deterministic across shard counts; timings
            // are wall-clock and need only be present.
            assert_eq!(telem.round_ns.count(), trace.rounds);
            assert!(telem.busy_ns() > 0);
            assert_eq!(telem.shard_busy_ns.len(), shards);
        }
    }

    #[test]
    fn telemetry_attached_mid_run_counts_the_rounds_after() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let procs = vec![Beacon::new(1, vec![1, 2, 3, 4]), Beacon::new(2, vec![])];
        let mut engine = Engine::new(
            Configuration::new(g, Box::new(NoExtraEdges)),
            procs,
            Box::new(NullEnvironment),
            1,
        );
        engine.run(2);
        assert!(engine.telemetry().is_none());
        engine.set_telemetry(true);
        engine.run(3);
        let telem = engine.take_telemetry().expect("attached");
        assert_eq!(telem.rounds, 3);
        assert_eq!(telem.transmissions, 2, "rounds 3 and 4");
        assert_eq!(telem.deliveries, 2);
        assert!(engine.telemetry().is_none(), "taking detaches");
    }

    #[test]
    fn telemetry_counts_without_stats_recording() {
        // Telemetry counters must not depend on the trace's recording
        // policy carrying channel stats.
        let g = DualGraph::reliable_only(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let procs = vec![
            Beacon::new(1, vec![1]),
            Beacon::new(2, vec![]),
            Beacon::new(3, vec![1]),
            Beacon::new(4, vec![]),
        ];
        let config = Configuration::new(g, Box::new(NoExtraEdges)).with_telemetry(true);
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 1);
        engine.step();
        assert!(engine.trace().round_stats.is_empty(), "stats recording stays off");
        let telem = engine.telemetry().unwrap();
        assert_eq!(telem.transmissions, 2);
        assert_eq!(telem.deliveries, 1);
        assert_eq!(telem.collisions, 1);
        assert_eq!(telem.shard_busy_ns.len(), 1);
    }

    #[test]
    fn with_shards_clamps_to_serial() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let config = Configuration::new(g, Box::new(NoExtraEdges)).with_shards(0);
        assert_eq!(config.shards, 1);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn configuration_rejects_out_of_range_fault() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let _ = Configuration::new(g, Box::new(NoExtraEdges))
            .with_faults(FaultPlan::none().with_crash(NodeId(5), 1, None));
    }
}
