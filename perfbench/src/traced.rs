//! The traced run: benchmark-side wrappers around the layers' public
//! traits, and a trial executor and search loop rebuilt from public
//! APIs so the wrappers can be slotted in.
//!
//! Spans are taken at the calls into each layer, from outside the
//! library: `Engine::new` / `Cluster::new`, the round loop, the spec
//! checkers, `ScenarioRunner::new`, and the strategy's propose/observe.
//! Per-call layers (process callbacks, link-scheduler selection, the
//! mock-net transport) are too frequent for one span each; their
//! wrappers accumulate busy time and call counts inside the enclosing
//! round-loop span instead, which is what self time subtracts. Process
//! callbacks are timed on a sample of calls and counted on all of them.
//!
//! Every traced trial must reproduce `ScenarioRunner::run_trial`'s
//! outcome exactly, and the traced search must reproduce `run_search`'s
//! archive byte for byte; the caller checks both.

use crate::workloads::{JobSet, WORKERS};
use amac::apps::flood_broadcast;
use amac::LbMac;
use analysis::runner::run_jobs_observed;
use baselines::{decay_process, uniform_process, FixedScheduleProcess};
use local_broadcast::msg::{LbInput, LbOutput, Payload};
use local_broadcast::service::QueueWorkload;
use local_broadcast::spec as lb_spec;
use local_broadcast::{LbConfig, LbProcess};
use net::{Cluster, ClusterConfig, LinkSet, MockNetConfig, MockNetTransport, PartitionWindow};
use net::{Reception, Transport};
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::{Environment, NullEnvironment, ScriptedEnvironment};
use radio_sim::graph::{DualGraph, NodeId};
use radio_sim::process::{Action, Context, Process};
use radio_sim::resolve::resolve_receptions_serial;
use radio_sim::rng::{derive_stream, StreamKind};
use radio_sim::scheduler::{AdaptiveScheduler, EdgeSelection, LinkScheduler, NoExtraEdges};
use radio_sim::trace::{EventKind, RecordingPolicy, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scenario::prelude::*;
use seed_agreement::{spec as seed_spec, SeedConfig, SeedProcess};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process callbacks are counted on every call but timed on one call in
/// `PROC_TIMED_EVERY` (staggered over rounds and vertices, so short
/// trials are sampled too): a clock read costs about as much as the
/// callbacks it measures.
const PROC_TIMED_EVERY: u64 = 32;

fn timed_call(ctx: &Context<'_>) -> bool {
    ctx.round
        .wrapping_add(ctx.id)
        .is_multiple_of(PROC_TIMED_EVERY)
}

/// Rounds at which the wrappers capture the reception-resolution inputs
/// (every `RESOLVE_EVERY`-th round, at most `RESOLVE_SAMPLES` per trial).
const RESOLVE_EVERY: u64 = 8;
const RESOLVE_SAMPLES: u64 = 8;
/// Re-invocations of `resolve_receptions_serial` per captured round.
const RESOLVE_REPEAT: u32 = 4;

/// Mirrors of the runner's private baseline horizons (rounds per phase,
/// natural `Complete` horizon).
const BASELINE_PHASE_ROUNDS: u64 = 128;
const BASELINE_COMPLETE_ROUNDS: u64 = 1024;

fn sampled(round: u64) -> bool {
    round.is_multiple_of(RESOLVE_EVERY) && round / RESOLVE_EVERY <= RESOLVE_SAMPLES
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Layer wrappers
// ---------------------------------------------------------------------------

/// Process-callback counts, and busy time of the timed calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcStats {
    pub transmit_ns: u64,
    pub transmit_timed: u64,
    pub transmit_calls: u64,
    pub receive_ns: u64,
    pub receive_timed: u64,
    pub receive_calls: u64,
    /// Inputs, output draining and restart hooks (rare; always timed).
    pub other_ns: u64,
    pub other_calls: u64,
}

impl ProcStats {
    pub fn add(&mut self, o: &ProcStats) {
        self.transmit_ns += o.transmit_ns;
        self.transmit_timed += o.transmit_timed;
        self.transmit_calls += o.transmit_calls;
        self.receive_ns += o.receive_ns;
        self.receive_timed += o.receive_timed;
        self.receive_calls += o.receive_calls;
        self.other_ns += o.other_ns;
        self.other_calls += o.other_calls;
    }

    pub fn calls(&self) -> u64 {
        self.transmit_calls + self.receive_calls + self.other_calls
    }

    /// Mean ns per transmit, receive and other call, less the cost of
    /// the clock reads around them (`clock_ns`).
    pub fn per_call(&self, clock_ns: f64) -> (f64, f64, f64) {
        let mean = |ns: u64, n: u64| {
            if n == 0 {
                0.0
            } else {
                (ns as f64 / n as f64 - clock_ns).max(0.0)
            }
        };
        (
            mean(self.transmit_ns, self.transmit_timed),
            mean(self.receive_ns, self.receive_timed),
            mean(self.other_ns, self.other_calls),
        )
    }

    /// Estimated busy time of every call, timed or not.
    pub fn est_ns(&self, clock_ns: f64) -> f64 {
        let (tx, rx, other) = self.per_call(clock_ns);
        tx * self.transmit_calls as f64
            + rx * self.receive_calls as f64
            + other * self.other_calls as f64
    }
}

/// Mean cost of the clock reads that bracket a timed call.
pub fn clock_ns() -> f64 {
    const READS: u64 = 100_000;
    let mut total = 0u64;
    for _ in 0..READS {
        let t = Instant::now();
        total += ns(std::hint::black_box(t));
    }
    total as f64 / READS as f64
}

/// A `Process` that times every callback of the process it wraps and
/// remembers on which sampled rounds it transmitted.
pub struct TimedProcess<P> {
    inner: P,
    stats: ProcStats,
    sampled_tx: Vec<u64>,
}

impl<P> TimedProcess<P> {
    fn new(inner: P) -> Self {
        TimedProcess {
            inner,
            stats: ProcStats::default(),
            sampled_tx: Vec::new(),
        }
    }
}

impl<P: Process> Process for TimedProcess<P> {
    type Msg = P::Msg;
    type Input = P::Input;
    type Output = P::Output;

    fn on_input(&mut self, input: P::Input, ctx: &mut Context<'_>) {
        let t = Instant::now();
        self.inner.on_input(input, ctx);
        self.stats.other_ns += ns(t);
        self.stats.other_calls += 1;
    }

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<P::Msg> {
        self.stats.transmit_calls += 1;
        let a = if timed_call(ctx) {
            let t = Instant::now();
            let a = self.inner.transmit(ctx);
            self.stats.transmit_ns += ns(t);
            self.stats.transmit_timed += 1;
            a
        } else {
            self.inner.transmit(ctx)
        };
        if sampled(ctx.round) && matches!(a, Action::Transmit(_)) {
            self.sampled_tx.push(ctx.round);
        }
        a
    }

    fn on_receive(&mut self, msg: Option<P::Msg>, ctx: &mut Context<'_>) {
        self.stats.receive_calls += 1;
        if timed_call(ctx) {
            let t = Instant::now();
            self.inner.on_receive(msg, ctx);
            self.stats.receive_ns += ns(t);
            self.stats.receive_timed += 1;
        } else {
            self.inner.on_receive(msg, ctx);
        }
    }

    fn take_outputs(&mut self) -> Vec<P::Output> {
        let t = Instant::now();
        let out = self.inner.take_outputs();
        self.stats.other_ns += ns(t);
        self.stats.other_calls += 1;
        out
    }

    fn has_outputs(&self) -> bool {
        self.inner.has_outputs()
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        let t = Instant::now();
        self.inner.on_restart(ctx);
        self.stats.other_ns += ns(t);
        self.stats.other_calls += 1;
    }

    fn on_crash_restart(&mut self, ctx: &mut Context<'_>) {
        let t = Instant::now();
        self.inner.on_crash_restart(ctx);
        self.stats.other_ns += ns(t);
        self.stats.other_calls += 1;
    }
}

/// Link-scheduler busy time, calls, selected extra edges, and the
/// selections of sampled rounds (for the resolve re-invocation).
#[derive(Debug, Default)]
pub struct SchedStats {
    pub ns: u64,
    pub calls: u64,
    pub edges: u64,
    samples: Vec<(u64, EdgeSelection)>,
}

impl SchedStats {
    fn record(&mut self, round: u64, graph: &DualGraph, sel: &EdgeSelection, took: u64) {
        self.ns += took;
        self.calls += 1;
        self.edges += match sel {
            EdgeSelection::All => graph.extra_edges().len(),
            EdgeSelection::None => 0,
            EdgeSelection::Subset(e) => e.len(),
        } as u64;
        if sampled(round) {
            self.samples.push((round, sel.clone()));
        }
    }
}

type SharedSched = Arc<Mutex<SchedStats>>;

struct TimedOblivious {
    inner: Box<dyn LinkScheduler>,
    stats: SharedSched,
}

impl LinkScheduler for TimedOblivious {
    fn extra_edges(&mut self, round: u64, graph: &DualGraph) -> EdgeSelection {
        let t = Instant::now();
        let sel = self.inner.extra_edges(round, graph);
        let took = ns(t);
        self.stats
            .lock()
            .expect("scheduler stats lock")
            .record(round, graph, &sel, took);
        sel
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedAdaptive {
    inner: Box<dyn AdaptiveScheduler>,
    stats: SharedSched,
}

impl AdaptiveScheduler for TimedAdaptive {
    fn extra_edges(
        &mut self,
        round: u64,
        graph: &DualGraph,
        transmitting: &[bool],
    ) -> EdgeSelection {
        let t = Instant::now();
        let sel = self.inner.extra_edges(round, graph, transmitting);
        let took = ns(t);
        self.stats
            .lock()
            .expect("scheduler stats lock")
            .record(round, graph, &sel, took);
        sel
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Transport busy time and traffic counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetStats {
    pub ns: u64,
    pub calls: u64,
    /// Listeners handed exactly one message.
    pub delivered: u64,
    /// Copies the channel dropped at send time (loss coins).
    pub lost: u64,
    /// Time the wrapper spent counting, taken back out of the round-loop
    /// and trial spans.
    pub counting_ns: u64,
}

/// A `Transport` that times the mock network it wraps. Lost copies are
/// counted by replaying the network's loss coins (same stream, same
/// (sender, neighbor) order), outside the timed call; the counting time
/// is recorded so the enclosing spans can exclude it.
pub struct TimedTransport<T> {
    inner: T,
    graph: Arc<DualGraph>,
    links: LinkSet,
    loss_p: f64,
    seed: u64,
    stats: NetStats,
}

impl<M: Clone + Send, T: Transport<M>> Transport<M> for TimedTransport<T> {
    fn resolve_round(
        &mut self,
        round: u64,
        actions: &[Action<M>],
        receptions: &mut Vec<Reception<M>>,
    ) {
        let t = Instant::now();
        self.inner.resolve_round(round, actions, receptions);
        self.stats.ns += ns(t);
        self.stats.calls += 1;
        let counting = Instant::now();
        self.stats.delivered += receptions
            .iter()
            .zip(actions)
            .filter(|(r, a)| matches!(a, Action::Receive) && matches!(r, Reception::Message { .. }))
            .count() as u64;
        if self.loss_p > 0.0 {
            let mut rng = derive_stream(self.seed, StreamKind::Transport, round);
            for (v, a) in actions.iter().enumerate() {
                if !matches!(a, Action::Transmit(_)) {
                    continue;
                }
                let fanout = match self.links {
                    LinkSet::Reliable => self.graph.reliable_neighbors(NodeId(v)).len(),
                    LinkSet::All => self.graph.all_neighbors(NodeId(v)).len(),
                };
                for _ in 0..fanout {
                    if rng.gen_bool(self.loss_p) {
                        self.stats.lost += 1;
                    }
                }
            }
        }
        self.stats.counting_ns += ns(counting);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

// ---------------------------------------------------------------------------
// Traced trial executor
// ---------------------------------------------------------------------------

/// Everything one traced trial measured, in nanoseconds and counts.
#[derive(Debug, Default, Clone)]
pub struct TrialRecord {
    /// Runner index within its job set, trial index.
    pub scenario: usize,
    pub trial: usize,
    /// Start of the trial span, relative to the traced run's epoch.
    pub start_ns: u64,
    pub trial_ns: u64,
    pub engine_new_ns: u64,
    pub engine_news: u64,
    /// The engine's round loop (`Engine::run` / `run_until`).
    pub step_ns: u64,
    pub engine_node_rounds: u64,
    /// The MAC-adapter flood (engine hidden inside `LbMac`).
    pub amac_ns: u64,
    pub net_new_ns: u64,
    /// The cluster's round loop (`Cluster::run` / `run_until`).
    pub net_step_ns: u64,
    pub net_node_rounds: u64,
    pub spec_ns: u64,
    pub node_rounds: u64,
    pub proc: ProcStats,
    pub sched_ns: u64,
    pub sched_calls: u64,
    pub sched_edges: u64,
    pub net: NetStats,
    /// Re-invoked resolution: total ns and rounds timed.
    pub resolve_ns: u64,
    pub resolve_rounds: u64,
}

/// A compiled job set plus one shared graph per runner (the runner's own
/// `Arc` is private; sharing a copy keeps per-trial cloning out of the
/// measured spans).
pub struct TracedSet {
    pub set: JobSet,
    graphs: Vec<Arc<DualGraph>>,
}

impl TracedSet {
    pub fn new(set: JobSet) -> Self {
        let graphs = set
            .runners
            .iter()
            .map(|r| Arc::new(r.topology().graph.clone()))
            .collect();
        TracedSet { set, graphs }
    }
}

/// A cluster of wrapped processes over the wrapped mock network.
type NetCluster<P> =
    Cluster<TimedProcess<P>, TimedTransport<MockNetTransport<<P as Process>::Msg>>>;

enum Exec<P: Process> {
    Sim(Box<Engine<TimedProcess<P>>>),
    Net(Box<NetCluster<P>>),
}

impl<P: Process> Exec<P> {
    fn trace(&self) -> &Trace<P::Input, P::Output, P::Msg> {
        match self {
            Exec::Sim(e) => e.trace(),
            Exec::Net(c) => c.trace(),
        }
    }

    fn processes(&self) -> Box<dyn Iterator<Item = &TimedProcess<P>> + '_> {
        match self {
            Exec::Sim(e) => Box::new(e.processes().iter()),
            Exec::Net(c) => Box::new(c.processes()),
        }
    }

    fn run(&mut self, rounds: u64) {
        match self {
            Exec::Sim(e) => e.run(rounds),
            Exec::Net(c) => c.run(rounds),
        }
    }

    fn run_until(
        &mut self,
        max_rounds: u64,
        pred: impl FnMut(&Trace<P::Input, P::Output, P::Msg>) -> bool,
    ) -> bool {
        match self {
            Exec::Sim(e) => e.run_until(max_rounds, pred),
            Exec::Net(c) => c.run_until(max_rounds, pred),
        }
    }
}

/// One traced trial of one runner: the library's trial, rebuilt from
/// public APIs with every layer wrapped.
struct Trial<'a> {
    runner: &'a ScenarioRunner,
    graph: &'a Arc<DualGraph>,
    master_seed: u64,
    sched: SharedSched,
    rec: TrialRecord,
    /// `(round, vertex)` of every transmission on a sampled round.
    tx_by_round: Vec<(u64, usize)>,
    /// Whether the trial ran on the engine (resolution is re-invoked
    /// only for engine trials; the mock net never calls it).
    on_engine: bool,
}

impl<'a> Trial<'a> {
    fn scenario(&self) -> &Scenario {
        self.runner.scenario()
    }

    fn delta(&self) -> usize {
        match self.runner.timeline() {
            Some(t) => t.delta(),
            None => self.graph.delta(),
        }
    }

    fn delta_prime(&self) -> usize {
        match self.runner.timeline() {
            Some(t) => t.delta_prime(),
            None => self.graph.delta_prime(),
        }
    }

    fn horizon(&self, phase_len: u64, complete: u64) -> u64 {
        match self.scenario().stop {
            StopSpec::Rounds { rounds } => rounds,
            StopSpec::Phases { phases } => phases.saturating_mul(phase_len),
            StopSpec::Complete => complete,
            StopSpec::FirstDeliveryAt { horizon_rounds, .. } => horizon_rounds,
        }
    }

    fn scheduler_config(&self) -> Configuration {
        let s = self.scenario();
        let stats = Arc::clone(&self.sched);
        let config = match s.adversary.build_oblivious(self.master_seed) {
            Some(inner) => Configuration::new(
                Arc::clone(self.graph),
                Box::new(TimedOblivious { inner, stats }),
            ),
            None => Configuration::new(Arc::clone(self.graph), Box::new(NoExtraEdges))
                .with_adaptive(Box::new(TimedAdaptive {
                    inner: s
                        .adversary
                        .build_adaptive()
                        .expect("non-oblivious spec is adaptive"),
                    stats,
                })),
        };
        let config = config
            .with_r(self.runner.topology().r)
            .with_recording(RecordingPolicy::stats_only())
            .with_faults(self.runner.fault_plan().clone())
            .with_shards(self.runner.shard_count());
        match self.runner.timeline() {
            Some(t) => config.with_timeline(t.clone()),
            None => config,
        }
    }

    fn executor<P: Process>(
        &mut self,
        procs: Vec<P>,
        env: Box<dyn Environment<P::Input, P::Output>>,
    ) -> Exec<P> {
        let procs: Vec<TimedProcess<P>> = procs.into_iter().map(TimedProcess::new).collect();
        match &self.scenario().transport {
            TransportSpec::Sim => {
                let config = self.scheduler_config();
                let t = Instant::now();
                let engine = Engine::new(config, procs, env, self.master_seed);
                self.rec.engine_new_ns += ns(t);
                self.rec.engine_news += 1;
                Exec::Sim(Box::new(engine))
            }
            TransportSpec::MockNet {
                delay_rounds,
                loss_p,
                partitions,
            } => {
                assert!(
                    partitions.is_empty(),
                    "the traced transport counts loss only on partition-free networks"
                );
                let links = match self.scenario().adversary {
                    AdversarySpec::NoExtraEdges => LinkSet::Reliable,
                    _ => LinkSet::All,
                };
                let t = Instant::now();
                let inner = MockNetTransport::new(
                    Arc::clone(self.graph),
                    MockNetConfig {
                        links,
                        delay_rounds: *delay_rounds,
                        loss_p: *loss_p,
                        partitions: Vec::<PartitionWindow>::new(),
                    },
                    self.master_seed,
                );
                let transport = TimedTransport {
                    inner,
                    graph: Arc::clone(self.graph),
                    links,
                    loss_p: *loss_p,
                    seed: self.master_seed,
                    stats: NetStats::default(),
                };
                let config = ClusterConfig::new(Arc::clone(self.graph))
                    .with_r(self.runner.topology().r)
                    .with_recording(RecordingPolicy::stats_only())
                    .with_faults(self.runner.fault_plan().clone());
                let cluster = Cluster::new(config, transport, procs, env, self.master_seed);
                self.rec.net_new_ns += ns(t);
                Exec::Net(Box::new(cluster))
            }
        }
    }

    /// Runs the executor to the stop condition, timing the round loop.
    fn drive<P: Process>(
        &mut self,
        exec: &mut Exec<P>,
        horizon: u64,
        is_delivery: impl Fn(&P::Output) -> bool,
    ) -> bool {
        let t = Instant::now();
        let met = match self.scenario().stop {
            StopSpec::FirstDeliveryAt { node, .. } => {
                let watch = NodeId(node);
                let mut seen = 0usize;
                exec.run_until(horizon, move |t| {
                    let hit = t.events[seen..].iter().any(|e| {
                        e.node == watch && matches!(&e.kind, EventKind::Output(o) if is_delivery(o))
                    });
                    seen = t.events.len();
                    hit
                })
            }
            _ => {
                exec.run(horizon);
                true
            }
        };
        let took = ns(t);
        let node_rounds = exec.trace().rounds * self.graph.len() as u64;
        match exec {
            Exec::Sim(_) => {
                self.rec.step_ns += took;
                self.rec.engine_node_rounds += node_rounds;
            }
            Exec::Net(c) => {
                self.rec.net_step_ns += took.saturating_sub(c.transport().stats.counting_ns);
                self.rec.net_node_rounds += node_rounds;
                self.rec.net = c.transport().stats;
            }
        }
        met
    }

    /// Collects the process wrappers' counts and sampled transmissions.
    fn finish<P: Process>(&mut self, exec: &Exec<P>) {
        for (v, p) in exec.processes().enumerate() {
            self.rec.proc.add(&p.stats);
            self.tx_by_round
                .extend(p.sampled_tx.iter().map(|&r| (r, v)));
        }
        self.on_engine = matches!(exec, Exec::Sim(_));
    }

    /// Re-invokes `resolve_receptions_serial` on the scheduler's and the
    /// processes' captured inputs of sampled rounds.
    fn replay_resolve(&mut self) {
        let samples = std::mem::take(&mut self.sched.lock().expect("scheduler stats lock").samples);
        if !self.on_engine {
            return;
        }
        let tx_by_round = std::mem::take(&mut self.tx_by_round);
        let n = self.graph.len();
        let mut transmitting = vec![false; n];
        let mut tx_neighbors = vec![0u32; n];
        let mut last_sender = vec![NodeId(0); n];
        for (round, sel) in &samples {
            let graph: &DualGraph = match self.runner.timeline() {
                Some(tl) => {
                    let e = (0..tl.num_epochs())
                        .rev()
                        .find(|&e| tl.epoch_start(e) <= *round)
                        .unwrap_or(0);
                    tl.epoch_graph(e)
                }
                None => self.graph,
            };
            transmitting.fill(false);
            let mut tx_list: Vec<usize> = tx_by_round
                .iter()
                .filter(|(r, _)| r == round)
                .map(|&(_, v)| v)
                .collect();
            tx_list.sort_unstable();
            for &v in &tx_list {
                transmitting[v] = true;
            }
            let t = Instant::now();
            for _ in 0..RESOLVE_REPEAT {
                resolve_receptions_serial(
                    graph,
                    sel,
                    &transmitting,
                    &tx_list,
                    &mut tx_neighbors,
                    &mut last_sender,
                );
                std::hint::black_box(&tx_neighbors);
            }
            self.rec.resolve_ns += ns(t);
            self.rec.resolve_rounds += u64::from(RESOLVE_REPEAT);
        }
    }

    fn region_recvs<I, O, M>(
        &self,
        trace: &Trace<I, O, M>,
        is_delivery: impl Fn(&O) -> bool,
    ) -> (Option<usize>, Option<usize>) {
        let jams = &self.runner.fault_plan().jams;
        if jams.is_empty() {
            return (None, None);
        }
        let mut in_region = vec![false; self.graph.len()];
        for j in jams {
            for v in &j.nodes {
                in_region[v.0] = true;
            }
        }
        let (mut jammed, mut clear) = (0, 0);
        for (_, v, o) in trace.outputs() {
            if is_delivery(o) {
                if in_region[v.0] {
                    jammed += 1;
                } else {
                    clear += 1;
                }
            }
        }
        (Some(jammed), Some(clear))
    }

    fn watched_delivery<I, O, M>(
        &self,
        trace: &Trace<I, O, M>,
        is_delivery: impl Fn(&O) -> bool,
    ) -> Option<u64> {
        match self.scenario().stop {
            StopSpec::FirstDeliveryAt { node, .. } => trace
                .outputs()
                .find(|(_, v, o)| *v == NodeId(node) && is_delivery(o))
                .map(|(r, _, _)| r),
            _ => trace
                .outputs()
                .find(|(_, _, o)| is_delivery(o))
                .map(|(r, _, _)| r),
        }
    }

    fn lb_outcome<P>(&self, exec: &Exec<P>, stop_satisfied: bool, spec_ok: bool) -> TrialOutcome
    where
        P: Process<Output = LbOutput>,
    {
        let trace = exec.trace();
        let delivery = |o: &LbOutput| !o.is_ack();
        let (jammed_recvs, clear_recvs) = self.region_recvs(trace, delivery);
        TrialOutcome {
            master_seed: self.master_seed,
            rounds: trace.rounds,
            acks: trace.outputs().filter(|(_, _, o)| o.is_ack()).count(),
            recvs: trace.outputs().filter(|(_, _, o)| !o.is_ack()).count(),
            totals: trace.total_stats(),
            first_ack: trace
                .outputs()
                .find(|(_, _, o)| o.is_ack())
                .map(|(r, _, _)| r),
            first_delivery: self.watched_delivery(trace, delivery),
            stop_satisfied,
            max_owners: None,
            spec_ok,
            jammed_recvs,
            clear_recvs,
        }
    }

    fn seed_agreement(&mut self, epsilon1: f64, seed_bits: usize) -> TrialOutcome {
        let cfg = SeedConfig::practical(epsilon1, seed_bits);
        let horizon = self.horizon(cfg.phase_len(), cfg.total_rounds(self.delta()));
        let procs: Vec<SeedProcess> = (0..self.graph.len())
            .map(|_| SeedProcess::new(cfg.clone()))
            .collect();
        let mut exec = self.executor(procs, Box::new(NullEnvironment));
        let stop_satisfied = self.drive(&mut exec, horizon, |_| true);
        let t = Instant::now();
        let trace = exec.trace();
        let spec_ok = seed_spec::check_well_formedness(trace).is_ok()
            && seed_spec::check_consistency(trace).is_ok()
            && seed_spec::check_owner_seed_fidelity(trace).is_ok();
        let max_owners = seed_spec::owners_per_neighborhood(trace, self.graph)
            .ok()
            .and_then(|per| per.into_iter().max());
        self.rec.spec_ns += ns(t);
        let (jammed_recvs, clear_recvs) = self.region_recvs(trace, |_| true);
        let outcome = TrialOutcome {
            master_seed: self.master_seed,
            rounds: trace.rounds,
            acks: 0,
            recvs: trace.outputs().count(),
            totals: trace.total_stats(),
            first_ack: None,
            first_delivery: self.watched_delivery(trace, |_| true),
            stop_satisfied,
            max_owners,
            spec_ok,
            jammed_recvs,
            clear_recvs,
        };
        self.finish(&exec);
        outcome
    }

    fn local_broadcast(&mut self, epsilon1: f64, senders: &[usize], messages: u64) -> TrialOutcome {
        let cfg = LbConfig::practical(epsilon1);
        let params = cfg.resolve(self.runner.topology().r, self.delta(), self.delta_prime());
        let horizon = self.horizon(
            params.phase_len(),
            (params.t_ack_rounds() + params.phase_len()).saturating_mul(messages.max(1)),
        );
        let n = self.graph.len();
        let mut queues = vec![VecDeque::new(); n];
        for &s in senders {
            for tag in 0..messages {
                queues[s].push_back(Payload::new(s as u64, tag));
            }
        }
        let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
        let mut exec = self.executor(procs, Box::new(QueueWorkload::new(queues, 1)));
        let stop_satisfied = self.drive(&mut exec, horizon, |o: &LbOutput| !o.is_ack());
        let t = Instant::now();
        let spec_ok = lb_spec::check_timely_ack(exec.trace(), params.t_ack_rounds()).is_ok()
            && lb_spec::check_validity(exec.trace(), self.graph).is_ok();
        self.rec.spec_ns += ns(t);
        let outcome = self.lb_outcome(&exec, stop_satisfied, spec_ok);
        self.finish(&exec);
        outcome
    }

    fn baseline(&mut self, uniform_p: Option<f64>, senders: &[usize]) -> TrialOutcome {
        let horizon = self.horizon(BASELINE_PHASE_ROUNDS, BASELINE_COMPLETE_ROUNDS);
        let procs: Vec<FixedScheduleProcess> = (0..self.graph.len())
            .map(|_| match uniform_p {
                Some(p) => uniform_process(p, Some(horizon.saturating_mul(2))),
                None => decay_process(Some(horizon.saturating_mul(2))),
            })
            .collect();
        let script: Vec<(u64, NodeId, LbInput)> = senders
            .iter()
            .map(|&v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
            .collect();
        let mut exec = self.executor(procs, Box::new(ScriptedEnvironment::new(script)));
        let stop_satisfied = self.drive(&mut exec, horizon, |o: &LbOutput| !o.is_ack());
        let outcome = self.lb_outcome(&exec, stop_satisfied, true);
        self.finish(&exec);
        outcome
    }

    fn amac_flood(&mut self, epsilon1: f64, sources: &[usize]) -> TrialOutcome {
        let cfg = LbConfig::with_constants(epsilon1, 1.0, 2.0, 1.0);
        let inner = self
            .scenario()
            .adversary
            .build_oblivious(self.master_seed)
            .expect("validation rejects adaptive adversaries for amac flood");
        let sched = Box::new(TimedOblivious {
            inner,
            stats: Arc::clone(&self.sched),
        });
        let t = Instant::now();
        let mut mac = LbMac::new(self.runner.topology(), sched, cfg, self.master_seed);
        self.rec.engine_new_ns += ns(t);
        self.rec.engine_news += 1;
        let f_ack = mac.params().t_ack_rounds();
        let n = self.graph.len();
        let horizon = self.horizon(f_ack, f_ack.saturating_mul(n as u64 + 4).saturating_mul(2));
        let source_nodes: Vec<NodeId> = sources.iter().map(|&v| NodeId(v)).collect();
        let t = Instant::now();
        let out = flood_broadcast(&mut mac, &source_nodes, 1, horizon);
        self.rec.amac_ns += ns(t);
        let trace = mac.trace();
        let outcome = TrialOutcome {
            master_seed: self.master_seed,
            rounds: trace.rounds,
            acks: trace.outputs().filter(|(_, _, o)| o.is_ack()).count(),
            recvs: out.known.iter().map(|k| k.len()).sum(),
            totals: trace.total_stats(),
            first_ack: trace
                .outputs()
                .find(|(_, _, o)| o.is_ack())
                .map(|(r, _, _)| r),
            first_delivery: out.completed_at,
            stop_satisfied: out.complete(source_nodes.len()),
            max_owners: None,
            spec_ok: true,
            jammed_recvs: None,
            clear_recvs: None,
        };
        outcome
    }
}

/// Runs trial `trial` of runner `si` with every layer wrapped.
pub fn traced_trial(
    ts: &TracedSet,
    si: usize,
    trial: usize,
    epoch: Instant,
) -> (TrialOutcome, TrialRecord) {
    let runner = &ts.set.runners[si];
    let start = Instant::now();
    let mut t = Trial {
        runner,
        graph: &ts.graphs[si],
        master_seed: runner.scenario().base_seed.wrapping_add(trial as u64),
        sched: Arc::new(Mutex::new(SchedStats::default())),
        rec: TrialRecord {
            scenario: si,
            trial,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            ..TrialRecord::default()
        },
        tx_by_round: Vec::new(),
        on_engine: false,
    };
    let outcome = match runner.scenario().workload.clone() {
        WorkloadSpec::SeedAgreement {
            epsilon1,
            seed_bits,
        } => t.seed_agreement(epsilon1, seed_bits),
        WorkloadSpec::LocalBroadcast {
            epsilon1,
            senders,
            messages_per_sender,
        } => t.local_broadcast(epsilon1, &senders, messages_per_sender),
        WorkloadSpec::Decay { senders } => t.baseline(None, &senders),
        WorkloadSpec::Uniform { p, senders } => t.baseline(Some(p), &senders),
        WorkloadSpec::AmacFlood { epsilon1, sources } => t.amac_flood(epsilon1, &sources),
    };
    // The trial span ends before the resolve re-invocation and excludes
    // the transport wrapper's counting: both are measurement, not trial
    // work.
    t.rec.trial_ns = ns(start).saturating_sub(t.rec.net.counting_ns);
    t.replay_resolve();
    t.rec.node_rounds = outcome.rounds * t.graph.len() as u64;
    let s = t.sched.lock().expect("scheduler stats lock");
    t.rec.sched_ns = s.ns;
    t.rec.sched_calls = s.calls;
    t.rec.sched_edges = s.edges;
    drop(s);
    (outcome, t.rec)
}

/// One traced pass over a job set's pool.
pub struct TracedPass {
    pub wall_ns: u64,
    pub busy_ns: u64,
    /// Pool barriers paid (1 per job set; one per generation in search).
    pub barriers: u64,
    pub results: Vec<Option<(TrialOutcome, TrialRecord)>>,
}

/// Runs every job of `ts` once on the pool, traced.
pub fn traced_pool(ts: &TracedSet, epoch: Instant) -> TracedPass {
    let busy = AtomicU64::new(0);
    let start = Instant::now();
    let results = run_jobs_observed(
        ts.set.jobs.len(),
        Some(WORKERS),
        |j| {
            let (si, t) = ts.set.jobs[j];
            catch_unwind(AssertUnwindSafe(|| traced_trial(ts, si, t, epoch))).ok()
        },
        |obs| {
            busy.fetch_add(obs.elapsed_ns, Ordering::Relaxed);
        },
    );
    TracedPass {
        wall_ns: ns(start),
        busy_ns: busy.into_inner(),
        barriers: 1,
        results,
    }
}

// ---------------------------------------------------------------------------
// Traced search loop
// ---------------------------------------------------------------------------

/// Search-level spans of one traced search pass.
#[derive(Debug, Default)]
pub struct SearchSpans {
    /// `SearchStrategy::propose` + `observe`.
    pub propose_ns: u64,
    pub generations: u64,
    /// `ScenarioRunner::new` per candidate.
    pub runner_new_ns: u64,
    pub runner_news: u64,
}

/// `run_search`, rebuilt from `SearchStrategy::propose`/`observe` and
/// `Candidate::apply`, with each generation's candidates evaluated by
/// the traced pool instead of `Campaign::run`. Must reproduce
/// `run_search`'s archive byte for byte.
pub fn traced_search(
    spec: &SearchSpec,
    epoch: Instant,
    spans: &mut SearchSpans,
) -> Result<(SearchArchive, TracedPass), ScenarioError> {
    spec.validate()?;
    let n = spec.base.topology.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut strategy = spec.strategy.build();
    let mut entries: Vec<ArchiveEntry> = Vec::with_capacity(spec.budget);
    let mut pass = TracedPass {
        wall_ns: 0,
        busy_ns: 0,
        barriers: 0,
        results: Vec::new(),
    };
    let start = Instant::now();
    while entries.len() < spec.budget {
        let remaining = spec.budget - entries.len();
        let t = Instant::now();
        let candidates = strategy.propose(&spec.space, n, remaining, &mut rng);
        spans.propose_ns += ns(t);
        spans.generations += 1;
        let scenarios: Vec<Scenario> = candidates
            .iter()
            .enumerate()
            .map(|(j, c)| c.apply(spec, entries.len() + j))
            .collect();
        let t = Instant::now();
        let ts = TracedSet::new(JobSet::new(scenarios)?);
        spans.runner_new_ns += ns(t);
        spans.runner_news += candidates.len() as u64;
        let gen = traced_pool(&ts, epoch);
        pass.busy_ns += gen.busy_ns;
        pass.barriers += 1;
        let mut outcomes = gen.results.into_iter();
        let mut scored = Vec::with_capacity(candidates.len());
        let mut metrics = Vec::with_capacity(candidates.len());
        for (ci, c) in candidates.iter().enumerate() {
            let trials = ts.set.runners[ci].scenario().trials;
            let mut outs = Vec::with_capacity(trials);
            for r in outcomes.by_ref().take(trials) {
                let (o, rec) = r.ok_or_else(|| {
                    ScenarioError::Invalid(format!("traced search: candidate {ci} trial panicked"))
                })?;
                outs.push(o.clone());
                pass.results.push(Some((o, rec)));
            }
            let m = CandidateMetrics::of(&outs);
            scored.push((c.clone(), spec.objective.score(&m)));
            metrics.push(m);
        }
        let t = Instant::now();
        strategy.observe(&scored);
        spans.propose_ns += ns(t);
        for (candidate, m) in candidates.into_iter().zip(metrics) {
            entries.push(ArchiveEntry {
                index: entries.len(),
                score: spec.objective.score(&m),
                metrics: m,
                candidate,
            });
        }
    }
    pass.wall_ns = ns(start);
    let mut ranking: Vec<usize> = (0..entries.len()).collect();
    ranking.sort_by(|&a, &b| {
        entries[b]
            .score
            .partial_cmp(&entries[a].score)
            .expect("scores are finite")
            .then(a.cmp(&b))
    });
    let archive = SearchArchive {
        search: spec.name.clone(),
        objective: spec.objective,
        strategy: spec.strategy.name().to_string(),
        budget: spec.budget,
        seed: spec.seed,
        trials: spec.trials.unwrap_or(spec.base.trials),
        entries,
        ranking,
    };
    Ok((archive, pass))
}

/// Mean nanoseconds per `derive_stream` + `gen_bool` coin, the
/// scheduler's per-edge randomness cost.
pub fn rng_ns_per_coin(seed: u64) -> f64 {
    const STREAMS: u64 = 256;
    const COINS: u64 = 4096;
    let t = Instant::now();
    let mut heads = 0u64;
    for k in 0..STREAMS {
        let mut rng = derive_stream(seed, StreamKind::Scheduler, k);
        for _ in 0..COINS {
            heads += u64::from(rng.gen_bool(0.5));
        }
    }
    std::hint::black_box(heads);
    ns(t) as f64 / (STREAMS * COINS) as f64
}
