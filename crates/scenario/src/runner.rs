//! Compiling a [`Scenario`] into `radio-sim` executions and aggregating
//! trial outcomes.
//!
//! The [`ScenarioRunner`] owns a validated scenario and its built
//! topology, which live runners of an equal static topology spec share.
//! Each trial is a pure function of the trial's master seed
//! (`base_seed.wrapping_add(trial_index)` — wrapping, so seeds near
//! `u64::MAX` are legal), so trials fan out across cores through
//! [`analysis::runner::run_trials`] with results identical to a
//! sequential run, and any single trial can be re-executed later — the
//! serialized trace from [`ScenarioRunner::trial_trace_json`] is
//! byte-identical across replays.

use crate::spec::{
    AdversarySpec, Scenario, ScenarioError, StopSpec, TopologySpec, TransportSpec, WorkloadSpec,
};
use analysis::runner::run_trials;
use analysis::stats::Summary;
use analysis::table::{fnum, Table};
use baselines::{decay_process, uniform_process, FixedScheduleProcess};
use local_broadcast::alg::LbProcess;
use local_broadcast::config::LbConfig;
use local_broadcast::msg::{LbInput, LbOutput, Payload};
use local_broadcast::service::QueueWorkload;
use local_broadcast::spec as lb_spec;
use net::{LinkSet, MockNetConfig, MockNetTransport, PartitionWindow};
use radio_sim::channel::Channel;
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::{Environment, NullEnvironment, ScriptedEnvironment};
use radio_sim::fault::FaultPlan;
use radio_sim::graph::{DualGraph, NodeId};
use radio_sim::process::Process;
use radio_sim::geometry::Embedding;
use radio_sim::scheduler;
use radio_sim::timeline::GraphTimeline;
use radio_sim::topology::{self, RggParams, Topology};
use radio_sim::trace::{EventKind, RecordingPolicy, RoundStats, Trace};
use seed_agreement::alg::SeedProcess;
use seed_agreement::{spec as seed_spec, SeedConfig};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Rounds per "phase" for the fixed-schedule baselines, which have no
/// intrinsic phase structure (`StopSpec::Phases` multiplies this).
const BASELINE_PHASE_ROUNDS: u64 = 128;

/// Natural horizon for baseline workloads under `StopSpec::Complete`.
const BASELINE_COMPLETE_ROUNDS: u64 = 1024;

/// What a trial execution should additionally capture, beyond the
/// [`TrialOutcome`] every run measures. Both probes observe only —
/// outcomes and trace bytes are identical whichever combination is on.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    /// Record the full per-event trace and return it as JSON.
    trace: bool,
    /// Attach an engine telemetry sink and return its metrics.
    telemetry: bool,
}

impl Probe {
    const NONE: Probe = Probe { trace: false, telemetry: false };
    const TRACE: Probe = Probe { trace: true, telemetry: false };
    const TELEMETRY: Probe = Probe { trace: false, telemetry: true };
}

/// Everything one probed trial execution produced.
type TrialCapture = (
    TrialOutcome,
    Option<String>,
    Option<telemetry::EngineMetrics>,
);

/// What driving one trial's engine to its stop condition left behind:
/// the trace, whether the stop goal was met, and the engine metrics
/// when telemetry was requested.
type Execution<P> = (
    Trace<<P as Process>::Input, <P as Process>::Output, <P as Process>::Msg>,
    bool,
    Option<telemetry::EngineMetrics>,
);

/// What one trial measured.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// The trial's master seed.
    pub master_seed: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Acknowledgment outputs (broadcast workloads).
    pub acks: usize,
    /// Delivery outputs: `recv`s for broadcast workloads, `decide`s for
    /// seed agreement, messages learned for the MAC flood.
    pub recvs: usize,
    /// Channel totals summed over all rounds.
    pub totals: RoundStats,
    /// Round of the first acknowledgment output, when one occurred (the
    /// per-trial ack-latency measurement; `None` for ack-free workloads
    /// such as seed agreement).
    pub first_ack: Option<u64>,
    /// Round of the watched delivery (`FirstDeliveryAt` stop) or of the
    /// first delivery/completion otherwise, when one occurred.
    pub first_delivery: Option<u64>,
    /// Whether the stop condition's goal was met (always true for plain
    /// round/phase budgets).
    pub stop_satisfied: bool,
    /// Max distinct seed owners per `G'`-neighborhood (seed agreement
    /// workloads only).
    pub max_owners: Option<usize>,
    /// Whether the workload's deterministic spec conditions held on the
    /// trace (well-formedness/consistency/fidelity for seed agreement;
    /// timely-ack/validity for `LBAlg`). Faults may legitimately break
    /// them — that is the point of measuring.
    pub spec_ok: bool,
    /// Delivery outputs at nodes inside some jam window, when the
    /// compiled fault plan jams anything (`None` otherwise) — the
    /// per-region delivery-inequality measurement for jamming studies.
    pub jammed_recvs: Option<usize>,
    /// Delivery outputs at nodes no jam window ever touches (the
    /// complement of [`TrialOutcome::jammed_recvs`]).
    pub clear_recvs: Option<usize>,
}

/// All trial outcomes of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Per-trial outcomes, ordered by trial index.
    pub outcomes: Vec<TrialOutcome>,
}

impl ScenarioReport {
    /// Renders the report as experiment-style stats tables.
    pub fn tables(&self) -> Vec<Table> {
        let s = &self.scenario;
        let mut head = Table::new(
            s.name.clone(),
            format!(
                "scenario: {} workload / {} adversary on {:?} nodes",
                s.workload.name(),
                s.adversary.name(),
                s.topology.node_count(),
            ),
            if s.description.is_empty() {
                "—".to_string()
            } else {
                s.description.clone()
            },
            vec!["quantity", "value"],
        );
        head.push_row(vec!["trials".into(), self.outcomes.len().to_string()]);
        head.push_row(vec![
            "stop goal met".into(),
            format!(
                "{}/{}",
                self.outcomes.iter().filter(|o| o.stop_satisfied).count(),
                self.outcomes.len()
            ),
        ]);
        head.push_row(vec![
            "deterministic spec held".into(),
            format!(
                "{}/{}",
                self.outcomes.iter().filter(|o| o.spec_ok).count(),
                self.outcomes.len()
            ),
        ]);
        head.push_row(vec![
            "first delivery observed".into(),
            format!(
                "{}/{}",
                self.outcomes
                    .iter()
                    .filter(|o| o.first_delivery.is_some())
                    .count(),
                self.outcomes.len()
            ),
        ]);

        let mut stats = Table::new(
            format!("{}-stats", s.name),
            "per-trial statistics",
            "mean/min/median/p95/p99/max over trials",
            vec!["metric", "mean", "min", "median", "p95", "p99", "max"],
        );
        // A metric with no observations (e.g. zero acks under a
        // total jamming plan) renders as an em-dash row instead of
        // being dropped — the table shape stays fixed and the empty
        // sample never reaches `Summary::of`.
        let mut metric = |name: &str, values: Vec<f64>| {
            let row = match Summary::try_of(&values) {
                Some(sum) => vec![
                    name.into(),
                    fnum(sum.mean),
                    fnum(sum.min),
                    fnum(sum.median),
                    fnum(sum.p95),
                    fnum(sum.p99),
                    fnum(sum.max),
                ],
                None => {
                    let mut row = vec![name.to_string()];
                    row.resize(7, "—".into());
                    row
                }
            };
            stats.push_row(row);
        };
        let of = |f: &dyn Fn(&TrialOutcome) -> f64| -> Vec<f64> {
            self.outcomes.iter().map(f).collect()
        };
        metric("rounds", of(&|o| o.rounds as f64));
        metric("acks", of(&|o| o.acks as f64));
        metric("deliveries (outputs)", of(&|o| o.recvs as f64));
        metric("transmissions", of(&|o| o.totals.transmitters as f64));
        metric("channel deliveries", of(&|o| o.totals.deliveries as f64));
        metric("collisions", of(&|o| o.totals.collisions as f64));
        metric("silent listens", of(&|o| o.totals.silent as f64));
        metric("jammed listens", of(&|o| o.totals.jammed as f64));
        metric("dropped receptions", of(&|o| o.totals.dropped as f64));
        metric("down node-rounds", of(&|o| o.totals.down as f64));
        metric(
            "first ack round",
            self.outcomes
                .iter()
                .filter_map(|o| o.first_ack.map(|r| r as f64))
                .collect(),
        );
        metric(
            "first delivery round",
            self.outcomes
                .iter()
                .filter_map(|o| o.first_delivery.map(|r| r as f64))
                .collect(),
        );
        metric(
            "max owners / neighborhood",
            self.outcomes
                .iter()
                .filter_map(|o| o.max_owners.map(|m| m as f64))
                .collect(),
        );
        // Delivery-inequality rows appear only for jamming scenarios,
        // so jam-free reports keep their exact pre-mobility shape.
        if self.outcomes.iter().any(|o| o.jammed_recvs.is_some()) {
            metric(
                "deliveries @ jammed nodes",
                self.outcomes
                    .iter()
                    .filter_map(|o| o.jammed_recvs.map(|v| v as f64))
                    .collect(),
            );
            metric(
                "deliveries @ clear nodes",
                self.outcomes
                    .iter()
                    .filter_map(|o| o.clear_recvs.map(|v| v as f64))
                    .collect(),
            );
        }
        vec![head, stats]
    }
}

/// The dynamic-geometry state a mobility scenario compiles to: the
/// epoch timeline every trial engine shares, each epoch's embedding
/// (disc fault regions resolve against these, per epoch), and what each
/// rebuild cost.
struct MobilityState {
    timeline: GraphTimeline,
    embeddings: Vec<Arc<Embedding>>,
    /// Wall-clock nanoseconds per epoch rebuild (index = epoch; entry 0
    /// is the static deployment build).
    rebuild_ns: Vec<u64>,
}

/// The static topologies of live runners, keyed by their specs' `Debug`
/// text. The memo holds only `Weak` references: runners alive at the
/// same time with equal specs share one build, and a graph is freed with
/// its last runner, so a later runner of that spec builds it again.
static LIVE_TOPOLOGIES: Mutex<BTreeMap<String, Weak<Topology>>> = Mutex::new(BTreeMap::new());

/// The built topology of a validated `spec`, shared with every live
/// runner of an equal spec. The build runs outside the memo's lock.
fn shared_topology(spec: &TopologySpec) -> Arc<Topology> {
    // Validation leaves every float finite, and `Debug` prints each in
    // its shortest round-trip form, so two specs print alike exactly when
    // their variants and field bit patterns agree (`-0.0` is not `0.0`).
    let key = format!("{spec:?}");
    // Every update leaves the map valid, so a poisoned lock's map is too.
    let live = || {
        LIVE_TOPOLOGIES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    };
    let hit = live().get(&key).and_then(Weak::upgrade);
    if let Some(topo) = hit {
        return topo;
    }
    let built = Arc::new(spec.build());
    let mut live = live();
    live.retain(|_, topo| topo.strong_count() > 0);
    // A concurrent build of the same spec may have landed first: share it.
    if let Some(first) = live.get(&key).and_then(Weak::upgrade) {
        return first;
    }
    live.insert(key, Arc::downgrade(&built));
    built
}

/// Executes a validated scenario.
pub struct ScenarioRunner {
    scenario: Scenario,
    /// Shared with every live runner of an equal static topology spec
    /// (see [`shared_topology`]); a mobility runner's own epoch 0.
    topo: Arc<Topology>,
    /// The built dual graph, shared across all trial engines via `Arc`
    /// (one adjacency build per scenario, not per trial).
    graph: Arc<DualGraph>,
    faults: FaultPlan,
    /// Dynamic geometry (`None` for static scenarios). Built once per
    /// scenario: motion draws only from the dedicated mobility stream
    /// of the *topology* seed, so every trial shares one timeline.
    mobility: Option<MobilityState>,
}

impl ScenarioRunner {
    /// Validates the scenario, builds its topology (or shares the build
    /// of a live runner with an equal static topology spec), and
    /// resolves fault regions (per epoch, for mobility scenarios).
    ///
    /// # Errors
    ///
    /// Returns the first validation failure (see [`Scenario::validate`]).
    pub fn new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let (topo, mobility) = match Self::build_mobility(&scenario)? {
            Some((topo, m)) => (Arc::new(topo), Some(m)),
            None => (shared_topology(&scenario.topology), None),
        };
        let epochs: Vec<(u64, &Embedding)> = match &mobility {
            Some(m) => m
                .embeddings
                .iter()
                .enumerate()
                .map(|(e, emb)| (m.timeline.epoch_start(e), &**emb))
                .collect(),
            None => vec![(1, &topo.embedding)],
        };
        let faults = scenario.faults.resolve(&epochs)?;
        // An O(1) clone: the runner, its topology and every trial engine
        // share one adjacency build.
        let graph = Arc::new(topo.graph.clone());
        Ok(ScenarioRunner {
            scenario,
            topo,
            graph,
            faults,
            mobility,
        })
    }

    /// Builds the epoch timeline for a mobility scenario, with the
    /// deployment it starts from (`None` when the scenario is static).
    /// Epoch 0 is built exactly as `TopologySpec::build` would build the
    /// deployment, so the deployment shares epoch 0's graph instead of
    /// being built a second time.
    fn build_mobility(
        scenario: &Scenario,
    ) -> Result<Option<(Topology, MobilityState)>, ScenarioError> {
        let Some(m) = &scenario.mobility else {
            return Ok(None);
        };
        let horizon = scenario
            .stop
            .horizon_rounds()
            .expect("validation requires an explicit horizon for mobility");
        let params = match scenario.topology {
            TopologySpec::RandomGeometric {
                n,
                side,
                r,
                grey_reliable_p,
                grey_unreliable_p,
                seed,
            } => RggParams {
                n,
                side,
                r,
                grey_reliable_p,
                grey_unreliable_p,
                seed,
            },
            // Mirrors `topology::constant_density`, so epoch 0 equals the
            // static deployment byte-for-byte.
            TopologySpec::ConstantDensity { n, density, r, seed } => RggParams {
                n,
                side: topology::constant_density_side(n, density),
                r,
                grey_reliable_p: 0.0,
                grey_unreliable_p: 1.0,
                seed,
            },
            _ => unreachable!("validation restricts mobility to the arena families"),
        };
        let epochs = topology::random_geometric_timeline(
            params,
            m.speed,
            m.epoch_rounds,
            m.epochs_for(horizon) as usize,
        )
        .map_err(|e| ScenarioError::Invalid(format!("mobility: {e}")))?;
        let timeline = GraphTimeline::new(
            epochs
                .iter()
                .map(|e| (e.start_round, Arc::clone(&e.graph))),
        )
        .map_err(|e| ScenarioError::Invalid(format!("mobility: {e}")))?;
        let deployment = Topology {
            graph: DualGraph::clone(&epochs[0].graph),
            embedding: Embedding::clone(&epochs[0].embedding),
            r: params.r,
        };
        Ok(Some((
            deployment,
            MobilityState {
                timeline,
                embeddings: epochs.iter().map(|e| Arc::clone(&e.embedding)).collect(),
                rebuild_ns: epochs.iter().map(|e| e.build_ns).collect(),
            },
        )))
    }

    // Always 1: only `perfbench/src/traced.rs` calls it; nothing in the workspace does.
    #[doc(hidden)]
    pub fn shard_count(&self) -> usize {
        1
    }

    /// The scenario being executed.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The built topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The compiled fault plan (per-epoch jam windows for multi-epoch
    /// mobility scenarios).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The epoch timeline, for mobility scenarios.
    pub fn timeline(&self) -> Option<&GraphTimeline> {
        self.mobility.as_ref().map(|m| &m.timeline)
    }

    /// Wall-clock nanoseconds each epoch rebuild cost (entry 0 is the
    /// static deployment build; speed-0 epochs share snapshots and cost
    /// 0). `None` for static scenarios. Wall-clock, hence noisy — never
    /// part of golden metrics.
    pub fn rebuild_ns(&self) -> Option<&[u64]> {
        self.mobility.as_ref().map(|m| m.rebuild_ns.as_slice())
    }

    /// The degree bound Δ processes are configured with: the maximum
    /// over all epochs for mobility scenarios (processes see one
    /// constant bound, exactly like the engine).
    fn delta(&self) -> usize {
        match &self.mobility {
            Some(m) => m.timeline.delta(),
            None => self.graph.delta(),
        }
    }

    /// The degree bound Δ' (maximum over all epochs).
    fn delta_prime(&self) -> usize {
        match &self.mobility {
            Some(m) => m.timeline.delta_prime(),
            None => self.graph.delta_prime(),
        }
    }

    /// Runs all trials (in parallel across cores; output order and
    /// content are independent of thread count).
    pub fn run(&self) -> ScenarioReport {
        let outcomes = run_trials(self.scenario.trials, self.scenario.base_seed, |seed| {
            self.run_seeded(seed, Probe::NONE).0
        });
        ScenarioReport {
            scenario: self.scenario.clone(),
            outcomes,
        }
    }

    /// Like [`ScenarioRunner::run`], but also returns trial 0's trace
    /// JSON from the same execution (no re-simulation; the bytes equal
    /// [`ScenarioRunner::trial_trace_json`]`(0)`).
    pub fn run_with_trial0_trace(&self) -> (ScenarioReport, String) {
        let base = self.scenario.base_seed;
        let results = run_trials(self.scenario.trials, base, |seed| {
            let probe = if seed == base { Probe::TRACE } else { Probe::NONE };
            let (outcome, trace, _) = self.run_seeded(seed, probe);
            (outcome, trace)
        });
        let mut trace = None;
        let outcomes = results
            .into_iter()
            .map(|(o, t)| {
                if let Some(t) = t {
                    trace = Some(t);
                }
                o
            })
            .collect();
        (
            ScenarioReport {
                scenario: self.scenario.clone(),
                outcomes,
            },
            trace.expect("trial 0 always runs"),
        )
    }

    /// Runs the single trial with index `trial` (master seed
    /// `base_seed.wrapping_add(trial)`, matching the parallel path).
    pub fn run_trial(&self, trial: usize) -> TrialOutcome {
        self.run_seeded(self.scenario.base_seed.wrapping_add(trial as u64), Probe::NONE)
            .0
    }

    /// Runs trial `trial` with engine telemetry attached, returning the
    /// outcome plus the engine's metrics (present for every workload and
    /// transport). The outcome is identical to
    /// [`ScenarioRunner::run_trial`] — telemetry observes, it never
    /// feeds back.
    pub fn run_trial_instrumented(
        &self,
        trial: usize,
    ) -> (TrialOutcome, Option<telemetry::EngineMetrics>) {
        let (outcome, _, metrics) = self.run_seeded(
            self.scenario.base_seed.wrapping_add(trial as u64),
            Probe::TELEMETRY,
        );
        (outcome, metrics)
    }

    /// Runs trial `trial` and returns its full execution trace as JSON.
    /// Identical `(scenario, trial)` pairs produce byte-identical JSON —
    /// the determinism contract replay tests assert.
    pub fn trial_trace_json(&self, trial: usize) -> String {
        self.run_seeded(self.scenario.base_seed.wrapping_add(trial as u64), Probe::TRACE)
            .1
            .expect("trace requested")
    }

    /// The recording policy a trial actually needs: metric trials keep
    /// aggregate channel stats only (inputs and outputs are always
    /// recorded, which is all the spec predicates and summary metrics
    /// read); the full per-event trace — every transmit marker and
    /// cloned message — is recorded only when the caller asked for the
    /// trace JSON.
    fn recording_for(want_trace: bool) -> RecordingPolicy {
        if want_trace {
            RecordingPolicy::full()
        } else {
            RecordingPolicy::stats_only()
        }
    }

    fn configuration(&self, master_seed: u64, probe: Probe) -> Configuration {
        self.base_configuration(master_seed, Self::recording_for(probe.trace))
            .with_telemetry(probe.telemetry)
    }

    /// Runs one trial on the engine, over the channel the scenario's
    /// transport calls for — the simulator's, or the mock network's,
    /// whose static link set comes from the adversary (`AllExtraEdges` →
    /// all of `G'`, `NoExtraEdges` → `G`; validation rejects everything
    /// else) — to the stop condition (see [`ScenarioRunner::drive`]).
    fn execute<P: Process>(
        &self,
        procs: Vec<P>,
        env: Box<dyn Environment<P::Input, P::Output>>,
        master_seed: u64,
        probe: Probe,
        horizon: u64,
        is_delivery: impl Fn(&P::Output) -> bool,
    ) -> Execution<P> {
        let config = self.configuration(master_seed, probe);
        match &self.scenario.transport {
            TransportSpec::Sim => self.drive(
                Engine::new(config, procs, env, master_seed),
                horizon,
                is_delivery,
            ),
            TransportSpec::MockNet {
                delay_rounds,
                loss_p,
                partitions,
            } => {
                let links = match self.scenario.adversary {
                    AdversarySpec::NoExtraEdges => LinkSet::Reliable,
                    _ => LinkSet::All,
                };
                let net_config = MockNetConfig {
                    links,
                    delay_rounds: *delay_rounds,
                    loss_p: *loss_p,
                    partitions: partitions
                        .iter()
                        .map(|w| PartitionWindow {
                            nodes: w.nodes.clone(),
                            from: w.from,
                            to: w.to,
                        })
                        .collect(),
                };
                let transport =
                    MockNetTransport::new(Arc::clone(&self.graph), net_config, master_seed);
                self.drive(
                    Engine::with_channel(config, transport, procs, env, master_seed),
                    horizon,
                    is_delivery,
                )
            }
        }
    }

    fn base_configuration(&self, master_seed: u64, recording: RecordingPolicy) -> Configuration {
        // All trials share one `Arc`d graph; only the scheduler and
        // fault plan are per-trial values.
        let config = match self.scenario.adversary.build_oblivious(master_seed) {
            Some(sched) => Configuration::new(Arc::clone(&self.graph), sched),
            None => Configuration::new(
                Arc::clone(&self.graph),
                Box::new(scheduler::NoExtraEdges),
            )
            .with_adaptive(
                self.scenario
                    .adversary
                    .build_adaptive()
                    .expect("non-oblivious spec is adaptive"),
            ),
        };
        let config = config
            .with_r(self.topo.r)
            .with_recording(recording)
            .with_faults(self.faults.clone());
        match &self.mobility {
            Some(m) => config.with_timeline(m.timeline.clone()),
            None => config,
        }
    }

    /// Horizon in rounds for a workload whose phase is `phase_len` and
    /// whose natural completion horizon is `complete`.
    fn horizon(&self, phase_len: u64, complete: u64) -> u64 {
        match self.scenario.stop {
            StopSpec::Rounds { rounds } => rounds,
            StopSpec::Phases { phases } => phases.saturating_mul(phase_len),
            StopSpec::Complete => complete,
            StopSpec::FirstDeliveryAt { horizon_rounds, .. } => horizon_rounds,
        }
    }

    fn run_seeded(&self, master_seed: u64, probe: Probe) -> TrialCapture {
        match &self.scenario.workload {
            WorkloadSpec::SeedAgreement {
                epsilon1,
                seed_bits,
            } => self.run_seed_agreement(*epsilon1, *seed_bits, master_seed, probe),
            WorkloadSpec::LocalBroadcast {
                epsilon1,
                senders,
                messages_per_sender,
            } => self.run_local_broadcast(
                *epsilon1,
                senders,
                *messages_per_sender,
                master_seed,
                probe,
            ),
            WorkloadSpec::Decay { senders } => {
                self.run_baseline(None, senders, master_seed, probe)
            }
            WorkloadSpec::Uniform { p, senders } => {
                self.run_baseline(Some(*p), senders, master_seed, probe)
            }
            WorkloadSpec::AmacFlood { epsilon1, sources } => {
                self.run_amac_flood(*epsilon1, sources, master_seed, probe)
            }
        }
    }

    fn run_seed_agreement(
        &self,
        epsilon1: f64,
        seed_bits: usize,
        master_seed: u64,
        probe: Probe,
    ) -> TrialCapture {
        let cfg = SeedConfig::practical(epsilon1, seed_bits);
        let delta = self.delta();
        let horizon = self.horizon(cfg.phase_len(), cfg.total_rounds(delta));
        let n = self.graph.len();
        let procs: Vec<SeedProcess> = (0..n).map(|_| SeedProcess::new(cfg.clone())).collect();
        let (trace, stop_satisfied, metrics) = self.execute(
            procs,
            Box::new(NullEnvironment),
            master_seed,
            probe,
            horizon,
            |_decide| true,
        );
        let spec_ok = seed_spec::check_well_formedness(&trace).is_ok()
            && seed_spec::check_consistency(&trace).is_ok()
            && seed_spec::check_owner_seed_fidelity(&trace).is_ok();
        let max_owners = seed_spec::owners_per_neighborhood(&trace, &self.graph)
            .ok()
            .and_then(|per| per.into_iter().max());
        let (jammed_recvs, clear_recvs) = self.region_recvs(&trace, |_| true);
        let outcome = TrialOutcome {
            master_seed,
            rounds: trace.rounds,
            acks: 0,
            recvs: trace.outputs().count(),
            totals: trace.total_stats(),
            first_ack: None,
            first_delivery: self.watched_delivery(&trace, |_| true),
            stop_satisfied,
            max_owners,
            spec_ok,
            jammed_recvs,
            clear_recvs,
        };
        let json = probe
            .trace
            .then(|| serde_json::to_string(&trace).expect("trace serializes"));
        (outcome, json, metrics)
    }

    fn run_local_broadcast(
        &self,
        epsilon1: f64,
        senders: &[usize],
        messages_per_sender: u64,
        master_seed: u64,
        probe: Probe,
    ) -> TrialCapture {
        let cfg = LbConfig::practical(epsilon1);
        let params = cfg.resolve(self.topo.r, self.delta(), self.delta_prime());
        let horizon = self.horizon(
            params.phase_len(),
            (params.t_ack_rounds() + params.phase_len())
                .saturating_mul(messages_per_sender.max(1)),
        );
        let n = self.graph.len();
        let mut queues = vec![VecDeque::new(); n];
        for &s in senders {
            for tag in 0..messages_per_sender {
                queues[s].push_back(Payload::new(s as u64, tag));
            }
        }
        let env = QueueWorkload::new(queues, 1);
        let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
        let (trace, stop_satisfied, metrics) = self.execute(
            procs,
            Box::new(env),
            master_seed,
            probe,
            horizon,
            |o: &LbOutput| !o.is_ack(),
        );
        let spec_ok = lb_spec::check_timely_ack(&trace, params.t_ack_rounds()).is_ok()
            && lb_spec::check_validity(&trace, &self.graph).is_ok();
        let (jammed_recvs, clear_recvs) = self.region_recvs(&trace, |o: &LbOutput| !o.is_ack());
        let outcome = TrialOutcome {
            master_seed,
            rounds: trace.rounds,
            acks: trace.outputs().filter(|(_, _, o)| o.is_ack()).count(),
            recvs: trace.outputs().filter(|(_, _, o)| !o.is_ack()).count(),
            totals: trace.total_stats(),
            first_ack: trace
                .outputs()
                .find(|(_, _, o)| o.is_ack())
                .map(|(r, _, _)| r),
            first_delivery: self.watched_delivery(&trace, |o: &LbOutput| !o.is_ack()),
            stop_satisfied,
            max_owners: None,
            spec_ok,
            jammed_recvs,
            clear_recvs,
        };
        let json = probe
            .trace
            .then(|| serde_json::to_string(&trace).expect("trace serializes"));
        (outcome, json, metrics)
    }

    fn run_baseline(
        &self,
        uniform_p: Option<f64>,
        senders: &[usize],
        master_seed: u64,
        probe: Probe,
    ) -> TrialCapture {
        let horizon = self.horizon(BASELINE_PHASE_ROUNDS, BASELINE_COMPLETE_ROUNDS);
        let n = self.graph.len();
        let mk = || -> FixedScheduleProcess {
            match uniform_p {
                Some(p) => uniform_process(p, Some(horizon.saturating_mul(2))),
                None => decay_process(Some(horizon.saturating_mul(2))),
            }
        };
        let procs: Vec<FixedScheduleProcess> = (0..n).map(|_| mk()).collect();
        let script: Vec<(u64, NodeId, LbInput)> = senders
            .iter()
            .map(|&v| (1, NodeId(v), LbInput::Bcast(Payload::new(v as u64, 0))))
            .collect();
        let (trace, stop_satisfied, metrics) = self.execute(
            procs,
            Box::new(ScriptedEnvironment::new(script)),
            master_seed,
            probe,
            horizon,
            |o: &LbOutput| !o.is_ack(),
        );
        let (jammed_recvs, clear_recvs) = self.region_recvs(&trace, |o: &LbOutput| !o.is_ack());
        let outcome = TrialOutcome {
            master_seed,
            rounds: trace.rounds,
            acks: trace.outputs().filter(|(_, _, o)| o.is_ack()).count(),
            recvs: trace.outputs().filter(|(_, _, o)| !o.is_ack()).count(),
            totals: trace.total_stats(),
            first_ack: trace
                .outputs()
                .find(|(_, _, o)| o.is_ack())
                .map(|(r, _, _)| r),
            first_delivery: self.watched_delivery(&trace, |o: &LbOutput| !o.is_ack()),
            stop_satisfied,
            max_owners: None,
            jammed_recvs,
            clear_recvs,
            spec_ok: true,
        };
        let json = probe
            .trace
            .then(|| serde_json::to_string(&trace).expect("trace serializes"));
        (outcome, json, metrics)
    }

    fn run_amac_flood(
        &self,
        epsilon1: f64,
        sources: &[usize],
        master_seed: u64,
        probe: Probe,
    ) -> TrialCapture {
        let cfg = LbConfig::with_constants(epsilon1, 1.0, 2.0, 1.0);
        let sched = self
            .scenario
            .adversary
            .build_oblivious(master_seed)
            .expect("validation rejects adaptive adversaries for amac flood");
        let mut mac = amac::adapter::LbMac::new(&self.topo, sched, cfg, master_seed);
        mac.set_telemetry(probe.telemetry);
        let f_ack = mac.params().t_ack_rounds();
        let n = self.graph.len();
        let horizon = self.horizon(f_ack, f_ack.saturating_mul(n as u64 + 4).saturating_mul(2));
        let source_nodes: Vec<NodeId> = sources.iter().map(|&v| NodeId(v)).collect();
        let out = amac::apps::flood_broadcast(&mut mac, &source_nodes, 1, horizon);
        let complete = out.complete(source_nodes.len());
        let known: usize = out.known.iter().map(|k| k.len()).sum();
        let trace = mac.trace();
        let outcome = TrialOutcome {
            master_seed,
            rounds: trace.rounds,
            acks: trace.outputs().filter(|(_, _, o)| o.is_ack()).count(),
            recvs: known,
            totals: trace.total_stats(),
            first_ack: trace
                .outputs()
                .find(|(_, _, o)| o.is_ack())
                .map(|(r, _, _)| r),
            first_delivery: out.completed_at,
            stop_satisfied: complete,
            max_owners: None,
            spec_ok: true,
            // The MAC flood rejects fault plans, so there is never a
            // jammed region to split deliveries over.
            jammed_recvs: None,
            clear_recvs: None,
        };
        let json = probe
            .trace
            .then(|| serde_json::to_string(trace).expect("trace serializes"));
        (outcome, json, mac.take_telemetry())
    }

    /// Runs the engine to the stop condition: plain budgets run
    /// `horizon` rounds; `FirstDeliveryAt` stops early when an
    /// `is_delivery`-filtered output appears at the watched node.
    fn drive<P: Process, C: Channel<P::Msg>>(
        &self,
        mut engine: Engine<P, C>,
        horizon: u64,
        is_delivery: impl Fn(&P::Output) -> bool,
    ) -> Execution<P> {
        let stop_satisfied = match self.scenario.stop {
            StopSpec::FirstDeliveryAt { node, .. } => {
                let watch = NodeId(node);
                // Under full recording the event list grows every round;
                // only scan events appended since the last check so the
                // run stays linear in the trace size.
                let mut seen = 0usize;
                engine.run_until(horizon, move |t| {
                    let hit = t.events[seen..].iter().any(|e| {
                        e.node == watch
                            && matches!(&e.kind, EventKind::Output(o) if is_delivery(o))
                    });
                    seen = t.events.len();
                    hit
                })
            }
            _ => {
                engine.run(horizon);
                true
            }
        };
        let metrics = engine.take_telemetry();
        (engine.into_trace(), stop_satisfied, metrics)
    }

    /// Delivery outputs split by whether the output's node sits inside
    /// the union of compiled jam windows — `(jammed, clear)`, or
    /// `(None, None)` when the plan jams nothing (keeping jam-free
    /// reports exactly as they were).
    fn region_recvs<I, O, M>(
        &self,
        trace: &Trace<I, O, M>,
        is_delivery: impl Fn(&O) -> bool,
    ) -> (Option<usize>, Option<usize>) {
        if self.faults.jams.is_empty() {
            return (None, None);
        }
        let mut in_region = vec![false; self.graph.len()];
        for j in &self.faults.jams {
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

    /// The round of the delivery the stop condition watches (or the
    /// first matching output anywhere, for plain budgets).
    fn watched_delivery<I, O, M>(
        &self,
        trace: &Trace<I, O, M>,
        is_delivery: impl Fn(&O) -> bool,
    ) -> Option<u64> {
        match self.scenario.stop {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AdversarySpec, ScenarioBuilder, TopologySpec};

    fn small_lb(name: &str) -> ScenarioBuilder {
        ScenarioBuilder::new(
            name,
            TopologySpec::Clique { n: 4, r: 1.0 },
            WorkloadSpec::LocalBroadcast {
                epsilon1: 0.25,
                senders: vec![0],
                messages_per_sender: 1,
            },
        )
        .trials(2)
        .base_seed(11)
    }

    #[test]
    fn lb_scenario_runs_and_reports() {
        let runner = ScenarioRunner::new(small_lb("t").build().unwrap()).unwrap();
        let report = runner.run();
        assert_eq!(report.outcomes.len(), 2);
        for o in &report.outcomes {
            assert!(o.acks >= 1, "single broadcast acks within Complete horizon");
            assert!(o.spec_ok);
        }
        let tables = report.tables();
        assert_eq!(tables.len(), 2);
        assert!(!tables[1].rows.is_empty());
    }

    #[test]
    fn the_topology_memo_holds_only_weak_references() {
        // A spec no other test builds, so no runner elsewhere holds it.
        let mut s = small_lb("memo").build().unwrap();
        s.topology = TopologySpec::RandomGeometric {
            n: 13,
            side: 2.9,
            r: 1.7,
            grey_reliable_p: 0.0,
            grey_unreliable_p: 0.55,
            seed: 4242,
        };
        let a = ScenarioRunner::new(s.clone()).unwrap();
        let b = ScenarioRunner::new(s.clone()).unwrap();
        assert!(
            Arc::ptr_eq(&a.topo, &b.topo),
            "live runners built one spec twice"
        );
        // Keys compare floats by bit pattern: -0.0 == 0.0, yet not shared.
        let mut signed = s.clone();
        if let TopologySpec::RandomGeometric {
            grey_reliable_p, ..
        } = &mut signed.topology
        {
            *grey_reliable_p = -0.0;
        }
        assert_eq!(signed.topology, s.topology);
        let c = ScenarioRunner::new(signed).unwrap();
        assert!(!Arc::ptr_eq(&a.topo, &c.topo));
        let weak = Arc::downgrade(&a.topo);
        drop((a, b));
        assert!(
            weak.upgrade().is_none(),
            "the memo kept a dropped graph alive"
        );
        assert_eq!(Arc::strong_count(&ScenarioRunner::new(s).unwrap().topo), 1);
    }

    #[test]
    fn parallel_run_matches_sequential_trials() {
        let runner = ScenarioRunner::new(
            small_lb("t").trials(4).build().unwrap(),
        )
        .unwrap();
        let report = runner.run();
        for (i, o) in report.outcomes.iter().enumerate() {
            let solo = runner.run_trial(i);
            assert_eq!(o.rounds, solo.rounds);
            assert_eq!(o.acks, solo.acks);
            assert_eq!(o.recvs, solo.recvs);
            assert_eq!(o.totals, solo.totals);
        }
    }

    #[test]
    fn run_with_trace_matches_replay() {
        let runner = ScenarioRunner::new(
            small_lb("t").drop_burst(5, 30, 0.5).build().unwrap(),
        )
        .unwrap();
        let (report, trace) = runner.run_with_trial0_trace();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(trace, runner.trial_trace_json(0));
    }

    #[test]
    fn base_seed_near_u64_max_wraps_consistently() {
        // Regression: seed derivation used `base_seed + trial`, which
        // overflowed (panicking in debug) for large --seed values. The
        // parallel, sequential, and replay paths must all wrap.
        let runner = ScenarioRunner::new(
            small_lb("wrap").trials(3).base_seed(u64::MAX).build().unwrap(),
        )
        .unwrap();
        let report = runner.run();
        assert_eq!(
            report.outcomes.iter().map(|o| o.master_seed).collect::<Vec<_>>(),
            vec![u64::MAX, 0, 1],
        );
        for (i, o) in report.outcomes.iter().enumerate() {
            let solo = runner.run_trial(i);
            assert_eq!(o.master_seed, solo.master_seed);
            assert_eq!(o.totals, solo.totals);
        }
        assert!(!runner.trial_trace_json(2).is_empty());
    }

    #[test]
    fn fully_jammed_scenario_reports_dash_rows() {
        // Regression: a scenario that yields zero acks/deliveries used to
        // feed empty samples toward `Summary::of`; the stats table now
        // renders such metrics as `—` rows instead.
        let s = small_lb("silent")
            .jam_nodes(vec![0, 1, 2, 3], 1, 30)
            .stop(StopSpec::Rounds { rounds: 30 })
            .build()
            .unwrap();
        let report = ScenarioRunner::new(s).unwrap().run();
        assert!(report.outcomes.iter().all(|o| o.acks == 0 && o.recvs == 0));
        let tables = report.tables();
        let stats = &tables[1];
        let row = |name: &str| {
            stats
                .rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("missing {name} row"))
                .clone()
        };
        assert_eq!(row("first ack round")[1], "—");
        assert_eq!(row("first delivery round")[1], "—");
        // Count metrics are present with real zeros, not dashes.
        assert_eq!(row("acks")[1], "0");
    }

    #[test]
    fn seed_scenario_measures_owners() {
        let s = ScenarioBuilder::new(
            "seed",
            TopologySpec::Clique { n: 6, r: 1.0 },
            WorkloadSpec::SeedAgreement {
                epsilon1: 0.25,
                seed_bits: 16,
            },
        )
        .trials(2)
        .build()
        .unwrap();
        let report = ScenarioRunner::new(s).unwrap().run();
        for o in &report.outcomes {
            assert!(o.spec_ok);
            assert!(o.max_owners.is_some());
            assert!(o.recvs > 0, "decides are delivered");
        }
    }

    #[test]
    fn first_delivery_stop_censors_at_horizon() {
        // No extra edges and no reliable edges to node 2 of a sandwich
        // would be complex; instead watch a node that *does* get served
        // and check the round is recorded.
        let s = small_lb("t")
            .stop(StopSpec::FirstDeliveryAt {
                node: 1,
                horizon_rounds: 4096,
            })
            .build()
            .unwrap();
        let o = ScenarioRunner::new(s).unwrap().run_trial(0);
        assert!(o.stop_satisfied);
        assert_eq!(o.first_delivery.map(|r| r == o.rounds), Some(true));
    }

    #[test]
    fn faulted_scenario_records_fault_stats() {
        let s = small_lb("faulty")
            .adversary(AdversarySpec::AllExtraEdges)
            .crash(3, 1, None)
            .jam_nodes(vec![2], 1, 20)
            .drop_burst(1, 20, 1.0)
            .stop(StopSpec::Rounds { rounds: 20 })
            .build()
            .unwrap();
        let o = ScenarioRunner::new(s).unwrap().run_trial(0);
        assert_eq!(o.totals.down, 20);
        assert!(o.totals.jammed > 0);
        assert_eq!(
            o.totals.deliveries, 0,
            "p = 1 drop burst suppresses every delivery"
        );
    }

    #[test]
    fn sender_churn_across_phase_structure_never_panics() {
        // Regression: a sender crashed over the seed-agreement preamble
        // used to panic the trial three ways — recovering mid-preamble
        // (`SeedAlg decides within T_s rounds`), crashing from round 1
        // (no preamble instance), and a crash window spanning both the
        // phase boundary and the adoption round (stale partially
        // consumed phase seed reaching the exhaustion assert). Sweep
        // grids put such windows everywhere, so every alignment of a
        // crash window against the phase structure must degrade into
        // measurable behavior instead of aborting the campaign.
        for (down_from, up_at) in [
            (1, Some(100)),
            (50, Some(200)),
            (70, Some(140)),
            (130, Some(260)),
            (100, Some(400)),
            (40, None),
        ] {
            let s = ScenarioBuilder::new(
                "sender-churn",
                TopologySpec::Clique { n: 4, r: 1.0 },
                WorkloadSpec::LocalBroadcast {
                    epsilon1: 0.25,
                    senders: vec![0],
                    messages_per_sender: 1,
                },
            )
            .crash(0, down_from, up_at)
            .stop(StopSpec::Rounds { rounds: 600 })
            .trials(2)
            .build()
            .unwrap();
            let report = ScenarioRunner::new(s).unwrap().run();
            for o in &report.outcomes {
                assert_eq!(o.rounds, 600, "window [{down_from}, {up_at:?}]");
            }
        }
    }

    #[test]
    fn instrumented_trial_matches_plain_and_reports_metrics() {
        // Telemetry observes only: the instrumented outcome equals the
        // plain one field-for-field, the trace replay is untouched, and
        // the returned metrics describe the same execution.
        let runner = ScenarioRunner::new(
            small_lb("probe")
                .drop_burst(5, 30, 0.5)
                .stop(StopSpec::Rounds { rounds: 60 })
                .build()
                .unwrap(),
        )
        .unwrap();
        let plain = runner.run_trial(0);
        let trace = runner.trial_trace_json(0);
        let (instrumented, metrics) = runner.run_trial_instrumented(0);
        assert_eq!(plain.rounds, instrumented.rounds);
        assert_eq!(plain.acks, instrumented.acks);
        assert_eq!(plain.recvs, instrumented.recvs);
        assert_eq!(plain.totals, instrumented.totals);
        assert_eq!(plain.first_ack, instrumented.first_ack);
        assert_eq!(trace, runner.trial_trace_json(0));
        let m = metrics.expect("engine workload exposes metrics");
        assert_eq!(m.rounds, plain.rounds);
        assert_eq!(m.round_ns.count(), m.rounds);
        assert_eq!(m.transmissions, plain.totals.transmitters as u64);
        assert_eq!(m.deliveries, plain.totals.deliveries as u64);
        assert!(m.busy_ns() > 0);
    }

    /// The engine metrics of an instrumented trial describe the same
    /// execution as its outcome: every channel counter equals the trace
    /// total it mirrors.
    fn assert_metrics_match_totals(
        outcome: &TrialOutcome,
        metrics: Option<telemetry::EngineMetrics>,
    ) {
        let m = metrics.expect("every substrate exposes engine metrics");
        let t = &outcome.totals;
        assert_eq!(m.rounds, outcome.rounds);
        assert_eq!(m.round_ns.count(), m.rounds);
        assert_eq!(m.transmissions, t.transmitters as u64);
        assert_eq!(m.deliveries, t.deliveries as u64);
        assert_eq!(m.collisions, t.collisions as u64);
        assert_eq!(m.silent, t.silent as u64);
        assert_eq!(m.jammed, t.jammed as u64);
        assert_eq!(m.dropped, t.dropped as u64);
        assert_eq!(m.down_node_rounds, t.down as u64);
        assert!(t.transmitters > 0, "the trial did real work");
    }

    #[test]
    fn amac_instrumented_trial_reports_engine_metrics() {
        let runner = ScenarioRunner::new(crate::registry::find("e11").unwrap()).unwrap();
        let (outcome, metrics) = runner.run_trial_instrumented(0);
        assert_eq!(outcome, runner.run_trial(0));
        assert_metrics_match_totals(&outcome, metrics);
    }

    #[test]
    fn mock_net_instrumented_trial_reports_engine_metrics() {
        let runner = ScenarioRunner::new(
            small_lb("mock-probe")
                .drop_burst(5, 20, 0.25)
                .transport(TransportSpec::MockNet {
                    delay_rounds: 1,
                    loss_p: 0.1,
                    partitions: vec![],
                })
                .stop(StopSpec::Rounds { rounds: 60 })
                .build()
                .unwrap(),
        )
        .unwrap();
        let (outcome, metrics) = runner.run_trial_instrumented(0);
        assert_eq!(outcome, runner.run_trial(0));
        assert_metrics_match_totals(&outcome, metrics);
    }

    #[test]
    fn amac_flood_scenario_completes() {
        let s = ScenarioBuilder::new(
            "flood",
            TopologySpec::Line {
                n: 3,
                spacing: 0.9,
                r: 1.0,
            },
            WorkloadSpec::AmacFlood {
                epsilon1: 0.25,
                sources: vec![0],
            },
        )
        .adversary(AdversarySpec::Bernoulli { p: 0.5 })
        .trials(2)
        .base_seed(60_000)
        .build()
        .unwrap();
        let report = ScenarioRunner::new(s).unwrap().run();
        assert!(
            report.outcomes.iter().any(|o| o.stop_satisfied),
            "flood completes in at least one trial"
        );
    }

    #[test]
    fn mock_net_scenario_runs_and_reports() {
        // The transport field swaps the substrate without touching the
        // workload: an LB broadcast over the mock network still acks, and
        // faults (a drop burst here) compose with the channel model.
        let s = small_lb("mock")
            .drop_burst(5, 20, 0.25)
            .transport(TransportSpec::MockNet {
                delay_rounds: 1,
                loss_p: 0.1,
                partitions: vec![],
            })
            .build()
            .unwrap();
        let report = ScenarioRunner::new(s).unwrap().run();
        assert_eq!(report.outcomes.len(), 2);
        assert!(
            report.outcomes.iter().all(|o| o.acks >= 1),
            "LB acks deterministically even over a delayed, lossy channel"
        );
    }

    #[test]
    fn mock_net_trials_replay_deterministically() {
        let s = small_lb("mock-replay")
            .transport(TransportSpec::MockNet {
                delay_rounds: 2,
                loss_p: 0.3,
                partitions: vec![],
            })
            .stop(StopSpec::Rounds { rounds: 60 })
            .trials(3)
            .build()
            .unwrap();
        let runner = ScenarioRunner::new(s).unwrap();
        let report = runner.run();
        for (i, o) in report.outcomes.iter().enumerate() {
            let solo = runner.run_trial(i);
            assert_eq!(o.totals, solo.totals);
            assert_eq!(o.acks, solo.acks);
            assert_eq!(o.first_ack, solo.first_ack);
        }
        assert_eq!(runner.trial_trace_json(0), runner.trial_trace_json(0));
    }

    #[test]
    fn synchronous_mock_net_matches_the_simulator() {
        // The keystone at the scenario layer: delay 0 / no loss / no
        // partitions over the full link set is the `G' = Gₜ` channel, so
        // outcomes and traces byte-compare equal across substrates.
        let build = |t: TransportSpec| {
            small_lb("xport")
                .adversary(AdversarySpec::AllExtraEdges)
                .transport(t)
                .stop(StopSpec::Rounds { rounds: 40 })
                .build()
                .unwrap()
        };
        let sim = ScenarioRunner::new(build(TransportSpec::Sim)).unwrap();
        let mock =
            ScenarioRunner::new(build(TransportSpec::mock_net_synchronous())).unwrap();
        let a = sim.run();
        let b = mock.run();
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.master_seed, y.master_seed);
            assert_eq!(x.rounds, y.rounds);
            assert_eq!(x.acks, y.acks);
            assert_eq!(x.recvs, y.recvs);
            assert_eq!(x.totals, y.totals);
            assert_eq!(x.first_ack, y.first_ack);
            assert_eq!(x.first_delivery, y.first_delivery);
        }
        assert_eq!(
            sim.trial_trace_json(0),
            mock.trial_trace_json(0),
            "trial-0 replay traces must be byte-identical across substrates"
        );
    }

    #[test]
    fn mock_net_rejects_per_round_adversaries() {
        let err = small_lb("bad")
            .adversary(AdversarySpec::Bernoulli { p: 0.5 })
            .transport(TransportSpec::mock_net_synchronous())
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("static link set"),
            "got: {err}"
        );
    }
}
