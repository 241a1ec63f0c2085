//! The four closed-loop workloads: set-up, one untraced pass, and the
//! pinned-seed correctness gate.
//!
//! Every workload runs from one process on a [`WORKERS`]-thread pool
//! with one reception shard per trial engine. A pass is one complete
//! unit of user work (a registry campaign, a sweep grid, a batch of
//! searches, a batch of mock-net trials); the next pass starts only
//! after the previous one has finished.

use analysis::runner::run_jobs_observed;
use radio_sim::trace::RoundStats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use scenario::prelude::*;
use scenario::search::find_preset;
use scenario::sweep::find_sweep;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Worker threads of the trial pool. One: the benchmark machine has two
/// shared cores, and a second worker measured the host's scheduler (pass
/// times spread 40% within a run) rather than the simulator.
pub const WORKERS: usize = 1;

/// Searches per `search` pass, each from its own seed. One (μ+λ)
/// trajectory's cost depends on which adversaries it converges to, so a
/// pass averages over many short searches instead of running one long one.
pub const SEARCHES: u64 = 32;

/// Candidates per search: the `lb-worst` preset's budget of 20, raised
/// to whole generations (the bootstrap batch of 8, then two of λ = 8).
pub const SEARCH_BUDGET: usize = 24;

/// Trials per candidate: one, against the preset's two. A search is the
/// smallest unit timed from outside, and the host's slow spells last
/// hundreds of milliseconds, so a shorter search (about 95 ms) lets the
/// per-search lower decile find a quiet one.
pub const SEARCH_TRIALS: usize = 1;

/// The registered sweep the `scale-sweep` workload repeats.
pub const SCALE_SWEEP: &str = "scale-curve";

/// The search preset the `search` workload repeats.
pub const SEARCH_PRESET: &str = "lb-worst";

/// Checked-in golden metrics (registry and pinned sweep points).
pub const GOLDEN_DIR: &str = "scenarios/golden";

/// Checked-in archive of the `lb-worst` preset at its own budget.
pub const LB_WORST_ARCHIVE: &str = "scenarios/found/lb-worst.archive.json";

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated passes of the whole registry campaign.
    Registry,
    /// Repeated passes of the `scale-curve` sweep grid.
    ScaleSweep,
    /// Repeated `lb-worst` searches at a raised budget.
    Search,
    /// Repeated batches of a benchmark-owned LB scenario over the mock net.
    MocknetLb,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Registry,
        Workload::ScaleSweep,
        Workload::Search,
        Workload::MocknetLb,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Registry => "registry",
            Workload::ScaleSweep => "scale-sweep",
            Workload::Search => "search",
            Workload::MocknetLb => "mocknet-lb",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Maps the benchmark seed onto seed offsets. Seed 0 is the pinned seed:
/// every scenario keeps the seeds its goldens were blessed at. Only
/// trial and search seeds move; topologies stay fixed, so every seed
/// runs the same amount of simulated work and the registry's fault
/// regions stay tied to their geometry.
pub fn seed_offset(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The benchmark-owned mock-net scenario: constant density (n = 256,
/// density 8, r = 1.5), seven streaming senders, every `G'` link, one
/// round of delay, 5% loss, three LBAlg phases, 8 trials.
pub fn mocknet_scenario(seed: u64) -> Result<Scenario, ScenarioError> {
    let off = seed_offset(seed);
    ScenarioBuilder::new(
        "mocknet-lb",
        TopologySpec::ConstantDensity {
            n: 256,
            density: 8.0,
            r: 1.5,
            seed: 7,
        },
        WorkloadSpec::LocalBroadcast {
            epsilon1: 0.25,
            senders: vec![0, 37, 73, 110, 146, 183, 219],
            messages_per_sender: 4,
        },
    )
    .description("benchmark-owned LB streaming scenario over the mock network")
    .adversary(AdversarySpec::AllExtraEdges)
    .transport(TransportSpec::MockNet {
        delay_rounds: 1,
        loss_p: 0.05,
        partitions: vec![],
    })
    .stop(StopSpec::Phases { phases: 3 })
    .trials(8)
    .base_seed(1_000u64.wrapping_add(off))
    .build()
}

/// Compiled runners plus the flattened *(runner, trial)* job list, the
/// same fan-out `Campaign::run` uses.
pub struct JobSet {
    /// One runner per scenario, in campaign order.
    pub runners: Vec<ScenarioRunner>,
    /// Every *(runner index, trial index)* pair.
    pub jobs: Vec<(usize, usize)>,
}

impl JobSet {
    /// Validates and compiles every scenario.
    pub fn new(scenarios: Vec<Scenario>) -> Result<JobSet, ScenarioError> {
        let runners = scenarios
            .into_iter()
            .map(ScenarioRunner::new)
            .collect::<Result<Vec<_>, _>>()?;
        let jobs = runners
            .iter()
            .enumerate()
            .flat_map(|(si, r)| (0..r.scenario().trials).map(move |t| (si, t)))
            .collect();
        Ok(JobSet { runners, jobs })
    }

    /// Vertex count of job `j`'s scenario.
    pub fn nodes(&self, j: usize) -> u64 {
        self.runners[self.jobs[j].0].topology().graph.len() as u64
    }
}

/// A workload after set-up: what one pass runs.
pub enum Prepared {
    /// Trial jobs over compiled runners.
    Jobs(JobSet),
    /// [`SEARCHES`] validated searches at the raised budget.
    Search(Vec<SearchSpec>),
}

/// The scenarios a job-set workload compiles at the given benchmark
/// seed (`None` for `search`, which compiles per candidate).
pub fn scenarios(w: Workload, seed: u64) -> Result<Option<Vec<Scenario>>, ScenarioError> {
    let off = seed_offset(seed);
    Ok(Some(match w {
        Workload::Registry => registry::all()
            .into_iter()
            .map(|mut s| {
                s.base_seed = s.base_seed.wrapping_add(off);
                s
            })
            .collect(),
        Workload::ScaleSweep => {
            let mut spec = find_sweep(SCALE_SWEEP).expect("scale-curve is registered");
            spec.base.base_seed = spec.base.base_seed.wrapping_add(off);
            spec.expand()?.scenarios()
        }
        Workload::Search => return Ok(None),
        Workload::MocknetLb => vec![mocknet_scenario(seed)?],
    }))
}

/// Sets a workload up at the given benchmark seed. This is what
/// `setup_s` times: scenario, sweep or search construction and
/// validation plus every `ScenarioRunner::new` (topology, timeline and
/// fault resolution).
pub fn setup(w: Workload, seed: u64) -> Result<Prepared, ScenarioError> {
    match scenarios(w, seed)? {
        Some(s) => Ok(Prepared::Jobs(JobSet::new(s)?)),
        None => Ok(Prepared::Search(search_specs(seed)?)),
    }
}

/// The `lb-worst` preset at [`SEARCH_BUDGET`], [`SEARCHES`] times, with
/// search seeds `preset + offset(seed) + k`, each validated. Set-up also
/// proposes and compiles every search's first generation
/// (`Campaign::new`), the work `run_search` does before the search's
/// first trial can run; over all searches, so its cost does not hang on
/// the candidates of one seed.
pub fn search_specs(seed: u64) -> Result<Vec<SearchSpec>, ScenarioError> {
    let specs = (0..SEARCHES)
        .map(|k| {
            let mut spec = find_preset(SEARCH_PRESET).expect("lb-worst is a preset");
            spec.seed = spec.seed.wrapping_add(seed_offset(seed)).wrapping_add(k);
            spec.budget = SEARCH_BUDGET;
            spec.trials = Some(SEARCH_TRIALS);
            spec.validate().map(|()| spec)
        })
        .collect::<Result<Vec<_>, _>>()?;
    for spec in &specs {
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let n = spec.base.topology.node_count();
        let batch = spec
            .strategy
            .build()
            .propose(&spec.space, n, spec.budget, &mut rng);
        Campaign::new(
            batch
                .iter()
                .enumerate()
                .map(|(i, c)| c.apply(spec, i))
                .collect(),
        )?;
    }
    Ok(specs)
}

/// Trials and simulated rounds × vertices of one search: every
/// candidate runs the base's fixed horizon on the base's vertex set.
pub fn search_node_rounds(spec: &SearchSpec) -> (usize, u64) {
    let trials = spec.budget * spec.trials.unwrap_or(spec.base.trials);
    let horizon = spec
        .base
        .stop
        .horizon_rounds()
        .expect("lb-worst has a fixed horizon");
    let n = spec.base.topology.node_count() as u64;
    (trials, trials as u64 * horizon * n)
}

/// One untraced pass.
#[derive(Clone)]
pub struct Pass {
    /// Host time of the pool call (or `run_search`), in nanoseconds.
    pub wall_ns: u64,
    /// Trials the pass ran.
    pub trials: usize,
    /// Σ rounds × vertices over the pass's trials.
    pub node_rounds: u64,
    /// Host time per trial: each trial job as the pool timed it, or
    /// (`search`, whose trials are not visible from outside) each
    /// search's pool time per trial, `wall × workers ÷ trials`.
    pub trial_ns: Vec<u64>,
    /// Each job's outcome; `None` when the trial panicked.
    pub outcomes: Vec<Option<TrialOutcome>>,
    /// Digest of every outcome (or of the archives' JSON for `search`).
    pub digest: u64,
    /// Whether a search of the pass panicked or failed (`search` only).
    pub panicked: bool,
}

/// FNV-1a, 64 bit: a stable digest for outcome lists and archives.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a list of trial outcomes.
pub fn outcomes_digest(outcomes: &[Option<TrialOutcome>]) -> u64 {
    fnv(format!("{outcomes:?}").as_bytes())
}

/// Runs one untraced pass.
pub fn run_pass(p: &Prepared) -> Pass {
    match p {
        Prepared::Jobs(set) => {
            let elapsed: Vec<AtomicU64> = set.jobs.iter().map(|_| AtomicU64::new(0)).collect();
            let start = Instant::now();
            let outcomes = run_jobs_observed(
                set.jobs.len(),
                Some(WORKERS),
                |j| {
                    let (si, t) = set.jobs[j];
                    catch_unwind(AssertUnwindSafe(|| set.runners[si].run_trial(t))).ok()
                },
                |obs| elapsed[obs.job].store(obs.elapsed_ns, Ordering::Relaxed),
            );
            let wall_ns = start.elapsed().as_nanos() as u64;
            let trial_ns: Vec<u64> = elapsed.iter().map(|e| e.load(Ordering::Relaxed)).collect();
            let node_rounds = outcomes
                .iter()
                .enumerate()
                .map(|(j, o)| o.as_ref().map_or(0, |o| o.rounds * set.nodes(j)))
                .sum();
            Pass {
                wall_ns,
                trials: set.jobs.len(),
                node_rounds,
                trial_ns,
                digest: outcomes_digest(&outcomes),
                outcomes,
                panicked: false,
            }
        }
        Prepared::Search(specs) => {
            let mut pass = Pass {
                wall_ns: 0,
                trials: 0,
                node_rounds: 0,
                trial_ns: Vec::new(),
                outcomes: Vec::new(),
                digest: 0,
                panicked: false,
            };
            let mut archives = String::new();
            for spec in specs {
                let (trials, node_rounds) = search_node_rounds(spec);
                let start = Instant::now();
                let archive = catch_unwind(AssertUnwindSafe(|| run_search(spec, Some(WORKERS))));
                let wall_ns = start.elapsed().as_nanos() as u64;
                match archive {
                    Ok(Ok(a)) => archives.push_str(&a.to_json()),
                    _ => pass.panicked = true,
                }
                pass.wall_ns += wall_ns;
                pass.trials += trials;
                pass.node_rounds += node_rounds;
                pass.trial_ns.push(wall_ns * WORKERS as u64 / trials as u64);
            }
            pass.digest = fnv(archives.as_bytes());
            pass
        }
    }
}

/// Trials of `pass` that failed against the reference pass: a panic,
/// or an outcome that differs from the reference's. A `search` pass
/// fails as a whole when a search fails or the archives' digest differs.
pub fn failed_trials(pass: &Pass, reference: &Pass) -> usize {
    if pass.outcomes.is_empty() {
        return if pass.panicked || pass.digest != reference.digest {
            pass.trials
        } else {
            0
        };
    }
    pass.outcomes
        .iter()
        .zip(&reference.outcomes)
        .filter(|(a, b)| a.is_none() || a != b)
        .count()
}

/// Channel totals summed over a pass's outcomes.
pub fn channel_totals<'a>(outcomes: impl Iterator<Item = &'a TrialOutcome>) -> RoundStats {
    let mut t = RoundStats::default();
    for o in outcomes {
        t.transmitters += o.totals.transmitters;
        t.deliveries += o.totals.deliveries;
        t.collisions += o.totals.collisions;
    }
    t
}

// ---------------------------------------------------------------------------
// Pinned-seed correctness gate
// ---------------------------------------------------------------------------

/// What the gate checked.
pub struct Gate {
    /// Trials the gate ran.
    pub attempted: usize,
    /// Trials in a scenario, archive or sweep point that failed.
    pub failed: usize,
    /// One line per check, with its digest.
    pub lines: Vec<String>,
}

fn load_goldens() -> Result<Vec<GoldenMetrics>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(GOLDEN_DIR)
        .map_err(|e| format!("{GOLDEN_DIR}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            GoldenMetrics::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Trials of the scenarios a golden check flagged.
fn golden_failures(report: &CampaignReport, check: &CheckReport) -> usize {
    report
        .reports
        .iter()
        .filter(|r| check.failures().any(|f| f.scenario == r.scenario.name))
        .map(|r| r.outcomes.len())
        .sum()
}

fn report_digest(report: &CampaignReport) -> u64 {
    let all: Vec<Option<TrialOutcome>> = report
        .reports
        .iter()
        .flat_map(|r| r.outcomes.iter().cloned().map(Some))
        .collect();
    outcomes_digest(&all)
}

/// Runs the three pinned-seed checks with the library's own entry points:
/// the registry campaign against `scenarios/golden/`, the `lb-worst`
/// archive at its preset budget byte-compared against the checked-in
/// file, and the pinned `scale-curve` points against their goldens.
pub fn gate() -> Result<Gate, String> {
    let goldens = load_goldens()?;
    let mut g = Gate {
        attempted: 0,
        failed: 0,
        lines: Vec::new(),
    };

    let report = Campaign::from_registry().threads(WORKERS).run();
    let check = report.check(&goldens);
    let trials: usize = report.reports.iter().map(|r| r.outcomes.len()).sum();
    g.attempted += trials;
    g.failed += golden_failures(&report, &check);
    g.lines.push(format!(
        "gate registry: {} comparisons, {} failing, {trials} trials, digest {:016x}",
        check.rows.len(),
        check.failures().count(),
        report_digest(&report)
    ));

    let preset = find_preset(SEARCH_PRESET).expect("lb-worst is a preset");
    let trials = preset.budget * preset.trials.unwrap_or(preset.base.trials);
    let archive = run_search(&preset, Some(WORKERS)).map_err(|e| e.to_string())?;
    let expected = std::fs::read_to_string(LB_WORST_ARCHIVE)
        .map_err(|e| format!("{LB_WORST_ARCHIVE}: {e}"))?;
    let same = archive.to_json() == expected;
    g.attempted += trials;
    if !same {
        g.failed += trials;
    }
    g.lines.push(format!(
        "gate lb-worst archive: {} ({trials} trials, digest {:016x})",
        if same { "byte-identical" } else { "DIFFERS" },
        fnv(archive.to_json().as_bytes())
    ));

    let spec = find_sweep(SCALE_SWEEP).expect("scale-curve is registered");
    let grid = spec.expand().map_err(|e| e.to_string())?.pinned();
    let report = grid
        .campaign()
        .map_err(|e| e.to_string())?
        .threads(WORKERS)
        .run();
    let check = report.check(&goldens);
    let trials: usize = report.reports.iter().map(|r| r.outcomes.len()).sum();
    g.attempted += trials;
    g.failed += golden_failures(&report, &check);
    g.lines.push(format!(
        "gate scale-curve pinned: {} comparisons, {} failing, {trials} trials, digest {:016x}",
        check.rows.len(),
        check.failures().count(),
        report_digest(&report)
    ));
    Ok(g)
}
