//! Run a declarative scenario — a registry name or a JSON file — and
//! print experiment-style stats tables; run a whole **campaign** with
//! the golden-metric regression gate; expand and run a parameter
//! **sweep** family into curve tables; hunt worst-case adversaries
//! with the budgeted **search** engine (see `docs/search.md`); or
//! **audit** a saved LBAlg trace against the `LB` specification.
//!
//! ```text
//! scenario --list
//! scenario <name | file.json> [--trials N] [--seed S]
//!          [--transport sim|mock-net]  # substrate override (see docs/transport.md)
//!          [--save-trace PATH]   # trial 0's full trace as JSON
//!          [--export PATH]       # write the scenario itself as JSON
//!          [--telemetry PATH]    # JSONL run journal (see docs/observability.md)
//! scenario campaign [name | set.json | scenario.json ...]
//!          [--out PATH]          # combined markdown report (+ perf footer)
//!          [--golden DIR]        # golden dir (default scenarios/golden)
//!          [--check]             # diff against blessed metrics; exit 1 on drift
//!          [--bless]             # regenerate the golden files
//!          [--telemetry PATH]    # JSONL run journal
//!          [--trials N] [--threads N]
//! scenario sweep <name | sweep.json>
//!          [--out PATH]          # sweep markdown report (grid + curve pivots)
//!          [--csv PATH]          # long-format grid table as CSV
//!          [--plot]              # ASCII line charts of the curve pivots
//!          [--export PATH]       # write the sweep spec itself as JSON
//!          [--golden DIR]        # per-point golden dir (default scenarios/golden)
//!          [--check]             # golden-gate the pinned points; exit 1 on drift
//!          [--bless]             # regenerate the pinned points' golden files
//!          [--telemetry PATH]    # JSONL run journal
//!          [--trials N] [--threads N]
//! scenario search <preset | search.json>
//!          [--budget N]          # candidate evaluations (overrides the spec)
//!          [--seed S]            # search seed (overrides the spec)
//!          [--objective mean-ack|p99-ack|spec-violations]
//!          [--strategy random|evolve]
//!          [--trials N]          # trials per candidate
//!          [--out DIR]           # emit top candidates (default scenarios/found)
//!          [--top K]             # how many to emit (default 1)
//!          [--archive PATH]      # full archive JSON (every candidate + ranking)
//!          [--threads N]         # worker pool size (archive is identical for all)
//! scenario validate <file.json ...>  # field-level errors; exit 1 if any invalid
//! scenario journal <PATH>        # validate a telemetry journal; exit 1 if invalid
//! scenario audit <name | file.json> <trace.json>
//!                                # re-check a --save-trace file against the LB
//!                                # conditions; exit 1 on a violation
//! ```
//!
//! Every run prints a live heartbeat to stderr (scenarios done,
//! trials/s, ETA). Telemetry only observes: stdout tables, written
//! reports, and golden checks are byte-identical with or without
//! `--telemetry` (report files gain a perf footer, appended at write
//! time only).
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p bench --bin scenario -- e4
//! cargo run --release -p bench --bin scenario -- churn --trials 2
//! cargo run --release -p bench --bin scenario -- scenarios/drop_burst.json
//! cargo run --release -p bench --bin scenario -- campaign --out CAMPAIGN.md
//! cargo run --release -p bench --bin scenario -- campaign e5 drop-burst --check
//! cargo run --release -p bench --bin scenario -- campaign --bless
//! cargo run --release -p bench --bin scenario -- sweep churn-knee --csv churn.csv
//! cargo run --release -p bench --bin scenario -- sweep loss-grid --check
//! cargo run --release -p bench --bin scenario -- search lb-worst --top 3
//! cargo run --release -p bench --bin scenario -- validate scenarios/found/*.json
//! cargo run --release -p bench --bin scenario -- e5 --save-trace /tmp/e5.json
//! cargo run --release -p bench --bin scenario -- audit e5 /tmp/e5.json
//! ```

use local_broadcast::config::LbConfig;
use local_broadcast::{spec, LbTrace};
use radio_sim::graph::NodeId;
use radio_sim::trace::EventKind;
use scenario::search::{self, found_scenario, run_search, Objective, SearchSpec, StrategySpec};
use scenario::spec::MAX_STOP_ROUNDS;
use scenario::sweep::{self, SweepReport, SweepSpec};
use scenario::{
    registry, Campaign, CampaignReport, GoldenMetrics, RunTelemetry, Scenario, ScenarioError,
    ScenarioRunner, TransportSpec, WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use telemetry::Heartbeat;

/// Default directory for blessed golden-metric files.
const GOLDEN_DIR: &str = "scenarios/golden";

fn usage() -> String {
    "usage: scenario --list\n       \
     scenario <name | file.json> [--trials N] [--seed S] \
     [--transport sim|mock-net] [--save-trace PATH] [--export PATH] [--telemetry PATH]\n       \
     scenario campaign [name | set.json | scenario.json ...] [--out PATH] [--golden DIR] \
     [--check | --bless] [--telemetry PATH] [--trials N] [--threads N]\n       \
     scenario sweep <name | sweep.json> [--out PATH] [--csv PATH] [--plot] \
     [--export PATH] [--golden DIR] [--check | --bless] [--telemetry PATH] \
     [--trials N] [--threads N]\n       \
     scenario search <preset | search.json> [--budget N] [--seed S] \
     [--objective mean-ack|p99-ack|spec-violations] [--strategy random|evolve] \
     [--trials N] [--out DIR] [--top K] [--archive PATH] [--threads N]\n       \
     scenario validate <file.json ...>\n       \
     scenario journal <PATH>\n       \
     scenario audit <name | file.json> <trace.json>"
        .to_string()
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One pass over `args`: every flag must be a member of `valued` or
/// `boolean` (valued flags must have a value that is not itself a
/// flag, so a flag token is never interpreted as both a value here and
/// a flag by a later `arg_value` scan), everything else is a
/// positional. Returns the positionals in order.
fn parse_positionals(
    args: &[String],
    valued: &[&str],
    boolean: &[&str],
) -> Result<Vec<String>, String> {
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if valued.contains(&a.as_str()) {
            if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                return Err(format!("{a} needs a value\n{}", usage()));
            }
            i += 2;
        } else if boolean.contains(&a.as_str()) {
            i += 1;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}\n{}", usage()));
        } else {
            positionals.push(a.clone());
            i += 1;
        }
    }
    Ok(positionals)
}

/// Parses a `>= 1` count flag (`--trials`, `--threads`).
fn parse_count(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match arg_value(args, flag) {
        None => Ok(None),
        Some(t) => {
            let count: usize = t
                .parse()
                .map_err(|e| format!("{flag} {t}: not a count ({e})"))?;
            if count == 0 {
                return Err(format!("{flag} must be >= 1"));
            }
            Ok(Some(count))
        }
    }
}

/// Parses a mode's flags (see [`parse_positionals`]) and returns its
/// one positional selector.
fn parse_selector(args: &[String], valued: &[&str], boolean: &[&str]) -> Result<String, String> {
    let mut positionals = parse_positionals(args, valued, boolean)?.into_iter();
    match (positionals.next(), positionals.next()) {
        (Some(one), None) => Ok(one),
        (None, _) => Err(usage()),
        (Some(_), Some(extra)) => Err(format!("unexpected extra argument {extra:?}\n{}", usage())),
    }
}

/// Resolves `selector` as a registered `what` (`find`), else as a JSON
/// file of one (`parse`).
fn load<T>(
    what: &str,
    selector: &str,
    find: impl FnOnce(&str) -> Option<T>,
    parse: impl FnOnce(&str) -> Result<T, ScenarioError>,
) -> Result<T, String> {
    if let Some(found) = find(selector) {
        return Ok(found);
    }
    if selector.ends_with(".json") || Path::new(selector).exists() {
        let data = std::fs::read_to_string(selector)
            .map_err(|e| format!("cannot read {what} file {selector}: {e}"))?;
        return parse(&data).map_err(|e| format!("{what} file {selector}: {e}"));
    }
    Err(format!(
        "unknown {what} {selector:?}: not a registered name (see --list) and no such file"
    ))
}

/// Runs `campaign` under a live stderr heartbeat labelled `label`, then
/// writes the `--telemetry` journal of the `mode` run over `subject`.
/// Telemetry only observes, so the report is a plain run's.
fn run_observed(
    campaign: &Campaign,
    args: &[String],
    label: &str,
    mode: &str,
    subject: &str,
) -> Result<(CampaignReport, RunTelemetry), String> {
    let total: usize = campaign.scenarios().map(|s| s.trials).sum();
    let start = std::time::Instant::now();
    let hb = Heartbeat::new(label, campaign.scenarios().count() as u64, total as u64);
    let (report, telem) = campaign.run_observed(Some(&hb));
    hb.finish();
    eprintln!("   ({:.1?})", start.elapsed());
    if let Some(path) = arg_value(args, "--telemetry") {
        std::fs::write(&path, telem.journal(mode, subject))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote telemetry journal to {path}");
    }
    Ok((report, telem))
}

/// Writes `markdown()` to `--out` with the run's perf footer appended.
/// The footer carries wall-clock numbers, so it is added at write time
/// only and the report itself stays byte-deterministic.
fn write_report(
    args: &[String],
    markdown: impl FnOnce() -> String,
    telem: &RunTelemetry,
) -> Result<(), String> {
    if let Some(path) = arg_value(args, "--out") {
        std::fs::write(&path, markdown() + &telem.footer())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote report to {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Single-scenario mode
// ---------------------------------------------------------------------

fn run_single(args: &[String]) -> Result<ExitCode, String> {
    let selector = parse_selector(
        args,
        &[
            "--trials", "--seed", "--transport", "--save-trace", "--export", "--telemetry",
        ],
        &[],
    )?;
    let mut scenario = load("scenario", &selector, registry::find, Scenario::from_json)?;
    if let Some(trials) = parse_count(args, "--trials")? {
        scenario.trials = trials;
    }
    if let Some(s) = arg_value(args, "--seed") {
        scenario.base_seed = s
            .parse()
            .map_err(|e| format!("--seed {s}: not a u64 ({e})"))?;
    }
    if let Some(t) = arg_value(args, "--transport") {
        // The override swaps the substrate only: `mock-net` selects the
        // synchronous mock network (delay 0, no loss, no partitions),
        // whose executions byte-compare equal to the simulator's. Richer
        // channel models (delay, loss, partitions) live in the scenario
        // file's `transport` field.
        scenario.transport = match t.as_str() {
            "sim" => TransportSpec::Sim,
            "mock-net" => TransportSpec::mock_net_synchronous(),
            other => {
                return Err(format!("--transport {other:?}: expected 'sim' or 'mock-net'"))
            }
        };
    }

    // Validate (ScenarioRunner::new) before exporting, so --export can
    // never leave behind a file the loader itself would reject.
    let runner = ScenarioRunner::new(scenario).map_err(|e| e.to_string())?;
    if let Some(path) = arg_value(args, "--export") {
        std::fs::write(&path, runner.scenario().to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("exported scenario to {path}");
    }
    let s = runner.scenario();
    let topo = runner.topology();
    eprintln!(
        "== scenario {} — n = {}, Δ = {}, Δ' = {}, {} workload, {} adversary, {} transport, {} trial(s) ==",
        s.name,
        topo.graph.len(),
        topo.graph.delta(),
        topo.graph.delta_prime(),
        s.workload.name(),
        s.adversary.name(),
        s.transport.name(),
        s.trials,
    );
    if !s.description.is_empty() {
        eprintln!("   {}", s.description);
    }

    // Every single run is a one-scenario observed campaign: it drives
    // the heartbeat and fills the telemetry.
    let campaign = Campaign::new(vec![s.clone()]).map_err(|e| e.to_string())?;
    let (creport, _) = run_observed(&campaign, args, &s.name, "single", &s.name)?;
    let report = creport
        .reports
        .into_iter()
        .next()
        .expect("one-scenario campaign yields one report");
    for table in report.tables() {
        println!("{table}");
    }

    if let Some(path) = arg_value(args, "--save-trace") {
        // Trial 0 is a pure function of the seed, so re-simulating it
        // for the trace yields the exact bytes of the observed trial.
        let json = runner.trial_trace_json(0);
        std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("saved trial-0 trace ({} bytes) to {path}", json.len());
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// The golden gate of campaign and sweep mode
// ---------------------------------------------------------------------

/// What `--check` / `--bless` ask of a campaign or sweep run.
enum Gate {
    /// Neither flag: the run is only reported.
    Off,
    /// Diff the run against the blessed files in the directory.
    Check(PathBuf),
    /// Write one golden file per scenario into the directory.
    Bless(PathBuf),
}

impl Gate {
    /// Reads `--check`, `--bless` and `--golden DIR`. A golden file pins
    /// means over the registered trial count, so neither gate takes an
    /// overridden `trials`: blessing one would poison every later check,
    /// and checking with one would only manufacture config-drift rows.
    fn parse(args: &[String], trials: Option<usize>) -> Result<Gate, String> {
        let check = args.iter().any(|a| a == "--check");
        let bless = args.iter().any(|a| a == "--bless");
        if check && bless {
            return Err(format!("--check and --bless are mutually exclusive\n{}", usage()));
        }
        if (check || bless) && trials.is_some() {
            return Err(format!(
                "--{} does not take --trials (goldens pin the registered trial counts)",
                if bless { "bless" } else { "check" }
            ));
        }
        let dir =
            PathBuf::from(arg_value(args, "--golden").unwrap_or_else(|| GOLDEN_DIR.to_string()));
        Ok(if check {
            Gate::Check(dir)
        } else if bless {
            Gate::Bless(dir)
        } else {
            Gate::Off
        })
    }

    /// Blesses or checks `report`. A check prints the pass/fail table,
    /// reports a missing golden file as a failing `golden file` row, and
    /// exits 1 on any drift.
    fn apply(&self, report: &CampaignReport) -> Result<ExitCode, String> {
        let golden_path = |dir: &Path, scenario: &str| dir.join(format!("{scenario}.json"));
        match self {
            Gate::Off => Ok(ExitCode::SUCCESS),
            Gate::Bless(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                for golden in report.golden() {
                    let path = golden_path(dir, &golden.scenario);
                    std::fs::write(&path, golden.to_json())
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    eprintln!("blessed {}", path.display());
                }
                Ok(ExitCode::SUCCESS)
            }
            Gate::Check(dir) => {
                // Load golden files only for the scenarios this run
                // measured, so pinned subsets check cleanly against a
                // full golden directory.
                let mut golden = Vec::new();
                for r in &report.reports {
                    let path = golden_path(dir, &r.scenario.name);
                    match std::fs::read_to_string(&path) {
                        Ok(data) => golden.push(
                            GoldenMetrics::from_json(&data)
                                .map_err(|e| format!("{}: {e}", path.display()))?,
                        ),
                        // Missing file: leave no entry; the check reports
                        // it as a failing `golden file` row.
                        Err(_) => eprintln!(
                            "no golden metrics at {} (bless with --bless)",
                            path.display()
                        ),
                    }
                }
                let check = report.check(&golden);
                println!("{}", check.table());
                if check.passed() {
                    eprintln!("golden check passed: {} comparison(s) ok", check.rows.len());
                    Ok(ExitCode::SUCCESS)
                } else {
                    eprintln!(
                        "golden check FAILED: {} of {} comparison(s) drifted",
                        check.failures().count(),
                        check.rows.len()
                    );
                    Ok(ExitCode::from(1))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Campaign mode
// ---------------------------------------------------------------------

/// Resolves campaign selectors: each positional is a registry name, a
/// `.json` file holding an array of registry names (a pinned subset),
/// or a `.json` scenario file — so search-emitted worst cases under
/// `scenarios/found/` bless and check like registry entries. No
/// selectors = the whole registry.
fn campaign_scenarios(selectors: &[String]) -> Result<Vec<Scenario>, String> {
    if selectors.is_empty() {
        return Ok(registry::all());
    }
    let by_name = |name: &str| {
        registry::find(name)
            .ok_or_else(|| format!("unknown registry scenario {name:?} (see scenario --list)"))
    };
    let mut scenarios = Vec::new();
    for sel in selectors {
        if sel.ends_with(".json") {
            let data = std::fs::read_to_string(sel)
                .map_err(|e| format!("cannot read scenario set {sel}: {e}"))?;
            if let Ok(listed) = serde_json::from_str::<Vec<String>>(&data) {
                for name in &listed {
                    scenarios.push(by_name(name)?);
                }
            } else {
                scenarios.push(
                    Scenario::from_json(&data).map_err(|e| format!(
                        "{sel}: neither a JSON array of registry names nor a scenario ({e})"
                    ))?,
                );
            }
        } else {
            scenarios.push(by_name(sel)?);
        }
    }
    Ok(scenarios)
}

fn run_campaign(args: &[String]) -> Result<ExitCode, String> {
    let selectors = parse_positionals(
        args,
        &["--trials", "--threads", "--golden", "--out", "--telemetry"],
        &["--check", "--bless"],
    )?;
    let trials = parse_count(args, "--trials")?;
    let gate = Gate::parse(args, trials)?;
    let threads = parse_count(args, "--threads")?;

    let mut scenarios = campaign_scenarios(&selectors)?;
    if let Some(t) = trials {
        for s in &mut scenarios {
            s.trials = t;
        }
    }
    let names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
    let mut campaign = Campaign::new(scenarios).map_err(|e| e.to_string())?;
    if let Some(t) = threads {
        campaign = campaign.threads(t);
    }

    let total: usize = campaign.scenarios().map(|s| s.trials).sum();
    eprintln!(
        "== campaign: {} scenario(s), {total} trial(s) ==",
        names.len()
    );
    let (report, telem) = run_observed(&campaign, args, "campaign", "campaign", &names.join(" "))?;
    println!("{}", report.overview());
    write_report(args, || report.to_markdown(), &telem)?;
    gate.apply(&report)
}

// ---------------------------------------------------------------------
// Sweep mode
// ---------------------------------------------------------------------

fn run_sweep(args: &[String]) -> Result<ExitCode, String> {
    let selector = parse_selector(
        args,
        &[
            "--trials", "--threads", "--golden", "--out", "--csv", "--export", "--telemetry",
        ],
        &["--check", "--bless", "--plot"],
    )?;
    let trials = parse_count(args, "--trials")?;
    let gate = Gate::parse(args, trials)?;
    let threads = parse_count(args, "--threads")?;

    let mut spec = load("sweep", &selector, sweep::find_sweep, SweepSpec::from_json)?;
    if let Some(t) = trials {
        spec.trials = Some(t);
    }
    // Validate (expand) before exporting, mirroring single-scenario
    // --export: the written file always loads.
    let full = spec.expand().map_err(|e| e.to_string())?;
    if let Some(path) = arg_value(args, "--export") {
        std::fs::write(&path, spec.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("exported sweep spec to {path}");
    }

    // --check/--bless gate exactly the pinned subset; a plain run
    // measures the whole grid.
    let grid = match gate {
        Gate::Off => full,
        Gate::Check(_) | Gate::Bless(_) => full.pinned(),
    };
    let mut campaign = grid.campaign().map_err(|e| e.to_string())?;
    if let Some(t) = threads {
        campaign = campaign.threads(t);
    }
    let total: usize = campaign.scenarios().map(|s| s.trials).sum();
    eprintln!(
        "== sweep {}: {} of {} grid point(s), {total} trial(s), axes {} ==",
        spec.name,
        grid.len(),
        spec.axes.iter().map(|a| a.points.len()).product::<usize>(),
        spec.axes
            .iter()
            .map(|a| a.axis.as_str())
            .collect::<Vec<_>>()
            .join(" × "),
    );
    if !spec.description.is_empty() {
        eprintln!("   {}", spec.description);
    }
    let (report, telem) = run_observed(&campaign, args, &spec.name, "sweep", &spec.name)?;

    let sweep_report = SweepReport::new(&grid, &report);
    println!("{}", sweep_report.long_table());
    for t in sweep_report.curve_tables() {
        println!("{t}");
    }
    if args.iter().any(|a| a == "--plot") {
        println!("{}", sweep_report.ascii_charts());
    }
    write_report(args, || sweep_report.to_markdown(), &telem)?;
    if let Some(path) = arg_value(args, "--csv") {
        std::fs::write(&path, sweep_report.to_csv())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote sweep CSV to {path}");
    }
    gate.apply(&report)
}

// ---------------------------------------------------------------------
// Search mode
// ---------------------------------------------------------------------

fn run_search_mode(args: &[String]) -> Result<ExitCode, String> {
    let selector = parse_selector(
        args,
        &[
            "--budget", "--seed", "--objective", "--strategy", "--trials", "--out", "--top",
            "--archive", "--threads",
        ],
        &[],
    )?;
    let mut spec = load("search", &selector, search::find_preset, SearchSpec::from_json)?;
    if let Some(b) = parse_count(args, "--budget")? {
        spec.budget = b;
    }
    if let Some(s) = arg_value(args, "--seed") {
        spec.seed = s
            .parse()
            .map_err(|e| format!("--seed {s}: not a u64 ({e})"))?;
    }
    if let Some(o) = arg_value(args, "--objective") {
        spec.objective = Objective::parse(&o).ok_or_else(|| {
            format!("--objective {o:?}: expected mean-ack, p99-ack, or spec-violations")
        })?;
    }
    if let Some(s) = arg_value(args, "--strategy") {
        spec.strategy = match s.as_str() {
            "random" => StrategySpec::Random,
            // `evolve` keeps the preset's (μ, λ) when it already
            // evolves; otherwise the default small loop.
            "evolve" | "evolutionary" => match spec.strategy {
                StrategySpec::Evolutionary { .. } => spec.strategy,
                StrategySpec::Random => StrategySpec::Evolutionary { mu: 4, lambda: 8 },
            },
            other => return Err(format!("--strategy {other:?}: expected 'random' or 'evolve'")),
        };
    }
    if let Some(t) = parse_count(args, "--trials")? {
        spec.trials = Some(t);
    }
    let top = parse_count(args, "--top")?.unwrap_or(1);
    let out_dir = PathBuf::from(
        arg_value(args, "--out").unwrap_or_else(|| "scenarios/found".to_string()),
    );
    let threads = parse_count(args, "--threads")?;

    spec.validate().map_err(|e| e.to_string())?;
    let trials = spec.trials.unwrap_or(spec.base.trials);
    eprintln!(
        "== search {}: {} strategy, objective {}, budget {} × {} trial(s), seed {} ==",
        spec.name,
        spec.strategy.name(),
        spec.objective.name(),
        spec.budget,
        trials,
        spec.seed,
    );
    if !spec.description.is_empty() {
        eprintln!("   {}", spec.description);
    }
    let start = std::time::Instant::now();
    let archive = run_search(&spec, threads).map_err(|e| e.to_string())?;
    eprintln!("   ({} candidate(s), {:.1?})", archive.entries.len(), start.elapsed());

    // Ranking table: the top candidates, best first.
    println!("| rank | candidate | {} | mean ack | p99 ack | spec viol | acks |", spec.objective.name());
    println!("|---:|---|---:|---:|---:|---:|---:|");
    for (rank, &i) in archive.ranking.iter().take(top.max(5)).enumerate() {
        let e = &archive.entries[i];
        println!(
            "| {} | c{:04} | {:.2} | {:.2} | {:.2} | {:.2} | {}/{} |",
            rank + 1,
            e.index,
            e.score,
            e.metrics.mean_ack,
            e.metrics.p99_ack,
            e.metrics.spec_violation_rate,
            e.metrics.ack_trials,
            e.metrics.trials,
        );
    }

    if let Some(path) = arg_value(args, "--archive") {
        if let Some(parent) = Path::new(&path).parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(&path, archive.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote search archive to {path}");
    }

    // Emit the top candidates as standalone, blessable scenario files.
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    for &i in archive.ranking.iter().take(top) {
        let found = found_scenario(&spec, &archive.entries[i]);
        let path = out_dir.join(format!("{}.json", found.name));
        std::fs::write(&path, found.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("emitted {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Validate mode
// ---------------------------------------------------------------------

/// Validates each scenario file end to end — parse, field validation,
/// and region/fault resolution against the concrete topology (the
/// checks `ScenarioRunner::new` runs) — printing one line per file.
fn run_validate(args: &[String]) -> Result<ExitCode, String> {
    let paths = parse_positionals(args, &[], &[])?;
    if paths.is_empty() {
        return Err(format!("validate takes at least one file\n{}", usage()));
    }
    let mut failures = 0usize;
    for path in &paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|data| Scenario::from_json(&data).map_err(|e| e.to_string()))
            // from_json validated fields; building the runner also
            // resolves regions and fault windows on the topology.
            .and_then(|s| ScenarioRunner::new(s).map_err(|e| e.to_string()));
        match verdict {
            Ok(runner) => {
                let s = runner.scenario();
                println!(
                    "{path}: ok — {} (n = {}, {} trial(s))",
                    s.name,
                    runner.topology().graph.len(),
                    s.trials
                );
            }
            Err(e) => {
                failures += 1;
                println!("{path}: INVALID — {e}");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} file(s) invalid", paths.len());
        return Ok(ExitCode::from(1));
    }
    eprintln!("all {} file(s) valid", paths.len());
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Journal validation mode
// ---------------------------------------------------------------------

fn run_journal(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(format!("journal takes exactly one path\n{}", usage()));
    };
    let data =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match telemetry::validate_journal(&data) {
        Ok(stats) => {
            eprintln!(
                "{path}: valid telemetry journal (schema v{})",
                telemetry::JOURNAL_SCHEMA_VERSION
            );
            println!(
                "{} line(s): {} scenario(s), {} trial(s); {} with engine metrics, {} with ack latency",
                stats.lines, stats.scenarios, stats.trials, stats.engine_scenarios,
                stats.ack_scenarios
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            Ok(ExitCode::from(1))
        }
    }
}

// ---------------------------------------------------------------------
// Audit mode
// ---------------------------------------------------------------------

/// Re-checks a `--save-trace` file of an LBAlg scenario against the `LB`
/// specification: the deterministic timely-acknowledgment and validity
/// conditions, plus the reliability and progress indicators. The
/// scenario the trace was saved from rebuilds the graph and the LB
/// parameters. Exit 1 when a condition is violated.
fn run_audit(args: &[String]) -> Result<ExitCode, String> {
    let [selector, path] = args else {
        return Err(format!("audit takes a scenario and a trace file\n{}", usage()));
    };
    let scenario = load("scenario", selector, registry::find, Scenario::from_json)?;
    let WorkloadSpec::LocalBroadcast { epsilon1, .. } = scenario.workload else {
        return Err(format!(
            "audit: scenario {} runs the {} workload; only local-broadcast (LBAlg) \
             traces carry the LB conditions",
            scenario.name,
            scenario.workload.name()
        ));
    };
    let runner = ScenarioRunner::new(scenario).map_err(|e| e.to_string())?;
    if runner.timeline().is_some_and(|t| !t.is_single()) {
        return Err(format!(
            "audit: scenario {} moves its nodes across geometry epochs; the LB \
             conditions are checked against one static graph",
            runner.scenario().name
        ));
    }
    let data = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace: LbTrace = serde_json::from_str(&data)
        .map_err(|e| format!("cannot parse {path} as an LBAlg trace: {e}"))?;
    let topo = runner.topology();
    let graph = &topo.graph;
    // The checkers index the graph by the trace's vertices and walk its
    // rounds phase by phase.
    let outside = |v: &NodeId| v.0 >= graph.len();
    let stray = trace.events.iter().find(|e| {
        outside(&e.node) || matches!(&e.kind, EventKind::Receive { from, .. } if outside(from))
    });
    if trace.n != graph.len() || stray.is_some() {
        return Err(format!(
            "audit: {path} names vertices outside scenario {}'s {} nodes",
            runner.scenario().name,
            graph.len()
        ));
    }
    let rounds = 1..=trace.rounds;
    if trace.rounds > MAX_STOP_ROUNDS || trace.events.iter().any(|e| !rounds.contains(&e.round)) {
        return Err(format!(
            "audit: {path} has events outside its {} rounds (at most {MAX_STOP_ROUNDS})",
            trace.rounds
        ));
    }
    let params = LbConfig::practical(epsilon1).resolve(topo.r, graph.delta(), graph.delta_prime());
    let (t_prog, t_ack) = (params.phase_len(), params.t_ack_rounds());
    println!(
        "trace: n = {}, Δ = {}, Δ' = {}, r = {}, {} rounds, {} events",
        graph.len(),
        graph.delta(),
        graph.delta_prime(),
        topo.r,
        trace.rounds,
        trace.events.len()
    );

    // Each check prints one line; an `Err` line is a failed check.
    let checks = [
        spec::check_timely_ack(&trace, t_ack)
            .map(|()| format!("timely acknowledgment (t_ack = {t_ack}): OK"))
            .map_err(|e| format!("timely acknowledgment: VIOLATED — {e}")),
        spec::check_validity(&trace, graph)
            .map(|()| "validity: OK".to_string())
            .map_err(|e| format!("validity: VIOLATED — {e}")),
        spec::reliability_outcomes(&trace, graph)
            .map(|outcomes| {
                let ok = outcomes.iter().filter(|o| o.success()).count();
                let n = outcomes.len();
                format!("reliability: {ok}/{n} broadcasts served all reliable neighbors")
            })
            .map_err(|e| format!("reliability evaluation failed: {e}")),
        spec::progress_outcomes(&trace, graph, t_prog)
            .map(|outcomes| {
                let ok = outcomes.iter().filter(|o| o.received).count();
                format!(
                    "progress: {ok}/{} (node, phase) hypotheses satisfied (t_prog = {t_prog})",
                    outcomes.len()
                )
            })
            .map_err(|e| format!("progress evaluation failed: {e}")),
    ];
    for line in &checks {
        println!("{}", line.as_ref().unwrap_or_else(|e| e));
    }
    let stats = trace.total_stats();
    println!(
        "channel totals: {} transmissions, {} deliveries, {} collisions, {} silent listens",
        stats.transmitters, stats.deliveries, stats.collisions, stats.silent
    );
    Ok(if checks.iter().any(Result::is_err) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(usage());
    }
    // `--list` is a command, not a flag: honor it only in first
    // position so a stray `--list` among campaign flags cannot swallow
    // a `--check` run and exit 0 without running the gate (the mode
    // parsers reject it as an unknown flag instead).
    match args.first().map(String::as_str) {
        Some("--list") => {
            if let Some(extra) = args.get(1) {
                return Err(format!("--list takes no arguments, got {extra:?}\n{}", usage()));
            }
            println!("registered scenarios:");
            for s in registry::all() {
                println!("  {:<16} {}", s.name, s.description);
            }
            println!("registered sweeps:");
            for s in sweep::sweeps() {
                let points: usize = s.axes.iter().map(|a| a.points.len()).product();
                println!(
                    "  {:<16} [{points} points, {} pinned] {}",
                    s.name,
                    s.pinned.len(),
                    s.description
                );
            }
            println!("registered searches:");
            for s in search::presets() {
                println!(
                    "  {:<16} [{} strategy, budget {}, seed {}] {}",
                    s.name,
                    s.strategy.name(),
                    s.budget,
                    s.seed,
                    s.description
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("campaign") => run_campaign(&args[1..]),
        Some("sweep") => run_sweep(&args[1..]),
        Some("search") => run_search_mode(&args[1..]),
        Some("validate") => run_validate(&args[1..]),
        Some("journal") => run_journal(&args[1..]),
        Some("audit") => run_audit(&args[1..]),
        _ => run_single(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
