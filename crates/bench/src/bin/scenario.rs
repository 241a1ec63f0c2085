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
    registry, Campaign, GoldenMetrics, RunTelemetry, Scenario, ScenarioRunner, TransportSpec,
    WorkloadSpec,
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

/// Writes the JSONL run journal when `--telemetry PATH` was given.
fn write_journal(
    path: &Option<String>,
    telem: &RunTelemetry,
    mode: &str,
    label: &str,
) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, telem.journal(mode, label))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote telemetry journal to {path}");
    }
    Ok(())
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

fn load(selector: &str) -> Result<Scenario, String> {
    if let Some(s) = registry::find(selector) {
        return Ok(s);
    }
    if selector.ends_with(".json") || Path::new(selector).exists() {
        let data = std::fs::read_to_string(selector)
            .map_err(|e| format!("cannot read scenario file {selector}: {e}"))?;
        return Scenario::from_json(&data)
            .map_err(|e| format!("scenario file {selector}: {e}"));
    }
    Err(format!(
        "unknown scenario {selector:?}: not a registry name (see --list) and no such file"
    ))
}

// ---------------------------------------------------------------------
// Single-scenario mode
// ---------------------------------------------------------------------

fn run_single(args: &[String]) -> Result<ExitCode, String> {
    let positionals = parse_positionals(
        args,
        &[
            "--trials", "--seed", "--transport", "--save-trace", "--export", "--telemetry",
        ],
        &[],
    )?;
    let selector = match positionals.as_slice() {
        [one] => one,
        [] => return Err(usage()),
        [_, extra, ..] => {
            return Err(format!("unexpected extra argument {extra:?}\n{}", usage()))
        }
    };

    let mut scenario = load(selector)?;
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
    // the heartbeat and fills the telemetry, and its report is identical
    // to a plain run's, since telemetry only observes.
    let start = std::time::Instant::now();
    let campaign = Campaign::new(vec![s.clone()]).map_err(|e| e.to_string())?;
    let hb = Heartbeat::new(&s.name, 1, s.trials as u64);
    let (creport, telem) = campaign.run_observed(Some(&hb));
    hb.finish();
    let report = creport
        .reports
        .into_iter()
        .next()
        .expect("one-scenario campaign yields one report");
    write_journal(
        &arg_value(args, "--telemetry"),
        &telem,
        "single",
        &report.scenario.name,
    )?;
    eprintln!("   ({} trial(s), {:.1?})", report.outcomes.len(), start.elapsed());
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

fn golden_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{scenario}.json"))
}

/// Writes one golden file per scenario of `report` into `golden_dir`.
fn bless_goldens(
    report: &scenario::CampaignReport,
    golden_dir: &Path,
) -> Result<(), String> {
    std::fs::create_dir_all(golden_dir)
        .map_err(|e| format!("cannot create {}: {e}", golden_dir.display()))?;
    for golden in report.golden() {
        let path = golden_path(golden_dir, &golden.scenario);
        std::fs::write(&path, golden.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("blessed {}", path.display());
    }
    Ok(())
}

/// Diffs `report` against the blessed files in `golden_dir`, printing
/// the pass/fail table. Missing files surface as failing `golden file`
/// rows. Returns exit code 1 on any drift.
fn check_goldens(
    report: &scenario::CampaignReport,
    golden_dir: &Path,
) -> Result<ExitCode, String> {
    // Load golden files only for the scenarios this run measured, so
    // pinned subsets check cleanly against a full golden directory.
    let mut golden = Vec::new();
    for r in &report.reports {
        let path = golden_path(golden_dir, &r.scenario.name);
        match std::fs::read_to_string(&path) {
            Ok(data) => golden.push(
                GoldenMetrics::from_json(&data).map_err(|e| format!("{}: {e}", path.display()))?,
            ),
            // Missing file: leave no entry; the check reports it as a
            // failing `golden file` row with the path in hand.
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

fn run_campaign(args: &[String]) -> Result<ExitCode, String> {
    let selectors = parse_positionals(
        args,
        &["--trials", "--threads", "--golden", "--out", "--telemetry"],
        &["--check", "--bless"],
    )?;
    let check = args.iter().any(|a| a == "--check");
    let bless = args.iter().any(|a| a == "--bless");
    if check && bless {
        return Err(format!("--check and --bless are mutually exclusive\n{}", usage()));
    }
    let trials = parse_count(args, "--trials")?;
    if (bless || check) && trials.is_some() {
        // A golden file pins means over the *registry* trial count:
        // blessing an overridden count would poison every later check,
        // and checking with one would only manufacture config-drift
        // rows. Reject the combination upfront instead.
        return Err(format!(
            "--{} does not take --trials (goldens pin the registry trial counts)",
            if bless { "bless" } else { "check" }
        ));
    }
    let golden_dir = PathBuf::from(
        arg_value(args, "--golden").unwrap_or_else(|| GOLDEN_DIR.to_string()),
    );
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
    let start = std::time::Instant::now();
    let hb = Heartbeat::new("campaign", names.len() as u64, total as u64);
    let (report, telem) = campaign.run_observed(Some(&hb));
    hb.finish();
    eprintln!("   ({:.1?})", start.elapsed());
    println!("{}", report.overview());
    write_journal(&arg_value(args, "--telemetry"), &telem, "campaign", &names.join(" "))?;

    if let Some(path) = arg_value(args, "--out") {
        // The footer carries wall-clock numbers, so it is appended at
        // write time only — to_markdown stays byte-deterministic.
        let doc = format!("{}{}", report.to_markdown(), telem.footer());
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote combined report to {path}");
    }

    if bless {
        bless_goldens(&report, &golden_dir)?;
        return Ok(ExitCode::SUCCESS);
    }

    if check {
        return check_goldens(&report, &golden_dir);
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Sweep mode
// ---------------------------------------------------------------------

fn load_sweep(selector: &str) -> Result<SweepSpec, String> {
    if let Some(s) = sweep::find_sweep(selector) {
        return Ok(s);
    }
    if selector.ends_with(".json") || Path::new(selector).exists() {
        let data = std::fs::read_to_string(selector)
            .map_err(|e| format!("cannot read sweep file {selector}: {e}"))?;
        return SweepSpec::from_json(&data).map_err(|e| format!("sweep file {selector}: {e}"));
    }
    Err(format!(
        "unknown sweep {selector:?}: not a sweep-registry name (see --list) and no such file"
    ))
}

fn run_sweep(args: &[String]) -> Result<ExitCode, String> {
    let positionals = parse_positionals(
        args,
        &[
            "--trials", "--threads", "--golden", "--out", "--csv", "--export", "--telemetry",
        ],
        &["--check", "--bless", "--plot"],
    )?;
    let selector = match positionals.as_slice() {
        [one] => one,
        [] => return Err(usage()),
        [_, extra, ..] => {
            return Err(format!("unexpected extra argument {extra:?}\n{}", usage()))
        }
    };
    let check = args.iter().any(|a| a == "--check");
    let bless = args.iter().any(|a| a == "--bless");
    if check && bless {
        return Err(format!("--check and --bless are mutually exclusive\n{}", usage()));
    }
    let trials = parse_count(args, "--trials")?;
    if (bless || check) && trials.is_some() {
        // Same rule as campaign mode: per-point golden files pin the
        // sweep's registered trial count.
        return Err(format!(
            "--{} does not take --trials (goldens pin the sweep trial counts)",
            if bless { "bless" } else { "check" }
        ));
    }
    let golden_dir = PathBuf::from(
        arg_value(args, "--golden").unwrap_or_else(|| GOLDEN_DIR.to_string()),
    );
    let threads = parse_count(args, "--threads")?;

    let mut spec = load_sweep(selector)?;
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
    let grid = if check || bless { full.pinned() } else { full };
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
    let start = std::time::Instant::now();
    let hb = Heartbeat::new(&spec.name, grid.len() as u64, total as u64);
    let (report, telem) = campaign.run_observed(Some(&hb));
    hb.finish();
    eprintln!("   ({:.1?})", start.elapsed());
    write_journal(&arg_value(args, "--telemetry"), &telem, "sweep", &spec.name)?;

    let sweep_report = SweepReport::new(&grid, &report);
    println!("{}", sweep_report.long_table());
    for t in sweep_report.curve_tables() {
        println!("{t}");
    }
    if args.iter().any(|a| a == "--plot") {
        println!("{}", sweep_report.ascii_charts());
    }
    if let Some(path) = arg_value(args, "--out") {
        // Footer at write time only, as in campaign mode.
        let doc = format!("{}{}", sweep_report.to_markdown(), telem.footer());
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote sweep report to {path}");
    }
    if let Some(path) = arg_value(args, "--csv") {
        std::fs::write(&path, sweep_report.to_csv())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote sweep CSV to {path}");
    }

    if bless {
        bless_goldens(&report, &golden_dir)?;
        return Ok(ExitCode::SUCCESS);
    }
    if check {
        return check_goldens(&report, &golden_dir);
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Search mode
// ---------------------------------------------------------------------

fn load_search(selector: &str) -> Result<SearchSpec, String> {
    if let Some(s) = search::find_preset(selector) {
        return Ok(s);
    }
    if selector.ends_with(".json") || Path::new(selector).exists() {
        let data = std::fs::read_to_string(selector)
            .map_err(|e| format!("cannot read search file {selector}: {e}"))?;
        return SearchSpec::from_json(&data).map_err(|e| format!("search file {selector}: {e}"));
    }
    Err(format!(
        "unknown search {selector:?}: not a search preset (see --list) and no such file"
    ))
}

fn run_search_mode(args: &[String]) -> Result<ExitCode, String> {
    let positionals = parse_positionals(
        args,
        &[
            "--budget", "--seed", "--objective", "--strategy", "--trials", "--out", "--top",
            "--archive", "--threads",
        ],
        &[],
    )?;
    let selector = match positionals.as_slice() {
        [one] => one,
        [] => return Err(usage()),
        [_, extra, ..] => {
            return Err(format!("unexpected extra argument {extra:?}\n{}", usage()))
        }
    };

    let mut spec = load_search(selector)?;
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
    let scenario = load(selector)?;
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
