//! Metric assembly and the result line.

use crate::traced::{self, SearchSpans, TracedPass, TracedSet, TrialRecord};
use crate::workloads::{self, JobSet, Pass, Prepared, Workload, WORKERS};
use crate::{counted_pass, peak_rss_mb, untraced_loop, Args, Loop};
use radio_sim::topology::{self, RggParams};
use scenario::prelude::*;
use std::time::Instant;

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("trials_per_s", "1/s"),
    ("node_rounds_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("trial_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("topology.edges", "count"),
    ("timeline.build_ms", "ms"),
    ("runner.new_ms", "ms"),
    ("runner.new_count", "count"),
    ("engine.new_us", "us"),
    ("engine.step_ns_per_node_round", "ns"),
    ("engine.self_share", "ratio"),
    ("scheduler.calls", "count"),
    ("scheduler.ns_per_call", "ns"),
    ("scheduler.edges_per_call", "count"),
    ("scheduler.share_of_step", "ratio"),
    ("resolve.ns_per_round", "ns"),
    ("rng.ns_per_coin", "ns"),
    ("process.transmit_ns", "ns"),
    ("process.receive_ns", "ns"),
    ("process.calls", "count"),
    ("process.share_of_step", "ratio"),
    ("spec.check_us_per_trial", "us"),
    ("spec.share_of_trial", "ratio"),
    ("pool.utilization", "ratio"),
    ("pool.wait_ms", "ms"),
    ("search.propose_ms", "ms"),
    ("search.generations", "count"),
    ("net.step_ns_per_node_round", "ns"),
    ("net.transport_ns_per_round", "ns"),
    ("net.delivered", "count"),
    ("net.lost", "count"),
    ("channel.transmissions", "count"),
    ("channel.deliveries", "count"),
    ("channel.collisions", "count"),
    ("alloc.count_per_node_round", "count"),
    ("alloc.bytes_per_node_round", "B"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.trials", "count"),
    ("trace.node_rounds", "count"),
    ("failed_trial_share", "ratio"),
];

/// One reported value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's result: info lines, then the JSON result line.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64) -> Report {
        Report {
            workload,
            seed,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    pub fn info(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records `name` with the unit its table gives it.
    fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// The JSON result line. Non-finite values (a ratio over an empty
    /// base) print as 0 so the line always parses.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self) {
        for l in &self.lines {
            println!("# {} seed {}: {l}", self.workload.name(), self.seed);
        }
        println!("{}", self.json());
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The quantile of a job's host times over the passes that stands for
/// its cost: the lower decile. Host interference on a shared machine
/// only ever adds time, and comes in bursts of seconds, so a job's fast
/// decile is its cost with the host quiet; its median moved with the
/// bursts (registry throughput spread 8% over seeds, against 4%).
pub const JOB_QUANTILE: f64 = 0.1;

/// The end-to-end metrics of an untraced loop.
pub fn end_to_end(l: &Loop, setup_times: &[f64], r: &mut Report) {
    // Each trial job (each search, for `search`) recurs once per pass:
    // its host time per trial is its lower decile over the passes. p50/p90
    // are taken over the jobs; throughput is the pass's work over the sum
    // of the per-job deciles (one worker, so the jobs of a pass run back
    // to back).
    let jobs = l.passes[0].trial_ns.len();
    let samples: Vec<f64> = (0..jobs)
        .map(|j| {
            let times: Vec<f64> = l.passes.iter().map(|p| p.trial_ns[j] as f64).collect();
            percentile(&times, JOB_QUANTILE) / 1e6
        })
        .collect();
    let first = &l.passes[0];
    let pass_s = samples.iter().sum::<f64>() * (first.trials as f64 / jobs as f64) / 1e3;
    let (what, per) = if r.workload == Workload::Search {
        ("searches (pool time per trial)", "search")
    } else {
        ("trial jobs", "job")
    };
    r.info(format!(
        "trial_ms: {jobs} {what} × {} passes; p50/p90 over the per-{per} lower deciles; \
         pass of decile jobs {:.2} ms",
        l.passes.len(),
        pass_s * 1e3
    ));
    r.set(END_TO_END, "trials_per_s", first.trials as f64 / pass_s);
    r.set(END_TO_END, "node_rounds_per_s", first.node_rounds as f64 / pass_s);
    r.set(END_TO_END, "trial_ms_p50", percentile(&samples, 0.5));
    r.set(END_TO_END, "trial_ms_p90", percentile(&samples, 0.9));
    r.set(END_TO_END, "setup_s", percentile(setup_times, 0.5));
    r.set(END_TO_END, "peak_rss_mb", peak_rss_mb());
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Set-up spans of one traced set-up.
#[derive(Default)]
struct SetupSpans {
    topology_ns: u64,
    edges: u64,
    timeline_ns: u64,
    runner_ns: u64,
    runners: u64,
}

/// The RGG parameters `ScenarioRunner::new` hands the mobility timeline.
fn mobility_params(s: &Scenario) -> Option<RggParams> {
    match s.topology {
        TopologySpec::RandomGeometric {
            n,
            side,
            r,
            grey_reliable_p,
            grey_unreliable_p,
            seed,
        } => Some(RggParams {
            n,
            side,
            r,
            grey_reliable_p,
            grey_unreliable_p,
            seed,
        }),
        TopologySpec::ConstantDensity {
            n,
            density,
            r,
            seed,
        } => Some(RggParams {
            n,
            side: topology::constant_density_side(n, density),
            r,
            grey_reliable_p: 0.0,
            grey_unreliable_p: 1.0,
            seed,
        }),
        _ => None,
    }
}

/// Times the layers a set-up calls into, from outside: each scenario's
/// `TopologySpec::build`, its mobility timeline, and `ScenarioRunner::new`.
fn traced_setup(scenarios: Vec<Scenario>, spans: &mut SetupSpans) -> Result<JobSet, String> {
    for s in &scenarios {
        let t = Instant::now();
        let topo = s.topology.build();
        spans.topology_ns += t.elapsed().as_nanos() as u64;
        spans.edges += (topo.graph.reliable_edges().len() + topo.graph.extra_edges().len()) as u64;
        if let (Some(m), Some(params)) = (&s.mobility, mobility_params(s)) {
            let horizon = s.stop.horizon_rounds().unwrap_or(0);
            let t = Instant::now();
            topology::random_geometric_timeline(
                params,
                m.speed,
                m.epoch_rounds,
                m.epochs_for(horizon) as usize,
            )
            .map_err(|e| format!("timeline: {e}"))?;
            spans.timeline_ns += t.elapsed().as_nanos() as u64;
        }
    }
    let t = Instant::now();
    let set = JobSet::new(scenarios).map_err(|e| e.to_string())?;
    spans.runner_ns += t.elapsed().as_nanos() as u64;
    spans.runners += set.runners.len() as u64;
    Ok(set)
}

/// Per-layer sums over every traced trial.
#[derive(Default)]
struct Sums {
    trials: u64,
    trial_ns: u64,
    node_rounds: u64,
    named_ns: u64,
    engine_new_ns: u64,
    engine_news: u64,
    step_ns: u64,
    engine_node_rounds: u64,
    engine_proc: traced::ProcStats,
    engine_sched_ns: u64,
    amac_ns: u64,
    net_step_ns: u64,
    net_node_rounds: u64,
    proc: traced::ProcStats,
    sched_ns: u64,
    sched_calls: u64,
    sched_edges: u64,
    net: traced::NetStats,
    spec_ns: u64,
    resolve_ns: u64,
    resolve_rounds: u64,
}

impl Sums {
    fn add(&mut self, r: &TrialRecord) {
        self.trials += 1;
        self.trial_ns += r.trial_ns;
        self.node_rounds += r.node_rounds;
        self.named_ns +=
            r.engine_new_ns + r.step_ns + r.amac_ns + r.net_new_ns + r.net_step_ns + r.spec_ns;
        let on_engine = r.step_ns > 0;
        if on_engine {
            self.engine_new_ns += r.engine_new_ns;
            self.engine_news += r.engine_news;
            self.engine_proc.add(&r.proc);
            self.engine_sched_ns += r.sched_ns;
        }
        self.step_ns += r.step_ns;
        self.engine_node_rounds += r.engine_node_rounds;
        self.amac_ns += r.amac_ns;
        self.net_step_ns += r.net_step_ns;
        self.net_node_rounds += r.net_node_rounds;
        self.proc.add(&r.proc);
        self.sched_ns += r.sched_ns;
        self.sched_calls += r.sched_calls;
        self.sched_edges += r.sched_edges;
        self.net.ns += r.net.ns;
        self.net.calls += r.net.calls;
        self.net.delivered += r.net.delivered;
        self.net.lost += r.net.lost;
        self.spec_ns += r.spec_ns;
        self.resolve_ns += r.resolve_ns;
        self.resolve_rounds += r.resolve_rounds;
    }
}

/// One span line: coarse spans carry their start; per-call layers are
/// aggregated per trial and carry a total and a call count instead.
fn span_lines(records: &[(String, TrialRecord)], out: &mut String) {
    use std::fmt::Write;
    for (id, (scenario, r)) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"trial\", \"parent\": null, \"scenario\": \"{scenario}\", \
             \"trial\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            r.trial,
            r.start_ns,
            r.start_ns + r.trial_ns
        );
        let children = [
            ("engine.new", "trial", r.engine_new_ns, r.engine_news),
            ("engine.step", "trial", r.step_ns, u64::from(r.step_ns > 0)),
            ("amac.flood", "trial", r.amac_ns, u64::from(r.amac_ns > 0)),
            (
                "net.new",
                "trial",
                r.net_new_ns,
                u64::from(r.net_new_ns > 0),
            ),
            (
                "net.step",
                "trial",
                r.net_step_ns,
                u64::from(r.net_step_ns > 0),
            ),
            ("spec.check", "trial", r.spec_ns, u64::from(r.spec_ns > 0)),
            (
                "process.transmit",
                "engine.step",
                r.proc.transmit_ns,
                r.proc.transmit_calls,
            ),
            (
                "process.receive",
                "engine.step",
                r.proc.receive_ns,
                r.proc.receive_calls,
            ),
            (
                "process.other",
                "engine.step",
                r.proc.other_ns,
                r.proc.other_calls,
            ),
            ("scheduler", "engine.step", r.sched_ns, r.sched_calls),
            ("net.transport", "net.step", r.net.ns, r.net.calls),
        ];
        for (name, parent, total, count) in children {
            if count > 0 {
                let _ = writeln!(
                    out,
                    "{{\"id\": {id}, \"name\": \"{name}\", \"parent\": \"{parent}\", \
                     \"total_ns\": {total}, \"count\": {count}}}"
                );
            }
        }
    }
}

/// Where the traced run writes its spans: next to the build output.
fn spans_path(w: Workload) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir).join(format!("perfbench-spans-{}.jsonl", w.name()))
}

/// The traced run: an untraced loop for half the time (the overhead
/// baseline), a traced set-up, a traced loop for the other half with
/// the fidelity check on every trial, one allocation-counted pass, and
/// the RNG coin timing. A fidelity mismatch fails the run and reports
/// no layer numbers.
pub fn traced_run(
    args: &Args,
    p: &Prepared,
    reference: &Pass,
    r: &mut Report,
) -> Result<(), String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let plain = untraced_loop(p, reference, half);
    r.attempted += plain.trials();
    r.failed += plain.failed;

    let mut setup = SetupSpans::default();
    let mut search = SearchSpans::default();
    let set = match workloads::scenarios(w, args.seed).map_err(|e| e.to_string())? {
        Some(s) => Some(TracedSet::new(traced_setup(s, &mut setup)?)),
        None => {
            let specs = workloads::search_specs(args.seed).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let topo = specs[0].base.topology.build();
            setup.topology_ns += t.elapsed().as_nanos() as u64;
            setup.edges +=
                (topo.graph.reliable_edges().len() + topo.graph.extra_edges().len()) as u64;
            None
        }
    };

    let epoch = Instant::now();
    let mut sums = Sums::default();
    let mut records: Vec<(String, TrialRecord)> = Vec::new();
    let (mut passes, mut wall_ns, mut busy_ns, mut barriers) = (0u64, 0u64, 0u64, 0u64);
    let mut channel = None;
    let mut mismatched = 0usize;
    while passes == 0 || epoch.elapsed().as_secs_f64() < half {
        let (pass, names): (TracedPass, Vec<String>) = match (&set, p) {
            (Some(ts), Prepared::Jobs(_)) => {
                let pass = traced::traced_pool(ts, epoch);
                for (got, want) in pass.results.iter().zip(&reference.outcomes) {
                    if got.as_ref().map(|(o, _)| o) != want.as_ref() {
                        mismatched += 1;
                    }
                }
                let names = pass
                    .results
                    .iter()
                    .map(|x| {
                        x.as_ref().map_or(String::new(), |(_, rec)| {
                            ts.set.runners[rec.scenario].scenario().name.clone()
                        })
                    })
                    .collect();
                (pass, names)
            }
            (None, Prepared::Search(specs)) => {
                let mut pass = TracedPass {
                    wall_ns: 0,
                    busy_ns: 0,
                    barriers: 0,
                    results: Vec::new(),
                };
                let mut archives = String::new();
                for spec in specs {
                    let (archive, one) = traced::traced_search(spec, epoch, &mut search)
                        .map_err(|e| e.to_string())?;
                    archives.push_str(&archive.to_json());
                    pass.wall_ns += one.wall_ns;
                    pass.busy_ns += one.busy_ns;
                    pass.barriers += one.barriers;
                    pass.results.extend(one.results);
                }
                if workloads::fnv(archives.as_bytes()) != reference.digest {
                    mismatched += pass.results.len().max(1);
                }
                let names = pass
                    .results
                    .iter()
                    .map(|x| {
                        x.as_ref()
                            .map_or(String::new(), |(o, _)| format!("seed-{}", o.master_seed))
                    })
                    .collect();
                (pass, names)
            }
            _ => unreachable!("set-up kind matches the prepared kind"),
        };
        passes += 1;
        wall_ns += pass.wall_ns;
        busy_ns += pass.busy_ns;
        barriers += pass.barriers;
        r.attempted += pass.results.len();
        mismatched += pass.results.iter().filter(|x| x.is_none()).count();
        channel.get_or_insert_with(|| {
            workloads::channel_totals(pass.results.iter().flatten().map(|(o, _)| o))
        });
        for (x, name) in pass.results.into_iter().zip(names) {
            if let Some((_, rec)) = x {
                sums.add(&rec);
                records.push((name, rec));
            }
        }
    }
    r.info(format!(
        "traced: {passes} passes, {} trials, {barriers} pool barriers, {mismatched} fidelity mismatches",
        sums.trials
    ));
    if mismatched > 0 {
        r.failed += mismatched;
        r.correct = false;
        r.info(
            "FIDELITY: traced executions differ from the untraced ones; no layer numbers".into(),
        );
        return Ok(());
    }

    let (allocs, alloc_bytes, counted_node_rounds) = counted_pass(p);
    let coin_ns = traced::rng_ns_per_coin(args.seed);
    let clock = traced::clock_ns();
    let (tx_ns, rx_ns, _) = sums.proc.per_call(clock);
    r.info(format!(
        "clock reads: {clock:.1} ns per timed call, subtracted from process means"
    ));

    let mut spans = String::new();
    span_lines(&records, &mut spans);
    let path = spans_path(w);
    match std::fs::write(&path, spans) {
        Ok(()) => r.info(format!(
            "spans: {} trials written to {}",
            records.len(),
            path.display()
        )),
        Err(e) => r.info(format!("spans not written ({}): {e}", path.display())),
    }

    let pf = passes as f64;
    let (runner_ns, runners) = if set.is_some() {
        (setup.runner_ns as f64, setup.runners as f64)
    } else {
        (
            search.runner_new_ns as f64 / pf,
            search.runner_news as f64 / pf,
        )
    };
    let untraced_pass_ns = plain.wall_ns() as f64 / plain.passes.len() as f64;
    let channel = channel.unwrap_or_default();
    let t = PER_LAYER;
    r.set(t, "topology.build_ms", setup.topology_ns as f64 / 1e6);
    r.set(t, "topology.edges", setup.edges as f64);
    r.set(t, "timeline.build_ms", setup.timeline_ns as f64 / 1e6);
    r.set(t, "runner.new_ms", runner_ns / 1e6);
    r.set(t, "runner.new_count", runners);
    r.set(
        t,
        "engine.new_us",
        ratio(sums.engine_new_ns as f64, sums.engine_news as f64) / 1e3,
    );
    r.set(
        t,
        "engine.step_ns_per_node_round",
        ratio(sums.step_ns as f64, sums.engine_node_rounds as f64),
    );
    r.set(
        t,
        "engine.self_share",
        ratio(
            sums.step_ns as f64 - sums.engine_proc.est_ns(clock) - sums.engine_sched_ns as f64,
            sums.step_ns as f64,
        ),
    );
    r.set(t, "scheduler.calls", sums.sched_calls as f64 / pf);
    r.set(
        t,
        "scheduler.ns_per_call",
        ratio(sums.sched_ns as f64, sums.sched_calls as f64),
    );
    r.set(
        t,
        "scheduler.edges_per_call",
        ratio(sums.sched_edges as f64, sums.sched_calls as f64),
    );
    r.set(
        t,
        "scheduler.share_of_step",
        ratio(sums.sched_ns as f64, (sums.step_ns + sums.amac_ns) as f64),
    );
    r.set(
        t,
        "resolve.ns_per_round",
        ratio(sums.resolve_ns as f64, sums.resolve_rounds as f64),
    );
    r.set(t, "rng.ns_per_coin", coin_ns);
    r.set(t, "process.transmit_ns", tx_ns);
    r.set(t, "process.receive_ns", rx_ns);
    r.set(t, "process.calls", sums.proc.calls() as f64 / pf);
    r.set(
        t,
        "process.share_of_step",
        ratio(
            sums.proc.est_ns(clock),
            (sums.step_ns + sums.net_step_ns) as f64,
        ),
    );
    r.set(
        t,
        "spec.check_us_per_trial",
        ratio(sums.spec_ns as f64, sums.trials as f64) / 1e3,
    );
    r.set(
        t,
        "spec.share_of_trial",
        ratio(sums.spec_ns as f64, sums.trial_ns as f64),
    );
    r.set(
        t,
        "pool.utilization",
        ratio(busy_ns as f64, (WORKERS as u64 * wall_ns) as f64),
    );
    r.set(
        t,
        "pool.wait_ms",
        (WORKERS as f64 * wall_ns as f64 - busy_ns as f64).max(0.0) / pf / 1e6,
    );
    r.set(t, "search.propose_ms", search.propose_ns as f64 / pf / 1e6);
    r.set(t, "search.generations", search.generations as f64 / pf);
    r.set(
        t,
        "net.step_ns_per_node_round",
        ratio(sums.net_step_ns as f64, sums.net_node_rounds as f64),
    );
    r.set(
        t,
        "net.transport_ns_per_round",
        ratio(sums.net.ns as f64, sums.net.calls as f64),
    );
    r.set(t, "net.delivered", sums.net.delivered as f64 / pf);
    r.set(t, "net.lost", sums.net.lost as f64 / pf);
    r.set(t, "channel.transmissions", channel.transmitters as f64);
    r.set(t, "channel.deliveries", channel.deliveries as f64);
    r.set(t, "channel.collisions", channel.collisions as f64);
    r.set(
        t,
        "alloc.count_per_node_round",
        ratio(allocs as f64, counted_node_rounds as f64),
    );
    r.set(
        t,
        "alloc.bytes_per_node_round",
        ratio(alloc_bytes as f64, counted_node_rounds as f64),
    );
    r.set(
        t,
        "trace.overhead_share",
        wall_ns as f64 / pf / untraced_pass_ns - 1.0,
    );
    r.set(
        t,
        "trace.coverage",
        ratio(sums.named_ns as f64, sums.trial_ns as f64),
    );
    r.set(t, "trace.trials", sums.trials as f64);
    r.set(t, "trace.node_rounds", sums.node_rounds as f64);
    r.set(
        t,
        "failed_trial_share",
        ratio(r.failed as f64, r.attempted as f64),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(charset_ok(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in Workload::ALL {
            assert!(charset_ok(w.name()));
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut r = Report::new(Workload::Registry, 1);
        for (name, _) in END_TO_END {
            r.set(END_TO_END, name, 1.5);
        }
        r.set(PER_LAYER, "trace.coverage", f64::NAN);
        let line = r.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        assert!(line.contains("\"trace.coverage\": {\"value\": 0, "));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
