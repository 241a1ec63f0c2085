//! Replay determinism: identical scenario seeds produce byte-identical
//! traces, fault injection included.

use radio_sim::topology::Topology;
use scenario::{registry, search, sweep, Scenario, ScenarioRunner};
use std::path::PathBuf;

fn load_file(name: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    let data = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    Scenario::from_json(&data).unwrap()
}

/// Two *independent* runner instances replay trial 0 to the same bytes.
fn assert_replay_identical(mut scenario: Scenario) {
    // One trial is enough for the byte-identity contract; keep it quick.
    scenario.trials = 1;
    let name = scenario.name.clone();
    let a = ScenarioRunner::new(scenario.clone()).unwrap();
    let b = ScenarioRunner::new(scenario).unwrap();
    let ta = a.trial_trace_json(0);
    let tb = b.trial_trace_json(0);
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "{name}: replayed trace differs");
}

#[test]
fn churn_scenario_replays_byte_identical() {
    let s = load_file("churn.json");
    assert_replay_identical(s.clone());
    // The trace actually exercises the fault machinery.
    let mut one = s;
    one.trials = 1;
    let trace = ScenarioRunner::new(one).unwrap().trial_trace_json(0);
    assert!(trace.contains("Crash"), "churn trace records crash events");
    assert!(
        trace.contains("Recover"),
        "churn trace records the power-cycle recovery"
    );
}

#[test]
fn jamming_scenario_replays_byte_identical() {
    let s = load_file("jamming_window.json");
    assert_replay_identical(s.clone());
    let mut one = s;
    one.trials = 1;
    let trace = ScenarioRunner::new(one).unwrap().trial_trace_json(0);
    assert!(trace.contains("JamStart") && trace.contains("JamEnd"));
}

#[test]
fn drop_burst_scenario_replays_byte_identical() {
    let s = load_file("drop_burst.json");
    assert_replay_identical(s.clone());
    let mut one = s;
    one.trials = 1;
    let runner = ScenarioRunner::new(one).unwrap();
    let outcome = runner.run_trial(0);
    assert!(
        outcome.totals.dropped > 0,
        "the 50% burst over 60 rounds should drop something"
    );
}

#[test]
fn different_seeds_change_randomized_executions() {
    let mut s = registry::find("drop-burst").unwrap();
    s.trials = 1;
    let a = ScenarioRunner::new(s.clone()).unwrap().trial_trace_json(0);
    s.base_seed ^= 0xDEAD_BEEF;
    let b = ScenarioRunner::new(s).unwrap().trial_trace_json(0);
    assert_ne!(a, b, "seed must select the execution branch");
}

#[test]
fn adaptive_jammer_scenario_is_deterministic() {
    // E8 uses the adaptive scheduler path; it must replay exactly too.
    let mut s = registry::find("e8").unwrap();
    s.stop = scenario::StopSpec::Rounds { rounds: 40 };
    assert_replay_identical(s);
}

#[test]
fn buffer_reuse_does_not_leak_across_executions() {
    // The engine owns reusable per-round scratch buffers, and runners
    // share one Arc'd graph across trials. Interleaving trials on one
    // runner — trial 0, a different trial, trial 0 again — must produce
    // the same bytes as a fresh runner that only ever ran trial 0.
    let mut s = registry::find("drop-burst").unwrap();
    s.trials = 3;
    let reused = ScenarioRunner::new(s.clone()).unwrap();
    let first = reused.trial_trace_json(0);
    let other = reused.trial_trace_json(2);
    let again = reused.trial_trace_json(0);
    assert_ne!(first, other, "distinct trials differ");
    assert_eq!(first, again, "re-running trial 0 on a reused runner drifted");
    let fresh = ScenarioRunner::new(s).unwrap();
    assert_eq!(first, fresh.trial_trace_json(0), "reused vs fresh runner drifted");
}

#[test]
fn memo_built_topologies_equal_fresh_builds() {
    let mut scenarios = registry::all();
    for family in sweep::sweeps() {
        scenarios.extend(family.expand().unwrap().scenarios());
    }
    scenarios.extend(search::presets().into_iter().map(|p| p.base));
    // Alive together, as in a campaign, so runners of equal specs share.
    let runners: Vec<ScenarioRunner> = scenarios
        .into_iter()
        .map(|s| ScenarioRunner::new(s).unwrap())
        .collect();
    let bits = |t: &Topology| -> Vec<u64> {
        let xy = t
            .embedding
            .iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]);
        xy.chain([t.r.to_bits()]).collect()
    };
    let mut checked: Vec<&Topology> = Vec::new();
    for runner in &runners {
        let topo = runner.topology();
        if checked.iter().any(|t| std::ptr::eq(*t, topo)) {
            continue;
        }
        let fresh = runner.scenario().topology.build();
        let name = &runner.scenario().name;
        assert_eq!(topo.graph, fresh.graph, "{name}: graph");
        assert_eq!(bits(topo), bits(&fresh), "{name}: embedding or r");
        checked.push(topo);
    }
    assert!(
        checked.len() < runners.len(),
        "no two runners shared a build"
    );
}
