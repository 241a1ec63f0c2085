//! Hostile command lines and input files end in a usage or field-level
//! error with exit 1 (`scenario validate`) or 2 (everything else) —
//! never a panic (101) or an abort (134).

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn write_tmp(name: &str, data: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, data).unwrap();
    path.to_string_lossy().into_owned()
}

/// Asserts exit `code` with `reason` on stdout or stderr and no panic.
fn assert_refused(out: &Output, code: i32, reason: &str, what: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let text = format!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(code), "{what}: {text}");
    assert!(text.contains(reason), "{what}: no {reason:?} in {text}");
    assert!(!text.contains("panicked"), "{what}: {text}");
}

/// A scenario file: `workload` on a 4-node clique, 100 rounds.
fn clique(workload: &str) -> String {
    format!(
        r#"{{"name": "hostile", "description": "hostile input",
            "topology": {{"Clique": {{"n": 4, "r": 1.0}}}}, "adversary": "AllExtraEdges",
            "faults": {{"crashes": [], "jams": [], "drops": []}}, "workload": {workload},
            "stop": {{"Rounds": {{"rounds": 100}}}}, "trials": 1, "base_seed": 1}}"#
    )
}

/// A sweep file: one point applying `set` to a Decay clique.
fn one_point_sweep(set: &str) -> String {
    let base = clique(r#"{"Decay": {"senders": [0]}}"#);
    format!(
        r#"{{"name": "hostile", "description": "hostile input", "base": {base},
            "axes": [{{"axis": "x", "points": [{{"label": "1", "set": [{set}]}}]}}]}}"#
    )
}

#[test]
fn experiments_rejects_unknown_flags_with_the_usage() {
    for args in [&["--fulll", "E12"][..], &["E12", "--quick"]] {
        let out = run(env!("CARGO_BIN_EXE_experiments"), args);
        assert_refused(&out, 2, "usage: experiments", &format!("{args:?}"));
    }
}

#[test]
fn workloads_past_their_config_bounds_are_field_errors() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    for (file, workload, reason) in [
        (
            "seed-eps",
            r#"{"SeedAgreement": {"epsilon1": 0.5, "seed_bits": 64}}"#,
            "seed-agreement epsilon1 must be in (0, 0.25]",
        ),
        (
            "lb-eps",
            r#"{"LocalBroadcast": {"epsilon1": 0.95, "senders": [0], "messages_per_sender": 1}}"#,
            "local-broadcast epsilon1 must be in (0, 0.5]",
        ),
        (
            "amac-eps",
            r#"{"AmacFlood": {"epsilon1": 0.95, "sources": [0]}}"#,
            "amac-flood epsilon1 must be in (0, 0.5]",
        ),
        (
            "seed-bits",
            r#"{"SeedAgreement": {"epsilon1": 0.25, "seed_bits": 100000000000}}"#,
            "seed_bits must be in [1, 4096]",
        ),
    ] {
        let path = write_tmp(&format!("{file}.json"), &clique(workload));
        assert_refused(&run(scenario, &["validate", &path]), 1, reason, file);
        assert_refused(&run(scenario, &[&path]), 2, reason, file);
        let set = format!(r#"{{"Workload": {{"workload": {workload}}}}}"#);
        let sweep = write_tmp(&format!("{file}-sweep.json"), &one_point_sweep(&set));
        assert_refused(&run(scenario, &["sweep", &sweep]), 2, reason, file);
    }
}

#[test]
fn churn_sweeps_past_the_window_cap_are_refused_before_expanding() {
    let churn = r#"{"Churn": {"nodes": [0, 1, 2, 3], "period": 1, "down": 1, "start": 1,
                              "until": 50000000}}"#;
    let sweep = write_tmp("churn-windows-sweep.json", &one_point_sweep(churn));
    let out = run(env!("CARGO_BIN_EXE_scenario"), &["sweep", &sweep]);
    assert_refused(&out, 2, "200000000 crash windows", "churn");
}
