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

#[test]
fn shards_is_an_unknown_flag_in_every_run_mode() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    for args in [
        &["e5", "--shards", "2"][..],
        &["campaign", "e5", "--shards", "2"],
        &["sweep", "scale-curve", "--shards", "2"],
    ] {
        assert_refused(
            &run(scenario, args),
            2,
            "unknown flag --shards",
            &format!("{args:?}"),
        );
    }
}

#[test]
fn trial_counts_past_the_cap_are_refused_before_allocating() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let e5_file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/e5.json");
    let e5 = std::fs::read_to_string(e5_file).unwrap();
    assert!(e5.contains("\"trials\": 6,"));
    let path = write_tmp(
        "e5-trials.json",
        &e5.replace("\"trials\": 6,", "\"trials\": 10000000,"),
    );
    let per_scenario = "trials must be in [1, 100000], got";
    assert_refused(
        &run(scenario, &["validate", &path]),
        1,
        per_scenario,
        "validate",
    );
    assert_refused(&run(scenario, &[&path]), 2, per_scenario, "file run");
    for args in [
        &["e5", "--trials", "10000000"][..],
        &["sweep", "scale-curve", "--trials", "1000000"],
    ] {
        assert_refused(&run(scenario, args), 2, per_scenario, &format!("{args:?}"));
    }
    // The campaign's sum is checked before any scenario is built.
    for args in [
        &["campaign", "--trials", "1000000"][..],
        &["campaign", "e2", "e5", "--trials", "60000"],
    ] {
        let out = run(scenario, args);
        assert_refused(&out, 2, "more than the cap of 100000", &format!("{args:?}"));
    }
}

#[test]
fn adversaries_that_would_crash_the_run_are_field_errors() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let decay = r#"{"Decay": {"senders": [0]}}"#;
    for (file, adversary, reason) in [
        (
            "alternating-overflow",
            r#"{"Alternating": {"high": 18446744073709551615, "low": 1}}"#,
            "alternating cycle high + low overflows u64",
        ),
        (
            "pump-log-delta",
            r#"{"MaskedPumpAgainstDecay": {"log_delta": 4000000000, "threshold": 0.5}}"#,
            "log_delta must be in [1, 64], got 4000000000",
        ),
    ] {
        let data = clique(decay).replace(r#""AllExtraEdges""#, adversary);
        let path = write_tmp(&format!("{file}.json"), &data);
        assert_refused(&run(scenario, &["validate", &path]), 1, reason, file);
        assert_refused(&run(scenario, &[&path]), 2, reason, file);
        let set = format!(r#"{{"Adversary": {{"adversary": {adversary}}}}}"#);
        let sweep = write_tmp(&format!("{file}-sweep.json"), &one_point_sweep(&set));
        assert_refused(&run(scenario, &["sweep", &sweep]), 2, reason, file);
    }
}

#[test]
fn a_repeated_scenario_field_is_refused() {
    let data = clique(r#"{"Decay": {"senders": [0]}}"#)
        .replace(r#""trials": 1,"#, r#""trials": 6, "trials": 7,"#);
    let path = write_tmp("repeated-trials.json", &data);
    let out = run(env!("CARGO_BIN_EXE_scenario"), &["validate", &path]);
    assert_refused(&out, 1, "duplicate field `trials`", "repeated trials");
}

#[test]
fn a_huge_arena_runs_instead_of_overflowing_the_cell_grid() {
    // 60 nodes over a 1e300-wide square: no pair is in range, and cell
    // indexing must not overflow on the way to finding that out.
    let rgg = r#"{"RandomGeometric": {"n": 60, "side": 1e300, "r": 2.0,
        "grey_reliable_p": 0.1, "grey_unreliable_p": 0.8, "seed": 1}}"#;
    let data =
        clique(r#"{"Decay": {"senders": [0]}}"#).replace(r#"{"Clique": {"n": 4, "r": 1.0}}"#, rgg);
    let path = write_tmp("huge-arena.json", &data);
    let out = run(env!("CARGO_BIN_EXE_scenario"), &[&path]);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(!text.contains("panicked"), "{text}");
}

#[test]
fn a_moving_timeline_past_the_edge_cap_is_refused_before_building() {
    // 4096 moving epochs of about 5.4M G' edges each: every graph fits
    // the cap, the 2.2e10 edges of the timeline do not. Where the shell
    // can set it, the address-space limit turns a regression that starts
    // building into a quick allocation failure, not a host out of memory.
    let rgg = r#"{"RandomGeometric": {"n": 100000, "side": 100.0, "r": 2.0,
        "grey_reliable_p": 0.1, "grey_unreliable_p": 0.8, "seed": 1}}"#;
    let data = clique(r#"{"Decay": {"senders": [0]}}"#)
        .replace(r#"{"Clique": {"n": 4, "r": 1.0}}"#, rgg)
        .replace(r#""rounds": 100"#, r#""rounds": 4096"#)
        .replace(
            r#""base_seed": 1"#,
            r#""base_seed": 1, "mobility": {"speed": 0.01, "epoch_rounds": 1}"#,
        );
    let path = write_tmp("moving-timeline.json", &data);
    let export = write_tmp("moving-timeline-export.json", "");
    let bounded = |args: &[&str]| {
        Command::new("sh")
            .args(["-c", r#"ulimit -v 4194304 2>/dev/null; exec "$@""#, "sh"])
            .arg(env!("CARGO_BIN_EXE_scenario"))
            .args(args)
            .output()
            .expect("sh runs")
    };
    let reason = "in the timeline, more than the cap of 10000000";
    assert_refused(&bounded(&["validate", &path]), 1, reason, "validate");
    assert_refused(&bounded(&[&path]), 2, reason, "run");
    assert_refused(&bounded(&[&path, "--export", &export]), 2, reason, "export");
}
