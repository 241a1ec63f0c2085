//! `scenario --save-trace` end to end: a single run is the observed
//! one-scenario campaign whether or not `--telemetry` is given, and the
//! saved trial-0 trace records every transmission and reception, for the
//! MAC flood as for the engine workloads.

use local_broadcast::LbTrace;
use radio_sim::trace::EventKind;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    dir.join(name).to_string_lossy().into_owned()
}

/// Runs `scenario` with `args` and returns the saved trace's bytes.
fn save_trace(args: &[&str], path: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .args(["--save-trace", path])
        .output()
        .expect("scenario binary runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn saved_traces_record_the_channel_with_or_without_telemetry() {
    for name in ["e5", "e11"] {
        let plain = save_trace(&[name, "--trials", "1"], &tmp(&format!("save-{name}.json")));
        let journal = tmp(&format!("save-{name}.jsonl"));
        let observed = save_trace(
            &[name, "--trials", "1", "--telemetry", &journal],
            &tmp(&format!("save-{name}-telemetry.json")),
        );
        assert_eq!(plain, observed, "{name}: --telemetry changed the trace");
        let trace: LbTrace = serde_json::from_str(&plain).unwrap();
        let count = |kind: fn(&EventKind<_, _, _>) -> bool| {
            trace.events.iter().filter(|e| kind(&e.kind)).count()
        };
        let transmits = count(|k| matches!(k, EventKind::Transmit));
        let receives = count(|k| matches!(k, EventKind::Receive { .. }));
        assert!(transmits > 0, "{name}: no Transmit events");
        assert!(receives > 0, "{name}: no Receive events");
    }
}
