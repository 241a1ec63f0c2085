//! `scenario audit` end to end: a trace saved by `scenario --save-trace`
//! re-checks clean against the scenario it came from, an edited trace
//! fails with exit 1, and scenarios without a static LBAlg execution, or
//! traces naming vertices the scenario lacks, are refused with an error
//! rather than a panic.

use local_broadcast::msg::LbOutput;
use local_broadcast::LbTrace;
use radio_sim::graph::NodeId;
use radio_sim::trace::EventKind;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("scenario binary runs")
}

fn tmp(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    dir.join(name).to_string_lossy().into_owned()
}

/// Saves e5's trial-0 trace under `name`, on the given substrate.
fn save_e5_trace(name: &str, transport: &str) -> String {
    let path = tmp(name);
    let out = scenario(&["e5", "--transport", transport, "--save-trace", &path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn e5_trace_audits_clean_on_both_substrates() {
    for transport in ["sim", "mock-net"] {
        let trace = save_e5_trace(&format!("audit-clean-{transport}.json"), transport);
        let out = scenario(&["audit", "e5", &trace]);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(0), "{transport}: {text}");
        for line in [
            "timely acknowledgment (t_ack = ",
            "validity: OK",
            "reliability: 1/1 broadcasts served all reliable neighbors",
            "progress: ",
        ] {
            assert!(
                text.contains(line),
                "{transport}: missing {line:?} in\n{text}"
            );
        }
    }
}

#[test]
fn an_ack_after_t_ack_fails_the_audit() {
    let path = save_e5_trace("audit-late.json", "sim");
    let mut trace: LbTrace =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let last_round = trace.rounds;
    let ack = trace
        .events
        .iter_mut()
        .find(|e| matches!(&e.kind, EventKind::Output(LbOutput::Ack(_))))
        .expect("e5's trial 0 acks");
    // e5 runs t_ack + t_prog rounds from a round-1 broadcast, so its last
    // round is past the ack deadline.
    ack.round = last_round;
    std::fs::write(&path, serde_json::to_string(&trace).unwrap()).unwrap();

    let out = scenario(&["audit", "e5", &path]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("timely acknowledgment: VIOLATED"), "{text}");
}

#[test]
fn scenarios_without_a_static_lbalg_run_and_foreign_traces_are_refused() {
    let trace = save_e5_trace("audit-refused.json", "sim");
    let saved: LbTrace = serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let edit = |name: &str, change: &dyn Fn(&mut LbTrace)| {
        let mut edited = saved.clone();
        change(&mut edited);
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&edited).unwrap()).unwrap();
        path
    };
    let foreign_node = edit("audit-foreign.json", &|t| t.events[0].node = NodeId(99));
    // Would walk u64::MAX rounds phase by phase.
    let endless = edit("audit-endless.json", &|t| t.rounds = u64::MAX);
    for (selector, path, reason) in [
        ("e1", &trace, "seed-agreement workload"),
        ("mobility", &trace, "geometry epochs"),
        ("e5", &foreign_node, "outside scenario e5's 8 nodes"),
        ("e5", &endless, "(at most 50000000)"),
    ] {
        let out = scenario(&["audit", selector, path]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{selector}: {err}");
        assert!(err.contains(reason), "{selector}: {err}");
        assert!(!err.contains("panicked"), "{selector}: {err}");
    }
}
