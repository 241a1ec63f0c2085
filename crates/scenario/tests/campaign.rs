//! Campaign determinism and the golden-metric gate's contract.
//!
//! * A campaign's combined markdown report is **byte-identical** across
//!   worker thread counts and across runs.
//! * Golden tolerance comparison is symmetric in its two values and
//!   always accepts the metrics blessed from the same run.
//! * The checked-in `scenarios/golden/*.json` files cover every
//!   registry entry and pin its registered configuration. (The metric
//!   values themselves are re-measured by the CI `campaign --check`
//!   job, which needs a release build.)

use proptest::prelude::*;
use scenario::prelude::*;
use scenario::spec::{TopologySpec, TransportSpec, WorkloadSpec};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/golden")
}

fn tiny(name: &str, seed: u64, drop_p: f64) -> Scenario {
    ScenarioBuilder::new(
        name,
        TopologySpec::Clique { n: 4, r: 1.0 },
        WorkloadSpec::LocalBroadcast {
            epsilon1: 0.25,
            senders: vec![0],
            messages_per_sender: 1,
        },
    )
    .drop_burst(2, 12, drop_p)
    .trials(3)
    .base_seed(seed)
    .build()
    .unwrap()
}

fn tiny_campaign() -> Vec<Scenario> {
    vec![tiny("a", 7, 0.25), tiny("b", 23, 0.5), tiny("c", 101, 0.0)]
}

#[test]
fn combined_report_is_byte_identical_across_threads_and_runs() {
    let markdown = |threads: usize| {
        Campaign::new(tiny_campaign())
            .unwrap()
            .threads(threads)
            .run()
            .to_markdown()
    };
    let one = markdown(1);
    let four = markdown(4);
    let again = markdown(4);
    let auto = Campaign::new(tiny_campaign()).unwrap().run().to_markdown();
    assert!(!one.is_empty());
    assert_eq!(one, four, "thread count changed the combined report");
    assert_eq!(four, again, "re-running changed the combined report");
    assert_eq!(one, auto, "default parallelism changed the combined report");
}

#[test]
fn stats_only_campaign_path_still_records_channel_totals() {
    // Campaign trials run under the lean stats-only recording policy;
    // the aggregate channel stats (and the drop-burst fault counters)
    // must still be measured — only the per-event trace is skipped.
    let report = Campaign::new(tiny_campaign()).unwrap().run();
    let drop_scenario = &report.reports[0]; // "a": drop_burst p = 0.25
    for o in &drop_scenario.outcomes {
        assert!(o.totals.transmitters > 0, "transmitter totals recorded");
        assert!(
            o.totals.deliveries + o.totals.dropped > 0,
            "delivery/drop totals recorded"
        );
    }
}

#[test]
fn campaign_handles_base_seed_at_u64_max() {
    // The flattened (scenario, trial) job list derives seeds the same
    // wrapping way as standalone runners.
    let mut s = tiny("wrap", 0, 0.25);
    s.base_seed = u64::MAX;
    let report = Campaign::new(vec![s]).unwrap().run();
    assert_eq!(
        report.reports[0]
            .outcomes
            .iter()
            .map(|o| o.master_seed)
            .collect::<Vec<_>>(),
        vec![u64::MAX, 0, 1],
    );
}

#[test]
fn every_registry_entry_has_a_blessed_golden_file() {
    for s in registry::all() {
        let path = golden_dir().join(format!("{}.json", s.name));
        let data = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}; bless with `cargo run --release -p bench --bin scenario -- \
                 campaign --bless`",
                path.display()
            )
        });
        let golden = GoldenMetrics::from_json(&data)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(golden.scenario, s.name, "{}: wrong scenario", path.display());
        assert_eq!(
            golden.trials, s.trials,
            "{}: trial count diverged from the registry",
            path.display()
        );
        assert_eq!(
            golden.base_seed, s.base_seed,
            "{}: base seed diverged from the registry",
            path.display()
        );
    }
}

#[test]
fn the_lossy_mock_net_scenario_matches_its_golden() {
    // scenarios/transport/ holds mock-net scenarios outside the
    // registry. This one pins the delayed, lossy channel (hop delay,
    // loss, a partition window and a crash) against the metrics blessed
    // before the mock net became the engine's channel.
    let dir = golden_dir().join("../transport");
    let data = std::fs::read_to_string(dir.join("mock_net_lossy.json")).expect("checked in");
    let s = Scenario::from_json(&data).expect("loads and validates");
    assert_eq!(
        s.to_json(),
        data,
        "mock_net_lossy.json is not --export output"
    );
    let TransportSpec::MockNet {
        delay_rounds,
        loss_p,
        partitions,
    } = &s.transport
    else {
        panic!("runs over the mock net");
    };
    assert!(*delay_rounds >= 1 && *loss_p > 0.0 && !partitions.is_empty());
    assert!(!s.faults.crashes.is_empty());
    let path = golden_dir().join(format!("{}.json", s.name));
    let golden = GoldenMetrics::from_json(&std::fs::read_to_string(&path).expect("blessed"))
        .expect("golden parses");
    let check = Campaign::new(vec![s]).unwrap().run().check(&[golden]);
    let failures: Vec<_> = check.failures().collect();
    assert!(failures.is_empty(), "drift: {failures:?}");
}

/// A synthetic report with the given per-trial (first_ack, acks, recvs,
/// spec_ok) measurements — golden blessing/checking is pure arithmetic
/// over these, so no simulation is needed to exercise it.
fn synthetic_report(outcomes: &[(Option<u64>, usize, usize, bool)]) -> ScenarioReport {
    let scenario = tiny("synthetic", 1, 0.0);
    let outcomes = outcomes
        .iter()
        .enumerate()
        .map(|(i, &(first_ack, acks, recvs, spec_ok))| TrialOutcome {
            master_seed: scenario.base_seed.wrapping_add(i as u64),
            rounds: 64,
            acks,
            recvs,
            totals: Default::default(),
            first_ack,
            first_delivery: first_ack,
            stop_satisfied: true,
            max_owners: None,
            jammed_recvs: None,
            clear_recvs: None,
            spec_ok,
        })
        .collect();
    ScenarioReport { scenario, outcomes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `within_tolerance` is symmetric in its two values and reflexive
    /// for any non-negative band.
    #[test]
    fn tolerance_comparison_is_symmetric(
        a in -1.0e6f64..1.0e6,
        b in -1.0e6f64..1.0e6,
        tol in 0.0f64..1.0e4,
    ) {
        let fwd = analysis::report::within_tolerance(a, b, tol);
        let rev = analysis::report::within_tolerance(b, a, tol);
        prop_assert_eq!(fwd, rev);
        prop_assert!(analysis::report::within_tolerance(a, a, tol));
    }

    /// Golden metrics blessed from a report always accept that report,
    /// whatever it measured — including ack-free and all-failed runs —
    /// and survive a JSON round-trip intact.
    #[test]
    fn blessed_golden_accepts_its_own_report(
        acks in proptest::collection::vec(0usize..2_000, 1..6),
        latency_sel in 0u64..500,
        spec_sel in 0usize..8,
    ) {
        let outcomes: Vec<(Option<u64>, usize, usize, bool)> = acks
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let first_ack = (a > 0).then(|| 1 + latency_sel + i as u64);
                (first_ack, a, a * 3, (i + spec_sel) % 3 != 0)
            })
            .collect();
        let report = synthetic_report(&outcomes);
        let golden = GoldenMetrics::from_report(&report);
        let back = GoldenMetrics::from_json(&golden.to_json()).expect("golden roundtrips");
        prop_assert_eq!(&golden, &back);
        let rows = back.check(&report);
        prop_assert!(rows.iter().all(|r| r.ok), "self-check drifted: {:?}", rows);
    }
}
