//! Sweep expansion properties and the sweep/campaign equivalence
//! contract.
//!
//! * Every scenario a valid sweep expands to passes validation, and
//!   the derived names are unique and **stable**: re-expansion is
//!   byte-identical, and permuting an axis's points permutes the grid
//!   without changing any derived scenario (property tests).
//! * A sweep campaign's outcomes are identical to running each
//!   expanded point standalone — same seeds, counts, and channel
//!   totals, and a byte-identical markdown rendering.
//! * Every pinned point of the sweep registry has a blessed golden
//!   file.

use proptest::prelude::*;
use scenario::prelude::*;
use std::path::PathBuf;

fn repo_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(sub)
}

fn base_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(
        "base",
        TopologySpec::Clique { n: 4, r: 1.0 },
        WorkloadSpec::LocalBroadcast {
            epsilon1: 0.25,
            senders: vec![0],
            messages_per_sender: 1,
        },
    )
    .adversary(AdversarySpec::Bernoulli { p: 0.5 })
    .drop_burst(3, 24, 0.5)
    .stop(StopSpec::Rounds { rounds: 48 })
    .trials(2)
    .base_seed(seed)
    .build()
    .unwrap()
}

/// Assembles a valid sweep from drawn primitives: 1–3 axes, 1–3 points
/// each, every point using only overrides that apply to the base.
fn assemble(seed: u64, axis_count: usize, sizes: (usize, usize, usize), sel: usize) -> SweepSpec {
    let sizes = [sizes.0, sizes.1, sizes.2];
    let mk_override = |axis: usize, point: usize| -> Vec<OverrideSpec> {
        match (axis + point + sel) % 6 {
            0 => vec![OverrideSpec::DropP {
                p: 0.1 + 0.2 * point as f64,
            }],
            1 => vec![OverrideSpec::DropLen {
                len: 4 + 7 * point as u64,
            }],
            2 => vec![OverrideSpec::AdversaryP {
                p: 0.1 + 0.3 * point as f64,
            }],
            3 => vec![OverrideSpec::Trials { trials: 1 + point }],
            4 => vec![OverrideSpec::Churn {
                nodes: vec![1 + point % 3],
                period: 12,
                down: 2 + point as u64,
                start: 3,
                until: 40,
                restart: point % 2 == 1,
            }],
            _ => vec![], // the base itself
        }
    };
    SweepSpec {
        name: format!("prop-{seed}"),
        description: "generated".into(),
        base: base_scenario(seed),
        axes: (0..axis_count.clamp(1, 3))
            .map(|a| SweepAxis {
                axis: format!("ax{a}"),
                points: (0..sizes[a].clamp(1, 3))
                    .map(|p| SweepPoint {
                        label: format!("v{p}"),
                        set: mk_override(a, p),
                    })
                    .collect(),
            })
            .collect(),
        trials: None,
        pinned: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every expanded scenario validates, and the derived names are
    /// unique across the grid.
    #[test]
    fn expanded_scenarios_validate_with_unique_names(
        seed in 0u64..10_000,
        axis_count in 1usize..4,
        sizes in (1usize..4, 1usize..4, 1usize..4),
        sel in 0usize..6,
    ) {
        let spec = assemble(seed, axis_count, sizes, sel);
        let grid = spec.expand().expect("assembled sweeps are valid");
        let expected: usize = spec.axes.iter().map(|a| a.points.len()).product();
        prop_assert_eq!(grid.len(), expected);
        let mut names = Vec::new();
        for p in grid.points() {
            prop_assert!(p.scenario.validate().is_ok(), "{:?}", p.scenario.name);
            prop_assert!(p.scenario.name.starts_with("base@"));
            names.push(p.scenario.name.clone());
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), names.len(), "duplicate derived names");
    }

    /// Expansion is deterministic, and permuting an axis's points
    /// permutes the grid without changing any derived scenario: the
    /// (name → scenario) mapping is independent of expansion order.
    #[test]
    fn derived_scenarios_are_stable_across_expansion_order(
        seed in 0u64..10_000,
        axis_count in 1usize..4,
        sizes in (1usize..4, 1usize..4, 1usize..4),
        sel in 0usize..6,
        reversed_axis in 0usize..3,
    ) {
        let spec = assemble(seed, axis_count, sizes, sel);
        let grid = spec.expand().expect("valid");
        let again = spec.expand().expect("valid");
        for (a, b) in grid.points().iter().zip(again.points()) {
            prop_assert_eq!(&a.scenario, &b.scenario, "re-expansion diverged");
            prop_assert_eq!(&a.coords, &b.coords);
        }

        let mut permuted = spec.clone();
        let ax = reversed_axis % permuted.axes.len();
        permuted.axes[ax].points.reverse();
        let permuted_grid = permuted.expand().expect("permuted sweep stays valid");
        prop_assert_eq!(permuted_grid.len(), grid.len());
        for p in grid.points() {
            let q = permuted_grid
                .points()
                .iter()
                .find(|q| q.scenario.name == p.scenario.name)
                .expect("permutation preserves the name set");
            prop_assert_eq!(&p.scenario, &q.scenario, "{:?}", p.scenario.name);
        }
    }
}

#[test]
fn sweep_campaign_outcomes_match_standalone_points() {
    let spec = assemble(7, 2, (2, 2, 1), 0);
    let grid = spec.expand().unwrap();
    let campaign_report = grid.campaign().unwrap().run();
    assert_eq!(campaign_report.reports.len(), grid.len());
    for (point, from_campaign) in grid.points().iter().zip(&campaign_report.reports) {
        assert_eq!(point.scenario.name, from_campaign.scenario.name);
        let solo = ScenarioRunner::new(point.scenario.clone()).unwrap().run();
        assert_eq!(solo.outcomes.len(), from_campaign.outcomes.len());
        for (a, b) in from_campaign.outcomes.iter().zip(&solo.outcomes) {
            assert_eq!(a.master_seed, b.master_seed);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.acks, b.acks);
            assert_eq!(a.recvs, b.recvs);
            assert_eq!(a.first_ack, b.first_ack);
            assert_eq!(a.first_delivery, b.first_delivery);
            assert_eq!(a.totals, b.totals);
        }
        // The per-point tables (hence any rendered report) are
        // byte-identical too.
        let solo_tables: Vec<String> =
            solo.tables().iter().map(|t| t.to_markdown()).collect();
        let campaign_tables: Vec<String> =
            from_campaign.tables().iter().map(|t| t.to_markdown()).collect();
        assert_eq!(solo_tables, campaign_tables);
    }
}

#[test]
fn sweep_report_is_byte_identical_across_thread_counts() {
    let spec = assemble(11, 2, (2, 2, 1), 2);
    let grid = spec.expand().unwrap();
    let md = |threads: usize| {
        let report = grid.campaign().unwrap().threads(threads).run();
        SweepReport::new(&grid, &report).to_markdown()
    };
    let one = md(1);
    assert!(!one.is_empty());
    assert_eq!(one, md(4), "thread count changed the sweep report");
    assert_eq!(one, md(2), "re-run changed the sweep report");
}

#[test]
fn every_pinned_sweep_point_has_a_blessed_golden_file() {
    for spec in sweep::sweeps() {
        let grid = spec.expand().unwrap();
        for name in &spec.pinned {
            let path = repo_dir("scenarios/golden").join(format!("{name}.json"));
            let data = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "{}: {e}; bless with `cargo run --release -p bench --bin \
                     scenario -- sweep {} --bless`",
                    path.display(),
                    spec.name
                )
            });
            let golden = GoldenMetrics::from_json(&data)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(&golden.scenario, name);
            let point = grid
                .points()
                .iter()
                .find(|p| &p.scenario.name == name)
                .expect("pinned names match grid points");
            assert_eq!(
                golden.trials, point.scenario.trials,
                "{}: trial count diverged from the sweep registry",
                path.display()
            );
            assert_eq!(golden.base_seed, point.scenario.base_seed);
        }
    }
}

#[test]
fn points_that_change_no_topology_field_share_one_graph() {
    // Pointer-equal edge storage, not just equal edges: a second build
    // passes an `==` check too.
    let points = sweep::find_sweep("scale-curve")
        .unwrap()
        .expand()
        .unwrap()
        .scenarios();
    let runner = |name: &str| {
        let s = points.iter().find(|s| s.name == name).unwrap();
        ScenarioRunner::new(s.clone()).unwrap()
    };
    let storage = |r: &ScenarioRunner| r.topology().graph.extra_edges().as_ptr();
    let half = runner("scale@n=1000,adv=0.5");
    let most = runner("scale@n=1000,adv=0.9");
    let bigger = runner("scale@n=2000,adv=0.5");
    assert!(
        !half.topology().graph.extra_edges().is_empty(),
        "every empty list has the same dangling pointer"
    );
    assert_eq!(
        storage(&half),
        storage(&most),
        "one n, two adversaries: two builds"
    );
    assert_ne!(storage(&half), storage(&bigger), "two n shared one graph");
}
