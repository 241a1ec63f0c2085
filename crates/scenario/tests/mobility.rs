//! Dynamic-geometry invariants.
//!
//! * A **single-epoch** timeline is byte-identical to the static path:
//!   same trace JSON, same outcomes, whatever the adversary or fault
//!   plan (the load-bearing refactor invariant — all pre-existing
//!   goldens ride on it).
//! * A **parked** (speed 0) multi-epoch timeline with a velocity-0 disc
//!   jam also matches the static path: per-epoch resolution emits
//!   contiguous same-set windows, and jam transitions are edge-triggered
//!   on the per-round mask.
//! * A **moving** jam resolves to genuinely different node sets across
//!   epochs, and mobility trials replay byte-identically.
//! * A mobility runner's deployment *is* its timeline's epoch 0: one
//!   build, shared (not copied) with every configuration.

use proptest::prelude::*;
use radio_sim::graph::DualGraph;
use radio_sim::scheduler::NoExtraEdges;
use scenario::prelude::*;
use scenario::spec::{TopologySpec, WorkloadSpec};

/// A 24-node arena scenario with one of everything the fault machinery
/// injects: a disc jam, a crash with recovery, and a drop burst.
fn arena(topo_seed: u64, base_seed: u64, adv_p: f64, fault_kind: u8) -> ScenarioBuilder {
    let b = ScenarioBuilder::new(
        "arena",
        TopologySpec::RandomGeometric {
            n: 24,
            side: 3.0,
            r: 1.7,
            grey_reliable_p: 0.2,
            grey_unreliable_p: 0.8,
            seed: topo_seed,
        },
        WorkloadSpec::LocalBroadcast {
            epsilon1: 0.25,
            senders: vec![0],
            messages_per_sender: 2,
        },
    )
    .adversary(AdversarySpec::Bernoulli { p: adv_p })
    .stop(StopSpec::Rounds { rounds: 90 })
    .trials(1)
    .base_seed(base_seed);
    // A radius-2.5 disc at the arena center covers every point of the
    // 3x3 square, so resolution never comes up empty.
    match fault_kind % 4 {
        0 => b,
        1 => b.crash(3, 10, Some(30)),
        2 => b
            .jam_disc(1.5, 1.5, 2.5, 5, 70)
            .drop_burst(8, 20, 0.4),
        _ => b
            .jam_nodes(vec![1, 7], 12, 40)
            .crash_restart(5, 6, Some(50)),
    }
}

fn trace_and_outcome(s: Scenario) -> (String, TrialOutcome) {
    let runner = ScenarioRunner::new(s).unwrap();
    (runner.trial_trace_json(0), runner.run_trial(0))
}

#[test]
fn single_epoch_timeline_is_byte_identical_to_the_static_path() {
    let statics = arena(5, 77, 0.5, 2).build().unwrap();
    // epoch_rounds = horizon => one epoch; nonzero speed never gets to
    // move anything because no second epoch is ever built.
    let mobile = arena(5, 77, 0.5, 2).mobility(0.004, 90).build().unwrap();
    let (ts, os) = trace_and_outcome(statics);
    let (tm, om) = trace_and_outcome(mobile.clone());
    assert!(ts.contains("JamStart"), "the fault plan actually fires");
    assert_eq!(ts, tm, "single-epoch trace drifted");
    assert_eq!(os, om, "single-epoch outcome drifted");
    let runner = ScenarioRunner::new(mobile).unwrap();
    let tl = runner.timeline().expect("mobility scenario has a timeline");
    assert!(tl.is_single(), "epoch_rounds = horizon compiles to one epoch");
}

#[test]
fn parked_mobility_with_a_velocity_zero_disc_matches_static() {
    let statics = arena(9, 13, 0.5, 2).build().unwrap();
    // Multi-epoch (30-round epochs over a 90-round horizon) but parked:
    // every epoch re-resolves the same disc against the same embedding,
    // and the contiguous same-set windows are indistinguishable from
    // one long window on the edge-triggered jam mask.
    let parked = arena(9, 13, 0.5, 2).mobility(0.0, 30).build().unwrap();
    let runner = ScenarioRunner::new(parked.clone()).unwrap();
    assert_eq!(runner.timeline().unwrap().num_epochs(), 3);
    assert!(
        runner.fault_plan().jams.len() > 1,
        "per-epoch resolution splits the window"
    );
    let (ts, os) = trace_and_outcome(statics);
    let (tp, op) = trace_and_outcome(parked);
    assert_eq!(ts, tp, "parked multi-epoch trace drifted from static");
    assert_eq!(os, op);
}

#[test]
fn moving_jam_resolves_a_different_node_set_per_epoch() {
    let s = registry::find("mobility").unwrap();
    let runner = ScenarioRunner::new(s).unwrap();
    let tl = runner.timeline().unwrap();
    assert!(tl.num_epochs() > 1, "the registry scenario is multi-epoch");
    let jams = &runner.fault_plan().jams;
    assert!(jams.len() > 1, "one compiled window per overlapped epoch");
    let mut sets: Vec<Vec<u32>> = jams
        .iter()
        .map(|j| j.nodes.iter().map(|v| v.0 as u32).collect())
        .collect();
    sets.dedup();
    assert!(
        sets.len() > 1,
        "a drifting disc over moving nodes must cover different vertices \
         in different epochs: {sets:?}"
    );
}

#[test]
fn mobility_trials_replay_byte_identical() {
    let mut s = registry::find("mobility").unwrap();
    s.trials = 1;
    let a = ScenarioRunner::new(s.clone()).unwrap();
    let b = ScenarioRunner::new(s).unwrap();
    let ta = a.trial_trace_json(0);
    assert!(!ta.is_empty());
    assert_eq!(ta, b.trial_trace_json(0), "fresh runner replay drifted");
    assert_eq!(a.run_trial(0), b.run_trial(0));
}

#[test]
fn one_graph_build_is_shared_by_clones_configurations_and_the_timeline() {
    // Pointer-equal edge storage, not just equal edges: a deep copy
    // passes an `==` check too.
    let shares =
        |a: &DualGraph, b: &DualGraph| a.extra_edges().as_ptr() == b.extra_edges().as_ptr();
    let runner = ScenarioRunner::new(registry::find("mobility").unwrap()).unwrap();
    let topo = runner.topology();
    assert!(
        !topo.graph.extra_edges().is_empty(),
        "every empty list has the same dangling pointer"
    );
    assert!(
        shares(&topo.graph, &topo.graph.clone()),
        "a clone copied the graph"
    );
    let config = topo.configuration(Box::new(NoExtraEdges));
    assert!(
        shares(&config.graph, &topo.graph),
        "configuration copied the graph"
    );
    let epoch0 = runner.timeline().unwrap().epoch_graph(0);
    assert!(
        shares(&topo.graph, epoch0),
        "the runner built epoch 0 twice"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-epoch timelines match the static path across adversary
    /// strengths, fault plans, and node speeds.
    #[test]
    fn single_epoch_equals_static_under_random_settings(
        topo_seed in 0u64..200,
        base_seed in 0u64..500,
        adv_p in 0.1f64..0.9,
        fault_kind in 0u8..4,
        speed in 0.0f64..0.01,
    ) {
        let statics = arena(topo_seed, base_seed, adv_p, fault_kind)
            .build()
            .unwrap();
        let mobile = arena(topo_seed, base_seed, adv_p, fault_kind)
            .mobility(speed, 90)
            .build()
            .unwrap();
        let (ts, os) = trace_and_outcome(statics);
        let (tm, om) = trace_and_outcome(mobile);
        prop_assert_eq!(ts, tm, "single-epoch trace drifted");
        prop_assert_eq!(os, om, "single-epoch outcome drifted");
    }
}
