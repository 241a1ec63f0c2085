//! The named scenario registry: the files under `scenarios/`.
//!
//! Every experiment of the E1–E11 suite is re-expressed as *data*: a
//! representative cell of the experiment's sweep (its topology family,
//! adversary, workload, and horizon) as a [`Scenario`] file runnable by
//! name through the `scenario` binary. The registry also carries the
//! fault-injection scenarios — churn, crash-restart, a jamming window,
//! mobility, a drop burst — that the hard-coded suite could not express
//! at all.
//!
//! The files are the only definition: each is embedded at compile time
//! (one `include_str!` line below, in suite order), parsed and validated
//! once per process, and handed out as clones. Adding an entry means
//! adding its file (often an edited `scenario <neighbour> --export`), its
//! line here, and a blessed golden (`scenario campaign <name> --bless`).
//! The sweep families (`scenarios/sweeps/`, in [`crate::sweep`]) and
//! the search presets (`scenarios/search/`, in [`crate::search`]) are
//! embedded the same way, and one catalog test holds all three
//! directories to exactly their embedded sets.
//!
//! The derived statistics of the original experiments (Wilson intervals,
//! log-fits, per-claim assertions) remain in `analysis::experiments`.

use crate::spec::Scenario;
use std::sync::OnceLock;

/// The registry files, in suite order.
const FILES: &[&str] = &[
    include_str!("../../../scenarios/e1.json"),
    include_str!("../../../scenarios/e2.json"),
    include_str!("../../../scenarios/e3.json"),
    include_str!("../../../scenarios/e4.json"),
    include_str!("../../../scenarios/e5.json"),
    include_str!("../../../scenarios/e6.json"),
    include_str!("../../../scenarios/e7.json"),
    include_str!("../../../scenarios/e8.json"),
    include_str!("../../../scenarios/e9.json"),
    include_str!("../../../scenarios/e10.json"),
    include_str!("../../../scenarios/e11.json"),
    include_str!("../../../scenarios/churn.json"),
    include_str!("../../../scenarios/churn_restart.json"),
    include_str!("../../../scenarios/jamming_window.json"),
    include_str!("../../../scenarios/mobility.json"),
    include_str!("../../../scenarios/drop_burst.json"),
];

/// The parsed registry, built on first use.
fn registry() -> &'static [Scenario] {
    static REGISTRY: OnceLock<Vec<Scenario>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        FILES
            .iter()
            .map(|json| {
                Scenario::from_json(json)
                    .unwrap_or_else(|e| panic!("embedded registry file is invalid: {e}"))
            })
            .collect()
    })
}

/// All registered scenarios, in suite order.
pub fn all() -> Vec<Scenario> {
    registry().to_vec()
}

/// The registered scenario names, in suite order.
pub fn names() -> Vec<String> {
    registry().iter().map(|s| s.name.clone()).collect()
}

/// Looks up a scenario by name (case-insensitive).
pub fn find(name: &str) -> Option<Scenario> {
    registry()
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_the_suite() {
        let names = names();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        for e in 1..=11 {
            assert!(
                names.iter().any(|n| n == &format!("e{e}")),
                "experiment e{e} missing from the registry"
            );
        }
        for extra in ["churn", "jamming-window", "mobility", "drop-burst"] {
            assert!(names.iter().any(|n| n == extra), "{extra} missing");
        }
    }

    #[test]
    fn every_registry_scenario_validates() {
        for s in all() {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.description.is_empty(), "{} lacks a description", s.name);
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("E4").is_some());
        assert!(find("Churn").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn fault_scenarios_actually_inject_faults() {
        for name in ["churn", "jamming-window", "mobility", "drop-burst"] {
            let s = find(name).unwrap();
            assert!(!s.faults.is_empty(), "{name} has an empty fault plan");
        }
    }

    #[test]
    fn mobility_scenario_moves_both_geometry_and_jammer() {
        let s = find("mobility").unwrap();
        let m = s.mobility.expect("mobility scenario declares motion");
        assert!(m.speed > 0.0);
        assert!(m.epochs_for(720) > 1, "multi-epoch by construction");
        assert!(s.faults.jams.iter().any(|j| j.is_moving()));
    }
}
