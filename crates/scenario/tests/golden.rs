//! Catalog-file tests: the checked-in `scenarios/*.json`,
//! `scenarios/sweeps/*.json` and `scenarios/search/*.json` files are
//! exactly the embedded registry, sweep families and search presets,
//! each in the exact form its `to_json` writes, and every checked-in
//! scenario loads.

use scenario::{registry, search, sweep, Scenario, ScenarioError, SearchSpec, SweepSpec};
use std::fmt::Debug;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// `(file stem, contents)` of every `*.json` file directly under `dir`,
/// sorted by stem.
fn json_files(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            let data = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (stem, data)
        })
        .collect();
    files.sort();
    files
}

/// Asserts `dir` holds one `<name>.json` per registered name (hyphens
/// as underscores) and nothing else, each parsing to the registered
/// entry and re-serializing to its own bytes.
fn assert_exactly_embedded<T: PartialEq + Debug>(
    dir: &Path,
    names: Vec<String>,
    parse: fn(&str) -> Result<T, ScenarioError>,
    find: fn(&str) -> Option<T>,
    to_json: fn(&T) -> String,
) {
    let mut expected: Vec<(String, String)> = names
        .into_iter()
        .map(|n| (n.replace('-', "_"), n))
        .collect();
    expected.sort();
    let files = json_files(dir);
    assert_eq!(
        files.iter().map(|(stem, _)| stem).collect::<Vec<_>>(),
        expected.iter().map(|(stem, _)| stem).collect::<Vec<_>>(),
        "{}: the files and the include_str! lines disagree",
        dir.display()
    );
    for ((stem, data), (_, name)) in files.iter().zip(&expected) {
        let parsed = parse(data).unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        assert_eq!(Some(&parsed), find(name).as_ref(), "{stem}.json");
        assert_eq!(
            &to_json(&parsed),
            data,
            "{stem}.json is not --export output"
        );
    }
}

#[test]
fn catalog_files_are_exactly_the_embedded_set() {
    assert_exactly_embedded(
        &scenarios_dir(),
        registry::names(),
        Scenario::from_json,
        registry::find,
        Scenario::to_json,
    );
    assert_exactly_embedded(
        &scenarios_dir().join("sweeps"),
        sweep::sweep_names(),
        SweepSpec::from_json,
        sweep::find_sweep,
        SweepSpec::to_json,
    );
    assert_exactly_embedded(
        &scenarios_dir().join("search"),
        search::presets().into_iter().map(|p| p.name).collect(),
        SearchSpec::from_json,
        search::find_preset,
        SearchSpec::to_json,
    );
}

#[test]
fn every_checked_in_scenario_loads_and_validates() {
    let files = json_files(&scenarios_dir());
    for (stem, data) in &files {
        let s = Scenario::from_json(data).unwrap_or_else(|e| panic!("{stem}.json: {e}"));
        assert!(!s.name.is_empty());
    }
    assert!(
        files.len() >= 16,
        "expected the 16 registry files, found {}",
        files.len()
    );
}
