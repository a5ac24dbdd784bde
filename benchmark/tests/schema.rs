//! The names, units and limits of `BENCHMARK.json`, and the shape of the
//! line the driver reads.

use rh_benchmark::json::Json;
use rh_benchmark::metrics::{self, Def};
use rh_benchmark::output;
use rh_benchmark::workloads::rbtree::{self, TreeSpec};

fn name_ok(name: &str) -> bool {
    let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first && name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn all_defs() -> Vec<Def> {
    metrics::end_to_end().into_iter().chain(metrics::per_layer()).collect()
}

#[test]
fn every_name_and_unit_is_inside_the_contract() {
    let mut seen = std::collections::BTreeSet::new();
    for def in all_defs() {
        assert!(name_ok(&def.name), "name {:?}", def.name);
        assert!(unit_ok(def.unit), "unit {:?} of {}", def.unit, def.name);
        assert!(seen.insert(def.name.clone()), "{} is used twice", def.name);
    }
    for w in metrics::WORKLOADS {
        assert!(name_ok(w.name), "workload {:?}", w.name);
        assert!(seen.insert(w.name.to_string()), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {} is {} characters",
            w.name,
            w.why.len()
        );
    }
}

#[test]
fn counts_and_bounds_are_inside_the_contract() {
    let end_to_end = metrics::end_to_end();
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&metrics::per_layer().len()));
    assert!((2..=8).contains(&metrics::WORKLOADS.len()));
    assert!((1..=60).contains(&metrics::RUN_SECONDS));
    for def in &end_to_end {
        let bound = def.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} has bound {bound}", def.name);
    }
    let setup = end_to_end.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", metrics::Better::Lower));
    let largest = end_to_end.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    assert!(metrics::per_layer().iter().all(|d| d.bound.is_none()));
    assert!(metrics::manifest().pretty().len() <= 64 * 1024);
}

#[test]
fn the_manifest_has_exactly_the_keys_the_driver_reads() {
    let manifest = metrics::manifest();
    let keys: Vec<&str> = manifest.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let keys_of = |section: &str| -> Vec<Vec<String>> {
        manifest
            .get(section)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect())
            .collect()
    };
    assert!(keys_of("workloads").iter().all(|k| k == &["name", "why"]));
    assert!(keys_of("end_to_end").iter().all(|k| k == &["name", "unit", "better", "bound"]));
    assert!(keys_of("per_layer").iter().all(|k| k == &["name", "unit", "better"]));
    assert_eq!(Json::parse(&manifest.pretty()).unwrap(), manifest, "the manifest survives its own parser");
}

/// The committed file is printed from the tables; when the repository
/// around the benchmark is present the two must agree.
#[test]
fn the_root_benchmark_json_is_the_printed_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    if let Ok(text) = std::fs::read_to_string(path) {
        assert_eq!(
            Json::parse(&text).unwrap(),
            metrics::manifest(),
            "regenerate with benchmark/run.sh manifest"
        );
    }
}

#[test]
fn the_driver_line_has_exactly_the_contract_keys() {
    if rh_benchmark::surface::INSTRUMENTED {
        return; // free-running workloads refuse the controlled build
    }
    let outcome = rbtree::run(TreeSpec::read(), 7, 0.02);
    let defs = output::defs(false);
    let line = output::driver_line(&outcome, &defs);
    assert!(!line.contains('\n'));
    let parsed = Json::parse(&line).unwrap();
    let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    assert!(parsed.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(parsed.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, defs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>());
    for ((_, metric), def) in metrics.iter().zip(&defs) {
        assert!(metric.get("value").unwrap().as_f64().unwrap() > 0.0, "{} is never 0", def.name);
        assert_eq!(metric.get("unit").unwrap().as_str(), Some(def.unit));
    }
}
