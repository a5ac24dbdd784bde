//! The binary as the driver and `run.sh` call it: the build guard, the
//! smoke scale, failure accounting and `compare`.

use std::process::Command;
use std::time::Instant;

use rh_benchmark::compare::{self, Summary, Verdict};
use rh_benchmark::json::Json;
use rh_benchmark::metrics;
use rh_benchmark::report::Tally;
use rh_benchmark::surface::INSTRUMENTED;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rh-benchmark"))
}

fn run(workload: &str, seconds: &str) -> std::process::Output {
    bin()
        .args(["run", "--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", "0"])
        .output()
        .expect("the binary runs")
}

/// Each build runs its own workloads at the smoke scale, all of them in
/// under ten seconds, and refuses the other build's.
#[test]
fn smoke_scale_and_build_guard() {
    let started = Instant::now();
    for w in metrics::WORKLOADS {
        let wants_controlled = w.name == "replay";
        let out = run(w.name, "0.5");
        if wants_controlled == INSTRUMENTED {
            assert!(out.status.success(), "{}: {}", w.name, String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8(out.stdout).unwrap();
            let result = Json::parse(text.lines().last().unwrap()).unwrap();
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
            assert!(text.contains(&format!("instrumented {INSTRUMENTED}")), "the output records the build");
            assert!(text.contains("\"interleave_accesses\":0") && text.contains("\"nproc\":"));
        } else {
            assert!(!out.status.success(), "{} must refuse this build", w.name);
            assert!(out.stdout.is_empty(), "a refused run prints no result");
        }
    }
    // The promise is for the optimized build, the only one measured.
    if !cfg!(debug_assertions) {
        assert!(started.elapsed().as_secs() < 10, "smoke took {:?}", started.elapsed());
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in
        [&["run", "--workload", "nope", "--seed", "1"][..], &["run", "--seed", "x"], &["frobnicate"], &[]]
    {
        let out = bin().args(args).output().unwrap();
        assert!(!out.status.success() && out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_failed_phase_counts_all_its_operations_and_the_run_goes_on() {
    let mut tally = Tally::default();
    assert_eq!(tally.phase("fine", 10, || Ok::<_, String>(1)), Some(1));
    assert_eq!(tally.phase("errs", 20, || Err::<(), _>("invariant broken".to_string())), None);
    assert_eq!(tally.phase::<()>("panics", 30, || panic!("boom")), None);
    assert_eq!((tally.attempted, tally.failed), (60, 50));
    assert!(tally.errors[1].contains("panicked: boom"));
    tally.fail("verify", 1_000, "covers everything left".into());
    assert_eq!(tally.failed, 60, "never more failed than attempted");
}

fn metric(value: f64, samples: &[f64]) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("samples", Json::Arr(samples.iter().map(|s| Json::Num(*s)).collect())),
    ])
}

#[test]
fn compare_applies_bounds_exactness_and_spread() {
    let defs = metrics::end_to_end();
    let host = defs.iter().find(|d| d.name == "host_ops_per_s_t1").unwrap();
    let exact = defs.iter().find(|d| d.name == "modeled_cyc_per_op_t1").unwrap();
    let bound = host.bound.unwrap();
    let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
    let a = metric(100.0, &steady);
    let within = metric(100.0 * (1.0 - bound / 2.0), &steady);
    let worse = metric(100.0 * (1.0 - bound * 1.5), &steady);
    let better = metric(150.0, &steady);
    let noisy = metric(100.0, &[60.0, 80.0, 100.0, 120.0, 140.0]);
    assert_eq!(compare::judge(host, Some(&a), Some(&within)).0, Verdict::Within);
    assert_eq!(compare::judge(host, Some(&a), Some(&better)).0, Verdict::Within);
    assert_eq!(compare::judge(host, Some(&a), Some(&worse)).0, Verdict::Regression);
    assert_eq!(compare::judge(host, Some(&a), Some(&noisy)).0, Verdict::Unresolved);
    assert_eq!(compare::judge(host, Some(&a), None).0, Verdict::Missing);
    let e = metric(111.25, &[111.25]);
    assert_eq!(compare::judge(exact, Some(&e), Some(&e)).0, Verdict::Within);
    assert_eq!(
        compare::judge(exact, Some(&e), Some(&metric(111.250001, &[111.250001]))).0,
        Verdict::ExactMismatch
    );

    let doc = |seed: f64, workloads: &[&'static str], m: Json| {
        let metrics = Json::obj(
            defs.iter().map(|d| (d.name.clone(), if d.name == host.name { m.clone() } else { e.clone() })),
        );
        let entry = Json::obj([("ops_failed", Json::Num(0.0)), ("metrics", metrics)]);
        Json::obj([
            ("config", Json::obj([("seed", Json::Num(seed)), ("seconds", Json::Num(10.0))])),
            ("workloads", Json::obj(workloads.iter().map(|w| (*w, entry.clone())))),
        ])
    };
    let all: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
    let verdict = |a: &Json, b: &Json| compare::compare(a, b).expect("same seed and size");
    assert_eq!(verdict(&doc(1.0, &all, a.clone()), &doc(1.0, &all, within)).1, Summary::Within);
    let (report, summary) = verdict(&doc(1.0, &all, a.clone()), &doc(1.0, &all, worse));
    assert!(summary == Summary::Failed && report.contains("REGRESSION"), "{report}");
    // Unresolved is not unchanged: no "within bounds", its own exit code.
    let (report, summary) = verdict(&doc(1.0, &all, a.clone()), &doc(1.0, &all, noisy));
    assert!(summary == Summary::Unresolved && report.contains("UNRESOLVED"), "{report}");
    assert!(!report.contains("within bounds") && summary.code() != 0, "{report}");
    // A run that lost a workload fails.
    let (report, summary) = verdict(&doc(1.0, &all, a.clone()), &doc(1.0, &all[1..], a.clone()));
    assert!(summary == Summary::Failed && report.contains("MISSING"), "{report}");
    // Other inputs, other exact counters: refused, not judged.
    assert!(compare::compare(&doc(1.0, &all, a.clone()), &doc(2.0, &all, a.clone())).is_err());
    // The one derived value is judged at its source only.
    let (report, _) = verdict(&doc(1.0, &all, a.clone()), &doc(1.0, &all, a));
    assert_eq!(report.matches("derived from").count(), metrics::DERIVED.len(), "{report}");
}
