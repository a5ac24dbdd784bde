//! What a run prints: every metric by name with unit and currency for a
//! reader, and JSON for the driver and for `compare`.

use crate::json::Json;
use crate::metrics::{self, Def};
use crate::report::{Measured, Outcome};
use crate::surface::{INSTRUMENTED, INTERLEAVE_ACCESSES};
use crate::util;

pub const SCHEMA: &str = "rh-benchmark/1";

/// The build this binary is: `free` has every hook compiled out.
pub fn build_name() -> &'static str {
    if INSTRUMENTED {
        "controlled"
    } else {
        "free"
    }
}

/// Facts every result is stamped with.
pub fn config(seed: u64, seconds: f64, trace: bool) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(util::nproc() as f64)),
        ("interleave_accesses", Json::Num(INTERLEAVE_ACCESSES as f64)),
        ("git_revision", Json::str(util::git_revision())),
        // The repository holds no machine-readable reference results (the
        // paper's numbers come from a real 16-thread i7-5960X), so no
        // error figure is given for any modeled number.
        ("model", Json::str("unvalidated")),
    ])
}

/// The definitions `outcome`'s metrics are checked against, in order.
pub fn defs(trace: bool) -> Vec<Def> {
    if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// The build that measured `outcome`: this one unless it says otherwise.
fn build_of(outcome: &Outcome) -> &str {
    if outcome.build.is_empty() {
        build_name()
    } else {
        &outcome.build
    }
}

fn value_of<'a>(outcome: &'a Outcome, def: &Def) -> Option<&'a Measured> {
    outcome.get(&def.name).filter(|m| m.value.is_finite())
}

/// Whether every metric of `defs` was measured and nothing failed.
pub fn correct(outcome: &Outcome, defs: &[Def]) -> bool {
    outcome.correct() && defs.iter().all(|d| value_of(outcome, d).is_some())
}

/// The table a reader sees: one line per metric.
pub fn table(workload: &str, outcome: &Outcome, defs: &[Def], header: &Json) -> String {
    let build = build_of(outcome);
    let mut s = format!(
        "# workload {workload}  build {build}  instrumented {}  {}\n",
        build == "controlled",
        header.compact()
    );
    for note in &outcome.notes {
        s.push_str(&format!("# {note}\n"));
    }
    for error in &outcome.tally.errors {
        s.push_str(&format!("# FAILED {error}\n"));
    }
    // One name is one kind of quantity on every workload; what exactly is
    // measured differs, so each run says it. (`#=`: a parent process does
    // not take these lines for a child's notes.)
    for d in defs {
        let meaning = metrics::meaning(workload, &d.name);
        if !meaning.is_empty() {
            s.push_str(&format!("#= {}: {meaning}\n", d.name));
        }
    }
    for d in defs {
        let bound = d.bound.map_or(String::new(), |b| format!("  may worsen {:.1}%", b * 100.0));
        let exact = if d.exact { "  exact" } else { "" };
        match value_of(outcome, d) {
            Some(m) if m.samples.len() > 1 => s.push_str(&format!(
                "{:<40} {:>16.4} {:<9} {:<8} {} better  median of {} [{:.4} .. {:.4}]{bound}{exact}\n",
                d.name,
                m.value,
                d.unit,
                d.currency.label(),
                d.better.label(),
                m.samples.len(),
                m.min(),
                m.max()
            )),
            Some(m) => s.push_str(&format!(
                "{:<40} {:>16.4} {:<9} {:<8} {} better{bound}{exact}\n",
                d.name,
                m.value,
                d.unit,
                d.currency.label(),
                d.better.label()
            )),
            None => s.push_str(&format!("{:<40} {:>16} {:<9} not measured\n", d.name, "-", d.unit)),
        }
    }
    s.push_str(&format!("ops_attempted {}  ops_failed {}\n", outcome.tally.attempted, outcome.tally.failed));
    s
}

/// The last line of a run, key for key as the driver reads it.
pub fn driver_line(outcome: &Outcome, defs: &[Def]) -> String {
    let metrics = defs.iter().map(|d| {
        let value = value_of(outcome, d).map_or(0.0, |m| m.value);
        (d.name.clone(), Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(correct(outcome, defs))),
        ("attempted", Json::Num(outcome.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

/// One workload's entry in a full-pass document, samples included.
pub fn full_entry(outcome: &Outcome, defs: &[Def]) -> Json {
    let metrics = defs.iter().filter_map(|d| {
        let m = value_of(outcome, d)?;
        Some((
            d.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(d.unit)),
                ("currency", Json::str(d.currency.label())),
                ("samples", Json::Arr(m.samples.iter().map(|s| Json::Num(*s)).collect())),
            ]),
        ))
    });
    let build = build_of(outcome);
    Json::obj([
        ("build", Json::str(build)),
        ("instrumented", Json::Bool(build == "controlled")),
        ("correct", Json::Bool(correct(outcome, defs))),
        ("ops_attempted", Json::Num(outcome.tally.attempted as f64)),
        ("ops_failed", Json::Num(outcome.tally.failed as f64)),
        ("errors", Json::Arr(outcome.tally.errors.iter().map(Json::str).collect())),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Rebuilds an [`Outcome`] from a [`full_entry`] another process printed.
pub fn outcome_from(entry: &Json) -> Result<Outcome, String> {
    let build = entry.get("build").and_then(Json::as_str).unwrap_or_default().to_string();
    let mut outcome = Outcome { build, ..Outcome::default() };
    let number = |key: &str| entry.get(key).and_then(Json::as_f64).ok_or(format!("no {key} in the entry"));
    outcome.tally.attempted = number("ops_attempted")? as u64;
    outcome.tally.failed = number("ops_failed")? as u64;
    for error in entry.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
        outcome.tally.errors.push(error.as_str().unwrap_or_default().to_string());
    }
    for (name, metric) in entry.get("metrics").and_then(Json::as_obj).ok_or("no metrics in the entry")? {
        let value = metric.get("value").and_then(Json::as_f64).ok_or(format!("{name} has no value"))?;
        let samples = metric
            .get("samples")
            .and_then(Json::as_arr)
            .map_or_else(|| vec![value], |a| a.iter().filter_map(Json::as_f64).collect());
        outcome.push(Measured { name: name.clone(), value, samples });
    }
    Ok(outcome)
}
