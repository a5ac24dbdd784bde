//! `rh-benchmark`: see `benchmark/README.md`. `benchmark/run.sh` builds
//! this binary twice (free, and `--features controlled`) and hands the
//! free one the path of the other.

use std::process::{Command, ExitCode, Stdio};

use rh_benchmark::json::Json;
use rh_benchmark::metrics::{self, WORKLOADS};
use rh_benchmark::report::{Measured, Outcome};
use rh_benchmark::sheet::{self, FreeSheet};
use rh_benchmark::surface::INSTRUMENTED;
use rh_benchmark::workloads::kv::{self, ServiceSpec};
use rh_benchmark::workloads::rbtree::{self, TreeSpec};
use rh_benchmark::{compare, output};

const USAGE: &str = "usage:
  rh-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--controlled-bin PATH] [--out DIR]
  rh-benchmark all [--seed N] [--seconds S] [--smoke] [--trace] [--controlled-bin PATH] [--out DIR]
  rh-benchmark compare A.json B.json
  rh-benchmark manifest";

/// `--smoke`: a full pass in under ten seconds.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    controlled_bin: Option<String>,
    out: String,
    /// Internal: print a full entry (samples included) as the last line
    /// instead of the driver's line. Set by a parent `rh-benchmark`.
    full: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        controlled_bin: None,
        out: "benchmark/out".into(),
        full: false,
    };
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        let value = args.get(at + 1);
        let needs = || value.ok_or(format!("{flag} needs a value"));
        // Flags without a value advance by one, the rest by two.
        at += match flag {
            "--smoke" => {
                parsed.seconds = SMOKE_SECONDS;
                1
            }
            "--full" => {
                parsed.full = true;
                1
            }
            // `--trace 0|1` as the driver writes it, or bare `--trace`.
            "--trace" => match value.map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    parsed.trace = v == "1";
                    2
                }
                _ => {
                    parsed.trace = true;
                    1
                }
            },
            "--workload" => {
                parsed.workload = Some(needs()?.clone());
                2
            }
            "--seed" => {
                parsed.seed = needs()?.parse().map_err(|_| "--seed takes a whole number")?;
                2
            }
            "--seconds" => {
                parsed.seconds = needs()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
                2
            }
            "--controlled-bin" => {
                parsed.controlled_bin = Some(needs()?.clone());
                2
            }
            "--out" => {
                parsed.out = needs()?.clone();
                2
            }
            other => return Err(format!("unknown argument {other}")),
        };
    }
    Ok(parsed)
}

/// The untraced pass of one workload in this process. Refuses a build
/// that does not fit: free-running workloads are never measured with the
/// instrumentation compiled in, and `replay` needs it.
fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let wants_controlled = workload == "replay";
    if wants_controlled != INSTRUMENTED {
        return Err(format!(
            "{workload} refuses the {} build (rh_norec::INSTRUMENTED == {INSTRUMENTED})",
            output::build_name()
        ));
    }
    match workload {
        "rbtree-read" => Ok(rbtree::run(TreeSpec::read(), seed, seconds)),
        "rbtree-fallback" => Ok(rbtree::run(TreeSpec::fallback(), seed, seconds)),
        "kv-serve" => Ok(kv::run(ServiceSpec::serve(), seed, seconds)),
        "kv-batch" => Ok(kv::run(ServiceSpec::batch(), seed, seconds)),
        #[cfg(feature = "controlled")]
        "replay" => Ok(rh_benchmark::workloads::replay::run(seed, seconds)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs one workload in a process of its own and reads back the full
/// entry it prints last: in the controlled binary, or in this one again
/// (a full pass does, so that every workload reports its own peak
/// memory, not the highest so far). The child is waited for before this
/// returns.
fn in_child(args: &Args, controlled: bool, workload: &str, trace: bool) -> Result<Outcome, String> {
    let bin = if controlled {
        args.controlled_bin.clone().ok_or("this needs the controlled build: pass --controlled-bin")?
    } else {
        let own = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
        own.to_string_lossy().into_owned()
    };
    let mut command = Command::new(&bin);
    if controlled {
        // Every case spawns three short-lived threads; with glibc's
        // default of one malloc arena per thread, peak memory lands on
        // 16 or 25 MB depending on how they overlap. One arena pins it.
        command.env("MALLOC_ARENA_MAX", "1");
    }
    let child = command
        .args(["run", "--workload", workload, "--full"])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--out", &args.out])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if !child.status.success() {
        return Err(format!("{bin} exited with {}", child.status));
    }
    let text = String::from_utf8_lossy(&child.stdout);
    let last = text.lines().last().ok_or("the child printed nothing")?;
    let mut outcome = output::outcome_from(&Json::parse(last)?)?;
    outcome.notes = text.lines().filter_map(|l| l.strip_prefix("# ")).skip(1).map(str::to_string).collect();
    Ok(outcome)
}

fn note_spans(outcome: &mut Outcome, written: std::io::Result<String>) {
    outcome.notes.push(match written {
        Ok(path) => format!("spans written to {path}"),
        Err(e) => format!("spans not written: {e}"),
    });
}

/// The traced run as the free build sees it: its own rows, then the
/// controlled binary's. Every per-layer metric.
#[cfg(not(feature = "controlled"))]
fn traced(args: &Args, workload: &str) -> Result<Outcome, String> {
    let sheet = FreeSheet::measure(args.seed, args.seconds);
    let overhead = sheet.overhead(workload);
    let spans = sheet.write_spans(workload, &args.out);
    let mut outcome = sheet.outcome;
    if let (Some(pct), Some(written)) = (overhead, spans) {
        outcome.push(Measured::single("trace.overhead_pct", pct));
        note_spans(&mut outcome, written);
    }
    outcome.absorb(in_child(args, true, workload, true)?);
    Ok(outcome)
}

/// The controlled build's share of the traced run.
#[cfg(feature = "controlled")]
fn traced(args: &Args, workload: &str) -> Result<Outcome, String> {
    let sheet = sheet::ControlledSheet::measure(args.seed, args.seconds);
    let selected = (workload == "replay").then(|| (sheet.overhead(), sheet.write_spans(&args.out)));
    let mut outcome = sheet.outcome;
    if let Some((pct, written)) = selected {
        outcome.push(Measured::single("trace.overhead_pct", pct));
        note_spans(&mut outcome, written);
    }
    Ok(outcome)
}

/// One workload, one pass, as the driver runs it.
fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload.as_deref().ok_or("run needs --workload")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let defs = output::defs(args.trace);
    let outcome = if args.trace {
        traced(args, workload)?
    } else if workload == "replay" && !INSTRUMENTED {
        in_child(args, true, workload, false)?
    } else {
        end_to_end(workload, args.seed, args.seconds)?
    };
    // A child prints only the rows of its own build.
    let defs: Vec<_> =
        if args.full { defs.into_iter().filter(|d| outcome.get(&d.name).is_some()).collect() } else { defs };
    print!(
        "{}",
        output::table(workload, &outcome, &defs, &output::config(args.seed, args.seconds, args.trace))
    );
    if args.full {
        println!("{}", output::full_entry(&outcome, &defs).compact());
    } else {
        println!("{}", output::driver_line(&outcome, &defs));
    }
    Ok(ExitCode::SUCCESS)
}

/// All five workloads untraced, then (with `--trace`) the traced run;
/// prints every metric and writes one document for `compare`.
fn all(args: &Args) -> Result<ExitCode, String> {
    if INSTRUMENTED {
        return Err("run the full pass from the free build".into());
    }
    let header = output::config(args.seed, args.seconds, args.trace);
    let e2e = output::defs(false);
    let mut workloads = Vec::new();
    let mut failed = 0;
    for w in &WORKLOADS {
        let outcome = in_child(args, w.name == "replay", w.name, false)?;
        println!("{}", output::table(w.name, &outcome, &e2e, &header));
        failed += outcome.tally.failed;
        workloads.push((w.name, output::full_entry(&outcome, &e2e)));
    }
    let mut doc = vec![
        ("schema", Json::str(output::SCHEMA)),
        ("config", header.clone()),
        ("workloads", Json::obj(workloads)),
    ];
    if args.trace {
        let layers = output::defs(true);
        let sheet = FreeSheet::measure(args.seed, args.seconds);
        let mut overheads = Vec::new();
        for w in sheet::FREE_WORKLOADS {
            overheads.push((w, Json::Num(sheet.overhead(w).unwrap_or(0.0))));
            if let Some(Ok(path)) = sheet.write_spans(w, &args.out) {
                println!("# spans written to {path}");
            }
        }
        let mut outcome = sheet.outcome;
        let controlled = in_child(args, true, "replay", true)?;
        if let Some(m) = controlled.get("trace.overhead_pct") {
            overheads.push(("replay", Json::Num(m.value)));
        }
        outcome.absorb(controlled);
        // One overhead per workload here, printed below the table.
        let layers: Vec<_> = layers.into_iter().filter(|d| d.name != "trace.overhead_pct").collect();
        print!("{}", output::table("per-layer", &outcome, &layers, &header));
        for (w, pct) in &overheads {
            println!(
                "{:<40} {:>16.4} %         host     lower better",
                format!("trace.overhead_pct.{w}"),
                pct.as_f64().unwrap_or(0.0)
            );
        }
        failed += outcome.tally.failed;
        doc.push(("per_layer", output::full_entry(&outcome, &layers)));
        doc.push(("trace_overhead_pct", Json::obj(overheads)));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create {}: {e}", args.out))?;
    let path = format!("{}/run-{}.json", args.out, args.seed);
    std::fs::write(&path, Json::obj(doc).pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\n# full pass written to {path}; ops_failed {failed}");
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, summary) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(ExitCode::from(summary.code()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..]).and_then(|a| run(&a)),
        Some("all") => parse(&args[1..]).and_then(|a| all(&a)),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    };
    result.unwrap_or_else(|why| {
        eprintln!("rh-benchmark: {why}");
        ExitCode::from(2)
    })
}
