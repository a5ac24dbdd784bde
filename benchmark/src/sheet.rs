//! The traced run: the ladder, the baseline engines, a steal-enabled
//! service variant, and every workload again at reduced size with spans
//! around the driver's calls. It yields every per-layer metric, whatever
//! workload was asked for; the workload only selects whose spans are
//! written and whose tracing overhead is measured.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::ladder;
use crate::metrics::ENGINES;
use crate::report::Outcome;
use crate::spans::{NoProbe, SpanLog, SpanProbe};
use crate::surface::SchedPolicy;
use crate::util;
use crate::workloads::kv::{self, ServiceSpec};
use crate::workloads::rbtree::{self, Reduced, TreeSpec};

/// Share of `--seconds` each workload's reduced pass is sized for.
pub const REDUCED: f64 = 0.1;

pub const FREE_WORKLOADS: [&str; 4] = ["rbtree-read", "rbtree-fallback", "kv-serve", "kv-batch"];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Tracing overhead in per cent of the untraced rate.
fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (untraced - traced) / untraced * 100.0
    } else {
        0.0
    }
}

fn tree_spec(workload: &str) -> TreeSpec {
    if workload == "rbtree-read" {
        TreeSpec::read()
    } else {
        TreeSpec::fallback()
    }
}

/// A traced reduced pass of one tree workload and the spans it left.
fn traced_tree(out: &mut Outcome, workload: &'static str, seed: u64, seconds: f64) -> (Reduced, Traced) {
    let mut log = SpanLog::default();
    let mut reduced =
        rbtree::run_reduced(tree_spec(workload), seed, seconds, SpanProbe::new, |p| log.absorb(p));
    log.roots = std::mem::take(&mut reduced.roots);
    let ops = reduced.t1.ops + reduced.t2.ops;
    out.tally.attempted += ops;
    if let Some(why) = &reduced.failed {
        out.tally.fail(workload, ops, why.clone());
    }
    let traced_t1_rate = reduced.t1.host_ops_per_s;
    (reduced, Traced { workload, traced_t1_rate, untraced_t1_rate: 0.0, log })
}

/// `htm.*` counters and the per-operation spans, from `rbtree-read`.
fn read_tree_rows(out: &mut Outcome, reduced: &Reduced, log: &SpanLog) {
    let (tm, htm, ops) = (&reduced.t2.report.tm, &reduced.t2.report.htm, reduced.t2.ops);
    out.record("htm.commit_per_begin", ratio(htm.commits, htm.begins));
    out.record("htm.conflict_per_kop", 1e3 * ratio(tm.htm_conflict_aborts(), ops));
    out.record("htm.other_per_kop", 1e3 * ratio(tm.fast_other_aborts, ops));
    for op in crate::metrics::TREE_OPS {
        // One worker's calls only, like every other rung.
        let mut ns = log.durations_under(&format!("rbtree.{op}"), "slice.t1");
        let (p50, p99) = if ns.is_empty() {
            (0.0, 0.0)
        } else {
            (util::percentile_u64(&mut ns, 0.50) as f64, util::percentile_u64(&mut ns, 0.99) as f64)
        };
        out.record(format!("rbtree.{op}_ns_p50"), p50);
        // p99 only where at least ten samples lie beyond it; else the
        // median stands in, so the row is never a guess.
        out.record(
            format!("rbtree.{op}_ns_p99"),
            if util::percentile_allowed(ns.len(), 0.99) { p99 } else { p50 },
        );
    }
}

/// `engine.*` shares, from `rbtree-fallback`.
fn fallback_tree_rows(out: &mut Outcome, reduced: &Reduced) {
    let (tm, ops) = (&reduced.t2.report.tm, reduced.t2.ops);
    let aborts =
        tm.htm_conflict_aborts() + tm.htm_capacity_aborts() + tm.fast_other_aborts + tm.slow_path_restarts;
    out.record("engine.fast_commit_share", ratio(tm.fast_path_commits, tm.commits));
    out.record("engine.commit_per_attempt", ratio(tm.commits, tm.commits + aborts));
    out.record("engine.prefix_success", tm.prefix_success_ratio());
    out.record("engine.postfix_success", tm.postfix_success_ratio());
    out.record("engine.slow_restarts_per_kop", 1e3 * ratio(tm.slow_path_restarts, ops));
    // Capacity is what the tiny HTM is about; the Haswell model of
    // `rbtree-read` has none to count.
    out.record("htm.capacity_per_kop", 1e3 * ratio(tm.htm_capacity_aborts(), ops));
}

/// Every engine on both trees at reduced size, untraced, two workers:
/// the four baselines beside RH NOrec. A baseline's failures show in a
/// row of their own and never gate the run; RH NOrec's do. Returns
/// RH NOrec's one-worker host rate on each tree.
fn engine_cells(out: &mut Outcome, seed: u64, seconds: f64) -> [f64; 2] {
    let mut rh_t1 = [0.0; 2];
    for (algorithm, label) in ENGINES {
        let baseline = algorithm != crate::surface::Algorithm::RhNorec;
        let mut failed = 0u64;
        for (i, tree) in ["read", "fallback"].into_iter().enumerate() {
            let workload = format!("rbtree-{tree}");
            let spec = tree_spec(&workload).with_algorithm(algorithm);
            let cell = catch_unwind(AssertUnwindSafe(|| {
                rbtree::run_reduced(spec, seed, seconds, |_, _, _| NoProbe, |_| ())
            }));
            let why = match &cell {
                Ok(reduced) => reduced.failed.clone(),
                Err(payload) => Some(format!("panicked: {}", util::panic_message(&**payload))),
            };
            let cell = cell.unwrap_or_else(|_| Reduced::default());
            failed += u64::from(why.is_some());
            if !baseline {
                let ops = cell.t1.ops + cell.t2.ops;
                out.tally.attempted += ops;
                if let Some(why) = why {
                    out.tally.fail(&format!("{workload} untraced"), ops, why);
                }
                rh_t1[i] = cell.t1.host_ops_per_s;
                if tree == "read" {
                    out.record(
                        "htm.host_scaling_t2",
                        cell.t2.host_ops_per_s / cell.t1.host_ops_per_s.max(1e-9),
                    );
                }
            }
            out.record(format!("engine.{label}.{tree}.host_ops_per_s"), cell.t2.host_ops_per_s);
            out.record(format!("engine.{label}.{tree}.modeled_mops"), cell.t2.modeled_mops);
        }
        if baseline {
            out.record(format!("engine.{label}.verified_share"), 1.0 - failed as f64 / 2.0);
        }
    }
    rh_t1
}

/// One free-build workload's one-worker host rate with and without
/// tracing, and the spans the traced pass left.
struct Traced {
    workload: &'static str,
    traced_t1_rate: f64,
    untraced_t1_rate: f64,
    log: SpanLog,
}

/// Host rate of the one-worker call with no span around it.
fn untraced_rate(out: &mut Outcome, name: &str, config: &crate::surface::ServiceConfig) -> f64 {
    let n = config.trace.requests as u64;
    rate(req_ns(&out.tally.phase(name, n, || kv::serve_apart(config, kv::serve))))
}

/// One checked call under a span, counted in the tally.
fn served(
    out: &mut Outcome,
    probe: &mut SpanProbe,
    name: &str,
    config: &crate::surface::ServiceConfig,
) -> Option<kv::Served> {
    let n = config.trace.requests as u64;
    out.tally
        .phase(name, n, || kv::serve_apart(config, |c| probe.around("service.run_service", || kv::serve(c))))
}

fn req_ns(served: &Option<kv::Served>) -> f64 {
    served.as_ref().map_or(0.0, kv::Served::req_ns)
}

fn rate(req_ns: f64) -> f64 {
    if req_ns > 0.0 {
        1e9 / req_ns
    } else {
        0.0
    }
}

/// `service.*` and `steal.*` rows, from `kv-serve` at reduced size.
fn serve_rows(out: &mut Outcome, seed: u64, seconds: f64, epoch: Instant) -> Traced {
    let spec = ServiceSpec::serve();
    let n = kv::scaled(spec.t1_rate, seconds);
    let mut probe = SpanProbe::new(epoch, 0, 64);
    let mut log = SpanLog::default();

    let t1 = spec.config(1, n, spec.t1_arrival_ns, seed, 0);
    let t1_ns = req_ns(&served(out, &mut probe, "kv-serve t1", &t1));
    out.record("service.req_ns_t1", t1_ns);
    let untraced_t1_rate = untraced_rate(out, "kv-serve t1 untraced", &t1);
    // The same trace straight into KvStore: untimed by spans first, for
    // the service layer's self time, then again with a span per request.
    let direct_ns = out
        .tally
        .phase("kv-serve direct", n, || kv::direct(&t1, &mut NoProbe))
        .map_or(0.0, |s| s * 1e9 / n as f64);
    out.record("service.overhead_ns", t1_ns - direct_ns);
    let mut calls = SpanProbe::new(epoch, 0, n as usize);
    out.tally.phase("kv-serve direct traced", n, || kv::direct(&t1, &mut calls));
    log.absorb(calls);

    let mut p99 = Vec::new();
    for (i, rate_ns) in spec.rates_ns.into_iter().enumerate() {
        let call = served(out, &mut probe, "kv-serve t2", &spec.config(2, n, rate_ns, seed, 0));
        let report = call.as_ref().map(|s| &s.report);
        out.record(
            format!("service.sojourn_p99_ns.r{}", i + 1),
            report.map_or(0.0, |r| r.overall.p99_ns as f64),
        );
        p99.push(report.map_or(f64::INFINITY, |r| r.overall.p99_ns as f64));
        if i == spec.sojourn_at {
            out.record("service.req_ns_t2", req_ns(&call));
            out.record("service.sojourn_mean_ns", report.map_or(0.0, |r| r.overall.mean_ns));
            out.record("service.sojourn_p999_ns", report.map_or(0.0, |r| r.overall.p999_ns as f64));
            out.record("service.aborts_per_kreq", report.map_or(0.0, |r| 1e3 * ratio(r.aborts, r.requests)));
        }
    }
    out.record("service.slo_rate_mreq_s", kv::slo_step(&spec.rates_ns, &p99, spec.slo_ns as f64));

    // Free-running stealing: its tail swings by orders of magnitude from
    // run to run (the skew-window artefact ROADMAP describes), so it is a
    // per-layer row flagged noisy and never an end-to-end metric.
    let mut steal = spec.config(2, n, kv::RATES_NS[kv::R2], seed, 0);
    steal.sched = SchedPolicy::Steal { enabled: true };
    let report = served(out, &mut probe, "kv-serve steal", &steal).map(|s| s.report);
    out.record("steal.stolen_share", report.as_ref().map_or(0.0, |r| ratio(r.stolen, r.requests)));
    out.record("steal.sojourn_p99_ns", report.as_ref().map_or(0.0, |r| r.overall.p99_ns as f64));

    log.absorb(probe);
    Traced { workload: "kv-serve", traced_t1_rate: rate(t1_ns), untraced_t1_rate, log }
}

/// `batch.*` rows, from `kv-batch` at reduced size: one worker as the
/// workload runs it, two at `r2` (noisy: their modeled time and their
/// abort count follow the order the host runs them in).
fn batch_rows(out: &mut Outcome, seed: u64, seconds: f64, epoch: Instant) -> Traced {
    let spec = ServiceSpec::batch();
    let mut probe = SpanProbe::new(epoch, 0, 64);
    let (n1, n2) = (kv::scaled(spec.t1_rate, seconds), kv::scaled(kv::BESIDE_RATE, seconds));
    let t1 = spec.config(1, n1, spec.t1_arrival_ns, seed, 0);
    let ns1 = req_ns(&served(out, &mut probe, "kv-batch t1", &t1));
    let untraced_t1_rate = untraced_rate(out, "kv-batch t1 untraced", &t1);
    let two = served(out, &mut probe, "kv-batch t2", &spec.config(2, n2, kv::RATES_NS[kv::R2], seed, 0));
    let ns2 = req_ns(&two);
    out.record("batch.req_ns_t1", ns1);
    out.record("batch.req_ns_t2", ns2);
    out.record("batch.host_scaling_t2", if ns2 > 0.0 { ns1 / ns2 } else { 0.0 });
    let report = two.map(|s| s.report);
    out.record("batch.abort_share", report.as_ref().map_or(0.0, |r| ratio(r.aborts, r.commits + r.aborts)));
    out.record("batch.batched_share", report.as_ref().map_or(0.0, |r| ratio(r.batched, r.requests)));
    out.record("batch.sojourn_p99_ns_t2", report.as_ref().map_or(0.0, |r| r.overall.p99_ns as f64));
    let mut log = SpanLog::default();
    log.absorb(probe);
    Traced { workload: "kv-batch", traced_t1_rate: rate(ns1), untraced_t1_rate, log }
}

/// Every free-build per-layer row, and what the span files need.
pub struct FreeSheet {
    pub outcome: Outcome,
    traced: Vec<Traced>,
    seed: u64,
}

impl FreeSheet {
    pub fn measure(seed: u64, seconds: f64) -> FreeSheet {
        let epoch = Instant::now();
        let reduced = seconds * REDUCED;
        let mut out = Outcome::default();
        ladder::free_rungs(&mut out, seed, reduced);

        let (read, mut read_traced) = traced_tree(&mut out, "rbtree-read", seed, reduced);
        read_tree_rows(&mut out, &read, &read_traced.log);
        let (fallback, mut fallback_traced) = traced_tree(&mut out, "rbtree-fallback", seed, reduced);
        fallback_tree_rows(&mut out, &fallback);
        [read_traced.untraced_t1_rate, fallback_traced.untraced_t1_rate] =
            engine_cells(&mut out, seed, reduced);
        let serve = serve_rows(&mut out, seed, reduced, epoch);
        let batch = batch_rows(&mut out, seed, reduced, epoch);
        let traced = vec![read_traced, fallback_traced, serve, batch];
        FreeSheet { outcome: out, traced, seed }
    }

    /// Tracing overhead of one free-build workload: its one-worker host
    /// rate at reduced size with tracing off against the traced pass.
    pub fn overhead(&self, workload: &str) -> Option<f64> {
        let t = self.traced.iter().find(|t| t.workload == workload)?;
        Some(overhead_pct(t.untraced_t1_rate, t.traced_t1_rate))
    }

    /// Writes one workload's spans under `dir`.
    pub fn write_spans(&self, workload: &str, dir: &str) -> Option<std::io::Result<String>> {
        let traced = self.traced.iter().find(|t| t.workload == workload)?;
        Some(traced.log.write(dir, &format!("{workload}-{}", self.seed)))
    }
}

/// The controlled build's rows: the scheduler's bottom rung and the
/// replay workload at reduced size with a span around every case.
#[cfg(feature = "controlled")]
pub struct ControlledSheet {
    pub outcome: Outcome,
    log: SpanLog,
    traced_rate: f64,
    cases: Vec<(usize, u64)>,
    seed: u64,
}

#[cfg(feature = "controlled")]
impl ControlledSheet {
    pub fn measure(seed: u64, seconds: f64) -> ControlledSheet {
        use crate::workloads::replay;
        let reduced = seconds * REDUCED;
        let mut out = Outcome::default();
        out.record("sched.step_ns", ladder::sched_step_ns(seed, reduced));

        let cases = replay::cases(seed, replay::seeds_for(reduced));
        let n = cases.len() as u64;
        let mut probe = SpanProbe::new(Instant::now(), 0, cases.len());
        let pass = out.tally.phase("replay", n, || replay::pass(&cases, Some(&mut probe)));
        let mut log = SpanLog::default();
        log.absorb(probe);
        let (counts, slice_s) = pass.unwrap_or_default();
        let wall: f64 = slice_s.iter().sum();
        let steps: u64 = counts.iter().map(|c| c.steps).sum();
        let events: u64 = counts.iter().map(|c| c.events).sum();
        out.record("sched.ksteps_per_s", if wall > 0.0 { steps as f64 / wall / 1e3 } else { 0.0 });
        out.record("sched.steps_per_case", ratio(steps, n));
        out.record("check.events_per_case", ratio(events, n));
        for (kind, span) in replay::KINDS.iter().zip(replay::SPANS) {
            let ns: Vec<f64> = log.durations(span).into_iter().map(|d| d as f64).collect();
            out.record(
                format!("check.case_us.{kind}"),
                if ns.is_empty() { 0.0 } else { util::median(&ns) / 1e3 },
            );
        }
        // Once more beside a busy core: cheap wake-ups, and the same cases
        // must cost the same steps and events.
        let busy = out.tally.phase("replay beside a busy core", n, || {
            let (again, slice_s) = replay::pass_beside_busy_core(&cases)?;
            if again != counts {
                return Err("step or event counts differ between two replays of the same seeds".into());
            }
            Ok(n as f64 / slice_s.iter().sum::<f64>())
        });
        out.record("check.cases_per_s_busy_core", busy.unwrap_or(0.0));
        let traced_rate = if wall > 0.0 { n as f64 / wall } else { 0.0 };
        ControlledSheet { outcome: out, log, traced_rate, cases, seed }
    }

    pub fn overhead(&self) -> f64 {
        use crate::workloads::replay;
        let untraced = replay::pass(&self.cases, None)
            .map_or(0.0, |(_, slice_s)| self.cases.len() as f64 / slice_s.iter().sum::<f64>());
        overhead_pct(untraced, self.traced_rate)
    }

    pub fn write_spans(&self, dir: &str) -> std::io::Result<String> {
        self.log.write(dir, &format!("replay-{}", self.seed))
    }
}
