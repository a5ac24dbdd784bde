//! `rh-bench service`: the KV service-tier tail-latency benchmark.
//!
//! Replays one seeded open-loop request trace (zipfian keys, mixed
//! operations, bursty MMPP-2 arrivals — see [`rh_kv::gen`]) against the
//! sharded transactional store on every paper engine, and reports
//! per-request-class sojourn-time percentiles. The trace is identical
//! across engines and scheduler variants by construction, and latencies
//! are *modeled* from the engines' cycle accounting (see
//! [`rh_kv::service`]), so the printed percentiles are a property of the
//! algorithms, not of CI host load.
//!
//! The target runs the **scheduler grid**: the static
//! round-robin partition (the baseline), the work-stealing pool
//! (`--sched steal`), and dynamic batch formation through the Block-STM
//! executor (`--mode batch`) — by default all three — on one identical
//! bursty conserving trace. Every invocation, smoke included, asserts
//! the pinned sentinel:
//!
//! * on the saturating engines (Lock Elision, HY NOrec — the ones the
//!   bursts push into deep queues), the run's **best non-static
//!   variant** must strictly improve the overall modeled p99 over the
//!   static-session baseline — the sentinel binds the scheduler
//!   *system* (stealing and dynamic batching are complementary
//!   releases for the same congestion), not each arm separately;
//! * on the absorbing engines (NOrec, TL2, RH NOrec), every non-static
//!   variant's p50 must stay within [`P50_TOLERANCE_PCT`] of the
//!   baseline plus an absolute budget: a 1 µs schedule-dither
//!   allowance for steal cells (pure scheduling — when nothing queues,
//!   nothing real may change), the former's latency budget for batch
//!   cells (the deadline-closure bound of DESIGN.md §16).
//!
//! `--csv` prints the grid as `<class>_<stat>@static|@steal|@batch`
//! rows; nothing is written to disk.

use rh_kv::former::FormerConfig;
use rh_kv::gen::{Mix, TraceConfig};
use rh_kv::service::{run_service, ExecMode, SchedPolicy, ServiceConfig, ServiceReport};
use rh_norec::Algorithm;

/// Scheduling policy selected on the CLI (`--sched`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedChoice {
    /// Static round-robin partition only.
    Static,
    /// Work-stealing pool (always run against the static baseline).
    Steal,
}

/// Execution mode selected on the CLI (`--mode`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeChoice {
    /// Per-request sessions.
    Session,
    /// Dynamic batch formation through the Block-STM executor.
    Batch,
}

/// CLI-shaped options of one `service` invocation.
#[derive(Clone, Copy, Debug)]
pub struct ServiceArgs {
    /// Run only this engine (`None` = the paper's five).
    pub engine: Option<Algorithm>,
    /// Worker threads per cell.
    pub threads: usize,
    /// Requests in the trace.
    pub requests: usize,
    /// Trace seed.
    pub seed: u64,
    /// Smoke scale: a small deterministic conservation-checked grid for
    /// CI (sentinel asserted).
    pub smoke: bool,
    /// Machine-readable output.
    pub csv: bool,
    /// `--sched`: restrict the grid's scheduling variants (`None` runs
    /// the full grid).
    pub sched: Option<SchedChoice>,
    /// `--mode`: restrict the grid's execution modes (`None` runs the
    /// full grid).
    pub mode: Option<ModeChoice>,
}

impl Default for ServiceArgs {
    fn default() -> Self {
        ServiceArgs {
            engine: None,
            threads: 8,
            requests: 20_000,
            seed: 0x5eed_cafe,
            smoke: false,
            csv: false,
            sched: None,
            mode: None,
        }
    }
}

/// Parses an engine name as the CLI accepts it (`rh-norec`,
/// `lock-elision`, `tl2`, ... — case- and punctuation-insensitive
/// against [`Algorithm::label`]).
pub fn parse_engine(name: &str) -> Option<Algorithm> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let wanted = norm(name);
    Algorithm::PAPER_SET.into_iter().find(|a| norm(a.label()) == wanted)
}

/// The scheduler-grid trace: the conserving bursty mix (gets,
/// transfers, and slow range scans — the heterogeneity a static
/// partition is worst at), MMPP-2 arrivals whose bursts push the
/// lock-fallback engines into deep queues while the calm periods let
/// them drain (queues must drain for idle workers to exist, and idle
/// workers are what stealing converts into tail relief).
fn grid_trace(args: &ServiceArgs) -> TraceConfig {
    // Burst spacing is mean/factor = 120 ns: far below every engine's
    // service time, so a burst is effectively a simultaneous arrival
    // wave — each worker's share of a 256-deep burst queues tens of
    // microseconds of modeled backlog even on the fast engines, which
    // is what gives the batch path a tail to cut. Arrival spacing only
    // shapes the modeled queue (workers replay at full real speed
    // regardless), so the dense bursts cost no extra wall time. Calm
    // stretches at the 120 us mean let the queues drain, which is what
    // gives the stealing path idle workers to convert into tail relief.
    // Smoke and full runs share the shape so the sentinel guards the
    // same regime at both scales; full runs are just longer.
    TraceConfig {
        requests: if args.smoke { args.requests.min(4_000) } else { args.requests },
        keyspace: 96,
        mix: Mix::service_bursty(),
        seed: args.seed,
        mean_interarrival_ns: 120_000,
        burst_factor: 1_000,
        burst_len: 256,
        ..TraceConfig::default()
    }
}

/// The former configuration of the grid's batch cells. The latency
/// budget bounds how long a sub-full block may hold its oldest request,
/// and therefore bounds the batch variant's p50 penalty on an otherwise
/// idle engine (the sentinel uses exactly this number).
const GRID_BATCH_BUDGET_NS: u64 = 10_000;

fn grid_former() -> FormerConfig {
    FormerConfig { max_batch: 64, latency_budget_ns: GRID_BATCH_BUDGET_NS, min_batch: 4 }
}

/// Engines the bursty grid trace pushes into deep queues: the sentinel
/// demands the scheduler system (the best of stealing and dynamic
/// batching present in the run) improve their modeled p99.
const SATURATING: [Algorithm; 2] = [Algorithm::LockElision, Algorithm::HybridNorec];

/// Engines that absorb the grid load without queueing: the sentinel
/// demands the variants leave their p50 (the common case) alone.
const ABSORBING: [Algorithm; 3] = [Algorithm::Norec, Algorithm::Tl2, Algorithm::RhNorec];

/// One grid variant: scheduling policy × execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    /// Static partition, per-request sessions — the baseline.
    Static,
    /// Work-stealing pool, per-request sessions.
    Steal,
    /// Dynamic batch formation (the partition is replaced by the batch
    /// executor's rank scheduler, so `--sched` does not apply).
    Batch,
}

impl Variant {
    fn suffix(self) -> &'static str {
        match self {
            Variant::Static => "@static",
            Variant::Steal => "@steal",
            Variant::Batch => "@batch",
        }
    }
}

/// The variant set an invocation runs. The static baseline always runs
/// — the sentinel is a comparison against it.
fn variants(args: &ServiceArgs) -> Vec<Variant> {
    let mut out = vec![Variant::Static];
    let steal = match (args.sched, args.mode) {
        (Some(SchedChoice::Static), _) => false,
        (Some(SchedChoice::Steal), _) => true,
        // Default grid: everything, unless --mode narrowed it away.
        (None, None) => true,
        (None, Some(ModeChoice::Session)) => true,
        (None, Some(ModeChoice::Batch)) => false,
    };
    let batch = match args.mode {
        Some(ModeChoice::Session) => false,
        Some(ModeChoice::Batch) => true,
        None => args.sched.is_none(),
    };
    if steal {
        out.push(Variant::Steal);
    }
    if batch {
        out.push(Variant::Batch);
    }
    out
}

/// One CSV row: `(algorithm, scenario, latency_ns)`.
type Row = (String, String, f64);

/// Grid rows: the full percentile family (p999 included — the headline
/// statistic of the steal/batch comparison) with the variant suffix.
fn grid_rows_of(report: &ServiceReport, variant: Variant) -> Vec<Row> {
    let mut rows = Vec::new();
    let alg = report.algorithm.label().to_string();
    let suffix = variant.suffix();
    let mut push = |scenario: String, ns: f64| rows.push((alg.clone(), scenario, ns));
    for class in &report.classes {
        let label = class.class.label();
        push(format!("{label}_p50{suffix}"), class.latency.p50_ns as f64);
        push(format!("{label}_p99{suffix}"), class.latency.p99_ns as f64);
        push(format!("{label}_p999{suffix}"), class.latency.p999_ns as f64);
    }
    push(format!("overall_p50{suffix}"), report.overall.p50_ns as f64);
    push(format!("overall_p95{suffix}"), report.overall.p95_ns as f64);
    push(format!("overall_p99{suffix}"), report.overall.p99_ns as f64);
    push(format!("overall_p999{suffix}"), report.overall.p999_ns as f64);
    push(format!("overall_max{suffix}"), report.overall.max_ns as f64);
    rows
}

/// One measured grid cell.
struct Cell {
    algorithm: Algorithm,
    variant: Variant,
    report: ServiceReport,
}

/// Runs one grid cell: identical trace, variant-selected scheduler.
///
/// Session-mode cells (static and steal) replay under the controlled
/// deterministic scheduler, making every modeled latency — and
/// therefore the sentinel — a pure function of the trace seed. This is
/// not just a reproducibility nicety: free-running on a shared (or,
/// as in CI, single-core) host, a worker preempted inside an engine
/// critical section leaves its rivals spinning for a full OS timeslice,
/// and the cost model faithfully charges those millions of real spin
/// iterations — timeslice-scale noise that swamps the queueing signal
/// the grid exists to measure. Batch cells run free: the batch
/// executor's lazy-commit design has no unbounded spin-wait, so its
/// modeled latencies are stable without the controlled replay.
fn run_cell(algorithm: Algorithm, args: &ServiceArgs, trace: TraceConfig, variant: Variant) -> Cell {
    let mut config = ServiceConfig::new(algorithm, args.threads, trace);
    match variant {
        Variant::Static => {}
        Variant::Steal => config.sched = SchedPolicy::Steal { enabled: true },
        Variant::Batch => config.mode = ExecMode::Batch(grid_former()),
    }
    let report = match variant {
        Variant::Batch => run_service(&config),
        Variant::Static | Variant::Steal => {
            // The default step cap is a livelock guard sized for unit
            // tests; a full-size grid cell on a lock-convoy engine
            // legitimately burns far more scheduler steps (every spin
            // iteration behind the elision lock is a yield point). Scale
            // the cap with the trace so real grids fit while a genuine
            // livelock still trips it.
            let step_cap = 50_000u64.saturating_mul(trace.requests as u64).max(5_000_000);
            let sched = sim_htm::sched::SchedConfig {
                step_cap,
                ..sim_htm::sched::SchedConfig::from_seed(trace.seed ^ 0x9d)
            };
            let noop = |_: usize| {};
            rh_kv::service::run_service_controlled(&config, &sched, &|_, _| {}, &noop, &noop).0
        }
    };
    assert_eq!(
        report.conserved,
        Some(true),
        "{algorithm:?}{}: the grid mix must check conservation",
        variant.suffix()
    );
    Cell { algorithm, variant, report }
}

/// Relative p50 slack of the absorbing-engine sentinel clause, in
/// percent of the static baseline. The absolute per-variant budget does
/// the real work; this only keeps a median of a few dozen nanoseconds
/// from failing on one rescheduled contended event, while a genuine
/// regression (queueing, a lost fast path) moves it by multiples.
const P50_TOLERANCE_PCT: f64 = 5.0;

/// The pinned acceptance sentinel, asserted on **every** invocation
/// (smoke included). Panics, failing CI, when violated.
fn assert_sentinel(cells: &[Cell]) {
    let baseline = |algorithm: Algorithm| {
        cells
            .iter()
            .find(|c| c.algorithm == algorithm && c.variant == Variant::Static)
            .map(|c| &c.report)
    };
    // Saturating engines: the *scheduler system* — stealing and dynamic
    // batching together — must cut the modeled p99 tail, so the clause
    // binds the best non-static variant present. (On a lock-convoy
    // engine the batch path is the one that absorbs the bursts; the
    // steal path's extra real concurrency can even feed the convoy —
    // demanding both variants individually beat the baseline would gate
    // on the wrong property. See DESIGN.md §16.)
    for algorithm in SATURATING {
        let Some(base) = baseline(algorithm) else { continue };
        let best = cells
            .iter()
            .filter(|c| c.algorithm == algorithm && c.variant != Variant::Static)
            .min_by_key(|c| c.report.overall.p99_ns);
        let Some(best) = best else { continue };
        assert!(
            best.report.overall.p99_ns < base.overall.p99_ns,
            "sentinel: {}{} (the run's best non-static variant) fails to improve \
             modeled p99 over the static baseline ({} vs {} ns) on a saturating engine",
            algorithm.label(),
            best.variant.suffix(),
            best.report.overall.p99_ns,
            base.overall.p99_ns,
        );
    }
    for cell in cells.iter().filter(|c| c.variant != Variant::Static) {
        let Some(base) = baseline(cell.algorithm) else { continue };
        let suffix = cell.variant.suffix();
        if ABSORBING.contains(&cell.algorithm) {
            let budget = match cell.variant {
                // Stealing is pure scheduling — no request is ever held
                // back — but the variant's extra queue arbitration
                // shifts the controlled schedule, and at a
                // nanosecond-scale median a handful of rescheduled
                // contended events (tens of modeled cycles each) moves
                // the percentile by more than 5%. Allow schedule dither
                // up to a microsecond; real regressions are ms-scale.
                Variant::Steal => 1_000,
                // A formed block may hold its oldest member for at most
                // the former's latency budget (DESIGN.md §16).
                Variant::Batch => GRID_BATCH_BUDGET_NS,
                Variant::Static => unreachable!("baseline filtered above"),
            };
            let bound =
                base.overall.p50_ns as f64 * (1.0 + P50_TOLERANCE_PCT / 100.0) + budget as f64;
            assert!(
                (cell.report.overall.p50_ns as f64) <= bound,
                "sentinel: {}{suffix} regresses modeled p50 past the gate \
                 ({} ns vs bound {:.0} ns = static {} +{}% +{} budget) on an \
                 absorbing engine",
                cell.algorithm.label(),
                cell.report.overall.p50_ns,
                bound,
                base.overall.p50_ns,
                P50_TOLERANCE_PCT,
                budget,
            );
        }
    }
}

/// Runs the scheduler grid, prints the percentile table (or CSV rows),
/// and asserts the pinned sentinel.
pub fn run(args: &ServiceArgs) {
    let trace = grid_trace(args);
    let engines: Vec<Algorithm> = match args.engine {
        Some(a) => vec![a],
        None => Algorithm::PAPER_SET.to_vec(),
    };
    let variant_set = variants(args);

    if args.csv {
        println!("algorithm,scenario,latency_ns");
    } else {
        println!(
            "service grid: {} requests over {} keys, {} workers/cell, seed {:#x}, \
             bursts {}x/{} mean {} ns{}",
            trace.requests,
            trace.keyspace,
            args.threads,
            trace.seed,
            trace.burst_factor,
            trace.burst_len,
            trace.mean_interarrival_ns,
            if args.smoke { " (smoke)" } else { "" },
        );
        println!(
            "{:<14} {:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
            "algorithm", "variant", "count", "p50 ns", "p99 ns", "p999 ns", "max ns", "stolen", "batched"
        );
    }

    let mut cells: Vec<Cell> = Vec::new();
    for &algorithm in &engines {
        for &variant in &variant_set {
            let cell = run_cell(algorithm, args, trace, variant);
            if args.csv {
                for (alg, scenario, ns) in grid_rows_of(&cell.report, variant) {
                    println!("{alg},{scenario},{ns:.2}");
                }
            } else {
                let r = &cell.report;
                println!(
                    "{:<14} {:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
                    algorithm.label(),
                    variant.suffix().trim_start_matches('@'),
                    r.overall.count,
                    r.overall.p50_ns,
                    r.overall.p99_ns,
                    r.overall.p999_ns,
                    r.overall.max_ns,
                    r.stolen,
                    r.batched,
                );
            }
            cells.push(cell);
        }
    }

    assert_sentinel(&cells);
    if !args.csv {
        println!(
            "sentinel held: steal/batch improve p99 on saturating engines; \
             p50 within gate on absorbing engines"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_parse_case_and_punctuation_insensitively() {
        assert_eq!(parse_engine("rh-norec"), Some(Algorithm::RhNorec));
        assert_eq!(parse_engine("RH NOrec"), Some(Algorithm::RhNorec));
        assert_eq!(parse_engine("lock-elision"), Some(Algorithm::LockElision));
        assert_eq!(parse_engine("tl2"), Some(Algorithm::Tl2));
        assert_eq!(parse_engine("hy-norec"), Some(Algorithm::HybridNorec));
        assert_eq!(parse_engine("norec"), Some(Algorithm::Norec));
        assert_eq!(parse_engine("no-such-engine"), None);
    }

    #[test]
    fn flag_narrowing_always_keeps_the_baseline() {
        let base = ServiceArgs::default();
        assert_eq!(
            variants(&base),
            vec![Variant::Static, Variant::Steal, Variant::Batch],
            "default = full grid"
        );
        let steal_only = ServiceArgs { sched: Some(SchedChoice::Steal), ..base };
        assert_eq!(variants(&steal_only), vec![Variant::Static, Variant::Steal]);
        let batch_only = ServiceArgs { mode: Some(ModeChoice::Batch), ..base };
        assert_eq!(variants(&batch_only), vec![Variant::Static, Variant::Batch]);
        let static_only = ServiceArgs {
            sched: Some(SchedChoice::Static),
            mode: Some(ModeChoice::Session),
            ..base
        };
        assert_eq!(variants(&static_only), vec![Variant::Static]);
        let both = ServiceArgs {
            sched: Some(SchedChoice::Steal),
            mode: Some(ModeChoice::Batch),
            ..base
        };
        assert_eq!(variants(&both), vec![Variant::Static, Variant::Steal, Variant::Batch]);
    }

    #[test]
    fn grid_rows_carry_the_variant_suffix_and_p999() {
        let args = ServiceArgs { smoke: true, requests: 800, threads: 2, ..Default::default() };
        let trace = grid_trace(&args);
        let cell = run_cell(Algorithm::RhNorec, &args, trace, Variant::Steal);
        let rows = grid_rows_of(&cell.report, Variant::Steal);
        assert!(rows.iter().all(|(_, s, _)| s.ends_with("@steal")));
        assert!(rows.iter().any(|(_, s, _)| s == "overall_p999@steal"));
    }
}
