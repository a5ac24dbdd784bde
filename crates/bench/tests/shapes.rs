//! Shape tests: the paper's qualitative claims, asserted with generous
//! tolerances so they hold across hosts and schedules.
//!
//! These are the *reproduction criteria* from DESIGN.md §4: who wins, in
//! which direction the mechanism rows move — not absolute numbers.

use std::time::Duration;

use rh_bench::{run_cell, CellConfig, CellResult};
use rh_norec::Algorithm;
use sim_mem::Heap;
use tm_workloads::rbtree_bench::{RbTreeBench, RbTreeBenchConfig};
use tm_workloads::stamp::{Vacation, VacationConfig};
use tm_workloads::Workload;

fn rbtree(mutation_pct: u32) -> impl Fn(&Heap) -> Box<dyn Workload> {
    move |heap| {
        Box::new(RbTreeBench::new(
            heap,
            RbTreeBenchConfig { initial_size: 1000, mutation_pct },
        ))
    }
}

fn cell(alg: Algorithm, threads: usize, build: &dyn Fn(&Heap) -> Box<dyn Workload>) -> CellResult {
    let config = CellConfig::new(alg, threads, Duration::from_millis(300));
    run_cell(build, &config)
}

/// §1.1: the instrumentation gap — at one thread, the pure hardware fast
/// path beats the STMs decisively on a read-dominated tree.
#[test]
fn htm_beats_stms_single_threaded() {
    let build = rbtree(10);
    let rh = cell(Algorithm::RhNorec, 1, &build);
    let norec = cell(Algorithm::Norec, 1, &build);
    let tl2 = cell(Algorithm::Tl2, 1, &build);
    assert!(
        rh.throughput() > 1.5 * norec.throughput(),
        "RH {:.0} should dominate NOrec {:.0}",
        rh.throughput(),
        norec.throughput()
    );
    assert!(
        norec.throughput() > tl2.throughput(),
        "at one thread NOrec's lighter reads beat TL2 (paper §3.1)"
    );
}

/// §3.5: under write pressure at high thread counts, RH NOrec suffers
/// far fewer HTM conflicts and slow-path restarts than Hybrid NOrec, and
/// out-performs it.
#[test]
#[ignore = "free-running 16-thread cell; flaky on a loaded 2-vCPU host until virtual time"]
fn rh_beats_hybrid_under_contention() {
    let build = rbtree(40);
    let hy = cell(Algorithm::HybridNorec, 16, &build);
    let rh = cell(Algorithm::RhNorec, 16, &build);
    assert!(
        rh.throughput() > 1.5 * hy.throughput(),
        "RH {:.0} vs HY {:.0}: the paper reports 5.0x at 40% mutations",
        rh.throughput(),
        hy.throughput()
    );
    assert!(
        hy.conflicts_per_op() > 2.0 * rh.conflicts_per_op(),
        "conflict reduction missing: HY {:.4}/op vs RH {:.4}/op (paper: 8-20x)",
        hy.conflicts_per_op(),
        rh.conflicts_per_op()
    );
    // The prefix eliminates most slow-path restarts. Compare below the
    // SMT knee (8 threads), where restarts reflect the clock protocol
    // rather than sibling-eviction churn of the small hardware
    // transactions.
    let hy8 = cell(Algorithm::HybridNorec, 8, &build);
    let rh8 = cell(Algorithm::RhNorec, 8, &build);
    assert!(
        rh8.tm.restarts_per_slow_path() <= hy8.tm.restarts_per_slow_path() + 0.25,
        "RH restarts {:.3} should not exceed HY restarts {:.3} at 8 threads",
        rh8.tm.restarts_per_slow_path(),
        hy8.tm.restarts_per_slow_path()
    );
}

/// §3.6 Vacation: the HyperThreading capacity knee — above 8 threads the
/// per-thread HTM capacity halves and capacity aborts appear where there
/// were (almost) none.
#[test]
#[ignore = "free-running 8/16-thread cells: the host decides the overlap; scripts/ci.sh runs it"]
fn vacation_has_the_smt_capacity_knee() {
    let build = |heap: &Heap| -> Box<dyn Workload> {
        Box::new(Vacation::new(heap, VacationConfig::low(512)))
    };
    let at8 = cell(Algorithm::RhNorec, 8, &build);
    let at16 = cell(Algorithm::RhNorec, 16, &build);
    assert!(
        at16.capacity_per_op() > 2.0 * at8.capacity_per_op().max(1e-6)
            || at16.capacity_per_op() > 0.01,
        "capacity aborts should jump past 8 threads: {:.4} -> {:.4}",
        at8.capacity_per_op(),
        at16.capacity_per_op()
    );
}

/// The RH mechanisms actually engage: under fallback pressure the mixed
/// slow path commits prefixes and postfixes at high rates.
#[test]
#[ignore = "free-running 8-thread cell: the host decides the overlap; scripts/ci.sh runs it"]
fn rh_small_htms_mostly_succeed() {
    let build = rbtree(40);
    let rh = cell(Algorithm::RhNorec, 8, &build);
    assert!(rh.tm.prefix_attempts > 0, "no prefix activity: {:?}", rh.tm);
    assert!(
        rh.tm.prefix_success_ratio() > 0.5,
        "prefix success {:.2} too low",
        rh.tm.prefix_success_ratio()
    );
    if rh.tm.postfix_attempts > 0 {
        assert!(
            rh.tm.postfix_success_ratio() > 0.5,
            "postfix success {:.2} too low",
            rh.tm.postfix_success_ratio()
        );
    }
}
