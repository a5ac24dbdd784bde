//! `rh-bench batch`: the batch-executor throughput race.
//!
//! Runs the shared account-table transfer batch
//! ([`tm_workloads::batch::TransferBatch`]) through every execution
//! mode the repo has on **identical** pre-formed work:
//!
//! * the Block-STM-style [`ParallelExecutor`](rh_norec::batch) at each
//!   thread count of the sweep (1 worker = the no-speculation
//!   sequential fast path),
//! * plain sequential rank-order execution (the semantic baseline),
//! * the five interactive session engines, the batch split contiguously
//!   across the same number of OS threads, one transaction per rank.
//!
//! Every cell reports *modeled* ns/tx — the makespan cycle budget
//! (slowest thread) over [`rh_norec::cost::MODEL_HZ`] — so the table
//! is a property of the protocols, not of CI host load, and every cell
//! asserts balance conservation before it reports anything.
//!
//! The race is printed, never written to disk. Its gating teeth are the
//! **pinned sentinel**, asserted on every full run (`--smoke` prints its
//! verdict: its free-running cells depend on host load):
//!
//! * the 1-thread batch cell is within 10% of sequential execution
//!   (the degenerate executor must not tax the non-speculative case),
//! * at every thread count ≥ 4 in the sweep, the batch engine beats the
//!   best interactive engine on the same work.

use std::sync::Arc;

use rh_norec::batch::{execute_sequential, Batch, BatchConfig, ParallelExecutor};
use rh_norec::{Algorithm, TmConfig, TmRuntime};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Heap, HeapConfig};
use tm_workloads::batch::{BatchWorkload, TransferBatch, TransferBatchConfig};

/// Engine label of the batch-executor rows.
pub const BATCH_ENGINE: &str = "Batch-STM";

/// CLI-shaped options of one `batch` invocation.
#[derive(Clone, Debug)]
pub struct BatchArgs {
    /// Thread counts to sweep (batch workers and interactive threads).
    pub threads: Vec<usize>,
    /// Transfers in the batch.
    pub transfers: usize,
    /// Accounts in the table.
    pub accounts: u64,
    /// Zipf exponent of the account sampler (0.0 = uniform).
    pub zipf_theta: f64,
    /// Workload generator seed.
    pub seed: u64,
    /// Smoke scale: a small batch, thread counts {1, 4}, sentinel
    /// verdict printed, not asserted.
    pub smoke: bool,
    /// Machine-readable output.
    pub csv: bool,
}

impl Default for BatchArgs {
    fn default() -> Self {
        let workload = TransferBatchConfig::default();
        BatchArgs {
            threads: vec![1, 2, 4, 8, 16],
            transfers: 4_096,
            accounts: workload.accounts,
            zipf_theta: workload.zipf_theta,
            seed: workload.seed,
            smoke: false,
            csv: false,
        }
    }
}

/// One measured cell.
#[derive(Clone, Debug)]
struct Cell {
    /// Engine label (`Batch-STM` or an [`Algorithm::label`]).
    algorithm: String,
    /// `batch/transfer@seq` or `batch/transfer@t<N>`.
    scenario: String,
    /// Threads the cell ran on (0 = the sequential baseline).
    threads: usize,
    ns_per_tx: f64,
    txs: u64,
}

fn workload_config(args: &BatchArgs) -> TransferBatchConfig {
    TransferBatchConfig {
        transfers: args.transfers,
        accounts: args.accounts,
        zipf_theta: args.zipf_theta,
        seed: args.seed,
        ..TransferBatchConfig::default()
    }
}

/// Scenario key of a thread-count cell (shared by the batch engine and
/// the interactive engines so columns line up per thread count).
fn scenario(threads: usize) -> String {
    format!("batch/transfer@t{threads}")
}

/// One batch-engine cell: fresh heap, generate, execute, verify.
/// `workers == 0` runs the sequential rank-order baseline.
fn run_batch_cell(cfg: &TransferBatchConfig, workers: usize) -> Cell {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let workload = TransferBatch::generate(&heap, cfg);
    let report = if workers == 0 {
        execute_sequential(&heap, &workload)
    } else {
        // Periodic yields keep multi-worker cells honest on timesharing
        // hosts — the same knob the interactive cells set below.
        let config = BatchConfig::with_workers(workers).with_interleave(u32::from(workers > 1));
        let exec = ParallelExecutor::new(Arc::clone(&heap), config)
            .expect("batch executor construction cannot fail");
        exec.execute(&workload, &[workload.len()]).0
    };
    workload
        .verify(&heap)
        .expect("batch cell violated balance conservation");
    Cell {
        algorithm: BATCH_ENGINE.to_string(),
        scenario: if workers == 0 { "batch/transfer@seq".to_string() } else { scenario(workers) },
        threads: workers,
        ns_per_tx: report.modeled_ns_per_tx(),
        txs: report.txs(),
    }
}

/// One interactive cell: the same generated batch split contiguously
/// across `threads` sessions of `algorithm`, one transaction per rank.
/// Modeled ns/tx uses the makespan (slowest thread's cycle budget), the
/// same wall-clock model [`rh_norec::batch::BatchReport`] reports.
fn run_interactive_cell(cfg: &TransferBatchConfig, algorithm: Algorithm, threads: usize) -> Cell {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let workload = TransferBatch::generate(&heap, cfg);
    let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
    // Periodic yields restore realistic interleaving density on a
    // timesharing host (the same knob every contended bench cell uses);
    // without them concurrent transactions barely overlap in time and
    // the interactive engines would measure a contention-free fiction.
    let tm_cfg = TmConfig::builder(algorithm)
        .interleave_accesses(u32::from(threads > 1))
        .build()
        .expect("batch bench TM configuration rejected");
    let rt = TmRuntime::new(Arc::clone(&heap), htm, tm_cfg)
        .expect("runtime construction cannot fail");

    let ranks = workload.len();
    let chunk = ranks.div_ceil(threads);
    let cycles: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let rt = Arc::clone(&rt);
                let workload = &workload;
                s.spawn(move || {
                    let mut session = rt.open_session().expect("free worker slot");
                    session.reset_stats();
                    let lo = (tid * chunk).min(ranks);
                    let hi = (lo + chunk).min(ranks);
                    for rank in lo..hi {
                        workload.run_interactive(&mut session, rank);
                    }
                    session.report().tm.cycles
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interactive batch worker panicked"))
            .collect()
    });
    workload
        .verify(&heap)
        .expect("interactive cell violated balance conservation");

    let makespan = cycles.into_iter().max().unwrap_or(0);
    Cell {
        algorithm: algorithm.label().to_string(),
        scenario: scenario(threads),
        threads,
        ns_per_tx: makespan as f64 / ranks as f64 / rh_norec::cost::MODEL_HZ * 1e9,
        txs: ranks as u64,
    }
}

/// Runs the full grid: sequential baseline, batch engine per thread
/// count, five interactive engines per thread count.
fn run_cells(args: &BatchArgs) -> Vec<Cell> {
    let cfg = workload_config(args);
    let mut cells = vec![run_batch_cell(&cfg, 0)];
    for &threads in &args.threads {
        cells.push(run_batch_cell(&cfg, threads));
    }
    for &threads in &args.threads {
        for algorithm in Algorithm::PAPER_SET {
            cells.push(run_interactive_cell(&cfg, algorithm, threads));
        }
    }
    cells
}

/// The pinned acceptance sentinel; returns one line per violation:
///
/// * `batch@t1` within 10% of `batch@seq`,
/// * at every swept thread count ≥ 4, `Batch-STM` strictly beats the
///   best interactive engine.
fn sentinel_violations(cells: &[Cell]) -> Vec<String> {
    let mut violations = Vec::new();
    let seq = cells
        .iter()
        .find(|c| c.scenario == "batch/transfer@seq")
        .expect("sequential baseline cell missing");
    if let Some(t1) = cells.iter().find(|c| c.algorithm == BATCH_ENGINE && c.threads == 1) {
        let overhead = (t1.ns_per_tx - seq.ns_per_tx) / seq.ns_per_tx * 100.0;
        if overhead > 10.0 {
            violations.push(format!(
                "sentinel: 1-thread batch executor is {overhead:.1}% over sequential \
                 ({:.2} vs {:.2} ns/tx) — the no-speculation fast path must be free",
                t1.ns_per_tx, seq.ns_per_tx,
            ));
        }
    }
    for batch_cell in cells.iter().filter(|c| c.algorithm == BATCH_ENGINE && c.threads >= 4) {
        let best = cells
            .iter()
            .filter(|c| c.algorithm != BATCH_ENGINE && c.threads == batch_cell.threads)
            .min_by(|a, b| a.ns_per_tx.total_cmp(&b.ns_per_tx));
        let Some(best) = best else { continue };
        if batch_cell.ns_per_tx >= best.ns_per_tx {
            violations.push(format!(
                "sentinel: batch executor loses to {} at {} threads \
                 ({:.2} vs {:.2} modeled ns/tx)",
                best.algorithm, batch_cell.threads, batch_cell.ns_per_tx, best.ns_per_tx,
            ));
        }
    }
    violations
}

fn print_cells(cells: &[Cell], csv: bool) {
    if csv {
        println!("algorithm,scenario,txs,ns_per_tx");
        for c in cells {
            println!("{},{},{},{:.2}", c.algorithm, c.scenario, c.txs, c.ns_per_tx);
        }
        return;
    }
    println!("batch race: modeled ns/tx (makespan cycle budget at MODEL_HZ)");
    println!("{:<16} {:<22} {:>8} {:>12}", "engine", "scenario", "txs", "ns/tx");
    for c in cells {
        println!("{:<16} {:<22} {:>8} {:>12.2}", c.algorithm, c.scenario, c.txs, c.ns_per_tx);
    }
    // Per-thread-count verdict: batch vs the best interactive engine.
    let mut threads: Vec<usize> =
        cells.iter().filter(|c| c.threads > 0).map(|c| c.threads).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let batch = cells.iter().find(|c| c.algorithm == BATCH_ENGINE && c.threads == t);
        let best = cells
            .iter()
            .filter(|c| c.algorithm != BATCH_ENGINE && c.threads == t)
            .min_by(|a, b| a.ns_per_tx.total_cmp(&b.ns_per_tx));
        if let (Some(batch), Some(best)) = (batch, best) {
            println!(
                "t{t:<2} batch vs best interactive ({}): {:+.1}%",
                best.algorithm,
                (batch.ns_per_tx - best.ns_per_tx) / best.ns_per_tx * 100.0,
            );
        }
    }
}


/// CLI entry for `rh-bench batch`: runs the race, prints it, and checks
/// the pinned sentinel. Full runs assert it; smoke runs print its
/// verdict.
pub fn run(args: &BatchArgs) {
    let args = if args.smoke {
        BatchArgs {
            threads: vec![1, 4],
            // 4096 transfers keeps the smoke run fast while staying large
            // enough to amortize the batch engine's ramp-up: at 1024 the
            // speculation-window fill dominates and the t4 cell sits within
            // noise of TL2's, so the sentinel would be flaky.
            transfers: args.transfers.min(4_096),
            ..args.clone()
        }
    } else {
        args.clone()
    };
    if args.threads.iter().any(|&t| t == 0 || t > rh_norec::MAX_BATCH_WORKERS) {
        eprintln!("batch thread counts must be in 1..={}", rh_norec::MAX_BATCH_WORKERS);
        std::process::exit(2);
    }
    if !args.csv {
        println!(
            "batch: {} transfers over {} accounts, seed {:#x}, threads {:?}{}",
            args.transfers,
            workload_config(&args).accounts,
            args.seed,
            args.threads,
            if args.smoke { " (smoke: sentinel printed)" } else { "" },
        );
    }
    let cells = run_cells(&args);
    print_cells(&cells, args.csv);
    let violations = sentinel_violations(&cells);
    // Smoke cells are free-running workers on whatever cores the host
    // has, so there the verdict is printed, not asserted; full runs
    // still fail on a violation.
    assert!(args.smoke || violations.is_empty(), "{}", violations.join("; "));
    if !args.csv {
        if violations.is_empty() {
            println!("sentinel held: t1 within 10% of sequential; batch beats best interactive at >=4 threads");
        }
        for v in &violations {
            println!("{v} (smoke: informative)");
        }
    }
}
