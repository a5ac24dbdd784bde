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
//! (slowest thread) over [`rh_norec::cost::MODEL_HZ`] — so the ledger
//! is a property of the protocols, not of CI host load, and every cell
//! asserts balance conservation before it reports anything.
//!
//! Full runs write `BENCH_9.json`: the committed `BENCH_8.json` rows
//! carried verbatim (so the committed BENCH_8 → BENCH_9 diff joins and
//! gates every existing cell at zero delta) plus the new `batch/*`
//! cells, which land in the diff's `unmatched` section — informative,
//! never gated. The gating teeth for the new mode are the **pinned
//! sentinel** instead, asserted on every run including `--smoke`:
//!
//! * the 1-thread batch cell is within 10% of sequential execution
//!   (the degenerate executor must not tax the non-speculative case),
//! * at every thread count ≥ 4 in the sweep, the batch engine beats the
//!   best interactive engine on the same work.

use std::sync::Arc;

use rh_norec::batch::{execute_sequential, BatchConfig, ParallelExecutor};
use rh_norec::{Algorithm, TmConfig, TmRuntime};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Heap, HeapConfig};
use tm_workloads::batch::{BatchWorkload, TransferBatch, TransferBatchConfig};

use crate::ledger::{self, Value};

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
    /// asserted, no ledger write.
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
        execute_sequential(&heap, &workload.batch())
    } else {
        // Periodic yields keep multi-worker cells honest on timesharing
        // hosts — the same knob the interactive cells set below.
        let config = BatchConfig::with_workers(workers).with_interleave(u32::from(workers > 1));
        let exec = ParallelExecutor::new(Arc::clone(&heap), config)
            .expect("batch executor construction cannot fail");
        let batch = workload.batch();
        exec.execute(&batch, &[batch.len()]).0
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

/// The pinned acceptance sentinel. Panics (failing CI) when violated:
///
/// * `batch@t1` within 10% of `batch@seq`,
/// * at every swept thread count ≥ 4, `Batch-STM` strictly beats the
///   best interactive engine.
fn assert_sentinel(cells: &[Cell]) {
    let seq = cells
        .iter()
        .find(|c| c.scenario == "batch/transfer@seq")
        .expect("sequential baseline cell missing");
    if let Some(t1) = cells.iter().find(|c| c.algorithm == BATCH_ENGINE && c.threads == 1) {
        let overhead = (t1.ns_per_tx - seq.ns_per_tx) / seq.ns_per_tx * 100.0;
        assert!(
            overhead <= 10.0,
            "sentinel: 1-thread batch executor is {overhead:.1}% over sequential \
             ({:.2} vs {:.2} ns/tx) — the no-speculation fast path must be free",
            t1.ns_per_tx,
            seq.ns_per_tx,
        );
    }
    for batch_cell in cells.iter().filter(|c| c.algorithm == BATCH_ENGINE && c.threads >= 4) {
        let best = cells
            .iter()
            .filter(|c| c.algorithm != BATCH_ENGINE && c.threads == batch_cell.threads)
            .min_by(|a, b| a.ns_per_tx.total_cmp(&b.ns_per_tx));
        let Some(best) = best else { continue };
        assert!(
            batch_cell.ns_per_tx < best.ns_per_tx,
            "sentinel: batch executor loses to {} at {} threads \
             ({:.2} vs {:.2} modeled ns/tx)",
            best.algorithm,
            batch_cell.threads,
            batch_cell.ns_per_tx,
            best.ns_per_tx,
        );
    }
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

/// One carried-over ledger row: algorithm, scenario, ns/tx, optional txs.
type CarriedRow = (String, String, f64, Option<u64>);

/// Parses the committed `BENCH_8.json` rows for verbatim carry-over.
///
/// # Errors
///
/// Reports a missing or malformed document.
fn carried_rows(doc: &str) -> Result<Vec<CarriedRow>, String> {
    let current = ledger::object_after(doc, "current")?;
    let rows = ledger::array_after(current, "rows")?;
    ledger::objects(rows)
        .into_iter()
        .map(|obj| {
            let alg = ledger::string_field(obj, "algorithm")?;
            let scenario = ledger::string_field(obj, "scenario")?;
            let ns = ledger::number_field(obj, "ns_per_tx")?;
            let txs = ledger::number_field(obj, "txs").ok().map(|t| t as u64);
            Ok((alg, scenario, ns, txs))
        })
        .collect()
}

/// Serializes the complete BENCH_9 document: the carried BENCH_8 rows
/// followed by the batch-race cells.
fn bench9_json(carried: &[CarriedRow], cells: &[Cell]) -> String {
    let mut rows: Vec<Vec<(&str, Value)>> = Vec::new();
    for (alg, scenario, ns, txs) in carried {
        let mut row = vec![
            ("algorithm", Value::Str(alg.clone())),
            ("scenario", Value::Str(scenario.clone())),
            ("ns_per_tx", Value::Num(*ns, 2)),
        ];
        if let Some(txs) = txs {
            row.push(("txs", Value::Int(*txs)));
        }
        rows.push(row);
    }
    for c in cells {
        rows.push(vec![
            ("algorithm", Value::Str(c.algorithm.clone())),
            ("scenario", Value::Str(c.scenario.clone())),
            ("ns_per_tx", Value::Num(c.ns_per_tx, 2)),
            ("txs", Value::Int(c.txs)),
        ]);
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"batch\",\n");
    out.push_str(
        "  \"description\": \"batch execution mode ledger: the committed BENCH_8 rows \
         carried verbatim (so the BENCH_8 -> BENCH_9 committed diff joins and gates every \
         existing cell) plus the batch race — the Block-STM-style executor, sequential \
         rank-order execution, and the five interactive engines on the identical zipfian \
         transfer batch (scenario batch/transfer@t<N>, modeled makespan ns/tx)\",\n",
    );
    out.push_str(&format!(
        "  \"instrumentation_compiled\": {},\n",
        rh_norec::INSTRUMENTED
    ));
    out.push_str("  \"current\": {\n");
    out.push_str(
        "    \"engine\": \"Block-STM-style batch executor vs the interactive session \
         engines (batch/* rows; the rest re-states BENCH_8)\",\n",
    );
    out.push_str("    \"rows\": ");
    out.push_str(&ledger::rows_array(&rows, "      ", "    "));
    out.push_str("\n  }\n");
    out.push_str("}\n");
    out
}

/// CLI entry for `rh-bench batch`: runs the race, prints it, asserts
/// the pinned sentinel, and (full runs only) writes `BENCH_9.json`.
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
            if args.smoke { " (smoke: sentinel only, no ledger write)" } else { "" },
        );
    }
    let cells = run_cells(&args);
    print_cells(&cells, args.csv);
    assert_sentinel(&cells);
    if !args.csv {
        println!("sentinel held: t1 within 10% of sequential; batch beats best interactive at >=4 threads");
    }
    if args.smoke {
        return;
    }
    let carried = match std::fs::read_to_string("BENCH_8.json") {
        Ok(doc) => carried_rows(&doc).unwrap_or_else(|e| {
            eprintln!("BENCH_8.json unreadable ({e}); BENCH_9 will carry no prior rows");
            Vec::new()
        }),
        Err(e) => {
            eprintln!("BENCH_8.json missing ({e}); BENCH_9 will carry no prior rows");
            Vec::new()
        }
    };
    let json = bench9_json(&carried, &cells);
    let path = "BENCH_9.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
