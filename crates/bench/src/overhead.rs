//! `rh-bench overhead`: per-operation cost of the TM API.
//!
//! The RH NOrec fast path is supposed to be *uninstrumented* — the HyTM
//! lower-bound results (Alistarh et al.; Brown & Ravi) show per-access
//! instrumentation is exactly what kills hybrid scaling. This benchmark
//! measures what one transactional access actually costs through the
//! public `Tx` handle, per algorithm. Any cycles left here are pure API,
//! dispatch, and log-engine tax.
//!
//! Seven scenarios per algorithm:
//!
//! * `read` — a `TxKind::ReadOnly` transaction of 16 uncontended reads
//!   (HTM on: hybrids run their fast path),
//! * `read_write` — a `TxKind::ReadWrite` transaction of 8 read/write
//!   pairs (HTM on),
//! * `write_heavy` — 16 writes cycling over 4 distinct addresses, **HTM
//!   disabled** so the hybrids run their software slow paths: exercises
//!   write-set coalescing (4 live entries, not 16) and write-back,
//! * `read_after_write` — 16 writes to distinct addresses, then 8 reads
//!   of written addresses (read-after-write hits) and 8 reads of
//!   unwritten ones (misses), HTM disabled: exercises the write-set
//!   lookup path on both sides of the bloom filter,
//! * `contended` — 4 threads incrementing one shared cell (HTM on):
//!   exercises the fast-path retry and spin-site backoff under real
//!   contention. Wall-clock noise makes this cell informative rather
//!   than gated,
//! * `contended_disjoint` — 4 threads each incrementing a private
//!   line-padded cell with the fallback counter pinned nonzero (HTM on,
//!   `clock_shards = 1`): the transactions share *no data*, so every
//!   HTM conflict comes from the commit-clock metadata itself,
//! * `contended_sharded` — the identical workload at `clock_shards = 4`:
//!   each thread bumps its own sequence lane, so the metadata conflicts
//!   vanish. The `contended_disjoint` / `contended_sharded` pair is the
//!   sharded-clock sentinel: same body, same machine, only the clock
//!   layout differs. Both twins run interleave-paced and report the
//!   *modeled* ns/tx (cycle budget over [`rh_norec::cost::MODEL_HZ`]),
//!   so the comparison holds on hosts with fewer cores than workers.
//!
//! Results go to stdout (table or `--csv`) and nowhere else.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rh_norec::{Algorithm, TmConfig, TmRuntime, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Addr, Heap, HeapConfig, WORDS_PER_LINE};

use crate::figures::Scale;

/// One benchmark scenario: body shape plus machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (stable across revisions).
    pub name: &'static str,
    /// Transactional accesses per transaction.
    pub accesses: u64,
    /// Whether the simulated HTM is available. Off forces the hybrid
    /// algorithms onto their software slow paths.
    pub htm: bool,
    /// Worker threads (1 = uncontended single-thread cell).
    pub threads: usize,
    /// Commit-clock sequence lanes (`TmConfig::clock_shards`); 1 is the
    /// classic single-word clock.
    pub clock_shards: u32,
    /// Multi-threaded cells only: give each thread a private line-padded
    /// cell instead of one shared word, so the only remaining HTM
    /// conflicts are on the clock metadata.
    pub disjoint: bool,
    /// Multi-threaded cells only: pin `num_of_fallbacks` to 1 before
    /// measuring, so hardware fast paths run their commit-time clock
    /// bump on every transaction (with the counter at 0 they skip the
    /// clock entirely and the scenario would measure nothing).
    pub pin_fallback: bool,
    /// `TmConfig::interleave_accesses` for this cell. Nonzero makes each
    /// worker yield the host thread every N transactional accesses *and*
    /// inside the commit-bump window, so concurrent transactions overlap
    /// in time the way they would on dedicated cores — without it, a
    /// few-core host timeslices whole transactions back to back and
    /// clock conflicts never physically occur. The figure driver uses
    /// the same pacing; the single-thread and legacy cells keep 0.
    pub interleave: u32,
    /// Report modeled ns/tx (summed `TmThreadStats::cycles` over
    /// `cost::MODEL_HZ`) instead of wall clock. Interleave-paced cells
    /// must use this: their host wall clock is dominated by deliberate
    /// yields and simulator bookkeeping, while the cycle budget charges
    /// exactly the protocol work — including every aborted attempt's
    /// body, abort penalty, and retry (the same policy the figure
    /// harness documents for interleaving-sensitive rows).
    pub modeled: bool,
}

/// The full scenario matrix.
pub const SCENARIOS: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "read",
        accesses: 16,
        htm: true,
        threads: 1,
        clock_shards: 1,
        disjoint: false,
        pin_fallback: false,
        interleave: 0,
        modeled: false,
    },
    ScenarioSpec {
        name: "read_write",
        accesses: 16,
        htm: true,
        threads: 1,
        clock_shards: 1,
        disjoint: false,
        pin_fallback: false,
        interleave: 0,
        modeled: false,
    },
    ScenarioSpec {
        name: "write_heavy",
        accesses: 16,
        htm: false,
        threads: 1,
        clock_shards: 1,
        disjoint: false,
        pin_fallback: false,
        interleave: 0,
        modeled: false,
    },
    ScenarioSpec {
        name: "read_after_write",
        accesses: 32,
        htm: false,
        threads: 1,
        clock_shards: 1,
        disjoint: false,
        pin_fallback: false,
        interleave: 0,
        modeled: false,
    },
    ScenarioSpec {
        name: "contended",
        accesses: 2,
        htm: true,
        threads: 4,
        clock_shards: 1,
        disjoint: false,
        pin_fallback: false,
        interleave: 0,
        modeled: false,
    },
    ScenarioSpec {
        name: "contended_disjoint",
        accesses: 2,
        htm: true,
        threads: 4,
        clock_shards: 1,
        disjoint: true,
        pin_fallback: true,
        interleave: 1,
        modeled: true,
    },
    ScenarioSpec {
        name: "contended_sharded",
        accesses: 2,
        htm: true,
        threads: 4,
        clock_shards: 4,
        disjoint: true,
        pin_fallback: true,
        interleave: 1,
        modeled: true,
    },
];

/// One measured cell.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Algorithm label (matches figure legends).
    pub algorithm: &'static str,
    /// Scenario name.
    pub scenario: &'static str,
    /// Transactions measured (after warmup).
    pub txs: u64,
    /// Wall-clock nanoseconds per transaction.
    pub ns_per_tx: f64,
    /// Wall-clock nanoseconds per transactional access.
    pub ns_per_access: f64,
}

fn measure_budget(scale: Scale) -> Duration {
    match scale {
        Scale::Quick => Duration::from_millis(96),
        Scale::Paper => Duration::from_millis(400),
    }
}

/// Measurement passes per cell. Each cell's budget is split into
/// `PASSES` slices interleaved with every other cell's, so a
/// multi-second load burst on a shared host degrades *some batches of
/// every cell* instead of *every batch of one cell* — the per-cell
/// minimum then recovers the uncontended cost for all of them.
const PASSES: u32 = 4;

fn make_runtime(algorithm: Algorithm, spec: &ScenarioSpec) -> (Arc<Heap>, Arc<TmRuntime>) {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    // Default HTM config: ample capacity, no spurious aborts; disabled
    // models a machine without RTM so the software slow paths run alone.
    let htm_cfg = if spec.htm { HtmConfig::default() } else { HtmConfig::disabled() };
    let htm = Htm::new(Arc::clone(&heap), htm_cfg);
    let tm_cfg = TmConfig::builder(algorithm)
        .clock_shards(spec.clock_shards)
        .interleave_accesses(spec.interleave)
        .build()
        .expect("overhead TM configuration rejected");
    let rt = TmRuntime::new(Arc::clone(&heap), htm, tm_cfg)
        .expect("overhead runtime construction cannot fail");
    (heap, rt)
}

fn alloc_slots(heap: &Heap) -> Vec<Addr> {
    let alloc = heap.allocator();
    (0..64)
        .map(|i| {
            let a = alloc.alloc(0, 8).expect("overhead heap too small");
            heap.store(a, i);
            a
        })
        .collect()
}

fn run_body(scenario: &'static str, worker: &mut rh_norec::Session, slots: &[Addr]) {
    match scenario {
        "read" => {
            let sum = worker.execute(TxKind::ReadOnly, |tx| {
                let mut acc = 0u64;
                for slot in &slots[..16] {
                    acc = acc.wrapping_add(tx.read(*slot)?);
                }
                Ok(acc)
            });
            std::hint::black_box(sum);
        }
        "read_write" => {
            worker.execute(TxKind::ReadWrite, |tx| {
                for i in 0..8 {
                    let v = tx.read(slots[i])?;
                    tx.write(slots[32 + i], v.wrapping_add(1))?;
                }
                Ok(())
            });
        }
        "write_heavy" => {
            // 16 writes over 4 addresses: a coalescing write-set keeps 4
            // live entries and writes back 4 words; an append-only one
            // keeps 16 and writes back 16.
            worker.execute(TxKind::ReadWrite, |tx| {
                for i in 0..16u64 {
                    tx.write(slots[(i & 3) as usize], i)?;
                }
                Ok(())
            });
        }
        "read_after_write" => {
            // 16 distinct writes, then 8 read-after-write hits and 8
            // misses: hits exercise the write-set lookup, misses the
            // bloom-filter negative path.
            let sum = worker.execute(TxKind::ReadWrite, |tx| {
                for i in 0..16u64 {
                    tx.write(slots[i as usize], i)?;
                }
                let mut acc = 0u64;
                for slot in &slots[..8] {
                    acc = acc.wrapping_add(tx.read(*slot)?);
                }
                for slot in &slots[32..40] {
                    acc = acc.wrapping_add(tx.read(*slot)?);
                }
                Ok(acc)
            });
            std::hint::black_box(sum);
        }
        other => unreachable!("unknown overhead scenario {other}"),
    }
}

/// A warmed-up single-threaded cell with its accumulated measurement
/// state, kept alive across interleaved passes.
struct LiveCell {
    algorithm: Algorithm,
    spec: &'static ScenarioSpec,
    worker: rh_norec::Session,
    slots: Vec<Addr>,
    best_batch: Duration,
    txs: u64,
}

impl LiveCell {
    fn new(algorithm: Algorithm, spec: &'static ScenarioSpec) -> Self {
        let (heap, rt) = make_runtime(algorithm, spec);
        let mut worker = rt.open_session().expect("free worker slot");
        let slots = alloc_slots(&heap);
        // Warmup: fault in the working set, settle adaptive state, and
        // let the recycled log arenas reach their steady-state capacity.
        for _ in 0..2_000 {
            run_body(spec.name, &mut worker, &slots);
        }
        LiveCell {
            algorithm,
            spec,
            worker,
            slots,
            best_batch: Duration::MAX,
            txs: 0,
        }
    }

    /// One timed slice: batches of 1024 transactions until the slice
    /// budget elapses, keeping the fastest batch. We report the minimum,
    /// not the mean: on a shared CI machine the mean folds in scheduler
    /// preemptions and co-tenant load, while the minimum converges on
    /// the true uncontended cost.
    fn pass(&mut self, slice: Duration) {
        let started = Instant::now();
        loop {
            let batch_started = Instant::now();
            for _ in 0..1_024 {
                run_body(self.spec.name, &mut self.worker, &self.slots);
            }
            self.best_batch = self.best_batch.min(batch_started.elapsed());
            self.txs += 1_024;
            if started.elapsed() >= slice {
                break;
            }
        }
    }

    fn into_row(self) -> OverheadRow {
        let ns_per_tx = self.best_batch.as_nanos() as f64 / 1_024.0;
        OverheadRow {
            algorithm: self.algorithm.label(),
            scenario: self.spec.name,
            txs: self.txs,
            ns_per_tx,
            ns_per_access: ns_per_tx / self.spec.accesses as f64,
        }
    }
}

/// Runs a multi-threaded contended-cell scenario: `threads` workers each
/// increment either one shared word or (`disjoint`) a private line-padded
/// word `txs_per_thread` times.
fn run_contended(algorithm: Algorithm, spec: &ScenarioSpec, scale: Scale) -> OverheadRow {
    let (heap, rt) = make_runtime(algorithm, spec);
    let alloc = heap.allocator();
    // Line-padded so disjoint cells never share a simulated cache line —
    // the HTM detects conflicts at line granularity, and data false
    // sharing would mask the clock-metadata effect under measurement.
    let cells: Vec<Addr> = if spec.disjoint {
        (0..spec.threads)
            .map(|_| alloc.alloc(0, WORDS_PER_LINE).expect("overhead heap too small"))
            .collect()
    } else {
        vec![alloc.alloc(0, WORDS_PER_LINE).expect("overhead heap too small")]
    };
    if spec.pin_fallback {
        // A nonzero fallback count makes every hardware fast-path commit
        // run its clock bump (see `fast_commit_clock_update`): the
        // scenario measures the commit clock, not the no-fallback
        // shortcut that skips it.
        heap.store(rt.globals().num_of_fallbacks, 1);
    }

    let txs_per_thread: u64 = match scale {
        Scale::Quick => 4_000,
        Scale::Paper => 25_000,
    };
    let started = Instant::now();
    let reports: Vec<rh_norec::ThreadReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|tid| {
                let rt = Arc::clone(&rt);
                let cell = cells[tid % cells.len()];
                s.spawn(move || {
                    let mut worker = rt.open_session().expect("free worker slot");
                    for _ in 0..txs_per_thread {
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let v = tx.read(cell)?;
                            tx.write(cell, v.wrapping_add(1))
                        });
                    }
                    worker.report()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("overhead worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let txs = txs_per_thread * spec.threads as u64;
    for cell in &cells {
        let expected = if spec.disjoint { txs_per_thread } else { txs };
        assert_eq!(
            heap.load(*cell),
            expected,
            "{algorithm:?} lost updates on a {} cell",
            spec.name
        );
    }
    let ns_per_tx = if spec.modeled {
        // Modeled cost: the summed per-thread cycle budget charges every
        // attempt's body, abort penalty, and retry at the simulator's
        // published costs, converted at `MODEL_HZ` — immune to the pacing
        // yields that dominate the paced cells' host wall clock.
        let cycles: u64 = reports.iter().map(|r| r.tm.cycles).sum();
        cycles as f64 / txs as f64 / rh_norec::cost::MODEL_HZ * 1e9
    } else {
        elapsed.as_nanos() as f64 / txs as f64
    };
    OverheadRow {
        algorithm: algorithm.label(),
        scenario: spec.name,
        txs,
        ns_per_tx,
        ns_per_access: ns_per_tx / spec.accesses as f64,
    }
}

/// Runs the full overhead matrix: every algorithm × every scenario.
pub fn run_matrix(scale: Scale) -> Vec<OverheadRow> {
    let budget = measure_budget(scale);

    // Warm up every single-threaded cell, then interleave their
    // measurement passes (see [`PASSES`]).
    let mut singles: Vec<LiveCell> = Algorithm::ALL
        .iter()
        .flat_map(|&algorithm| {
            SCENARIOS
                .iter()
                .filter(|spec| spec.threads == 1)
                .map(move |spec| LiveCell::new(algorithm, spec))
        })
        .collect();
    let slice = budget / PASSES;
    for _ in 0..PASSES {
        for cell in &mut singles {
            cell.pass(slice);
        }
    }

    // The multi-threaded cells run once each, after the gated cells, so
    // their thread churn does not perturb the single-thread minima.
    let mut single_rows = singles.into_iter().map(LiveCell::into_row);
    let mut rows = Vec::new();
    for &algorithm in &Algorithm::ALL {
        for spec in SCENARIOS {
            if spec.threads == 1 {
                rows.push(single_rows.next().expect("one row per single cell"));
            } else {
                rows.push(run_contended(algorithm, spec, scale));
            }
        }
    }
    rows
}

/// Runs the matrix and prints it (`--csv` for machine-readable rows).
pub fn run(scale: Scale, csv: bool) {
    let rows = run_matrix(scale);

    if csv {
        println!("algorithm,scenario,txs,ns_per_tx,ns_per_access");
        for r in &rows {
            println!(
                "{},{},{},{:.2},{:.3}",
                r.algorithm, r.scenario, r.txs, r.ns_per_tx, r.ns_per_access
            );
        }
    } else {
        println!(
            "overhead: cost per transactional access (instrumentation compiled: {})",
            rh_norec::INSTRUMENTED
        );
        println!(
            "{:<18} {:<18} {:>10} {:>12} {:>14}",
            "algorithm", "scenario", "txs", "ns/tx", "ns/access"
        );
        for r in &rows {
            println!(
                "{:<18} {:<18} {:>10} {:>12.2} {:>14.3}",
                r.algorithm, r.scenario, r.txs, r.ns_per_tx, r.ns_per_access
            );
        }
    }
}
