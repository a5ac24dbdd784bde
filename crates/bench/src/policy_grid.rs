//! `rh-bench ablate --policy`: the adaptive-vs-static policy grid.
//!
//! The overhead matrix shows that no single static clock setting wins everywhere:
//! `clock_shards = 4` removes the commit-clock metadata conflicts that
//! dominate the disjoint contended cells (~66% on `contended_disjoint`)
//! but taxes every software validation with extra lane reads. The
//! adaptive policy layer (`rh_norec::PolicyConfig`) is supposed to
//! resolve that tension at runtime — this grid measures whether it does.
//!
//! Four sentinel cells, all on RH NOrec (the paper's engine), all
//! reporting *modeled* ns/tx (summed cycle budget over
//! [`rh_norec::cost::MODEL_HZ`]) so the grid is a property of the
//! protocol, not of CI host load:
//!
//! * `contended` — 4 threads incrementing one shared word, HTM
//!   disabled: the software slow path under real data contention, where
//!   extra clock lanes are pure tax and the backoff window matters,
//! * `contended_disjoint` — 4 threads on private line-padded words with
//!   the fallback counter pinned (HTM on): no data is shared, so every
//!   conflict is commit-clock metadata — the cell sharding exists for,
//! * `contended_sharded` — the same disjoint workload at 8 threads:
//!   more lanes wanted, stronger version of the same signal,
//! * `write_heavy` — one thread, 16 writes over 4 addresses, HTM
//!   disabled: the uncontended software baseline; any adaptive overhead
//!   shows up here undiluted.
//!
//! Three configurations per cell: `static1` (`clock_shards = 1`, policy
//! off), `static4` (`clock_shards = 4`, policy off), and `adaptive`
//! (`clock_shards = 4` with every controller on). `static1` wins
//! `contended`, `static4` wins `contended_disjoint` — the acceptance
//! question is whether `adaptive` tracks the winner on both, so every
//! run measures all three and prints the verdict.

use std::sync::Arc;

use rh_norec::{Algorithm, PolicyConfig, TmConfig, TmRuntime, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Addr, Heap, HeapConfig, WORDS_PER_LINE};

use crate::figures::Scale;

/// Transaction body shape of one sentinel cell.
#[derive(Clone, Copy, Debug)]
enum Body {
    /// Read-modify-write increment of one word.
    Incr,
    /// 16 blind writes cycling over 4 addresses.
    WriteHeavy,
}

/// One sentinel cell of the grid.
struct GridCell {
    name: &'static str,
    threads: usize,
    htm: bool,
    /// Private line-padded word per thread instead of one shared word.
    disjoint: bool,
    /// Pin `num_of_fallbacks` so hardware commits run their clock bump.
    pin_fallback: bool,
    body: Body,
}

const CELLS: &[GridCell] = &[
    GridCell {
        name: "contended",
        threads: 4,
        htm: false,
        disjoint: false,
        pin_fallback: false,
        body: Body::Incr,
    },
    GridCell {
        name: "contended_disjoint",
        threads: 4,
        htm: true,
        disjoint: true,
        pin_fallback: true,
        body: Body::Incr,
    },
    GridCell {
        name: "contended_sharded",
        threads: 8,
        htm: true,
        disjoint: true,
        pin_fallback: true,
        body: Body::Incr,
    },
    GridCell {
        name: "write_heavy",
        threads: 1,
        htm: false,
        disjoint: false,
        pin_fallback: false,
        body: Body::WriteHeavy,
    },
];

/// One engine configuration of the grid.
#[derive(Clone, Copy, Debug)]
pub struct GridConfig {
    /// Configuration label (`static1` / `static4` / `adaptive`).
    pub name: &'static str,
    /// `TmConfig::clock_shards`.
    pub shards: u32,
    /// Arms [`PolicyConfig::adaptive`].
    pub adaptive: bool,
}

/// The three configurations the grid compares.
pub const CONFIGS: &[GridConfig] = &[
    GridConfig { name: "static1", shards: 1, adaptive: false },
    GridConfig { name: "static4", shards: 4, adaptive: false },
    GridConfig { name: "adaptive", shards: 4, adaptive: true },
];

/// One measured grid cell.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// Sentinel cell name.
    pub cell: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Transactions measured.
    pub txs: u64,
    /// Modeled nanoseconds per transaction.
    pub ns_per_tx: f64,
}

fn txs_per_thread(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 4_000,
        Scale::Paper => 25_000,
    }
}

fn run_grid_cell(cell: &GridCell, config: &GridConfig, scale: Scale) -> GridRow {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm_cfg = if cell.htm { HtmConfig::default() } else { HtmConfig::disabled() };
    let htm = Htm::new(Arc::clone(&heap), htm_cfg);
    let mut builder = TmConfig::builder(Algorithm::RhNorec)
        .clock_shards(config.shards)
        .interleave_accesses(u32::from(cell.threads > 1));
    if config.adaptive {
        builder = builder.policy(PolicyConfig::adaptive());
    }
    let tm_cfg = builder.build().expect("policy grid TM configuration rejected");
    let rt = TmRuntime::new(Arc::clone(&heap), htm, tm_cfg)
        .expect("policy grid runtime construction cannot fail");

    let alloc = heap.allocator();
    // Line-padded cells: the simulated HTM conflicts at line granularity,
    // and data false sharing would mask the clock-metadata effect.
    let cells: Vec<Addr> = if cell.disjoint {
        (0..cell.threads)
            .map(|_| alloc.alloc(0, WORDS_PER_LINE).expect("policy grid heap too small"))
            .collect()
    } else {
        vec![alloc.alloc(0, WORDS_PER_LINE).expect("policy grid heap too small")]
    };
    if cell.pin_fallback {
        // With the counter at 0 hardware commits skip the clock bump
        // entirely and the cell would measure nothing (see the overhead
        // matrix's `contended_disjoint` cell).
        heap.store(rt.globals().num_of_fallbacks, 1);
    }

    let per_thread = txs_per_thread(scale);
    let body = cell.body;
    let reports: Vec<rh_norec::ThreadReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cell.threads)
            .map(|tid| {
                let rt = Arc::clone(&rt);
                let target = cells[tid % cells.len()];
                s.spawn(move || {
                    let mut worker = rt.open_session().expect("free worker slot");
                    for _ in 0..per_thread {
                        match body {
                            Body::Incr => {
                                worker.execute(TxKind::ReadWrite, |tx| {
                                    let v = tx.read(target)?;
                                    tx.write(target, v.wrapping_add(1))
                                });
                            }
                            Body::WriteHeavy => {
                                worker.execute(TxKind::ReadWrite, |tx| {
                                    for i in 0..16u64 {
                                        tx.write(target.offset(i & 3), i)?;
                                    }
                                    Ok(())
                                });
                            }
                        }
                    }
                    worker.report()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("policy grid worker panicked"))
            .collect()
    });

    let txs = per_thread * cell.threads as u64;
    if matches!(cell.body, Body::Incr) {
        for target in &cells {
            let expected = if cell.disjoint { per_thread } else { txs };
            assert_eq!(
                heap.load(*target),
                expected,
                "{}/{}: lost updates",
                cell.name,
                config.name
            );
        }
    }
    // Modeled cost: every attempt's body, abort penalty, retry, backoff
    // spin, and lane validation at the simulator's published costs.
    let cycles: u64 = reports.iter().map(|r| r.tm.cycles).sum();
    let ns_per_tx = cycles as f64 / txs as f64 / rh_norec::cost::MODEL_HZ * 1e9;
    GridRow { cell: cell.name, config: config.name, txs, ns_per_tx }
}

/// Runs every configuration on every cell and returns the rows in
/// cell-major order.
pub fn run_grid(scale: Scale) -> Vec<GridRow> {
    let mut rows = Vec::new();
    for cell in CELLS {
        for config in CONFIGS {
            rows.push(run_grid_cell(cell, config, scale));
        }
    }
    rows
}

/// Prints the grid and the adaptive-vs-static verdict per cell.
pub fn print_grid(rows: &[GridRow], csv: bool) {
    if csv {
        println!("cell,config,txs,ns_per_tx");
        for r in rows {
            println!("{},{},{},{:.2}", r.cell, r.config, r.txs, r.ns_per_tx);
        }
        return;
    }
    println!("policy grid: RH NOrec, modeled ns/tx (cycle budget at MODEL_HZ)");
    println!("{:<20} {:<10} {:>10} {:>12}", "cell", "config", "txs", "ns/tx");
    for r in rows {
        println!("{:<20} {:<10} {:>10} {:>12.2}", r.cell, r.config, r.txs, r.ns_per_tx);
    }
    for cell in CELLS {
        let find = |config: &str| {
            rows.iter()
                .find(|r| r.cell == cell.name && r.config == config)
                .map(|r| r.ns_per_tx)
                .expect("the grid runs every configuration on every cell")
        };
        let (s1, s4, ad) = (find("static1"), find("static4"), find("adaptive"));
        let best = s1.min(s4);
        println!(
            "{:<20} adaptive vs best-static {:+.1}%  vs static1 {:+.1}%  vs static4 {:+.1}%",
            cell.name,
            (ad - best) / best * 100.0,
            (ad - s1) / s1 * 100.0,
            (ad - s4) / s4 * 100.0,
        );
    }
}

/// CLI entry for `ablate --policy`: runs the full grid and prints it.
pub fn run(scale: Scale, csv: bool) {
    print_grid(&run_grid(scale), csv);
}
