//! Property tests for the TM engines: arbitrary transaction scripts give
//! model-identical results on every algorithm, and concurrent random
//! increments are never lost.
//!
//! The generators run on the in-tree seeded RNG (no registry access
//! needed). Each case is derived entirely from one `u64` seed; on failure
//! the harness prints that seed, and seeds recorded in
//! `proptest-regressions/proptest_tm.txt` are replayed before the sweep.
//! The concurrent-increment property additionally runs under the
//! deterministic scheduler (`tm-check`), so a failing seed replays the
//! exact thread interleaving, not just the same per-thread op streams.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rh_norec::{Algorithm, TmConfig, TmRuntime, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Heap, HeapConfig};

/// Replays committed regression seeds, then sweeps `cases` fresh seeds.
/// Prints the failing seed so the case can be replayed in isolation.
fn sweep(name: &str, regressions: &str, cases: u64, case: impl Fn(u64) + std::panic::RefUnwindSafe) {
    let fresh = (0..cases).map(|i| 0x9e3779b97f4a7c15u64.wrapping_mul(i + 1));
    for seed in regression_seeds(regressions).into_iter().chain(fresh) {
        if let Err(payload) = std::panic::catch_unwind(|| case(seed)) {
            eprintln!("property '{name}' failed; replay with seed {seed:#x}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Parses `seed = 0x...` lines (comments and blanks ignored).
fn regression_seeds(file: &str) -> Vec<u64> {
    file.lines()
        .filter_map(|l| l.trim().strip_prefix("seed = "))
        .map(|s| {
            let s = s.trim();
            u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("bad regression seed")
        })
        .collect()
}

const REGRESSIONS: &str = include_str!("../../../proptest-regressions/proptest_tm.txt");

const SLOTS: u64 = 24;

#[derive(Clone, Debug)]
enum TxOp {
    Read(u64),
    Write(u64, u64),
    AllocFreePair(u64),
}

fn gen_scripts(rng: &mut SmallRng) -> Vec<Vec<TxOp>> {
    (0..rng.gen_range(0..25))
        .map(|_| {
            (0..rng.gen_range(0..10))
                .map(|_| match rng.gen_range(0u32..3) {
                    0 => TxOp::Read(rng.gen_range(0..SLOTS)),
                    1 => TxOp::Write(rng.gen_range(0..SLOTS), rng.gen()),
                    _ => TxOp::AllocFreePair(rng.gen_range(1u64..16)),
                })
                .collect()
        })
        .collect()
}

/// Single-threaded scripts: every algorithm computes the same final
/// memory state and the same read results as a sequential model.
#[test]
fn all_algorithms_match_the_sequential_model() {
    sweep("all_algorithms_match_the_sequential_model", REGRESSIONS, 24, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let script = gen_scripts(&mut rng);
        for alg in Algorithm::ALL {
            let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 14 }));
            let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
            let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(alg)).expect("runtime construction cannot fail");
            let base = heap.allocator().alloc(0, SLOTS).unwrap();
            let mut worker = rt.open_session().expect("free worker slot");
            let mut model: HashMap<u64, u64> = HashMap::new();

            for tx_ops in &script {
                let reads = worker.execute(TxKind::ReadWrite, |tx| {
                    let mut reads = Vec::new();
                    for op in tx_ops {
                        match *op {
                            TxOp::Read(a) => reads.push(tx.read(base.offset(a))?),
                            TxOp::Write(a, v) => tx.write(base.offset(a), v)?,
                            TxOp::AllocFreePair(words) => {
                                let block = tx.alloc(words)?;
                                tx.write(block, 1)?;
                                tx.free(block)?;
                            }
                        }
                    }
                    Ok(reads)
                });
                // Check reads against the model, then apply writes.
                let mut staged = model.clone();
                let mut read_iter = reads.into_iter();
                for op in tx_ops {
                    match *op {
                        TxOp::Read(a) => {
                            let got = read_iter.next().unwrap();
                            assert_eq!(
                                got,
                                staged.get(&a).copied().unwrap_or(0),
                                "{} read mismatch",
                                alg.label()
                            );
                        }
                        TxOp::Write(a, v) => {
                            staged.insert(a, v);
                        }
                        TxOp::AllocFreePair(_) => {}
                    }
                }
                model = staged;
            }
            for a in 0..SLOTS {
                assert_eq!(
                    heap.load(base.offset(a)),
                    model.get(&a).copied().unwrap_or(0),
                    "{} final state mismatch",
                    alg.label()
                );
            }
        }
    });
}

/// Concurrent increments over random slot subsets are never lost, on a
/// randomly chosen algorithm and HTM configuration — driven by the
/// deterministic scheduler, so the seed fixes the interleaving too.
#[test]
fn concurrent_random_increments_conserve_totals() {
    sweep("concurrent_random_increments_conserve_totals", REGRESSIONS, 24, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let alg = Algorithm::ALL[rng.gen_range(0..Algorithm::ALL.len())];
        let htm_config = if rng.gen_bool(0.5) { HtmConfig::disabled() } else { HtmConfig::default() };
        let threads = 3usize;
        let per = 40u64;

        let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 14 }));
        let htm = Htm::new(Arc::clone(&heap), htm_config);
        let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(alg)).expect("runtime construction cannot fail");
        let base = heap.allocator().alloc(0, SLOTS).unwrap();

        let bodies: Vec<_> = (0..threads)
            .map(|tid| {
                let mut worker = rt.open_session().expect("free worker slot");
                move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (tid as u64 + 1));
                    for _ in 0..per {
                        let a = base.offset(rng.gen_range(0..SLOTS));
                        let b = base.offset(rng.gen_range(0..SLOTS));
                        worker.execute(TxKind::ReadWrite, |tx| {
                            if a == b {
                                let va = tx.read(a)?;
                                tx.write(a, va + 2)
                            } else {
                                let va = tx.read(a)?;
                                tx.write(a, va + 1)?;
                                let vb = tx.read(b)?;
                                tx.write(b, vb + 1)
                            }
                        });
                    }
                }
            })
            .collect();
        tm_check::sched::run_threads_seeded(seed, bodies);

        let total: u64 = (0..SLOTS).map(|a| heap.load(base.offset(a))).sum();
        assert_eq!(total, threads as u64 * per * 2, "{} lost increments", alg.label());
    });
}
