//! Accounting invariants of [`TmThreadStats`] across every algorithm.
//!
//! The figures in the paper are ratios of these counters, so a counter
//! that drifts (a commit counted twice, a fallback entry that never
//! resolves) silently corrupts every derived row. This suite runs a
//! seeded deterministic sweep over all algorithms and three HTM device
//! shapes and asserts the closed-form accounting identities that must
//! hold for any fault-free execution:
//!
//! * every commit happened on exactly one path:
//!   `commits == fast_path_commits + slow_path_commits + serial_commits`,
//! * every slow-path entry resolved in exactly one slow or serial commit:
//!   `slow_path_entries == slow_path_commits + serial_commits`,
//! * prefix/postfix attempts dominate their commits, and only the RH
//!   algorithms run prefixes/postfixes at all.

use std::sync::{Arc, Mutex};

use rh_norec::{Algorithm, TmConfig, TmRuntime, TmThreadStats, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Addr, Heap, HeapConfig};

const THREADS: usize = 2;
const TXS_PER_THREAD: u64 = 12;

/// The three device shapes: the default machine, a capacity-starved one
/// that forces fallbacks, and one with HTM fused off entirely.
fn device_shapes() -> Vec<(&'static str, HtmConfig)> {
    vec![
        ("default", HtmConfig::default()),
        (
            "tiny",
            HtmConfig {
                max_write_lines: 2,
                max_read_lines: 4,
                ..HtmConfig::default()
            },
        ),
        ("disabled", HtmConfig { enabled: false, ..HtmConfig::default() }),
    ]
}

/// Runs `THREADS` workers under the deterministic scheduler, each doing a
/// mix of read-write and read-only transactions over shared slots, and
/// returns the merged per-thread stats.
fn run_case(algorithm: Algorithm, htm_config: HtmConfig, seed: u64) -> TmThreadStats {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 14 }));
    let htm = Htm::new(Arc::clone(&heap), htm_config);
    let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(algorithm))
        .expect("runtime construction cannot fail");

    let slots: Vec<Addr> = (0..8)
        .map(|_| heap.allocator().alloc(0, 1).expect("heap has room"))
        .collect();

    let merged = Mutex::new(TmThreadStats::default());
    let bodies: Vec<_> = (0..THREADS)
        .map(|tid| {
            let mut worker = rt.open_session().expect("free worker slot");
            let slots = slots.clone();
            let merged = &merged;
            move || {
                for i in 0..TXS_PER_THREAD {
                    if i % 3 == 2 {
                        // Read-only sweep over every slot.
                        worker.execute(TxKind::ReadOnly, |tx| {
                            let mut sum = 0u64;
                            for &slot in &slots {
                                sum = sum.wrapping_add(tx.read(slot)?);
                            }
                            Ok(sum)
                        });
                    } else {
                        // Read-modify-write of two (likely conflicting) slots.
                        let a = slots[((seed + i) % 8) as usize];
                        let b = slots[((seed + i * 5 + tid as u64) % 8) as usize];
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let v = tx.read(a)?;
                            tx.write(a, v + 1)?;
                            let w = tx.read(b)?;
                            tx.write(b, w + 1)
                        });
                    }
                }
                let mut m = merged.lock().unwrap();
                *m = m.merge(&worker.stats());
            }
        })
        .collect();
    sim_htm::sched::run_threads_seeded(seed, bodies);
    merged.into_inner().unwrap()
}

#[test]
fn commit_and_attempt_accounting_balances_for_every_algorithm() {
    for algorithm in Algorithm::ALL {
        for (shape, htm_config) in device_shapes() {
            for seed in 0..6u64 {
                let s = run_case(algorithm, htm_config, seed);
                let ctx = format!("{algorithm:?}/{shape}/seed {seed}: {s:?}");

                assert_eq!(
                    s.commits,
                    THREADS as u64 * TXS_PER_THREAD,
                    "every executed transaction commits exactly once ({ctx})"
                );
                assert_eq!(
                    s.commits,
                    s.fast_path_commits + s.slow_path_commits + s.serial_commits,
                    "each commit lands on exactly one path ({ctx})"
                );
                assert_eq!(
                    s.slow_path_entries,
                    s.slow_path_commits + s.serial_commits,
                    "each slow-path entry resolves in one slow/serial commit ({ctx})"
                );
                assert!(
                    s.prefix_commits <= s.prefix_attempts,
                    "prefix commits cannot exceed attempts ({ctx})"
                );
                assert!(
                    s.postfix_commits <= s.postfix_attempts,
                    "postfix commits cannot exceed attempts ({ctx})"
                );

                let uses_htm_fast_path = !matches!(
                    algorithm,
                    Algorithm::Norec | Algorithm::NorecLazy | Algorithm::Tl2
                );
                if !uses_htm_fast_path || !htm_config.enabled {
                    assert_eq!(
                        s.fast_path_commits, 0,
                        "no fast-path commits without a usable HTM fast path ({ctx})"
                    );
                }
                let mixed = matches!(
                    algorithm,
                    Algorithm::RhNorec | Algorithm::RhNorecPostfixOnly
                );
                if !mixed {
                    assert_eq!(
                        s.prefix_attempts + s.postfix_attempts,
                        0,
                        "only the RH mixed slow path runs prefix/postfix HTM ({ctx})"
                    );
                }
                if algorithm != Algorithm::LockElision {
                    assert_eq!(
                        s.serial_commits, 0,
                        "only Lock Elision commits under its serializing lock ({ctx})"
                    );
                }
            }
        }
    }
}

/// The invariants also hold for a single uncontended thread, where the
/// fast path should carry everything on the default device.
#[test]
fn uncontended_default_device_commits_on_the_fast_path() {
    for algorithm in [Algorithm::LockElision, Algorithm::HybridNorec, Algorithm::RhNorec] {
        let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 14 }));
        let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
        let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(algorithm))
            .expect("runtime construction cannot fail");
        let slot = heap.allocator().alloc(0, 1).expect("heap has room");
        let mut worker = rt.open_session().expect("free worker slot");
        for _ in 0..32 {
            worker.execute(TxKind::ReadWrite, |tx| {
                let v = tx.read(slot)?;
                tx.write(slot, v + 1)
            });
        }
        let s = worker.stats();
        assert_eq!(s.commits, 32, "{algorithm:?}: {s:?}");
        assert_eq!(s.fast_path_commits, 32, "{algorithm:?} uncontended runs pure HTM: {s:?}");
        assert_eq!(s.commits, s.fast_path_commits + s.slow_path_commits + s.serial_commits);
        assert_eq!(s.slow_path_entries, 0, "{algorithm:?}: {s:?}");
    }
}
