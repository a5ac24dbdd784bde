//! The algorithm conformance battery: every TM algorithm must provide
//! serializability, opacity, and privatization — "the same consistency
//! properties as pure hardware transactions" (paper §1.1) — under any HTM
//! configuration, including no HTM at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use rh_norec::{clock, Algorithm, TmConfig, TmRuntime, TxFault, TxKind};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Addr, Heap, HeapConfig};

fn runtime(algorithm: Algorithm, htm_config: HtmConfig) -> (Arc<Heap>, Arc<TmRuntime>) {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 18 }));
    let htm = Htm::new(Arc::clone(&heap), htm_config);
    let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(algorithm)).expect("runtime construction cannot fail");
    (heap, rt)
}

/// HTM configurations to exercise: the paper's machine, a machine without
/// RTM (pure software fallback), pathological capacity, and noisy
/// spurious aborts.
fn htm_configs() -> Vec<(&'static str, HtmConfig)> {
    vec![
        ("haswell", HtmConfig::default()),
        ("disabled", HtmConfig::disabled()),
        ("tiny", HtmConfig::tiny_capacity()),
        (
            "spurious",
            HtmConfig {
                spurious_abort_per_access: 0.05,
                ..HtmConfig::default()
            },
        ),
    ]
}

fn for_all_algorithms(test: impl Fn(Algorithm, HtmConfig)) {
    for &alg in &Algorithm::ALL {
        for (name, cfg) in htm_configs() {
            // STMs are HTM-independent; run them once.
            if !alg.uses_htm() && name != "haswell" {
                continue;
            }
            test(alg, cfg);
        }
    }
}

/// Serializability: concurrent read-modify-writes of one counter are never
/// lost.
#[test]
fn counter_increments_are_exact() {
    for_all_algorithms(|alg, cfg| {
        let (heap, rt) = runtime(alg, cfg);
        let counter = heap.allocator().alloc(0, 1).unwrap();
        let threads = 4;
        let per = 500u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let mut worker = rt.open_session().expect("free worker slot");
                s.spawn(move || {
                    for _ in 0..per {
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let v = tx.read(counter)?;
                            tx.write(counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(
            heap.load(counter),
            threads as u64 * per,
            "{alg:?} lost increments"
        );
    });
}

/// Snapshot consistency: read-only transactions over a transfer-churned
/// bank always see the exact conserved total.
#[test]
fn bank_snapshots_see_conserved_total() {
    for_all_algorithms(|alg, cfg| {
        let (heap, rt) = runtime(alg, cfg);
        let accounts = 16u64;
        let initial = 100u64;
        let base = heap.allocator().alloc(0, accounts).unwrap();
        for i in 0..accounts {
            heap.store(base.offset(i), initial);
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for tid in 0..2usize {
                let mut worker = rt.open_session().expect("free worker slot");
                let done = &done;
                s.spawn(move || {
                    let mut rng = 0x1234_5678_9abc_def0u64 ^ tid as u64;
                    for _ in 0..800 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let from = base.offset(rng % accounts);
                        let to = base.offset((rng >> 16) % accounts);
                        if from == to {
                            continue;
                        }
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let f = tx.read(from)?;
                            let t = tx.read(to)?;
                            let amount = f.min(5);
                            tx.write(from, f - amount)?;
                            tx.write(to, t + amount)
                        });
                    }
                    done.store(true, Ordering::Release);
                });
            }
            {
                let mut worker = rt.open_session().expect("free worker slot");
                let done = &done;
                s.spawn(move || {
                    let mut seen = 0;
                    while !done.load(Ordering::Acquire) || seen == 0 {
                        let sum = worker.execute(TxKind::ReadOnly, |tx| {
                            let mut sum = 0u64;
                            for i in 0..accounts {
                                sum += tx.read(base.offset(i))?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(sum, accounts * initial, "{alg:?} torn snapshot");
                        seen += 1;
                    }
                });
            }
        });
        let total: u64 = (0..accounts).map(|i| heap.load(base.offset(i))).sum();
        assert_eq!(total, accounts * initial, "{alg:?} lost money");
    });
}

/// Opacity: even a doomed transaction never observes a state in which the
/// writer's invariant (x + y constant) is broken. The assert runs *inside*
/// the body, before the engine decides the transaction's fate.
#[test]
fn opacity_holds_mid_transaction() {
    for_all_algorithms(|alg, cfg| {
        let (heap, rt) = runtime(alg, cfg);
        let alloc = heap.allocator();
        let x = alloc.alloc(0, 8).unwrap();
        let y = alloc.alloc(0, 8).unwrap();
        let total = 1_000u64;
        heap.store(x, total);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            {
                let mut worker = rt.open_session().expect("free worker slot");
                let done = &done;
                s.spawn(move || {
                    for step in 0..2_000u64 {
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let vx = tx.read(x)?;
                            let vy = tx.read(y)?;
                            let delta = ((step % 5) + 1).min(vx);
                            tx.write(x, vx - delta)?;
                            tx.write(y, vy + delta)
                        });
                    }
                    done.store(true, Ordering::Release);
                });
            }
            for _ in 1..3usize {
                let mut worker = rt.open_session().expect("free worker slot");
                let done = &done;
                s.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        worker.execute(TxKind::ReadOnly, |tx| {
                            let vx = tx.read(x)?;
                            let vy = tx.read(y)?;
                            assert_eq!(vx + vy, total, "{alg:?} opacity violation");
                            Ok(())
                        });
                    }
                });
            }
        });
    });
}

/// Write-skew prevention: serializable TMs must not let two transactions
/// that read each other's write succeed together.
#[test]
fn write_skew_is_prevented() {
    for_all_algorithms(|alg, cfg| {
        let (heap, rt) = runtime(alg, cfg);
        let alloc = heap.allocator();
        let x = alloc.alloc(0, 8).unwrap();
        let y = alloc.alloc(0, 8).unwrap();
        let rounds = 100;
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let mk = |tid: usize, mine: Addr, other: Addr| {
                let mut worker = rt.open_session().expect("free worker slot");
                let barrier = &barrier;
                let heap = Arc::clone(&heap);
                s.spawn(move || {
                    for _ in 0..rounds {
                        barrier.wait();
                        worker.execute(TxKind::ReadWrite, |tx| {
                            if tx.read(other)? == 0 {
                                let v = tx.read(mine)?;
                                tx.write(mine, v + 1)?;
                            }
                            Ok(())
                        });
                        barrier.wait();
                        // One thread checks and resets between rounds.
                        if tid == 0 {
                            let vx = heap.load(x);
                            let vy = heap.load(y);
                            assert!(
                                vx == 0 || vy == 0,
                                "{alg:?} allowed write skew: x={vx} y={vy}"
                            );
                            heap.store(x, 0);
                            heap.store(y, 0);
                        }
                        barrier.wait();
                    }
                });
            };
            mk(0, x, y);
            mk(1, y, x);
        });
    });
}

/// Privatization: once a transaction commits the unlink of a node, no
/// in-flight transaction's effects may appear in it, and non-transactional
/// access to it is safe.
#[test]
fn privatization_is_safe() {
    for_all_algorithms(|alg, cfg| {
        let (heap, rt) = runtime(alg, cfg);
        let alloc = heap.allocator();
        // head -> node; writers increment node.value while linked.
        let head = alloc.alloc(0, 8).unwrap();
        let node = alloc.alloc(0, 8).unwrap();
        heap.store(head, node.to_word());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2usize {
                let mut worker = rt.open_session().expect("free worker slot");
                let done = &done;
                s.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let target = tx.read_addr(head)?;
                            if !target.is_null() {
                                let v = tx.read(target)?;
                                tx.write(target, v + 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            {
                let mut worker = rt.open_session().expect("free worker slot");
                let heap = Arc::clone(&heap);
                let done = &done;
                s.spawn(move || {
                    // Let the writers churn, then privatize.
                    for _ in 0..2_000 {
                        std::hint::spin_loop();
                    }
                    worker.execute(TxKind::ReadWrite, |tx| tx.write_addr(head, Addr::NULL));
                    // The node is now private: plain accesses must be stable
                    // against any straggler transaction.
                    heap.store(node, 777);
                    for _ in 0..10_000 {
                        assert_eq!(
                            heap.load(node),
                            777,
                            "{alg:?} privatization violated: a transaction wrote a private node"
                        );
                    }
                    done.store(true, Ordering::Release);
                });
            }
        });
    });
}

/// The read-only static hint is enforced.
#[test]
#[should_panic(expected = "read-only")]
fn read_only_hint_is_enforced() {
    let (heap, rt) = runtime(Algorithm::RhNorec, HtmConfig::default());
    let a = heap.allocator().alloc(0, 1).unwrap();
    let mut worker = rt.open_session().expect("free worker slot");
    worker.execute(TxKind::ReadOnly, |tx| tx.write(a, 1));
}

/// A typed fault tears down cleanly on every engine path: the fast path
/// (healthy HTM), the serial section, the eager and lazy hybrid slow
/// paths and RH NOrec's mixed slow path (no HTM, or a read set that
/// overflows the tiny device), and the STMs. The faulting session leaves
/// the heap and every protocol word as it found them, and a second
/// session's read-modify-write then commits.
#[test]
fn typed_fault_tears_down_cleanly_on_every_path() {
    for_all_algorithms(|alg, cfg| {
        let (heap, rt) = runtime(alg, cfg);
        let g = *rt.globals();
        let alloc = heap.allocator();
        let a = alloc.alloc(0, 8).unwrap();
        heap.store(a, 7);
        // 16 distinct lines: twice the tiny device's read capacity.
        let slots: Vec<Addr> = (0..16).map(|_| alloc.alloc(0, 8).unwrap()).collect();
        let mut faulty = rt.open_session().expect("free worker slot");
        for reads in [0, slots.len()] {
            let fault = faulty.run_read(|tx| {
                for &s in &slots[..reads] {
                    tx.read(s)?;
                }
                tx.write(a, 1)
            });
            assert_eq!(fault, Err(TxFault::WriteInReadOnly), "{alg:?} ({reads} reads)");
            assert_eq!(heap.load(a), 7, "{alg:?}: faulted attempt touched the heap");
            assert_eq!(heap.load(g.global_htm_lock), 0, "{alg:?}: HTM lock leaked");
            assert_eq!(heap.load(g.serial_lock), 0, "{alg:?}: serial lock leaked");
            assert_eq!(heap.load(g.num_of_fallbacks), 0, "{alg:?}: fallback count leaked");
            for lane in 0..g.clock.shards() as usize {
                let word = heap.load(g.clock.lane(lane));
                assert!(!clock::is_locked(word), "{alg:?}: clock lane {lane} left locked");
            }
        }
        assert_eq!(faulty.stats().commits, 0, "{alg:?}: a faulted attempt counted as committed");
        let mut other = rt.open_session().expect("free worker slot");
        let old = other.run(|tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)?;
            Ok(v)
        });
        assert_eq!(old, Ok(7), "{alg:?}: peer could not commit after the fault");
        assert_eq!(heap.load(a), 8);
    });
}

/// Transactional allocation: nodes allocated and linked in committed
/// transactions are visible; transactionally freed nodes get recycled.
#[test]
fn transactional_alloc_and_free() {
    for_all_algorithms(|alg, cfg| {
        let (heap, rt) = runtime(alg, cfg);
        let alloc = heap.allocator();
        let list = alloc.alloc(0, 8).unwrap(); // head pointer
        let threads = 3usize;
        let per = 100u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let mut worker = rt.open_session().expect("free worker slot");
                s.spawn(move || {
                    // Push `per` nodes: node = [next, value].
                    for i in 0..per {
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let node = tx.alloc(2)?;
                            let old_head = tx.read_addr(list)?;
                            tx.write_addr(node, old_head)?;
                            tx.write(node.offset(1), i)?;
                            tx.write_addr(list, node)
                        });
                    }
                    // Pop half of them.
                    for _ in 0..per / 2 {
                        worker.execute(TxKind::ReadWrite, |tx| {
                            let head = tx.read_addr(list)?;
                            if !head.is_null() {
                                let next = tx.read_addr(head)?;
                                tx.write_addr(list, next)?;
                                tx.free(head)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        // Count surviving nodes.
        let mut count = 0u64;
        let mut cur = Addr::from_word(heap.load(list));
        while !cur.is_null() {
            count += 1;
            cur = Addr::from_word(heap.load(cur));
        }
        assert_eq!(
            count,
            threads as u64 * (per - per / 2),
            "{alg:?} list corrupted by alloc/free"
        );
    });
}

/// Statistics sanity: commits equal operations; hybrid algorithms under a
/// disabled HTM run everything on the slow path.
#[test]
fn stats_account_for_every_commit() {
    let (heap, rt) = runtime(Algorithm::RhNorec, HtmConfig::disabled());
    let a = heap.allocator().alloc(0, 1).unwrap();
    let mut worker = rt.open_session().expect("free worker slot");
    for _ in 0..50 {
        worker.execute(TxKind::ReadWrite, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    }
    let stats = worker.stats();
    assert_eq!(stats.commits, 50);
    assert_eq!(stats.fast_path_commits, 0, "no HTM, no fast path");
    assert_eq!(stats.slow_path_commits, 50);
    assert_eq!(stats.slow_path_entries, 50);
    assert!((stats.slow_path_ratio() - 1.0).abs() < 1e-12);
}

/// With a healthy HTM and no contention, hybrid fast paths commit in
/// hardware.
#[test]
fn uncontended_transactions_stay_on_the_fast_path() {
    for alg in [Algorithm::LockElision, Algorithm::HybridNorec, Algorithm::RhNorec] {
        let (heap, rt) = runtime(alg, HtmConfig::default());
        let a = heap.allocator().alloc(0, 1).unwrap();
        let mut worker = rt.open_session().expect("free worker slot");
        for _ in 0..100 {
            worker.execute(TxKind::ReadWrite, |tx| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            });
        }
        let stats = worker.stats();
        assert_eq!(stats.commits, 100);
        assert_eq!(stats.fast_path_commits, 100, "{alg:?} fell off the fast path");
        assert_eq!(stats.slow_path_entries, 0);
    }
}

/// RH NOrec under forced fallback exercises its small hardware
/// transactions: prefixes and postfixes are attempted and succeed once
/// the adaptive prefix length settles.
#[test]
fn rh_norec_small_htms_engage_under_fallback() {
    // A read-capacity squeeze kills the (24-line) fast path body, but the
    // write set (2 lines) fits the postfix, and shortened prefixes fit the
    // read capacity — driving transactions into a *working* mixed slow
    // path.
    let cfg = HtmConfig {
        max_write_lines: 512,
        max_read_lines: 8,
        ..HtmConfig::default()
    };
    let (heap, rt) = runtime(Algorithm::RhNorec, cfg);
    let alloc = heap.allocator();
    let slots: Vec<Addr> = (0..24).map(|_| alloc.alloc(0, 8).unwrap()).collect();
    let mut worker = rt.open_session().expect("free worker slot");
    for round in 0..200u64 {
        let slots = slots.clone();
        worker.execute(TxKind::ReadWrite, |tx| {
            let mut sum = 0u64;
            for &s in &slots {
                sum = sum.wrapping_add(tx.read(s)?);
            }
            // The written value doubles every round; wrap instead of
            // overflowing once it outgrows u64 (~round 64).
            for &s in &slots[0..2] {
                tx.write(s, sum.wrapping_add(round))?;
            }
            Ok(())
        });
    }
    let stats = worker.stats();
    assert_eq!(stats.commits, 200);
    assert!(stats.slow_path_entries > 0, "fast path should capacity-abort");
    assert!(stats.postfix_attempts > 0, "postfix never attempted");
    assert!(
        stats.postfix_commits > 0,
        "postfix never succeeded: {stats:?}"
    );
    assert!(stats.prefix_attempts > 0, "prefix never attempted");
    assert!(
        stats.prefix_commits > 0,
        "adaptive prefix never settled: {stats:?}"
    );
}
