//! Property tests: the transactional data structures agree with their
//! `std` model under arbitrary operation sequences, on both an STM and the
//! full RH NOrec stack (whose fast path exercises the simulated HTM).
//!
//! The generators run on the in-tree seeded RNG (no registry access
//! needed). Each case is derived entirely from one `u64` seed; on failure
//! the harness prints that seed, and seeds recorded in
//! `proptest-regressions/proptest_structures.txt` are replayed first.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rh_norec_repro::htm::{Htm, HtmConfig};
use rh_norec_repro::mem::{Heap, HeapConfig};
use rh_norec_repro::tm::{Algorithm, TmConfig, TmRuntime, TxKind};
use rh_norec_repro::workloads::structures::{HashTable, Queue, RbTree, SortedList};

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

const REGRESSIONS: &str = include_str!("../proptest-regressions/proptest_structures.txt");

#[derive(Clone, Debug)]
enum MapOp {
    Put(u64, u64),
    Remove(u64),
    Get(u64),
}

fn gen_map_ops(rng: &mut SmallRng) -> Vec<MapOp> {
    (0..rng.gen_range(0..200))
        .map(|_| match rng.gen_range(0u32..3) {
            0 => MapOp::Put(rng.gen_range(0u64..64), rng.gen()),
            1 => MapOp::Remove(rng.gen_range(0u64..64)),
            _ => MapOp::Get(rng.gen_range(0u64..64)),
        })
        .collect()
}

fn runtime(algorithm: Algorithm) -> (Arc<Heap>, Arc<TmRuntime>) {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 18 }));
    let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
    let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(algorithm)).expect("runtime construction cannot fail");
    (heap, rt)
}

#[test]
fn rbtree_matches_btreemap() {
    sweep("rbtree_matches_btreemap", REGRESSIONS, 32, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops = gen_map_ops(&mut rng);
        let alg = if rng.gen_bool(0.5) { Algorithm::RhNorec } else { Algorithm::Norec };
        let (heap, rt) = runtime(alg);
        let tree = RbTree::create(&heap);
        let mut worker = rt.open_session().expect("free worker slot");
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Put(k, v) => {
                    let got = worker.execute(TxKind::ReadWrite, |tx| tree.put(tx, k, v));
                    assert_eq!(got, model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    let got = worker.execute(TxKind::ReadWrite, |tx| tree.remove(tx, k));
                    assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    let got = worker.execute(TxKind::ReadOnly, |tx| tree.get(tx, k));
                    assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        assert!(tree.check_invariants(&heap).is_ok());
        let collected = tree.collect(&heap);
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(collected, expected);
    });
}

#[test]
fn hashtable_matches_hashmap() {
    sweep("hashtable_matches_hashmap", REGRESSIONS, 32, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops = gen_map_ops(&mut rng);
        let (heap, rt) = runtime(Algorithm::RhNorec);
        let table = HashTable::create(&heap, 8);
        let mut worker = rt.open_session().expect("free worker slot");
        let mut model = HashMap::new();
        for op in ops {
            match op {
                MapOp::Put(k, v) => {
                    let got = worker.execute(TxKind::ReadWrite, |tx| table.put(tx, k, v));
                    assert_eq!(got, model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    let got = worker.execute(TxKind::ReadWrite, |tx| table.remove(tx, k));
                    assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    let got = worker.execute(TxKind::ReadOnly, |tx| table.get(tx, k));
                    assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        let mut got = table.collect(&heap);
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

#[test]
fn sorted_list_matches_btreemap() {
    sweep("sorted_list_matches_btreemap", REGRESSIONS, 32, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops = gen_map_ops(&mut rng);
        let (heap, rt) = runtime(Algorithm::RhNorec);
        let list = SortedList::create(&heap);
        let mut worker = rt.open_session().expect("free worker slot");
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Put(k, v) => {
                    let inserted = worker.execute(TxKind::ReadWrite, |tx| list.insert(tx, k, v));
                    match model.entry(k) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            assert!(!inserted, "duplicate insert accepted");
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            assert!(inserted);
                            slot.insert(v);
                        }
                    }
                }
                MapOp::Remove(k) => {
                    let got = worker.execute(TxKind::ReadWrite, |tx| list.remove(tx, k));
                    assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    let got = worker.execute(TxKind::ReadOnly, |tx| list.get(tx, k));
                    assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        let collected = list.collect(&heap);
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(collected, expected);
    });
}

#[test]
fn queue_matches_vecdeque() {
    sweep("queue_matches_vecdeque", REGRESSIONS, 32, |seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<Option<u64>> = (0..rng.gen_range(0..200))
            .map(|_| if rng.gen_bool(0.5) { Some(rng.gen()) } else { None })
            .collect();
        let (heap, rt) = runtime(Algorithm::RhNorec);
        let queue = Queue::create(&heap);
        let mut worker = rt.open_session().expect("free worker slot");
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    worker.execute(TxKind::ReadWrite, |tx| queue.push(tx, v));
                    model.push_back(v);
                }
                None => {
                    let got = worker.execute(TxKind::ReadWrite, |tx| queue.pop(tx));
                    assert_eq!(got, model.pop_front());
                }
            }
        }
        assert_eq!(queue.collect(&heap), Vec::from(model));
    });
}
