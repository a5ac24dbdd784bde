//! Batch-engine parity sweep: whatever the worker count, the
//! interleaving, or the store geometry, the `ParallelExecutor` must leave
//! the heap **bit-for-bit identical** to sequential rank-order execution
//! of the same batch — rank order is the serialization the engine
//! claims, and the claim is checked here as raw store words, not
//! summaries.
//!
//! The sweep crosses schedule/trace seeds with kv shard counts {1, 4}
//! and batch sizes {1, 64, 1024}; a separate case pins that the
//! degenerate one-worker executor takes the no-speculation fast path.

use std::collections::HashMap;
use std::sync::Arc;

use rh_kv::batch::bind_trace;
use rh_kv::gen::{self, Mix, TraceConfig};
use rh_kv::{KvConfig, KvStore};
use rh_norec::batch::{execute_sequential, BatchConfig, ParallelExecutor};
use sim_htm::sched::SchedConfig;
use sim_mem::{Heap, HeapConfig};

/// Store shard counts the sweep covers (mirrors `kv_sweep.rs`).
const KV_SHARDS: [usize; 2] = [1, 4];
/// Batch sizes: degenerate, a contended handful, and a real block.
const BATCH_SIZES: [usize; 3] = [1, 64, 1024];
const SEEDS: u64 = 6;
const KEYSPACE: u64 = 12;
const BALANCE: u64 = 100;

/// A geometry that holds `KEYSPACE` keys at any shard count regardless
/// of hash skew: a bucket can never carry more than the whole key set.
fn geometry(kv_shards: usize) -> KvConfig {
    KvConfig { shards: kv_shards, buckets_per_shard: 2, slots_per_bucket: KEYSPACE as usize }
}

/// Runs one seeded transfer batch and returns the final store words.
/// `workers == 0` is the sequential rank-order baseline; otherwise a
/// `workers`-wide executor, controlled by `sched_seed` when given.
fn final_state(
    kv_shards: usize,
    size: usize,
    seed: u64,
    workers: usize,
    sched_seed: Option<u64>,
) -> HashMap<u64, u64> {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 18 }));
    let store = KvStore::create(&heap, geometry(kv_shards)).expect("test heap fits the store");
    for key in 1..=KEYSPACE {
        store.load(&heap, key, BALANCE).expect("geometry holds the keyspace");
    }
    let trace = gen::generate(&TraceConfig {
        requests: size,
        keyspace: KEYSPACE,
        mix: Mix::transfer_heavy(),
        seed,
        ..TraceConfig::default()
    });
    let batch = bind_trace(&store, &trace);
    if workers == 0 {
        execute_sequential(&heap, &batch);
    } else {
        let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(workers))
            .expect("test batch config is valid");
        match sched_seed {
            Some(s) => {
                exec.execute_controlled(&batch, &[batch.len()], &SchedConfig::from_seed(s));
            }
            None => {
                exec.execute(&batch, &[batch.len()]);
            }
        }
    }
    assert_eq!(store.sum_direct(&heap), KEYSPACE * BALANCE, "batch drifted the balance sum");
    store.snapshot_words(&heap)
}

/// Free-running OS-thread workers across the full grid: every shard
/// count, batch size, and seed lands on the sequential state exactly.
#[test]
fn speculative_state_equals_sequential_across_the_grid() {
    for kv_shards in KV_SHARDS {
        for size in BATCH_SIZES {
            for seed in 0..SEEDS {
                let sequential = final_state(kv_shards, size, seed, 0, None);
                let speculative = final_state(kv_shards, size, seed, 4, None);
                assert_eq!(
                    speculative, sequential,
                    "kv_shards={kv_shards} size={size} seed={seed}: state diverged"
                );
            }
        }
    }
}

/// The same parity under the deterministic cooperative scheduler, where
/// the schedule seed picks genuinely adversarial interleavings (and any
/// divergence replays from the seed alone).
#[test]
fn controlled_interleavings_preserve_parity() {
    for kv_shards in KV_SHARDS {
        let sequential = final_state(kv_shards, 64, 3, 0, None);
        for sched_seed in 0..SEEDS {
            let controlled = final_state(kv_shards, 64, 3, 3, Some(sched_seed));
            assert_eq!(
                controlled, sequential,
                "kv_shards={kv_shards} sched_seed={sched_seed}: state diverged"
            );
        }
    }
}

/// A one-worker executor is the sequential execution: it must take the
/// no-speculation fast path (no capture, no validation, no commit sweep)
/// and still land on the identical state.
#[test]
fn one_worker_takes_the_fast_path_with_identical_state() {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 18 }));
    let store = KvStore::create(&heap, geometry(1)).expect("test heap fits the store");
    for key in 1..=KEYSPACE {
        store.load(&heap, key, BALANCE).expect("geometry holds the keyspace");
    }
    let trace = gen::generate(&TraceConfig {
        requests: 64,
        keyspace: KEYSPACE,
        mix: Mix::transfer_heavy(),
        seed: 11,
        ..TraceConfig::default()
    });
    let batch = bind_trace(&store, &trace);
    let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::default())
        .expect("default batch config is valid");
    let (report, _) = exec.execute(&batch, &[batch.len()]);
    assert!(!report.speculative(), "one worker must not speculate");
    assert_eq!(report.aborts(), 0);
    assert_eq!(report.validations(), 0);
    assert!(report.committed().is_empty(), "the fast path captures nothing");
    assert_eq!(store.snapshot_words(&heap), final_state(1, 64, 11, 0, None));
}
