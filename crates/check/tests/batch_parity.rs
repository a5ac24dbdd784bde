//! Batch-engine parity sweep: whatever the worker count, the
//! interleaving, or the store geometry, the `ParallelExecutor` must leave
//! the heap **bit-for-bit identical** to sequential rank-order execution
//! of the same batch — rank order is the serialization the engine
//! claims, and the claim is checked here as raw store words, not
//! summaries.
//!
//! The sweep crosses schedule/trace seeds with kv shard counts {1, 4}
//! and batch sizes {1, 64, 1024}; a separate case pins that the
//! degenerate one-worker executor takes the no-speculation fast path,
//! and another that a former-cut chain run in place over the trace is
//! indistinguishable from the same chain bound one transaction per
//! request.

use std::collections::HashMap;
use std::sync::Arc;

use rh_kv::batch::{BatchOp, KvBatchTxn, TraceChain};
use rh_kv::former::{Former, FormerConfig, Segment};
use rh_kv::gen::{self, Mix, Request, TraceConfig};
use rh_kv::{KvConfig, KvStore};
use rh_norec::batch::{execute_sequential, BatchConfig, BatchReport, ParallelExecutor};
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

/// A fresh heap holding a store with every key at `BALANCE`.
fn loaded_store(kv_shards: usize) -> (Arc<Heap>, KvStore) {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 18 }));
    let store = KvStore::create(&heap, geometry(kv_shards)).expect("test heap fits the store");
    for key in 1..=KEYSPACE {
        store.load(&heap, key, BALANCE).expect("geometry holds the keyspace");
    }
    (heap, store)
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
    let (heap, store) = loaded_store(kv_shards);
    let trace = gen::generate(&TraceConfig {
        requests: size,
        keyspace: KEYSPACE,
        mix: Mix::transfer_heavy(),
        seed,
        ..TraceConfig::default()
    });
    let batch = TraceChain::new(&store, &trace);
    if workers == 0 {
        execute_sequential(&heap, &batch);
    } else {
        let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(workers))
            .expect("test batch config is valid");
        match sched_seed {
            Some(s) => {
                exec.execute_controlled(&batch, &[trace.len()], &SchedConfig::from_seed(s));
            }
            None => {
                exec.execute(&batch, &[trace.len()]);
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
    let (heap, store) = loaded_store(1);
    let trace = gen::generate(&TraceConfig {
        requests: 64,
        keyspace: KEYSPACE,
        mix: Mix::transfer_heavy(),
        seed: 11,
        ..TraceConfig::default()
    });
    let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::default())
        .expect("default batch config is valid");
    let (report, _) = exec.execute(&TraceChain::new(&store, &trace), &[trace.len()]);
    assert!(!report.speculative(), "one worker must not speculate");
    assert_eq!(report.aborts(), 0);
    assert_eq!(report.validations(), 0);
    assert!(report.committed().is_empty(), "the fast path captures nothing");
    assert_eq!(store.snapshot_words(&heap), final_state(1, 64, 11, 0, None));
}

/// Every chain of two or more consecutive blocks the former cuts from
/// `trace`, as `(first trace index, block ends relative to it)` — the
/// ranges and bounds the service pipeline hands the executor.
fn former_chains(trace: &[Request]) -> Vec<(usize, Vec<usize>)> {
    let mut former =
        Former::new(FormerConfig { max_batch: 4, min_batch: 2, ..FormerConfig::default() });
    let mut chains: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut chained = false;
    for segment in former.form(trace) {
        if let Segment::Batch { start, len, .. } = *segment {
            if !chained {
                chains.push((start, Vec::new()));
            }
            let (chain_start, bounds) = chains.last_mut().expect("a chain is open");
            bounds.push(start + len - *chain_start);
        }
        chained = matches!(segment, Segment::Batch { .. });
    }
    chains.retain(|(_, bounds)| bounds.len() >= 2);
    chains
}

/// Runs `chain` cut at `bounds` on a fresh store with `workers` workers
/// under schedule `sched_seed`, in place over the trace or bound to one
/// [`KvBatchTxn`] per request. Returns the report, the per-block elapsed
/// cycles, the scheduler's step count and the final store words.
fn run_chain(
    chain: &[Request],
    bounds: &[usize],
    workers: usize,
    sched_seed: u64,
    in_place: bool,
) -> (BatchReport, Vec<u64>, u64, HashMap<u64, u64>) {
    let (heap, store) = loaded_store(4);
    let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(workers))
        .expect("test batch config is valid");
    let sched = SchedConfig::from_seed(sched_seed);
    let (report, elapsed, run) = if in_place {
        exec.execute_controlled(&TraceChain::new(&store, chain), bounds, &sched)
    } else {
        let bound: Vec<KvBatchTxn<'_>> = chain
            .iter()
            .map(|request| KvBatchTxn::new(&store, BatchOp::from_request(request)))
            .collect();
        exec.execute_controlled(&bound[..], bounds, &sched)
    };
    (report, elapsed, run.steps, store.snapshot_words(&heap))
}

/// The in-place chain is the bound chain: on every multi-block chain a
/// real former pass cuts, both forms leave the same store words, the same
/// one-worker per-block elapsed vector, and under the controlled
/// scheduler with four workers the same report, elapsed vector and step
/// count at every seed.
#[test]
fn in_place_chains_match_the_bound_form() {
    let trace = gen::generate(&TraceConfig {
        requests: 512,
        keyspace: KEYSPACE,
        mix: Mix::service_bursty(),
        seed: 5,
        ..TraceConfig::default()
    });
    let chains = former_chains(&trace);
    assert!(
        chains.iter().any(|(start, _)| *start > 0),
        "the trace must cut multi-block chains away from its start"
    );
    for (start, bounds) in &chains {
        let chain = &trace[*start..*start + bounds.last().expect("chains are non-empty")];
        let one = run_chain(chain, bounds, 1, 0, true);
        assert_eq!(one, run_chain(chain, bounds, 1, 0, false), "chain at {start}: one worker");
        assert!(!one.0.speculative());
        for seed in 0..3 {
            let four = run_chain(chain, bounds, 4, seed, true);
            assert_eq!(
                four,
                run_chain(chain, bounds, 4, seed, false),
                "chain at {start}, seed {seed}: four workers"
            );
            assert_eq!(four.3, one.3, "chain at {start}, seed {seed}: state diverged");
        }
    }
}
