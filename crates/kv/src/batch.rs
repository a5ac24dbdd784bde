//! KV operations as batch transactions: the store's get/transfer
//! semantics re-expressed against the batch engine's
//! [`TxView`](rh_norec::batch::TxView) so a pre-formed request trace can
//! run through [`rh_norec::batch::ParallelExecutor`] instead of the
//! interactive session API. [`TraceChain`] hands a trace slice to the
//! executor as it is: each rank is decoded into its [`KvBatchTxn`] when
//! it runs, so nothing is copied or bound per request.
//!
//! The word-level layout (bucket probe, `[key, value]` slot pairs, hole
//! punching) is byte-identical to [`KvStore`]'s transactional paths —
//! both go through the same `bucket_of`/`slot` geometry — so the batch
//! engine and the interactive engines race on the *same* store images
//! and the checker can compare their histories key for key.

use rh_norec::batch::{Batch, BatchTxn, Blocked, TxView};
use sim_mem::Addr;

use crate::gen::{OpClass, Request};
use crate::store::KvStore;

/// One KV request in batch form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Point read of one key (pure read set; never blocks commit).
    Get {
        /// The key to read.
        key: u64,
    },
    /// Atomic balance move between two keys, with the store's
    /// insufficient-funds and missing-key short-circuits.
    Transfer {
        /// Source key.
        src: u64,
        /// Destination key.
        dst: u64,
        /// Amount to move.
        amount: u64,
    },
}

impl BatchOp {
    /// Converts a generated request. Only the conservation-checkable
    /// classes have batch forms; see [`crate::gen::Mix::conserves_sum`].
    ///
    /// # Panics
    ///
    /// Panics on put/delete/range requests.
    pub fn from_request(request: &Request) -> BatchOp {
        match request.class {
            OpClass::Get => BatchOp::Get { key: request.key },
            OpClass::Transfer => BatchOp::Transfer {
                src: request.key,
                dst: request.key2,
                amount: request.amount,
            },
            other => panic!("no batch form for {other:?} requests"),
        }
    }
}

/// A [`BatchOp`] bound to its store: the [`BatchTxn`] the executor runs.
#[derive(Clone, Copy, Debug)]
pub struct KvBatchTxn<'a> {
    store: &'a KvStore,
    op: BatchOp,
}

impl<'a> KvBatchTxn<'a> {
    /// Binds `op` to `store`.
    pub fn new(store: &'a KvStore, op: BatchOp) -> KvBatchTxn<'a> {
        KvBatchTxn { store, op }
    }

    /// The bound operation.
    pub fn op(&self) -> BatchOp {
        self.op
    }

    /// The batch form of [`KvStore::probe`]: the value-word address of
    /// `key`'s occupied slot, or `None` when absent. Same scan order and
    /// no-early-stop hole semantics as the interactive paths.
    fn probe(&self, view: &mut TxView<'_>, key: u64) -> Result<Option<Addr>, Blocked> {
        let base = self.store.bucket_of(key);
        for i in 0..self.store.config().slots_per_bucket {
            let (k_addr, v_addr) = KvStore::slot(base, i);
            if view.read(k_addr)? == key {
                return Ok(Some(v_addr));
            }
        }
        Ok(None)
    }
}

impl BatchTxn for KvBatchTxn<'_> {
    fn execute(&self, view: &mut TxView<'_>) -> Result<(), Blocked> {
        match self.op {
            BatchOp::Get { key } => {
                if let Some(v_addr) = self.probe(view, key)? {
                    let _ = view.read(v_addr)?;
                }
            }
            BatchOp::Transfer { src, dst, amount } => {
                if src == dst {
                    return Ok(());
                }
                let Some(src_val) = self.probe(view, src)? else { return Ok(()) };
                let Some(dst_val) = self.probe(view, dst)? else { return Ok(()) };
                let balance = view.read(src_val)?;
                if balance < amount {
                    return Ok(());
                }
                view.write(src_val, balance - amount);
                let dst_balance = view.read(dst_val)?;
                view.write(dst_val, dst_balance + amount);
            }
        }
        Ok(())
    }
}

/// A run of a get/transfer trace as one rank-indexed [`Batch`] over
/// `store`: rank `r` is `requests[r]`, so trace order *is* the batch's
/// rank order and therefore its serialization. A chain of consecutive
/// formed blocks is a contiguous trace range, so the batch pipeline runs
/// every chain straight off the borrowed trace.
///
/// Executing a rank panics if its request has no batch form (generate
/// the trace with a [`crate::gen::Mix`] where
/// [`conserves_sum`](crate::gen::Mix::conserves_sum) holds, or take the
/// range from a [`crate::former::Segment::Batch`]).
#[derive(Clone, Copy, Debug)]
pub struct TraceChain<'a> {
    store: &'a KvStore,
    requests: &'a [Request],
}

impl<'a> TraceChain<'a> {
    /// The chain of `requests`, executed against `store`.
    pub fn new(store: &'a KvStore, requests: &'a [Request]) -> TraceChain<'a> {
        TraceChain { store, requests }
    }
}

impl Batch for TraceChain<'_> {
    fn len(&self) -> usize {
        self.requests.len()
    }

    fn execute(&self, rank: usize, view: &mut TxView<'_>) -> Result<(), Blocked> {
        KvBatchTxn::new(self.store, BatchOp::from_request(&self.requests[rank])).execute(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Mix, TraceConfig};
    use crate::store::KvConfig;
    use rh_norec::batch::{execute_sequential, BatchConfig, ParallelExecutor};
    use sim_mem::{Heap, HeapConfig};
    use std::sync::Arc;

    #[test]
    fn batched_transfers_conserve_and_match_interactive_semantics() {
        let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 20 }));
        let store = KvStore::create(&heap, KvConfig::for_keyspace(16)).unwrap();
        for key in 1..=16u64 {
            store.load(&heap, key, 100).unwrap();
        }
        let trace = gen::generate(&TraceConfig {
            requests: 400,
            keyspace: 16,
            mix: Mix::transfer_heavy(),
            seed: 7,
            ..TraceConfig::default()
        });
        let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(4)).unwrap();
        let (report, _) = exec.execute(&TraceChain::new(&store, &trace), &[trace.len()]);
        assert!(report.speculative());
        assert_eq!(report.txs(), 400);
        assert_eq!(store.sum_direct(&heap), 1600, "batch transfers minted or lost balance");
        assert_eq!(store.len_direct(&heap), 16);
    }

    #[test]
    fn batch_final_state_equals_sequential_rank_order() {
        let trace = gen::generate(&TraceConfig {
            requests: 300,
            keyspace: 8,
            mix: Mix::transfer_heavy(),
            seed: 21,
            ..TraceConfig::default()
        });
        let run = |workers: usize| {
            let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 20 }));
            let store = KvStore::create(&heap, KvConfig::for_keyspace(8)).unwrap();
            for key in 1..=8u64 {
                store.load(&heap, key, 50).unwrap();
            }
            let batch = TraceChain::new(&store, &trace);
            if workers == 0 {
                execute_sequential(&heap, &batch);
            } else {
                let exec =
                    ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(workers))
                        .unwrap();
                exec.execute(&batch, &[trace.len()]);
            }
            store.snapshot_words(&heap)
        };
        let sequential = run(0);
        assert_eq!(run(1), sequential);
        assert_eq!(run(4), sequential);
    }
}
