//! The batch execution mode: a Block-STM-style `ParallelExecutor`
//! (DESIGN.md §15) — the repo's sixth way to run transactions.
//!
//! The five interactive engines take transactions one at a time and pay
//! per-access instrumentation to discover conflicts as they happen. The
//! batch engine instead takes a *pre-formed, pre-ordered* batch (ledger
//! transfers, a blockchain block) and commits it with the semantics of
//! sequential rank-order execution, discovering conflicts by optimistic
//! speculation:
//!
//! * every transaction executes speculatively at its **rank**, reading
//!   through a [multi-version map](mvmap) that resolves each address to
//!   the highest lower-rank speculative write (or base storage);
//! * a [scheduler](sched) hands out execution and validation tasks and
//!   re-executes any rank whose captured read set no longer matches the
//!   map (a lower rank republished different writes);
//! * aborted writes become ESTIMATE tombstones so dependent readers wait
//!   for the re-execution instead of speculating into a cascade;
//! * when everything has executed and validated, one rank-ordered sweep
//!   lazily commits the surviving write sets to the heap.
//!
//! No global commit clock, no per-read validation spin: the batch's rank
//! order *is* the serialization order, so the usual hybrid-TM
//! instrumentation tax (start subscription, clock bumps) has nothing to
//! buy. The trade is generality — transactions must arrive batched and
//! be re-executable (pure functions of the transactional state).

mod exec;
mod mvmap;
mod sched;

pub use self::exec::{
    execute_sequential, Batch, BatchReport, BatchTxn, Blocked, ParallelExecutor, TxView,
    TxnRecord,
};
pub use crate::config::BatchConfig;
