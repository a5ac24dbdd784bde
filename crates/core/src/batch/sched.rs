//! The batch scheduler: hands out execution and validation tasks by
//! transaction rank, Block-STM style.
//!
//! All state sits behind one mutex — the handout critical section is a
//! few queue operations, its cost is charged to the cost model
//! ([`crate::cost::BATCH_TASK`]) rather than hidden in host-level atomics,
//! and the single lock makes the protocol's ordering rules easy to audit:
//!
//! * **Execution** tasks come from a retry min-heap (aborted or
//!   resumed ranks, lowest first — the lowest Ready rank is the one
//!   whose inputs are most likely settled) and then from a fresh-rank
//!   cursor. The cursor is held within a bounded *speculation window*
//!   above the validation wave, so an abort can never trigger a
//!   re-validation sweep longer than the window — without the bound a
//!   late abort at a low rank re-sweeps every rank executed so far,
//!   which is quadratic on contended batches.
//! * An execution that hits an ESTIMATE is **suspended as a dependency**
//!   of the aborted writer and requeued only when that writer
//!   republishes (Block-STM's dependency list) — requeueing it eagerly
//!   would busy-retry into the same tombstone.
//! * **Validation** tasks come from two sources: a *wave* cursor that
//!   sweeps ranks in order (validating each rank only once it has
//!   executed) and a *one-off* queue that revalidates a single rank after
//!   it republishes while the wave is already past it.
//! * A validation failure aborts the rank **atomically under the lock**:
//!   its map cells flip to ESTIMATE, its incarnation bumps, it is
//!   requeued for execution, and the wave drops to `rank + 1` so every
//!   higher rank revalidates against the tombstones. A republish that
//!   writes an address the previous incarnation did not also drops the
//!   wave to `rank + 1`; a same-address republish only revalidates
//!   itself (readers of the dead incarnation were already rescheduled by
//!   the abort).
//!
//! The run is over when no worker holds a task and nothing is queued —
//! at that point every rank is Executed and the wave has swept past the
//! last rank with no failure behind it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, MutexGuard};

use super::mvmap::MvMap;

/// A unit of work handed to a batch worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Task {
    /// Run the transaction body at `rank` speculatively.
    Execute {
        /// Transaction rank (index in the batch).
        rank: usize,
        /// Incarnation this attempt will publish as.
        incarnation: u32,
    },
    /// Revalidate the captured read set of `rank`'s `incarnation`.
    Validate {
        /// Transaction rank.
        rank: usize,
        /// Incarnation the task was issued against (stale tasks whose
        /// rank has since aborted are discarded by the worker).
        incarnation: u32,
    },
}

/// Result of asking for work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Poll {
    /// A task to run.
    Run(Task),
    /// Nothing available right now, but other workers are still busy.
    Idle,
    /// The batch has quiesced: all ranks executed and validated.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Ready,
    Executing,
    Executed,
}

#[derive(Clone, Copy, Debug)]
struct TxStatus {
    incarnation: u32,
    state: State,
}

#[derive(Debug)]
struct Inner {
    status: Vec<TxStatus>,
    /// Next never-executed rank.
    exec_cursor: usize,
    /// Aborted or resumed ranks awaiting re-execution, lowest first.
    retry_exec: BinaryHeap<Reverse<usize>>,
    /// Ranks to revalidate individually after a republish.
    one_off: BinaryHeap<Reverse<usize>>,
    /// Per-rank dependency lists: ranks suspended on an ESTIMATE of
    /// this rank, resumed when it republishes.
    deps: Vec<Vec<usize>>,
    /// The validation wave cursor.
    wave: usize,
    /// Workers currently holding a task.
    active: usize,
    done: bool,
    max_incarnation: u32,
    /// Modeled worker cycles retired across the whole run: every task
    /// completion adds the cycles that task cost. Monotone under the
    /// lock, so it doubles as a logical clock for the wave marks below.
    retired: u64,
    /// Per-block wave marks for chained (multi-block) runs: the value
    /// of `retired` at the most recent validation *pass* of any rank in
    /// the block. Overwritten at every pass, so once the run quiesces,
    /// `marks[b]` is the retired-cycle instant block `b`'s last
    /// validation cleared — its modeled completion (a wave drop back
    /// into the block re-stamps it later, which is exactly the delay a
    /// cross-block abort should charge).
    marks: Vec<u64>,
}

/// The shared scheduler handle.
#[derive(Debug)]
pub(crate) struct BatchSched {
    inner: Mutex<Inner>,
    n: usize,
    /// Most ranks the fresh-execution cursor may run ahead of the
    /// validation wave.
    window: usize,
    /// End-exclusive rank boundaries of the chained blocks; `[n]` for
    /// an unchained batch.
    boundaries: Vec<usize>,
}

impl BatchSched {
    /// An unchained scheduler: one block spanning every rank.
    #[cfg(test)]
    pub(crate) fn new(n: usize, window: usize) -> BatchSched {
        BatchSched::chained(n, window, &[n])
    }

    /// A scheduler over `n` ranks partitioned into blocks at the given
    /// end-exclusive `boundaries` (strictly ascending, last equal to `n`:
    /// the executor's entry checks them). All blocks share one rank
    /// space and one speculation window, so block `b + 1`'s speculation
    /// starts while block `b`'s validation wave is still draining; the
    /// per-block wave marks recover each block's completion instant
    /// afterwards.
    pub(crate) fn chained(n: usize, window: usize, boundaries: &[usize]) -> BatchSched {
        debug_assert!(window >= 1);
        BatchSched {
            inner: Mutex::new(Inner {
                status: vec![TxStatus { incarnation: 0, state: State::Ready }; n],
                exec_cursor: 0,
                retry_exec: BinaryHeap::new(),
                one_off: BinaryHeap::new(),
                deps: vec![Vec::new(); n],
                wave: 0,
                active: 0,
                done: n == 0,
                max_incarnation: 0,
                retired: 0,
                marks: vec![0; boundaries.len()],
            }),
            n,
            window,
            boundaries: boundaries.to_vec(),
        }
    }

    /// The block containing `rank`.
    fn block_of(&self, rank: usize) -> usize {
        self.boundaries.partition_point(|&end| end <= rank)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands out the next task: validations first (one-off, then the
    /// wave), then re-executions (lowest rank first), then fresh ranks.
    pub(crate) fn next_task(&self) -> Poll {
        let mut s = self.lock();
        if s.done {
            return Poll::Done;
        }
        while let Some(&Reverse(rank)) = s.one_off.peek() {
            s.one_off.pop();
            if s.status[rank].state == State::Executed {
                s.active += 1;
                return Poll::Run(Task::Validate { rank, incarnation: s.status[rank].incarnation });
            }
            // Stale: the rank aborted after queuing; the wave drop that
            // accompanied the abort covers its next incarnation.
        }
        if s.wave < self.n && s.status[s.wave].state == State::Executed {
            let rank = s.wave;
            s.wave += 1;
            s.active += 1;
            return Poll::Run(Task::Validate { rank, incarnation: s.status[rank].incarnation });
        }
        while let Some(&Reverse(rank)) = s.retry_exec.peek() {
            s.retry_exec.pop();
            if s.status[rank].state == State::Ready {
                s.status[rank].state = State::Executing;
                s.active += 1;
                return Poll::Run(Task::Execute { rank, incarnation: s.status[rank].incarnation });
            }
        }
        // Fresh executions stay within the speculation window above the
        // wave: beyond it, speculating further only enlarges the
        // re-validation sweep an abort behind the wave would trigger.
        if s.exec_cursor < self.n && s.exec_cursor < s.wave + self.window {
            let rank = s.exec_cursor;
            s.exec_cursor += 1;
            debug_assert_eq!(s.status[rank].state, State::Ready);
            s.status[rank].state = State::Executing;
            s.active += 1;
            return Poll::Run(Task::Execute { rank, incarnation: s.status[rank].incarnation });
        }
        if s.active == 0 {
            // No worker holds a task and nothing was claimable: every
            // rank is Executed (a Ready rank would sit in retry_exec —
            // suspended ranks always have a non-Executed blocker, which
            // would itself be claimable or active — and an Executing one
            // would be owned by an active worker) and the wave swept to
            // the end (an Executed rank under the cursor would have
            // produced a validation task above, and the window never
            // binds once the wave reaches the cursor).
            debug_assert!(s.wave >= self.n);
            debug_assert!(s.status.iter().all(|t| t.state == State::Executed));
            debug_assert!(s.deps.iter().all(Vec::is_empty));
            s.done = true;
            return Poll::Done;
        }
        Poll::Idle
    }

    /// The rank published `incarnation`. `wrote_new` is whether the new
    /// write set covers an address the previous incarnation did not;
    /// `cycles` is the modeled cost of the attempt.
    pub(crate) fn finish_execution(&self, rank: usize, incarnation: u32, wrote_new: bool, cycles: u64) {
        let mut s = self.lock();
        debug_assert_eq!(s.status[rank].state, State::Executing);
        debug_assert_eq!(s.status[rank].incarnation, incarnation);
        s.status[rank].state = State::Executed;
        s.retired += cycles;
        s.active -= 1;
        if wrote_new && s.wave > rank + 1 {
            s.wave = rank + 1;
        }
        if s.wave > rank {
            // The wave is already past this rank, so nothing will
            // revalidate this incarnation — schedule it individually.
            s.one_off.push(Reverse(rank));
        }
        // The republish resolved this rank's ESTIMATEs: resume every
        // reader suspended on them.
        let resumed = std::mem::take(&mut s.deps[rank]);
        for reader in resumed {
            debug_assert_eq!(s.status[reader].state, State::Ready);
            s.retry_exec.push(Reverse(reader));
        }
    }

    /// The rank's execution hit an ESTIMATE of `on` and abandoned the
    /// attempt; same incarnation, suspended until `on` republishes (or
    /// requeued immediately when `on` republished while this report was
    /// in flight).
    pub(crate) fn block_execution(&self, rank: usize, on: usize, cycles: u64) {
        let mut s = self.lock();
        debug_assert_eq!(s.status[rank].state, State::Executing);
        debug_assert!(on < rank, "a rank can only block on a lower rank's estimate");
        s.status[rank].state = State::Ready;
        if s.status[on].state == State::Executed {
            s.retry_exec.push(Reverse(rank));
        } else {
            s.deps[on].push(rank);
        }
        s.retired += cycles;
        s.active -= 1;
    }

    /// A validation of `(rank, incarnation)` failed. If that incarnation
    /// is still current, abort it: flip its cells to ESTIMATEs (under
    /// this lock, so no concurrent republish can interleave), bump the
    /// incarnation, requeue the execution, and drop the wave below every
    /// rank that may have read the dead incarnation. Returns whether the
    /// abort happened (a stale failure is ignored).
    pub(crate) fn fail_validation(
        &self,
        rank: usize,
        incarnation: u32,
        mvmap: &MvMap,
        write_addrs: &[u64],
        cycles: u64,
    ) -> bool {
        let mut s = self.lock();
        s.retired += cycles;
        s.active -= 1;
        if s.status[rank].state != State::Executed || s.status[rank].incarnation != incarnation {
            return false;
        }
        mvmap.mark_estimates(rank as u32, write_addrs);
        s.status[rank].incarnation += 1;
        s.max_incarnation = s.max_incarnation.max(s.status[rank].incarnation);
        s.status[rank].state = State::Ready;
        s.retry_exec.push(Reverse(rank));
        if s.wave > rank + 1 {
            s.wave = rank + 1;
        }
        true
    }

    /// A validation of `rank` passed (or was stale): release the task
    /// slot and re-stamp the rank's block wave mark with the retired
    /// clock — the last stamp a block receives is its completion.
    pub(crate) fn pass_validation(&self, rank: usize, cycles: u64) {
        let mut s = self.lock();
        s.retired += cycles;
        let retired = s.retired;
        let block = self.block_of(rank);
        s.marks[block] = retired;
        s.active -= 1;
    }

    /// Highest incarnation any rank reached (0 = no aborts).
    pub(crate) fn max_incarnation(&self) -> u32 {
        self.lock().max_incarnation
    }

    /// The per-block wave marks (retired-cycle completion stamps).
    /// Meaningful once the run is done; callers prefix-max them (a
    /// block cannot complete before its predecessor) and normalize by
    /// the worker count to recover per-block elapsed time.
    pub(crate) fn marks(&self) -> Vec<u64> {
        self.lock().marks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(sched: &BatchSched) -> Task {
        match sched.next_task() {
            Poll::Run(t) => t,
            other => panic!("expected a task, got {other:?}"),
        }
    }

    #[test]
    fn single_rank_executes_then_validates_then_quiesces() {
        let sched = BatchSched::new(1, 8);
        assert_eq!(run_one(&sched), Task::Execute { rank: 0, incarnation: 0 });
        let mvmap = MvMap::new(1);
        sched.finish_execution(0, 0, true, 10);
        assert_eq!(run_one(&sched), Task::Validate { rank: 0, incarnation: 0 });
        sched.pass_validation(0, 5);
        assert_eq!(sched.next_task(), Poll::Done);
        assert_eq!(sched.marks(), vec![15]);
        drop(mvmap);
    }

    #[test]
    fn abort_requeues_and_lowers_the_wave() {
        let sched = BatchSched::new(3, 8);
        let mvmap = MvMap::new(1);
        // Claim all three executions first (validation outranks fresh
        // execution, so finishing one early would hand its validation out
        // before rank 1's execution).
        for rank in 0..3 {
            assert_eq!(run_one(&sched), Task::Execute { rank, incarnation: 0 });
        }
        for rank in 0..3 {
            sched.finish_execution(rank, 0, true, 1);
        }
        // Wave validates ranks 0..3 in order.
        assert_eq!(run_one(&sched), Task::Validate { rank: 0, incarnation: 0 });
        sched.pass_validation(0, 1);
        assert_eq!(run_one(&sched), Task::Validate { rank: 1, incarnation: 0 });
        // Rank 1 fails: requeued at incarnation 1. The wave (already at
        // 2) validates rank 2 against rank 1's fresh tombstones before
        // any execution work — a reader of the dead incarnation aborts
        // right here.
        assert!(sched.fail_validation(1, 0, &mvmap, &[], 1));
        assert_eq!(run_one(&sched), Task::Validate { rank: 2, incarnation: 0 });
        sched.pass_validation(2, 1);
        assert_eq!(run_one(&sched), Task::Execute { rank: 1, incarnation: 1 });
        sched.finish_execution(1, 1, false, 1);
        // Same-address republish with the wave past it: a one-off
        // validation of rank 1 only, nothing else reruns.
        assert_eq!(run_one(&sched), Task::Validate { rank: 1, incarnation: 1 });
        sched.pass_validation(1, 1);
        assert_eq!(sched.next_task(), Poll::Done);
        assert_eq!(sched.max_incarnation(), 1);
    }

    #[test]
    fn stale_validation_failure_is_ignored() {
        let sched = BatchSched::new(1, 8);
        let mvmap = MvMap::new(1);
        assert_eq!(run_one(&sched), Task::Execute { rank: 0, incarnation: 0 });
        sched.finish_execution(0, 0, true, 1);
        assert_eq!(run_one(&sched), Task::Validate { rank: 0, incarnation: 0 });
        assert!(sched.fail_validation(0, 0, &mvmap, &[], 1));
        // A second failure report for the dead incarnation must not
        // double-abort.
        let _ = run_one(&sched); // the re-execution task
        sched.finish_execution(0, 1, false, 1);
        let _ = run_one(&sched); // its one-off validation
        assert!(!sched.fail_validation(0, 0, &mvmap, &[], 1));
    }

    #[test]
    fn empty_batch_is_done_immediately() {
        let sched = BatchSched::new(0, 8);
        assert_eq!(sched.next_task(), Poll::Done);
    }

    #[test]
    fn chained_blocks_share_one_rank_space_and_stamp_per_block_marks() {
        // Two blocks of two ranks; window wide enough that block 1's
        // executions hand out while block 0 is still unvalidated.
        let sched = BatchSched::chained(4, 8, &[2, 4]);
        for rank in 0..4 {
            assert_eq!(run_one(&sched), Task::Execute { rank, incarnation: 0 });
        }
        for rank in 0..4 {
            sched.finish_execution(rank, 0, true, 10);
        }
        for rank in 0..4 {
            assert_eq!(run_one(&sched), Task::Validate { rank, incarnation: 0 });
            sched.pass_validation(rank, 10);
        }
        assert_eq!(sched.next_task(), Poll::Done);
        // retired: 40 after executions; block 0's last pass is rank 1
        // (retired 60), block 1's is rank 3 (retired 80).
        assert_eq!(sched.marks(), vec![60, 80]);
    }

    #[test]
    fn a_wave_drop_into_an_earlier_block_restamps_its_completion() {
        let sched = BatchSched::chained(2, 8, &[1, 2]);
        let mvmap = MvMap::new(1);
        for rank in 0..2 {
            assert_eq!(run_one(&sched), Task::Execute { rank, incarnation: 0 });
        }
        for rank in 0..2 {
            sched.finish_execution(rank, 0, true, 1);
        }
        assert_eq!(run_one(&sched), Task::Validate { rank: 0, incarnation: 0 });
        sched.pass_validation(0, 1); // block 0 stamped at retired = 3
        assert_eq!(run_one(&sched), Task::Validate { rank: 1, incarnation: 0 });
        assert!(sched.fail_validation(1, 0, &mvmap, &[], 1));
        assert_eq!(run_one(&sched), Task::Execute { rank: 1, incarnation: 1 });
        sched.finish_execution(1, 1, false, 1);
        assert_eq!(run_one(&sched), Task::Validate { rank: 1, incarnation: 1 });
        sched.pass_validation(1, 1);
        assert_eq!(sched.next_task(), Poll::Done);
        // Block 1 completes three retired units after block 0 (failed
        // validation + re-execution + the final pass).
        assert_eq!(sched.marks(), vec![3, 6]);
    }
}
