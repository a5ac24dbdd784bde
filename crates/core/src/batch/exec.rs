//! The `ParallelExecutor`: optimistic rank-ordered execution of a
//! pre-formed transaction batch over the multi-version map.
//!
//! Workers pull tasks from the [`BatchSched`] until the batch quiesces;
//! then a single rank-ordered commit sweep writes the surviving versions
//! back to the heap. Per-attempt read and write capture reuses the
//! recycled [`crate::txlog`] arenas (one set per worker, cleared — not
//! freed — between attempts), so the warm speculative path allocates
//! nothing per transaction.
//!
//! A single-worker executor takes a no-speculation fast path: the batch
//! is already an execution order, so with nobody to race against it runs
//! each body directly against the heap with plain loads and stores.

use std::sync::{Arc, Mutex};

use sim_mem::{Addr, Heap};

use crate::config::BatchConfig;
use crate::cost;
use crate::error::TmError;
use crate::txlog::{LogVec, WriteSet};

use super::mvmap::{MvMap, Resolve};
use super::sched::{BatchSched, Poll, Task};

/// Marker error: a speculative read hit an ESTIMATE (a lower-rank writer
/// aborted and has not republished). The executor suspends the attempt
/// as a dependency of the aborted writer and re-runs it once that writer
/// republishes; transaction bodies just propagate it with `?`.
#[derive(Debug)]
#[non_exhaustive]
pub struct Blocked {
    /// Rank of the aborted writer whose republish unblocks the reader.
    pub(crate) on: u32,
}

/// Where a captured read got its value — what validation re-checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Origin {
    /// Base storage: no lower-rank writer existed at read time.
    #[default]
    Storage,
    /// A lower rank's published version.
    Version { rank: u32, incarnation: u32 },
}

/// One captured read: address, provenance, and the value observed (the
/// value is what the committed history reports to the oracle).
#[derive(Clone, Copy, Debug, Default)]
struct ReadRecord {
    addr: u64,
    origin: Origin,
    value: u64,
}

/// One transaction of a batch. Implementations run the body against the
/// view, reading and writing simulated-heap words; a [`Blocked`] from
/// [`TxView::read`] must be propagated (the executor handles it).
///
/// The same body runs unchanged on the speculative path and on the
/// single-worker fast path — only the view's plumbing differs.
pub trait BatchTxn: Send + Sync {
    /// Executes the transaction body against `view`.
    ///
    /// # Errors
    ///
    /// Returns [`Blocked`] when a read hit an unresolved speculative
    /// dependency; the executor re-runs the body later.
    fn execute(&self, view: &mut TxView<'_>) -> Result<(), Blocked>;
}

impl<T: BatchTxn + ?Sized> BatchTxn for &T {
    fn execute(&self, view: &mut TxView<'_>) -> Result<(), Blocked> {
        (**self).execute(view)
    }
}

impl<T: BatchTxn + ?Sized> BatchTxn for Box<T> {
    fn execute(&self, view: &mut TxView<'_>) -> Result<(), Blocked> {
        (**self).execute(view)
    }
}

enum ViewInner<'a> {
    /// Single-worker fast path: plain heap accesses, writes applied
    /// immediately, nothing captured.
    Direct { heap: &'a Heap },
    /// Speculative: reads resolve through the multi-version map, writes
    /// buffer into the worker's recycled arena.
    Spec {
        heap: &'a Heap,
        mvmap: &'a MvMap,
        rank: u32,
        writes: &'a mut WriteSet,
        reads: &'a mut LogVec<ReadRecord>,
    },
}

/// The transactional view a [`BatchTxn`] body runs against.
pub struct TxView<'a> {
    inner: ViewInner<'a>,
    cycles: u64,
    accesses: u64,
    /// [`BatchConfig::interleave_accesses`]: yield the host thread every
    /// this many speculative accesses (0 = never).
    every: u32,
}

impl std::fmt::Debug for TxView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxView").field("cycles", &self.cycles).finish_non_exhaustive()
    }
}

impl<'a> TxView<'a> {
    /// Charges a speculative access and, on the interleave period, yields
    /// the host thread (same contract as the session engines' access
    /// meter — see [`BatchConfig::interleave_accesses`]). Takes the
    /// metering fields directly so it can run under the active borrow of
    /// `self.inner`.
    fn tick(cycles: &mut u64, accesses: &mut u64, every: u32, cost: u64) {
        *cycles += cost;
        *accesses += 1;
        if every != 0 && accesses.is_multiple_of(u64::from(every)) {
            std::thread::yield_now();
        }
    }

    /// Reads one word.
    ///
    /// # Errors
    ///
    /// [`Blocked`] when the resolving version is an ESTIMATE.
    pub fn read(&mut self, addr: Addr) -> Result<u64, Blocked> {
        match &mut self.inner {
            ViewInner::Direct { heap } => {
                self.cycles += cost::BATCH_SEQ_ACCESS;
                Ok(heap.load(addr))
            }
            ViewInner::Spec { heap, mvmap, rank, writes, reads } => {
                if let Some(value) = writes.lookup(addr) {
                    Self::tick(&mut self.cycles, &mut self.accesses, self.every, cost::BATCH_RAW);
                    return Ok(value);
                }
                Self::tick(&mut self.cycles, &mut self.accesses, self.every, cost::BATCH_READ);
                sim_htm::sched::yield_point();
                let word = addr.to_word();
                match mvmap.read(word, *rank) {
                    Resolve::Storage => {
                        let value = heap.load(addr);
                        reads.push(ReadRecord { addr: word, origin: Origin::Storage, value });
                        Ok(value)
                    }
                    Resolve::Version { rank: w, incarnation, value } => {
                        reads.push(ReadRecord {
                            addr: word,
                            origin: Origin::Version { rank: w, incarnation },
                            value,
                        });
                        Ok(value)
                    }
                    Resolve::Estimate { rank: on } => Err(Blocked { on }),
                }
            }
        }
    }

    /// Writes one word (buffered until commit on the speculative path,
    /// immediate on the fast path).
    pub fn write(&mut self, addr: Addr, value: u64) {
        match &mut self.inner {
            ViewInner::Direct { heap } => {
                self.cycles += cost::BATCH_SEQ_ACCESS;
                heap.store(addr, value);
            }
            ViewInner::Spec { writes, .. } => {
                Self::tick(&mut self.cycles, &mut self.accesses, self.every, cost::BATCH_WRITE);
                writes.insert(addr, value);
            }
        }
    }
}

/// Committed effect of one rank: the reads it observed and the writes it
/// published, in the final (validated) incarnation. Addresses are heap
/// word addresses. The commit order is the rank order, so replaying
/// these records in sequence *is* the serialization the executor claims.
#[derive(Clone, Debug, Default)]
pub struct TxnRecord {
    /// `(word address, value read)` in program order, RAW hits excluded.
    pub reads: Vec<(u64, u64)>,
    /// `(word address, value written)` in first-write order.
    pub writes: Vec<(u64, u64)>,
}

/// Per-rank output slot shared between executions and validations.
#[derive(Debug, Default)]
struct TxnOutput {
    incarnation: u32,
    reads: Vec<ReadRecord>,
    writes: Vec<(u64, u64)>,
}

/// Per-worker counters; cycles include wasted (aborted/blocked) work.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerStats {
    cycles: u64,
    executions: u64,
    blocked: u64,
    aborts: u64,
    validations: u64,
}

/// What a batch run measured.
#[derive(Clone, Debug)]
pub struct BatchReport {
    txs: u64,
    speculative: bool,
    worker_cycles: Vec<u64>,
    commit_cycles: u64,
    executions: u64,
    blocked: u64,
    aborts: u64,
    validations: u64,
    max_incarnation: u32,
    committed: Vec<TxnRecord>,
}

impl BatchReport {
    /// Transactions committed.
    pub fn txs(&self) -> u64 {
        self.txs
    }

    /// `false` when the single-worker no-speculation fast path ran.
    pub fn speculative(&self) -> bool {
        self.speculative
    }

    /// Execution attempts that ran a body to completion (re-executions
    /// included).
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Attempts abandoned on an ESTIMATE read.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }

    /// Validation failures (each one re-executed a rank).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Validation tasks run.
    pub fn validations(&self) -> u64 {
        self.validations
    }

    /// Highest incarnation any rank reached (0 = conflict-free run).
    pub fn max_incarnation(&self) -> u32 {
        self.max_incarnation
    }

    /// Modeled cycles of the critical path: the busiest worker plus the
    /// sequential commit sweep.
    pub fn makespan_cycles(&self) -> u64 {
        self.worker_cycles.iter().copied().max().unwrap_or(0) + self.commit_cycles
    }

    /// Modeled cycles of the rank-ordered commit sweep alone.
    pub fn commit_cycles(&self) -> u64 {
        self.commit_cycles
    }

    /// Total modeled cycles across all workers (work, not latency).
    pub fn total_cycles(&self) -> u64 {
        self.worker_cycles.iter().sum::<u64>() + self.commit_cycles
    }

    /// Modeled wall nanoseconds per transaction at [`cost::MODEL_HZ`],
    /// from the makespan (workers run concurrently).
    pub fn modeled_ns_per_tx(&self) -> f64 {
        if self.txs == 0 {
            return 0.0;
        }
        self.makespan_cycles() as f64 / self.txs as f64 / cost::MODEL_HZ * 1e9
    }

    /// Per-rank committed effects (empty on the fast path, which applies
    /// writes directly and captures nothing).
    pub fn committed(&self) -> &[TxnRecord] {
        &self.committed
    }
}

/// Recycled per-worker capture arenas (txlog-style: cleared, not freed).
#[derive(Debug, Default)]
struct Arena {
    writes: WriteSet,
    reads: LogVec<ReadRecord>,
    read_scratch: Vec<ReadRecord>,
    addr_scratch: Vec<u64>,
}

/// Everything the workers share for one batch run.
struct Shared<'a, T> {
    heap: &'a Heap,
    batch: &'a [T],
    mvmap: MvMap,
    sched: BatchSched,
    outputs: Vec<Mutex<TxnOutput>>,
    stats: Vec<Mutex<WorkerStats>>,
    /// [`BatchConfig::interleave_accesses`].
    interleave: u32,
    /// Sampled once per run: the `batch_stale_estimate` mutant.
    stale_estimate: bool,
}

/// The Block-STM-style batch engine: the repo's sixth execution mode.
///
/// Construct one over a heap with [`ParallelExecutor::new`], then feed it
/// pre-formed batches of [`BatchTxn`]s with [`ParallelExecutor::execute`].
/// The committed state is always the one sequential rank-order execution
/// would produce, whatever the worker interleaving.
pub struct ParallelExecutor {
    heap: Arc<Heap>,
    config: BatchConfig,
    #[cfg(feature = "mutants")]
    mutant_mask: std::sync::atomic::AtomicU32,
}

impl std::fmt::Debug for ParallelExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelExecutor").field("config", &self.config).finish_non_exhaustive()
    }
}

impl ParallelExecutor {
    /// Builds an executor over `heap` with validated `config`.
    ///
    /// # Errors
    ///
    /// [`TmError::InvalidConfig`] on out-of-range knobs (see
    /// [`BatchConfig`]).
    pub fn new(heap: Arc<Heap>, config: BatchConfig) -> Result<ParallelExecutor, TmError> {
        config.validate()?;
        Ok(ParallelExecutor {
            heap,
            config,
            #[cfg(feature = "mutants")]
            mutant_mask: std::sync::atomic::AtomicU32::new(0),
        })
    }

    /// The executor's configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// The heap the executor commits into.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Arms or disarms a planted bug on this executor (mutation-score
    /// harness hook; mirrors `TmRuntime::set_mutant`). Mutants the batch
    /// engine does not implement are inert.
    #[cfg(feature = "mutants")]
    pub fn set_mutant(&self, mutant: crate::mutants::Mutant, enabled: bool) {
        use std::sync::atomic::Ordering;
        if enabled {
            self.mutant_mask.fetch_or(mutant.bit(), Ordering::SeqCst);
        } else {
            self.mutant_mask.fetch_and(!mutant.bit(), Ordering::SeqCst);
        }
    }

    /// Whether a planted bug is armed on this executor.
    #[cfg(feature = "mutants")]
    pub fn mutant_armed(&self, mutant: crate::mutants::Mutant) -> bool {
        use std::sync::atomic::Ordering;
        self.mutant_mask.load(Ordering::SeqCst) & mutant.bit() != 0
    }

    fn stale_estimate_armed(&self) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.mutant_armed(crate::mutants::Mutant::BatchStaleEstimate)
        }
        #[cfg(not(feature = "mutants"))]
        {
            false
        }
    }

    /// Executes `batch` as a *chain* of blocks sharing one rank space and
    /// commits its effects to the heap: `boundaries` are ascending
    /// end-exclusive rank ends (the last equal to `batch.len()`; a single
    /// block passes `&[batch.len()]`). All blocks run under one scheduler
    /// and one speculation window, so block `N + 1`'s speculation starts
    /// while block `N`'s validation wave is still draining — the
    /// cross-block handoff the dynamic batch former relies on. With one
    /// worker this takes the no-speculation fast path; otherwise workers
    /// run on scoped OS threads.
    ///
    /// Besides the report, returns each block's modeled *elapsed* cycles
    /// from chain start to that block's completion (monotone): the
    /// retired-cycle stamp of the block's last validation pass,
    /// prefix-maxed and normalized by the worker count. The commit sweep
    /// ([`BatchReport::commit_cycles`]) runs once after the last block
    /// and is not included.
    pub fn execute<T: BatchTxn>(
        &self,
        batch: &[T],
        boundaries: &[usize],
    ) -> (BatchReport, Vec<u64>) {
        assert_eq!(
            boundaries.last().copied(),
            Some(batch.len()),
            "chain boundaries must cover the batch"
        );
        if self.config.workers() == 1 {
            return execute_sequential_chained(&self.heap, batch, boundaries);
        }
        self.run_speculative(batch, boundaries, |shared, workers| {
            std::thread::scope(|scope| {
                for wid in 0..workers {
                    scope.spawn(move || worker_loop(shared, wid));
                }
            });
        })
    }

    /// [`ParallelExecutor::execute`] with the workers driven as virtual
    /// threads of the deterministic cooperative scheduler: the whole
    /// speculative interleaving — which ranks of block `N + 1` speculate
    /// while block `N` validates, every abort, estimate stall and
    /// re-execution — is a pure function of `sched_config`. The committed
    /// state is the same as any other interleaving's.
    ///
    /// Also returns the run's scheduler decision log, so checker
    /// harnesses can replay and shrink a failing interleaving. The
    /// single-worker fast path takes no scheduling decisions and returns
    /// an empty log.
    #[cfg(feature = "deterministic")]
    pub fn execute_controlled<T: BatchTxn>(
        &self,
        batch: &[T],
        boundaries: &[usize],
        sched_config: &sim_htm::sched::SchedConfig,
    ) -> (BatchReport, Vec<u64>, sim_htm::sched::RunResult) {
        use sim_htm::sched::RunResult;
        assert_eq!(
            boundaries.last().copied(),
            Some(batch.len()),
            "chain boundaries must cover the batch"
        );
        if self.config.workers() == 1 {
            let (report, elapsed) = execute_sequential_chained(&self.heap, batch, boundaries);
            return (report, elapsed, RunResult { decisions: Vec::new(), steps: 0 });
        }
        let mut run = None;
        let (report, elapsed) = self.run_speculative(batch, boundaries, |shared, workers| {
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..workers)
                .map(|wid| Box::new(move || worker_loop(shared, wid)) as Box<dyn FnOnce() + Send>)
                .collect();
            run = Some(sim_htm::sched::run_threads(sched_config, bodies));
        });
        (report, elapsed, run.expect("spawn closure always runs"))
    }

    /// Shared speculative-phase driver: `spawn` must run `workers`
    /// worker loops to completion before returning.
    fn run_speculative<T: BatchTxn>(
        &self,
        batch: &[T],
        boundaries: &[usize],
        spawn: impl for<'s> FnOnce(&'s Shared<'s, T>, usize),
    ) -> (BatchReport, Vec<u64>) {
        let workers = self.config.workers();
        let shared = Shared {
            heap: &self.heap,
            batch,
            mvmap: MvMap::new(self.config.mvmap_shards()),
            // Fresh speculation stays within a few tasks per worker of
            // the validation wave: deep enough to keep every worker fed,
            // shallow enough that an abort's re-validation sweep stays
            // O(workers), not O(batch). The window is shared across the
            // whole chain, so it is also the cross-block handoff depth.
            sched: BatchSched::chained(batch.len(), 8 * workers, boundaries),
            outputs: (0..batch.len()).map(|_| Mutex::new(TxnOutput::default())).collect(),
            stats: (0..workers).map(|_| Mutex::new(WorkerStats::default())).collect(),
            interleave: self.config.interleave_accesses(),
            stale_estimate: self.stale_estimate_armed(),
        };
        spawn(&shared, workers);
        shared.mvmap.assert_no_estimates();
        // Per-block completion: the retired-cycle stamps of each block's
        // last validation pass, prefix-maxed (a block cannot complete
        // before its predecessor) and spread across the workers.
        let mut elapsed = shared.sched.marks();
        let mut peak = 0u64;
        for mark in &mut elapsed {
            peak = peak.max(*mark);
            *mark = peak / workers as u64;
        }

        // Rank-ordered lazy commit, folded per address: the map's
        // version lists are rank-sorted, so the highest version of each
        // address is exactly what the rank-ordered sweep would leave —
        // one store per distinct written address, not per write entry.
        let mut commit_cycles = 0u64;
        for (addr, value) in shared.mvmap.final_versions() {
            self.heap.store(Addr::from_word(addr), value);
            commit_cycles += cost::BATCH_COMMIT_ENTRY;
        }
        // Per-rank effect records for the history oracles: observability
        // capture, not engine work, so it carries no modeled cost.
        let mut committed = Vec::with_capacity(batch.len());
        for output in &shared.outputs {
            let out = output.lock().unwrap_or_else(|e| e.into_inner());
            committed.push(TxnRecord {
                reads: out.reads.iter().map(|r| (r.addr, r.value)).collect(),
                writes: out.writes.clone(),
            });
        }

        let mut report = BatchReport {
            txs: batch.len() as u64,
            speculative: true,
            worker_cycles: Vec::with_capacity(workers),
            commit_cycles,
            executions: 0,
            blocked: 0,
            aborts: 0,
            validations: 0,
            max_incarnation: shared.sched.max_incarnation(),
            committed,
        };
        for stat in &shared.stats {
            let s = *stat.lock().unwrap_or_else(|e| e.into_inner());
            report.worker_cycles.push(s.cycles);
            report.executions += s.executions;
            report.blocked += s.blocked;
            report.aborts += s.aborts;
            report.validations += s.validations;
        }
        (report, elapsed)
    }
}

/// Sequential rank-order execution: the parity baseline and the body of
/// the single-worker fast path. Plain heap accesses, no speculation, no
/// capture.
pub fn execute_sequential<T: BatchTxn>(heap: &Heap, batch: &[T]) -> BatchReport {
    execute_sequential_chained(heap, batch, &[batch.len()]).0
}

/// [`execute_sequential`] over a block chain: the per-block elapsed
/// cycles are the running total at each boundary (sequential execution
/// has no overlap to model).
fn execute_sequential_chained<T: BatchTxn>(
    heap: &Heap,
    batch: &[T],
    boundaries: &[usize],
) -> (BatchReport, Vec<u64>) {
    let mut cycles = 0u64;
    let mut elapsed = Vec::with_capacity(boundaries.len());
    for (rank, txn) in batch.iter().enumerate() {
        cycles += cost::BATCH_SEQ_TX;
        let mut view =
            TxView { inner: ViewInner::Direct { heap }, cycles: 0, accesses: 0, every: 0 };
        txn.execute(&mut view).expect("direct-mode reads never block");
        cycles += view.cycles;
        if boundaries.get(elapsed.len()) == Some(&(rank + 1)) {
            elapsed.push(cycles);
        }
    }
    // Trailing (or empty-batch) boundaries complete at the current total.
    while elapsed.len() < boundaries.len() {
        elapsed.push(cycles);
    }
    let report = BatchReport {
        txs: batch.len() as u64,
        speculative: false,
        worker_cycles: vec![cycles],
        commit_cycles: 0,
        executions: batch.len() as u64,
        blocked: 0,
        aborts: 0,
        validations: 0,
        max_incarnation: 0,
        committed: Vec::new(),
    };
    (report, elapsed)
}

/// One worker: pull tasks until the batch quiesces.
fn worker_loop<T: BatchTxn>(shared: &Shared<'_, T>, wid: usize) {
    let mut arena = Arena::default();
    let mut st = WorkerStats::default();
    loop {
        sim_htm::sched::yield_point();
        match shared.sched.next_task() {
            Poll::Done => break,
            Poll::Idle => {
                // Modeled stall accounting: under the deterministic
                // scheduler one idle poll is one cooperative step, a
                // faithful proxy for waiting on a dependency. On real
                // OS threads the poll count is a property of host
                // timesharing, not of the protocol — an idle worker is
                // modeled as parked (its wall time is bounded by the
                // busy workers, which the makespan max already covers).
                if sim_htm::sched::is_controlled() {
                    st.cycles += cost::SPIN_ITER;
                } else {
                    std::thread::yield_now();
                }
            }
            Poll::Run(Task::Execute { rank, incarnation }) => {
                run_execution(shared, &mut arena, &mut st, rank, incarnation);
            }
            Poll::Run(Task::Validate { rank, incarnation }) => {
                run_validation(shared, &mut arena, &mut st, rank, incarnation);
            }
        }
    }
    *shared.stats[wid].lock().unwrap_or_else(|e| e.into_inner()) = st;
}

fn run_execution<T: BatchTxn>(
    shared: &Shared<'_, T>,
    arena: &mut Arena,
    st: &mut WorkerStats,
    rank: usize,
    incarnation: u32,
) {
    // `spent` is this task's modeled cost: it lands both in the worker's
    // cycle count and in the scheduler's retired clock (the wave marks).
    let mut spent = cost::BATCH_TASK;
    arena.writes.clear();
    arena.reads.clear();
    let mut view = TxView {
        inner: ViewInner::Spec {
            heap: shared.heap,
            mvmap: &shared.mvmap,
            rank: rank as u32,
            writes: &mut arena.writes,
            reads: &mut arena.reads,
        },
        cycles: 0,
        accesses: 0,
        every: shared.interleave,
    };
    let result = shared.batch[rank].execute(&mut view);
    spent += view.cycles;
    match result {
        Err(Blocked { on }) => {
            st.blocked += 1;
            st.cycles += spent;
            shared.sched.block_execution(rank, on as usize, spent);
        }
        Ok(()) => {
            st.executions += 1;
            // Swap the captured sets into the rank's output slot, diffing
            // against the previous incarnation's write set on the way.
            let mut out = shared.outputs[rank].lock().unwrap_or_else(|e| e.into_inner());
            arena.addr_scratch.clear();
            let mut wrote_new = false;
            for &(addr, _) in &out.writes {
                if arena.writes.lookup(Addr::from_word(addr)).is_none() {
                    arena.addr_scratch.push(addr);
                }
            }
            for (addr, _) in arena.writes.iter() {
                if !out.writes.iter().any(|&(prev, _)| prev == addr.to_word()) {
                    wrote_new = true;
                }
            }
            out.incarnation = incarnation;
            out.reads.clear();
            out.reads.extend_from_slice(arena.reads.as_slice());
            out.writes.clear();
            out.writes.extend(arena.writes.iter().map(|(a, v)| (a.to_word(), v)));
            let entries = out.writes.len() as u64;
            drop(out);
            sim_htm::sched::yield_point();
            shared.mvmap.publish(
                rank as u32,
                incarnation,
                arena.writes.iter().map(|(a, v)| (a.to_word(), v)),
            );
            spent += entries * cost::BATCH_PUBLISH_ENTRY;
            st.cycles += spent;
            shared.mvmap.retract(rank as u32, &arena.addr_scratch);
            shared.sched.finish_execution(rank, incarnation, wrote_new, spent);
        }
    }
}

fn run_validation<T: BatchTxn>(
    shared: &Shared<'_, T>,
    arena: &mut Arena,
    st: &mut WorkerStats,
    rank: usize,
    incarnation: u32,
) {
    st.validations += 1;
    let mut spent = cost::BATCH_TASK;
    // Copy the captured read set out under the slot lock (no yields while
    // holding it), then resolve each read against the map.
    {
        let out = shared.outputs[rank].lock().unwrap_or_else(|e| e.into_inner());
        if out.incarnation != incarnation {
            drop(out);
            st.cycles += spent;
            shared.sched.pass_validation(rank, spent);
            return;
        }
        arena.read_scratch.clear();
        arena.read_scratch.extend_from_slice(&out.reads);
    }
    let mut ok = true;
    for (i, record) in arena.read_scratch.iter().enumerate() {
        spent += cost::BATCH_VALIDATE_ENTRY;
        sim_htm::sched::yield_point();
        // Validation probes interleave on the same period as execution
        // accesses — a validation-only worker must not monopolize the core.
        if shared.interleave != 0 && (i as u64 + 1).is_multiple_of(u64::from(shared.interleave)) {
            std::thread::yield_now();
        }
        let valid = match (shared.mvmap.read(record.addr, rank as u32), record.origin) {
            (Resolve::Storage, Origin::Storage) => true,
            (
                Resolve::Version { rank: w, incarnation: i, .. },
                Origin::Version { rank: ow, incarnation: oi },
            ) => w == ow && i == oi,
            // MUTANT (`Mutant::BatchStaleEstimate`): a read that now
            // resolves to an ESTIMATE means the writer below aborted
            // after we read it — the captured value belongs to a dead
            // incarnation and this validation must fail. The mutant
            // "recognizes" the tombstone as the version it read (same
            // writer rank, incarnation unchecked) and lets the stale
            // read survive the writer's re-execution: a lost update.
            (Resolve::Estimate { rank: e }, Origin::Version { rank: ow, .. }) => {
                shared.stale_estimate && e == ow
            }
            _ => false,
        };
        if !valid {
            ok = false;
            break;
        }
    }
    if ok {
        st.cycles += spent;
        shared.sched.pass_validation(rank, spent);
        return;
    }
    // Collect the write addresses to tombstone, then abort under the
    // scheduler lock (stale failures are discarded there).
    arena.addr_scratch.clear();
    {
        let out = shared.outputs[rank].lock().unwrap_or_else(|e| e.into_inner());
        arena.addr_scratch.extend(out.writes.iter().map(|&(addr, _)| addr));
    }
    st.cycles += spent;
    if shared.sched.fail_validation(rank, incarnation, &shared.mvmap, &arena.addr_scratch, spent) {
        st.aborts += 1;
        st.cycles += cost::BATCH_ABORT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::HeapConfig;

    /// Read one slot, bump it, and mirror the pre-bump value elsewhere.
    struct Bump {
        slot: Addr,
        mirror: Addr,
    }

    impl BatchTxn for Bump {
        fn execute(&self, view: &mut TxView<'_>) -> Result<(), Blocked> {
            let v = view.read(self.slot)?;
            view.write(self.slot, v + 1);
            view.write(self.mirror, v);
            Ok(())
        }
    }

    fn hot_batch(heap: &Heap, n: usize) -> (Addr, Vec<Bump>) {
        let slot = heap.allocator().alloc(0, 1).unwrap();
        let mirrors = heap.allocator().alloc(0, n as u64).unwrap();
        let batch = (0..n).map(|i| Bump { slot, mirror: mirrors.offset(i as u64) }).collect();
        (slot, batch)
    }

    #[test]
    fn single_worker_takes_the_fast_path() {
        let heap = Arc::new(Heap::new(HeapConfig::default()));
        let (slot, batch) = hot_batch(&heap, 16);
        let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::default()).unwrap();
        let (report, _) = exec.execute(&batch, &[batch.len()]);
        assert!(!report.speculative());
        assert_eq!(report.txs(), 16);
        assert_eq!(report.aborts(), 0);
        assert_eq!(heap.load(slot), 16);
        assert_eq!(heap.load(batch[7].mirror), 7);
        assert!(report.makespan_cycles() > 0);
    }

    #[test]
    fn speculative_run_matches_sequential_on_a_hot_slot() {
        let heap = Arc::new(Heap::new(HeapConfig::default()));
        let (slot, batch) = hot_batch(&heap, 48);
        let exec =
            ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(4)).unwrap();
        let (report, _) = exec.execute(&batch, &[batch.len()]);
        assert!(report.speculative());
        assert_eq!(heap.load(slot), 48);
        // Every rank reads the value its predecessor wrote: the mirrors
        // must come out 0..48 in rank order, whatever the interleaving.
        for (rank, tx) in batch.iter().enumerate() {
            assert_eq!(heap.load(tx.mirror), rank as u64, "mirror of rank {rank}");
        }
        assert_eq!(report.committed().len(), 48);
        // Rank 0's speculative read came from frozen base storage.
        assert_eq!(report.committed()[0].reads, vec![(slot.to_word(), 0)]);
        assert_eq!(report.committed()[47].writes[0], (slot.to_word(), 48));
    }

    #[test]
    fn disjoint_batch_never_aborts() {
        let heap = Arc::new(Heap::new(HeapConfig::default()));
        let slots = heap.allocator().alloc(0, 32).unwrap();
        struct Set(Addr);
        impl BatchTxn for Set {
            fn execute(&self, view: &mut TxView<'_>) -> Result<(), Blocked> {
                let v = view.read(self.0)?;
                view.write(self.0, v + 41);
                Ok(())
            }
        }
        let batch: Vec<Set> = (0..32).map(|i| Set(slots.offset(i))).collect();
        let exec =
            ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(4)).unwrap();
        let (report, _) = exec.execute(&batch, &[batch.len()]);
        assert_eq!(report.aborts(), 0);
        assert_eq!(report.max_incarnation(), 0);
        assert_eq!(report.executions(), 32);
        for i in 0..32 {
            assert_eq!(heap.load(slots.offset(i)), 41);
        }
    }

    #[test]
    fn chained_blocks_commit_like_one_batch_and_complete_in_order() {
        for workers in [1usize, 4] {
            let heap = Arc::new(Heap::new(HeapConfig::default()));
            let (slot, batch) = hot_batch(&heap, 24);
            let exec =
                ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(workers))
                    .unwrap();
            let (report, elapsed) = exec.execute(&batch, &[8, 16, 24]);
            assert_eq!(report.txs(), 24);
            assert_eq!(heap.load(slot), 24, "workers {workers}");
            for (rank, tx) in batch.iter().enumerate() {
                assert_eq!(heap.load(tx.mirror), rank as u64);
            }
            assert_eq!(elapsed.len(), 3);
            assert!(elapsed[0] > 0);
            assert!(elapsed.windows(2).all(|w| w[0] <= w[1]), "elapsed {elapsed:?}");
        }
    }

    #[cfg(feature = "deterministic")]
    #[test]
    fn chained_controlled_replay_is_a_pure_function_of_the_seed() {
        use sim_htm::sched::SchedConfig;
        let run = |seed: u64| {
            let heap = Arc::new(Heap::new(HeapConfig::default()));
            let (slot, batch) = hot_batch(&heap, 18);
            let exec =
                ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(3)).unwrap();
            let (report, elapsed, _run) = exec.execute_controlled(
                &batch,
                &[6, 12, 18],
                &SchedConfig::from_seed(seed),
            );
            assert_eq!(heap.load(slot), 18);
            assert!(elapsed.windows(2).all(|w| w[0] <= w[1]));
            (report.executions(), report.aborts(), elapsed)
        };
        for seed in 0..8 {
            assert_eq!(run(seed), run(seed), "seed {seed} not reproducible");
        }
    }

    #[cfg(feature = "deterministic")]
    #[test]
    fn controlled_replay_is_a_pure_function_of_the_seed() {
        use sim_htm::sched::SchedConfig;
        let run = |seed: u64| {
            let heap = Arc::new(Heap::new(HeapConfig::default()));
            let (slot, batch) = hot_batch(&heap, 12);
            let exec =
                ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(3)).unwrap();
            let (report, _, _) =
                exec.execute_controlled(&batch, &[batch.len()], &SchedConfig::from_seed(seed));
            assert_eq!(heap.load(slot), 12);
            (report.executions(), report.aborts(), report.blocked(), report.makespan_cycles())
        };
        for seed in 0..8 {
            assert_eq!(run(seed), run(seed), "seed {seed} not reproducible");
        }
    }
}
