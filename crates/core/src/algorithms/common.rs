//! Machinery shared by the algorithm implementations: the hardware fast
//! path of the three hardware-first engines, the direct (serialized)
//! context, abort classification, and the serial lock.

use sim_htm::{AbortCode, HtmThread};
use sim_mem::{Addr, Heap};

use crate::cost;
use crate::error::{TxFault, TxResult, RESTART};
use crate::runtime::TmRuntime;
use crate::session::Session;
use crate::stats::TmThreadStats;
use crate::trace;
use crate::tx::{Tx, TxCtx, TxMem, TxOps};
use crate::txlog::Backoff;
use crate::TxKind;

/// What a hardware-first engine's fast path subscribes to, and when it
/// touches the clock — the one decision that tells Lock Elision, Hybrid
/// NOrec and RH NOrec apart (Algorithm 1, §2.2).
#[derive(Clone, Copy)]
pub(crate) struct FastPath {
    /// The lock word read at begin, so that its holder's first store
    /// aborts the speculation: the serial lock (Lock Elision) or
    /// `global_htm_lock` (the NOrec hybrids). `None` only under the
    /// `elision_no_subscription` corpus mutant.
    pub(crate) lock: Option<Addr>,
    /// Also subscribe to the clock (every lane) at begin — Hybrid NOrec's
    /// defining and costly step: every slow-path writer's clock update
    /// then aborts every running fast path, related data or not.
    pub(crate) clock_at_begin: bool,
    /// Modeled cycles charged once the hardware transaction has begun.
    pub(crate) begin_cycles: u64,
    /// Writers run [`fast_commit_clock_update`] just before commit.
    pub(crate) commit_clock_update: bool,
}

/// Why a fast-path attempt failed to commit.
enum FastFail {
    /// The hardware transaction aborted (`None` when the device reported
    /// no code, e.g. an explicit user abort path that lost it).
    Htm(Option<AbortCode>),
    /// The body tripped a non-retryable programming fault; the attempt was
    /// torn down and must not be retried.
    Fault(TxFault),
}

/// Per-attempt cost accounting plus interleave pacing.
///
/// `tick` charges virtual cycles for one transactional access and, every
/// `every` accesses, yields the host thread so concurrent transactions
/// overlap in time the way they would on dedicated cores. `charge`
/// accounts non-access events (begins, commits, global RMWs) without
/// pacing.
pub(crate) struct Meter {
    pub(crate) cycles: u64,
    accesses: u64,
    every: u32,
}

impl Meter {
    pub(crate) fn new(every: u32) -> Self {
        Meter { cycles: 0, accesses: 0, every }
    }

    #[inline]
    pub(crate) fn tick(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.accesses += 1;
        if self.every != 0 && self.accesses.is_multiple_of(self.every as u64) {
            std::thread::yield_now();
        }
    }

    #[inline]
    pub(crate) fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
}

/// Explicit-abort immediates used by the protocols (purely diagnostic; the
/// retry policy only looks at the abort class).
pub(crate) mod xabort {
    /// The subscribed lock (global HTM lock, serial lock, or Lock Elision's
    /// global lock) was held.
    pub(crate) const LOCK_HELD: u8 = 1;
    /// The NOrec global clock carried the writer lock bit.
    pub(crate) const CLOCK_LOCKED: u8 = 2;
    /// The body tripped a programming fault; the speculation is discarded
    /// and the attempt will not be retried.
    pub(crate) const FAULT: u8 = 3;
}

/// Transactional context for code running inside a hardware transaction
/// (the fast path, and RH NOrec's prefix/postfix reuse the same access
/// rules through [`HtmThread`] directly).
///
/// Reads and writes are uninstrumented in the algorithmic sense: they touch
/// no software metadata, exactly like the GCC fast path the paper
/// generates. After a hardware abort the context is dead and every
/// subsequent operation reports a restart without touching the device.
pub(crate) struct FastCtx<'a> {
    pub(crate) htm: &'a mut HtmThread,
    pub(crate) heap: &'a Heap,
    pub(crate) mem: &'a mut TxMem,
    pub(crate) tid: usize,
    pub(crate) wrote: bool,
    pub(crate) dead: Option<AbortCode>,
    pub(crate) meter: Meter,
}

impl<'a> FastCtx<'a> {
    pub(crate) fn new(
        htm: &'a mut HtmThread,
        heap: &'a Heap,
        mem: &'a mut TxMem,
        tid: usize,
        interleave: u32,
    ) -> Self {
        FastCtx {
            htm,
            heap,
            mem,
            tid,
            wrote: false,
            dead: None,
            meter: Meter::new(interleave),
        }
    }
}

impl TxOps for FastCtx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if self.dead.is_some() {
            return Err(RESTART);
        }
        self.meter.tick(cost::HTM_ACCESS);
        self.htm.read(addr).map_err(|e| {
            self.dead = Some(e.code);
            RESTART
        })
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        if self.dead.is_some() {
            return Err(RESTART);
        }
        self.wrote = true;
        self.meter.tick(cost::HTM_ACCESS);
        self.htm.write(addr, value).map_err(|e| {
            self.dead = Some(e.code);
            RESTART
        })
    }

    fn alloc(&mut self, words: u64) -> TxResult<Addr> {
        if self.dead.is_some() {
            return Err(RESTART);
        }
        // Allocation is non-speculative (the allocator's pools are runtime
        // state, not heap words) and touches no line metadata — pool
        // blocks are pre-zeroed at free time — so it cannot conflict with
        // this transaction. TxMem undoes it if the attempt aborts.
        self.meter.charge(cost::ALLOC);
        Ok(self.mem.alloc(self.heap, self.tid, words))
    }

    fn free(&mut self, addr: Addr) -> TxResult<()> {
        if self.dead.is_some() {
            return Err(RESTART);
        }
        self.meter.charge(cost::FREE);
        self.mem.free(addr);
        Ok(())
    }
}

/// Context for fully serialized execution (Lock Elision's lock fallback):
/// direct coherent loads and stores, no validation, cannot restart.
pub(crate) struct DirectCtx<'a> {
    pub(crate) heap: &'a Heap,
    pub(crate) mem: &'a mut TxMem,
    pub(crate) tid: usize,
    pub(crate) meter: Meter,
}

impl TxOps for DirectCtx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        self.meter.tick(cost::HTM_ACCESS);
        Ok(self.heap.load(addr))
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        self.meter.tick(cost::HTM_ACCESS);
        self.heap.store(addr, value);
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> TxResult<Addr> {
        self.meter.charge(cost::ALLOC);
        Ok(self.mem.alloc(self.heap, self.tid, words))
    }

    fn free(&mut self, addr: Addr) -> TxResult<()> {
        self.meter.charge(cost::FREE);
        self.mem.free(addr);
        Ok(())
    }
}

/// The hardware fast path: up to `fast_path_retries` attempts, backing
/// off between retryable aborts. `Some` when an attempt committed or the
/// body faulted; `None` when the engine must run its fallback.
pub(crate) fn run_fast<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    fast: FastPath,
) -> Option<Result<T, TxFault>> {
    let retries = t.rt.config().retry.fast_path_retries;
    let mut attempts = 0;
    loop {
        trace::begin(trace::Path::Fast);
        match try_fast(t, kind, body, fast) {
            Ok(value) => {
                trace::commit(trace::Path::Fast);
                t.stats.fast_path_commits += 1;
                return Some(Ok(value));
            }
            Err(FastFail::Fault(fault)) => {
                trace::abort();
                return Some(Err(fault));
            }
            Err(FastFail::Htm(code)) => {
                trace::abort();
                let code = code?;
                classify_fast_abort(&mut t.stats, code);
                attempts += 1;
                if !code.may_retry() || attempts >= retries {
                    return None;
                }
                // Backoff before retrying in hardware so the conflicting
                // transaction can finish (what production elision
                // runtimes do between xbegin attempts); otherwise retries
                // re-collide and convoy into the fallback.
                sim_htm::sched::yield_point();
                t.backoff.pause(attempts - 1, &mut t.stats.cycles);
            }
        }
    }
}

/// One hardware attempt. `Err(Htm(None))` means the attempt could not
/// begin.
fn try_fast<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    fast: FastPath,
) -> Result<T, FastFail> {
    let rt = t.rt.clone();
    let heap: &Heap = rt.heap();

    if t.htm_thread.begin().is_err() {
        return Err(FastFail::Htm(None));
    }
    t.stats.cycles += fast.begin_cycles;
    if let Some(lock) = fast.lock {
        match t.htm_thread.read(lock) {
            Ok(0) => {}
            Ok(_) => {
                let code = t.htm_thread.abort(xabort::LOCK_HELD).code;
                return fast_abort(t, heap, code);
            }
            Err(e) => return fast_abort(t, heap, e.code),
        }
    }
    if fast.clock_at_begin {
        if let Err(code) = rt.globals().clock.htm_subscribe(&mut t.htm_thread) {
            return fast_abort(t, heap, code);
        }
    }

    let interleave = rt.config().interleave_accesses;
    let ctx = FastCtx::new(&mut t.htm_thread, heap, &mut t.mem, t.tid, interleave);
    let mut tx = Tx::new(TxCtx::Fast(ctx), kind);
    let outcome = body(&mut tx);
    let (ctx, fault) = tx.into_parts();
    let TxCtx::Fast(ctx) = ctx else { unreachable!() };
    let (wrote, dead) = (ctx.wrote, ctx.dead);
    t.stats.cycles += ctx.meter.cycles;

    if let Some(fault) = fault {
        // The refused write never reached the device; discard the live
        // speculation (if the hardware hadn't already aborted) and report
        // the programming error.
        if dead.is_none() {
            t.htm_thread.abort(xabort::FAULT);
        }
        t.stats.cycles += cost::HTM_ABORT;
        t.mem.rollback(heap, t.tid);
        return Err(FastFail::Fault(fault));
    }
    let value = match (outcome, dead) {
        (Ok(value), None) => value,
        (_, Some(code)) => return fast_abort(t, heap, code),
        (Err(_), None) => unreachable!("fast-path body restarted without an abort"),
    };
    // A write in a read-only body faults before reaching the device, so
    // `wrote` alone implies a read-write transaction.
    if wrote && fast.commit_clock_update {
        if let Err(code) = fast_commit_clock_update(t, &rt) {
            return fast_abort(t, heap, code);
        }
    }
    match t.htm_thread.commit() {
        Ok(()) => {
            t.stats.cycles += cost::HTM_COMMIT;
            t.mem.commit(heap, t.tid);
            Ok(value)
        }
        Err(e) => fast_abort(t, heap, e.code),
    }
}

/// Charges a dead hardware attempt and undoes its allocations.
fn fast_abort<T>(t: &mut Session, heap: &Heap, code: AbortCode) -> Result<T, FastFail> {
    t.stats.cycles += cost::HTM_ABORT;
    t.mem.rollback(heap, t.tid);
    Err(FastFail::Htm(Some(code)))
}

/// Writer fast-path commit step: when slow paths exist, bump the clock
/// (and honor the serial lock). Hybrid NOrec and RH NOrec both run it —
/// but RH NOrec's clock enters the tracking set only here, at commit.
fn fast_commit_clock_update(t: &mut Session, rt: &TmRuntime) -> Result<(), AbortCode> {
    let g = rt.globals();
    t.stats.cycles += 4 * cost::HTM_ACCESS;
    let fallbacks = match t.htm_thread.read(g.num_of_fallbacks) {
        Ok(v) => v,
        Err(e) => return Err(e.code),
    };
    if fallbacks == 0 {
        return Ok(());
    }
    match t.htm_thread.read(g.serial_lock) {
        Ok(0) => {}
        Ok(_) => return Err(t.htm_thread.abort(xabort::LOCK_HELD).code),
        Err(e) => return Err(e.code),
    }
    // MUTANT (`missing_lane_bump`): writers homed on lane 0 skip the
    // commit bump entirely — their commits never reach the lane vector, so
    // software snapshots validate right past them.
    #[cfg(feature = "mutants")]
    if rt.mutant_armed(crate::mutants::Mutant::MissingLaneBump)
        && g.clock.shards() > 1
        && g.clock.home_lane(t.tid) == 0
    {
        return Ok(());
    }
    // Sharded, only the committer's home lane enters the tracking set, so
    // disjoint fast-path writers stop aborting each other here.
    g.clock.htm_commit_bump(&mut t.htm_thread, t.tid)?;
    // Interleave pacing (same rationale as `Meter::tick`): on a host with
    // fewer cores than workers, yield inside the window between the clock
    // subscription and the hardware commit — on dedicated cores this is
    // exactly where concurrent commit bumps collide, and without the yield
    // the window never overlaps another thread's commit at all.
    if rt.config().interleave_accesses != 0 {
        std::thread::yield_now();
    }
    Ok(())
}

/// Records a fast-path abort in the figure statistics.
fn classify_fast_abort(stats: &mut TmThreadStats, code: AbortCode) {
    match code {
        AbortCode::Conflict => stats.fast_conflict_aborts += 1,
        AbortCode::Capacity { .. } => stats.fast_capacity_aborts += 1,
        _ => stats.fast_other_aborts += 1,
    }
}

/// Spin-acquires a heap-word lock (0 → 1), charging the waiter's cycles.
/// Contended waits back off with a growing jittered window instead of
/// hammering the line (and re-colliding on release).
pub(crate) fn acquire_word_lock(heap: &Heap, lock: Addr, cycles: &mut u64, backoff: &mut Backoff) {
    let mut attempt = 0;
    loop {
        sim_htm::sched::yield_point();
        *cycles += cost::GLOBAL_RMW;
        if heap.compare_exchange(lock, 0, 1).is_ok() {
            return;
        }
        while heap.load(lock) != 0 {
            *cycles += cost::SPIN_ITER;
            sim_htm::sched::yield_point();
            backoff.pause(attempt, cycles);
            attempt += 1;
        }
    }
}

/// Releases a heap-word lock.
pub(crate) fn release_word_lock(heap: &Heap, lock: Addr) {
    debug_assert_eq!(heap.load(lock), 1, "releasing a lock not held");
    heap.store(lock, 0);
}
