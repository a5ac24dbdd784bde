//! The all-software NOrec STM of Dalessandro, Spear and Scott, in the two
//! variants the paper evaluates (§3.1):
//!
//! * **eager** (the paper's default): no read- or write-set logging. A
//!   transaction reads the global clock at start; every read re-checks the
//!   clock and restarts if it moved; the first write locks the clock and
//!   subsequent writes go straight to memory. "For the low concurrency in
//!   our benchmarks, the eager NOrec design delivers better performance."
//! * **lazy** (the classic NOrec, kept as an ablation): value-based
//!   read-set revalidation instead of restarts, and a write set that is
//!   published at commit under the clock lock.
//!
//! Hybrid NOrec's slow path runs these very attempts ([`Stm`]) with
//! `set_htm_lock`, wrapped in its fallback announcement and serial-lock
//! escalation.

use std::sync::Arc;

use sim_mem::{Addr, Heap};

use crate::algorithms::common::Meter;
use crate::clock_shard::ClockSnapshot;
use crate::cost;
use crate::error::{TxFault, TxResult, RESTART};
use crate::globals::Globals;
use crate::runtime::TmRuntime;
use crate::session::Session;
use crate::trace;
use crate::tx::{Tx, TxCtx, TxMem, TxOps};
use crate::txlog::{Backoff, LogVec, WriteSet};
use crate::TxKind;

/// Standalone NOrec: software attempts until one commits or faults.
pub(crate) fn run<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    lazy: bool,
) -> Result<T, TxFault> {
    let rt = Arc::clone(&t.rt);
    let mut stm = Stm::new(&rt, lazy, false);
    t.stats.slow_path_entries += 1;
    loop {
        if let Some(done) = stm.attempt(t, kind, body) {
            return done;
        }
    }
}

/// One transaction's NOrec software state across its attempts: the
/// state standalone NOrec and Hybrid NOrec's slow path share.
pub(crate) struct Stm<'a> {
    heap: &'a Heap,
    globals: Globals,
    interleave: u32,
    /// Lazy (value-logged reads, buffered writes) rather than eager.
    lazy: bool,
    /// The clock snapshot lives here, outside the per-attempt context, so
    /// the context (and with it the `TxCtx` enum moved through `Tx`)
    /// stays small, and a restart refreshes only the live lanes in place.
    snap: ClockSnapshot,
    /// Raise `global_htm_lock` around the write phase (Hybrid NOrec):
    /// hardware fast paths must never see a partial publication.
    set_htm_lock: bool,
}

impl<'a> Stm<'a> {
    pub(crate) fn new(rt: &'a TmRuntime, lazy: bool, set_htm_lock: bool) -> Self {
        Stm {
            heap: rt.heap(),
            globals: rt.globals_snapshot(),
            interleave: rt.config().interleave_accesses,
            lazy,
            snap: ClockSnapshot::single(0),
            set_htm_lock,
        }
    }

    /// One software attempt, eager or lazy. `Some` when it committed or
    /// the body faulted; `None` when it restarted (already counted).
    pub(crate) fn attempt<T>(
        &mut self,
        t: &mut Session,
        kind: TxKind,
        body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Option<Result<T, TxFault>> {
        trace::begin(trace::Path::Stm);
        let heap = self.heap;
        let mut spin = cost::STM_START;
        self.globals
            .clock
            .begin_into(heap, &mut spin, &mut t.backoff, &mut self.snap);
        let (probe_addr, probe_word) = self.globals.clock.read_probe(&self.snap);
        let (outcome, fault, cycles) = if self.lazy {
            // Recycled arenas: clearing keeps their allocations warm, so a
            // retry (or the next transaction) logs into already-sized
            // buffers.
            t.logs.read_log.clear();
            t.logs.write_set.clear();
            let mut ctx = LazyCtx {
                heap,
                globals: &self.globals,
                mem: &mut t.mem,
                tid: t.tid,
                snap: &mut self.snap,
                probe_addr,
                probe_word,
                read_log: &mut t.logs.read_log,
                write_set: &mut t.logs.write_set,
                backoff: &mut t.backoff,
                dead: false,
                set_htm_lock: self.set_htm_lock,
                #[cfg(feature = "mutants")]
                skip_reread: t.rt.mutant_armed(crate::mutants::Mutant::StaleSnapshotReuse),
                meter: Meter::new(self.interleave),
            };
            ctx.meter.charge(spin);
            let mut tx = Tx::new(TxCtx::Lazy(ctx), kind);
            let outcome = body(&mut tx);
            let (ctx, fault) = tx.into_parts();
            let TxCtx::Lazy(mut ctx) = ctx else { unreachable!() };
            // Writes are buffered and a refused one was never logged:
            // discarding the context is the whole fault teardown.
            debug_assert!(fault.is_none() || ctx.write_set.is_empty());
            let outcome = match (fault, outcome) {
                (None, Ok(value)) => ctx.commit().map(|()| value),
                (_, outcome) => outcome,
            };
            (outcome, fault, ctx.meter.cycles)
        } else {
            let mut ctx = EagerCtx {
                heap,
                globals: &self.globals,
                mem: &mut t.mem,
                tid: t.tid,
                snap: &mut self.snap,
                probe_addr,
                probe_word,
                wrote: false,
                dead: false,
                set_htm_lock: self.set_htm_lock,
                htm_lock_set: false,
                #[cfg(feature = "mutants")]
                skip_validation: t.rt.mutant_armed(crate::mutants::Mutant::EagerSkipValidation),
                meter: Meter::new(self.interleave),
            };
            ctx.meter.charge(spin);
            let mut tx = Tx::new(TxCtx::Eager(ctx), kind);
            let outcome = body(&mut tx);
            let (ctx, fault) = tx.into_parts();
            let TxCtx::Eager(mut ctx) = ctx else { unreachable!() };
            // A fault precedes the first write, so the clock is not
            // locked, the HTM lock was never raised and no store has
            // landed: nothing to undo but TxMem.
            debug_assert!(fault.is_none() || !ctx.wrote);
            match (fault, &outcome) {
                (None, Ok(_)) => ctx.commit(),
                (None, Err(_)) => {
                    debug_assert!(ctx.dead, "body restarted without a validation failure")
                }
                (Some(_), _) => {}
            }
            (outcome, fault, ctx.meter.cycles)
        };
        t.stats.cycles += cycles;
        if let Some(fault) = fault {
            trace::abort();
            t.mem.rollback(heap, t.tid);
            return Some(Err(fault));
        }
        match outcome {
            Ok(value) => {
                trace::commit(trace::Path::Stm);
                t.mem.commit(heap, t.tid);
                t.stats.slow_path_commits += 1;
                Some(Ok(value))
            }
            Err(_) => {
                trace::abort();
                t.mem.rollback(heap, t.tid);
                t.stats.slow_path_restarts += 1;
                None
            }
        }
    }
}

/// The eager NOrec transaction context. `set_htm_lock` makes it Hybrid
/// NOrec's slow path (the global HTM lock is raised at the first write;
/// standalone NOrec has no hardware to notify).
pub(crate) struct EagerCtx<'a> {
    pub(crate) heap: &'a Heap,
    pub(crate) globals: &'a Globals,
    pub(crate) mem: &'a mut TxMem,
    pub(crate) tid: usize,
    /// The transaction's clock snapshot, held by reference so the context
    /// stays cheap to move (the lane vector is a cache line wide).
    pub(crate) snap: &'a mut ClockSnapshot,
    /// Per-read validation probe ([`crate::clock_shard::ClockScheme::read_probe`]):
    /// one word whose expected value proves `snap` still valid on the
    /// single clock, and never matches on the sharded clock (forcing the
    /// full lane compare).
    pub(crate) probe_addr: Addr,
    /// The probe word's expected value.
    pub(crate) probe_word: u64,
    pub(crate) wrote: bool,
    pub(crate) dead: bool,
    /// Raise `global_htm_lock` around the write phase (hybrid slow paths).
    pub(crate) set_htm_lock: bool,
    pub(crate) htm_lock_set: bool,
    /// Armed `EagerSkipValidation` corpus mutant: per-read validation is
    /// elided entirely (the planted bug).
    #[cfg(feature = "mutants")]
    pub(crate) skip_validation: bool,
    pub(crate) meter: Meter,
}

impl EagerCtx<'_> {
    /// True when the `EagerSkipValidation` corpus mutant is armed.
    #[inline]
    fn validation_elided(&self) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.skip_validation
        }
        #[cfg(not(feature = "mutants"))]
        {
            false
        }
    }

    /// First-write protocol: enter the clock's write phase at our start
    /// snapshot, optionally raise the global HTM lock.
    pub(crate) fn handle_first_write(&mut self) -> TxResult<()> {
        debug_assert!(!self.wrote);
        self.meter.charge(cost::GLOBAL_RMW);
        if !self
            .globals
            .clock
            .try_enter_write_phase(self.heap, self.snap)
        {
            self.dead = true;
            return Err(RESTART);
        }
        self.wrote = true;
        if self.set_htm_lock {
            self.meter.charge(cost::GLOBAL_STORE);
            self.heap.store(self.globals.global_htm_lock, 1);
            self.htm_lock_set = true;
        }
        Ok(())
    }

    /// The out-of-line half of per-read validation, reached only when the
    /// probe misses: on the single clock that means the word moved (or is
    /// transiently locked) and the attempt is dead, full stop; on the
    /// sharded clock the probe decides nothing and the full lane compare
    /// runs for every read.
    #[cold]
    fn validate_slow(&mut self) -> TxResult<()> {
        self.meter.charge(self.globals.clock.validate_cost(self.snap));
        if !self.globals.clock.probe_conclusive()
            && self.globals.clock.is_valid(self.heap, self.snap)
        {
            return Ok(());
        }
        self.dead = true;
        Err(RESTART)
    }

    /// Commit: writers release the HTM lock (if raised) and publish a new
    /// clock version; read-only transactions have nothing to do (every
    /// read was individually validated against an unmoved clock).
    pub(crate) fn commit(&mut self) {
        if self.wrote {
            if self.htm_lock_set {
                self.meter.charge(cost::GLOBAL_STORE);
                self.heap.store(self.globals.global_htm_lock, 0);
                self.htm_lock_set = false;
            }
            self.meter.charge(cost::GLOBAL_STORE);
            self.globals.clock.publish(self.heap, self.snap, self.tid);
        }
    }
}

impl TxOps for EagerCtx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.tick(cost::NOREC_READ);
        let value = self.heap.load(addr);
        // After the first write we hold the write phase, so the check is
        // trivially true and skipped. A probe hit proves validity on the
        // single clock; everything else takes the full check out of line.
        if !self.wrote
            && !self.validation_elided()
            && self.heap.load(self.probe_addr) != self.probe_word
        {
            self.validate_slow()?;
        }
        Ok(value)
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        if !self.wrote {
            self.handle_first_write()?;
        }
        self.meter.tick(cost::NOREC_WRITE);
        self.heap.store(addr, value);
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> TxResult<Addr> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.charge(cost::ALLOC);
        Ok(self.mem.alloc(self.heap, self.tid, words))
    }

    fn free(&mut self, addr: Addr) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.charge(cost::FREE);
        self.mem.free(addr);
        Ok(())
    }
}

/// The classic lazy NOrec context: value-logged reads, buffered writes.
///
/// Both logs are borrowed from the session's recycled arenas (cleared by
/// [`Stm::attempt`] before each attempt), so a retry allocates nothing. The
/// write-set coalesces repeated writes to one address and answers
/// read-after-write in O(1); commit writes back one store per distinct
/// address.
pub(crate) struct LazyCtx<'a> {
    pub(crate) heap: &'a Heap,
    pub(crate) globals: &'a Globals,
    pub(crate) mem: &'a mut TxMem,
    pub(crate) tid: usize,
    /// The transaction's clock snapshot (by reference; see [`EagerCtx::snap`]).
    pub(crate) snap: &'a mut ClockSnapshot,
    /// Per-read validation probe (see [`EagerCtx::probe_addr`]).
    pub(crate) probe_addr: Addr,
    /// The probe word's expected value.
    pub(crate) probe_word: u64,
    pub(crate) read_log: &'a mut LogVec<(Addr, u64)>,
    pub(crate) write_set: &'a mut WriteSet,
    pub(crate) backoff: &'a mut Backoff,
    pub(crate) dead: bool,
    /// Raise `global_htm_lock` around the commit write-back (hybrid lazy
    /// slow path): hardware fast paths must never see a partial write-back.
    pub(crate) set_htm_lock: bool,
    /// Armed `StaleSnapshotReuse` corpus mutant: revalidation refreshes
    /// the clock snapshot but skips the value-based read-log re-read (the
    /// planted bug).
    #[cfg(feature = "mutants")]
    pub(crate) skip_reread: bool,
    pub(crate) meter: Meter,
}

impl LazyCtx<'_> {
    /// True when the `StaleSnapshotReuse` corpus mutant is armed.
    #[inline]
    fn reread_elided(&self) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.skip_reread
        }
        #[cfg(not(feature = "mutants"))]
        {
            false
        }
    }

    /// NOrec's value-based revalidation: loop until the clock is stable
    /// around a full re-read of the read log.
    fn revalidate(&mut self) -> TxResult<()> {
        loop {
            let mut spin = 0;
            // The old snapshot is dead weight here — validation is
            // value-based — so the fresh one lands directly in the slot.
            self.globals
                .clock
                .begin_into(self.heap, &mut spin, self.backoff, self.snap);
            self.meter.charge(
                spin
                    + self.read_log.len() as u64 * cost::NOREC_REVALIDATE_ENTRY
                    + self.globals.clock.validate_cost(self.snap),
            );
            if !self.reread_elided() {
                for &(addr, seen) in self.read_log.as_slice() {
                    if self.heap.load(addr) != seen {
                        self.dead = true;
                        return Err(RESTART);
                    }
                }
            }
            if self.globals.clock.is_valid(self.heap, self.snap) {
                let (addr, word) = self.globals.clock.read_probe(self.snap);
                self.probe_addr = addr;
                self.probe_word = word;
                return Ok(());
            }
        }
    }

    /// The out-of-line half of per-read validation (see
    /// [`EagerCtx::validate_slow`]): probe misses land here. Single
    /// clock: the miss already proves the clock moved, so revalidate
    /// immediately and loop until the refreshed probe holds around the
    /// re-read. Sharded: the full lane compare either proves the
    /// snapshot valid on the spot or drives the same revalidation loop.
    #[cold]
    fn validate_slow(&mut self, addr: Addr, value: &mut u64) -> TxResult<()> {
        if self.globals.clock.probe_conclusive() {
            loop {
                self.revalidate()?;
                *value = self.heap.load(addr);
                if self.heap.load(self.probe_addr) == self.probe_word {
                    return Ok(());
                }
            }
        }
        loop {
            self.meter.charge(self.globals.clock.validate_cost(self.snap));
            if self.globals.clock.is_valid(self.heap, self.snap) {
                return Ok(());
            }
            self.revalidate()?;
            *value = self.heap.load(addr);
        }
    }

    pub(crate) fn commit(&mut self) -> TxResult<()> {
        if self.write_set.is_empty() {
            return Ok(());
        }
        // Enter the write phase at our validated snapshot, revalidating as
        // needed.
        let mut attempt = 0;
        loop {
            self.meter.charge(cost::GLOBAL_RMW);
            if self
                .globals
                .clock
                .try_enter_write_phase(self.heap, self.snap)
            {
                break;
            }
            self.backoff.note_lane_cas_failure();
            self.revalidate()?;
            // The CAS lost to a competing committer: pause before retrying
            // so its release is not immediately re-contended.
            let mut spin = 0;
            self.backoff.pause(attempt, &mut spin);
            self.meter.charge(spin);
            attempt += 1;
        }
        self.meter.charge(
            self.write_set.len() as u64 * cost::NOREC_WRITEBACK_ENTRY + cost::GLOBAL_STORE,
        );
        if self.set_htm_lock {
            self.meter.charge(cost::GLOBAL_STORE);
            self.heap.store(self.globals.global_htm_lock, 1);
        }
        for (addr, value) in self.write_set.iter() {
            self.heap.store(addr, value);
        }
        if self.set_htm_lock {
            self.meter.charge(cost::GLOBAL_STORE);
            self.heap.store(self.globals.global_htm_lock, 0);
        }
        self.globals.clock.publish(self.heap, self.snap, self.tid);
        Ok(())
    }
}

impl TxOps for LazyCtx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.tick(cost::NOREC_LAZY_READ);
        if let Some(v) = self.write_set.lookup(addr) {
            return Ok(v);
        }
        let mut value = self.heap.load(addr);
        // Re-validate until the clock is quiescent around the read. A
        // probe hit proves quiescence on the single clock; everything
        // else takes the full check out of line.
        if self.heap.load(self.probe_addr) != self.probe_word {
            self.validate_slow(addr, &mut value)?;
        }
        self.read_log.push((addr, value));
        Ok(value)
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.tick(cost::NOREC_LAZY_WRITE);
        self.write_set.insert(addr, value);
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> TxResult<Addr> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.charge(cost::ALLOC);
        Ok(self.mem.alloc(self.heap, self.tid, words))
    }

    fn free(&mut self, addr: Addr) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.charge(cost::FREE);
        self.mem.free(addr);
        Ok(())
    }
}
