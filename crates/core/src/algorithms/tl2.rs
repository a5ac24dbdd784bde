//! The TL2 STM of Dice, Shalev and Shavit, in the paper's configuration
//! (§3.1): per-location (per-stripe) versioned locks with **eager
//! encounter-time writes** and an undo log.
//!
//! TL2 pays higher constant overheads than NOrec (a metadata access per
//! read and write) but scales better under writers, because conflict
//! detection is per location instead of one global clock — in the paper's
//! 40%-mutation RBTree it overtakes Hybrid NOrec.

use std::sync::atomic::{AtomicU64, Ordering};

use sim_mem::{Addr, Heap, LineId};

use crate::algorithms::common::Meter;
use crate::cost;
use crate::error::{TxFault, TxResult, RESTART};
use crate::session::Session;
use crate::trace;
use crate::tx::{Tx, TxCtx, TxMem, TxOps};
use crate::txlog::{Backoff, LogMap, LogVec};
use crate::TxKind;

/// Number of stripe locks (power of two).
const STRIPES: usize = 1 << 16;

/// TL2's global metadata: the version clock and the stripe-lock table.
///
/// This is STM-internal bookkeeping, so it lives in ordinary process
/// memory (as it would in a real TL2), not in the simulated heap: TL2
/// never coexists with hardware transactions.
pub(crate) struct Tl2Meta {
    clock: AtomicU64,
    stripes: Box<[AtomicU64]>,
}

impl Tl2Meta {
    pub(crate) fn new() -> Self {
        Tl2Meta {
            clock: AtomicU64::new(0),
            stripes: (0..STRIPES)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Stripe index covering `addr` (one stripe per cache line, hashed).
    #[inline]
    fn stripe_of(&self, addr: Addr) -> usize {
        (LineId::containing(addr).index() as usize) & (STRIPES - 1)
    }

    #[inline]
    fn stripe(&self, index: usize) -> &AtomicU64 {
        &self.stripes[index]
    }
}

impl std::fmt::Debug for Tl2Meta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tl2Meta")
            .field("clock", &self.clock.load(Ordering::Relaxed))
            .field("stripes", &STRIPES)
            .finish()
    }
}

const LOCK_BIT: u64 = 1;

#[inline]
fn is_locked(meta: u64) -> bool {
    meta & LOCK_BIT != 0
}

#[inline]
fn version(meta: u64) -> u64 {
    meta >> 1
}

pub(crate) fn run<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> Result<T, TxFault> {
    let rt = t.rt.clone();
    let heap: &Heap = rt.heap();
    let meta = rt.tl2();
    let interleave = rt.config().interleave_accesses;
    t.stats.slow_path_entries += 1;
    loop {
        trace::begin(trace::Path::Stm);
        // Recycled arenas: the owned-stripe table keeps its open-addressed
        // index allocated across attempts (no SipHash, no rehash churn).
        t.logs.tl2_read.clear();
        t.logs.tl2_undo.clear();
        t.logs.tl2_owned.clear();
        let mut ctx = Tl2Ctx {
            heap,
            meta,
            mem: &mut t.mem,
            tid: t.tid,
            rv: meta.clock.load(Ordering::Acquire),
            read_set: &mut t.logs.tl2_read,
            owned: &mut t.logs.tl2_owned,
            undo: &mut t.logs.tl2_undo,
            backoff: &mut t.backoff,
            dead: false,
            #[cfg(feature = "mutants")]
            skip_commit_validation: rt.mutant_armed(crate::mutants::Mutant::Tl2CommitNoValidate),
            #[cfg(feature = "mutants")]
            early_lock_release: rt.mutant_armed(crate::mutants::Mutant::Tl2EarlyRelease),
            meter: Meter::new(interleave),
        };
        ctx.meter.charge(cost::STM_START);
        let mut tx = Tx::new(TxCtx::Tl2(ctx), kind);
        let outcome = body(&mut tx);
        let (ctx, fault) = tx.into_parts();
        let TxCtx::Tl2(mut ctx) = ctx else { unreachable!() };
        if let Some(fault) = fault {
            // The refused write acquired no stripe and logged no undo
            // entry (the fault fires first in a read-only body), but
            // rollback_writes also covers the empty case and keeps the
            // teardown uniform.
            ctx.rollback_writes();
            trace::abort();
            t.stats.cycles += ctx.meter.cycles;
            t.mem.rollback(heap, t.tid);
            return Err(fault);
        }
        match outcome {
            Ok(value) => {
                if ctx.commit().is_ok() {
                    trace::commit(trace::Path::Stm);
                    t.stats.cycles += ctx.meter.cycles;
                    t.mem.commit(heap, t.tid);
                    t.stats.slow_path_commits += 1;
                    return Ok(value);
                }
                trace::abort();
                t.stats.cycles += ctx.meter.cycles;
                t.mem.rollback(heap, t.tid);
                t.stats.slow_path_restarts += 1;
            }
            Err(_) => {
                ctx.rollback_writes();
                trace::abort();
                t.stats.cycles += ctx.meter.cycles;
                t.mem.rollback(heap, t.tid);
                t.stats.slow_path_restarts += 1;
            }
        }
    }
}

pub(crate) struct Tl2Ctx<'a> {
    heap: &'a Heap,
    meta: &'a Tl2Meta,
    mem: &'a mut TxMem,
    tid: usize,
    /// Read version: the clock value sampled at transaction start.
    rv: u64,
    /// Stripes read, with the metadata observed at read time.
    read_set: &'a mut LogVec<(usize, u64)>,
    /// Stripes this transaction write-locked, with their pre-lock metadata.
    /// The shared recycled index map: first-lock order preserved for
    /// release, O(1) ownership checks on every read and write.
    owned: &'a mut LogMap,
    /// Undo log for eager writes (applied in reverse on abort).
    undo: &'a mut LogVec<(Addr, u64)>,
    backoff: &'a mut Backoff,
    dead: bool,
    /// Armed `Tl2CommitNoValidate` corpus mutant: commit skips read-set
    /// validation when the clock moved (the planted bug).
    #[cfg(feature = "mutants")]
    skip_commit_validation: bool,
    /// Armed `Tl2EarlyRelease` corpus mutant: abort releases stripe locks
    /// before undoing eager writes (the planted bug).
    #[cfg(feature = "mutants")]
    early_lock_release: bool,
    meter: Meter,
}

impl Tl2Ctx<'_> {
    /// True when the `Tl2CommitNoValidate` corpus mutant is armed.
    #[inline]
    fn commit_validation_elided(&self) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.skip_commit_validation
        }
        #[cfg(not(feature = "mutants"))]
        {
            false
        }
    }

    /// True when the `Tl2EarlyRelease` corpus mutant is armed.
    #[inline]
    fn release_before_undo(&self) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.early_lock_release
        }
        #[cfg(not(feature = "mutants"))]
        {
            false
        }
    }
    /// Restores overwritten values and releases stripe locks at their
    /// original versions (values are unchanged after undo, so reader
    /// snapshots stay valid).
    fn rollback_writes(&mut self) {
        self.meter.charge(
            self.undo.len() as u64 * cost::NOREC_WRITEBACK_ENTRY
                + self.owned.len() as u64 * cost::TL2_RELEASE_ENTRY,
        );
        if self.release_before_undo() {
            // Lock-release-before-write-back: the stripes go back to their
            // pre-lock versions while the dirty values are still in place,
            // and a scheduling point lets a reader in — it sees an aborted
            // write at an unlocked, valid-looking stripe. (The release loop
            // below is then a no-op: `owned` is already empty.)
            for &(stripe, pre) in self.owned.iter() {
                self.meta.stripe(stripe as usize).store(pre, Ordering::Release);
            }
            self.owned.clear();
            sim_htm::sched::yield_point();
        }
        for &(addr, old) in self.undo.as_slice().iter().rev() {
            self.heap.store(addr, old);
        }
        self.undo.clear();
        for &(stripe, pre) in self.owned.iter() {
            self.meta.stripe(stripe as usize).store(pre, Ordering::Release);
        }
        self.owned.clear();
    }

    fn acquire_stripe(&mut self, stripe: usize) -> TxResult<()> {
        if self.owned.contains(stripe as u64) {
            return Ok(());
        }
        let cur = self.meta.stripe(stripe).load(Ordering::Acquire);
        // Reject locked stripes and stripes newer than our read version;
        // the latter keeps reads of unwritten words in owned stripes
        // consistent with the rest of the snapshot.
        if is_locked(cur) || version(cur) > self.rv {
            self.dead = true;
            return Err(RESTART);
        }
        if self
            .meta
            .stripe(stripe)
            .compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.dead = true;
            return Err(RESTART);
        }
        self.owned.insert(stripe as u64, cur);
        Ok(())
    }

    fn commit(&mut self) -> TxResult<()> {
        if self.owned.is_empty() {
            // Read-only: every read was validated against rv at read time,
            // so the snapshot is consistent as of rv. Nothing to do.
            return Ok(());
        }
        self.meter.charge(cost::TL2_COMMIT);
        let wv = self.meta.clock.fetch_add(2, Ordering::AcqRel) + 2;
        if wv != self.rv + 2 && !self.commit_validation_elided() {
            // Validate the read set.
            self.meter
                .charge(self.read_set.len() as u64 * cost::TL2_VALIDATE_ENTRY);
            for &(stripe, seen) in self.read_set.as_slice() {
                let cur = self.meta.stripe(stripe).load(Ordering::Acquire);
                let ok = if let Some(pre) = self.owned.get(stripe as u64) {
                    pre == seen
                } else {
                    cur == seen
                };
                if !ok {
                    self.rollback_writes();
                    self.dead = true;
                    return Err(RESTART);
                }
            }
        }
        // Publish: release stripes at the new write version.
        self.meter
            .charge(self.owned.len() as u64 * cost::TL2_RELEASE_ENTRY);
        for &(stripe, _) in self.owned.iter() {
            self.meta.stripe(stripe as usize).store(wv << 1, Ordering::Release);
        }
        self.owned.clear();
        self.undo.clear();
        Ok(())
    }
}

impl TxOps for Tl2Ctx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.tick(cost::TL2_READ);
        let stripe = self.meta.stripe_of(addr);
        if self.owned.contains(stripe as u64) {
            // We hold the lock: the value is ours or stable.
            return Ok(self.heap.load(addr));
        }
        // Consistent (meta, value, meta) sandwich, then version check. The
        // wait on a locked stripe is bounded: this transaction may itself
        // hold stripe locks (eager writes), so waiting forever on another
        // writer deadlocks — after the bound, abort and restart instead.
        let mut patience = 128u32;
        let observed = loop {
            let before = self.meta.stripe(stripe).load(Ordering::Acquire);
            if is_locked(before) {
                self.meter.charge(cost::SPIN_ITER);
                patience -= 1;
                if patience == 0 {
                    self.dead = true;
                    return Err(RESTART);
                }
                sim_htm::sched::yield_point();
                let mut spin = 0;
                self.backoff.pause(128 - patience, &mut spin);
                self.meter.charge(spin);
                continue;
            }
            let value = self.heap.load(addr);
            let after = self.meta.stripe(stripe).load(Ordering::Acquire);
            if before == after {
                break (before, value);
            }
        };
        let (stripe_meta, value) = observed;
        if version(stripe_meta) > self.rv {
            self.dead = true;
            return Err(RESTART);
        }
        self.read_set.push((stripe, stripe_meta));
        Ok(value)
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        self.meter.tick(cost::TL2_WRITE);
        let stripe = self.meta.stripe_of(addr);
        self.acquire_stripe(stripe)?;
        self.undo.push((addr, self.heap.load(addr)));
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
