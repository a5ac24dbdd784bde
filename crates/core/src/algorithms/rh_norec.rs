//! **Reduced Hardware NOrec** — the paper's contribution (§2.2–§2.4).
//!
//! Two changes relative to Hybrid NOrec, both enabled by putting small
//! hardware transactions *inside the software slow path* (making it a
//! "mixed" slow path):
//!
//! * **HTM postfix** (Algorithm 2): the slow path's first write locks the
//!   global clock and opens a small hardware transaction that carries every
//!   subsequent access; all the writes publish atomically at its commit.
//!   Fast paths therefore can never observe partial slow-path writes — so
//!   the fast path reads the global clock only *at its commit point*
//!   instead of at start, eliminating Hybrid NOrec's false-abort storm.
//!   If the postfix cannot run, the slow path raises `global_htm_lock`
//!   (aborting all fast paths) and writes in place, exactly like Hybrid
//!   NOrec.
//! * **HTM prefix** (Algorithm 3): the slow path *starts* inside a small
//!   hardware transaction that covers as many initial reads as possible,
//!   deferring the clock read to the prefix's commit. Until then the HTM's
//!   own conflict detection replaces NOrec's per-read clock validation,
//!   shrinking the window in which a concurrent writer forces a slow-path
//!   restart. The prefix length adapts from abort feedback (§2.4); a
//!   transaction that fits entirely inside the prefix commits pure-HTM.
//!
//! Starvation of the slow path is handled by the §3.3 serial lock, which
//! writer fast paths subscribe to at commit.

use sim_htm::AbortCode;
use sim_mem::{Addr, Heap};

use crate::algorithms::common::{acquire_word_lock, release_word_lock, run_fast, xabort, FastPath};
use crate::clock_shard::ClockSnapshot;
use crate::cost;
use crate::error::{TxFault, TxResult, RESTART};
use crate::globals::Globals;
use crate::session::Session;
use crate::stats::TmThreadStats;
use crate::trace;
use crate::tx::{Tx, TxCtx, TxMem, TxOps};
use crate::{PrefixConfig, TxKind};

pub(crate) fn run<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    with_prefix: bool,
) -> Result<T, TxFault> {
    // The RH NOrec fast path (Algorithm 1): subscribe only to
    // `global_htm_lock`; the clock enters the tracking set only for the
    // handful of instructions before a writer's commit — the scalability
    // win over Hybrid NOrec.
    let fast = FastPath {
        lock: Some(t.rt.globals().global_htm_lock),
        clock_at_begin: false,
        begin_cycles: cost::HTM_BEGIN + cost::HTM_ACCESS,
        commit_clock_update: true,
    };
    if let Some(done) = run_fast(t, kind, body, fast) {
        return done;
    }
    mixed_slow_path(t, kind, body, with_prefix)
}

/// Which execution regime the mixed slow path is currently in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Inside the HTM prefix: reads run in hardware, uninstrumented.
    Prefix,
    /// Plain eager-NOrec reads with per-read clock validation.
    Software,
    /// Inside the HTM postfix: the write phase runs in hardware.
    Postfix,
    /// The postfix could not run: `global_htm_lock` is raised and writes go
    /// directly to memory (the Hybrid NOrec write phase).
    SoftwareWriter,
}

fn mixed_slow_path<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    with_prefix: bool,
) -> Result<T, TxFault> {
    let rt = t.rt.clone();
    let heap: &Heap = rt.heap();
    let globals = rt.globals_snapshot();
    let restart_limit = rt.config().retry.slow_path_restart_limit;
    let small_retries = rt.config().retry.small_htm_retries;
    let prefix_cfg = rt.config().prefix;

    t.stats.slow_path_entries += 1;
    let mut restarts: u32 = 0;
    let mut serial_held = false;
    let mut counted = false;
    // A small hardware transaction that dies for a deterministic reason
    // (capacity) — or keeps dying — is abandoned for the remainder of
    // this transaction: the paper's "reverts back to the Hybrid NOrec
    // full software slow-path counterpart".
    let mut allow_prefix = with_prefix;
    let mut allow_postfix = true;
    let mut prefix_deaths = 0u32;
    let mut postfix_deaths = 0u32;
    // Out-of-context snapshot slot (see `norec::Stm`): keeps the
    // cache-line-wide lane vector out of the `TxCtx` enum's moves.
    let mut snap_slot = ClockSnapshot::single(0);

    let value = loop {
        trace::begin(trace::Path::Mixed);
        if restarts > restart_limit && !serial_held {
            acquire_word_lock(heap, globals.serial_lock, &mut t.stats.cycles, &mut t.backoff);
            serial_held = true;
            t.stats.serial_lock_acquisitions += 1;
        }
        let mut ctx = RhCtx {
            heap,
            globals: &globals,
            mem: &mut t.mem,
            tid: t.tid,
            htm: &mut t.htm_thread,
            stats: &mut t.stats,
            backoff: &mut t.backoff,
            prefix_len: &mut t.prefix_len,
            prefix_cfg,
            small_retries,
            allow_postfix,
            interleave: rt.config().interleave_accesses,
            accesses: 0,
            mode: Mode::Software,
            snap: &mut snap_slot,
            counted,
            prefix_reads: 0,
            prefix_budget: 0,
            dead: false,
            died_in_prefix: false,
            died_in_postfix: false,
            death_may_retry: true,
            #[cfg(feature = "mutants")]
            mutant: rt.mutant_armed(crate::mutants::Mutant::PostfixClock),
            #[cfg(feature = "mutants")]
            no_htm_lock: rt.mutant_armed(crate::mutants::Mutant::RhWriterNoHtmLock),
        };
        ctx.start(allow_prefix);
        let mut tx = Tx::new(TxCtx::Rh(ctx), kind);
        let outcome = body(&mut tx);
        let (ctx, fault) = tx.into_parts();
        let TxCtx::Rh(mut ctx) = ctx else { unreachable!() };
        if let Some(fault) = fault {
            ctx.fault_teardown();
            counted = ctx.counted;
            trace::abort();
            t.mem.rollback(heap, t.tid);
            break Err(fault);
        }
        let committed = match outcome {
            Ok(value) => ctx.commit().map(|()| value),
            Err(_) => {
                debug_assert!(ctx.dead, "slow-path body restarted without cause");
                Err(RESTART)
            }
        };
        counted = ctx.counted;
        if ctx.died_in_prefix {
            prefix_deaths += 1;
            // Capacity deaths are handled by the adaptive controller
            // (each retry runs a shorter prefix); ban outright only when
            // the length cannot shrink, or as a last-resort bound.
            let can_shrink = prefix_cfg.adaptive && *ctx.prefix_len > prefix_cfg.min_reads;
            if (!ctx.death_may_retry && !can_shrink) || prefix_deaths >= 8 {
                allow_prefix = false;
            }
        }
        if ctx.died_in_postfix {
            postfix_deaths += 1;
            // The postfix has no length to adapt: a deterministic
            // (capacity) death means it can never succeed this
            // transaction.
            if !ctx.death_may_retry || postfix_deaths >= 4 {
                allow_postfix = false;
            }
        }
        match committed {
            Ok(value) => {
                trace::commit(trace::Path::Mixed);
                t.mem.commit(heap, t.tid);
                t.stats.slow_path_commits += 1;
                break Ok(value);
            }
            Err(_) => {
                trace::abort();
                t.mem.rollback(heap, t.tid);
                t.stats.slow_path_restarts += 1;
                restarts += 1;
            }
        }
    };
    debug_assert!(!counted, "fallback count leaked");
    if serial_held {
        t.stats.cycles += cost::GLOBAL_STORE;
        release_word_lock(heap, globals.serial_lock);
    }
    value
}

/// The mixed slow-path transaction context (Algorithms 2 and 3).
pub(crate) struct RhCtx<'a> {
    heap: &'a Heap,
    globals: &'a Globals,
    mem: &'a mut TxMem,
    tid: usize,
    htm: &'a mut sim_htm::HtmThread,
    stats: &'a mut TmThreadStats,
    backoff: &'a mut crate::txlog::Backoff,
    /// Adaptive expected prefix length, persisted on the thread.
    prefix_len: &'a mut u64,
    prefix_cfg: PrefixConfig,
    small_retries: u32,
    /// Postfix permitted this attempt (cleared after deterministic death).
    allow_postfix: bool,
    interleave: u32,
    accesses: u64,
    mode: Mode,
    /// The transaction's clock snapshot (locked/write-phase form after the
    /// first write), held by reference so the context stays cheap to move.
    snap: &'a mut ClockSnapshot,
    /// Whether this transaction currently holds a `num_of_fallbacks` unit.
    counted: bool,
    prefix_reads: u64,
    prefix_budget: u64,
    dead: bool,
    /// Death diagnostics for the retry loop's ban policy.
    died_in_prefix: bool,
    died_in_postfix: bool,
    death_may_retry: bool,
    /// Run the deliberately broken first-write protocol (mutation test).
    #[cfg(feature = "mutants")]
    mutant: bool,
    /// Armed `RhWriterNoHtmLock` corpus mutant: the software-writer
    /// fallback skips raising `global_htm_lock` (the planted bug).
    #[cfg(feature = "mutants")]
    no_htm_lock: bool,
}

impl RhCtx<'_> {
    /// Charges one transactional access and paces interleaving.
    #[inline]
    fn tick(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
        self.accesses += 1;
        if self.interleave != 0 && self.accesses.is_multiple_of(self.interleave as u64) {
            std::thread::yield_now();
        }
    }

    /// MIXED_SLOW_PATH_START: try the HTM prefix; otherwise the original
    /// (Algorithm 2) software start.
    fn start(&mut self, with_prefix: bool) {
        if with_prefix && *self.prefix_len > 0 && self.start_prefix() {
            return;
        }
        self.software_start();
    }

    fn software_start(&mut self) {
        if !self.counted {
            self.stats.cycles += cost::GLOBAL_RMW;
            self.heap.fetch_update(self.globals.num_of_fallbacks, |v| v + 1);
            self.counted = true;
        }
        let mut spin = cost::STM_START;
        self.globals
            .clock
            .begin_into(self.heap, &mut spin, self.backoff, self.snap);
        self.stats.cycles += spin;
        self.mode = Mode::Software;
    }

    /// START_RH_HTM_PREFIX (Algorithm 3 lines 9–26).
    fn start_prefix(&mut self) -> bool {
        for _ in 0..self.small_retries.max(1) {
            self.stats.prefix_attempts += 1;
            if self.htm.begin().is_err() {
                continue;
            }
            self.stats.cycles += cost::HTM_BEGIN + cost::HTM_ACCESS;
            // Subscribe to the HTM lock to preserve opacity against
            // software-writer slow paths.
            match self.htm.read(self.globals.global_htm_lock) {
                Ok(0) => {
                    self.mode = Mode::Prefix;
                    self.prefix_reads = 0;
                    self.prefix_budget = *self.prefix_len;
                    return true;
                }
                Ok(_) => {
                    let code = self.htm.abort(xabort::LOCK_HELD).code;
                    self.note_prefix_abort(code);
                }
                Err(e) => self.note_prefix_abort(e.code),
            }
        }
        false
    }

    fn note_prefix_abort(&mut self, code: AbortCode) {
        self.stats.cycles += cost::HTM_ABORT;
        match code {
            AbortCode::Conflict => self.stats.prefix_conflict_aborts += 1,
            AbortCode::Capacity { .. } => self.stats.prefix_capacity_aborts += 1,
            _ => {}
        }
        if self.prefix_cfg.adaptive {
            // Capacity means the length itself is wrong: shrink hard.
            // Conflicts and external events are transient: back off
            // gently, or repeated bad luck disables the prefix for good.
            *self.prefix_len = match code {
                AbortCode::Capacity { .. } => *self.prefix_len / 2,
                _ => self.prefix_len.saturating_sub(8),
            }
            .max(self.prefix_cfg.min_reads);
        }
    }

    fn note_prefix_commit(&mut self) {
        self.stats.prefix_commits += 1;
        if self.prefix_cfg.adaptive {
            *self.prefix_len = (*self.prefix_len + 8).min(self.prefix_cfg.max_reads);
        }
    }

    fn note_postfix_abort(&mut self, code: AbortCode) {
        self.stats.cycles += cost::HTM_ABORT;
        match code {
            AbortCode::Conflict => self.stats.postfix_conflict_aborts += 1,
            AbortCode::Capacity { .. } => self.stats.postfix_capacity_aborts += 1,
            _ => {}
        }
    }

    /// COMMIT_RH_HTM_PREFIX (Algorithm 3 lines 47–56): performed when the
    /// prefix budget runs out, at the first write, or never (a transaction
    /// that commits wholly inside the prefix).
    ///
    /// Transitions to `Software` mode on success; kills the attempt on
    /// failure.
    fn commit_prefix(&mut self) -> TxResult<()> {
        debug_assert_eq!(self.mode, Mode::Prefix);
        self.stats.cycles += 3 * cost::HTM_ACCESS + cost::HTM_COMMIT;
        // Transactionally announce the fallback and snapshot the clock: the
        // HTM validates both together with every prefix read.
        if !self.counted {
            let fb = match self.htm.read(self.globals.num_of_fallbacks) {
                Ok(v) => v,
                Err(e) => return self.prefix_died(e.code),
            };
            if let Err(e) = self.htm.write(self.globals.num_of_fallbacks, fb + 1) {
                return self.prefix_died(e.code);
            }
        }
        let tv = match self.globals.clock.htm_snapshot(self.htm) {
            Ok(snap) => snap,
            Err(code) => return self.prefix_died(code),
        };
        match self.htm.commit() {
            Ok(()) => {
                self.note_prefix_commit();
                self.counted = true;
                *self.snap = tv;
                self.mode = Mode::Software;
                Ok(())
            }
            Err(e) => self.prefix_died(e.code),
        }
    }

    fn prefix_died(&mut self, code: AbortCode) -> TxResult<()> {
        self.note_prefix_abort(code);
        self.died_in_prefix = true;
        self.death_may_retry = code.may_retry();
        self.dead = true;
        Err(RESTART)
    }

    /// HANDLE_FIRST_WRITE (Algorithm 2 lines 25–31): lock the clock, then
    /// open the HTM postfix; if it cannot start, raise the HTM lock and
    /// fall back to direct writes.
    fn handle_first_write(&mut self) -> TxResult<()> {
        debug_assert_eq!(self.mode, Mode::Software);
        debug_assert!(self.counted);
        self.stats.cycles += cost::GLOBAL_RMW;
        self.lock_clock()?;

        if self.allow_postfix {
            for _ in 0..self.small_retries.max(1) {
                self.stats.postfix_attempts += 1;
                if self.htm.begin().is_ok() {
                    self.stats.cycles += cost::HTM_BEGIN;
                    self.mode = Mode::Postfix;
                    return Ok(());
                }
            }
        }
        // Postfix refused: abort all fast paths and write in software.
        // Skipped when the `rh_writer_no_htm_lock` corpus mutant is armed:
        // fast paths subscribe *only* to this lock, so without the raise a
        // read-only hardware transaction can commit a mixed snapshot taken
        // across this writer's in-place stores.
        self.stats.cycles += cost::GLOBAL_STORE;
        if !self.htm_lock_elided() {
            self.heap.store(self.globals.global_htm_lock, 1);
        }
        self.mode = Mode::SoftwareWriter;
        Ok(())
    }

    /// True when the `RhWriterNoHtmLock` corpus mutant is armed.
    #[inline]
    fn htm_lock_elided(&self) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.no_htm_lock
        }
        #[cfg(not(feature = "mutants"))]
        {
            false
        }
    }

    /// Locks the clock's write phase from our start snapshot, so the lock
    /// doubles as the final conflict check — it fails iff anyone committed
    /// a write since we last validated.
    fn lock_clock(&mut self) -> TxResult<()> {
        #[cfg(feature = "mutants")]
        if self.mutant {
            // MUTANT (opacity-checker mutation test): re-read the clock at
            // the start of the write phase and lock whatever it holds now,
            // instead of entering from the deferred, per-read-validated
            // snapshot. Reads taken before an intervening commit survive
            // into the write phase — a lost update the checker must flag.
            if !self
                .globals
                .clock
                .force_enter_write_phase(self.heap, self.snap)
            {
                self.dead = true;
                return Err(RESTART);
            }
            return Ok(());
        }
        if !self
            .globals
            .clock
            .try_enter_write_phase(self.heap, self.snap)
        {
            self.backoff.note_lane_cas_failure();
            self.dead = true;
            return Err(RESTART);
        }
        Ok(())
    }

    /// Postfix death: discard speculation, close the write phase at its
    /// pre-lock version (nothing was published), kill the attempt.
    fn postfix_died(&mut self, code: AbortCode) -> TxResult<()> {
        self.note_postfix_abort(code);
        self.died_in_postfix = true;
        self.death_may_retry = code.may_retry();
        self.stats.cycles += cost::GLOBAL_STORE;
        self.globals
            .clock
            .release_without_publish(self.heap, self.snap);
        self.dead = true;
        Err(RESTART)
    }

    /// Tears the attempt down after a programming fault. A fault can only
    /// fire from a read-only body's first write, so the write phase was
    /// never entered: the clock is not locked, `global_htm_lock` was never
    /// raised by this transaction, and the only state to undo is a live
    /// prefix speculation and the fallback announcement.
    fn fault_teardown(&mut self) {
        debug_assert!(
            matches!(self.mode, Mode::Prefix | Mode::Software),
            "write phase entered by a read-only transaction"
        );
        if self.mode == Mode::Prefix && !self.dead {
            self.stats.cycles += cost::HTM_ABORT;
            self.htm.abort(xabort::FAULT);
        }
        if self.counted {
            self.stats.cycles += cost::GLOBAL_RMW;
            self.heap.fetch_update(self.globals.num_of_fallbacks, |v| v - 1);
            self.counted = false;
        }
    }

    /// MIXED_SLOW_PATH_COMMIT (Algorithms 2 and 3).
    fn commit(&mut self) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        match self.mode {
            Mode::Prefix => {
                // The whole transaction fit in the prefix.
                self.stats.cycles += cost::HTM_COMMIT;
                match self.htm.commit() {
                    Ok(()) => {
                        self.note_prefix_commit();
                        if self.counted {
                            self.stats.cycles += cost::GLOBAL_RMW;
                            self.heap.fetch_update(self.globals.num_of_fallbacks, |v| v - 1);
                            self.counted = false;
                        }
                        Ok(())
                    }
                    Err(e) => self.prefix_died(e.code),
                }
            }
            Mode::Software => {
                // Read-only (no write was encountered).
                if self.counted {
                    self.stats.cycles += cost::GLOBAL_RMW;
                    self.heap.fetch_update(self.globals.num_of_fallbacks, |v| v - 1);
                    self.counted = false;
                }
                Ok(())
            }
            Mode::Postfix => {
                // Sharded lanes bump *inside* the hardware transaction, so
                // the version advance commits atomically with the buffered
                // writes (single clock: a no-op — its bump follows commit).
                if let Err(code) = self.globals.clock.htm_postfix_bump(self.htm, self.tid, self.snap) {
                    return self.postfix_died(code);
                }
                match self.htm.commit() {
                    Ok(()) => {
                        self.stats.cycles +=
                            cost::HTM_COMMIT + cost::GLOBAL_STORE + cost::GLOBAL_RMW;
                        self.stats.postfix_commits += 1;
                        self.globals
                            .clock
                            .finish_postfix_publish(self.heap, self.snap);
                        self.heap.fetch_update(self.globals.num_of_fallbacks, |v| v - 1);
                        self.counted = false;
                        Ok(())
                    }
                    Err(e) => self.postfix_died(e.code),
                }
            }
            Mode::SoftwareWriter => {
                self.stats.cycles += 2 * cost::GLOBAL_STORE + cost::GLOBAL_RMW;
                self.heap.store(self.globals.global_htm_lock, 0);
                self.globals.clock.publish(self.heap, self.snap, self.tid);
                self.heap.fetch_update(self.globals.num_of_fallbacks, |v| v - 1);
                self.counted = false;
                Ok(())
            }
        }
    }
}

impl TxOps for RhCtx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        if self.dead {
            return Err(RESTART);
        }
        if self.mode == Mode::Prefix {
            self.prefix_reads += 1;
            if self.prefix_reads <= self.prefix_budget {
                self.tick(cost::HTM_ACCESS);
                return match self.htm.read(addr) {
                    Ok(v) => Ok(v),
                    Err(e) => self.prefix_died(e.code).map(|()| 0),
                };
            }
            // Budget exhausted: close the prefix and continue in software.
            self.commit_prefix()?;
        }
        match self.mode {
            Mode::Software => {
                self.tick(cost::NOREC_READ);
                self.stats.cycles += self.globals.clock.validate_cost(self.snap);
                let value = self.heap.load(addr);
                if !self.globals.clock.is_valid(self.heap, self.snap) {
                    self.dead = true;
                    return Err(RESTART);
                }
                Ok(value)
            }
            Mode::Postfix => {
                self.tick(cost::HTM_ACCESS);
                match self.htm.read(addr) {
                    Ok(v) => Ok(v),
                    Err(e) => self.postfix_died(e.code).map(|()| 0),
                }
            }
            Mode::SoftwareWriter => {
                self.tick(cost::NOREC_READ);
                Ok(self.heap.load(addr))
            }
            Mode::Prefix => unreachable!("prefix handled above"),
        }
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        if self.mode == Mode::Prefix {
            // First write ends the prefix (Algorithm 3 lines 40–45).
            self.commit_prefix()?;
        }
        if self.mode == Mode::Software {
            self.handle_first_write()?;
        }
        match self.mode {
            Mode::Postfix => {
                self.tick(cost::HTM_ACCESS);
                match self.htm.write(addr, value) {
                    Ok(()) => Ok(()),
                    Err(e) => self.postfix_died(e.code),
                }
            }
            Mode::SoftwareWriter => {
                self.tick(cost::NOREC_WRITE);
                self.heap.store(addr, value);
                Ok(())
            }
            Mode::Prefix | Mode::Software => unreachable!("write phase established above"),
        }
    }

    fn alloc(&mut self, words: u64) -> TxResult<Addr> {
        if self.dead {
            return Err(RESTART);
        }
        self.stats.cycles += cost::ALLOC;
        Ok(self.mem.alloc(self.heap, self.tid, words))
    }

    fn free(&mut self, addr: Addr) -> TxResult<()> {
        if self.dead {
            return Err(RESTART);
        }
        self.stats.cycles += cost::FREE;
        self.mem.free(addr);
        Ok(())
    }
}
