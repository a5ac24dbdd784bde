//! Lock Elision (§3.1): pure hardware transactions with a single global
//! lock fallback.
//!
//! Every transaction first runs as an uninstrumented hardware transaction
//! that *subscribes* to the global lock (reads it at start and aborts if
//! held, putting it in the HTM tracking set). If the hardware repeatedly
//! fails, the transaction acquires the lock — which, via the subscription,
//! aborts every in-flight hardware transaction — and runs directly,
//! serializing the system. Progress is guaranteed; scalability collapses
//! as soon as fallbacks are frequent, which is the behaviour the paper's
//! figures show above 8 threads.

use crate::algorithms::common::{
    acquire_word_lock, release_word_lock, run_fast, DirectCtx, FastPath, Meter,
};
use crate::cost;
use crate::error::{TxFault, TxResult};
use crate::session::Session;
use crate::trace;
use crate::tx::{Tx, TxCtx};
use crate::TxKind;

pub(crate) fn run<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> Result<T, TxFault> {
    #[cfg(feature = "mutants")]
    let subscribe = !t.rt.mutant_armed(crate::mutants::Mutant::ElisionNoSubscription);
    #[cfg(not(feature = "mutants"))]
    let subscribe = true;
    let fast = FastPath {
        // Subscribe to the global lock. Dropped when the
        // `elision_no_subscription` corpus mutant is armed: without the
        // lock in the tracking set, a serial-fallback writer's in-place
        // stores no longer abort the speculation at its start, and the
        // commit can land mid-serial-section on a mixed snapshot.
        lock: subscribe.then_some(t.rt.globals().serial_lock),
        clock_at_begin: false,
        begin_cycles: cost::HTM_BEGIN + cost::HTM_ACCESS,
        commit_clock_update: false,
    };
    if let Some(done) = run_fast(t, kind, body, fast) {
        return done;
    }

    // Lock fallback: serialize.
    t.stats.slow_path_entries += 1;
    let rt = t.rt.clone();
    let heap = rt.heap();
    let lock = rt.globals().serial_lock;
    trace::begin(trace::Path::Serial);
    acquire_word_lock(heap, lock, &mut t.stats.cycles, &mut t.backoff);
    let ctx = DirectCtx {
        heap,
        mem: &mut t.mem,
        tid: t.tid,
        meter: Meter::new(rt.config().interleave_accesses),
    };
    let mut tx = Tx::new(TxCtx::Direct(ctx), kind);
    let outcome = body(&mut tx);
    let (ctx, fault) = tx.into_parts();
    let TxCtx::Direct(ctx) = ctx else { unreachable!() };
    t.stats.cycles += ctx.meter.cycles + cost::GLOBAL_STORE;
    if let Some(fault) = fault {
        // A fault fires on the first write of a read-only body, so this
        // serial section stored nothing: releasing the lock and undoing
        // any allocations leaves the heap untouched.
        release_word_lock(heap, lock);
        trace::abort();
        t.mem.rollback(heap, t.tid);
        return Err(fault);
    }
    let value = outcome.unwrap_or_else(|_| unreachable!("direct execution cannot restart"));
    // The release is the publication point to hardware transactions (they
    // subscribe to the lock); no yield point before the commit record.
    release_word_lock(heap, lock);
    trace::commit(trace::Path::Serial);
    t.mem.commit(heap, t.tid);
    t.stats.serial_commits += 1;
    Ok(value)
}
