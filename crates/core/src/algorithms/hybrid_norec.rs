//! Hybrid NOrec of Dalessandro et al. (§2.1, §3.1) — the state-of-the-art
//! baseline the paper improves on.
//!
//! * **Fast path**: an uninstrumented hardware transaction that subscribes
//!   to `global_htm_lock` *and to the global clock at its start*. The early
//!   clock subscription is the scalability bottleneck: every slow-path
//!   writer's clock update aborts every running fast path, related data or
//!   not (the "false aborts" of Figure 1).
//! * **Slow path**: the eager NOrec STM, raising `global_htm_lock` at its
//!   first write so the direct in-place writes can never be half-seen by a
//!   fast path.
//! * Fast-path commits increment the clock only when `num_of_fallbacks`
//!   says a slow path is running, and abort if the §3.3 serial lock is
//!   held.

use std::sync::Arc;

use crate::algorithms::common::{acquire_word_lock, release_word_lock, run_fast, FastPath};
use crate::algorithms::norec::Stm;
use crate::cost;
use crate::error::{TxFault, TxResult};
use crate::session::Session;
use crate::tx::Tx;
use crate::TxKind;

pub(crate) fn run<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    lazy: bool,
) -> Result<T, TxFault> {
    let fast = FastPath {
        lock: Some(t.rt.globals().global_htm_lock),
        clock_at_begin: true,
        begin_cycles: cost::HTM_BEGIN + 2 * cost::HTM_ACCESS,
        commit_clock_update: true,
    };
    if let Some(done) = run_fast(t, kind, body, fast) {
        return done;
    }
    slow_path(t, kind, body, lazy)
}

/// The software slow path: NOrec's own attempts (eager, or the lazy
/// §3.1 ablation that raises the HTM lock only around its commit
/// write-back) with `set_htm_lock`, inside the fallback announcement
/// fast-path writers watch, escalating to the serial lock after
/// `slow_path_restart_limit` restarts.
fn slow_path<T>(
    t: &mut Session,
    kind: TxKind,
    body: &mut dyn FnMut(&mut Tx<'_>) -> TxResult<T>,
    lazy: bool,
) -> Result<T, TxFault> {
    let rt = Arc::clone(&t.rt);
    let heap = rt.heap();
    let mut stm = Stm::new(&rt, lazy, true);
    let g = rt.globals();
    let restart_limit = rt.config().retry.slow_path_restart_limit;

    t.stats.slow_path_entries += 1;
    t.stats.cycles += cost::GLOBAL_RMW;
    heap.fetch_update(g.num_of_fallbacks, |v| v + 1);
    let mut restarts: u32 = 0;
    let mut serial_held = false;
    let value = loop {
        if restarts > restart_limit && !serial_held {
            acquire_word_lock(heap, g.serial_lock, &mut t.stats.cycles, &mut t.backoff);
            serial_held = true;
            t.stats.serial_lock_acquisitions += 1;
        }
        match stm.attempt(t, kind, body) {
            Some(done) => break done,
            None => restarts += 1,
        }
    };
    // Shared exit for commits and faults: withdraw the fallback
    // announcement and release the serial lock if escalation reached it.
    t.stats.cycles += cost::GLOBAL_RMW;
    heap.fetch_update(g.num_of_fallbacks, |v| v - 1);
    if serial_held {
        t.stats.cycles += cost::GLOBAL_STORE;
        release_word_lock(heap, g.serial_lock);
    }
    value
}
