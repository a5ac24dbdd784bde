//! The one execution handle: a [`Session`] per worker.
//!
//! [`TmRuntime::open_session`] hands out the lowest free thread id and the
//! session returns it when dropped, so no `tid` threads through
//! application code. Transactions run through [`Session::run`] /
//! [`Session::run_read`] (faults as typed values) or the panicking
//! [`Session::execute`] for bodies known to be fault-free. Open one per OS
//! (or virtual) thread — the handle is deliberately not `Sync`.
//!
//! ```rust
//! use std::sync::Arc;
//! use rh_norec::prelude::*;
//! use sim_htm::{Htm, HtmConfig};
//! use sim_mem::{Heap, HeapConfig};
//!
//! let heap = Arc::new(Heap::new(HeapConfig::default()));
//! let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
//! let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(Algorithm::RhNorec))?;
//! let counter = heap.allocator().alloc(0, 1)?;
//!
//! let mut session = rt.open_session()?;
//! let old = session.run(|tx| {
//!     let v = tx.read(counter)?;
//!     tx.write(counter, v + 1)?;
//!     Ok(v)
//! })?;
//! assert_eq!(old, 0);
//! drop(session); // slot is free again
//! let _reopened = rt.open_session()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::sync::Arc;

use sim_htm::HtmThread;

use crate::algorithms;
use crate::error::{TxFault, TxResult};
use crate::policy::SlotSample;
use crate::runtime::TmRuntime;
use crate::stats::{ThreadReport, TmThreadStats};
use crate::tx::{Tx, TxMem};
use crate::txlog::{Backoff, TxLogs};
use crate::{Algorithm, TxKind};

/// A worker's handle for executing transactions, registered on one
/// simulated hardware thread.
///
/// Obtain one with [`TmRuntime::open_session`]. The session owns the
/// thread's [`HtmThread`], statistics, transactional memory log,
/// recycled slow-path logs, backoff state and adaptive HTM-prefix length;
/// dropping it frees the thread id. Its id fixes the home clock lane and
/// the seeds of its backoff and HTM randomness, so callers that need
/// worker *i* on id *i* open sessions in order before handing them out.
///
/// # Examples
///
/// ```rust
/// use std::sync::Arc;
/// use sim_mem::{Heap, HeapConfig};
/// use sim_htm::{Htm, HtmConfig};
/// use rh_norec::{Algorithm, TmConfig, TmRuntime, TxKind};
///
/// let heap = Arc::new(Heap::new(HeapConfig::default()));
/// let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
/// let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(Algorithm::RhNorec))?;
/// let counter = heap.allocator().alloc(0, 1)?;
///
/// let mut session = rt.open_session()?;
/// for _ in 0..10 {
///     session.execute(TxKind::ReadWrite, |tx| {
///         let v = tx.read(counter)?;
///         tx.write(counter, v + 1)
///     });
/// }
/// assert_eq!(heap.load(counter), 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session {
    pub(crate) rt: Arc<TmRuntime>,
    pub(crate) htm_thread: HtmThread,
    pub(crate) tid: usize,
    pub(crate) stats: TmThreadStats,
    pub(crate) mem: TxMem,
    /// Recycled slow-path log arenas (read log, write-set, TL2 logs).
    pub(crate) logs: TxLogs,
    /// Seeded contention backoff for this thread's spin sites.
    pub(crate) backoff: Backoff,
    /// Adaptive expected HTM-prefix length (reads), per §2.4.
    pub(crate) prefix_len: u64,
    /// Commits since the session opened (policy epoch cadence;
    /// deliberately not reset by [`reset_stats`](Self::reset_stats) so
    /// the tick rhythm survives benchmark warmup resets).
    policy_commits: u64,
    /// Last controller epoch this session blended its prefix length on.
    policy_epoch_seen: u64,
}

impl Session {
    pub(crate) fn new(rt: &Arc<TmRuntime>, htm_thread: HtmThread, tid: usize) -> Session {
        #[allow(unused_mut)]
        let mut logs = TxLogs::default();
        #[cfg(feature = "mutants")]
        logs.set_bloom_sabotage(rt.mutant_armed(crate::mutants::Mutant::BloomFalseNegative));
        Session {
            htm_thread,
            rt: Arc::clone(rt),
            tid,
            stats: TmThreadStats::default(),
            mem: TxMem::default(),
            logs,
            backoff: Backoff::new(&rt.config().backoff, tid),
            prefix_len: rt.config().prefix.initial_reads,
            policy_commits: 0,
            policy_epoch_seen: 0,
        }
    }

    /// Runs `body` as one read-write transaction, surfacing programming
    /// faults as typed values.
    ///
    /// The engine retries the body transparently until it commits: the
    /// body must be safe to re-execute (no side effects other than
    /// through the [`Tx`] handle) and must propagate every `Err` from
    /// `Tx` operations.
    ///
    /// # Errors
    ///
    /// Returns the [`TxFault`] the body tripped. The attempt has been
    /// torn down cleanly: speculative state is discarded, protocol locks
    /// are released, fallback announcements are withdrawn, no commit is
    /// counted, and the heap is as if the transaction never ran.
    #[inline]
    pub fn run<T>(&mut self, body: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> Result<T, TxFault> {
        self.exec(TxKind::ReadWrite, body)
    }

    /// Runs `body` as one transaction statically declared read-only
    /// (engines skip the commit-time clock update; a write inside the
    /// body is refused as [`TxFault::WriteInReadOnly`]).
    ///
    /// # Errors
    ///
    /// Returns the [`TxFault`] the body tripped.
    #[inline]
    pub fn run_read<T>(
        &mut self,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TxFault> {
        self.exec(TxKind::ReadOnly, body)
    }

    /// Runs `body` as one atomic transaction of the given kind and
    /// returns its result, for bodies known not to fault.
    ///
    /// `kind` is the static read-only hint (the stand-in for GCC's static
    /// analysis); see [`Tx::write`] for the contract it enforces.
    ///
    /// # Panics
    ///
    /// Panics if the body trips a [`TxFault`] — e.g. writing inside a
    /// transaction declared read-only. Use [`run`](Session::run) /
    /// [`run_read`](Session::run_read) to handle faults as values.
    #[inline]
    pub fn execute<T>(&mut self, kind: TxKind, body: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        self.exec(kind, body)
            .unwrap_or_else(|fault| panic!("transaction fault: {fault}"))
    }

    fn exec<T>(
        &mut self,
        kind: TxKind,
        mut body: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> Result<T, TxFault> {
        let value = match self.rt.config().algorithm {
            Algorithm::LockElision => algorithms::lock_elision::run(self, kind, &mut body),
            Algorithm::Norec => algorithms::norec::run(self, kind, &mut body, false),
            Algorithm::NorecLazy => algorithms::norec::run(self, kind, &mut body, true),
            Algorithm::Tl2 => algorithms::tl2::run(self, kind, &mut body),
            Algorithm::HybridNorec => algorithms::hybrid_norec::run(self, kind, &mut body, false),
            Algorithm::HybridNorecLazy => algorithms::hybrid_norec::run(self, kind, &mut body, true),
            Algorithm::RhNorec => algorithms::rh_norec::run(self, kind, &mut body, true),
            Algorithm::RhNorecPostfixOnly => algorithms::rh_norec::run(self, kind, &mut body, false),
        }?;
        self.stats.commits += 1;
        if self.rt.policy().is_some() {
            self.policy_after_commit();
        }
        Ok(value)
    }

    /// Post-commit policy work: refresh this thread's telemetry slot
    /// (relaxed stores into its own padded line), offer a controller tick
    /// at the epoch cadence, and pick up published knobs. Never runs when
    /// the policy layer is off.
    fn policy_after_commit(&mut self) {
        let rt = Arc::clone(&self.rt);
        let Some(shared) = rt.policy() else { return };
        let cfg = rt.config();
        self.policy_commits += 1;
        shared.record(
            self.tid,
            SlotSample {
                commits: self.policy_commits,
                hw_commits: self.stats.fast_path_commits + self.stats.postfix_commits,
                conflict_aborts: self.stats.htm_conflict_aborts() + self.stats.slow_path_restarts,
                fallbacks: self.stats.slow_path_entries,
                backoff_spins: self.backoff.spins_waited(),
                lane_cas_failures: self.backoff.lane_cas_failures(),
                prefix_attempts: self.stats.prefix_attempts,
                prefix_commits: self.stats.prefix_commits,
            },
        );
        if self.policy_commits.is_multiple_of(cfg.policy.epoch_commits) {
            #[cfg(feature = "mutants")]
            let unfenced = rt.mutant_armed(crate::mutants::Mutant::PolicyStaleEpoch);
            #[cfg(not(feature = "mutants"))]
            let unfenced = false;
            shared.maybe_tick(rt.heap(), &rt.globals().clock, cfg, unfenced);
        }
        if cfg.policy.adapt_backoff {
            self.backoff.set_max_spins(shared.backoff_cap());
        }
        let epoch = shared.epoch();
        if epoch != self.policy_epoch_seen {
            if cfg.policy.adapt_prefix && cfg.prefix.adaptive {
                // Blend toward the controller's target rather than jump:
                // the §2.4 per-attempt reflex keeps working between
                // epochs; this is its slow timescale.
                let target = shared.prefix_target();
                self.prefix_len = ((self.prefix_len + target) / 2)
                    .clamp(cfg.prefix.min_reads.max(1), cfg.prefix.max_reads);
            }
            self.policy_epoch_seen = epoch;
        }
    }

    /// The thread id this session registered (diagnostics; application
    /// code never needs it).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The runtime this session belongs to.
    #[inline]
    pub fn runtime(&self) -> &Arc<TmRuntime> {
        &self.rt
    }

    /// Engine-level statistics for this session's worker.
    #[inline]
    pub fn stats(&self) -> TmThreadStats {
        self.stats
    }

    /// Combined engine + raw HTM statistics.
    pub fn report(&self) -> ThreadReport {
        ThreadReport {
            tm: self.stats,
            htm: self.htm_thread.stats(),
        }
    }

    /// Resets both engine and HTM statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TmThreadStats::default();
        self.htm_thread.reset_stats();
    }

    /// Current adaptive HTM-prefix length (reads), for diagnostics.
    #[inline]
    pub fn prefix_len(&self) -> u64 {
        self.prefix_len
    }

    /// Controller epochs completed by the adaptive policy layer
    /// (0 when the layer is off), for diagnostics.
    pub fn policy_epoch(&self) -> u64 {
        self.rt.policy().map_or(0, |p| p.epoch())
    }

    /// The commit clock's current active-lane count (equals
    /// `clock_shards` whenever lane adaptation is off), for diagnostics.
    pub fn active_clock_lanes(&self) -> u32 {
        self.rt.globals().clock.active_lanes(self.rt.heap())
    }

    /// Reallocations of this session's recycled slow-path log arenas
    /// since it opened, for diagnostics.
    ///
    /// The arenas (lazy NOrec read log and write-set, TL2 read-set, undo
    /// log and owned-stripe table) are cleared but never freed between
    /// attempts, so in steady state this counter stops moving: a retry
    /// loop performs no heap allocation. Tests pin that invariant here.
    #[inline]
    pub fn log_grow_events(&self) -> u64 {
        self.logs.grow_events()
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("tid", &self.tid)
            .field("algorithm", &self.rt.config().algorithm)
            .field("stats", &self.stats)
            .field("prefix_len", &self.prefix_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TmError;
    use crate::TmConfig;
    use sim_htm::{Htm, HtmConfig};
    use sim_mem::{Heap, HeapConfig};

    fn runtime(algorithm: Algorithm) -> (Arc<Heap>, Arc<TmRuntime>) {
        let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 20 }));
        let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
        let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(algorithm))
            .expect("runtime construction cannot fail");
        (heap, rt)
    }

    #[test]
    fn sessions_assign_lowest_free_tids_and_recycle_on_drop() {
        let (_heap, rt) = runtime(Algorithm::RhNorec);
        let s0 = rt.open_session().unwrap();
        let s1 = rt.open_session().unwrap();
        let s2 = rt.open_session().unwrap();
        assert_eq!((s0.tid(), s1.tid(), s2.tid()), (0, 1, 2));
        drop(s1);
        let s1_again = rt.open_session().unwrap();
        assert_eq!(s1_again.tid(), 1, "dropped slot is reused first");
        drop(s0);
        drop(s2);
        assert_eq!(rt.open_session().unwrap().tid(), 0);
    }

    #[test]
    fn sessions_skip_ids_held_on_the_device() {
        let (_heap, rt) = runtime(Algorithm::Norec);
        let raw = rt.htm().register(0);
        let session = rt.open_session().unwrap();
        assert_eq!(session.tid(), 1, "session skips an id the device already holds");
        drop(raw);
        let next = rt.open_session().unwrap();
        assert_eq!(next.tid(), 0);
    }

    #[test]
    fn run_commits_and_counts() {
        let (heap, rt) = runtime(Algorithm::RhNorec);
        let cell = heap.allocator().alloc(0, 1).unwrap();
        let mut session = rt.open_session().unwrap();
        for i in 0..10u64 {
            let prev = session
                .run(|tx| {
                    let v = tx.read(cell)?;
                    tx.write(cell, v + 1)?;
                    Ok(v)
                })
                .unwrap();
            assert_eq!(prev, i);
        }
        assert_eq!(heap.load(cell), 10);
        assert_eq!(session.stats().commits, 10);
    }

    #[test]
    fn run_read_refuses_writes_as_typed_fault() {
        let (heap, rt) = runtime(Algorithm::Norec);
        let cell = heap.allocator().alloc(0, 1).unwrap();
        heap.store(cell, 7);
        let mut session = rt.open_session().unwrap();
        let read = session.run_read(|tx| tx.read(cell)).unwrap();
        assert_eq!(read, 7);
        let fault = session.run_read(|tx| tx.write(cell, 1)).unwrap_err();
        assert_eq!(fault, TxFault::WriteInReadOnly);
        assert_eq!(heap.load(cell), 7, "faulted attempt left the heap untouched");
        let after = session.run(|tx| tx.write(cell, 8));
        assert!(after.is_ok(), "session survives a faulted attempt");
    }

    #[test]
    fn exhausting_the_machine_is_a_typed_error() {
        let (_heap, rt) = runtime(Algorithm::Norec);
        let mut held = Vec::new();
        for _ in 0..sim_mem::MAX_THREADS {
            held.push(rt.open_session().unwrap());
        }
        match rt.open_session() {
            Err(TmError::ThreadIdOutOfRange { max, .. }) => {
                assert_eq!(max, sim_mem::MAX_THREADS)
            }
            other => panic!("expected exhaustion error, got {other:?}"),
        }
        held.pop();
        assert!(rt.open_session().is_ok());
    }
}
