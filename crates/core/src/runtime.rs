//! The TM runtime: the shared state every [`Session`] executes against.

use std::fmt;
use std::sync::Arc;

use sim_htm::Htm;
use sim_mem::Heap;

use crate::algorithms::tl2::Tl2Meta;
use crate::clock_shard::LaneController;
use crate::error::TmError;
use crate::globals::Globals;
use crate::session::Session;
use crate::TmConfig;

/// Shared state of one TM instance: the algorithm configuration, the
/// protocol's global variables, and algorithm-specific metadata (the TL2
/// stripe-lock table).
///
/// Create one runtime per heap+HTM pair, then
/// [`open_session`](TmRuntime::open_session) once per worker.
pub struct TmRuntime {
    heap: Arc<Heap>,
    htm: Arc<Htm>,
    config: TmConfig,
    globals: Globals,
    tl2: Tl2Meta,
    /// The active-lane controller (DESIGN.md §14); `None` unless
    /// [`crate::PolicyConfig::enabled`] on a sharded clock — anywhere
    /// else it is one never-taken branch per commit.
    lane_controller: Option<LaneController>,
    /// Armed corpus mutants, one bit per [`crate::mutants::Mutant`].
    #[cfg(feature = "mutants")]
    mutant_mask: std::sync::atomic::AtomicU32,
}

impl TmRuntime {
    /// Creates a runtime over `heap` and `htm`.
    ///
    /// Allocates the protocol's global variables from the heap.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::HeapMismatch`] if `htm` is not attached to
    /// `heap`.
    pub fn new(heap: Arc<Heap>, htm: Arc<Htm>, config: TmConfig) -> Result<Arc<Self>, TmError> {
        if !Arc::ptr_eq(htm.heap(), &heap) {
            return Err(TmError::HeapMismatch);
        }
        let lane_control = config.policy.enabled && config.clock_shards > 1;
        let globals = Globals::allocate(&heap, config.clock_shards, lane_control);
        let lane_controller = lane_control.then(LaneController::new);
        Ok(Arc::new(TmRuntime {
            heap,
            htm,
            config,
            globals,
            tl2: Tl2Meta::new(),
            lane_controller,
            #[cfg(feature = "mutants")]
            mutant_mask: std::sync::atomic::AtomicU32::new(0),
        }))
    }

    /// Arms or disarms one planted protocol bug from the mutation corpus
    /// (see [`crate::mutants`]). Off by default even when the feature is
    /// compiled in; arming is per-runtime, so a clean engine in the same
    /// process stays untouched.
    ///
    /// [`crate::mutants::Mutant::BloomFalseNegative`] is sampled once per
    /// session at [`open_session`](Self::open_session); arm it before
    /// opening sessions. Every other mutant takes effect on the next attempt.
    #[cfg(feature = "mutants")]
    pub fn set_mutant(&self, mutant: crate::mutants::Mutant, on: bool) {
        use std::sync::atomic::Ordering;
        if on {
            self.mutant_mask.fetch_or(mutant.bit(), Ordering::Relaxed);
        } else {
            self.mutant_mask.fetch_and(!mutant.bit(), Ordering::Relaxed);
        }
    }

    /// Whether `mutant` is currently armed on this runtime.
    ///
    /// Public so out-of-crate hooks (the KV tier's transfer-path mutant)
    /// can consult the same per-runtime arming mask the in-crate
    /// protocol hooks use.
    #[cfg(feature = "mutants")]
    pub fn mutant_armed(&self, mutant: crate::mutants::Mutant) -> bool {
        self.mutant_mask.load(std::sync::atomic::Ordering::Relaxed) & mutant.bit() != 0
    }

    /// The globals as the software paths should see them this attempt:
    /// a copy with any armed clock mutations patched in.
    pub(crate) fn globals_snapshot(&self) -> Globals {
        #[allow(unused_mut)]
        let mut globals = self.globals;
        #[cfg(feature = "mutants")]
        globals
            .clock
            .set_stale_lane(self.mutant_armed(crate::mutants::Mutant::StaleLane));
        globals
    }

    /// The heap transactions operate on.
    #[inline]
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// The HTM device.
    #[inline]
    pub fn htm(&self) -> &Arc<Htm> {
        &self.htm
    }

    /// The runtime configuration.
    #[inline]
    pub fn config(&self) -> &TmConfig {
        &self.config
    }

    /// Heap addresses of the protocol's global variables (exposed for
    /// white-box tests and diagnostics).
    #[inline]
    pub fn globals(&self) -> &Globals {
        &self.globals
    }

    pub(crate) fn tl2(&self) -> &Tl2Meta {
        &self.tl2
    }

    /// Opens a [`Session`] on the lowest free thread id of the simulated
    /// machine; dropping the session frees the id again.
    ///
    /// # Errors
    ///
    /// Returns [`TmError::ThreadIdOutOfRange`] when every thread slot of
    /// the simulated machine is taken (the error carries the capacity).
    pub fn open_session(self: &Arc<Self>) -> Result<Session, TmError> {
        let max = sim_mem::MAX_THREADS;
        (0..max)
            .find_map(|tid| {
                let htm_thread = self.htm.try_register(tid).ok()?;
                Some(Session::new(self, htm_thread, tid))
            })
            .ok_or(TmError::ThreadIdOutOfRange { tid: max, max })
    }

    /// The active-lane controller, when it is enabled on a sharded clock.
    #[inline]
    pub(crate) fn lane_controller(&self) -> Option<&LaneController> {
        self.lane_controller.as_ref()
    }
}

impl fmt::Debug for TmRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmRuntime")
            .field("config", &self.config)
            .field("globals", &self.globals)
            .finish_non_exhaustive()
    }
}
