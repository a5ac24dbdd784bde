//! # rh-norec: Reduced Hardware NOrec and its baselines
//!
//! A faithful reproduction of the TM algorithms evaluated in *Reduced
//! Hardware NOrec: A Safe and Scalable Hybrid Transactional Memory*
//! (Matveev & Shavit, ASPLOS 2015), over the [`sim_htm`] simulated
//! best-effort HTM and the [`sim_mem`] shared heap:
//!
//! * [`Algorithm::LockElision`] — HTM + global-lock fallback,
//! * [`Algorithm::Norec`] / [`Algorithm::NorecLazy`] — the NOrec STM,
//! * [`Algorithm::Tl2`] — the TL2 STM,
//! * [`Algorithm::HybridNorec`] — Hybrid NOrec (Dalessandro et al.),
//! * [`Algorithm::RhNorec`] — the paper's contribution, with its adaptive
//!   HTM prefix and HTM postfix (plus a postfix-only ablation).
//!
//! All algorithms present one interface: build a [`TmRuntime`], open a
//! [`Session`] per worker with [`TmRuntime::open_session`], and run
//! closures with [`Session::run`]. Every algorithm provides opacity and
//! privatization — the same semantics as pure hardware transactions —
//! which is the point of the paper.
//!
//! ## Example
//!
//! ```rust
//! use std::sync::Arc;
//! use sim_mem::{Heap, HeapConfig};
//! use sim_htm::{Htm, HtmConfig};
//! use rh_norec::{Algorithm, TmConfig, TmRuntime};
//!
//! let heap = Arc::new(Heap::new(HeapConfig::default()));
//! let htm = Htm::new(Arc::clone(&heap), HtmConfig::default());
//! let rt = TmRuntime::new(Arc::clone(&heap), htm, TmConfig::new(Algorithm::RhNorec))?;
//!
//! let account = heap.allocator().alloc(0, 1)?;
//! let mut worker = rt.open_session()?;
//! let old = worker.run(|tx| {
//!     let v = tx.read(account)?;
//!     tx.write(account, v + 100)?;
//!     Ok(v)
//! })?;
//! assert_eq!(old, 0);
//! assert_eq!(heap.load(account), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod algorithms;
pub mod batch;
mod clock_shard;
mod config;
pub mod cost;
mod error;
mod globals;
#[cfg(feature = "mutants")]
pub mod mutants;
mod policy;
pub mod prelude;
mod runtime;
mod session;
mod stats;
pub mod trace;
mod tx;
mod txlog;

/// `true` when deterministic-scheduling yield points and trace hooks are
/// compiled into the transactional hot path.
///
/// Instrumented builds (the `deterministic` feature, enabled by
/// `tm-check` and workspace tests) pay a thread-local lookup per
/// transactional access; release benchmark builds compile the hooks out
/// entirely. `rh-bench overhead` records this flag alongside its numbers
/// so results are never compared across mismatched builds.
pub const INSTRUMENTED: bool = cfg!(feature = "deterministic");

pub use batch::{BatchReport, BatchTxn, Blocked, ParallelExecutor, TxView};
pub use clock_shard::{ClockScheme, MAX_CLOCK_SHARDS};
pub use config::{
    Algorithm, BackoffConfig, BatchConfig, PrefixConfig, RetryPolicy, TmConfig, TmConfigBuilder,
    TxKind, MAX_BATCH_WORKERS, MAX_MVMAP_SHARDS,
};
pub use error::{TmError, TxFault, TxResult, TxRestart};
pub use globals::{clock, Globals};
pub use policy::PolicyConfig;
pub use runtime::TmRuntime;
pub use session::Session;
pub use stats::{ThreadReport, TmThreadStats};
pub use tx::Tx;
