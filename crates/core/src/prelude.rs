//! The one-line import for application code: the session-level API
//! surface.
//!
//! Downstream crates (the KV service tier, the evaluation workloads, the
//! examples) import everything they need from here and never reach into
//! the crate's module internals:
//!
//! ```rust
//! use rh_norec::prelude::*;
//! ```
//!
//! The prelude deliberately re-exports only the *service-grade* surface —
//! configuration ([`TmConfig`] and its builder blocks), the runtime and
//! its scoped [`Session`] handle, the transaction handle and its typed
//! result/fault vocabulary, and the statistics types. White-box
//! interfaces (the `trace`/`cost` modules, the batch executor, the
//! mutation corpus) stay behind explicit paths: needing them is the
//! signal that code is a harness, not an application.

pub use crate::config::{
    Algorithm, BackoffConfig, PrefixConfig, RetryPolicy, TmConfig, TmConfigBuilder, TxKind,
};
pub use crate::error::{TmError, TxFault, TxResult, TxRestart};
pub use crate::runtime::TmRuntime;
pub use crate::session::Session;
pub use crate::stats::{ThreadReport, TmThreadStats};
pub use crate::tx::Tx;
