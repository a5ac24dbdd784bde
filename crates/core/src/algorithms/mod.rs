//! The TM algorithms: the paper's contribution and its baselines.
//!
//! Each module implements one `run` entry point with the signature
//! `fn(&mut Session, TxKind, &mut dyn FnMut(&mut Tx) -> TxResult<T>) ->
//! Result<T, TxFault>`; [`Session::run`](crate::Session::run) dispatches
//! on the configured [`Algorithm`](crate::Algorithm).
//!
//! The three hardware-first engines share one fast path
//! ([`common::run_fast`]) and differ only in the [`common::FastPath`]
//! they hand it — what the hardware transaction subscribes to and when
//! it touches the clock — and in their fallback: Lock Elision's serial
//! section, Hybrid NOrec's NOrec slow path (the same attempts standalone
//! NOrec runs), RH NOrec's mixed slow path.

pub(crate) mod common;
pub(crate) mod hybrid_norec;
pub(crate) mod lock_elision;
pub(crate) mod norec;
pub(crate) mod rh_norec;
pub(crate) mod tl2;
