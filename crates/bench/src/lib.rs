//! # rh-bench: the figure-regeneration harness
//!
//! Reruns the paper's evaluation (Figures 4–6 plus ablations) on the
//! simulated machine and prints the same rows the paper plots:
//!
//! 1. throughput per thread count for all five algorithms,
//! 2. HTM conflict and capacity aborts per operation (HY vs RH NOrec),
//! 3. slow-path restarts per slow-path transaction,
//! 4. the slow-path execution ratio,
//! 5. RH NOrec's HTM prefix/postfix success ratios.
//!
//! Every target prints to stdout and writes no file. The regression gate
//! for the model lives in the repo benchmark (`benchmark/run.sh compare`).
//!
//! ## Reading throughput on a small host
//!
//! Worker threads timeshare the host's cores, so raw wall-clock
//! throughput cannot rise with thread count on a single-core host. The
//! harness therefore reports **modeled N-core throughput**
//! `ops × N / wall`, which credits each thread with a dedicated core:
//! contention effects (aborted work, restarts, fallback serialization)
//! still consume the threads' CPU shares and bend the curves exactly as
//! they do in the paper, while the ×N factor restores the parallel
//! baseline. Interleaving-sensitive rows 2–5 are measured directly and
//! need no modeling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod driver;
pub mod figures;
pub mod overhead;
pub mod report;
pub mod service;

pub use driver::{run_cell, CellConfig, CellResult};
