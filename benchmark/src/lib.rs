//! The repo benchmark. See `benchmark/README.md`.

pub mod compare;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod output;
pub mod report;
pub mod sheet;
pub mod spans;
pub mod surface;
pub mod util;
pub mod workloads;
