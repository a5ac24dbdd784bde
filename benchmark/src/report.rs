//! What a workload hands back: measured values and failure accounting.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::util;

/// One measured value with the samples behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// The per-slice (or per-run) samples `value` summarises; a single
    /// sample for totals and exact counters.
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn single(name: impl Into<String>, value: f64) -> Measured {
        Measured { name: name.into(), value, samples: vec![value] }
    }

    /// The median of `samples`, as the issue defines every sliced metric.
    pub fn median_of(name: impl Into<String>, samples: Vec<f64>) -> Measured {
        Measured { name: name.into(), value: util::median(&samples), samples }
    }

    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Operations attempted and failed, phase by phase. A phase whose call
/// panics, whose case returns an error, or whose invariant check fails
/// counts all its operations as failed, and the run goes on.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn phase<T>(&mut self, name: &str, ops: u64, body: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += ops;
        let outcome = catch_unwind(AssertUnwindSafe(body))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", util::panic_message(&*payload))));
        match outcome {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += ops;
                self.errors.push(format!("{name}: {why}"));
                None
            }
        }
    }

    /// Marks `ops` already-attempted operations failed after the fact
    /// (a verification that covers earlier phases).
    pub fn fail(&mut self, name: &str, ops: u64, why: String) {
        self.failed += ops.min(self.attempted - self.failed);
        self.errors.push(format!("{name}: {why}"));
    }
}

/// Two-worker host throughput is printed, not gated: on the two virtual
/// CPUs of the reference box it sits on a level that lasts for seconds to
/// minutes and differs by up to a factor of two from one period to the
/// next (316 k to 625 k ops/s on `rbtree-read` within an hour, the same
/// binary and seed), while one-worker throughput holds within 1 %.
pub fn host_t2_note(samples: &[f64]) -> String {
    format!(
        "host throughput with two workers (informative, not a metric): median {:.0} ops/s of {} samples [{:.0} .. {:.0}]",
        util::median(samples),
        samples.len(),
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// One workload's result: what the last output line is built from.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `free` or `controlled` when another process measured this; empty
    /// for this process's own build.
    pub build: String,
    pub tally: Tally,
    pub metrics: Vec<Measured>,
    /// Free-form facts printed above the metrics (load model, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, metric: Measured) {
        self.metrics.push(metric);
    }

    /// Records a value that is its own only sample.
    pub fn record(&mut self, name: impl Into<String>, value: f64) {
        self.push(Measured::single(name, value));
    }

    /// Takes over what another pass (or another process) measured.
    pub fn absorb(&mut self, other: Outcome) {
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.tally.errors.extend(other.tally.errors);
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}
