//! Dynamic batch formation: draining the open-loop request stream into
//! rank-ordered blocks for the Block-STM batch executor.
//!
//! The former walks the trace in arrival order and greedily grows a
//! block of *batchable* requests (gets and transfers — the classes
//! [`crate::batch::BatchOp`] can express). A block **closes** at the
//! earliest of three events:
//!
//! - it reaches [`FormerConfig::max_batch`] members (`close_at` is the
//!   arrival of the request that filled it);
//! - the next arrival would land after the **deadline** of the block's
//!   oldest member, `oldest.at_ns + latency_budget_ns` (the block
//!   closes *at that deadline*: the former has spent the oldest
//!   request's slack waiting and must release it);
//! - a non-batchable request (put/delete/range) arrives — a barrier —
//!   or the trace ends before the deadline; the block closes at
//!   `min(deadline, barrier arrival)`, or at the deadline on trace end
//!   (an online former cannot know no more arrivals are coming).
//!
//! A closed block below [`FormerConfig::min_batch`] occupancy is not
//! worth the executor's per-block overhead: it **falls back** to
//! per-request sessions. The fallback is hysteretic: after a fallback
//! the former demands `2 * min_batch` occupancy before opening blocks
//! again, so a sparse stretch of the trace does not flap between modes
//! at every block boundary.
//!
//! The former is allocation-free on the warm path: its segment buffer
//! is recycled across [`Former::form`] calls (cleared, not freed).

use crate::gen::{OpClass, Request};

/// Batch-formation policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct FormerConfig {
    /// Close a block when it reaches this many requests.
    pub max_batch: usize,
    /// Close a block when the oldest member has waited this long.
    pub latency_budget_ns: u64,
    /// Blocks below this occupancy fall back to per-request sessions.
    pub min_batch: usize,
}

impl Default for FormerConfig {
    fn default() -> Self {
        // Defaults tuned on the `rh-bench service` bursty trace: bursts fill
        // 64-deep blocks well inside the budget, while the quiescent
        // stretches between bursts fall through to sessions.
        FormerConfig { max_batch: 64, latency_budget_ns: 400_000, min_batch: 4 }
    }
}

impl FormerConfig {
    /// Panics unless the knobs are coherent.
    pub fn validate(&self) {
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(self.min_batch >= 1, "min_batch must be at least 1");
        assert!(
            self.min_batch <= self.max_batch,
            "min_batch {} cannot exceed max_batch {}",
            self.min_batch,
            self.max_batch
        );
        assert!(self.latency_budget_ns > 0, "latency budget must be positive");
    }
}

/// One contiguous run of the trace, tagged with how it executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    /// `trace[start..start + len]` executes as one rank-ordered block
    /// on the batch executor; the block is released at `close_at_ns`.
    Batch {
        /// First trace index of the block.
        start: usize,
        /// Block occupancy.
        len: usize,
        /// Modeled instant the former releases the block.
        close_at_ns: u64,
    },
    /// `trace[start..start + len]` executes as per-request sessions
    /// (non-batchable classes, or a block that fell below occupancy).
    Session {
        /// First trace index of the run.
        start: usize,
        /// Run length.
        len: usize,
    },
}

/// Whether the batch executor can express this request.
pub fn batchable(request: &Request) -> bool {
    matches!(request.class, OpClass::Get | OpClass::Transfer)
}

/// The batch former. Holds the recycled segment buffer; one instance
/// serves any number of traces.
#[derive(Debug)]
pub struct Former {
    config: FormerConfig,
    segments: Vec<Segment>,
    /// Hysteresis state: the previous candidate block fell back.
    fell_back: bool,
}

impl Former {
    /// A former with the given policy (validated here).
    pub fn new(config: FormerConfig) -> Self {
        config.validate();
        Former { config, segments: Vec::new(), fell_back: false }
    }

    /// The policy this former runs.
    pub fn config(&self) -> FormerConfig {
        self.config
    }

    /// Partitions `trace` into segments. The returned slice borrows the
    /// recycled internal buffer and is valid until the next `form`.
    pub fn form(&mut self, trace: &[Request]) -> &[Segment] {
        self.segments.clear();
        self.fell_back = false;
        let mut i = 0;
        while i < trace.len() {
            if !batchable(&trace[i]) {
                // Barrier run: contiguous non-batchable requests.
                let start = i;
                while i < trace.len() && !batchable(&trace[i]) {
                    i += 1;
                }
                self.push_session(start, i - start);
                continue;
            }
            // Grow a candidate block.
            let start = i;
            let deadline = trace[start].at_ns + self.config.latency_budget_ns;
            let mut close_at = deadline;
            i += 1;
            loop {
                if i - start == self.config.max_batch {
                    // Filled: released the moment the filling request
                    // arrived.
                    close_at = trace[i - 1].at_ns;
                    break;
                }
                match trace.get(i) {
                    Some(next) if next.at_ns > deadline => break,
                    Some(next) if !batchable(next) => {
                        // Barrier: flush now rather than hold the block
                        // open across an operation it cannot contain.
                        close_at = deadline.min(next.at_ns);
                        break;
                    }
                    Some(_) => i += 1,
                    None => break,
                }
            }
            let len = i - start;
            let threshold = if self.fell_back {
                // Hysteresis: demand twice the occupancy to reopen
                // batching after a fallback.
                2 * self.config.min_batch
            } else {
                self.config.min_batch
            };
            if len < threshold {
                self.push_session(start, len);
                self.fell_back = true;
            } else {
                self.segments.push(Segment::Batch { start, len, close_at_ns: close_at });
                self.fell_back = false;
            }
        }
        &self.segments
    }

    /// Pushes a session run, merging into a preceding session segment
    /// so fallback runs and barrier runs coalesce.
    fn push_session(&mut self, start: usize, len: usize) {
        if let Some(Segment::Session { start: s, len: l }) = self.segments.last_mut() {
            if *s + *l == start {
                *l += len;
                return;
            }
        }
        self.segments.push(Segment::Session { start, len });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_ns: u64, class: OpClass) -> Request {
        Request { at_ns, class, key: 1, key2: 2, amount: 1 }
    }

    fn lens(segments: &[Segment]) -> Vec<(bool, usize)> {
        segments
            .iter()
            .map(|s| match *s {
                Segment::Batch { len, .. } => (true, len),
                Segment::Session { len, .. } => (false, len),
            })
            .collect()
    }

    #[test]
    fn a_burst_fills_one_block_closed_by_max_batch() {
        let trace: Vec<Request> =
            (0..10).map(|k| req(k * 10, OpClass::Transfer)).collect();
        let mut former = Former::new(FormerConfig {
            max_batch: 8,
            latency_budget_ns: 1_000_000,
            min_batch: 2,
        });
        let segs = former.form(&trace).to_vec();
        // 8 fill the first block (closed at the 8th arrival, inside the
        // budget); the 2-request tail still clears min_batch.
        assert_eq!(lens(&segs), vec![(true, 8), (true, 2)]);
        assert_eq!(segs[0], Segment::Batch { start: 0, len: 8, close_at_ns: 70 });
    }

    #[test]
    fn the_deadline_closes_a_slow_block() {
        // Arrivals 500ns apart with a 1000ns budget: the third arrival
        // (at 1000 = deadline) joins; the fourth (1500 > 1000) closes
        // the block at the oldest member's deadline.
        let trace: Vec<Request> =
            (0..8).map(|k| req(k * 500, OpClass::Transfer)).collect();
        let mut former = Former::new(FormerConfig {
            max_batch: 64,
            latency_budget_ns: 1_000,
            min_batch: 2,
        });
        let segs = former.form(&trace).to_vec();
        assert_eq!(segs[0], Segment::Batch { start: 0, len: 3, close_at_ns: 1_000 });
    }

    #[test]
    fn barriers_split_blocks_and_run_as_sessions() {
        let mut trace: Vec<Request> =
            (0..6).map(|k| req(k * 10, OpClass::Transfer)).collect();
        trace.insert(3, req(25, OpClass::Put));
        let mut former = Former::new(FormerConfig {
            max_batch: 64,
            latency_budget_ns: 1_000_000,
            min_batch: 3,
        });
        let segs = former.form(&trace).to_vec();
        // Block of 3 flushed at the barrier arrival, the put as a
        // session, then the remaining 3 transfers as a block.
        assert_eq!(lens(&segs), vec![(true, 3), (false, 1), (true, 3)]);
        assert_eq!(segs[0], Segment::Batch { start: 0, len: 3, close_at_ns: 25 });
    }

    #[test]
    fn fallback_is_hysteretic() {
        // Sparse singles (1500ns apart, 1000ns budget) fall back; a
        // burst of min_batch (4) is still below the post-fallback
        // threshold (8); only a full 8-burst reopens batching.
        let mut trace: Vec<Request> = Vec::new();
        let mut at = 0;
        for _ in 0..3 {
            trace.push(req(at, OpClass::Transfer));
            at += 1_500;
        }
        for _ in 0..4 {
            trace.push(req(at, OpClass::Transfer));
            at += 10;
        }
        at += 1_500;
        for _ in 0..8 {
            trace.push(req(at, OpClass::Transfer));
            at += 10;
        }
        let mut former = Former::new(FormerConfig {
            max_batch: 64,
            latency_budget_ns: 1_000,
            min_batch: 4,
        });
        let segs = former.form(&trace).to_vec();
        assert_eq!(lens(&segs), vec![(false, 7), (true, 8)]);
    }

    #[test]
    fn the_segment_buffer_is_recycled_and_covers_the_trace() {
        let trace: Vec<Request> = (0..100)
            .map(|k| {
                let class = if k % 7 == 0 { OpClass::Range } else { OpClass::Transfer };
                req(k * 100, class)
            })
            .collect();
        let mut former = Former::new(FormerConfig::default());
        for _ in 0..3 {
            let segs = former.form(&trace);
            // Segments tile the trace exactly, in order.
            let mut next = 0;
            for seg in segs {
                let (start, len) = match *seg {
                    Segment::Batch { start, len, .. } => (start, len),
                    Segment::Session { start, len } => (start, len),
                };
                assert_eq!(start, next);
                assert!(len > 0);
                next = start + len;
            }
            assert_eq!(next, trace.len());
        }
    }
}
