//! The one seam between the benchmark and the repository.
//!
//! Every name the benchmark uses from the crates under `crates/` is
//! imported here and nowhere else. Later changes may not edit the
//! benchmark, so this list (repeated in `benchmark/README.md`) is the
//! surface that has to keep compiling. It deliberately leaves out
//! `TmThread`/`TmRuntime::register`, `ParallelExecutor::execute*`,
//! `run_service_controlled` and `TransferBatch`, which ROADMAP plans to
//! collapse.

use std::sync::Arc;

pub use rh_kv::former::{Former, FormerConfig};
pub use rh_kv::gen::{generate, Mix, OpClass, Request, TraceConfig};
pub use rh_kv::hist::Histogram;
pub use rh_kv::service::{run_service, ExecMode, LatencyStats, SchedPolicy, ServiceConfig, ServiceReport};
pub use rh_kv::steal::StealDeque;
pub use rh_kv::{KvConfig, KvStore};
pub use rh_norec::cost::MODEL_HZ;
pub use rh_norec::prelude::{Algorithm, Session, ThreadReport, TmConfig, TmConfigBuilder, TmRuntime};
pub use rh_norec::INSTRUMENTED;
pub use sim_htm::{Htm, HtmConfig};
pub use sim_mem::{Heap, HeapConfig};
pub use tm_workloads::structures::RbTree;

#[cfg(feature = "controlled")]
pub use sim_htm::sched::{run_threads, yield_point, SchedConfig};
#[cfg(feature = "controlled")]
pub use tm_check::harness::{run_case, CaseConfig};

/// Host-thread yields every N transactional accesses. The benchmark
/// never runs more workers than cores, so it switches the knob off: the
/// value 2 that `run_service` and `rh-bench` hard-code spends about 40 %
/// of CPU time in `sched_yield` and leaves modeled throughput unchanged.
pub const INTERLEAVE_ACCESSES: u32 = 0;

/// Most worker threads any workload runs: `nproc` on the reference box.
pub const MAX_WORKERS: usize = 2;

/// `ServiceConfig::tm_overrides` hook applying [`INTERLEAVE_ACCESSES`].
pub fn service_overrides(builder: TmConfigBuilder) -> TmConfigBuilder {
    builder.interleave_accesses(INTERLEAVE_ACCESSES)
}

/// A simulated machine: heap, HTM device and TM runtime for one engine.
pub struct Machine {
    pub heap: Arc<Heap>,
    pub rt: Arc<TmRuntime>,
}

impl Machine {
    pub fn build(algorithm: Algorithm, htm: HtmConfig, heap_words: u64) -> Machine {
        let heap = Arc::new(Heap::new(HeapConfig { words: heap_words }));
        let device = Htm::new(Arc::clone(&heap), htm);
        let config = TmConfig::builder(algorithm)
            .interleave_accesses(INTERLEAVE_ACCESSES)
            .build()
            .expect("the paper's default configuration is valid");
        let rt =
            TmRuntime::new(Arc::clone(&heap), device, config).expect("the device was built over this heap");
        Machine { heap, rt }
    }

    pub fn session(&self) -> Session {
        self.rt.open_session().expect("fewer sessions than MAX_THREADS")
    }
}

/// The paper's Haswell model with the spurious-abort rate `rh-bench` and
/// `ServiceConfig::new` use (interrupts seed the occasional fallback).
pub fn haswell() -> HtmConfig {
    HtmConfig { spurious_abort_per_access: 1e-4, ..HtmConfig::default() }
}

/// A flat, tiny HTM: 8 write lines, 16 read lines, no associativity and
/// no sibling eviction, so most tree mutations overflow the fast path.
pub fn tiny_flat() -> HtmConfig {
    HtmConfig {
        max_write_lines: 8,
        max_read_lines: 16,
        associativity: None,
        sibling_evict_per_access: 0.0,
        ..haswell()
    }
}
