//! The worker pool: replays a generated trace against a [`KvStore`] and
//! records per-request-class sojourn-time histograms.
//!
//! ## Latency model
//!
//! Wall-clock latencies on a shared CI host are noise; the service tier
//! instead reports **modeled sojourn time**, built from the engine's own
//! cycle accounting (see [`rh_norec::cost`]):
//!
//! * each worker owns a virtual clock `busy_until`;
//! * a request assigned to the worker *starts* at
//!   `max(arrival, busy_until)` — open-loop arrivals queue behind a busy
//!   worker instead of pacing themselves;
//! * its *service time* is the worker's modeled cycle delta across the
//!   operation, converted at [`rh_norec::cost::MODEL_HZ`];
//! * its recorded sojourn is `start + service − arrival`, i.e. queueing
//!   delay plus service, exactly the tail a latency SLO sees.
//!
//! ## Scheduling
//!
//! [`SchedPolicy::Static`] partitions requests round-robin by index, so
//! every engine processes the identical per-worker request sequence.
//! [`SchedPolicy::Steal`] keeps that partition as the *initial* queue
//! load but lets a worker that is modeled-idle (its own next request has
//! not arrived on its virtual clock) steal the oldest waiting request
//! from a peer that is *behind* ([`crate::steal`]). Each worker
//! publishes its modeled `busy_until`, and a steal is taken only when it
//! provably helps on the model: the victim's published clock must be
//! past the candidate's arrival (the request is genuinely queued) and
//! ahead of the thief's (the thief would start it sooner). Victim
//! selection is seeded, so under the controlled scheduler a steal run is
//! a pure function of the seed; with stealing disabled the queues are
//! owner-only and the run is bit-for-bit the static one.
//!
//! ## Execution modes
//!
//! [`ExecMode::Session`] serves every request as its own transaction on
//! the per-worker session. [`ExecMode::Batch`] instead drains the stream
//! through the dynamic batch former ([`crate::former`]) into rank-ordered
//! blocks for the Block-STM executor; consecutive blocks execute as one
//! *chain* (block `N + 1` speculates while block `N`'s validation wave
//! drains), and sub-occupancy or non-batchable stretches fall back to
//! sessions on the same modeled pool.

use std::sync::{Arc, Mutex};

use rh_norec::batch::{BatchConfig, ParallelExecutor};
use rh_norec::prelude::{Algorithm, TmConfig, TmConfigBuilder, TmRuntime};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Heap, HeapConfig};

use crate::former::{Former, FormerConfig, Segment};
use crate::gen::{self, OpClass, Request, TraceConfig};
use crate::hist::Histogram;
use crate::steal::StealDeque;
use crate::store::{KvConfig, KvStore};

/// Initial balance loaded under every key at service start.
pub const INITIAL_BALANCE: u64 = 1_000;

/// How the pool divides the request stream across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Static round-robin partition by request index (the PR 7 runner).
    Static,
    /// Per-worker work-stealing deques over the same initial partition.
    Steal {
        /// With `false`, deques are owner-only: no thief ever touches
        /// them and the run replays the static partition bit-for-bit
        /// (the parity configuration).
        enabled: bool,
    },
}

/// How scheduled requests execute.
#[derive(Clone, Copy, Debug)]
pub enum ExecMode {
    /// One session per worker; each request is its own transaction.
    Session,
    /// Dynamic batch formation: the former drains the stream into
    /// rank-ordered blocks for the batch executor (chained across
    /// consecutive blocks), falling back to per-request sessions below
    /// minimum occupancy. The scheduling policy does not apply here:
    /// the executor's rank scheduler replaces the partition.
    Batch(FormerConfig),
}

/// One service run: engine, pool size, and the trace to replay.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// TM algorithm backing the store.
    pub algorithm: Algorithm,
    /// Worker threads draining the request queue.
    pub threads: usize,
    /// Store geometry.
    pub kv: KvConfig,
    /// Trace shape (requests, keyspace, mix, arrivals, seed).
    pub trace: TraceConfig,
    /// Simulated machine.
    pub htm: HtmConfig,
    /// Heap size in words.
    pub heap_words: u64,
    /// Override the runtime configuration (ablations).
    pub tm_overrides: Option<fn(TmConfigBuilder) -> TmConfigBuilder>,
    /// Request scheduling policy.
    pub sched: SchedPolicy,
    /// Execution mode.
    pub mode: ExecMode,
    /// Corpus mutants armed on the run's own runtime (and batch
    /// executor) before the pool is built — mutation recipes only;
    /// empty in production runs.
    #[cfg(feature = "mutants")]
    pub armed_mutants: Vec<rh_norec::mutants::Mutant>,
}

impl ServiceConfig {
    /// A service cell on the paper's machine model (static partition,
    /// session execution — the PR 7 baseline).
    pub fn new(algorithm: Algorithm, threads: usize, trace: TraceConfig) -> Self {
        ServiceConfig {
            algorithm,
            threads,
            kv: KvConfig::for_keyspace(trace.keyspace),
            trace,
            htm: HtmConfig { spurious_abort_per_access: 1e-4, ..HtmConfig::default() },
            heap_words: 1 << 20,
            tm_overrides: None,
            sched: SchedPolicy::Static,
            mode: ExecMode::Session,
            #[cfg(feature = "mutants")]
            armed_mutants: Vec::new(),
        }
    }
}

/// Latency summary (sojourn times, nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct LatencyStats {
    /// Requests summarized.
    pub count: u64,
    /// Median sojourn.
    pub p50_ns: u64,
    /// 95th-percentile sojourn.
    pub p95_ns: u64,
    /// 99th-percentile sojourn.
    pub p99_ns: u64,
    /// 99.9th-percentile sojourn.
    pub p999_ns: u64,
    /// Worst sojourn.
    pub max_ns: u64,
    /// Mean sojourn.
    pub mean_ns: f64,
}

/// Latency summary of one request class.
#[derive(Clone, Copy, Debug)]
pub struct ClassStats {
    /// The class.
    pub class: OpClass,
    /// Its latency summary.
    pub latency: LatencyStats,
}

/// Result of one service run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Engine that served the trace.
    pub algorithm: Algorithm,
    /// Per-class latency summaries (only classes present in the trace).
    pub classes: Vec<ClassStats>,
    /// All-classes summary.
    pub overall: LatencyStats,
    /// Total requests served.
    pub requests: u64,
    /// Engine commits across the pool (batch-executed requests count
    /// one commit each).
    pub commits: u64,
    /// Engine aborts across the pool (batch validation aborts included).
    pub aborts: u64,
    /// Requests served off a stolen deque slot (0 under
    /// [`SchedPolicy::Static`] or with stealing disabled).
    pub stolen: u64,
    /// Requests executed in formed blocks (0 in session mode); the
    /// remainder fell back to sessions.
    pub batched: u64,
    /// `Some(ok)` when the trace mix conserves the balance sum and the
    /// run checked it; `None` when the mix makes the check inapplicable.
    pub conserved: Option<bool>,
}

/// Per-worker accumulation: one histogram per class plus the overall.
struct WorkerHists {
    per_class: [Histogram; 5],
    overall: Histogram,
}

impl WorkerHists {
    fn new() -> Self {
        WorkerHists { per_class: std::array::from_fn(|_| Histogram::new()), overall: Histogram::new() }
    }

    fn record(&mut self, class: OpClass, sojourn_ns: u64) {
        let idx = OpClass::ALL.iter().position(|c| *c == class).expect("class in ALL");
        self.per_class[idx].record(sojourn_ns);
        self.overall.record(sojourn_ns);
    }
}

fn summarize(h: &Histogram) -> LatencyStats {
    LatencyStats {
        count: h.count(),
        p50_ns: h.quantile(0.50),
        p95_ns: h.quantile(0.95),
        p99_ns: h.quantile(0.99),
        p999_ns: h.quantile(0.999),
        max_ns: h.max(),
        mean_ns: h.mean(),
    }
}

/// Seeded xorshift64 for victim selection; state must be nonzero.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// How far (in modeled nanoseconds) one worker's virtual position may
/// run ahead of the slowest peer's before its next serve is held back.
/// Workers replay the trace at real speed, so without this bound their
/// modeled clocks drift apart by whatever their wall-clock progress
/// happens to be, and cross-worker clock comparisons — the entire basis
/// of the steal guard — degrade into measurements of replay skew. The
/// window must comfortably exceed the longest single service time (so
/// the frontier worker itself is never held), and stay well below the
/// tail scale the grid measures (so skew cannot masquerade as backlog).
const STEAL_SKEW_WINDOW_NS: u64 = 1_000_000;

/// Everything session-mode workers share for one run.
struct SessionPool<'a> {
    #[cfg_attr(not(feature = "deterministic"), allow(dead_code))]
    heap: &'a Arc<Heap>,
    rt: &'a Arc<TmRuntime>,
    store: &'a KvStore,
    trace: &'a [Request],
    /// One queue per worker, preloaded with its static partition.
    deques: Vec<StealDeque>,
    /// Each worker's published *virtual position* (see the worker loop:
    /// `max(busy_until, next own arrival)`, the end of time once
    /// drained, a completion estimate mid-serve). Advisory: thieves
    /// read it to judge whether a victim is behind, and the skew gate
    /// reads the minimum as the replay frontier.
    busy: Vec<std::sync::atomic::AtomicU64>,
    steal_enabled: bool,
    seed: u64,
    results: Vec<Mutex<Option<(WorkerHists, rh_norec::TmThreadStats, u64)>>>,
}

impl<'a> SessionPool<'a> {
    fn build(
        config: &ServiceConfig,
        heap: &'a Arc<Heap>,
        rt: &'a Arc<TmRuntime>,
        store: &'a KvStore,
        trace: &'a [Request],
    ) -> SessionPool<'a> {
        let steal_enabled = matches!(config.sched, SchedPolicy::Steal { enabled: true });
        let deques = (0..config.threads)
            .map(|me| {
                let own: Vec<u32> = (me..trace.len()).step_by(config.threads).map(|i| i as u32).collect();
                #[allow(unused_mut)]
                let mut deque = StealDeque::preload(own.into_iter(), steal_enabled);
                #[cfg(feature = "mutants")]
                if rt.mutant_armed(rh_norec::mutants::Mutant::StealBottomRace) {
                    deque.arm_race_mutant();
                }
                deque
            })
            .collect();
        SessionPool {
            heap,
            rt,
            store,
            trace,
            deques,
            busy: (0..config.threads).map(|_| std::sync::atomic::AtomicU64::new(0)).collect(),
            steal_enabled,
            seed: config.trace.seed,
            results: (0..config.threads).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// One steal attempt sweep: seeded starting victim, then the ring.
    /// A candidate is taken only when the steal pays on the model: the
    /// thief must be able to *start* the request meaningfully sooner
    /// than the backlogged victim would. With `start_thief =
    /// max(busy_ns, at)` and the victim starting its head no earlier
    /// than its published clock, the guard is
    ///
    /// ```text
    /// max(busy_ns, at) + margin < victim_busy
    /// ```
    ///
    /// where `margin` (the thief's running mean service time) filters
    /// out churn: taking a request the victim would serve almost as
    /// soon itself buys nothing and perturbs the engine's real
    /// execution overlap for free. The published clocks are advisory (a
    /// victim mid-service publishes an estimate), so the guard is a
    /// heuristic; the modeled-idle eligibility check in the caller
    /// bounds self-harm at one in-flight request.
    fn steal_one(&self, me: usize, rng: &mut u64, busy_ns: u64, margin_ns: u64) -> Option<u32> {
        use std::sync::atomic::Ordering;
        let n = self.deques.len();
        if n <= 1 {
            return None;
        }
        let offset = (xorshift(rng) % (n as u64 - 1)) as usize;
        for k in 0..n - 1 {
            let v = (offset + k) % (n - 1);
            let victim = if v >= me { v + 1 } else { v };
            let victim_busy = self.busy[victim].load(Ordering::Relaxed);
            if victim_busy <= busy_ns.saturating_add(margin_ns) {
                continue;
            }
            let taken = self.deques[victim].steal_top(|c| {
                let at = self.trace[c as usize].at_ns;
                busy_ns.max(at).saturating_add(margin_ns) < victim_busy
            });
            if taken.is_some() {
                return taken;
            }
        }
        None
    }

    /// One worker: drain the own deque in arrival order, stealing from
    /// backlogged peers whenever modeled-idle. With stealing disabled
    /// this is exactly the static-partition loop (same pops, same serve
    /// order, no extra scheduler decision points).
    fn worker(&self, me: usize) {
        use std::sync::atomic::Ordering;
        let mut session = self.rt.open_session().expect("free worker slot");
        let mut hists = WorkerHists::new();
        let mut busy_until_ns = 0u64;
        let mut stolen = 0u64;
        let mut served = 0u64;
        let mut service_total_ns = 0u64;
        let ns_per_cycle = 1.0e9 / rh_norec::cost::MODEL_HZ;
        let own = &self.deques[me];
        let mut rng = (self.seed ^ (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        loop {
            let next_own_at = own.peek_next().map(|i| self.trace[i as usize].at_ns);
            if self.steal_enabled {
                // Publish this worker's *virtual position*: the modeled
                // instant it is logically at — past its last completion
                // and, when its queue has no arrival yet, forwarded to
                // the arrival it would idle until (a drained worker sits
                // at the end of time). Positions are what make peers'
                // clocks comparable: each worker replays at its own real
                // speed, so raw busy clocks diverge by however much
                // wall-clock progress differs, and a guard comparing
                // them would measure replay skew, not backlog.
                let pos = busy_until_ns.max(next_own_at.unwrap_or(u64::MAX));
                self.busy[me].store(pos, Ordering::Relaxed);
            }
            let theft = if self.steal_enabled {
                match next_own_at {
                    // Our next request has already queued up behind us:
                    // serve our own backlog first.
                    Some(at) if busy_until_ns >= at => None,
                    // Modeled-idle until the next own arrival (or
                    // drained): steal a queued request from a peer that
                    // is meaningfully behind. The margin is our running
                    // mean service time, the natural "is this worth
                    // one of my service slots" scale for this engine.
                    _ => {
                        let margin_ns = service_total_ns.checked_div(served).unwrap_or(0);
                        self.steal_one(me, &mut rng, busy_until_ns, margin_ns)
                    }
                }
            } else {
                None
            };
            let idx = match theft {
                Some(i) => {
                    stolen += 1;
                    i
                }
                None => match own.take_next() {
                    Some(i) => i,
                    // A thief won the race between our peek and take;
                    // re-check (the queue only drains, so this
                    // terminates).
                    None if next_own_at.is_some() => continue,
                    None => break,
                },
            };
            let request = &self.trace[idx as usize];
            let start_ns = busy_until_ns.max(request.at_ns);
            if self.steal_enabled {
                // Publish the *expected* completion of the request we
                // are about to serve (start + running mean service), so
                // a peer stuck in a long request is visibly behind while
                // it is stuck, not only after it finishes. The true
                // position replaces the estimate at the next loop top.
                // Published before the skew gate below, which is what
                // guarantees the minimum-position worker never gates on
                // itself (its own published position exceeds its start).
                let mean_ns = service_total_ns.checked_div(served).unwrap_or(0);
                self.busy[me].store(start_ns + mean_ns, Ordering::Relaxed);
                // Bounded-skew coupling (conservative time-window
                // replay): hold this serve until every peer's virtual
                // position is within the skew window of our start. This
                // keeps the published clocks mutually comparable — the
                // entire basis of the steal guard — and stops a worker
                // racing far ahead of the pack and then "relieving"
                // backlog that only exists because of replay skew. The
                // wait is a scheduling artifact, so it charges nothing;
                // the laggard that defines the frontier never waits, so
                // the pool always makes progress.
                loop {
                    let frontier = self
                        .busy
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .min()
                        .expect("at least one worker");
                    if frontier.saturating_add(STEAL_SKEW_WINDOW_NS) >= start_ns {
                        break;
                    }
                    sim_htm::sched::yield_point();
                    std::thread::yield_now();
                }
            }
            let cycles_before = session.stats().cycles;
            serve(self.store, &mut session, request);
            let cycles_after = session.stats().cycles;
            let service_ns = ((cycles_after - cycles_before) as f64 * ns_per_cycle) as u64;
            busy_until_ns = start_ns + service_ns;
            served += 1;
            service_total_ns += service_ns;
            hists.record(request.class, busy_until_ns - request.at_ns);
        }
        *self.results[me].lock().unwrap_or_else(|e| e.into_inner()) =
            Some((hists, session.stats(), stolen));
    }
}

/// Runs one service cell: builds the machine, loads the store, replays
/// the trace through the configured scheduler and execution mode, and
/// summarizes latencies.
///
/// # Panics
///
/// Panics when the store cannot hold the keyspace (misconfigured
/// geometry), when a worker hits an engine fault, when a request is lost
/// or double-served (a scheduler bug), or when the conservation check
/// applies and fails.
pub fn run_service(config: &ServiceConfig) -> ServiceReport {
    run_service_with(config, |pool, threads| {
        std::thread::scope(|s| {
            for me in 0..threads {
                s.spawn(move || pool.worker(me));
            }
        });
    })
}

/// [`run_service`] with the session-mode workers driven as virtual
/// threads of the deterministic cooperative scheduler: the entire
/// interleaving — including every steal race — is a pure function of
/// `sched_config` and the trace seed. `on_ready` runs once after the
/// store is loaded and before any worker spawns (checker harnesses
/// snapshot the initial store words there); `on_worker_start` /
/// `on_worker_done` run inside each virtual thread (install history
/// recorders there).
///
/// Batch mode has its own controlled entry points on the executor
/// (`execute_controlled`); this driver supports session mode.
///
/// # Panics
///
/// As [`run_service`]; additionally panics when `config.mode` is
/// [`ExecMode::Batch`].
#[cfg(feature = "deterministic")]
pub fn run_service_controlled(
    config: &ServiceConfig,
    sched_config: &sim_htm::sched::SchedConfig,
    on_ready: &(dyn Fn(&Heap, &KvStore) + Sync),
    on_worker_start: &(dyn Fn(usize) + Sync),
    on_worker_done: &(dyn Fn(usize) + Sync),
) -> (ServiceReport, sim_htm::sched::RunResult) {
    assert!(
        matches!(config.mode, ExecMode::Session),
        "the controlled service driver runs session mode; drive batch chains \
         through ParallelExecutor::execute_controlled"
    );
    let mut run = None;
    let report = run_service_with(config, |pool, threads| {
        on_ready(pool.heap, pool.store);
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
            .map(|me| {
                Box::new(move || {
                    on_worker_start(me);
                    pool.worker(me);
                    on_worker_done(me);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run = Some(sim_htm::sched::run_threads(sched_config, bodies));
    });
    (report, run.expect("spawn closure always runs"))
}

/// Shared cell driver: builds machine, store, and trace, dispatches on
/// the execution mode (`spawn` drives the session-mode pool), and runs
/// the invariant checks every mode must pass.
fn run_service_with(
    config: &ServiceConfig,
    spawn: impl for<'s> FnOnce(&'s SessionPool<'s>, usize),
) -> ServiceReport {
    assert!(config.threads > 0, "service pool needs at least one worker");
    let heap = Arc::new(Heap::new(HeapConfig { words: config.heap_words }));
    let htm = Htm::new(Arc::clone(&heap), config.htm);
    let mut builder = TmConfig::builder(config.algorithm).interleave_accesses(2);
    if let Some(f) = config.tm_overrides {
        builder = f(builder);
    }
    let tm_config = builder.build().expect("service TM configuration rejected");
    let rt = TmRuntime::new(Arc::clone(&heap), htm, tm_config)
        .expect("service runtime construction cannot fail");
    #[cfg(feature = "mutants")]
    for mutant in &config.armed_mutants {
        rt.set_mutant(*mutant, true);
    }

    let store = KvStore::create(&heap, config.kv).expect("service heap too small for the store");
    for key in 1..=config.trace.keyspace {
        store
            .load(&heap, key, INITIAL_BALANCE)
            .expect("store geometry cannot hold the keyspace; grow buckets or shards");
    }
    let initial_sum = store.sum_direct(&heap);

    let trace = gen::generate(&config.trace);

    let mut per_class: [Histogram; 5] = std::array::from_fn(|_| Histogram::new());
    let mut overall = Histogram::new();
    let mut tm = rh_norec::TmThreadStats::default();
    let mut stolen = 0u64;
    let mut batched = 0u64;
    let mut batch_commits = 0u64;
    let mut batch_aborts = 0u64;

    match config.mode {
        ExecMode::Session => {
            let pool = SessionPool::build(config, &heap, &rt, &store, &trace);
            spawn(&pool, config.threads);
            for slot in &pool.results {
                let (hists, stats, worker_stolen) = slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("service worker must report before the pool joins");
                for (acc, h) in per_class.iter_mut().zip(hists.per_class.iter()) {
                    acc.merge(h);
                }
                overall.merge(&hists.overall);
                tm = tm.merge(&stats);
                stolen += worker_stolen;
            }
        }
        ExecMode::Batch(former_config) => {
            let out = run_batch_pipeline(config, former_config, &heap, &rt, &store, &trace);
            per_class = out.per_class;
            overall = out.overall;
            tm = out.tm;
            batched = out.batched;
            batch_commits = out.batch_commits;
            batch_aborts = out.batch_aborts;
        }
    }

    // Exactly-once: every trace request served once. A lost or
    // double-served request is a scheduler bug (e.g. a broken steal
    // claim), whatever it does to the store.
    assert_eq!(
        overall.count(),
        trace.len() as u64,
        "service scheduling invariant: {} requests in the trace but {} served — \
         a request was lost or served twice ({:?}, {:?})",
        trace.len(),
        overall.count(),
        config.algorithm,
        config.sched,
    );

    let conserved = if config.trace.mix.conserves_sum() {
        let now = store.sum_direct(&heap);
        assert_eq!(
            now, initial_sum,
            "KV conservation violated: balance sum drifted {initial_sum} -> {now} \
             under a transfer-only mix ({:?})",
            config.algorithm
        );
        Some(true)
    } else {
        None
    };

    ServiceReport {
        algorithm: config.algorithm,
        classes: OpClass::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| per_class[*i].count() > 0)
            .map(|(i, c)| ClassStats { class: *c, latency: summarize(&per_class[i]) })
            .collect(),
        overall: summarize(&overall),
        requests: overall.count(),
        commits: tm.commits + batch_commits,
        aborts: tm.htm_conflict_aborts()
            + tm.htm_capacity_aborts()
            + tm.fast_other_aborts
            + tm.slow_path_restarts
            + batch_aborts,
        stolen,
        batched,
        conserved,
    }
}

/// What the batch pipeline hands back to the shared driver.
struct PipelineOut {
    per_class: [Histogram; 5],
    overall: Histogram,
    tm: rh_norec::TmThreadStats,
    batched: u64,
    batch_commits: u64,
    batch_aborts: u64,
}

/// The batch-mode pipeline: form segments, execute block chains on the
/// batch executor with cross-block handoff, run fallback stretches on
/// sessions over the same modeled pool.
///
/// Completion model, per chain of consecutive blocks:
///
/// * the chain starts at `max(engine_free, close of the first block)`;
/// * block `b` completes at `max(completion of b−1, close_at of b)` plus
///   its share of the chain's elapsed execution (the executor's
///   per-block elapsed-cycle deltas at [`rh_norec::cost::MODEL_HZ`]);
/// * every member of a block gets the block's completion as its response
///   instant (a block's results are released when its validation wave
///   clears — the rank-ordered commit sweep is charged to the engine
///   clock, after which the pool is free for the next segment).
///
/// Fallback stretches spread round-robin across `threads` virtual worker
/// clocks, all released at `engine_free` — the same pool model session
/// mode uses, so the two modes' sojourns are comparable.
fn run_batch_pipeline(
    config: &ServiceConfig,
    former_config: FormerConfig,
    heap: &Arc<Heap>,
    rt: &Arc<TmRuntime>,
    store: &KvStore,
    trace: &[Request],
) -> PipelineOut {
    let ns_per_cycle = 1.0e9 / rh_norec::cost::MODEL_HZ;
    let exec = ParallelExecutor::new(
        Arc::clone(heap),
        BatchConfig::with_workers(config.threads.min(rh_norec::MAX_BATCH_WORKERS)),
    )
    .expect("service batch executor configuration rejected");
    #[cfg(feature = "mutants")]
    for mutant in &config.armed_mutants {
        exec.set_mutant(*mutant, true);
    }
    let mut former = Former::new(former_config);
    let segments = former.form(trace);

    let mut session = rt.open_session().expect("free worker slot");
    let mut hists = WorkerHists::new();
    let mut batched = 0u64;
    let mut batch_commits = 0u64;
    let mut batch_aborts = 0u64;
    // When the pool as a whole is free again (ns).
    let mut engine_free = 0u64;
    // Recycled per-block buffers of the current chain.
    let mut bounds = Vec::new();
    let mut closes = Vec::new();
    // Recycled fallback virtual-worker clocks.
    let mut worker_free = vec![0u64; config.threads];

    let mut i = 0;
    while i < segments.len() {
        match segments[i] {
            Segment::Session { start, len } => {
                // Spread the fallback stretch over the pool's virtual
                // clocks, all released when the engine is free.
                worker_free.iter_mut().for_each(|w| *w = engine_free);
                for (k, request) in trace[start..start + len].iter().enumerate() {
                    let clock = &mut worker_free[k % config.threads];
                    let start_ns = (*clock).max(request.at_ns);
                    let cycles_before = session.stats().cycles;
                    serve(store, &mut session, request);
                    let cycles_after = session.stats().cycles;
                    let service_ns =
                        ((cycles_after - cycles_before) as f64 * ns_per_cycle) as u64;
                    *clock = start_ns + service_ns;
                    hists.record(request.class, *clock - request.at_ns);
                }
                engine_free = worker_free.iter().copied().max().unwrap_or(engine_free);
                i += 1;
            }
            Segment::Batch { start: chain_start, .. } => {
                // Gather the maximal run of consecutive blocks into one
                // chain (cross-block handoff happens inside the
                // executor's shared speculation window). Segments tile
                // the trace, so the chain is one contiguous trace range
                // and runs in place: chain rank `r` is `chain[r]`.
                bounds.clear();
                closes.clear();
                let mut chain_end = chain_start;
                while let Some(&Segment::Batch { start, len, close_at_ns }) = segments.get(i) {
                    debug_assert_eq!(start, chain_end, "segments tile the trace");
                    chain_end = start + len;
                    bounds.push(chain_end - chain_start);
                    closes.push(close_at_ns);
                    i += 1;
                }
                let chain = &trace[chain_start..chain_end];
                let (report, elapsed_cycles) =
                    exec.execute(&crate::batch::TraceChain::new(store, chain), &bounds);
                batch_commits += report.txs();
                batch_aborts += report.aborts();
                batched += report.txs();
                // Per-block completion recurrence over the chain.
                let mut completion = engine_free.max(closes[0]);
                let mut prev_elapsed_ns = 0u64;
                let mut block_start = 0usize;
                for (b, &end) in bounds.iter().enumerate() {
                    let elapsed_ns =
                        (elapsed_cycles[b] as f64 * ns_per_cycle) as u64;
                    let delta_ns = elapsed_ns - prev_elapsed_ns;
                    prev_elapsed_ns = elapsed_ns;
                    completion = completion.max(closes[b]) + delta_ns;
                    for request in &chain[block_start..end] {
                        hists.record(request.class, completion - request.at_ns);
                    }
                    block_start = end;
                }
                // The rank-ordered commit sweep runs once per chain.
                engine_free =
                    completion + (report.commit_cycles() as f64 * ns_per_cycle) as u64;
            }
        }
    }

    PipelineOut {
        per_class: hists.per_class,
        overall: hists.overall,
        tm: session.stats(),
        batched,
        batch_commits,
        batch_aborts,
    }
}

/// Dispatches one request to the store. Engine faults are programming
/// errors here (the service never writes in a read-only body), so they
/// panic.
fn serve(store: &KvStore, session: &mut rh_norec::Session, request: &Request) {
    match request.class {
        OpClass::Get => {
            store.get(session, request.key).expect("get cannot fault");
        }
        OpClass::Put => {
            store
                .put(session, request.key, request.amount)
                .expect("put cannot fault on a store sized for the keyspace");
        }
        OpClass::Delete => {
            store.delete(session, request.key).expect("delete cannot fault");
        }
        OpClass::Transfer => {
            store
                .transfer(session, request.key, request.key2, request.amount)
                .expect("transfer cannot fault");
        }
        OpClass::Range => {
            store
                .range_sum(session, request.key, request.key2)
                .expect("range cannot fault");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Mix;

    fn smoke_trace(mix: Mix) -> TraceConfig {
        TraceConfig { requests: 2_000, keyspace: 128, mix, ..TraceConfig::default() }
    }

    #[test]
    fn a_service_cell_runs_and_reports() {
        let config = ServiceConfig::new(Algorithm::RhNorec, 3, smoke_trace(Mix::read_heavy()));
        let report = run_service(&config);
        assert_eq!(report.requests, 2_000);
        assert!(report.commits >= 2_000, "every request commits at least one tx");
        assert!(report.overall.p50_ns > 0);
        assert!(report.overall.p50_ns <= report.overall.p95_ns);
        assert!(report.overall.p95_ns <= report.overall.p99_ns);
        assert!(report.overall.p99_ns <= report.overall.p999_ns);
        assert!(report.overall.p999_ns <= report.overall.max_ns);
        assert!(report.conserved.is_none(), "read_heavy mix has puts: check inapplicable");
        assert_eq!(report.stolen, 0, "static partition never steals");
    }

    #[test]
    fn transfer_mix_conserves_the_balance_sum_on_every_engine() {
        for algorithm in Algorithm::PAPER_SET {
            let config = ServiceConfig::new(algorithm, 4, smoke_trace(Mix::transfer_heavy()));
            let report = run_service(&config);
            assert_eq!(report.conserved, Some(true), "{algorithm:?}");
        }
    }

    #[test]
    fn identical_seeds_replay_identical_request_streams() {
        let config = ServiceConfig::new(Algorithm::Norec, 2, smoke_trace(Mix::transfer_heavy()));
        let a = run_service(&config);
        let b = run_service(&config);
        assert_eq!(a.requests, b.requests);
        let counts = |r: &ServiceReport| {
            r.classes.iter().map(|c| (c.class, c.latency.count)).collect::<Vec<_>>()
        };
        assert_eq!(counts(&a), counts(&b), "class partition must be trace-determined");
    }

    #[test]
    fn steal_mode_conserves_and_serves_exactly_once_on_every_engine() {
        for algorithm in Algorithm::PAPER_SET {
            let mut config =
                ServiceConfig::new(algorithm, 4, smoke_trace(Mix::transfer_heavy()));
            config.sched = SchedPolicy::Steal { enabled: true };
            let report = run_service(&config);
            assert_eq!(report.requests, 2_000, "{algorithm:?}");
            assert_eq!(report.conserved, Some(true), "{algorithm:?}");
        }
    }

    #[test]
    fn steal_disabled_matches_the_static_partition_latencies() {
        // At one worker there is no engine contention, so the modeled
        // cycle stream is deterministic and the parity is exact. (The
        // multi-worker bit-for-bit parity lives in the checker crate
        // under the controlled scheduler, where interleavings are a
        // pure function of the seed.)
        let base = ServiceConfig::new(Algorithm::Tl2, 1, smoke_trace(Mix::transfer_heavy()));
        let mut parity = base.clone();
        parity.sched = SchedPolicy::Steal { enabled: false };
        let a = run_service(&base);
        let b = run_service(&parity);
        assert_eq!(a.overall.p50_ns, b.overall.p50_ns);
        assert_eq!(a.overall.p99_ns, b.overall.p99_ns);
        assert_eq!(a.overall.max_ns, b.overall.max_ns);
        assert_eq!(b.stolen, 0);

        // Multi-worker, free-running: the partition (which worker serves
        // which class) is still trace-determined and nothing is stolen.
        let mut multi = ServiceConfig::new(Algorithm::Tl2, 3, smoke_trace(Mix::transfer_heavy()));
        multi.sched = SchedPolicy::Steal { enabled: false };
        let m = run_service(&multi);
        assert_eq!(m.stolen, 0);
        assert_eq!(m.requests, 2_000);
    }

    #[test]
    fn batch_mode_conserves_and_batches_the_batchable_stream() {
        for algorithm in [Algorithm::RhNorec, Algorithm::LockElision] {
            let mut config =
                ServiceConfig::new(algorithm, 4, smoke_trace(Mix::transfer_heavy()));
            config.mode = ExecMode::Batch(FormerConfig::default());
            let report = run_service(&config);
            assert_eq!(report.requests, 2_000, "{algorithm:?}");
            assert_eq!(report.conserved, Some(true), "{algorithm:?}");
            assert!(report.batched > 0, "transfer mix must form blocks ({algorithm:?})");
        }
    }
}
