//! Seeded workload harness: one call runs a workload under a controlled
//! schedule and checks the recorded history for opacity.
//!
//! The workload itself is derived from the schedule seed, so a single
//! `u64` pins down *everything* about a run — the per-thread transaction
//! scripts, the interleaving, and the injected hardware aborts. A failure
//! report therefore needs to carry nothing but the seed (plus, for
//! explored schedules, the guided choice list).

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rh_norec::trace::{self, TraceSink};
use rh_norec::{Algorithm, TmConfig, TmRuntime, TxKind};
use sim_htm::sched::{self, RunResult, SchedConfig};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Addr, Heap, HeapConfig};

use crate::opacity::Summary;
use crate::shrink::{self, Shrunk};
use crate::verdict::{self, Verdict};
use crate::Recorder;

/// Which workload shape a case replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseWorkload {
    /// Seed-derived read/increment/blind-write scripts over raw heap
    /// slots (the original harness workload).
    Scripted,
    /// Seed-derived KV request streams (transfers and gets over
    /// `slots` keys) against an [`rh_kv::KvStore`] with `kv_shards`
    /// hash shards, every operation one transaction on the session
    /// API. On top of the history oracles, the run must conserve the
    /// sum of all balances — the app-level invariant that kills
    /// value-stale bugs the heap-level oracles cannot see.
    KvTransfer {
        /// Hash shards of the store under test.
        kv_shards: usize,
    },
    /// A seed-derived pre-formed transfer batch (gets and transfers over
    /// `slots` keys, `threads * txs_per_thread` ranks) driven through the
    /// batch engine (`rh_norec::batch::ParallelExecutor`) with `threads`
    /// workers on the controlled scheduler. The committed per-rank
    /// records are replayed through both history oracles in rank order —
    /// the batch's claimed serialization — on top of the balance
    /// conservation invariant.
    Batch {
        /// Hash shards of the store under test.
        kv_shards: usize,
    },
    /// The KV service tier's work-stealing runner
    /// ([`rh_kv::service::run_service_controlled`] with stealing
    /// enabled): `threads` pool workers drain a seeded bursty
    /// transfer-heavy trace of `threads * txs_per_thread` requests over
    /// `slots` keys through per-worker deques, as virtual threads of the
    /// controlled scheduler. On top of the history oracles, the runner's
    /// own exactly-once and conservation invariants must hold — a broken
    /// steal claim (e.g. `Mutant::StealBottomRace`) double-serves a
    /// request and trips them.
    StealService {
        /// Hash shards of the store under test.
        kv_shards: usize,
    },
}

/// One checked workload: algorithm, machine, and workload shape.
#[derive(Clone, Debug)]
pub struct CaseConfig {
    /// TM algorithm under test.
    pub algorithm: Algorithm,
    /// Simulated HTM configuration.
    pub htm: HtmConfig,
    /// Virtual threads.
    pub threads: usize,
    /// Shared heap slots the scripts operate on.
    pub slots: usize,
    /// Transactions per thread.
    pub txs_per_thread: usize,
    /// Operations per transaction.
    pub ops_per_tx: usize,
    /// Number of commit-clock sequence lanes (`TmConfig::clock_shards`).
    /// `1` is the classic single-word clock; larger values exercise the
    /// sharded lane-vector protocol under the same seeded schedules.
    pub clock_shards: u32,
    /// Arms one deliberately planted protocol bug from the mutation
    /// corpus (`rh_norec::mutants`); `None` runs the real engine. The
    /// `tm-check mutate` gate runs every manifest entry through this.
    pub mutant: Option<rh_norec::mutants::Mutant>,
    /// Overrides the runtime's contention-backoff configuration
    /// (`None` keeps [`TmConfig`] defaults). Backoff draws only from its
    /// seeded PRNG and never paces the deterministic scheduler, so any
    /// two values here must replay a given schedule seed identically —
    /// the property `backoff_determinism.rs` pins.
    pub backoff: Option<rh_norec::BackoffConfig>,
    /// Workload shape (scripted heap slots, or KV request streams). For
    /// [`CaseWorkload::KvTransfer`], `slots` is the key-space size and
    /// `txs_per_thread` the requests per thread (`ops_per_tx` is
    /// unused).
    pub workload: CaseWorkload,
    /// Lane-controller configuration handed to the builder (`None` keeps
    /// the [`TmConfig`] default — controller off). Mutation recipes arm
    /// [`adaptive_policy`] (the controller on, an epoch tick offered
    /// after every commit) so short seeded scripts actually cross
    /// controller epochs; the policy-parity suite pins that `None` and
    /// an explicitly disabled config replay bit-for-bit identically.
    pub policy: Option<rh_norec::PolicyConfig>,
}

impl CaseConfig {
    /// A small contended workload: enough threads and few enough slots
    /// that read-modify-write conflicts are the common case.
    pub fn contended(algorithm: Algorithm, htm: HtmConfig) -> Self {
        CaseConfig {
            algorithm,
            htm,
            threads: 3,
            slots: 2,
            txs_per_thread: 4,
            ops_per_tx: 3,
            clock_shards: 1,
            mutant: None,
            backoff: None,
            workload: CaseWorkload::Scripted,
            policy: None,
        }
    }

    /// A contended KV case: transfers and gets over a handful of keys in
    /// a `kv_shards`-way store.
    pub fn kv_transfer(algorithm: Algorithm, htm: HtmConfig, kv_shards: usize) -> Self {
        CaseConfig {
            threads: 3,
            slots: 4,
            txs_per_thread: 6,
            ops_per_tx: 1,
            workload: CaseWorkload::KvTransfer { kv_shards },
            ..CaseConfig::contended(algorithm, htm)
        }
    }

    /// A contended batch case: a pre-formed transfer batch over a
    /// handful of hot keys, executed by `threads` batch workers. The
    /// `algorithm` is carried for reporting symmetry but unused — the
    /// batch engine is its own (sixth) execution mode.
    pub fn batch(algorithm: Algorithm, htm: HtmConfig, kv_shards: usize) -> Self {
        CaseConfig {
            threads: 3,
            slots: 4,
            txs_per_thread: 8,
            ops_per_tx: 1,
            workload: CaseWorkload::Batch { kv_shards },
            ..CaseConfig::contended(algorithm, htm)
        }
    }

    /// A contended work-stealing service case: a small pool over a
    /// bursty transfer trace, sized so end-of-partition steals (the
    /// one-element owner/thief race window) are the common case.
    pub fn steal_service(algorithm: Algorithm, htm: HtmConfig, kv_shards: usize) -> Self {
        CaseConfig {
            threads: 3,
            slots: 4,
            txs_per_thread: 8,
            ops_per_tx: 1,
            workload: CaseWorkload::StealService { kv_shards },
            ..CaseConfig::contended(algorithm, htm)
        }
    }
}

/// A passing run: the full event history, the schedule's decision log
/// (for exploration), and what both oracles verified.
#[derive(Debug)]
pub struct CaseReport {
    /// The recorded global event history.
    pub history: Vec<trace::Event>,
    /// Scheduler decisions and step count of the run.
    pub run: RunResult,
    /// Opacity-oracle statistics.
    pub summary: Summary,
    /// Strict-serializability-oracle statistics.
    pub serializability: Summary,
}

/// A failing run, carrying everything needed to reproduce it.
#[derive(Debug)]
pub enum CaseFailure {
    /// The oracles rejected the run's history.
    Violation {
        /// The run's schedule seed.
        seed: u64,
        /// Guided choice list, when the schedule came from the explorer.
        guided: Option<Vec<usize>>,
        /// The combined oracles' diagnosis: which properties failed and
        /// the minimal failing event prefix.
        verdict: Verdict,
        /// The offending history, for inspection.
        history: Vec<trace::Event>,
        /// The failing run's full scheduler decision log — the input to
        /// [`crate::shrink::minimize`].
        decisions: Vec<sched::Decision>,
        /// Minimized reproduction, when the caller ran one (see
        /// [`run_case_minimized`]; [`run_case`] leaves this `None`).
        shrunk: Option<Shrunk>,
    },
    /// A virtual thread panicked (an assertion inside an algorithm, or a
    /// workload invariant).
    Panicked {
        /// The run's schedule seed.
        seed: u64,
        /// Guided choice list, when the schedule came from the explorer.
        guided: Option<Vec<usize>>,
        /// The panic payload, stringified.
        message: String,
    },
}

impl CaseFailure {
    /// The schedule seed that reproduces this failure.
    pub fn seed(&self) -> u64 {
        match self {
            CaseFailure::Violation { seed, .. } | CaseFailure::Panicked { seed, .. } => *seed,
        }
    }
}

impl fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseFailure::Violation { seed, guided, verdict, history, shrunk, .. } => {
                write!(
                    f,
                    "{verdict} (history of {} events); replay with seed {seed:#x}",
                    history.len()
                )?;
                if let Some(g) = guided {
                    write!(f, " guided {g:?}")?;
                }
                if let Some(s) = shrunk {
                    write!(
                        f,
                        "; shortest reproducing schedule: {} guided decisions -> {} events",
                        s.guided.len(),
                        s.events
                    )?;
                }
                Ok(())
            }
            CaseFailure::Panicked { seed, guided, message } => {
                write!(f, "virtual thread panicked: {message}; replay with seed {seed:#x}")?;
                if let Some(g) = guided {
                    write!(f, " guided {g:?}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CaseFailure {}

/// One transactional operation of a generated script.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Read slot `i`.
    Read(usize),
    /// Read-modify-write slot `i` (the lost-update probe).
    Incr(usize),
    /// Blind-write `value` to slot `i`.
    Write(usize, u64),
}

/// The policy configuration mutation recipes arm via
/// [`CaseConfig::policy`]: the lane controller on, with an epoch tick
/// offered after every commit so the short seeded scripts actually
/// cross controller epochs.
pub fn adaptive_policy() -> rh_norec::PolicyConfig {
    rh_norec::PolicyConfig { enabled: true, epoch_commits: 1 }
}

/// SplitMix64 — independent of the scheduler's XorShift stream, so the
/// workload and the interleaving don't correlate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-thread transaction scripts for a case + seed. Public in
/// spirit: regenerated identically on every retry of a transaction body,
/// and identically across replays of the same seed.
fn scripts(case: &CaseConfig, seed: u64) -> Vec<Vec<Vec<Op>>> {
    (0..case.threads)
        .map(|tid| {
            let mut rng = seed ^ (tid as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            (0..case.txs_per_thread)
                .map(|_| {
                    (0..case.ops_per_tx)
                        .map(|_| {
                            let r = splitmix(&mut rng);
                            let slot = (r >> 8) as usize % case.slots;
                            match r % 4 {
                                0 => Op::Read(slot),
                                1 => Op::Write(slot, (r >> 32) % 1000),
                                _ => Op::Incr(slot),
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Runs one case under the given schedule and checks the history.
///
/// The same `(case, sched)` pair always produces the same event history,
/// byte for byte; a [`CaseFailure`] prints the seed (and guided choices)
/// that reproduce it.
///
/// # Errors
///
/// [`CaseFailure::Opacity`] when the checker rejects the history,
/// [`CaseFailure::Panicked`] when a virtual thread panicked.
pub fn run_case(case: &CaseConfig, sched_cfg: &SchedConfig) -> Result<CaseReport, CaseFailure> {
    if let CaseWorkload::KvTransfer { kv_shards } = case.workload {
        return run_kv_case(case, sched_cfg, kv_shards);
    }
    if let CaseWorkload::Batch { kv_shards } = case.workload {
        return run_batch_case(case, sched_cfg, kv_shards);
    }
    if let CaseWorkload::StealService { kv_shards } = case.workload {
        return run_steal_case(case, sched_cfg, kv_shards);
    }
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm = Htm::new(Arc::clone(&heap), case.htm);
    let mut builder = TmConfig::builder(case.algorithm).clock_shards(case.clock_shards);
    if let Some(backoff) = case.backoff {
        builder = builder.backoff(backoff);
    }
    if let Some(policy) = case.policy {
        builder = builder.policy(policy);
    }
    let tm_cfg = builder.build().expect("harness case config must be valid");
    let rt = TmRuntime::new(Arc::clone(&heap), htm, tm_cfg)
        .expect("harness runtime construction cannot fail");
    // Arm before any session opens: some mutants (bloom sabotage) are
    // sampled when a session opens.
    if let Some(mutant) = case.mutant {
        rt.set_mutant(mutant, true);
    }

    let alloc = heap.allocator();
    let slots: Vec<Addr> = (0..case.slots)
        .map(|_| alloc.alloc(0, 8).expect("heap too small for case slots"))
        .collect();
    let initial: HashMap<u64, u64> = slots.iter().map(|s| (s.to_word(), heap.load(*s))).collect();

    let recorder = Recorder::new();
    let all_scripts = scripts(case, sched_cfg.seed);

    let bodies: Vec<Box<dyn FnOnce() + Send>> = all_scripts
        .into_iter()
        .enumerate()
        .map(|(tid, script)| {
            // Opened here, in tid order, not inside the virtual thread:
            // the seeded schedule must not decide which worker gets which
            // id (the id fixes the home clock lane and the rng seeds).
            let mut worker = rt.open_session().expect("free worker slot");
            let slots = slots.clone();
            let sink: Arc<dyn TraceSink> = Arc::clone(&recorder) as Arc<dyn TraceSink>;
            Box::new(move || {
                trace::install(sink, tid);
                for ops in &script {
                    let kind = if ops.iter().all(|o| matches!(o, Op::Read(_))) {
                        TxKind::ReadOnly
                    } else {
                        TxKind::ReadWrite
                    };
                    worker.execute(kind, |tx| {
                        for op in ops {
                            match *op {
                                Op::Read(i) => {
                                    tx.read(slots[i])?;
                                }
                                Op::Incr(i) => {
                                    let v = tx.read(slots[i])?;
                                    tx.write(slots[i], v + 1)?;
                                }
                                Op::Write(i, value) => {
                                    tx.write(slots[i], value)?;
                                }
                            }
                        }
                        Ok(())
                    });
                }
                trace::uninstall();
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();

    let run = match catch_unwind(AssertUnwindSafe(|| sched::run_threads(sched_cfg, bodies))) {
        Ok(run) => run,
        Err(payload) => {
            return Err(CaseFailure::Panicked {
                seed: sched_cfg.seed,
                guided: sched_cfg.guided.clone(),
                message: panic_message(&payload),
            })
        }
    };

    let history = recorder.take();
    match verdict::judge(&initial, &history) {
        Ok(judgement) => Ok(CaseReport {
            history,
            run,
            summary: judgement.opacity,
            serializability: judgement.serializability,
        }),
        Err(verdict) => Err(CaseFailure::Violation {
            seed: sched_cfg.seed,
            guided: sched_cfg.guided.clone(),
            verdict,
            history,
            decisions: run.decisions,
            shrunk: None,
        }),
    }
}

/// Initial balance under every key of a KV case.
const KV_BALANCE: u64 = 100;

/// One request of a generated KV stream.
#[derive(Clone, Copy, Debug)]
enum KvOp {
    /// Point read of a key.
    Get(u64),
    /// `transfer(src, dst, amount)`.
    Transfer(u64, u64, u64),
}

/// Seed-derived per-thread KV request streams: three transfers to one
/// get, sources and destinations drawn from the case's `slots` keys.
fn kv_scripts(case: &CaseConfig, seed: u64) -> Vec<Vec<KvOp>> {
    let keys = case.slots as u64;
    assert!(keys >= 2, "KV transfer cases need at least two keys");
    (0..case.threads)
        .map(|tid| {
            let mut rng = seed ^ (tid as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            (0..case.txs_per_thread)
                .map(|_| {
                    let r = splitmix(&mut rng);
                    let src = 1 + (r >> 8) % keys;
                    if r.is_multiple_of(4) {
                        KvOp::Get(src)
                    } else {
                        let mut dst = 1 + (r >> 24) % keys;
                        if dst == src {
                            dst = 1 + dst % keys;
                        }
                        KvOp::Transfer(src, dst, 1 + (r >> 48) % 3)
                    }
                })
                .collect()
        })
        .collect()
}

/// The [`CaseWorkload::KvTransfer`] body of [`run_case`]: replays KV
/// request streams against a sharded [`rh_kv::KvStore`] on the session
/// API, judges the recorded history with both oracles, and additionally
/// checks conservation of the balance sum — the app-level invariant
/// that catches stale-value bugs (e.g. `Mutant::KvStaleTransferCredit`)
/// whose histories are serializable word by word.
fn run_kv_case(
    case: &CaseConfig,
    sched_cfg: &SchedConfig,
    kv_shards: usize,
) -> Result<CaseReport, CaseFailure> {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm = Htm::new(Arc::clone(&heap), case.htm);
    let mut builder = TmConfig::builder(case.algorithm).clock_shards(case.clock_shards);
    if let Some(backoff) = case.backoff {
        builder = builder.backoff(backoff);
    }
    if let Some(policy) = case.policy {
        builder = builder.policy(policy);
    }
    let tm_cfg = builder.build().expect("harness case config must be valid");
    let rt = TmRuntime::new(Arc::clone(&heap), htm, tm_cfg)
        .expect("harness runtime construction cannot fail");
    if let Some(mutant) = case.mutant {
        rt.set_mutant(mutant, true);
    }

    let store = Arc::new(
        rh_kv::KvStore::create(&heap, rh_kv::KvConfig::tiny(kv_shards))
            .expect("heap too small for the case store"),
    );
    for key in 1..=case.slots as u64 {
        store.load(&heap, key, KV_BALANCE).expect("tiny store cannot hold the case keys");
    }
    let initial_sum = store.sum_direct(&heap);
    let initial: HashMap<u64, u64> = store.snapshot_words(&heap);

    let recorder = Recorder::new();
    let bodies: Vec<Box<dyn FnOnce() + Send>> = kv_scripts(case, sched_cfg.seed)
        .into_iter()
        .enumerate()
        .map(|(tid, requests)| {
            let rt = Arc::clone(&rt);
            let store = Arc::clone(&store);
            let sink: Arc<dyn TraceSink> = Arc::clone(&recorder) as Arc<dyn TraceSink>;
            Box::new(move || {
                trace::install(sink, tid);
                let mut session = rt.open_session().expect("free worker slot");
                for request in &requests {
                    match *request {
                        KvOp::Get(key) => {
                            store.get(&mut session, key).expect("get cannot fault");
                        }
                        KvOp::Transfer(src, dst, amount) => {
                            store
                                .transfer(&mut session, src, dst, amount)
                                .expect("transfer cannot fault");
                        }
                    }
                }
                drop(session);
                trace::uninstall();
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();

    let run = match catch_unwind(AssertUnwindSafe(|| sched::run_threads(sched_cfg, bodies))) {
        Ok(run) => run,
        Err(payload) => {
            return Err(CaseFailure::Panicked {
                seed: sched_cfg.seed,
                guided: sched_cfg.guided.clone(),
                message: panic_message(&payload),
            })
        }
    };

    // The app-level invariant first: a stale-credit transfer produces a
    // perfectly serializable history of blind writes, so only the
    // balance sum betrays it.
    let final_sum = store.sum_direct(&heap);
    if final_sum != initial_sum {
        return Err(CaseFailure::Panicked {
            seed: sched_cfg.seed,
            guided: sched_cfg.guided.clone(),
            message: format!(
                "workload invariant: KV balance sum drifted {initial_sum} -> {final_sum} \
                 (transfers and gets conserve it)"
            ),
        });
    }

    let history = recorder.take();
    match verdict::judge(&initial, &history) {
        Ok(judgement) => Ok(CaseReport {
            history,
            run,
            summary: judgement.opacity,
            serializability: judgement.serializability,
        }),
        Err(verdict) => Err(CaseFailure::Violation {
            seed: sched_cfg.seed,
            guided: sched_cfg.guided.clone(),
            verdict,
            history,
            decisions: run.decisions,
            shrunk: None,
        }),
    }
}

/// Seed-derived flat transfer batch for a [`CaseWorkload::Batch`] case:
/// `threads * txs_per_thread` requests over `slots` hot keys, heavy on
/// transfers (seven in eight) so speculative rank chains actually form.
/// The vector index *is* the rank, and rank order is the serialization
/// the batch engine must realize. A distinct xor constant keeps the
/// stream independent of the per-thread script streams.
fn batch_ops(case: &CaseConfig, seed: u64) -> Vec<KvOp> {
    let keys = case.slots as u64;
    assert!(keys >= 2, "batch cases need at least two keys");
    let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
    (0..case.threads * case.txs_per_thread)
        .map(|_| {
            let r = splitmix(&mut rng);
            let src = 1 + (r >> 8) % keys;
            if r.is_multiple_of(8) {
                KvOp::Get(src)
            } else {
                let mut dst = 1 + (r >> 24) % keys;
                if dst == src {
                    dst = 1 + dst % keys;
                }
                KvOp::Transfer(src, dst, 1 + (r >> 48) % 3)
            }
        })
        .collect()
}

/// The [`CaseWorkload::Batch`] body of [`run_case`]: drives a seed-derived
/// transfer batch through [`rh_norec::batch::ParallelExecutor`] with
/// `threads` workers as virtual threads of the controlled scheduler, then
/// replays the committed per-rank records through both history oracles
/// **in rank order** — the serialization the batch engine claims. Each
/// rank appears as its own virtual thread committing one Stm transaction,
/// so any rank whose surviving read set is inconsistent with the ranks
/// below it (e.g. under `Mutant::BatchStaleEstimate`) breaks the oracle's
/// sequential replay. The balance-conservation invariant is checked
/// first, exactly as in the interactive KV cases.
fn run_batch_case(
    case: &CaseConfig,
    sched_cfg: &SchedConfig,
    kv_shards: usize,
) -> Result<CaseReport, CaseFailure> {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let store = rh_kv::KvStore::create(&heap, rh_kv::KvConfig::tiny(kv_shards))
        .expect("heap too small for the case store");
    for key in 1..=case.slots as u64 {
        store.load(&heap, key, KV_BALANCE).expect("tiny store cannot hold the case keys");
    }
    let initial_sum = store.sum_direct(&heap);
    let initial: HashMap<u64, u64> = store.snapshot_words(&heap);

    let ops = batch_ops(case, sched_cfg.seed);
    let batch: Vec<rh_kv::batch::KvBatchTxn<'_>> = ops
        .iter()
        .map(|op| {
            let op = match *op {
                KvOp::Get(key) => rh_kv::batch::BatchOp::Get { key },
                KvOp::Transfer(src, dst, amount) => {
                    rh_kv::batch::BatchOp::Transfer { src, dst, amount }
                }
            };
            rh_kv::batch::KvBatchTxn::new(&store, op)
        })
        .collect();

    let exec = rh_norec::batch::ParallelExecutor::new(
        Arc::clone(&heap),
        rh_norec::batch::BatchConfig::with_workers(case.threads),
    )
    .expect("harness batch config must be valid");
    if let Some(mutant) = case.mutant {
        exec.set_mutant(mutant, true);
    }

    let bounds = [batch.len()];
    let (report, run) = match catch_unwind(AssertUnwindSafe(|| {
        exec.execute_controlled(&batch[..], &bounds, sched_cfg)
    })) {
        Ok((report, _elapsed, run)) => (report, run),
        Err(payload) => {
            return Err(CaseFailure::Panicked {
                seed: sched_cfg.seed,
                guided: sched_cfg.guided.clone(),
                message: panic_message(&payload),
            })
        }
    };

    // The app-level invariant first, as in the interactive KV cases.
    let final_sum = store.sum_direct(&heap);
    if final_sum != initial_sum {
        return Err(CaseFailure::Panicked {
            seed: sched_cfg.seed,
            guided: sched_cfg.guided.clone(),
            message: format!(
                "workload invariant: KV balance sum drifted {initial_sum} -> {final_sum} \
                 (batched transfers and gets conserve it)"
            ),
        });
    }

    // Synthesize the rank-order history the engine claims: rank r is
    // virtual thread r, committing one Stm transaction whose reads and
    // writes are the final incarnation's captured sets.
    let mut history = Vec::with_capacity(report.committed().len() * 4);
    for (rank, record) in report.committed().iter().enumerate() {
        history.push(trace::Event {
            vtid: rank,
            kind: trace::EventKind::Begin { path: trace::Path::Stm },
        });
        for &(addr, value) in &record.reads {
            history.push(trace::Event { vtid: rank, kind: trace::EventKind::Read { addr, value } });
        }
        for &(addr, value) in &record.writes {
            history
                .push(trace::Event { vtid: rank, kind: trace::EventKind::Write { addr, value } });
        }
        history.push(trace::Event {
            vtid: rank,
            kind: trace::EventKind::Commit { path: trace::Path::Stm },
        });
    }

    match verdict::judge(&initial, &history) {
        Ok(judgement) => Ok(CaseReport {
            history,
            run,
            summary: judgement.opacity,
            serializability: judgement.serializability,
        }),
        Err(verdict) => Err(CaseFailure::Violation {
            seed: sched_cfg.seed,
            guided: sched_cfg.guided.clone(),
            verdict,
            history,
            decisions: run.decisions,
            shrunk: None,
        }),
    }
}

/// The [`CaseWorkload::StealService`] body of [`run_case`]: drives the
/// KV service tier's work-stealing pool under the controlled scheduler
/// ([`rh_kv::service::run_service_controlled`]) over a seed-derived
/// bursty transfer trace, records every worker session's history, and
/// judges it with both oracles. The runner's own invariants — every
/// request served exactly once, balance sum conserved — panic inside
/// the driver and surface as [`CaseFailure::Panicked`]. The
/// exactly-once trip is the declared kill signal of
/// `Mutant::StealBottomRace`: its double-served transfer still
/// conserves the balance sum, so only the served count betrays it.
///
/// The case's `clock_shards`, `backoff`, and `policy` fields are unused
/// here — the service tier builds its own runtime configuration (all
/// steal-service corpus recipes pin their defaults).
fn run_steal_case(
    case: &CaseConfig,
    sched_cfg: &SchedConfig,
    kv_shards: usize,
) -> Result<CaseReport, CaseFailure> {
    let trace_cfg = rh_kv::gen::TraceConfig {
        requests: case.threads * case.txs_per_thread,
        keyspace: case.slots as u64,
        // Uniform keys over the tiny keyspace: transfers contend anyway.
        zipf_theta: 0.0,
        mix: rh_kv::gen::Mix::transfer_heavy(),
        // Bursty arrivals: bursts pile backlog onto some deques while
        // calm gaps leave other workers modeled-idle — the shape that
        // makes steals (and the one-element owner/thief race) common.
        mean_interarrival_ns: 300,
        burst_factor: 16,
        burst_len: 5,
        seed: sched_cfg.seed,
    };
    let mut service_cfg =
        rh_kv::service::ServiceConfig::new(case.algorithm, case.threads, trace_cfg);
    service_cfg.htm = case.htm;
    // Case-sized, as in the other case kinds: the service tier's default
    // heap is sized for full traces, and zero-filling it dominated a case.
    service_cfg.heap_words = 1 << 16;
    service_cfg.kv = rh_kv::KvConfig::tiny(kv_shards);
    service_cfg.sched = rh_kv::service::SchedPolicy::Steal { enabled: true };
    service_cfg.armed_mutants = case.mutant.into_iter().collect();

    let recorder = Recorder::new();
    let initial: std::sync::Mutex<HashMap<u64, u64>> = std::sync::Mutex::new(HashMap::new());
    let on_ready = |heap: &Heap, store: &rh_kv::KvStore| {
        *initial.lock().expect("snapshot lock cannot be poisoned") = store.snapshot_words(heap);
    };
    let sink_source = Arc::clone(&recorder);
    let on_start = move |tid: usize| {
        trace::install(Arc::clone(&sink_source) as Arc<dyn TraceSink>, tid);
    };
    let on_done = |_tid: usize| trace::uninstall();

    let run = match catch_unwind(AssertUnwindSafe(|| {
        rh_kv::service::run_service_controlled(
            &service_cfg,
            sched_cfg,
            &on_ready,
            &on_start,
            &on_done,
        )
    })) {
        Ok((_report, run)) => run,
        Err(payload) => {
            return Err(CaseFailure::Panicked {
                seed: sched_cfg.seed,
                guided: sched_cfg.guided.clone(),
                message: panic_message(&payload),
            })
        }
    };

    let initial = initial.into_inner().expect("snapshot lock cannot be poisoned");
    let history = recorder.take();
    match verdict::judge(&initial, &history) {
        Ok(judgement) => Ok(CaseReport {
            history,
            run,
            summary: judgement.opacity,
            serializability: judgement.serializability,
        }),
        Err(verdict) => Err(CaseFailure::Violation {
            seed: sched_cfg.seed,
            guided: sched_cfg.guided.clone(),
            verdict,
            history,
            decisions: run.decisions,
            shrunk: None,
        }),
    }
}

/// [`run_case`], plus failure minimization: a [`CaseFailure::Violation`]
/// comes back with its [`Shrunk`] reproduction attached (when the shrink
/// reproduces — it replays the run's own decision log, so it practically
/// always does). Panics carry no decision log to shrink and are returned
/// unchanged.
///
/// # Errors
///
/// Same conditions as [`run_case`].
pub fn run_case_minimized(
    case: &CaseConfig,
    sched_cfg: &SchedConfig,
) -> Result<CaseReport, CaseFailure> {
    match run_case(case, sched_cfg) {
        Err(CaseFailure::Violation { seed, guided, verdict, history, decisions, .. }) => {
            let chosen: Vec<usize> = decisions.iter().map(|d| d.chosen).collect();
            let shrunk = shrink::minimize(case, sched_cfg, &chosen);
            Err(CaseFailure::Violation { seed, guided, verdict, history, decisions, shrunk })
        }
        other => other,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The privatization idiom of `conformance.rs::privatization_is_safe`,
/// under a controlled schedule: two writers increment a node while it is
/// linked; a privatizer transactionally unlinks it and then accesses it
/// non-transactionally. Any straggler transaction writing the private
/// node after the unlink commit is a privatization violation.
///
/// # Errors
///
/// [`CaseFailure::Panicked`] carrying the replay seed when the idiom's
/// invariant breaks (or an algorithm assertion fires).
pub fn privatization_case(
    algorithm: Algorithm,
    htm: HtmConfig,
    clock_shards: u32,
    seed: u64,
) -> Result<(), CaseFailure> {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm_dev = Htm::new(Arc::clone(&heap), htm);
    let tm_cfg = TmConfig::builder(algorithm)
        .clock_shards(clock_shards)
        .build()
        .expect("harness privatization config must be valid");
    let rt = TmRuntime::new(Arc::clone(&heap), htm_dev, tm_cfg)
        .expect("harness runtime construction cannot fail");

    let alloc = heap.allocator();
    let head = alloc.alloc(0, 8).expect("heap too small");
    let node = alloc.alloc(0, 8).expect("heap too small");
    heap.store(head, node.to_word());

    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for _ in 0..2usize {
        let mut worker = rt.open_session().expect("free worker slot");
        let done = Arc::clone(&done);
        bodies.push(Box::new(move || {
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                worker.execute(TxKind::ReadWrite, |tx| {
                    let target = tx.read_addr(head)?;
                    if !target.is_null() {
                        let v = tx.read(target)?;
                        tx.write(target, v + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    {
        let mut worker = rt.open_session().expect("free worker slot");
        let heap = Arc::clone(&heap);
        let done = Arc::clone(&done);
        bodies.push(Box::new(move || {
            // Let the writers churn for a few scheduling quanta.
            for _ in 0..32 {
                sched::yield_point();
            }
            worker.execute(TxKind::ReadWrite, |tx| tx.write_addr(head, Addr::NULL));
            // The node is now private: plain accesses must be stable
            // against any straggler transaction.
            heap.store(node, 777);
            for _ in 0..64 {
                sched::yield_point();
                assert_eq!(
                    heap.load(node),
                    777,
                    "{algorithm:?} privatization violated: a transaction wrote a private node"
                );
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        }));
    }

    let cfg = SchedConfig::from_seed(seed);
    match catch_unwind(AssertUnwindSafe(|| sched::run_threads(&cfg, bodies))) {
        Ok(_) => Ok(()),
        Err(payload) => Err(CaseFailure::Panicked {
            seed,
            guided: None,
            message: panic_message(&payload),
        }),
    }
}
