//! Work-stealing service-scheduler parity and oracle sweep.
//!
//! The steal runner's safety story has three legs, each pinned here
//! under the deterministic cooperative scheduler:
//!
//! 1. **Parity by construction** — at one worker, and at N workers with
//!    stealing disabled, the steal runner replays **bit-for-bit
//!    identical event histories** to the static partition (same engine,
//!    same trace seed, same schedule seed). The owner-only deque fast
//!    path takes no extra scheduler decision points, so the runs are
//!    literally the same computation.
//! 2. **Determinism** — with stealing enabled, the whole run (histories
//!    included, every steal race resolved) is a pure function of the
//!    seed pair: replaying the same seeds reproduces the identical
//!    history.
//! 3. **Oracle coverage** — steal-scheduled histories, and the batch
//!    pipeline's chained (cross-block handoff) executions, pass both the
//!    opacity and strict-serializability oracles at kv shard counts
//!    {1, 4} across the paper engines.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rh_kv::former::{Former, FormerConfig, Segment};
use rh_kv::gen::{self, Mix, TraceConfig};
use rh_kv::service::{run_service_controlled, SchedPolicy, ServiceConfig};
use rh_kv::{KvConfig, KvStore};
use rh_norec::batch::{BatchConfig, ParallelExecutor};
use rh_norec::Algorithm;
use sim_htm::sched::SchedConfig;
use sim_mem::{Heap, HeapConfig};
use tm_check::harness::{run_case, CaseConfig};
use tm_check::trace::{self, TraceSink};
use tm_check::{verdict, Recorder};

const ENGINES: [Algorithm; 5] = [
    Algorithm::LockElision,
    Algorithm::Norec,
    Algorithm::Tl2,
    Algorithm::HybridNorec,
    Algorithm::RhNorec,
];
const KV_SHARDS: [usize; 2] = [1, 4];

/// A small bursty transfer trace: bursts pile backlog onto some workers
/// while calm gaps leave others modeled-idle, so steals actually fire.
fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        requests: 120,
        keyspace: 16,
        zipf_theta: 0.0,
        mix: Mix::transfer_heavy(),
        mean_interarrival_ns: 300,
        burst_factor: 16,
        burst_len: 6,
        seed,
    }
}

/// Runs one controlled service cell and returns the recorded global
/// event history plus how many requests were served off stolen slots.
fn controlled_history(
    algorithm: Algorithm,
    threads: usize,
    sched: SchedPolicy,
    trace_seed: u64,
    sched_seed: u64,
) -> (Vec<trace::Event>, u64) {
    let mut config = ServiceConfig::new(algorithm, threads, trace_config(trace_seed));
    config.sched = sched;
    let recorder = Recorder::new();
    let sink_source = Arc::clone(&recorder);
    let on_start = move |tid: usize| {
        trace::install(Arc::clone(&sink_source) as Arc<dyn TraceSink>, tid);
    };
    let (report, _run) = run_service_controlled(
        &config,
        &SchedConfig::from_seed(sched_seed),
        &|_heap, _store| {},
        &on_start,
        &|_tid| trace::uninstall(),
    );
    (recorder.take(), report.stolen)
}

#[test]
fn steal_disabled_replays_the_static_history_bit_for_bit() {
    for algorithm in ENGINES {
        for trace_seed in [0, 7] {
            for sched_seed in [1, 5] {
                let (baseline, _) = controlled_history(
                    algorithm,
                    3,
                    SchedPolicy::Static,
                    trace_seed,
                    sched_seed,
                );
                let (parity, stolen) = controlled_history(
                    algorithm,
                    3,
                    SchedPolicy::Steal { enabled: false },
                    trace_seed,
                    sched_seed,
                );
                assert_eq!(stolen, 0, "{algorithm:?}: disabled stealing must not steal");
                assert_eq!(
                    parity, baseline,
                    "{algorithm:?} trace={trace_seed} sched={sched_seed}: \
                     steal-disabled history diverged from the static partition"
                );
            }
        }
    }
}

#[test]
fn a_one_worker_steal_pool_is_the_static_run() {
    for algorithm in [Algorithm::RhNorec, Algorithm::LockElision] {
        for sched_seed in [0, 3] {
            let (baseline, _) =
                controlled_history(algorithm, 1, SchedPolicy::Static, 2, sched_seed);
            let (parity, stolen) = controlled_history(
                algorithm,
                1,
                SchedPolicy::Steal { enabled: true },
                2,
                sched_seed,
            );
            assert_eq!(stolen, 0, "a one-worker pool has no victims");
            assert_eq!(
                parity, baseline,
                "{algorithm:?} sched={sched_seed}: one-worker steal run diverged"
            );
        }
    }
}

#[test]
fn steal_runs_are_a_pure_function_of_the_seed() {
    let mut any_stolen = 0u64;
    for algorithm in [Algorithm::RhNorec, Algorithm::HybridNorec] {
        for sched_seed in 0..4 {
            let (a, stolen_a) = controlled_history(
                algorithm,
                3,
                SchedPolicy::Steal { enabled: true },
                4,
                sched_seed,
            );
            let (b, stolen_b) = controlled_history(
                algorithm,
                3,
                SchedPolicy::Steal { enabled: true },
                4,
                sched_seed,
            );
            assert_eq!(stolen_a, stolen_b, "{algorithm:?} sched={sched_seed}");
            assert_eq!(
                a, b,
                "{algorithm:?} sched={sched_seed}: replay with identical seeds \
                 must reproduce the identical history, steal races included"
            );
            any_stolen += stolen_a;
        }
    }
    assert!(
        any_stolen > 0,
        "the bursty parity trace never triggered a steal — the determinism \
         claim would be vacuous"
    );
}

#[test]
fn steal_histories_satisfy_both_oracles_at_both_shard_counts() {
    for algorithm in ENGINES {
        for kv_shards in KV_SHARDS {
            let case =
                CaseConfig::steal_service(algorithm, sim_htm::HtmConfig::default(), kv_shards);
            for seed in 0..4 {
                let report = run_case(&case, &SchedConfig::from_seed(seed))
                    .unwrap_or_else(|f| {
                        panic!("{algorithm:?} shards={kv_shards} seed={seed}: {f}")
                    });
                assert!(report.summary.commits > 0, "the case must commit work");
            }
        }
    }
}

/// The batch pipeline's chained execution (cross-block handoff) replays
/// clean through both oracles: the former cuts a bursty trace into
/// blocks, the executor runs them as one chain under the controlled
/// scheduler, and the committed per-rank records — in rank order, the
/// serialization the chain claims — must satisfy opacity and strict
/// serializability over the store's initial words.
#[test]
fn chained_blocks_replay_clean_through_the_oracles() {
    const KEYSPACE: u64 = 12;
    const BALANCE: u64 = 100;
    for kv_shards in KV_SHARDS {
        for seed in 0..3 {
            let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 18 }));
            let store = KvStore::create(
                &heap,
                KvConfig {
                    shards: kv_shards,
                    buckets_per_shard: 2,
                    slots_per_bucket: KEYSPACE as usize,
                },
            )
            .expect("test heap fits the store");
            for key in 1..=KEYSPACE {
                store.load(&heap, key, BALANCE).expect("geometry holds the keyspace");
            }
            let initial: HashMap<u64, u64> = store.snapshot_words(&heap);

            let trace_cfg = TraceConfig { requests: 96, ..trace_config(seed) };
            let trace = gen::generate(&trace_cfg);
            let mut former = Former::new(FormerConfig { min_batch: 2, ..FormerConfig::default() });
            let mut txns = Vec::new();
            let mut bounds = Vec::new();
            for segment in former.form(&trace) {
                if let Segment::Batch { start, len, .. } = *segment {
                    for request in &trace[start..start + len] {
                        txns.push(rh_kv::batch::KvBatchTxn::new(
                            &store,
                            rh_kv::batch::BatchOp::from_request(request),
                        ));
                    }
                    bounds.push(txns.len());
                }
            }
            assert!(bounds.len() >= 2, "the bursty trace must form at least two blocks");

            let exec = ParallelExecutor::new(Arc::clone(&heap), BatchConfig::with_workers(3))
                .expect("test batch config is valid");
            let (report, elapsed, _run) = exec.execute_controlled(
                &txns[..],
                &bounds,
                &SchedConfig::from_seed(seed),
            );
            assert_eq!(report.txs(), txns.len() as u64);
            assert_eq!(elapsed.len(), bounds.len());
            assert!(
                elapsed.windows(2).all(|w| w[0] <= w[1]),
                "per-block completion marks must be non-decreasing"
            );
            assert_eq!(store.sum_direct(&heap), KEYSPACE * BALANCE, "chain drifted the sum");

            // Rank order is the claimed serialization: replay it.
            let mut history = Vec::new();
            for (rank, record) in report.committed().iter().enumerate() {
                history.push(trace::Event {
                    vtid: rank,
                    kind: trace::EventKind::Begin { path: trace::Path::Stm },
                });
                for &(addr, value) in &record.reads {
                    history.push(trace::Event {
                        vtid: rank,
                        kind: trace::EventKind::Read { addr, value },
                    });
                }
                for &(addr, value) in &record.writes {
                    history.push(trace::Event {
                        vtid: rank,
                        kind: trace::EventKind::Write { addr, value },
                    });
                }
                history.push(trace::Event {
                    vtid: rank,
                    kind: trace::EventKind::Commit { path: trace::Path::Stm },
                });
            }
            verdict::judge(&initial, &history).unwrap_or_else(|v| {
                panic!("shards={kv_shards} seed={seed}: chained-block history rejected: {v}")
            });
        }
    }
}

/// The steal-enabled free-running pool is exercised elsewhere; here the
/// controlled runner's report invariants are pinned once: exactly-once
/// service (the runner asserts it internally), conservation, and a
/// steal count that the seed fully determines.
#[test]
fn controlled_steal_reports_are_conserved_and_deterministic() {
    let mut config = ServiceConfig::new(Algorithm::RhNorec, 3, trace_config(9));
    config.sched = SchedPolicy::Steal { enabled: true };
    let noop = |_: usize| {};
    let snapshot: Mutex<Option<HashMap<u64, u64>>> = Mutex::new(None);
    let (report, run) = run_service_controlled(
        &config,
        &SchedConfig::from_seed(2),
        &|heap, store| *snapshot.lock().unwrap() = Some(store.snapshot_words(heap)),
        &noop,
        &noop,
    );
    assert_eq!(report.requests, 120);
    assert_eq!(report.conserved, Some(true));
    assert!(snapshot.lock().unwrap().is_some(), "on_ready must run before the workers");
    let (report2, run2) = run_service_controlled(
        &config,
        &SchedConfig::from_seed(2),
        &|_h, _s| {},
        &noop,
        &noop,
    );
    assert_eq!(report.stolen, report2.stolen);
    assert_eq!(run.steps, run2.steps, "controlled replays must take identical step counts");
}
