//! Parity pins and seeded claims for the active-lane controller.
//!
//! The controller is default-off, and off must mean *off*: a builder
//! that never mentions the policy, a builder handed an explicitly
//! disabled [`PolicyConfig`], and an enabled controller on a single
//! clock (which has no lanes to adapt) must replay any seeded schedule
//! bit-for-bit identically — same event history, same scheduler
//! decision count. If a code change ever lets an idle controller leak a
//! yield, a counter round-trip through the shared heap, or an extra
//! clock read into the transactional path, these histories diverge and
//! this test names the seed.
//!
//! With the controller *on*, runs stay a pure function of the schedule
//! seed: it draws only on deterministic per-thread counters and the
//! seeded scheduler, never wall-clock time or OS randomness, so the same
//! seed replays the same history twice. That makes its payoff exactly
//! measurable: [`seeded_lane_grid_tracks_the_better_static_setting`]
//! replays four contention cells at static1, static4 and adaptive and
//! asserts who wins each, on modeled cycles.

use std::sync::{Arc, Mutex};

use rh_norec::{Algorithm, PolicyConfig, TmConfig, TmRuntime, TxKind};
use sim_htm::sched::{run_threads, SchedConfig};
use sim_htm::{Htm, HtmConfig};
use sim_mem::{Addr, Heap, HeapConfig, WORDS_PER_LINE};
use tm_check::harness::{adaptive_policy, run_case, CaseConfig};

/// Algorithms covering every surface the controller reads or rules:
/// NOrec's software validation loop, the lazy variant's commit CAS,
/// TL2's stripes, and both hybrids' hardware commits.
const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Norec,
    Algorithm::NorecLazy,
    Algorithm::Tl2,
    Algorithm::HybridNorec,
    Algorithm::RhNorec,
];

/// An explicitly disabled policy: the tightest epoch — and the master
/// switch off. `enabled: false` must gate everything.
fn disabled_policy() -> PolicyConfig {
    PolicyConfig { enabled: false, ..adaptive_policy() }
}

#[test]
fn explicitly_disabled_policy_replays_bit_for_bit_as_default() {
    for alg in ALGORITHMS {
        for htm in [HtmConfig::default(), HtmConfig::disabled()] {
            for shards in [1u32, 4] {
                // With one lane the controller cannot act, so an enabled
                // one must replay like policy off too.
                let idle: &[(&str, PolicyConfig)] = if shards == 1 {
                    &[("explicit off", disabled_policy()), ("adaptive", adaptive_policy())]
                } else {
                    &[("explicit off", disabled_policy())]
                };
                for seed in 0..4u64 {
                    let sched = SchedConfig::from_seed(seed);
                    let mut case = CaseConfig::contended(alg, htm);
                    case.clock_shards = shards;

                    case.policy = None;
                    let baseline = run_case(&case, &sched).unwrap_or_else(|f| {
                        panic!("{alg:?} shards={shards} seed {seed} (policy off): {f}")
                    });

                    for &(label, policy) in idle {
                        case.policy = Some(policy);
                        let replay = run_case(&case, &sched).unwrap_or_else(|f| {
                            panic!("{alg:?} shards={shards} seed {seed} ({label}): {f}")
                        });
                        assert_eq!(
                            replay.history, baseline.history,
                            "{alg:?} shards={shards} seed {seed}: the {label} policy \
                             changed the deterministic history"
                        );
                        assert_eq!(
                            replay.run.steps, baseline.run.steps,
                            "{alg:?} shards={shards} seed {seed}: the {label} policy \
                             changed the scheduler step count"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn adaptive_policy_replay_is_a_pure_function_of_the_seed() {
    for alg in ALGORITHMS {
        for shards in [1u32, 4, 8] {
            for seed in 0..4u64 {
                let sched = SchedConfig::from_seed(seed);
                let mut case = CaseConfig::contended(alg, HtmConfig::default());
                case.clock_shards = shards;
                case.policy = Some(adaptive_policy());

                let first = run_case(&case, &sched).unwrap_or_else(|f| {
                    panic!("{alg:?} shards={shards} seed {seed} (adaptive): {f}")
                });
                let second = run_case(&case, &sched).unwrap_or_else(|f| {
                    panic!("{alg:?} shards={shards} seed {seed} (adaptive replay): {f}")
                });

                assert_eq!(
                    first.history, second.history,
                    "{alg:?} shards={shards} seed {seed}: the adaptive policy made \
                     the same schedule seed replay two different histories"
                );
            }
        }
    }
}

/// The parity tests above would pass vacuously if the controller never
/// engaged. Pin that it does: under a sharded clock its shrink decisions
/// change spin counts and snapshot contents, so at least one seeded
/// contended run must diverge from its policy-off twin.
#[test]
fn adaptive_policy_actually_engages_under_sharded_contention() {
    let mut diverged = false;
    for seed in 0..8u64 {
        let sched = SchedConfig::from_seed(seed);
        let mut case = CaseConfig::contended(Algorithm::Norec, HtmConfig::disabled());
        case.clock_shards = 8;

        case.policy = None;
        let off = run_case(&case, &sched)
            .unwrap_or_else(|f| panic!("seed {seed} (policy off): {f}"));
        case.policy = Some(adaptive_policy());
        let on = run_case(&case, &sched)
            .unwrap_or_else(|f| panic!("seed {seed} (adaptive): {f}"));

        if on.history != off.history || on.run.steps != off.run.steps {
            diverged = true;
            break;
        }
    }
    assert!(
        diverged,
        "8 contended seeds at clock_shards=8 produced identical histories with \
         the adaptive policy on and off — the controller never engaged"
    );
}

/// Both oracles over a seeded sweep with the controller running — it
/// must never trade opacity for throughput.
#[test]
fn adaptive_policy_sweep_stays_opaque() {
    for alg in ALGORITHMS {
        for htm in [HtmConfig::default(), HtmConfig::disabled()] {
            for shards in [1u32, 4, 8] {
                for seed in 0..12u64 {
                    let sched = SchedConfig::from_seed(seed);
                    let mut case = CaseConfig::contended(alg, htm);
                    case.clock_shards = shards;
                    case.policy = Some(adaptive_policy());
                    run_case(&case, &sched).unwrap_or_else(|f| {
                        panic!("{alg:?} {htm:?} shards={shards} seed {seed}: {f}")
                    });
                }
            }
        }
    }
}

/// One cell of the lane grid, all on RH NOrec (the paper's engine).
struct GridCell {
    name: &'static str,
    threads: usize,
    /// HTM enabled (Haswell defaults) or disabled (software paths only).
    htm: bool,
    /// A private line-padded word per thread instead of one shared word.
    disjoint: bool,
    /// `false`: increment the word; `true`: 16 blind writes cycling over
    /// 4 words.
    write_heavy: bool,
}

/// The grid's four cells:
///
/// * `contended` — 4 threads incrementing one shared word, HTM disabled:
///   the software slow path under data contention, where extra lanes are
///   pure validation tax.
/// * `contended_disjoint` — 4 threads on private words, HTM on, with the
///   fallback counter pinned so hardware commits bump the clock: every
///   conflict is commit-clock metadata, the case lanes exist for.
/// * `contended_sharded` — the same at 8 threads.
/// * `write_heavy` — one thread, HTM disabled: the uncontended software
///   baseline, where any controller overhead would show undiluted.
const GRID: [GridCell; 4] = [
    GridCell {
        name: "contended",
        threads: 4,
        htm: false,
        disjoint: false,
        write_heavy: false,
    },
    GridCell {
        name: "contended_disjoint",
        threads: 4,
        htm: true,
        disjoint: true,
        write_heavy: false,
    },
    GridCell {
        name: "contended_sharded",
        threads: 8,
        htm: true,
        disjoint: true,
        write_heavy: false,
    },
    GridCell {
        name: "write_heavy",
        threads: 1,
        htm: false,
        disjoint: false,
        write_heavy: true,
    },
];

/// Transactions per virtual thread in every grid cell.
const GRID_TXS: u64 = 500;

/// Total modeled cycles of one grid cell under the controlled scheduler:
/// every attempt's body, abort penalty, retry, backoff and lane
/// validation at the simulator's published costs, summed over threads.
fn grid_cycles(cell: &GridCell, shards: u32, adaptive: bool, seed: u64) -> u64 {
    let heap = Arc::new(Heap::new(HeapConfig { words: 1 << 16 }));
    let htm_cfg = if cell.htm { HtmConfig::default() } else { HtmConfig::disabled() };
    let htm = Htm::new(Arc::clone(&heap), htm_cfg);
    let mut builder = TmConfig::builder(Algorithm::RhNorec).clock_shards(shards);
    if adaptive {
        builder = builder.policy(PolicyConfig::adaptive());
    }
    let rt = TmRuntime::new(Arc::clone(&heap), htm, builder.build().expect("grid config"))
        .expect("grid runtime");
    let alloc = heap.allocator();
    let words = if cell.disjoint { cell.threads } else { 1 };
    // Line-padded: the simulated HTM conflicts at line granularity, and
    // data false sharing would mask the clock-metadata effect.
    let targets: Vec<Addr> =
        (0..words).map(|_| alloc.alloc(0, WORDS_PER_LINE).expect("grid heap")).collect();
    if cell.disjoint {
        // With the counter at 0 hardware commits skip the clock bump and
        // the disjoint cells would measure nothing.
        heap.store(rt.globals().num_of_fallbacks, 1);
    }

    let cycles = Mutex::new(0u64);
    let bodies: Vec<_> = (0..cell.threads)
        .map(|tid| {
            // Opened in tid order: the id fixes the home lane.
            let mut worker = rt.open_session().expect("free worker slot");
            let target = targets[tid % targets.len()];
            let cycles = &cycles;
            let write_heavy = cell.write_heavy;
            move || {
                for _ in 0..GRID_TXS {
                    worker.execute(TxKind::ReadWrite, |tx| {
                        if write_heavy {
                            for i in 0..16u64 {
                                tx.write(target.offset(i & 3), i)?;
                            }
                            Ok(())
                        } else {
                            let v = tx.read(target)?;
                            tx.write(target, v.wrapping_add(1))
                        }
                    });
                }
                *cycles.lock().unwrap() += worker.stats().cycles;
            }
        })
        .collect();
    run_threads(&SchedConfig::from_seed(seed), bodies);

    if !cell.write_heavy {
        let per_word = GRID_TXS * (cell.threads / words) as u64;
        for &t in &targets {
            assert_eq!(heap.load(t), per_word, "{} seed {seed}: lost updates", cell.name);
        }
    }
    cycles.into_inner().unwrap()
}

/// Seed 1's exact cycle totals per cell: (static1, static4, adaptive).
/// A change that moves any of them moved the engine, the controller or
/// the cost model; re-pin only when the move is intended and explained.
const SEED1_CYCLES: [(&str, [u64; 3]); 4] = [
    ("contended", [787_681, 844_633, 794_870]),
    ("contended_disjoint", [314_190, 174_000, 174_000]),
    ("contended_sharded", [1_010_674, 442_979, 436_397]),
    ("write_heavy", [166_500, 166_500, 166_500]),
];

/// The lane controller's claim, replayed under the controlled scheduler
/// where modeled cycles are a pure function of the seed: static4 beats
/// static1 where commits are disjoint and loses where they contend on
/// data, and adaptive tracks the better static setting in every cell.
#[test]
fn seeded_lane_grid_tracks_the_better_static_setting() {
    for seed in [1u64, 2, 3] {
        for cell in &GRID {
            let s1 = grid_cycles(cell, 1, false, seed);
            let s4 = grid_cycles(cell, 4, false, seed);
            let ad = grid_cycles(cell, 4, true, seed);
            let at =
                format!("{} seed {seed}: static1 {s1}, static4 {s4}, adaptive {ad}", cell.name);
            match cell.name {
                "contended" => {
                    assert!(ad < s4, "{at}: adaptive must shed the lanes' validation tax");
                    assert!(ad.abs_diff(s1) * 50 <= s1, "{at}: adaptive not within 2% of static1");
                }
                "contended_disjoint" => {
                    assert!(ad == s4 && s4 < s1, "{at}: adaptive must keep the lanes that win");
                }
                "contended_sharded" => {
                    assert!(ad <= s4 && s4 < s1, "{at}: adaptive must keep the lanes that win");
                }
                _ => assert!(s1 == s4 && s4 == ad, "{at}: a lone writer must cost the same"),
            }
            if seed == 1 {
                let pinned = SEED1_CYCLES.iter().find(|(name, _)| *name == cell.name).unwrap().1;
                assert_eq!([s1, s4, ad], pinned, "{at}: pinned cycle totals moved");
            }
        }
    }
}
