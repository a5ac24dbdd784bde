//! Seeding: `--seed` decides every input, the same seed reproduces every
//! exact counter, and another seed gives other inputs.

use rh_benchmark::util::{derive, Rng};

#[test]
fn derived_seeds_are_stable_and_independent() {
    assert_eq!(derive(1, "tree-keys", 0), derive(1, "tree-keys", 0));
    assert_ne!(derive(1, "tree-keys", 0), derive(2, "tree-keys", 0));
    assert_ne!(derive(1, "tree-keys", 0), derive(1, "tree-ops", 0));
    assert_ne!(derive(1, "t2", 0), derive(1, "t2", 1));
    let mut a = Rng::new(9);
    let mut b = Rng::new(9);
    assert!((0..1_000).all(|_| a.below(20_000) == b.below(20_000)));
    assert!((0..1_000).all(|_| a.below(100) < 100));
}

#[cfg(not(feature = "controlled"))]
mod free {
    use rh_benchmark::surface::generate;
    use rh_benchmark::workloads::kv::{self, ServiceSpec};
    use rh_benchmark::workloads::rbtree::{self, TreeSpec};

    fn exact(outcome: &rh_benchmark::report::Outcome) -> f64 {
        assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.errors);
        outcome.get("modeled_cyc_per_op_t1").expect("measured").value
    }

    #[test]
    fn one_worker_tree_cycles_repeat_exactly_and_follow_the_seed() {
        for spec in [TreeSpec::read(), TreeSpec::fallback()] {
            let first = exact(&rbtree::run(spec, 11, 0.05));
            assert_eq!(first, exact(&rbtree::run(spec, 11, 0.05)));
            assert_ne!(first, exact(&rbtree::run(spec, 12, 0.05)));
        }
    }

    #[test]
    fn the_trace_follows_the_seed() {
        let trace = |seed| {
            let config = ServiceSpec::serve().config(1, 500, kv::RATES_NS[kv::R2], seed, 0);
            generate(&config.trace).iter().map(|r| (r.at_ns, r.key, r.key2, r.amount)).collect::<Vec<_>>()
        };
        assert_eq!(trace(5), trace(5));
        assert_ne!(trace(5), trace(6));
    }

    #[test]
    fn one_worker_service_sojourn_repeats_exactly() {
        for spec in [ServiceSpec::serve(), ServiceSpec::batch()] {
            // `run` itself fails the t1 phase when its calls on one
            // trace disagree; two runs must agree too.
            let (first, again) = (kv::run(spec, 21, 0.02), kv::run(spec, 21, 0.02));
            assert_eq!(exact(&first), exact(&again));
            assert_ne!(exact(&first), exact(&kv::run(spec, 22, 0.02)));
            // Every gated modeled number of `kv-batch` is one worker's,
            // whatever order the host runs its two-worker calls in.
            if spec.batch {
                for name in ["modeled_mops", "sojourn_p99_ns"] {
                    assert_eq!(first.get(name).unwrap().value, again.get(name).unwrap().value, "{name}");
                }
            }
        }
    }
}

#[cfg(feature = "controlled")]
mod controlled {
    use rh_benchmark::workloads::replay;

    #[test]
    fn replayed_cases_repeat_their_step_and_event_counts() {
        let cases = replay::cases(31, 3);
        let (first, _) = replay::pass(&cases, None).expect("clean engines pass the oracles");
        let (again, _) = replay::pass(&cases, None).expect("clean engines pass the oracles");
        assert_eq!(first, again);
        let (busy, _) = replay::pass_beside_busy_core(&cases).expect("clean engines pass the oracles");
        assert_eq!(first, busy, "a busy second core changes no simulated count");
        assert!(first.iter().all(|c| c.steps > 0 && c.events > 0));
        let (other, _) = replay::pass(&replay::cases(32, 3), None).expect("clean engines pass the oracles");
        assert_ne!(first, other, "another seed gives other schedules");
    }

    #[test]
    fn the_replay_workload_reports_exact_counters() {
        let a = replay::run(41, 0.2);
        let b = replay::run(41, 0.2);
        assert_eq!(a.tally.failed, 0, "{:?}", a.tally.errors);
        for name in ["modeled_cyc_per_op_t1", "modeled_mops", "sojourn_p99_ns"] {
            assert_eq!(a.get(name).unwrap().value, b.get(name).unwrap().value, "{name}");
        }
    }
}
