//! Cooperative deterministic scheduling of virtual threads.
//!
//! HyTM bugs live in rare fast-path/slow-path interleavings that OS
//! scheduling almost never produces, and never reproduces. This module
//! makes the interleaving a *function of a `u64` seed*: test threads run
//! as real OS threads, but exactly one is runnable at a time, and every
//! context switch happens at an instrumented *yield point* (each
//! transactional op in [`HtmThread`](crate::HtmThread), every slow-path
//! global access in the TM algorithms). At each yield point the scheduler
//! picks the next runnable thread from a seeded RNG — so a failing seed
//! replays the exact interleaving — or from an explicit choice list, which
//! lets an explorer enumerate all interleavings up to a bounded depth.
//!
//! **Hand-off.** One mutex guards every scheduling decision: the runnable
//! set, the RNG draws, the decision log and the step count. The decision's
//! outcome is published in an atomic *turn* word (plus a poison flag), and
//! each virtual thread records its `std::thread::Thread` when it attaches,
//! so a hand-off stores the turn and unparks exactly the chosen thread.
//! A waiting thread re-checks the turn, calling `std::thread::yield_now`
//! in between, and parks only after a fixed budget of such checks: a
//! short wait never reaches the futex, and a long one stops competing for
//! a core with the thread whose turn it is. A panic or the step cap sets
//! the poison flag and unparks every thread so each one unwinds. Park and
//! unpark carry a token, so a wake-up that lands before its target parks
//! is not lost.
//!
//! The scheduler also supports *seeded abort injection*: at each
//! transactional access it can force a capacity / conflict / spurious
//! abort, again as a pure function of the seed, so fallback-path
//! interleavings get explored too.
//!
//! Code under test does not take a scheduler handle; instrumented points
//! call the free functions [`yield_point`] and [`injected_abort`], which
//! consult a thread-local set only for threads spawned through
//! `run_threads`. Outside a controlled run both are no-ops, so
//! instrumented paths pay one thread-local read.
//!
//! The whole machinery is gated behind the `deterministic` cargo feature
//! (enabled by `tm-check` and the workspace test builds). Without the
//! feature only the hook functions remain, as empty `#[inline(always)]`
//! bodies the optimizer erases — release benchmark builds pay nothing,
//! not even the thread-local read.

/// An abort kind forced by the scheduler at a transactional access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedAbort {
    /// A transient event (interrupt, TLB miss) killed the transaction.
    Spurious,
    /// The speculative footprint overflowed.
    Capacity,
    /// A (phantom) coherence conflict killed the transaction.
    Conflict,
}

#[cfg(feature = "deterministic")]
mod controlled {
    use super::InjectedAbort;

    use std::collections::VecDeque;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::thread::Thread;

    use crate::rng::XorShift64;

    /// A scheduling decision: which runnable thread was chosen, out of how
    /// many options. Only points with more than one option are recorded, so
    /// the log is exactly the information an explorer needs to enumerate
    /// alternative interleavings.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Decision {
        /// Index into the sorted list of runnable virtual threads.
        pub chosen: usize,
        /// How many virtual threads were runnable at this point.
        pub options: usize,
    }

    /// Configuration of one controlled run.
    #[derive(Clone, Debug)]
    pub struct SchedConfig {
        /// Seed determining the interleaving (and the injection stream).
        pub seed: u64,
        /// When set, scheduling choices come from this list instead of the
        /// seeded RNG: entry `i` is the choice at the `i`-th decision point
        /// (clamped to the number of options); past the end of the list,
        /// choices fall back to the seeded RNG — a fixed choice there could
        /// starve a descheduled lock holder behind a spinning thread. This is
        /// the replay/exploration mode.
        pub guided: Option<Vec<usize>>,
        /// Probability (per transactional access) of injecting an abort.
        pub abort_injection: f64,
        /// Hard bound on scheduling steps; exceeding it is a bug (livelock)
        /// and panics with the seed.
        pub step_cap: u64,
    }

    impl SchedConfig {
        /// A seeded random-schedule run with no abort injection.
        pub fn from_seed(seed: u64) -> Self {
            SchedConfig { seed, guided: None, abort_injection: 0.0, step_cap: 5_000_000 }
        }
    }

    /// What a controlled run observed.
    #[derive(Clone, Debug)]
    pub struct RunResult {
        /// Every decision point that had more than one option.
        pub decisions: Vec<Decision>,
        /// Total yield points passed (including single-option ones).
        pub steps: u64,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Status {
        NotAttached,
        Runnable,
        Finished,
    }

    enum Source {
        Random(XorShift64),
        Guided { choices: Vec<usize>, pos: usize, tail: XorShift64 },
    }

    struct State {
        status: Vec<Status>,
        attached: usize,
        source: Source,
        decisions: Vec<Decision>,
        steps: u64,
        step_cap: u64,
        seed: u64,
        inject_rng: XorShift64,
        abort_injection: f64,
    }

    /// [`Inner::turn`] while no virtual thread may run: before the last one
    /// attaches, after the last one finishes, and once the run is poisoned.
    const NOBODY: usize = usize::MAX;

    /// How many times a waiting virtual thread re-checks its turn, calling
    /// `std::thread::yield_now` in between, before it parks. Yielding keeps
    /// a short wait off the futex path; parking keeps a long one from
    /// taking CPU from the thread whose turn it is (DESIGN.md §8).
    const YIELD_BUDGET: u32 = 128;

    struct Inner {
        /// Every scheduling decision is made under this lock.
        state: Mutex<State>,
        /// The one virtual thread allowed to run, or [`NOBODY`]. Written
        /// only under `state`'s lock; waiters read it without the lock.
        turn: AtomicUsize,
        /// Set when a virtual thread panicked or the step cap fired: all
        /// others unwind at their next yield point (or while waiting) so
        /// the run terminates and reports the panic. Written only under
        /// `state`'s lock.
        poisoned: AtomicBool,
        /// Each virtual thread's OS thread, recorded at attach, so a
        /// hand-off wakes exactly the chosen one.
        threads: Box<[OnceLock<Thread>]>,
    }

    /// Message carried by the unwind of threads killed by [`poison`]; the run
    /// harness recognizes it and reports the original panic instead.
    const POISON_MSG: &str = "deterministic scheduler poisoned by another thread's panic";

    impl Inner {
        fn lock(&self) -> MutexGuard<'_, State> {
            // Std mutex poisoning is not an error signal here: our own
            // `poisoned` flag handles panicked virtual threads.
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn attach(&self, vtid: usize) {
            self.threads[vtid]
                .set(std::thread::current())
                .expect("each virtual thread attaches once");
            let mut st = self.lock();
            assert_eq!(st.status[vtid], Status::NotAttached);
            st.status[vtid] = Status::Runnable;
            st.attached += 1;
            if st.attached == st.status.len() {
                let first = Self::pick(&mut st);
                self.hand_to(st, first);
            } else {
                drop(st);
            }
            self.wait_for_turn(vtid);
        }

        /// Publishes `next` as the turn and wakes exactly that thread. The
        /// turn is stored under the lock, the wake-up issued after it is
        /// released.
        fn hand_to(&self, st: MutexGuard<'_, State>, next: Option<usize>) {
            self.turn.store(next.unwrap_or(NOBODY), Ordering::Release);
            drop(st);
            if let Some(next) = next {
                self.threads[next].get().expect("a runnable thread has attached").unpark();
            }
        }

        /// Blocks until `vtid` holds the turn (or unwinds on poison):
        /// [`YIELD_BUDGET`] yielding re-checks, then parking. A hand-off
        /// that lands before the park leaves the thread's unpark token set,
        /// so the park returns at once and no wake-up is lost.
        fn wait_for_turn(&self, vtid: usize) {
            let mut yields = 0;
            loop {
                if self.turn.load(Ordering::Acquire) == vtid {
                    return;
                }
                if self.poisoned.load(Ordering::Acquire) {
                    std::panic::panic_any(POISON_MSG);
                }
                if yields < YIELD_BUDGET {
                    yields += 1;
                    std::thread::yield_now();
                } else {
                    std::thread::park();
                }
            }
        }

        /// Sets the poison flag and wakes every attached thread so each one
        /// sees it. Called under the lock.
        fn poison_all(&self) {
            self.poisoned.store(true, Ordering::Release);
            for thread in self.threads.iter().filter_map(OnceLock::get) {
                thread.unpark();
            }
        }

        /// Chooses the next runnable thread (None when all finished),
        /// recording the decision when there was a real choice. Counts and
        /// then indexes the runnable threads in place: nothing allocates
        /// but decision-log growth.
        fn pick(st: &mut State) -> Option<usize> {
            let runnable = |&(_, &s): &(usize, &Status)| s == Status::Runnable;
            let chosen = match st.status.iter().enumerate().filter(runnable).count() {
                0 => return None,
                1 => 0,
                n => {
                    let chosen = match &mut st.source {
                        Source::Random(rng) => (rng.next_u64() % n as u64) as usize,
                        Source::Guided { choices, pos, tail } => {
                            let c = match choices.get(*pos) {
                                Some(&c) => c.min(n - 1),
                                None => (tail.next_u64() % n as u64) as usize,
                            };
                            *pos += 1;
                            c
                        }
                    };
                    st.decisions.push(Decision { chosen, options: n });
                    chosen
                }
            };
            st.status.iter().enumerate().filter(runnable).nth(chosen).map(|(vtid, _)| vtid)
        }

        fn yield_now(&self, vtid: usize) {
            let mut st = self.lock();
            if self.poisoned.load(Ordering::Relaxed) {
                drop(st);
                std::panic::panic_any(POISON_MSG);
            }
            st.steps += 1;
            if st.steps > st.step_cap {
                let seed = st.seed;
                let cap = st.step_cap;
                self.poison_all();
                drop(st);
                panic!(
                    "deterministic schedule exceeded {cap} steps (livelock?); replay with seed {seed:#x}"
                );
            }
            let next = Self::pick(&mut st);
            if next != Some(vtid) {
                self.hand_to(st, next);
                self.wait_for_turn(vtid);
            }
        }

        fn injected_abort(&self) -> Option<InjectedAbort> {
            let mut st = self.lock();
            let p = st.abort_injection;
            if p <= 0.0 || !st.inject_rng.bernoulli(p) {
                return None;
            }
            Some(match st.inject_rng.next_u64() % 3 {
                0 => InjectedAbort::Spurious,
                1 => InjectedAbort::Capacity,
                _ => InjectedAbort::Conflict,
            })
        }

        fn finish(&self, vtid: usize) {
            let mut st = self.lock();
            st.status[vtid] = Status::Finished;
            if self.turn.load(Ordering::Relaxed) == vtid {
                let next = Self::pick(&mut st);
                self.hand_to(st, next);
            }
        }

        fn poison(&self, vtid: usize) {
            let mut st = self.lock();
            st.status[vtid] = Status::Finished;
            self.turn.store(NOBODY, Ordering::Release);
            self.poison_all();
        }
    }

    thread_local! {
        static CURRENT: std::cell::RefCell<Option<(Arc<Inner>, usize)>> =
            const { std::cell::RefCell::new(None) };
    }

    /// A context switch may happen here. No-op outside a controlled run.
    ///
    /// Instrumented in every [`HtmThread`](crate::HtmThread) operation and at
    /// every slow-path global access in the TM algorithms; anything that
    /// spins must pass a yield point each iteration or a controlled run
    /// deadlocks (the step cap then reports the seed).
    #[inline]
    pub fn yield_point() {
        CURRENT.with(|c| {
            if let Some((inner, vtid)) = &*c.borrow() {
                inner.yield_now(*vtid);
            }
        });
    }

    /// Consults the run's seeded injection stream; `Some` directs the caller
    /// (the simulated HTM) to abort the current transaction with the given
    /// kind. Always `None` outside a controlled run.
    #[inline]
    pub fn injected_abort() -> Option<InjectedAbort> {
        CURRENT.with(|c| c.borrow().as_ref().and_then(|(inner, _)| inner.injected_abort()))
    }

    /// Whether the calling thread is running under a controlled schedule.
    #[inline]
    pub fn is_controlled() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// Runs `bodies` as virtual threads under a fully deterministic schedule.
    ///
    /// Each closure runs on its own OS thread, but the scheduler gates them
    /// so exactly one makes progress at a time, context-switching only at
    /// yield points; virtual thread ids follow `bodies` order. The whole
    /// interleaving is a function of `config` — same config, same
    /// interleaving, instruction for instruction.
    ///
    /// Panics in a body propagate out of this call (other threads are
    /// unwound at their next yield point first).
    pub fn run_threads<F>(config: &SchedConfig, bodies: Vec<F>) -> RunResult
    where
        F: FnOnce() + Send,
    {
        let n = bodies.len();
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                status: vec![Status::NotAttached; n],
                attached: 0,
                source: match &config.guided {
                    Some(choices) => Source::Guided {
                        choices: choices.clone(),
                        pos: 0,
                        tail: XorShift64::new(config.seed),
                    },
                    None => Source::Random(XorShift64::new(config.seed)),
                },
                decisions: Vec::new(),
                steps: 0,
                step_cap: config.step_cap,
                seed: config.seed,
                inject_rng: XorShift64::new(config.seed ^ 0x000a_b047_1e57),
                abort_injection: config.abort_injection,
            }),
            turn: AtomicUsize::new(NOBODY),
            poisoned: AtomicBool::new(false),
            threads: (0..n).map(|_| OnceLock::new()).collect(),
        });

        // (vtid, was_poison_unwind, payload) for every panicked body.
        type PanicRecord = (usize, bool, Box<dyn std::any::Any + Send>);
        let panics: Mutex<VecDeque<PanicRecord>> = Mutex::new(VecDeque::new());

        std::thread::scope(|s| {
            for (vtid, body) in bodies.into_iter().enumerate() {
                let inner = Arc::clone(&inner);
                let panics = &panics;
                s.spawn(move || {
                    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner), vtid)));
                    inner.attach(vtid);
                    let result = std::panic::catch_unwind(AssertUnwindSafe(body));
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    match result {
                        Ok(()) => inner.finish(vtid),
                        Err(payload) => {
                            let is_poison = payload
                                .downcast_ref::<&str>()
                                .is_some_and(|m| *m == POISON_MSG);
                            panics
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push_back((vtid, is_poison, payload));
                            inner.poison(vtid);
                        }
                    }
                });
            }
        });

        let mut panics = panics.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(at) = panics.iter().position(|&(_, poison, _)| !poison) {
            let (vtid, _, payload) = panics.remove(at).unwrap();
            eprintln!(
                "virtual thread {vtid} panicked under deterministic schedule; replay with seed {:#x}",
                config.seed
            );
            std::panic::resume_unwind(payload);
        }

        let mut st = inner.lock();
        RunResult { decisions: std::mem::take(&mut st.decisions), steps: st.steps }
    }

    /// [`run_threads`] with the default configuration for `seed` (random
    /// schedule, no abort injection).
    pub fn run_threads_seeded<F>(seed: u64, bodies: Vec<F>) -> RunResult
    where
        F: FnOnce() + Send,
    {
        run_threads(&SchedConfig::from_seed(seed), bodies)
    }

    impl std::fmt::Debug for Inner {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("sched::Inner").finish_non_exhaustive()
        }
    }
}

#[cfg(feature = "deterministic")]
pub use controlled::{
    injected_abort, is_controlled, run_threads, run_threads_seeded, yield_point, Decision,
    RunResult, SchedConfig,
};

/// A context switch may happen here. Compiled to nothing without the
/// `deterministic` feature.
#[cfg(not(feature = "deterministic"))]
#[inline(always)]
pub fn yield_point() {}

/// Consults the run's seeded abort-injection stream. Always `None`
/// without the `deterministic` feature.
#[cfg(not(feature = "deterministic"))]
#[inline(always)]
pub fn injected_abort() -> Option<InjectedAbort> {
    None
}

/// Whether the calling thread is running under a controlled schedule.
/// Always `false` without the `deterministic` feature.
#[cfg(not(feature = "deterministic"))]
#[inline(always)]
pub fn is_controlled() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Threads interleave at yield points; the order is a pure function
    /// of the seed.
    #[test]
    fn same_seed_same_interleaving() {
        let trace_for = |seed: u64| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let bodies: Vec<_> = (0..3u64)
                .map(|tid| {
                    let log = Arc::clone(&log);
                    move || {
                        for step in 0..5u64 {
                            yield_point();
                            log.lock().unwrap().push((tid, step));
                        }
                    }
                })
                .collect();
            run_threads_seeded(seed, bodies);
            Arc::try_unwrap(log).unwrap().into_inner().unwrap()
        };
        let a = trace_for(42);
        let b = trace_for(42);
        assert_eq!(a, b, "same seed must give the identical interleaving");
        let c = trace_for(43);
        assert_ne!(a, c, "different seeds should (here) give different interleavings");
    }

    /// The decision log replayed through guided mode reproduces the run.
    #[test]
    fn guided_replay_matches_random_run() {
        let run = |config: &SchedConfig| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let bodies: Vec<_> = (0..3u64)
                .map(|tid| {
                    let log = Arc::clone(&log);
                    move || {
                        for step in 0..4u64 {
                            yield_point();
                            log.lock().unwrap().push((tid, step));
                        }
                    }
                })
                .collect();
            let result = run_threads(config, bodies);
            (result, Arc::try_unwrap(log).unwrap().into_inner().unwrap())
        };
        let (random_result, random_log) = run(&SchedConfig::from_seed(7));
        let choices = random_result.decisions.iter().map(|d| d.chosen).collect();
        let (guided_result, guided_log) =
            run(&SchedConfig { guided: Some(choices), ..SchedConfig::from_seed(7) });
        assert_eq!(random_log, guided_log);
        assert_eq!(random_result.decisions, guided_result.decisions);
    }

    /// Unsynchronized read-modify-write under the scheduler: some seed
    /// loses an update (proving interleavings actually vary), and any
    /// losing seed loses identically on replay.
    #[test]
    fn scheduler_exposes_lost_updates_deterministically() {
        let run = |seed: u64| {
            let counter = Arc::new(AtomicU64::new(0));
            let bodies: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    move || {
                        for _ in 0..4 {
                            yield_point();
                            let v = counter.load(Ordering::Relaxed);
                            yield_point();
                            counter.store(v + 1, Ordering::Relaxed);
                        }
                    }
                })
                .collect();
            run_threads_seeded(seed, bodies);
            counter.load(Ordering::Relaxed)
        };
        let results: Vec<u64> = (0..64).map(run).collect();
        assert!(results.iter().any(|&r| r < 8), "no seed lost an update: {results:?}");
        assert!(results.contains(&8), "no seed was loss-free: {results:?}");
        for (seed, &r) in results.iter().enumerate() {
            assert_eq!(run(seed as u64), r, "seed {seed} not deterministic");
        }
    }

    /// A panicking virtual thread propagates its panic out of the run
    /// and unwinds the others.
    #[test]
    fn body_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_threads_seeded(
                1,
                vec![
                    Box::new(|| {
                        yield_point();
                        panic!("boom from body");
                    }) as Box<dyn FnOnce() + Send>,
                    Box::new(|| loop {
                        yield_point();
                    }),
                ],
            );
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom from body");
    }

    /// The step cap converts livelock into a seeded panic.
    #[test]
    fn step_cap_panics_with_seed() {
        let result = std::panic::catch_unwind(|| {
            run_threads(
                &SchedConfig { step_cap: 100, ..SchedConfig::from_seed(0xdead) },
                vec![
                    || loop {
                        yield_point();
                    },
                    || loop {
                        yield_point();
                    },
                ],
            );
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("0xdead"), "step-cap panic must name the seed: {msg}");
    }

    /// Injection draws come from the seed: same seed, same stream.
    #[test]
    fn abort_injection_is_deterministic() {
        let draws_for = |seed: u64| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let bodies: Vec<_> = (0..2)
                .map(|_| {
                    let log = Arc::clone(&log);
                    move || {
                        for _ in 0..20 {
                            yield_point();
                            log.lock().unwrap().push(injected_abort());
                        }
                    }
                })
                .collect();
            run_threads(
                &SchedConfig { abort_injection: 0.3, ..SchedConfig::from_seed(seed) },
                bodies,
            );
            Arc::try_unwrap(log).unwrap().into_inner().unwrap()
        };
        let a = draws_for(5);
        assert_eq!(a, draws_for(5));
        assert!(a.iter().any(Option::is_some), "0.3 injection rate drew nothing in 40 tries");
        assert!(a.iter().any(Option::is_none));
    }

    /// Outside a controlled run the hooks are inert.
    #[test]
    fn hooks_are_noops_outside_runs() {
        assert!(!is_controlled());
        yield_point();
        assert_eq!(injected_abort(), None);
    }

    /// Long enough for every waiting peer to spend its yield budget and
    /// park, on any host.
    const PARK_PEERS: std::time::Duration = std::time::Duration::from_millis(30);

    /// More virtual threads than cores: waiters outnumber the cores and
    /// many of them park, and a hand-off must still land on exactly the
    /// chosen one.
    #[test]
    fn six_threads_replay_identically_and_guided_matches() {
        let run = |config: &SchedConfig| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let bodies: Vec<_> = (0..6u64)
                .map(|tid| {
                    let log = Arc::clone(&log);
                    move || {
                        for step in 0..40u64 {
                            yield_point();
                            log.lock().unwrap().push((tid, step));
                        }
                    }
                })
                .collect();
            let result = run_threads(config, bodies);
            (result, Arc::try_unwrap(log).unwrap().into_inner().unwrap())
        };
        let (first, first_log) = run(&SchedConfig::from_seed(0x6_0ce5));
        let (again, again_log) = run(&SchedConfig::from_seed(0x6_0ce5));
        assert_eq!(first_log, again_log);
        assert_eq!(first.decisions, again.decisions);
        assert_eq!(first.steps, again.steps);
        assert_eq!(first.steps, 6 * 40);
        assert!(first.decisions.iter().any(|d| d.options == 6));

        let choices = first.decisions.iter().map(|d| d.chosen).collect();
        let (guided, guided_log) =
            run(&SchedConfig { guided: Some(choices), ..SchedConfig::from_seed(0x6_0ce5) });
        assert_eq!(first_log, guided_log);
        assert_eq!(first.decisions, guided.decisions);
    }

    /// A body that panics while its peers are parked (not merely
    /// yielding) still wakes them, ends the run, and propagates.
    #[test]
    fn panic_with_parked_peers_terminates_and_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| {
                yield_point();
                std::thread::sleep(PARK_PEERS);
                panic!("boom while peers park");
            })];
            for _ in 0..2 {
                bodies.push(Box::new(|| loop {
                    yield_point();
                }));
            }
            // Whatever order the seed picks, the panicking body gets its
            // turn long before the loopers reach the 5M-step cap.
            run_threads_seeded(1, bodies);
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom while peers park");
    }

    /// The step cap fires, naming the seed, while the peers are parked.
    #[test]
    fn step_cap_fires_with_parked_peers() {
        let result = std::panic::catch_unwind(|| {
            let bodies: Vec<_> = (0..3)
                .map(|_| {
                    || loop {
                        std::thread::sleep(PARK_PEERS / 10);
                        yield_point();
                    }
                })
                .collect();
            run_threads(&SchedConfig { step_cap: 12, ..SchedConfig::from_seed(0xcab) }, bodies);
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("0xcab"), "step-cap panic must name the seed: {msg}");
    }

    /// Back-to-back short runs: a wake-up lost anywhere in attach,
    /// hand-off or finish would hang one of them.
    #[test]
    fn back_to_back_runs_lose_no_wake_up() {
        for seed in 0..2_000u64 {
            let bodies: Vec<_> = (0..3)
                .map(|_| {
                    || {
                        for _ in 0..3 {
                            yield_point();
                        }
                    }
                })
                .collect();
            assert_eq!(run_threads_seeded(seed, bodies).steps, 9, "seed {seed}");
        }
    }
}
