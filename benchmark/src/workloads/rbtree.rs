//! The two closed-loop red-black-tree workloads and the baseline-engine
//! cells that reuse them.
//!
//! The benchmark drives `RbTree::{get, put, remove}` through
//! `Session::run`/`run_read` itself; keys and operation kinds come from
//! its own generator, seeded from `--seed`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

use crate::report::{self, Measured, Outcome};
use crate::spans::{CycleProbe, NoProbe, Probe, Span, SpanLog};
use crate::surface::{Algorithm, HtmConfig, Machine, RbTree, Session, ThreadReport, MODEL_HZ};
use crate::util::{self, Rng};

/// The paper's Figure 4 tree: 10 000 nodes over a key range twice that,
/// which 50/50 put/remove mutations keep near its initial size.
///
/// The tree is populated from one fixed key stream on every seed; only
/// the operations that follow come from `--seed`. Which keys the tree is
/// built from decides how its nodes share cache lines, and on the tiny
/// HTM that moves the modeled cost of an operation by 8 % from one
/// populated tree to the next, against 0.5 % from one operation stream
/// to the next: seeding the population would bury every modeled metric
/// of `rbtree-fallback` under a property of the input.
const POPULATION_SEED: u64 = 0x5E_ED0F_7EE5;
const NODES: u64 = 10_000;
const KEY_RANGE: u64 = 2 * NODES;
const HEAP_WORDS: u64 = 1 << 22;

/// Times the machine is set up in one run; `setup_s` is the median.
const SETUPS: usize = 3;
const SLICES: usize = 5;

#[derive(Clone, Copy, Debug)]
pub struct TreeSpec {
    pub algorithm: Algorithm,
    pub mutation_pct: u64,
    pub htm: fn() -> HtmConfig,
    /// Operations per second of `--seconds`: one worker, all slices.
    pub t1_rate: u64,
    /// Operations per second of `--seconds` and per worker, two workers.
    pub t2_rate: u64,
    /// Operations per worker in the latency slice, per second of budget.
    pub latency_rate: u64,
}

impl TreeSpec {
    /// Figure 4's 10 % cell on the Haswell model: 99.7 % of commits stay
    /// on the uninstrumented hardware fast path.
    pub fn read() -> TreeSpec {
        TreeSpec {
            algorithm: Algorithm::RhNorec,
            mutation_pct: 10,
            htm: crate::surface::haswell,
            t1_rate: 270_000,
            t2_rate: 115_000,
            latency_rate: 20_000,
        }
    }

    /// 40 % mutations on the tiny flat HTM: most commits take the mixed
    /// slow path, so the engine, its logs and the clock protocol dominate.
    pub fn fallback() -> TreeSpec {
        TreeSpec {
            algorithm: Algorithm::RhNorec,
            mutation_pct: 40,
            htm: crate::surface::tiny_flat,
            t1_rate: 135_000,
            t2_rate: 50_000,
            latency_rate: 10_000,
        }
    }

    pub fn with_algorithm(self, algorithm: Algorithm) -> TreeSpec {
        TreeSpec { algorithm, ..self }
    }

    /// The one-worker and the two-worker phase at this budget.
    fn phases(&self, seconds: f64) -> [Phase; 2] {
        let sliced = |rate: u64| scaled(rate, seconds, SLICES);
        [
            Phase { tag: "t1", threads: 1, slices: SLICES, ops_per_slice: sliced(self.t1_rate) },
            Phase { tag: "t2", threads: 2, slices: SLICES, ops_per_slice: sliced(self.t2_rate) },
        ]
    }
}

/// One phase: `threads` workers run `slices` barrier-aligned slices of
/// `ops_per_slice` operations each.
#[derive(Clone, Copy)]
struct Phase {
    tag: &'static str,
    threads: usize,
    slices: usize,
    ops_per_slice: u64,
}

impl Phase {
    fn ops(&self) -> u64 {
        (self.threads * self.slices) as u64 * self.ops_per_slice
    }
}

/// What one worker saw over a phase.
struct Worker<P> {
    ops: u64,
    /// Nodes it added minus nodes it removed.
    net: i64,
    /// Gets that returned a value other than their key.
    wrong_values: u64,
    slice_s: Vec<f64>,
    slice_at_ns: Vec<(u64, u64)>,
    report: ThreadReport,
    probe: P,
    panicked: Option<String>,
}

/// Host throughput of each slice: all workers' operations over the
/// slowest worker's time (slices start together at a barrier).
fn slice_throughput<P>(workers: &[Worker<P>], phase: Phase) -> Vec<f64> {
    (0..phase.slices)
        .map(|i| {
            let wall = workers.iter().map(|w| w.slice_s[i]).fold(0.0, f64::max);
            (phase.threads as u64 * phase.ops_per_slice) as f64 / wall
        })
        .collect()
}

/// The paper's y-axis: each worker owns a modeled core, so modeled
/// throughput is the sum over workers of operations per modeled cycle.
fn modeled_mops<P>(workers: &[Worker<P>]) -> f64 {
    workers.iter().map(|w| w.ops as f64 / w.report.tm.cycles as f64 * MODEL_HZ / 1e6).sum()
}

/// Counters of one phase, summed over its workers.
#[derive(Default)]
pub struct PhaseCounters {
    pub ops: u64,
    pub report: ThreadReport,
    /// Median slice, host currency.
    pub host_ops_per_s: f64,
    pub modeled_mops: f64,
}

fn counters<P>(workers: &[Worker<P>], phase: Phase) -> PhaseCounters {
    let mut report = ThreadReport::default();
    for w in workers {
        report.tm = report.tm.merge(&w.report.tm);
        report.htm = report.htm.merge(&w.report.htm);
    }
    PhaseCounters {
        ops: workers.iter().map(|w| w.ops).sum(),
        report,
        host_ops_per_s: util::median(&slice_throughput(workers, phase)),
        modeled_mops: modeled_mops(workers),
    }
}

/// A populated tree and what the phases driven so far must have left.
struct Tree {
    spec: TreeSpec,
    seed: u64,
    epoch: Instant,
    machine: Machine,
    tree: RbTree,
    /// Nodes added minus nodes removed by every phase so far.
    net: i64,
    /// Gets that returned a value other than their key, so far.
    wrong_values: u64,
}

impl Tree {
    fn populate(spec: TreeSpec, seed: u64, epoch: Instant) -> Tree {
        let machine = Machine::build(spec.algorithm, (spec.htm)(), HEAP_WORDS);
        let tree = RbTree::create(&machine.heap);
        let mut session = machine.session();
        let mut rng = Rng::new(util::derive(POPULATION_SEED, "tree-keys", 0));
        let mut nodes = 0;
        while nodes < NODES {
            let key = rng.below(KEY_RANGE);
            let previous = session.run(|tx| tree.put(tx, key, key)).expect("put cannot fault");
            nodes += u64::from(previous.is_none());
        }
        drop(session);
        Tree { spec, seed, epoch, machine, tree, net: 0, wrong_values: 0 }
    }

    /// One operation: kind and key come from `rng`, the call into the
    /// tree goes through the worker's probe.
    #[inline]
    fn one_op<P: Probe>(&self, session: &mut Session, rng: &mut Rng, w: &mut Worker<P>) {
        let tree = &self.tree;
        let key = rng.below(KEY_RANGE);
        if rng.below(100) < self.spec.mutation_pct {
            if rng.next_u64() & 1 == 0 {
                let token = w.probe.begin(session);
                let previous = session.run(|tx| tree.put(tx, key, key)).expect("put cannot fault");
                w.probe.end(session, "rbtree.put", token);
                w.net += i64::from(previous.is_none());
            } else {
                let token = w.probe.begin(session);
                let removed = session.run(|tx| tree.remove(tx, key)).expect("remove cannot fault");
                w.probe.end(session, "rbtree.remove", token);
                w.net -= i64::from(removed.is_some());
            }
        } else {
            let token = w.probe.begin(session);
            let found = session.run_read(|tx| tree.get(tx, key)).expect("get cannot fault");
            w.probe.end(session, "rbtree.get", token);
            w.wrong_values += u64::from(found.is_some_and(|v| v != key));
        }
    }

    /// Worker `me` of one phase. A worker that panics sits out its
    /// remaining slices but keeps meeting the barrier, so its peer is not
    /// stranded.
    fn work<P: Probe>(
        &self,
        phase: Phase,
        me: usize,
        mut session: Session,
        probe: P,
        barrier: &Barrier,
        first_parent: u32,
    ) -> Worker<P> {
        let mut rng = Rng::new(util::derive(self.seed, phase.tag, me as u64));
        let mut w = Worker {
            ops: phase.slices as u64 * phase.ops_per_slice,
            net: 0,
            wrong_values: 0,
            slice_s: Vec::with_capacity(phase.slices),
            slice_at_ns: Vec::with_capacity(phase.slices),
            report: ThreadReport::default(),
            probe,
            panicked: None,
        };
        for slice in 0..phase.slices {
            w.probe.enter(first_parent.wrapping_add(slice as u32));
            barrier.wait();
            let start = Instant::now();
            if w.panicked.is_none() {
                let body = AssertUnwindSafe(|| {
                    for _ in 0..phase.ops_per_slice {
                        self.one_op(&mut session, &mut rng, &mut w);
                    }
                });
                w.panicked = catch_unwind(body).err().map(|p| util::panic_message(&*p));
            }
            let end = Instant::now();
            w.slice_s.push((end - start).as_secs_f64());
            w.slice_at_ns
                .push(((start - self.epoch).as_nanos() as u64, (end - self.epoch).as_nanos() as u64));
        }
        w.report = session.report();
        w
    }

    /// Runs one phase. `first_parent` is the span index the first slice's
    /// calls hang under.
    fn drive<P: Probe + Send>(
        &mut self,
        phase: Phase,
        first_parent: u32,
        make_probe: impl Fn(usize) -> P,
    ) -> Result<Vec<Worker<P>>, String> {
        assert!(phase.threads <= crate::surface::MAX_WORKERS, "never more workers than cores");
        let barrier = Barrier::new(phase.threads);
        // Sessions are opened here, in order, so worker `i` always holds
        // thread id `i`.
        let sessions: Vec<Session> = (0..phase.threads).map(|_| self.machine.session()).collect();
        let this = &*self;
        let workers: Vec<Worker<P>> = std::thread::scope(|s| {
            let handles: Vec<_> = sessions
                .into_iter()
                .enumerate()
                .map(|(me, session)| {
                    let (probe, barrier) = (make_probe(me), &barrier);
                    s.spawn(move || this.work(phase, me, session, probe, barrier, first_parent))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("workers catch their own panics")).collect()
        });
        for w in &workers {
            self.net += w.net;
            self.wrong_values += w.wrong_values;
        }
        match workers.iter().find_map(|w| w.panicked.as_ref()) {
            Some(message) => Err(format!("a worker panicked: {message}")),
            None => Ok(workers),
        }
    }

    /// Tree invariants, every entry one the driver wrote, and the node
    /// count the driver's own bookkeeping predicts.
    fn verify(&self) -> Result<(), String> {
        self.tree.check_invariants(&self.machine.heap)?;
        let entries = self.tree.collect(&self.machine.heap);
        if let Some((k, v)) = entries.iter().find(|(k, v)| k != v || *k >= KEY_RANGE) {
            return Err(format!("entry {k} -> {v} was never written"));
        }
        if self.wrong_values > 0 {
            return Err(format!("{} gets returned a value other than the key", self.wrong_values));
        }
        let expected = NODES as i64 + self.net;
        if entries.len() as i64 != expected {
            return Err(format!("tree holds {} nodes, the operations leave {expected}", entries.len()));
        }
        Ok(())
    }
}

fn scaled(rate: u64, seconds: f64, slices: usize) -> u64 {
    ((rate as f64 * seconds / slices as f64) as u64).max(20)
}

/// Machine build, populate and a discarded warm-up slice of a tenth of
/// the one-worker operations, so lazy set-up (allocator pools, log
/// arenas) is paid before timing. Done `times` times; returns the last
/// tree, the one measured, and the seconds each set-up took.
fn set_up(spec: TreeSpec, seed: u64, epoch: Instant, t1_ops: u64, times: usize) -> (Tree, Vec<f64>) {
    let warm = Phase { tag: "warm", threads: 1, slices: 1, ops_per_slice: (t1_ops / 10).max(20) };
    let mut setups = Vec::with_capacity(times);
    let mut tree = None;
    for _ in 0..times {
        let (s, t) = util::timed(|| {
            let mut t = Tree::populate(spec, seed, epoch);
            t.drive(warm, 0, |_| NoProbe).expect("the warm-up slice runs the measured code");
            t
        });
        setups.push(s);
        tree = Some(t);
    }
    (tree.expect("set up at least once"), setups)
}

/// The untraced pass: every end-to-end metric of one tree workload.
pub fn run(spec: TreeSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let [t1, t2] = spec.phases(seconds);
    // The latency slice reads each operation's modeled cycles, so it is
    // kept apart from the throughput slices.
    let latency =
        Phase { tag: "latency", threads: 2, slices: 1, ops_per_slice: scaled(spec.latency_rate, seconds, 1) };
    let (mut tree, setups) = set_up(spec, seed, Instant::now(), t1.ops(), SETUPS);
    out.push(Measured::median_of("setup_s", setups));

    let one = out.tally.phase("t1", t1.ops(), || tree.drive(t1, 0, |_| NoProbe));
    let two = out.tally.phase("t2", t2.ops(), || tree.drive(t2, 0, |_| NoProbe));
    let timed = out.tally.phase("latency", latency.ops(), || {
        tree.drive(latency, 0, |_| CycleProbe::with_capacity(latency.ops_per_slice))
    });
    if let Err(why) = tree.verify() {
        let ops = out.tally.attempted;
        out.tally.fail("verify", ops, why);
    }

    if let Some(workers) = &one {
        out.push(Measured::median_of("host_ops_per_s_t1", slice_throughput(workers, t1)));
        let c = counters(workers, t1);
        out.push(Measured::single("modeled_cyc_per_op_t1", c.report.tm.cycles as f64 / c.ops as f64));
    }
    if let Some(workers) = &two {
        out.notes.push(report::host_t2_note(&slice_throughput(workers, t2)));
        out.push(Measured::single("modeled_mops", modeled_mops(workers)));
        let tm = counters(workers, t2).report.tm;
        out.notes.push(format!(
            "t2 commits: {:.1} % hardware fast path, {:.1} % slow path; prefix success {:.2}, postfix {:.2}; \
             HTM conflicts {:.2} and capacity aborts {:.2} per 1000 ops",
            100.0 * tm.fast_path_commits as f64 / tm.commits.max(1) as f64,
            100.0 * tm.slow_path_ratio(),
            tm.prefix_success_ratio(),
            tm.postfix_success_ratio(),
            1e3 * tm.htm_conflict_aborts() as f64 / tm.commits.max(1) as f64,
            1e3 * tm.htm_capacity_aborts() as f64 / tm.commits.max(1) as f64,
        ));
    }
    if let Some(workers) = timed {
        let mut cycles: Vec<u64> = workers.into_iter().flat_map(|w| w.probe.cycles).collect();
        out.push(Measured::single(
            "sojourn_p99_ns",
            util::percentile_grouped(&mut cycles, 0.99) * 1e9 / MODEL_HZ,
        ));
        out.notes.push(format!(
            "closed loop, 2 workers: sojourn is the modeled time of one operation, {} samples, \
             p99 allowed by the percentile rule: {}",
            cycles.len(),
            util::percentile_allowed(cycles.len(), 0.99)
        ));
    }
    out.push(Measured::single("peak_rss_mb", util::peak_rss_mb()));
    out.notes.push(format!(
        "{NODES}-node tree, {} % mutations, {}; t1 {SLICES}x{} ops, t2 2x{SLICES}x{} ops",
        spec.mutation_pct, spec.algorithm, t1.ops_per_slice, t2.ops_per_slice
    ));
    out
}

/// What a reduced-size pass of a tree workload yields.
#[derive(Default)]
pub struct Reduced {
    pub t1: PhaseCounters,
    pub t2: PhaseCounters,
    /// Root spans of the slices, in the order call spans refer to them.
    pub roots: Vec<Span>,
    pub failed: Option<String>,
}

/// The t1 and t2 phases again at reduced size, every call into the tree
/// going through a probe from `make_probe(epoch, thread, calls)`; the
/// probes are handed to `keep` afterwards. With [`NoProbe`] this is the
/// untraced half of the tracing-overhead comparison and a baseline
/// engine's cell.
pub fn run_reduced<P: Probe + Send>(
    spec: TreeSpec,
    seed: u64,
    seconds: f64,
    make_probe: impl Fn(Instant, usize, usize) -> P,
    mut keep: impl FnMut(P),
) -> Reduced {
    let epoch = Instant::now();
    let [t1, t2] = spec.phases(seconds);
    let (mut tree, _) = set_up(spec, seed, epoch, t1.ops(), 1);
    let mut slices = SpanLog::default();
    let mut failed = None;
    let [t1, t2] = [t1, t2].map(|phase| {
        let first_parent = slices.roots.len() as u32;
        let calls = (phase.slices as u64 * phase.ops_per_slice) as usize;
        let workers =
            tree.drive(phase, first_parent, |me| make_probe(epoch, me, calls)).unwrap_or_else(|why| {
                failed.get_or_insert(why);
                Vec::new()
            });
        if workers.is_empty() {
            return PhaseCounters::default();
        }
        for slice in 0..phase.slices {
            let start = workers.iter().map(|w| w.slice_at_ns[slice].0).min().unwrap_or(0);
            let end = workers.iter().map(|w| w.slice_at_ns[slice].1).max().unwrap_or(0);
            slices.root(if phase.threads == 1 { "slice.t1" } else { "slice.t2" }, start, end);
        }
        let c = counters(&workers, phase);
        workers.into_iter().for_each(|w| keep(w.probe));
        c
    });
    let failed = failed.or_else(|| tree.verify().err());
    Reduced { t1, t2, roots: slices.roots, failed }
}
