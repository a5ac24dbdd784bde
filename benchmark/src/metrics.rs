//! Every metric and workload the benchmark reports, by name. The root
//! `BENCHMARK.json` is printed from these tables (`rh-benchmark manifest`)
//! and a test holds the two together.

use crate::json::Json;
use crate::surface::Algorithm;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a number is counted on. Simulated time and host time are
/// separate currencies and never add up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Currency {
    /// Wall-clock or memory of the machine the simulator runs on.
    Host,
    /// Cycles of the cost model at `MODEL_HZ` (scheduler steps on
    /// `replay`): what the modelled hardware would take.
    Modeled,
    /// A ratio of event counts.
    Count,
}

impl Currency {
    pub fn label(self) -> &'static str {
        match self {
            Currency::Host => "host",
            Currency::Modeled => "modeled",
            Currency::Count => "count",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub currency: Currency,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    /// A pure function of the seed today: two runs at one seed must agree
    /// to the last digit, whatever the host does.
    pub exact: bool,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better, currency: Currency) -> Def {
    Def { name: name.into(), unit, better, currency, bound: None, exact: false }
}

impl Def {
    fn bound(mut self, bound: f64) -> Def {
        self.bound = Some(bound);
        self
    }

    fn exact(mut self) -> Def {
        self.exact = true;
        self
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "rbtree-read",
        why: "the paper's Figure 4 cell (10k-node tree, 10% mutations, Haswell HTM): 99.7% of commits stay on the hardware fast path, so sim-mem and sim-htm do the work and the slow path almost none",
    },
    WorkloadDef {
        name: "rbtree-fallback",
        why: "same tree, 40% mutations on a flat 8/16-line HTM: most commits take the mixed slow path, so engine, txlog and clock protocol dominate; a fast-path gain that taxes the slow path shows here",
    },
    WorkloadDef {
        name: "kv-serve",
        why: "bursty zipfian get/transfer trace through run_service in session mode at six fixed rates: KvStore, Session, worker loop, hist and gen do the work, the batch executor none",
    },
    WorkloadDef {
        name: "kv-batch",
        why: "such traces through the batch former and Block-STM executor, which run nowhere else: one worker (no speculation) is measured; two (MvMap, BatchSched) are checked and printed, not gated",
    },
    WorkloadDef {
        name: "replay",
        why: "controlled build: seeded schedules replayed and judged by run_case; the deterministic scheduler and oracles do the work, and exact step counts show that simulated behaviour is unchanged",
    },
];

/// Length of one measured run in seconds, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 10;

/// Every workload emits every one of these (the driver reads one list for
/// all workloads), each measured independently of the others except where
/// [`DERIVED`] says so. [`meaning`] says what a name measures on a workload.
pub fn end_to_end() -> Vec<Def> {
    use Better::*;
    use Currency::*;
    vec![
        def("setup_s", "s", Lower, Host).bound(0.25),
        def("host_ops_per_s_t1", "ops/s", Higher, Host).bound(0.08),
        def("modeled_cyc_per_op_t1", "cycles/op", Lower, Modeled).bound(0.05).exact(),
        def("modeled_mops", "Mops/s", Higher, Modeled).bound(0.12),
        def("sojourn_p99_ns", "ns", Lower, Modeled).bound(0.12),
        def("peak_rss_mb", "MB", Lower, Host).bound(0.15),
    ]
}

/// (workload, metric, the metric it is computed from): the one end-to-end
/// value that is no measurement of its own. `replay` has a single modeled
/// rate, steps per case, so its throughput is the same number turned over.
/// The driver still reads it; `compare` judges the source only.
pub const DERIVED: [(&str, &str, &str); 1] = [("replay", "modeled_mops", "modeled_cyc_per_op_t1")];

/// What an end-to-end metric measures on one workload. An operation is a
/// tree operation, a request, or a replayed case; sojourn is the modeled
/// time from when an operation is due until it is done (in a closed loop,
/// its service time).
pub fn meaning(workload: &str, metric: &str) -> &'static str {
    let kind = match workload {
        "rbtree-read" | "rbtree-fallback" => 0,
        "kv-serve" => 1,
        "kv-batch" => 2,
        _ => 3,
    };
    let per_kind: [&str; 4] = match metric {
        "setup_s" => [
            "machine build, populate and a discarded tenth of the one-worker operations; median of 3",
            "what run_service prepares inside a call (machine, store load, trace generation) and a discarded call of a tenth of the requests; median of 3",
            "as kv-serve",
            "a discarded tenth of the cases (run_case builds a machine per case); median of 3",
        ],
        "host_ops_per_s_t1" => [
            "tree operations per host second, one worker; median of 5 slices",
            "requests per host second of run_service less its preparation, one worker, unloaded arrivals; median of 7 calls after one discarded",
            "as kv-serve, arrivals at 60 % of one worker's capacity (at an unloaded rate no block fills)",
            "cases replayed and judged per host second; median of 5 slices",
        ],
        "modeled_cyc_per_op_t1" => [
            "modeled cycles per operation, one worker",
            "mean modeled sojourn of one worker in cycles, unloaded: the service demand of a request",
            "mean modeled sojourn of one worker in cycles at 60 % of its capacity: wait for the block to fill, then service",
            "scheduler steps per case, one step written as one cycle",
        ],
        "modeled_mops" => [
            "the paper's y-axis: sum over two workers of operations per modeled second",
            "offered rate at which two workers' modeled p99 crosses 10 us, interpolated between the fixed rates: the most they serve without a growing backlog",
            "offered rate at which one worker's modeled p99 crosses 50 us, likewise (two workers' modeled time follows host scheduling)",
            "MODEL_HZ over steps per case: derived from modeled_cyc_per_op_t1, one modeled core",
        ],
        "sojourn_p99_ns" => [
            "p99 of the modeled time of one operation, two workers, from a slice of its own",
            "p99 modeled sojourn of two workers at r2 (half their capacity), mean of 5 traces",
            "p99 modeled sojourn of one worker at 60 % of its capacity, mean of 5 traces",
            "p99 of steps per case at one step per cycle",
        ],
        "peak_rss_mb" => ["VmHWM of the process"; 4],
        _ => [""; 4],
    };
    per_kind[kind]
}

/// The engines of the ladder and the baseline cells, with the labels
/// their metric names carry.
pub const ENGINES: [(Algorithm, &str); 5] = [
    (Algorithm::LockElision, "lock-elision"),
    (Algorithm::Norec, "norec"),
    (Algorithm::Tl2, "tl2"),
    (Algorithm::HybridNorec, "hy-norec"),
    (Algorithm::RhNorec, "rh-norec"),
];

pub const STORE_OPS: [&str; 5] = ["get", "put", "delete", "transfer", "range64"];
pub const CASE_KINDS: [&str; 4] = ["scripted", "kv", "steal", "batch"];
pub const TREE_OPS: [&str; 3] = ["get", "put", "remove"];

pub fn per_layer() -> Vec<Def> {
    use Better::*;
    use Currency::*;
    let mut v = Vec::new();
    let ns = |name: String| def(name, "ns", Lower, Host);
    for name in ["mem.load_ns", "mem.store_ns", "mem.alloc_free_ns"] {
        v.push(ns(name.into()));
    }
    for name in ["htm.empty_tx_ns", "htm.rmw_tx_ns", "htm.read_ns", "htm.write_ns"] {
        v.push(ns(name.into()));
    }
    v.push(def("htm.commit_per_begin", "ratio", Higher, Count));
    for name in ["htm.conflict_per_kop", "htm.capacity_per_kop", "htm.other_per_kop"] {
        v.push(def(name, "1/kop", Lower, Count));
    }
    v.push(def("htm.host_scaling_t2", "ratio", Higher, Host));
    for (_, label) in ENGINES {
        v.push(ns(format!("engine.{label}.rmw_ns")));
        v.push(def(format!("engine.{label}.rmw_cyc"), "cycles", Lower, Modeled).exact());
        v.push(ns(format!("engine.{label}.read64_ns")));
    }
    v.push(ns("txlog.write16_ns".into()));
    v.push(ns("txlog.raw16_ns".into()));
    for name in [
        "engine.fast_commit_share",
        "engine.commit_per_attempt",
        "engine.prefix_success",
        "engine.postfix_success",
    ] {
        v.push(def(name, "ratio", Higher, Count));
    }
    v.push(def("engine.slow_restarts_per_kop", "1/kop", Lower, Count));
    for (algorithm, label) in ENGINES {
        for tree in ["read", "fallback"] {
            v.push(def(format!("engine.{label}.{tree}.host_ops_per_s"), "ops/s", Higher, Host));
            v.push(def(format!("engine.{label}.{tree}.modeled_mops"), "Mops/s", Higher, Modeled));
        }
        // RH NOrec's failures gate the run; a baseline's only show here,
        // as the share of its two cells whose invariant check passed.
        if algorithm != Algorithm::RhNorec {
            v.push(def(format!("engine.{label}.verified_share"), "ratio", Higher, Count));
        }
    }
    v.push(ns("session.open_close_ns".into()));
    v.push(ns("session.empty_tx_ns".into()));
    for op in STORE_OPS {
        v.push(ns(format!("store.{op}_ns")));
        v.push(def(format!("store.{op}_cyc"), "cycles", Lower, Modeled).exact());
    }
    for name in ["gen.request_ns", "hist.record_ns", "steal.take_ns", "steal.steal_ns", "former.request_ns"] {
        v.push(ns(name.into()));
    }
    v.push(ns("service.req_ns_t1".into()));
    v.push(ns("service.req_ns_t2".into()));
    v.push(ns("service.overhead_ns".into()));
    v.push(def("service.aborts_per_kreq", "1/kreq", Lower, Count));
    v.push(def("service.sojourn_mean_ns", "ns", Lower, Modeled));
    v.push(def("service.sojourn_p999_ns", "ns", Lower, Modeled));
    for rate in 1..=6 {
        v.push(def(format!("service.sojourn_p99_ns.r{rate}"), "ns", Lower, Modeled));
    }
    v.push(def("service.slo_rate_mreq_s", "Mreq/s", Higher, Modeled));
    v.push(def("steal.stolen_share", "ratio", Higher, Count));
    v.push(def("steal.sojourn_p99_ns", "ns", Lower, Modeled));
    v.push(ns("batch.req_ns_t1".into()));
    v.push(ns("batch.req_ns_t2".into()));
    v.push(def("batch.host_scaling_t2", "ratio", Higher, Host));
    v.push(def("batch.abort_share", "ratio", Lower, Count));
    v.push(def("batch.batched_share", "ratio", Higher, Count));
    v.push(def("batch.sojourn_p99_ns_t2", "ns", Lower, Modeled));
    v.push(ns("sched.step_ns".into()));
    v.push(def("sched.ksteps_per_s", "ksteps/s", Higher, Host));
    v.push(def("sched.steps_per_case", "steps", Lower, Modeled).exact());
    for kind in CASE_KINDS {
        v.push(def(format!("check.case_us.{kind}"), "us", Lower, Host));
    }
    v.push(def("check.events_per_case", "events", Lower, Modeled).exact());
    v.push(def("check.cases_per_s_busy_core", "ops/s", Higher, Host));
    for op in TREE_OPS {
        v.push(ns(format!("rbtree.{op}_ns_p50")));
        v.push(ns(format!("rbtree.{op}_ns_p99")));
    }
    v.push(def("trace.overhead_pct", "%", Lower, Host));
    v
}

/// The root `BENCHMARK.json`, key for key as the driver reads it.
pub fn manifest() -> Json {
    let metric = |d: &Def, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(d.name.clone())),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.label())),
        ];
        if with_bound {
            pairs.push(("bound", Json::Num(d.bound.expect("every end-to-end metric has a bound"))));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end().iter().map(|d| metric(d, true)).collect())),
        ("per_layer", Json::Arr(per_layer().iter().map(|d| metric(d, false)).collect())),
    ])
}
