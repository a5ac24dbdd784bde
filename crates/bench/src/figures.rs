//! Figure definitions: which workloads, algorithms and thread counts make
//! up each figure of the paper, and the ablation grid.

use std::time::Duration;

use rh_norec::Algorithm;
use sim_mem::Heap;
use tm_workloads::rbtree_bench::{RbTreeBench, RbTreeBenchConfig};
use tm_workloads::stamp::{
    Genome, GenomeConfig, Intruder, IntruderConfig, Kmeans, KmeansConfig, Labyrinth,
    LabyrinthConfig, Ssca2, Ssca2Config, Vacation, VacationConfig, Yada, YadaConfig,
};
use tm_workloads::Workload;

use crate::driver::{run_cell, CellConfig, CellResult};
use crate::report;

/// How large to run: `Paper` matches the paper's parameters, `Quick`
/// shrinks sizes and intervals for CI-grade runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's workload sizes; ~10× longer intervals.
    Paper,
    /// Scaled-down sizes for fast runs.
    Quick,
}

impl Scale {
    fn duration(self) -> Duration {
        match self {
            Scale::Paper => Duration::from_millis(1000),
            Scale::Quick => Duration::from_millis(150),
        }
    }

    fn rbtree_size(self) -> u64 {
        match self {
            Scale::Paper => 10_000,
            Scale::Quick => 1_000,
        }
    }

    fn vacation_relations(self) -> u64 {
        match self {
            Scale::Paper => 4096,
            Scale::Quick => 512,
        }
    }
}

/// Thread counts swept in every figure (the paper's x axis is 1–16).
pub fn thread_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Paper => vec![1, 2, 4, 8, 12, 16],
        Scale::Quick => vec![1, 2, 4, 8, 16],
    }
}

/// Command-line overrides applied on top of the scale defaults.
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    /// Replacement thread-count sweep (`--threads 1,4,16`).
    pub threads: Option<Vec<usize>>,
    /// Replacement per-cell measurement interval (`--duration-ms 500`).
    pub duration: Option<Duration>,
}

impl Overrides {
    fn threads(&self, scale: Scale) -> Vec<usize> {
        self.threads.clone().unwrap_or_else(|| thread_counts(scale))
    }

    fn duration(&self, scale: Scale) -> Duration {
        self.duration.unwrap_or_else(|| scale.duration())
    }
}

/// Boxed workload constructor: one fresh instance per cell.
pub type WorkloadBuilder = Box<dyn Fn(&Heap) -> Box<dyn Workload>>;

/// A workload constructor plus its display name.
pub struct BenchDef {
    /// Sub-benchmark label as it appears in the paper's figure.
    pub label: String,
    /// Constructor (one fresh instance per cell).
    pub build: WorkloadBuilder,
}

impl std::fmt::Debug for BenchDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchDef").field("label", &self.label).finish()
    }
}

/// The three RBTree columns of Figure 4.
pub fn figure4(scale: Scale) -> Vec<BenchDef> {
    [4u32, 10, 40]
        .into_iter()
        .map(|pct| {
            let size = scale.rbtree_size();
            BenchDef {
                label: format!("{size} Nodes RB-Tree, {pct}% mutations"),
                build: Box::new(move |heap| {
                    Box::new(RbTreeBench::new(
                        heap,
                        RbTreeBenchConfig { initial_size: size, mutation_pct: pct },
                    ))
                }),
            }
        })
        .collect()
}

/// The three STAMP columns of Figure 5: Vacation-Low, Intruder, Genome.
pub fn figure5(scale: Scale) -> Vec<BenchDef> {
    let relations = scale.vacation_relations();
    vec![
        BenchDef {
            label: format!("STAMP - Vacation Low (r={relations})"),
            build: Box::new(move |heap| {
                Box::new(Vacation::new(heap, VacationConfig::low(relations)))
            }),
        },
        BenchDef {
            label: "STAMP - Intruder".into(),
            build: Box::new(|heap| Box::new(Intruder::new(heap, IntruderConfig::default()))),
        },
        BenchDef {
            label: "STAMP - Genome".into(),
            build: Box::new(|heap| Box::new(Genome::new(heap, GenomeConfig::default(), 77))),
        },
    ]
}

/// The three STAMP columns of Figure 6: Vacation-High, SSCA2, Yada.
pub fn figure6(scale: Scale) -> Vec<BenchDef> {
    let relations = scale.vacation_relations();
    vec![
        BenchDef {
            label: format!("STAMP - Vacation High (r={relations})"),
            build: Box::new(move |heap| {
                Box::new(Vacation::new(heap, VacationConfig::high(relations)))
            }),
        },
        BenchDef {
            label: "STAMP - SSCA2".into(),
            build: Box::new(|heap| Box::new(Ssca2::new(heap, Ssca2Config::default(), 78))),
        },
        BenchDef {
            label: "STAMP - Yada".into(),
            build: Box::new(|heap| Box::new(Yada::new(heap, YadaConfig::default()))),
        },
    ]
}

/// The paper-adjacent extras (Kmeans, Labyrinth — "similar to SSCA2").
pub fn extras(_scale: Scale) -> Vec<BenchDef> {
    vec![
        BenchDef {
            label: "STAMP - Kmeans".into(),
            build: Box::new(|heap| Box::new(Kmeans::new(heap, KmeansConfig::default(), 79))),
        },
        BenchDef {
            label: "STAMP - Labyrinth".into(),
            build: Box::new(|heap| Box::new(Labyrinth::new(heap, LabyrinthConfig::default()))),
        },
    ]
}

/// One figure cell grid: every algorithm × every thread count.
pub fn run_figure(
    name: &str,
    benches: &[BenchDef],
    algorithms: &[Algorithm],
    scale: Scale,
    csv: bool,
    overrides: &Overrides,
) {
    let threads = overrides.threads(scale);
    let duration = overrides.duration(scale);
    for bench in benches {
        let mut grid: Vec<(Algorithm, Vec<CellResult>)> = Vec::new();
        for &alg in algorithms {
            let mut row = Vec::new();
            for &n in &threads {
                let config = CellConfig {
                    duration,
                    ..CellConfig::new(alg, n, duration)
                };
                row.push(run_cell(&*bench.build, &config));
            }
            grid.push((alg, row));
        }
        if csv {
            report::print_csv(name, &bench.label, &threads, &grid);
        } else {
            report::print_figure(name, &bench.label, &threads, &grid);
        }
    }
}

/// The ablation grid of DESIGN.md: design choices the paper calls out,
/// including the single-vs-sharded commit-clock comparison (each clocked
/// engine at `clock_shards = 1` and `= 4`, same workload).
pub fn run_ablations(scale: Scale) {
    let threads = 8;
    let duration = scale.duration();
    let size = scale.rbtree_size();
    let build: WorkloadBuilder = Box::new(move |heap| {
        Box::new(RbTreeBench::new(
            heap,
            RbTreeBenchConfig { initial_size: size, mutation_pct: 10 },
        ))
    });

    println!("== Ablations (RBTree {size} nodes, 10% mutations, {threads} threads) ==");
    type Override = fn(rh_norec::TmConfigBuilder) -> rh_norec::TmConfigBuilder;
    let cases: Vec<(&str, Algorithm, Option<Override>)> = vec![
        ("RH-NOrec (prefix+postfix)", Algorithm::RhNorec, None),
        ("RH-NOrec postfix-only (Alg.2)", Algorithm::RhNorecPostfixOnly, None),
        ("RH-NOrec fixed prefix length", Algorithm::RhNorec,
            Some(|b| b.adaptive_prefix(false))),
        ("RH-NOrec small-HTM retries=4", Algorithm::RhNorec,
            Some(|b| b.small_htm_retries(4))),
        ("RH-NOrec fast-path retries=1", Algorithm::RhNorec,
            Some(|b| b.fast_path_retries(1))),
        ("RH-NOrec @ clock_shards=4", Algorithm::RhNorec,
            Some(|b| b.clock_shards(4))),
        ("HY-NOrec (eager slow path)", Algorithm::HybridNorec, None),
        ("HY-NOrec @ clock_shards=4", Algorithm::HybridNorec,
            Some(|b| b.clock_shards(4))),
        ("HY-NOrec (lazy slow path)", Algorithm::HybridNorecLazy, None),
        ("NOrec eager", Algorithm::Norec, None),
        ("NOrec eager @ clock_shards=4", Algorithm::Norec,
            Some(|b| b.clock_shards(4))),
        ("NOrec lazy", Algorithm::NorecLazy, None),
    ];
    println!(
        "{:<34} {:>12} {:>10} {:>10} {:>9} {:>8} {:>8}",
        "variant", "ops/s", "conf/op", "cap/op", "slow%", "prefix%", "postfix%"
    );
    for (label, alg, overrides) in cases {
        let config = CellConfig {
            duration,
            tm_overrides: overrides,
            ..CellConfig::new(alg, threads, duration)
        };
        let r = run_cell(&*build, &config);
        println!(
            "{:<34} {:>12.0} {:>10.4} {:>10.4} {:>8.1}% {:>7.0}% {:>7.0}%",
            label,
            r.throughput(),
            r.conflicts_per_op(),
            r.capacity_per_op(),
            r.tm.slow_path_ratio() * 100.0,
            r.tm.prefix_success_ratio() * 100.0,
            r.tm.postfix_success_ratio() * 100.0,
        );
    }
}

/// The paper's headline claims (§1.3, §3.5): RH vs HY speedups on the
/// RBTree, and the HTM-conflict reduction factors.
pub fn run_summary(scale: Scale) {
    let threads = 16;
    let duration = scale.duration();
    println!("== Headline summary: RH-NOrec vs HY-NOrec at {threads} threads ==");
    println!(
        "{:<28} {:>13} {:>13} {:>9} {:>17}",
        "workload", "HY ops/s", "RH ops/s", "speedup", "conflict-reduction"
    );
    let mut benches = figure4(scale);
    benches.extend(figure5(scale));
    for bench in &benches {
        let mut results = Vec::new();
        for alg in [Algorithm::HybridNorec, Algorithm::RhNorec] {
            let config = CellConfig {
                duration,
                ..CellConfig::new(alg, threads, duration)
            };
            results.push(run_cell(&*bench.build, &config));
        }
        let (hy, rh) = (results[0], results[1]);
        let speedup = rh.throughput() / hy.throughput().max(1.0);
        let conflict_reduction = if rh.conflicts_per_op() > 0.0 {
            hy.conflicts_per_op() / rh.conflicts_per_op()
        } else if hy.conflicts_per_op() > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        println!(
            "{:<28} {:>13.0} {:>13.0} {:>8.2}x {:>16.1}x",
            bench.label.chars().take(28).collect::<String>(),
            hy.throughput(),
            rh.throughput(),
            speedup,
            conflict_reduction,
        );
    }
}
