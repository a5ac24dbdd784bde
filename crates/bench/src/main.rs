//! The figure-regeneration binary. Every target prints to stdout and
//! writes no file.
//!
//! ```text
//! cargo run -p rh-bench --release -- fig4            # Figure 4 (RBTree)
//! cargo run -p rh-bench --release -- fig5 fig6       # the STAMP figures
//! cargo run -p rh-bench --release -- summary         # headline ratios
//! cargo run -p rh-bench --release -- ablate          # design ablations
//! cargo run -p rh-bench --release -- ablate --policy # adaptive-vs-static policy grid
//! cargo run -p rh-bench --release -- all --paper     # everything, paper scale
//! ```
//!
//! Flags: `--paper` (full workload sizes; default is a quick scale),
//! `--csv` (machine-readable output), `--threads 1,4,16` (replace the
//! sweep), `--duration-ms 500` (per-cell interval), `--policy` (with
//! `ablate`: run the policy grid instead of the design ablations).

use rh_bench::batch::BatchArgs;
use rh_bench::figures::{self, Overrides, Scale};
use rh_bench::policy_grid;
use rh_bench::service::{self, ModeChoice, SchedChoice, ServiceArgs};
use rh_norec::Algorithm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
    };
    let csv = args.iter().any(|a| a == "--csv");
    let policy = args.iter().any(|a| a == "--policy");
    let mut overrides = Overrides::default();
    let mut service_args = ServiceArgs { csv, ..ServiceArgs::default() };
    let mut requests_flag: Option<usize> = None;
    let mut seed_flag: Option<u64> = None;
    let mut accounts_flag: Option<u64> = None;
    let mut zipf_flag: Option<f64> = None;
    let mut skip_next = false;
    let mut targets: Vec<&str> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if skip_next {
            skip_next = false;
            continue;
        }
        match arg.as_str() {
            "--engine" => {
                let name = args.get(i + 1).unwrap_or_else(|| usage("--engine needs a name"));
                service_args.engine = Some(service::parse_engine(name).unwrap_or_else(|| {
                    usage(&format!("unknown engine `{name}` (try rh-norec, hy-norec, norec, tl2, lock-elision)"))
                }));
                skip_next = true;
            }
            "--requests" => {
                let n = args.get(i + 1).unwrap_or_else(|| usage("--requests needs a count"));
                service_args.requests = n.parse().unwrap_or_else(|_| usage("bad request count"));
                requests_flag = Some(service_args.requests);
                skip_next = true;
            }
            "--seed" => {
                let s = args.get(i + 1).unwrap_or_else(|| usage("--seed needs a value"));
                service_args.seed = s.parse().unwrap_or_else(|_| usage("bad seed"));
                seed_flag = Some(service_args.seed);
                skip_next = true;
            }
            "--threads" => {
                let list = args.get(i + 1).unwrap_or_else(|| usage("--threads needs a list"));
                overrides.threads = Some(
                    list.split(',')
                        .map(|t| t.trim().parse().unwrap_or_else(|_| usage("bad thread count")))
                        .collect(),
                );
                skip_next = true;
            }
            "--duration-ms" => {
                let ms = args.get(i + 1).unwrap_or_else(|| usage("--duration-ms needs a value"));
                let ms: u64 = ms.parse().unwrap_or_else(|_| usage("bad duration"));
                overrides.duration = Some(std::time::Duration::from_millis(ms));
                skip_next = true;
            }
            "--accounts" => {
                let n = args.get(i + 1).unwrap_or_else(|| usage("--accounts needs a count"));
                accounts_flag = Some(n.parse().unwrap_or_else(|_| usage("bad account count")));
                skip_next = true;
            }
            "--zipf" => {
                let t = args.get(i + 1).unwrap_or_else(|| usage("--zipf needs an exponent"));
                zipf_flag = Some(t.parse().unwrap_or_else(|_| usage("bad zipf exponent")));
                skip_next = true;
            }
            "--sched" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage("--sched needs static|steal"));
                service_args.sched = Some(match v.as_str() {
                    "static" => SchedChoice::Static,
                    "steal" => SchedChoice::Steal,
                    _ => usage(&format!("bad --sched value `{v}` (static|steal)")),
                });
                skip_next = true;
            }
            "--mode" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage("--mode needs session|batch"));
                service_args.mode = Some(match v.as_str() {
                    "session" => ModeChoice::Session,
                    "batch" => ModeChoice::Batch,
                    _ => usage(&format!("bad --mode value `{v}` (session|batch)")),
                });
                skip_next = true;
            }
            "--smoke" => service_args.smoke = true,
            "--paper" | "--csv" | "--policy" => {}
            a if a.starts_with("--") => usage(&format!("unknown flag {a}")),
            a => targets.push(a),
        }
    }
    if targets.is_empty() {
        targets.push("all");
    }
    let algorithms = Algorithm::PAPER_SET;
    // The service pool reuses the global --threads list (first entry).
    if let Some(list) = &overrides.threads {
        if let Some(&first) = list.first() {
            service_args.threads = first;
        }
    }

    for target in targets {
        match target {
            "fig4" => figures::run_figure("Figure 4", &figures::figure4(scale), &algorithms, scale, csv, &overrides),
            "fig5" => figures::run_figure("Figure 5", &figures::figure5(scale), &algorithms, scale, csv, &overrides),
            "fig6" => figures::run_figure("Figure 6", &figures::figure6(scale), &algorithms, scale, csv, &overrides),
            "extras" => figures::run_figure("Extras", &figures::extras(scale), &algorithms, scale, csv, &overrides),
            "ablate" if policy => policy_grid::run(scale, csv),
            "ablate" => figures::run_ablations(scale),
            "summary" => figures::run_summary(scale),
            "overhead" => rh_bench::overhead::run(scale, csv),
            "service" => service::run(&service_args),
            "batch" => {
                let defaults = BatchArgs::default();
                rh_bench::batch::run(&BatchArgs {
                    threads: overrides.threads.clone().unwrap_or(defaults.threads),
                    transfers: requests_flag.unwrap_or(defaults.transfers),
                    accounts: accounts_flag.unwrap_or(defaults.accounts),
                    zipf_theta: zipf_flag.unwrap_or(defaults.zipf_theta),
                    seed: seed_flag.unwrap_or(defaults.seed),
                    smoke: service_args.smoke,
                    csv,
                });
            }
            "all" => {
                figures::run_figure("Figure 4", &figures::figure4(scale), &algorithms, scale, csv, &overrides);
                figures::run_figure("Figure 5", &figures::figure5(scale), &algorithms, scale, csv, &overrides);
                figures::run_figure("Figure 6", &figures::figure6(scale), &algorithms, scale, csv, &overrides);
                figures::run_ablations(scale);
                figures::run_summary(scale);
            }
            other => {
                eprintln!(
                    "unknown target `{other}`; use fig4|fig5|fig6|extras|ablate|summary|overhead|service|batch|all"
                );
                std::process::exit(2);
            }
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: rh-bench [fig4|fig5|fig6|extras|ablate|summary|overhead|service|batch|all]... \
       [--paper] [--csv] [--threads 1,2,4] [--duration-ms 500]\n       \
       rh-bench ablate --policy   (adaptive-vs-static policy grid)\n       \
       rh-bench service [--engine NAME] [--threads N] [--requests N] [--seed S] [--smoke] \
       [--sched static|steal] [--mode session|batch]\n       \
       rh-bench batch [--threads 1,2,4,8,16] [--requests N] [--accounts N] [--zipf THETA] \
       [--seed S] [--smoke]\n       \
       every target prints to stdout and writes no file");
    std::process::exit(2);
}
