//! The reproduction driver: one subcommand per table/figure of the Wootz
//! paper's evaluation.
//!
//! ```text
//! reproduce table1 [--quick] [--seed N]   # dataset stats + full accuracies (real training)
//! reproduce table2 [--quick] [--seed N]   # composability hypothesis (real training)
//! reproduce table3 [--seed N]             # speedups & config savings (simulation)
//! reproduce table4 [--seed N]             # speedups vs subspace size (simulation)
//! reproduce table5 [--seed N]             # identifier extra speedups (simulation)
//! reproduce fig4                          # Sequitur grammar/DAG example (exact)
//! reproduce fig6 [--quick] [--seed N]     # accuracy curves (real training)
//! reproduce fig7 [--seed N]               # accuracy vs size scatter (simulation)
//! reproduce faults [--seed N]             # speedup under node failures/stragglers (simulation)
//! reproduce cluster [--seed N]            # sim fault model vs the real distributed runtime
//! reproduce verify [--seed N]             # qualitative shape checks
//! reproduce all [--quick] [--seed N]      # everything, in order
//! ```
//!
//! All subcommands honour `--threads N` (equivalently the `WOOTZ_THREADS`
//! environment variable) to size the `wootz-par` kernel thread pool; results
//! are bitwise identical at any thread count (see `PERFORMANCE.md`).
//!
//! Crash recovery, resume and bit-identity across runtimes are not
//! artifacts of the paper: `wootz prune --journal --resume --inject-faults`
//! runs them, and `crates/cluster/tests/contracts.rs` pins them.

use std::process::ExitCode;

use wootz_bench::real::{fig6_report, table1_report, table2_report, MicroOpts};
use wootz_bench::simrep::{
    faults_report, fig4_report, fig7_report, shape_check, table3_report, table4_report,
    table5_report,
};

struct Args {
    command: String,
    quick: bool,
    seed: u64,
    json_dir: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut quick = false;
    let mut seed = 7u64;
    let mut json_dir = None;
    let mut metrics_out = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value".to_string())?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--json" => {
                let v = args.next().ok_or("--json needs a directory".to_string())?;
                json_dir = Some(std::path::PathBuf::from(v));
            }
            "--metrics-out" => {
                let v = args
                    .next()
                    .ok_or("--metrics-out needs a path".to_string())?;
                metrics_out = Some(std::path::PathBuf::from(v));
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a count".to_string())?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--threads needs a positive integer, got `{v}`"))?;
                wootz_par::set_threads(n);
                // Spawned worker processes (`reproduce cluster`) inherit the
                // same kernel-pool budget through the environment.
                std::env::set_var("WOOTZ_THREADS", n.to_string());
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        quick,
        seed,
        json_dir,
        metrics_out,
    })
}

fn usage() -> String {
    "usage: reproduce <table1|table2|table3|table4|table5|fig4|fig6|fig7|faults|cluster|verify|all> \
     [--quick] [--seed N] [--threads N] [--json <dir>] [--metrics-out <path>]"
        .to_string()
}

/// Hidden worker entry point: `reproduce cluster-worker --connect ADDR
/// --worker-id I` re-enters this binary as a distributed worker process
/// (the `cluster` report spawns these against its own executable).
fn cluster_worker() -> ExitCode {
    let mut connect = None;
    let mut worker_id = None;
    let mut args = std::env::args().skip(2);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => connect = args.next(),
            "--worker-id" => worker_id = args.next(),
            other => {
                eprintln!("cluster-worker: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(addr), Some(id)) = (connect, worker_id) else {
        eprintln!("cluster-worker needs --connect <addr> --worker-id <id>");
        return ExitCode::FAILURE;
    };
    // Orphan grace arrives via WOOTZ_ORPHAN_GRACE_MS, exported by the
    // coordinator that spawned us.
    match wootz_cluster::worker_net_main(&addr, &id, None) {
        Ok(wootz_cluster::WorkerExit::Shutdown) => ExitCode::SUCCESS,
        Ok(wootz_cluster::WorkerExit::CoordinatorGone) => {
            eprintln!(
                "cluster-worker {id}: coordinator at `{addr}` gone past the orphan grace budget"
            );
            ExitCode::from(86)
        }
        Err(e) => {
            eprintln!("cluster-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(wootz_bench::clusterrep::WORKER_SUBCOMMAND) {
        return cluster_worker();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.metrics_out.is_some() {
        wootz_obs::enable();
    }
    let code = dispatch(&args);
    if let Some(path) = &args.metrics_out {
        eprintln!("{}", wootz_obs::snapshot().summary());
        match wootz_obs::write_metrics(path) {
            Ok(()) => eprintln!("metrics written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write metrics `{}`: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

fn dispatch(args: &Args) -> ExitCode {
    let mut micro = if args.quick {
        MicroOpts::quick()
    } else {
        MicroOpts::standard()
    };
    micro.seed = args.seed;
    let seed = args.seed;

    let run = |name: &str| -> Option<String> {
        let text = match name {
            "table1" => Some(table1_report(&micro)),
            "table2" => Some(table2_report(&micro)),
            "table3" => Some(table3_report(seed)),
            "table4" => Some(table4_report(seed)),
            "table5" => Some(table5_report(seed)),
            "fig4" => Some(fig4_report()),
            "fig6" => Some(fig6_report(&micro)),
            "fig7" => Some(fig7_report(seed)),
            "faults" => Some(faults_report(seed)),
            _ => None,
        }?;
        if let Some(dir) = &args.json_dir {
            std::fs::create_dir_all(dir).ok();
            let json = match name {
                "table3" | "table4" | "table5" | "fig7" | "faults" => {
                    Some(wootz_bench::simrep::artifact_json(name, seed))
                }
                "table1" | "table2" | "fig6" => {
                    Some(wootz_bench::real::artifact_json(name, &micro))
                }
                _ => None,
            };
            if let Some(json) = json {
                let path = dir.join(format!("{name}.json"));
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                }
            }
        }
        Some(text)
    };

    match args.command.as_str() {
        "cluster" => match wootz_bench::clusterrep::cluster_report(seed) {
            Ok(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Err(text) => {
                eprintln!("{text}");
                ExitCode::FAILURE
            }
        },
        "verify" => {
            let (ok, report) = shape_check(seed);
            println!("{report}");
            if ok {
                println!("all shape checks passed");
                ExitCode::SUCCESS
            } else {
                println!("some shape checks FAILED");
                ExitCode::FAILURE
            }
        }
        "all" => {
            for name in [
                "fig4", "table1", "table2", "fig6", "fig7", "table3", "table4", "table5", "faults",
            ] {
                println!("================================================================");
                println!("{}", run(name).expect("known artifact"));
            }
            let (ok, report) = shape_check(seed);
            println!("================================================================");
            println!("{report}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => match run(other) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown command `{other}`\n{}", usage());
                ExitCode::FAILURE
            }
        },
    }
}
