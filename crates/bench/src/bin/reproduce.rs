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
//! reproduce crashes [--quick] [--seed N]  # kill-point crash matrix: die mid-write, resume, compare
//! reproduce pipeline [--quick] [--seed N] [--journal <run.ndjson>] [--resume]
//!           [--inject-faults <plan.json>] # end-to-end micro pipeline, resumable
//! reproduce kernels [--quick] [--threads N] # 1-vs-N-thread kernel micro-bench
//! reproduce memory [--quick]              # interpreter-vs-planned memory accounting
//! reproduce cache [--quick] [--seed N]    # cold-vs-warm block-store comparison
//! reproduce explorers [--quick] [--seed N] [--budget N] # evals-to-target per exploration strategy
//! reproduce verify [--seed N]             # qualitative shape checks
//! reproduce all [--quick] [--seed N]      # everything, in order
//! ```
//!
//! All subcommands honour `--threads N` (equivalently the `WOOTZ_THREADS`
//! environment variable) to size the `wootz-par` kernel thread pool; results
//! are bitwise identical at any thread count (see `PERFORMANCE.md`).

use std::process::ExitCode;

use wootz_bench::real::{fig6_report, table1_report, table2_report, MicroOpts};
use wootz_bench::simrep::{
    fig4_report, fig7_report, faults_report, shape_check, table3_report, table4_report,
    table5_report,
};

struct Args {
    command: String,
    quick: bool,
    seed: u64,
    json_dir: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
    journal: Option<std::path::PathBuf>,
    resume: bool,
    fault_plan: Option<std::path::PathBuf>,
    budget: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut quick = false;
    let mut seed = 7u64;
    let mut json_dir = None;
    let mut metrics_out = None;
    let mut journal = None;
    let mut resume = false;
    let mut fault_plan = None;
    let mut budget = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--resume" => resume = true,
            "--journal" => {
                let v = args.next().ok_or("--journal needs a path".to_string())?;
                journal = Some(std::path::PathBuf::from(v));
            }
            "--inject-faults" => {
                let v = args
                    .next()
                    .ok_or("--inject-faults needs a path".to_string())?;
                fault_plan = Some(std::path::PathBuf::from(v));
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value".to_string())?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--budget" => {
                let v = args.next().ok_or("--budget needs a value".to_string())?;
                budget = Some(v.parse().map_err(|_| format!("bad budget `{v}`"))?);
            }
            "--json" => {
                let v = args.next().ok_or("--json needs a directory".to_string())?;
                json_dir = Some(std::path::PathBuf::from(v));
            }
            "--metrics-out" => {
                let v = args.next().ok_or("--metrics-out needs a path".to_string())?;
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
    if resume && journal.is_none() {
        return Err("--resume requires --journal <path>".to_string());
    }
    Ok(Args {
        command,
        quick,
        seed,
        json_dir,
        metrics_out,
        journal,
        resume,
        fault_plan,
        budget,
    })
}

fn usage() -> String {
    "usage: reproduce <table1|table2|table3|table4|table5|fig4|fig6|fig7|faults|cluster|crashes|pipeline|kernels|memory|cache|explorers|verify|all> \
     [--quick] [--seed N] [--threads N] [--json <dir>] [--metrics-out <path>]\n\
     pipeline extras: [--journal <run.ndjson>] [--resume] [--inject-faults <plan.json>]\n\
     kernels: 1-vs-N-thread micro-bench; writes BENCH_kernels.json (to --json dir if given)\n\
     memory: interpreter-vs-planned allocation accounting; writes BENCH_exec_mem.json\n\
     cache: cold-vs-warm runs sharing a block store; writes BENCH_cache.json\n\
     explorers: evals-to-target per exploration strategy [--budget N]; writes BENCH_explorers.json"
        .to_string()
}

/// Hidden worker entry point: `reproduce cluster-worker --connect ADDR
/// --worker-id I` re-enters this binary as a distributed worker process
/// (the `cluster` and `crashes` reports spawn these against their own
/// executable).
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
            eprintln!("cluster-worker {id}: coordinator at `{addr}` gone past the orphan grace budget");
            ExitCode::from(86)
        }
        Err(e) => {
            eprintln!("cluster-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Hidden crash-matrix entry point: `reproduce crash-child
/// <pipeline|distributed:PORT> --dir D --out F [--seed N]` runs one
/// scenario fresh — this is the process `reproduce crashes` arms
/// `WOOTZ_CHAOS_KILL_AT` against and expects to die mid-write.
fn crash_child_main() -> ExitCode {
    let mut args = std::env::args().skip(2);
    let Some(scenario) = args.next() else {
        eprintln!("crash-child needs a scenario");
        return ExitCode::FAILURE;
    };
    let mut dir = None;
    let mut out = None;
    let mut seed = 7u64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--dir" => dir = args.next().map(std::path::PathBuf::from),
            "--out" => out = args.next().map(std::path::PathBuf::from),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            other => {
                eprintln!("crash-child: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(dir), Some(out)) = (dir, out) else {
        eprintln!("crash-child needs --dir <dir> --out <path>");
        return ExitCode::FAILURE;
    };
    match wootz_bench::crashrep::crash_child_main(&scenario, &dir, &out, seed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crash-child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(wootz_bench::clusterrep::WORKER_SUBCOMMAND) {
        return cluster_worker();
    }
    if std::env::args().nth(1).as_deref() == Some(wootz_bench::crashrep::CRASH_CHILD_SUBCOMMAND) {
        return crash_child_main();
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
        "pipeline" => {
            let faults = match &args.fault_plan {
                Some(path) => match wootz_fault::FaultPlan::load(path) {
                    Ok(plan) => Some(plan),
                    Err(e) => {
                        eprintln!("cannot load fault plan `{}`: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            match wootz_bench::real::pipeline_report(
                &micro,
                args.journal.clone(),
                args.resume,
                faults.as_ref(),
            ) {
                Ok(text) => {
                    println!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("pipeline failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "kernels" => {
            let threads = wootz_par::configured_threads();
            let reps = if args.quick { 3 } else { 9 };
            let art = wootz_bench::kernels::kernels(threads, reps, args.quick);
            let (text, ok) = wootz_bench::kernels::kernels_report(&art);
            println!("{text}");
            let json = wootz_bench::kernels::artifact_json(&art);
            let path = match &args.json_dir {
                Some(dir) => {
                    std::fs::create_dir_all(dir).ok();
                    dir.join("BENCH_kernels.json")
                }
                None => std::path::PathBuf::from("BENCH_kernels.json"),
            };
            match std::fs::write(&path, json) {
                Ok(()) => println!("kernel benchmark written to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "memory" => {
            let (batch, steps) = if args.quick { (4, 3) } else { (8, 6) };
            let art = wootz_bench::memrep::memory(batch, steps);
            let (text, ok) = wootz_bench::memrep::memory_report(&art);
            println!("{text}");
            let json = wootz_bench::memrep::artifact_json(&art);
            let path = match &args.json_dir {
                Some(dir) => {
                    std::fs::create_dir_all(dir).ok();
                    dir.join("BENCH_exec_mem.json")
                }
                None => std::path::PathBuf::from("BENCH_exec_mem.json"),
            };
            match std::fs::write(&path, json) {
                Ok(()) => println!("memory benchmark written to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "cache" => {
            let art = match wootz_bench::cacherep::cache(&micro) {
                Ok(art) => art,
                Err(e) => {
                    eprintln!("cache benchmark failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (text, ok) = wootz_bench::cacherep::cache_report(&art);
            println!("{text}");
            let json = wootz_bench::cacherep::artifact_json(&art);
            let path = match &args.json_dir {
                Some(dir) => {
                    std::fs::create_dir_all(dir).ok();
                    dir.join("BENCH_cache.json")
                }
                None => std::path::PathBuf::from("BENCH_cache.json"),
            };
            match std::fs::write(&path, json) {
                Ok(()) => println!("cache benchmark written to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "explorers" => {
            let budget = args.budget.unwrap_or(wootz_bench::exprep::DEFAULT_BUDGET);
            let scenario = wootz_bench::exprep::Scenario::standard(seed);
            let art = match wootz_bench::exprep::explorers(&scenario, budget) {
                Ok(art) => art,
                Err(e) => {
                    eprintln!("explorers benchmark failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (text, ok) = wootz_bench::exprep::explorers_report(&art);
            println!("{text}");
            let json = wootz_bench::exprep::artifact_json(&art);
            let path = match &args.json_dir {
                Some(dir) => {
                    std::fs::create_dir_all(dir).ok();
                    dir.join("BENCH_explorers.json")
                }
                None => std::path::PathBuf::from("BENCH_explorers.json"),
            };
            match std::fs::write(&path, json) {
                Ok(()) => println!("explorers benchmark written to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "crashes" => match wootz_bench::crashrep::crashes_report(seed, args.quick) {
            Ok(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Err(text) => {
                eprintln!("{text}");
                ExitCode::FAILURE
            }
        },
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
