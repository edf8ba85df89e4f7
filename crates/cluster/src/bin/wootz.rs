//! The Wootz command-line framework: the file-driven workflow of the
//! paper's Figure 2.
//!
//! ```text
//! wootz compile <model.prototxt> [--emit-python <out.py>] [--summary]
//!     Parse and validate a model; print its statistics; optionally write
//!     the generated TensorFlow-Slim-style multiplexing model.
//!
//! wootz sample --modules N --count K [--seed S] [--segments M] [--out configs.json]
//!     Sample a promising subspace (the paper's random sampling, or
//!     segment-constrained "collection-2" sampling with --segments).
//!
//! wootz identify --model <model.prototxt> --configs <configs.json>
//!     Run the hierarchical tuning-block identifier and print the blocks,
//!     composite vectors and concurrent pre-training groups.
//!
//! wootz genmodel [--classes N] [--deep] [--family resnet|inception] [--out model.prototxt]
//!     Emit a mini preset model as Prototxt, so scripted runs need no
//!     hand-written model file.
//!
//! wootz prune --model <model.prototxt> --configs <configs.json>
//!             --solver <solver.prototxt> --objective <objective.txt>
//!             [--mode baseline|composability|hierarchical]
//!             [--explorer fixed|taylor|bandit] [--explorer-budget N]
//!             [--out results.json]
//!             [--journal <run.ndjson>] [--resume]
//!             [--inject-faults <plan.json>]
//!             [--retry-attempts N] [--on-fail skip|abort]
//!             [--distributed N --run-dir <dir> [--lease-ms MS] [--listen ADDR]
//!              [--orphan-grace-ms MS]]
//!     Run the full pruning pipeline on the micro dataset named in the
//!     solver's `dataset:` field. With `--journal`, every completed unit
//!     of work is appended to an NDJSON journal; `--resume` replays it and
//!     skips the finished work. `--inject-faults` loads a deterministic
//!     fault plan (see `wootz-fault`); the retry flags control the
//!     evaluation supervisor (defaults: 1 attempt + abort without faults,
//!     3 attempts + skip when a fault plan is given). `--distributed N`
//!     executes pre-training and evaluation on N worker OS processes that
//!     the coordinator spawns and feeds over a loopback TCP socket
//!     speaking the `wootz-wire` framed protocol (see PROTOCOL.md), from
//!     a crash-safe task queue it journals under `--run-dir` (results
//!     stay bit-identical to the single-process run; see DESIGN.md §9).
//!     `--listen ADDR` names the socket's address instead of an ephemeral
//!     loopback port, to accept workers from other machines
//!     (`wootz worker --connect`) or to survive a restart. A killed
//!     coordinator restarts with `--resume --listen <same addr>`: the
//!     epoch bumps, live workers are re-adopted on their next redial, and
//!     the result is bit-identical to an uninterrupted run. `--orphan-grace-ms` sets the workers' orphan
//!     grace budget (how long they redial a gone coordinator).
//!     `--explorer` selects the exploration strategy (DESIGN.md §14):
//!     `fixed` (the paper's objective-ordered sweep; the default) or an
//!     adaptive propose/observe strategy (`taylor` saliency ladder,
//!     `bandit` seeded policy) that grows the configuration universe
//!     round by round. `--explorer-budget N` caps an adaptive strategy
//!     at N proposal evaluations (default 64); it is an error with
//!     `--explorer fixed`. Adaptive runs compose with `--distributed`:
//!     workers receive proposed configurations inside their tasks, so
//!     the flags are coordinator-side only.
//!
//! wootz worker --connect <addr> --worker-id <id> [--orphan-grace-ms MS]
//!     Join a distributed run as a worker process by dialing its
//!     coordinator's socket. `wootz prune --distributed` spawns these
//!     itself; extra workers started by hand against a `--listen`
//!     address simply join.
//!     A worker whose orphan grace budget expires without reaching a
//!     coordinator exits with code 86 ("coordinator gone") so supervisors
//!     can distinguish it from a clean shutdown or a crash.
//! ```
//!
//! Configuration files are JSON arrays of per-module rate vectors, e.g.
//! `[[30, 0, 50, 70], [50, 50, 0, 30]]` — the open-format equivalent of
//! the pickled Python lists the paper's compiler accepts (Figure 3 (a)).
//!
//! Every command additionally accepts `--metrics-out <path>`: it enables
//! span/event tracing for the run, writes the full `wootz-obs` report to
//! `<path>` on exit (NDJSON when the extension is `.ndjson`/`.jsonl`,
//! pretty JSON otherwise) and prints a human-readable summary table to
//! stderr. See `OBSERVABILITY.md` for the schema and naming scheme.
//!
//! Every command also accepts `--threads <n>`: it sizes the process-global
//! `wootz-par` kernel pool (default: the `WOOTZ_THREADS` environment
//! variable, else the machine's available parallelism). Distributed workers
//! inherit the setting. Results are bit-identical for any thread count —
//! see `PERFORMANCE.md` for the determinism contract.
//!
//! Every command also accepts `--exec-plan on|off` (default `on`): `on`
//! compiles each graph to an `ExecPlan` and trains against a reusable
//! tensor arena (zero steady-state allocations); `off` selects the
//! reference interpreter. The two are bit-identical — see `DESIGN.md` §10.

use std::path::PathBuf;
use std::process::ExitCode;

use wootz_cluster::{
    run_distributed, self_worker_cmd, serve, submit, worker_net_main, ClusterOptions, Message,
    ServeOptions, WorkerExit,
};
use wootz_core::blocks::{identify_tuning_blocks, partition_into_groups};
use wootz_core::explorer::ExplorerKind;
use wootz_core::pipeline::{run_wootz_with, RunMode, RunOptions, WootzInputs, WootzRun};
use wootz_fault::chaos;
use wootz_fault::{FaultPlan, OnExhausted, RetryPolicy};
use wootz_core::prune::{sample_segment_subspace, sample_subspace, PruneConfig, PAPER_RATES};
use wootz_core::stats::model_stats;
use wootz_data::micro_dataset;
use wootz_ir::{ModelIr, Objective, SolverConfig};

/// Exit code of a TCP worker whose orphan grace budget expired without
/// ever reaching a coordinator again — distinct from success (clean
/// shutdown) and from 1 (error), so supervisors can tell "the run ended"
/// from "the coordinator never came back".
const ORPHAN_EXIT_CODE: u8 = 86;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wootz: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--metrics-out` is global: it may appear anywhere on the command line.
    let metrics_out: Option<PathBuf> = take_flag(&mut args, "--metrics-out").map(Into::into);
    if metrics_out.is_some() {
        wootz_obs::enable();
    }
    // `--threads` is global too: it sizes the process-wide `wootz-par` pool
    // (default: `WOOTZ_THREADS`, else the machine's available parallelism)
    // and is inherited by spawned workers via `WOOTZ_THREADS`. Results are
    // bit-identical for any value — see PERFORMANCE.md.
    if let Some(t) = take_flag(&mut args, "--threads") {
        let n: usize = t
            .parse()
            .map_err(|_| format!("--threads expects a positive integer, got `{t}`"))?;
        if n == 0 {
            return Err("--threads expects a positive integer, got `0`".into());
        }
        wootz_par::set_threads(n);
        // Worker processes spawned by `--distributed` inherit the budget.
        std::env::set_var("WOOTZ_THREADS", n.to_string());
    }
    // `--exec-plan on|off` is global: it selects the planned executor
    // (compile-once ExecPlan + arena reuse; the default) or the reference
    // interpreter. Both are bit-identical — `off` exists for debugging and
    // for the memory benchmark's baseline. Workers inherit via
    // `WOOTZ_EXEC_PLAN`.
    if let Some(v) = take_flag(&mut args, "--exec-plan") {
        let on = match v.as_str() {
            "on" => true,
            "off" => false,
            other => return Err(format!("--exec-plan expects on|off, got `{other}`").into()),
        };
        wootz_nn::set_exec_plan_enabled(on);
        std::env::set_var("WOOTZ_EXEC_PLAN", if on { "on" } else { "off" });
    }
    if args.is_empty() {
        return Err(usage().into());
    }
    let command = args.remove(0);
    // `worker` reports its outcome as a process exit code (an orphaned
    // worker is not an error, but it is not success either); every other
    // command is plain success/failure.
    let result: Result<ExitCode, Box<dyn std::error::Error>> = match command.as_str() {
        "compile" => cmd_compile(args).map(|()| ExitCode::SUCCESS),
        "sample" => cmd_sample(args).map(|()| ExitCode::SUCCESS),
        "identify" => cmd_identify(args).map(|()| ExitCode::SUCCESS),
        "genmodel" => cmd_genmodel(args).map(|()| ExitCode::SUCCESS),
        "prune" => cmd_prune(args).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(args).map(|()| ExitCode::SUCCESS),
        "submit" => cmd_submit(args).map(|()| ExitCode::SUCCESS),
        "worker" => cmd_worker(args),
        "chaos" => cmd_chaos(args).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    };
    // Export even when the command failed: a partial trace is exactly what
    // one wants when debugging an aborted run.
    if let Some(path) = &metrics_out {
        eprintln!("{}", wootz_obs::snapshot().summary());
        wootz_obs::write_metrics(path)
            .map_err(|e| format!("cannot write metrics `{}`: {e}", path.display()))?;
        eprintln!("metrics written to {}", path.display());
    }
    result
}

fn usage() -> &'static str {
    "usage: wootz <compile|sample|identify|genmodel|prune|serve|submit|worker|chaos|help> [options] [--metrics-out <path>] [--threads <n>] [--exec-plan on|off]\n\
     serve:  --store <dir> [--listen <addr>] [--store-budget <bytes>] [--state <dir>]\n\
     submit: --connect <addr> --model <file> --configs <file> --solver <file> --objective <file> [--mode <m>] [--explorer fixed|taylor|bandit] [--explorer-budget <n>]\n\
     prune:  … [--explorer fixed|taylor|bandit] [--explorer-budget <n>] selects the exploration strategy (DESIGN.md §14)\n\
     prune:  … [--distributed <n> --run-dir <dir> [--listen <addr>] [--lease-ms <ms>] [--orphan-grace-ms <ms>]] runs on n worker processes over TCP (DESIGN.md §9)\n\
     worker: --connect <addr> --worker-id <id> [--orphan-grace-ms <ms>]\n\
     run `wootz help` for per-command options; SERVING.md documents the daemon"
}

/// Pulls the value following `--flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        return None;
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Pulls a boolean `--flag`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Default adaptive-explorer evaluation budget (`--explorer-budget`).
const DEFAULT_EXPLORER_BUDGET: usize = 64;

/// Pulls `--explorer` / `--explorer-budget` out of `args` and validates
/// the combination: the budget only makes sense for an adaptive
/// strategy, and an adaptive strategy without an explicit budget gets
/// [`DEFAULT_EXPLORER_BUDGET`]. The fixed explorer always runs with
/// budget 0 (no adaptive rounds).
fn take_explorer_flags(
    args: &mut Vec<String>,
) -> Result<(ExplorerKind, usize), Box<dyn std::error::Error>> {
    let explorer = match take_flag(args, "--explorer") {
        Some(s) => ExplorerKind::parse(&s)?,
        None => ExplorerKind::Fixed,
    };
    let budget_flag: Option<usize> = match take_flag(args, "--explorer-budget") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --explorer-budget: {e}"))?),
        None => None,
    };
    if budget_flag.is_some() && !explorer.is_adaptive() {
        return Err(
            "--explorer-budget requires an adaptive explorer (--explorer taylor|bandit)".into(),
        );
    }
    let budget = if explorer.is_adaptive() {
        budget_flag.unwrap_or(DEFAULT_EXPLORER_BUDGET)
    } else {
        0
    };
    Ok((explorer, budget))
}

fn reject_leftovers(args: &[String]) -> CliResult {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unrecognized arguments: {args:?}").into())
    }
}

fn load_model(path: &str) -> Result<ModelIr, Box<dyn std::error::Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read model `{path}`: {e}"))?;
    Ok(ModelIr::parse(&text)?)
}

fn load_configs(path: &str) -> Result<Vec<PruneConfig>, Box<dyn std::error::Error>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read configs `{path}`: {e}"))?;
    let raw: Vec<Vec<u8>> = serde_json::from_str(&text)
        .map_err(|e| format!("configs `{path}` must be a JSON array of rate arrays: {e}"))?;
    raw.into_iter()
        .map(|rates| PruneConfig::new(rates).map_err(Into::into))
        .collect()
}

fn cmd_compile(mut args: Vec<String>) -> CliResult {
    let emit_python = take_flag(&mut args, "--emit-python");
    let summary = take_switch(&mut args, "--summary");
    if args.len() != 1 {
        return Err("compile needs exactly one <model.prototxt>".into());
    }
    let model = load_model(&args[0])?;
    println!(
        "compiled `{}`: {} layers, {} convolution modules, {} prunable convolutions",
        model.name(),
        model.layers().len(),
        model.conv_module_ids().len(),
        model.prunable_convs().len()
    );
    let stats = model_stats(&model);
    if summary {
        println!("\n{}", stats.render());
    } else {
        println!(
            "{} parameters, {} FLOPs/sample",
            stats.total_params, stats.total_flops
        );
    }
    if let Some(path) = emit_python {
        let py = wootz_core::codegen::emit_python(&model);
        std::fs::write(&path, py).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote multiplexing model to {path}");
    }
    Ok(())
}

fn cmd_sample(mut args: Vec<String>) -> CliResult {
    let modules: usize = take_flag(&mut args, "--modules")
        .ok_or("sample needs --modules N")?
        .parse()
        .map_err(|e| format!("bad --modules: {e}"))?;
    let count: usize = take_flag(&mut args, "--count")
        .ok_or("sample needs --count K")?
        .parse()
        .map_err(|e| format!("bad --count: {e}"))?;
    let seed: u64 = take_flag(&mut args, "--seed")
        .map_or(Ok(7), |s| s.parse())
        .map_err(|e| format!("bad --seed: {e}"))?;
    let segments: Option<usize> = match take_flag(&mut args, "--segments") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --segments: {e}"))?),
        None => None,
    };
    let out = take_flag(&mut args, "--out");
    reject_leftovers(&args)?;

    let configs = match segments {
        Some(m) => sample_segment_subspace(modules, &PAPER_RATES, m, count, seed),
        None => sample_subspace(modules, &PAPER_RATES, count, seed),
    };
    let rates: Vec<&[u8]> = configs.iter().map(|c| c.rates()).collect();
    let json = serde_json::to_string_pretty(&rates)?;
    match out {
        Some(path) => {
            std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {} configurations to {path}", configs.len());
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_identify(mut args: Vec<String>) -> CliResult {
    let model = load_model(&take_flag(&mut args, "--model").ok_or("identify needs --model")?)?;
    let configs =
        load_configs(&take_flag(&mut args, "--configs").ok_or("identify needs --configs")?)?;
    reject_leftovers(&args)?;
    let n = model.conv_module_ids().len();
    for (i, c) in configs.iter().enumerate() {
        if c.len() != n {
            return Err(format!(
                "configuration {i} covers {} modules, model `{}` has {n}",
                c.len(),
                model.name()
            )
            .into());
        }
    }
    let set = identify_tuning_blocks(&configs)?;
    println!(
        "identified {} tuning blocks from {} configurations:",
        set.blocks.len(),
        configs.len()
    );
    for block in &set.blocks {
        println!("  {}", block.key());
    }
    println!("\ncomposite vectors:");
    for comp in &set.composites {
        let parts: Vec<String> = comp
            .parts
            .iter()
            .map(|p| set.blocks[p.block_index].key())
            .collect();
        println!("  network {:3}: {}", comp.config_index, parts.join(" | "));
    }
    let groups = partition_into_groups(&set.blocks);
    println!("\npre-training groups ({}):", groups.len());
    for (gi, g) in groups.iter().enumerate() {
        let keys: Vec<String> = g.iter().map(|&b| set.blocks[b].key()).collect();
        println!("  group {gi}: {}", keys.join(", "));
    }
    Ok(())
}

fn cmd_genmodel(mut args: Vec<String>) -> CliResult {
    let classes: usize = take_flag(&mut args, "--classes")
        .map_or(Ok(8), |s| s.parse())
        .map_err(|e| format!("bad --classes: {e}"))?;
    let deep = take_switch(&mut args, "--deep");
    let family = take_flag(&mut args, "--family").unwrap_or_else(|| "resnet".into());
    let out = take_flag(&mut args, "--out");
    reject_leftovers(&args)?;

    let model = match (family.as_str(), deep) {
        ("resnet", false) => wootz_models::resnet_mini(classes),
        ("resnet", true) => wootz_models::resnet_mini_deep(classes),
        ("inception", false) => wootz_models::inception_mini(classes),
        ("inception", true) => wootz_models::inception_mini_deep(classes),
        (other, _) => {
            return Err(format!("unknown --family `{other}` (want resnet|inception)").into())
        }
    };
    let text = model.to_prototxt();
    match out {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!(
                "wrote `{}` ({} convolution modules) to {path}",
                model.name(),
                model.conv_module_ids().len()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_prune(mut args: Vec<String>) -> CliResult {
    let model = load_model(&take_flag(&mut args, "--model").ok_or("prune needs --model")?)?;
    let subspace =
        load_configs(&take_flag(&mut args, "--configs").ok_or("prune needs --configs")?)?;
    let solver_path = take_flag(&mut args, "--solver").ok_or("prune needs --solver")?;
    let objective_path = take_flag(&mut args, "--objective").ok_or("prune needs --objective")?;
    let mode = match take_flag(&mut args, "--mode").as_deref() {
        None | Some("composability") => RunMode::Composability,
        Some("baseline") => RunMode::Baseline,
        Some("hierarchical") => RunMode::ComposabilityHierarchical,
        Some(other) => return Err(format!("unknown --mode `{other}`").into()),
    };
    let out: Option<PathBuf> = take_flag(&mut args, "--out").map(Into::into);
    let journal: Option<PathBuf> = take_flag(&mut args, "--journal").map(Into::into);
    let resume = take_switch(&mut args, "--resume");
    let fault_path = take_flag(&mut args, "--inject-faults");
    let retry_attempts: Option<u32> = match take_flag(&mut args, "--retry-attempts") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --retry-attempts: {e}"))?),
        None => None,
    };
    let on_fail = take_flag(&mut args, "--on-fail");
    let distributed: Option<usize> = match take_flag(&mut args, "--distributed") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --distributed: {e}"))?),
        None => None,
    };
    let run_dir: Option<PathBuf> = take_flag(&mut args, "--run-dir").map(Into::into);
    let lease_ms: Option<u64> = match take_flag(&mut args, "--lease-ms") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --lease-ms: {e}"))?),
        None => None,
    };
    let listen = take_flag(&mut args, "--listen");
    let orphan_grace_ms: Option<u64> = match take_flag(&mut args, "--orphan-grace-ms") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --orphan-grace-ms: {e}"))?),
        None => None,
    };
    let store_dir: Option<PathBuf> = take_flag(&mut args, "--store").map(Into::into);
    let store_budget: Option<u64> = match take_flag(&mut args, "--store-budget") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --store-budget: {e}"))?),
        None => None,
    };
    let (explorer, explorer_budget) = take_explorer_flags(&mut args)?;
    reject_leftovers(&args)?;

    if store_budget.is_some() && store_dir.is_none() {
        return Err("--store-budget only applies with --store <dir>".into());
    }
    if store_dir.is_some() && distributed.is_some() {
        return Err("--store applies to single-process runs (the serve daemon owns the store in distributed setups)".into());
    }

    if distributed.is_none()
        && (run_dir.is_some() || lease_ms.is_some() || listen.is_some() || orphan_grace_ms.is_some())
    {
        return Err(
            "--run-dir/--lease-ms/--listen/--orphan-grace-ms only apply with --distributed N"
                .into(),
        );
    }

    if resume && journal.is_none() {
        return Err("--resume requires --journal <path>".into());
    }
    let faults: Option<FaultPlan> = match &fault_path {
        Some(path) => Some(
            FaultPlan::load(path).map_err(|e| format!("cannot load fault plan `{path}`: {e}"))?,
        ),
        None => None,
    };
    // Without faults the default policy preserves the legacy semantics
    // exactly (one attempt, abort); with a fault plan the supervisor
    // defaults to three attempts and skipping exhausted configurations.
    let mut retry = if faults.is_some() {
        RetryPolicy::skip_after(3)
    } else {
        RetryPolicy::abort_fast()
    };
    if let Some(n) = retry_attempts {
        retry.max_attempts = n.max(1);
    }
    match on_fail.as_deref() {
        None => {}
        Some("skip") => retry.on_exhausted = OnExhausted::Skip,
        Some("abort") => retry.on_exhausted = OnExhausted::Abort,
        Some(other) => return Err(format!("unknown --on-fail `{other}` (want skip|abort)").into()),
    }

    let solver = SolverConfig::parse(
        &std::fs::read_to_string(&solver_path)
            .map_err(|e| format!("cannot read solver `{solver_path}`: {e}"))?,
    )?;
    let objective = Objective::parse(
        &std::fs::read_to_string(&objective_path)
            .map_err(|e| format!("cannot read objective `{objective_path}`: {e}"))?,
    )?;
    let dataset = micro_dataset(&solver.dataset, solver.seed);
    println!(
        "pruning `{}` on dataset `{}` ({} configurations, mode {mode:?})",
        model.name(),
        solver.dataset,
        subspace.len()
    );
    let inputs = WootzInputs {
        model,
        subspace,
        solver,
        objective,
    };
    let run: WootzRun = match distributed {
        None => {
            let store = match &store_dir {
                Some(dir) => Some(
                    wootz_store::BlockStore::open(dir, store_budget)
                        .map_err(|e| format!("cannot open block store: {e}"))?,
                ),
                None => None,
            };
            let opts = RunOptions {
                faults: faults.as_ref(),
                retry,
                journal,
                resume,
                store: store.as_ref(),
                explorer,
                explorer_budget,
                ..RunOptions::default()
            };
            let run = run_wootz_with(&inputs, &dataset, mode, None, &opts)?;
            if let Some(store) = &store {
                let stats = store.stats();
                println!(
                    "block store: {} hits, {} misses, {} inserts, {} evictions, {} bytes",
                    stats.hits, stats.misses, stats.inserts, stats.evictions, stats.bytes
                );
            }
            run
        }
        Some(workers) => {
            let run_dir =
                run_dir.ok_or("--distributed needs --run-dir <dir> for the task queue")?;
            let mut copts = ClusterOptions::new(run_dir, workers, self_worker_cmd(&["worker"])?);
            copts.faults = faults.as_ref();
            copts.retry = retry;
            copts.journal = journal;
            copts.resume = resume;
            if let Some(ms) = lease_ms {
                copts.lease_ms = ms.max(1);
            }
            copts.listen = listen;
            copts.orphan_grace_ms = orphan_grace_ms;
            copts.explorer = explorer;
            copts.explorer_budget = explorer_budget;
            let (run, stats) = run_distributed(&inputs, &dataset, mode, &copts)?;
            println!("{}", stats.summary());
            run
        }
    };
    println!("full-model accuracy: {:.3}", run.full_accuracy);
    println!(
        "explored {} configurations ({} fine-tune steps, {} pre-train steps, {} blocks)",
        run.exploration.configs_explored,
        run.finetune_steps,
        run.pretrain_steps,
        run.blocks_pretrained
    );
    println!(
        "exploration: {} evaluated fresh, {} resumed from journal, {} failed",
        run.exploration.fresh_evals(),
        run.exploration.resumed,
        run.exploration.failed
    );
    match &run.best {
        Some(best) => println!(
            "best network: rates {:?} -> {} params @ accuracy {:.3}",
            best.rates, best.model_size, best.accuracy
        ),
        None => println!("no configuration met the objective"),
    }
    // One line, only when something was damaged and survived.
    if let Some(summary) = wootz_core::recovery::degradation_summary() {
        eprintln!("{summary}");
    }
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&run)?;
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        println!("wrote results to {}", path.display());
    }
    Ok(())
}

/// `wootz serve`: the pruning-as-a-service daemon (SERVING.md). Binds,
/// prints `serving on <addr>`, and accepts jobs until killed.
fn cmd_serve(mut args: Vec<String>) -> CliResult {
    let listen = take_flag(&mut args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let store_dir: PathBuf = take_flag(&mut args, "--store")
        .ok_or("serve needs --store <dir> (the block-cache directory)")?
        .into();
    let store_budget: Option<u64> = match take_flag(&mut args, "--store-budget") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --store-budget: {e}"))?),
        None => None,
    };
    let state_dir: PathBuf = take_flag(&mut args, "--state")
        .map(Into::into)
        .unwrap_or_else(|| store_dir.join("state"));
    reject_leftovers(&args)?;
    serve(&ServeOptions {
        listen,
        store_dir,
        store_budget,
        state_dir,
    })?;
    Ok(())
}

/// `wootz submit`: sends one job to a serve daemon, streaming its events
/// to stdout. The input files are read here and shipped as text — the
/// daemon needs no shared filesystem.
fn cmd_submit(mut args: Vec<String>) -> CliResult {
    let addr = take_flag(&mut args, "--connect").ok_or("submit needs --connect <addr>")?;
    let mut read = |flag: &str| -> Result<String, Box<dyn std::error::Error>> {
        let path =
            take_flag(&mut args, flag).ok_or_else(|| format!("submit needs {flag} <file>"))?;
        Ok(std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read `{path}`: {e}"))?)
    };
    let model = read("--model")?;
    let configs = read("--configs")?;
    let solver = read("--solver")?;
    let objective = read("--objective")?;
    let mode = take_flag(&mut args, "--mode").unwrap_or_default();
    let (explorer, explorer_budget) = take_explorer_flags(&mut args)?;
    reject_leftovers(&args)?;
    submit(
        &addr,
        &Message::SubmitJob {
            model,
            configs,
            solver,
            objective,
            mode,
            explorer: explorer.as_str().to_string(),
            explorer_budget: explorer_budget as u64,
        },
    )?;
    Ok(())
}

fn cmd_worker(mut args: Vec<String>) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let addr = take_flag(&mut args, "--connect").ok_or("worker needs --connect <addr>")?;
    let worker_id = take_flag(&mut args, "--worker-id").ok_or("worker needs --worker-id <id>")?;
    let orphan_grace_ms: Option<u64> = match take_flag(&mut args, "--orphan-grace-ms") {
        Some(s) => Some(s.parse().map_err(|e| format!("bad --orphan-grace-ms: {e}"))?),
        None => None,
    };
    reject_leftovers(&args)?;
    match worker_net_main(&addr, &worker_id, orphan_grace_ms)? {
        WorkerExit::Shutdown => Ok(ExitCode::SUCCESS),
        WorkerExit::CoordinatorGone => {
            eprintln!(
                "wootz worker {worker_id}: coordinator at `{addr}` gone past the orphan \
                 grace budget; exiting with code {ORPHAN_EXIT_CODE}"
            );
            Ok(ExitCode::from(ORPHAN_EXIT_CODE))
        }
    }
}

fn cmd_chaos(mut args: Vec<String>) -> CliResult {
    let sub = if args.is_empty() {
        "list".to_string()
    } else {
        args.remove(0)
    };
    if sub != "list" {
        return Err(format!("unknown chaos subcommand `{sub}` (try `wootz chaos list`)").into());
    }
    reject_leftovers(&args)?;
    println!("deterministic kill points (arm one with {}=<site>:<n>;", chaos::ENV_KILL_AT);
    println!("the process aborts mid-write at the n-th crossing of that site):");
    println!();
    let width = chaos::KILL_SITES
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(0);
    for site in chaos::KILL_SITES {
        println!("  {:width$}  {}", site.name, site.boundary);
    }
    println!();
    println!("`reproduce crashes` exercises every site and asserts resume bit-identity.");
    Ok(())
}
