//! The repository's benchmark: time to the best pruned network, measured
//! from outside on four workloads. See `README.md` beside `Cargo.toml` for
//! what each workload is for and how the metrics interact.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! benchmark --all            [--seed <n>] [--seconds <s>]
//! benchmark --check-repeat   [--seed <n>] [--seconds <s>]
//! benchmark --smoke
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it prints every metric by
//! name, unit and sample count, and as the last line of standard output one
//! JSON object `{correct, attempted, failed, metrics}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is non-zero when any output check failed.

mod catalog;
mod jobs;
mod layers;
mod procs;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Better, END_TO_END, WORKLOADS};
use jobs::Shape;
use run::{Outcome, Settings};

const USAGE: &str = "usage: benchmark --workload <prune_cold|prune_warm|serve_mixed|cluster_tcp> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       \
benchmark --all | --check-repeat [--seed <n>] [--seconds <s>]\n       \
benchmark --smoke";

/// Command-line options after parsing.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    all: bool,
    check_repeat: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
        out: None,
        all: false,
        check_repeat: false,
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !options.seconds.is_finite() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => options.out = Some(value()?.into()),
            "--all" => options.all = true,
            "--check-repeat" => options.check_repeat = true,
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = [
        options.workload.is_some(),
        options.all,
        options.check_repeat,
        options.smoke,
    ];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all, --check-repeat, --smoke".into());
    }
    if let Some(name) = &options.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    Ok(options)
}

/// Prints a run's metrics for people, one per line.
fn print_outcome(workload: &str, outcome: &Outcome) {
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
        println!("{workload} — {}", w.why);
    }
    println!(
        "{workload}: {} operations attempted, {} failed (failed_share {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for failure in &outcome.failures {
        println!("  FAILED {failure}");
    }
    for row in outcome.rows() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == row.name)
            .map_or(String::new(), |m| format!("  bound {}%", m.bound * 100.0));
        println!(
            "  {:<32} {:>16.6} {:<8} n={:<6} {} is better{bound}",
            row.name,
            row.value,
            row.unit,
            row.n,
            row.better.as_str()
        );
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .rows()
        .into_iter()
        .map(|row| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                row.name, row.value, row.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_all(settings: &Settings) -> Result<bool, String> {
    let mut ok = true;
    for workload in &WORKLOADS {
        for traced in [false, true] {
            let outcome = run::run(
                workload.name,
                &Settings {
                    traced,
                    ..settings.clone()
                },
            )?;
            print_outcome(workload.name, &outcome);
            ok &= outcome.failed == 0;
        }
    }
    Ok(ok)
}

/// Runs every workload twice on this build and compares the medians of each
/// end-to-end metric against its bound.
fn check_repeat(settings: &Settings) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for workload in &WORKLOADS {
        let first = run::run(workload.name, settings)?;
        let second = run::run(workload.name, settings)?;
        ok &= first.failed == 0 && second.failed == 0;
        for metric in &END_TO_END {
            let (a, b) = (
                first.metrics.value(metric.name),
                second.metrics.value(metric.name),
            );
            // How much worse the second set is than the first.
            let worse = match metric.better {
                Better::Lower => b / a - 1.0,
                Better::Higher => a / b - 1.0,
            };
            let agrees = worse.abs() <= metric.bound;
            ok &= agrees;
            println!(
                "{:<12} {:<12} {a:>14.6} {b:>14.6} {:>8.4} {:>5}%  {}",
                workload.name,
                metric.name,
                b / a,
                metric.bound * 100.0,
                if agrees { "ok" } else { "unresolved" }
            );
        }
    }
    Ok(ok)
}

/// Every workload, traced and untraced, at tiny sizes: keeps all the code
/// paths alive in seconds.
fn smoke() -> Result<bool, String> {
    let settings = Settings {
        seed: 1,
        seconds: 0.2,
        shape: Shape::SMOKE,
        setup_reps: 1,
        traced: false,
        out: None,
    };
    run_all(&settings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(procs::SERVE_SUBCOMMAND) => return procs::serve_child_main(args[1..].to_vec()),
        Some(procs::WORKER_SUBCOMMAND) => return procs::worker_child_main(args[1..].to_vec()),
        _ => {}
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let settings = Settings {
        seed: options.seed,
        seconds: options.seconds,
        shape: Shape::FULL,
        setup_reps: 3,
        traced: options.traced,
        out: options.out,
    };
    let ok = if let Some(workload) = &options.workload {
        run::run(workload, &settings).map(|outcome| {
            print_outcome(workload, &outcome);
            println!("{}", result_line(&outcome));
            outcome.failed == 0
        })
    } else if options.all {
        run_all(&settings)
    } else if options.check_repeat {
        check_repeat(&settings)
    } else {
        smoke()
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
