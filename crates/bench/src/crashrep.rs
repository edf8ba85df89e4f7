//! `reproduce crashes`: the deterministic kill-point crash matrix.
//!
//! For every kill site registered in [`wootz_fault::chaos::KILL_SITES`],
//! this report kills a run at that exact boundary — mid-write, for the
//! journal sites — (by re-spawning the `reproduce` binary with `WOOTZ_CHAOS_KILL_AT`
//! armed in the child's environment only), recovers with `--resume`, and
//! asserts the recovered run's results are **bit-identical** to an
//! uninterrupted run of the same scenario. A final scenario flips a byte
//! in the middle of a finished journal and asserts resume degrades
//! through quarantine (see `wootz_core::recovery`) instead of aborting.
//!
//! Two scenario shapes cover the five sites:
//!
//! * **pipeline** — the single-process micro pipeline with a journal
//!   (`journal.header`, `journal.append`, and the corrupt-journal
//!   scenario);
//! * **distributed** — the multi-process runtime. All three of its sites
//!   fire in the *coordinator* mid-run while its workers are alive:
//!   `coord.grant` in a hub handler granting a task, `coord.reap` in the
//!   drive loop, `coord.assemble` while the pre-trained block bag is
//!   published. The coordinator is restarted with `--resume` on the same
//!   port and must re-adopt the orphaned workers.
//!
//! The matrix is exhaustive by construction: it enumerates
//! `KILL_SITES`, so registering a new kill point fails this report until
//! a scenario covers it.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize};
use wootz_cluster::{run_distributed, ClusterOptions};
use wootz_core::explore::EvalRecord;
use wootz_core::pipeline::{
    run_wootz_with, BestNetwork, RunMode, RunOptions, WootzInputs, WootzRun,
};
use wootz_core::prune::PruneConfig;
use wootz_core::recovery::QUARANTINE_DIR;
use wootz_data::micro_dataset;
use wootz_fault::chaos::{kill_site, ENV_KILL_AT, KILL_SITES};
use wootz_fault::RetryPolicy;
use wootz_ir::{Objective, SolverConfig};

use crate::clusterrep::WORKER_SUBCOMMAND;
use crate::report;

/// Hidden subcommand under which the `reproduce` binary re-enters itself
/// as a crash-matrix child run (the process the harness kills).
pub const CRASH_CHILD_SUBCOMMAND: &str = "crash-child";

/// Which scenario shape a run (parent baseline, crash child, or resume)
/// executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Single-process micro pipeline with a journal (Composability mode:
    /// the journal sees header, full model, blocks and evals).
    Pipeline,
    /// Distributed run (Composability mode, two worker processes)
    /// listening on the given fixed port. The port is pinned so a
    /// restarted coordinator binds the *same* address the orphaned
    /// workers are still redialing.
    Distributed(u16),
}

impl Scenario {
    fn parse(s: &str) -> Option<Scenario> {
        match s {
            "pipeline" => Some(Scenario::Pipeline),
            _ => s
                .strip_prefix("distributed:")
                .and_then(|p| p.parse().ok())
                .map(Scenario::Distributed),
        }
    }

    fn arg(self) -> String {
        match self {
            Scenario::Pipeline => "pipeline".to_string(),
            Scenario::Distributed(port) => format!("distributed:{port}"),
        }
    }

    /// Stable name for the report table (no port noise).
    fn label(self) -> &'static str {
        match self {
            Scenario::Pipeline => "pipeline",
            Scenario::Distributed(_) => "distributed",
        }
    }
}

/// What a completed scenario run reports back: the result fingerprint
/// and how many orphaned workers the run re-adopted.
#[derive(Debug, Serialize, Deserialize)]
pub struct ChildOutcome {
    /// Canonical JSON fingerprint of the finished run (full-model
    /// accuracy, best network, evals sorted by config index).
    pub fingerprint: String,
    /// Live workers from a previous coordinator's epoch re-adopted (0
    /// outside the distributed scenario's restart pass).
    pub readopted: usize,
}

/// The bit-identity fingerprint of a run: everything that must survive a
/// crash unchanged — full-model accuracy, the chosen best network, and
/// every evaluation record — while deliberately excluding bookkeeping
/// that legitimately differs on resume (fresh/resumed counters,
/// completion order, wall costs).
#[derive(Serialize)]
struct Fingerprint {
    full_accuracy: f64,
    best: Option<BestNetwork>,
    evals: Vec<EvalRecord>,
}

fn fingerprint(run: &WootzRun) -> String {
    let mut evals = run.exploration.evaluated.clone();
    evals.sort_by_key(|e| e.config_index());
    serde_json::to_string(&Fingerprint {
        full_accuracy: run.full_accuracy,
        best: run.best.clone(),
        evals,
    })
    .expect("fingerprint serialization")
}

/// The same 4-configuration ResNet-mini micro instance the cluster
/// report validates against — small enough that one scenario run takes
/// seconds, rich enough that blocks, checkpoints and evaluations all
/// exist.
fn micro_inputs(seed: u64) -> WootzInputs {
    let model = wootz_models::resnet_mini(8);
    let raw: Vec<Vec<u8>> = vec![
        vec![30, 30, 30, 30],
        vec![50, 70, 70, 70],
        vec![70, 70, 70, 70],
        vec![50, 50, 50, 50],
    ];
    let subspace = raw
        .into_iter()
        .map(|r| PruneConfig::new(r).expect("static rates"))
        .collect();
    let solver = SolverConfig::parse(&format!(
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 8\nbatch_size: 4\n\
         pretrain_iter: 4\neval_every: 4\nseed: {seed}\nnum_workers: 2\n"
    ))
    .expect("static solver");
    let objective =
        Objective::parse("min ModelSize\nconstraint Accuracy >= 0.1\n").expect("static objective");
    WootzInputs {
        model,
        subspace,
        solver,
        objective,
    }
}

/// Runs one scenario to completion in *this* process. `resume` replays
/// the journal (and, for the distributed scenario, re-fences the run
/// directory). Used by the crash child, by baselines, and by the
/// parent's recovery passes — one code path, so recovered and
/// uninterrupted runs are comparable by construction.
///
/// # Errors
///
/// Returns a rendered error when the run fails.
pub fn run_scenario(
    scenario: Scenario,
    dir: &Path,
    seed: u64,
    resume: bool,
) -> Result<ChildOutcome, String> {
    let inputs = micro_inputs(seed);
    let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
    let journal = dir.join("run.journal");
    match scenario {
        Scenario::Pipeline => {
            let opts = RunOptions {
                faults: None,
                retry: RetryPolicy::abort_fast(),
                journal: Some(journal),
                resume,
                ..RunOptions::default()
            };
            let run = run_wootz_with(&inputs, &dataset, RunMode::Composability, None, &opts)
                .map_err(|e| format!("pipeline run failed: {e}"))?;
            Ok(ChildOutcome {
                fingerprint: fingerprint(&run),
                readopted: 0,
            })
        }
        Scenario::Distributed(port) => {
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot locate reproduce: {e}"))?;
            let mut opts = ClusterOptions::new(
                dir.join("run"),
                2,
                (exe, vec![WORKER_SUBCOMMAND.to_string()]),
            );
            opts.retry = RetryPolicy::abort_fast();
            opts.lease_ms = 400;
            opts.journal = Some(journal);
            opts.resume = resume;
            opts.listen = Some(format!("127.0.0.1:{port}"));
            // Orphans from a killed coordinator must outlive the gap
            // until the restart re-binds the port.
            opts.orphan_grace_ms = Some(30_000);
            // Composability mode so block pre-training and the block
            // bag's publication exist — that is where `coord.assemble`
            // fires.
            let (run, stats) = run_distributed(&inputs, &dataset, RunMode::Composability, &opts)
                .map_err(|e| format!("distributed run failed: {e}"))?;
            Ok(ChildOutcome {
                fingerprint: fingerprint(&run),
                readopted: stats.workers_readopted,
            })
        }
    }
}

/// The crash child's whole job: run the scenario fresh and write the
/// outcome JSON — unless the armed kill point aborts the process first.
///
/// # Errors
///
/// Returns a rendered error when the run or the outcome write fails.
pub fn crash_child_main(scenario: &str, dir: &Path, out: &Path, seed: u64) -> Result<(), String> {
    let scenario = Scenario::parse(scenario)
        .ok_or_else(|| format!("unknown crash-child scenario `{scenario}`"))?;
    let outcome = run_scenario(scenario, dir, seed, false)?;
    let json = serde_json::to_string(&outcome).map_err(|e| format!("encode outcome: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("cannot write `{}`: {e}", out.display()))
}

/// One row of the matrix.
struct SiteResult {
    site: &'static str,
    scenario: Scenario,
    crash: String,
    recovery: String,
    identical: bool,
}

/// Spawns this binary as a crash child for `scenario` in `dir`, with
/// `WOOTZ_CHAOS_KILL_AT` armed in the child's environment only. Returns
/// `(exit_success, outcome_if_written, stderr)`.
fn spawn_crash_child(
    scenario: Scenario,
    dir: &Path,
    kill_at: &str,
    seed: u64,
) -> Result<(bool, Option<ChildOutcome>, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate reproduce: {e}"))?;
    let out = dir.join("outcome.json");
    let output = Command::new(exe)
        .args([
            CRASH_CHILD_SUBCOMMAND.to_string(),
            scenario.arg(),
            "--dir".to_string(),
            dir.display().to_string(),
            "--out".to_string(),
            out.display().to_string(),
            "--seed".to_string(),
            seed.to_string(),
        ])
        .env(ENV_KILL_AT, kill_at)
        .output()
        .map_err(|e| format!("cannot spawn crash child: {e}"))?;
    let outcome = std::fs::read_to_string(&out)
        .ok()
        .and_then(|json| serde_json::from_str(&json).ok());
    Ok((
        output.status.success(),
        outcome,
        String::from_utf8_lossy(&output.stderr).into_owned(),
    ))
}

fn scenario_dir(base: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = base.join(name.replace('.', "_"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    Ok(dir)
}

/// Kill the pipeline at `site`, then recover with `--resume` in this
/// process and compare against `baseline`.
fn kill_and_resume(
    site: &'static str,
    base: &Path,
    baseline: &str,
    seed: u64,
) -> Result<SiteResult, String> {
    let scenario = Scenario::Pipeline;
    let dir = scenario_dir(base, site)?;
    let (success, _, stderr) = spawn_crash_child(scenario, &dir, &format!("{site}:1"), seed)?;
    if success {
        return Err(format!(
            "kill point `{site}` never fired: the crash child ran to completion"
        ));
    }
    let crash = if stderr.contains("wootz-chaos") {
        "aborted mid-write".to_string()
    } else {
        "aborted".to_string()
    };
    let recovered = run_scenario(scenario, &dir, seed, true)?;
    Ok(SiteResult {
        site,
        scenario,
        crash,
        recovery: "--resume".to_string(),
        identical: recovered.fingerprint == baseline,
    })
}

/// Kill the *coordinator* at `site` mid-run while its workers are
/// alive, then restart the coordinator with `--resume` on the **same**
/// port. The crash child dies via `abort()`, which skips `Drop` — its
/// worker pool is never torn down, so the workers survive as orphans
/// redialing the dead address (bounded backoff, 30 s grace budget). The
/// restarted coordinator must re-adopt at least one of them (a `Hello`
/// carrying the stale epoch) and still converge to the baseline bytes.
fn kill_and_restart_coordinator(
    site: &'static str,
    base: &Path,
    baseline: &str,
    seed: u64,
) -> Result<SiteResult, String> {
    let dir = scenario_dir(base, site)?;
    // Reserve a concrete port by binding :0 and reading it back; the
    // listener is dropped before the child starts. The port must be
    // fixed up front because the restart has to bind the exact address
    // the orphaned workers keep dialing.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("cannot reserve a port: {e}"))?
        .port();
    let scenario = Scenario::Distributed(port);
    let (success, _, stderr) = spawn_crash_child(scenario, &dir, &format!("{site}:1"), seed)?;
    if success {
        return Err(format!(
            "kill point `{site}` never fired: the crash child ran to completion"
        ));
    }
    if !stderr.contains("wootz-chaos") {
        return Err(format!(
            "`{site}` child died without firing its kill point: {}",
            stderr.lines().last().unwrap_or("(no stderr)")
        ));
    }
    let recovered = run_scenario(scenario, &dir, seed, true)?;
    if recovered.readopted == 0 {
        return Err(format!(
            "coordinator restart after `{site}` re-adopted no orphaned worker"
        ));
    }
    Ok(SiteResult {
        site,
        scenario,
        crash: "coordinator aborted".to_string(),
        recovery: format!("--resume, same port ({} re-adopted)", recovered.readopted),
        identical: recovered.fingerprint == baseline,
    })
}

/// Flip one byte in the middle of a finished journal, then resume: the
/// run must degrade through quarantine (damaged file preserved under
/// `quarantine/`, rebuild from the intact prefix) and still converge to
/// the baseline result.
fn corrupt_and_resume(base: &Path, baseline: &str, seed: u64) -> Result<SiteResult, String> {
    let dir = scenario_dir(base, "journal.corrupt")?;
    run_scenario(Scenario::Pipeline, &dir, seed, false)?;
    let journal = dir.join("run.journal");
    let mut bytes =
        std::fs::read(&journal).map_err(|e| format!("cannot read finished journal: {e}"))?;
    let scan = wootz_wire::scan_records(&bytes, &wootz_wire::Limits::ARTIFACT);
    if !scan.tail.is_clean() || scan.records.len() < 3 {
        return Err(format!(
            "unexpected journal shape: {} records, tail {:?}",
            scan.records.len(),
            scan.tail
        ));
    }
    // Damage the third record: header and one entry stay intact, so the
    // rebuild has a prefix worth salvaging.
    let victim = scan.records[2].offset as usize + wootz_wire::HEADER_LEN + 1;
    bytes[victim] ^= 0x40;
    std::fs::write(&journal, &bytes).map_err(|e| format!("cannot corrupt journal: {e}"))?;
    let recovered = run_scenario(Scenario::Pipeline, &dir, seed, true)?;
    let quarantined = dir.join(QUARANTINE_DIR).join("run.journal");
    if !quarantined.exists() {
        return Err(format!(
            "corrupt journal was not quarantined (`{}` missing)",
            quarantined.display()
        ));
    }
    Ok(SiteResult {
        site: "journal.corrupt (mid-file bit flip)",
        scenario: Scenario::Pipeline,
        crash: "byte flipped on disk".to_string(),
        recovery: "quarantine + rebuild".to_string(),
        identical: recovered.fingerprint == baseline,
    })
}

/// Renders the `reproduce crashes` matrix. `_quick` is accepted for CLI
/// symmetry; the micro instance is already the quick size.
///
/// # Errors
///
/// Returns a rendered error when any scenario fails to crash, fails to
/// recover, or recovers to a different result.
pub fn crashes_report(seed: u64, _quick: bool) -> Result<String, String> {
    let base = std::env::temp_dir().join(format!("wootz_reproduce_crashes_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).map_err(|e| format!("cannot create scratch dir: {e}"))?;

    // The uninterrupted reference (journaled, like every crashed run —
    // the journal must not change results). Both scenario shapes run
    // Composability mode on the same micro instance, so the
    // single-process run is the bit-identity reference of the
    // distributed rows too.
    let baseline = run_scenario(
        Scenario::Pipeline,
        &scenario_dir(&base, "baseline.pipeline")?,
        seed,
        false,
    )?
    .fingerprint;

    let mut rows = Vec::new();
    for site in KILL_SITES {
        let result = match site.name {
            kill_site::JOURNAL_HEADER | kill_site::JOURNAL_APPEND => {
                kill_and_resume(site.name, &base, &baseline, seed)?
            }
            kill_site::COORD_GRANT | kill_site::COORD_REAP | kill_site::COORD_ASSEMBLE => {
                kill_and_restart_coordinator(site.name, &base, &baseline, seed)?
            }
            other => return Err(format!("kill site `{other}` has no crash-matrix scenario")),
        };
        rows.push(result);
    }
    rows.push(corrupt_and_resume(&base, &baseline, seed)?);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.site.to_string(),
                r.scenario.label().to_string(),
                r.crash.clone(),
                r.recovery.clone(),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let mut out = String::from(
        "Crash matrix: every registered kill point fired, run recovered,\n\
         result compared bit-for-bit against an uninterrupted\n\
         run (fingerprint = full-model accuracy + best network + every\n\
         evaluation record).\n\n",
    );
    out.push_str(&report::render_table(
        &[
            "kill site",
            "scenario",
            "crash",
            "recovery",
            "bit-identical",
        ],
        &table,
    ));
    let failed: Vec<&SiteResult> = rows.iter().filter(|r| !r.identical).collect();
    if failed.is_empty() {
        out.push_str(&format!(
            "\nall {} scenarios recovered bit-identically\n",
            rows.len()
        ));
        std::fs::remove_dir_all(&base).ok();
        Ok(out)
    } else {
        for r in failed {
            out.push_str(&format!(
                "\nMISMATCH: `{}` recovered to a different result\n",
                r.site
            ));
        }
        out.push_str(&format!(
            "\nscratch kept for inspection: {}\n",
            base.display()
        ));
        Err(out)
    }
}
