//! The bit-identity contract as one table: any runtime, thread count,
//! explorer, block-store temperature and interruption lands on the same
//! best network (DESIGN.md §11, PERFORMANCE.md §3).
//!
//! Every row of [`ROWS`] drives the real `wootz` binary (`prune`, `worker`,
//! `serve`, `submit`) on one small pruning problem and is checked against
//! the in-process cold reference run of the same objective and explorer:
//!
//! * a row that does the same work as the reference — nothing resumed, no
//!   store hit, no evaluation retried — must write a `--out` file and a
//!   journal `cmp`-equal to the reference's (a serve row: the daemon's
//!   result document and job journal);
//! * every other row must match the reference's fingerprint: full-model
//!   accuracy, best network, and the evaluation records sorted by
//!   configuration index, without their wall cost.
//!
//! Each interruption also asserts what it exercises: the kill point fired
//! and the `--resume` run re-adopted the orphaned workers, planned worker
//! crashes were reclaimed once each, a dropped socket reconnected, a
//! damaged journal was truncated, quarantined or refused untouched, a warm
//! store served every block and the teacher, and journaled that teacher
//! byte for byte as the reference trained it. A `--resume` runs at the
//! other end of the thread range from the run it resumes.
//!
//! A failing row prints itself, the `wootz` command lines that reproduce
//! it and its kept scratch directory. Every process a row starts leads a
//! process group of its own (spawned workers join their coordinator's),
//! and the row SIGKILLs those groups when it ends, so neither a hung run
//! nor the orphaned workers of a killed coordinator outlive the test.

#![cfg(unix)]

mod common;

use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use common::{tempdir, wootz_bin, SOLVER};
use serde_json::Value;
use wootz_core::blocks::{identify_tuning_blocks, partition_into_groups};
use wootz_core::prune::{sample_subspace, PAPER_RATES};
use wootz_fault::chaos::kill_site::{
    COORD_ASSEMBLE, COORD_GRANT, COORD_REAP, JOURNAL_APPEND, JOURNAL_HEADER,
};
use wootz_fault::chaos::KILL_SITES;

use Cut::{Clean, Fault, Hand, Journal, Kill, NetDrop};
use Damage::{BitFlip, NotARecord, Torn};
use Explorer::{Bandit, Fixed, Taylor};
use Objective::{MaxAccuracy, MinSize};
use Plan::{EvalError, EvalPanic, WorkerCrash, WorkerHang};
use Runtime::{Distributed, InProcess, Serve};
use Signal::{Measured, Stopped};
use Store::{Cold, Crossover, NoStore, Restarted, Warm};

/// What runs the job.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Runtime {
    /// `wootz prune` in one process.
    InProcess,
    /// `wootz prune --distributed N`: a coordinator feeding N `wootz
    /// worker` processes over TCP, on a pinned `--listen` port.
    Distributed(usize),
    /// A `wootz serve` daemon, the job sent with `wootz submit`.
    Serve,
}

/// `--explorer`; the adaptive ones get a budget of 8 evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Explorer {
    Fixed,
    Taylor,
    Bandit,
}

/// The objective file. Only a bounded accuracy records accuracy curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Objective {
    /// `min ModelSize` under `Accuracy >= 0.1`.
    MinSize,
    /// `max Accuracy` under `ModelSize <= 3100`: no accuracy bound.
    MaxAccuracy,
}

/// The cross-run block store the job runs against. (`NoStore`, not
/// `None`: the variants are imported, and `None` would shadow
/// `Option::None`.)
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq)]
enum Store {
    NoStore,
    /// An empty store: every block misses and is inserted.
    Cold,
    /// A store warmed by a run of the same job.
    Warm,
    /// A store warmed by the same model and subspace under the other
    /// objective: a different job with the same tuning blocks.
    Crossover,
    /// A serve row's store holding only the teacher, trained by a `--mode
    /// baseline` job of the same model and solver on a daemon that was
    /// then stopped: the restarted daemon's job must be byte-equal to the
    /// reference.
    Restarted,
}

/// How the run is disturbed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    Clean,
    /// `WOOTZ_CHAOS_KILL_AT=<site>:<n>` kills the run (a serve row: the
    /// daemon), then `--resume` (a restarted daemon and resubmission)
    /// finishes it.
    Kill(&'static str, u32),
    /// A deterministic fault plan (`--inject-faults`).
    Fault(Plan),
    /// `WOOTZ_CHAOS_NET_DROP=w0:1`: worker w0 cuts its first `TaskDone`
    /// frame in half and closes the socket.
    NetDrop,
    /// The journal is damaged on disk, then resumed.
    Journal(Damage),
    /// A worker started by hand joins the run's `--listen` port.
    Hand(Signal),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// The first evaluation fails once and is retried; a `--resume` run
    /// then replays every evaluation from the journal.
    EvalError,
    /// `EvalError`'s plan, with the first evaluation panicking instead:
    /// the panic unwinds inside a pool task.
    EvalPanic,
    /// `WorkerCrash` on unit-of-work keys 0 and the first evaluated
    /// configuration: the worker process aborts mid-task.
    WorkerCrash,
    /// `WorkerHang` on the first evaluated configuration: the worker
    /// wedges before its first heartbeat and its lease is reclaimed.
    WorkerHang,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// The last record is cut in half.
    Torn,
    /// One bit flipped inside the third record.
    BitFlip,
    /// A journal from before the record format: refused untouched.
    NotARecord,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Signal {
    /// The worker exports its metrics: results must leave it without
    /// waiting out a timer (`net.result_delivery_us` p50 < 50 ms).
    Measured,
    /// The worker is SIGSTOPped once it has joined, and stays stopped.
    Stopped,
}

#[derive(Debug)]
struct Row {
    runtime: Runtime,
    threads: usize,
    explorer: Explorer,
    objective: Objective,
    store: Store,
    cut: Cut,
}

const fn row(
    runtime: Runtime,
    threads: usize,
    explorer: Explorer,
    objective: Objective,
    store: Store,
    cut: Cut,
) -> Row {
    Row {
        runtime,
        threads,
        explorer,
        objective,
        store,
        cut,
    }
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // In one process.
    row(InProcess,      4, Fixed,  MinSize,     NoStore,   Clean),
    row(InProcess,      2, Taylor, MinSize,     NoStore,   Clean),
    row(InProcess,      1, Bandit, MinSize,     NoStore,   Clean),
    row(InProcess,      2, Fixed,  MaxAccuracy, NoStore,   Clean),
    row(InProcess,      1, Fixed,  MinSize,     NoStore,   Fault(EvalError)),
    row(InProcess,      2, Fixed,  MinSize,     NoStore,   Fault(EvalPanic)),
    row(InProcess,      2, Fixed,  MinSize,     NoStore,   Journal(NotARecord)),
    row(InProcess,      4, Fixed,  MinSize,     NoStore,   Journal(BitFlip)),
    row(InProcess,      1, Taylor, MinSize,     NoStore,   Journal(Torn)),
    row(InProcess,      1, Fixed,  MinSize,     NoStore,   Kill(JOURNAL_HEADER, 1)),
    row(InProcess,      2, Taylor, MaxAccuracy, NoStore,   Kill(JOURNAL_APPEND, 4)),
    row(InProcess,      1, Fixed,  MinSize,     Cold,      Clean),
    row(InProcess,      1, Fixed,  MinSize,     Warm,      Kill(JOURNAL_APPEND, 2)),
    row(InProcess,      2, Taylor, MinSize,     Warm,      Clean),
    row(InProcess,      4, Fixed,  MaxAccuracy, Crossover, Clean),
    // A coordinator and its workers.
    row(Distributed(2), 1, Fixed,  MinSize,     NoStore,   Clean),
    row(Distributed(3), 2, Fixed,  MinSize,     NoStore,   Fault(WorkerCrash)),
    row(Distributed(2), 1, Fixed,  MinSize,     NoStore,   Fault(WorkerHang)),
    row(Distributed(2), 4, Taylor, MinSize,     NoStore,   NetDrop),
    row(Distributed(1), 1, Fixed,  MinSize,     NoStore,   Hand(Measured)),
    row(Distributed(1), 2, Fixed,  MinSize,     NoStore,   Hand(Stopped)),
    row(Distributed(2), 1, Bandit, MinSize,     NoStore,   Kill(COORD_GRANT, 2)),
    row(Distributed(2), 2, Bandit, MinSize,     NoStore,   Kill(COORD_REAP, 2)),
    row(Distributed(2), 4, Bandit, MinSize,     NoStore,   Kill(COORD_ASSEMBLE, 1)),
    row(Distributed(2), 1, Bandit, MinSize,     NoStore,   Kill(JOURNAL_APPEND, 4)),
    row(Distributed(3), 2, Fixed,  MaxAccuracy, NoStore,   Kill(COORD_REAP, 3)),
    // A daemon and its clients.
    row(Serve,          1, Fixed,  MinSize,     Cold,      Clean),
    row(Serve,          4, Bandit, MaxAccuracy, Cold,      Clean),
    row(Serve,          2, Fixed,  MinSize,     Crossover, Clean),
    row(Serve,          1, Fixed,  MinSize,     Cold,      Kill(JOURNAL_APPEND, 3)),
    row(Serve,          2, Fixed,  MinSize,     Restarted, Clean),
];

#[test]
fn every_kill_site_has_a_row() {
    for site in KILL_SITES {
        assert!(
            ROWS.iter()
                .any(|r| matches!(r.cut, Kill(s, _) if s == site.name)),
            "kill site `{}` has no row in contracts.rs",
            site.name
        );
    }
}

#[test]
fn in_process_rows() {
    run_rows(|r| r.runtime == InProcess);
}

#[test]
fn distributed_rows() {
    run_rows(|r| matches!(r.runtime, Distributed(_)));
}

#[test]
fn serve_rows() {
    run_rows(|r| r.runtime == Serve);
}

/// Runs every row `select` picks and fails with all failing rows at once.
fn run_rows(select: impl Fn(&Row) -> bool) {
    let mut failures = Vec::new();
    let mut ran = 0;
    for (index, row) in ROWS.iter().enumerate().filter(|(_, r)| select(r)) {
        ran += 1;
        let mut case = Case::new(index, row);
        match case.run() {
            Ok(()) => std::fs::remove_dir_all(&case.dir).unwrap_or(()),
            Err(e) => failures.push(format!(
                "row {index}: {row:?}\n  {e}\n  reproduce in {}:\n    {}",
                case.dir.display(),
                case.lines.join("\n    ")
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {ran} rows failed:\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

/// Fails the row with a message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

type Check = Result<(), String>;

/// How long any one command may run before the row fails.
const DEADLINE: Duration = Duration::from_secs(60);

/// The in-process cold reference of one objective and explorer, run once
/// per test process at `--threads 1`.
struct Reference {
    run: Value,
    out: Vec<u8>,
    journal: Vec<u8>,
}

impl Reference {
    fn of(objective: Objective, explorer: Explorer) -> Arc<Reference> {
        type ByJob = BTreeMap<(Objective, Explorer), Arc<Reference>>;
        static REFERENCES: OnceLock<Mutex<ByJob>> = OnceLock::new();
        let mut refs = REFERENCES.get_or_init(Default::default).lock().unwrap();
        let entry = refs.entry((objective, explorer)).or_insert_with(|| {
            let dir = tempdir(&format!("contracts_ref_{objective:?}_{explorer:?}"));
            write_inputs(&dir);
            let mut args = job_args(objective, explorer);
            args.extend(words("--threads 1 --journal run.journal --out run.json"));
            let out = Command::new(wootz_bin())
                .args(&args)
                .current_dir(&dir)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "reference run failed: wootz {}\n{}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            );
            let out = std::fs::read(dir.join("run.json")).unwrap();
            let reference = Reference {
                run: parse(&out).unwrap(),
                journal: std::fs::read(dir.join("run.journal")).unwrap(),
                out,
            };
            std::fs::remove_dir_all(&dir).ok();
            Arc::new(reference)
        });
        Arc::clone(entry)
    }

    fn blocks(&self) -> u64 {
        self.run["blocks_pretrained"].as_u64().unwrap()
    }

    /// The configurations the reference evaluated, in completion order.
    fn evaluated(&self) -> Vec<u64> {
        self.run["exploration"]["evaluated"]
            .as_array()
            .unwrap()
            .iter()
            .map(config_index)
            .collect()
    }

    /// The reference as the serve daemon reports a finished job.
    fn served(&self) -> Value {
        let run = &self.run;
        Value::Object(
            [
                "mode",
                "full_accuracy",
                "best",
                "blocks_pretrained",
                "blocks_failed",
                "pretrain_steps",
                "finetune_steps",
            ]
            .iter()
            .map(|k| (k.to_string(), run[*k].clone()))
            .chain([(
                "configs_explored".to_string(),
                run["exploration"]["configs_explored"].clone(),
            )])
            .collect(),
        )
    }
}

/// What survives any interruption or warm start: the full model's
/// accuracy, the best network and the evaluation records, sorted by
/// configuration index (completion order and the fresh/resumed and cost
/// bookkeeping legitimately differ). A served job reports no evaluation
/// records, only how many configurations it explored.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    full_accuracy: Value,
    best: Value,
    configs_explored: Value,
    evals: Option<Vec<Value>>,
}

impl Fingerprint {
    /// Of a `--out` results file.
    fn of_run(run: &Value) -> Fingerprint {
        let mut evals: Vec<Value> = run["exploration"]["evaluated"]
            .as_array()
            .unwrap()
            .iter()
            .map(without_cost)
            .collect();
        evals.sort_by_key(config_index);
        Fingerprint {
            full_accuracy: run["full_accuracy"].clone(),
            best: run["best"].clone(),
            configs_explored: run["exploration"]["configs_explored"].clone(),
            evals: Some(evals),
        }
    }

    /// Of a serve daemon's result document.
    fn of_served(result: &Value) -> Fingerprint {
        Fingerprint {
            full_accuracy: result["full_accuracy"].clone(),
            best: result["best"].clone(),
            configs_explored: result["configs_explored"].clone(),
            evals: None,
        }
    }
}

fn parse(json: &[u8]) -> Result<Value, String> {
    serde_json::from_str(&String::from_utf8_lossy(json))
        .map_err(|e| format!("unparsable JSON: {e}"))
}

/// `value` without its `cost` members: the wall-cost bookkeeping, which
/// charges a retried evaluation for its failed attempts.
fn without_cost(value: &Value) -> Value {
    match value {
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .filter(|(k, _)| k != "cost")
                .map(|(k, v)| (k.clone(), without_cost(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(without_cost).collect()),
        other => other.clone(),
    }
}

fn config_index(record: &Value) -> u64 {
    let done = &record["Done"]["config_index"];
    done.as_u64()
        .or_else(|| record["Failed"]["config_index"].as_u64())
        .unwrap()
}

/// Writes the pruning problem every row solves into `dir`: `resnet_mini(8)`,
/// six sampled configurations of its four modules, [`SOLVER`], and both
/// objectives.
fn write_inputs(dir: &Path) {
    common::write_model(dir);
    let configs = configs();
    let rates: Vec<&[u8]> = configs.iter().map(|c| c.rates()).collect();
    let files = [
        ("configs.json", serde_json::to_string(&rates).unwrap()),
        ("solver.prototxt", SOLVER.to_string()),
        (
            MinSize.file(),
            "min ModelSize\nconstraint Accuracy >= 0.1\n".to_string(),
        ),
        (
            MaxAccuracy.file(),
            "max Accuracy\nconstraint ModelSize <= 3100\n".to_string(),
        ),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
}

fn configs() -> Vec<wootz_core::prune::PruneConfig> {
    sample_subspace(4, &PAPER_RATES, 6, 5)
}

/// A command line's words: `words("--out run.json")`.
fn words(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

impl Objective {
    fn file(self) -> &'static str {
        match self {
            MinSize => "min_size.txt",
            MaxAccuracy => "max_accuracy.txt",
        }
    }

    fn other(self) -> Objective {
        match self {
            MinSize => MaxAccuracy,
            MaxAccuracy => MinSize,
        }
    }
}

/// The job's input flags (shared by `prune` and `submit`).
fn input_args(objective: Objective, explorer: Explorer) -> Vec<String> {
    let mut args = words(&format!(
        "--model model.prototxt --configs configs.json --solver solver.prototxt --objective {}",
        objective.file()
    ));
    let name = match explorer {
        Fixed => return args,
        Taylor => "taylor",
        Bandit => "bandit",
    };
    args.extend(words(&format!("--explorer {name} --explorer-budget 8")));
    args
}

fn job_args(objective: Objective, explorer: Explorer) -> Vec<String> {
    let mut args = words("prune");
    args.extend(input_args(objective, explorer));
    args
}

/// One row being run: its scratch directory, the command lines run so
/// far, and the process groups to reap.
struct Case<'a> {
    row: &'a Row,
    dir: PathBuf,
    reference: Arc<Reference>,
    lines: Vec<String>,
    groups: Vec<u32>,
    /// The pinned `--listen` port of a distributed row.
    port: u16,
}

/// A finished command.
struct Ran {
    status: ExitStatus,
    stdout: String,
    stderr: String,
}

impl Ran {
    fn ok(self) -> Result<Ran, String> {
        ensure!(
            self.status.success(),
            "exited with {}:\n{}{}",
            self.status,
            self.stdout,
            self.stderr
        );
        Ok(self)
    }

    fn line(&self, prefix: &str) -> Result<&str, String> {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| format!("no `{prefix}` line in:\n{}", self.stdout))
    }

    /// The count in front of `label` on the `cluster:` stats line.
    fn cluster_stat(&self, label: &str) -> Result<u64, String> {
        let line = self.line("cluster:")?;
        line.trim_start_matches("cluster: ")
            .split(", ")
            .find_map(|part| {
                let (n, rest) = part.split_once(' ')?;
                rest.starts_with(label).then(|| n.parse().ok())?
            })
            .ok_or_else(|| format!("no `{label}` in `{line}`"))
    }

    /// Fresh evaluations, from the `exploration:` line.
    fn fresh(&self) -> Result<u64, String> {
        let line = self.line("exploration:")?;
        line.split_whitespace()
            .nth(1)
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("unparsable `{line}`"))
    }

    /// `(hits, misses, inserts)` from the `block store:` or `teacher
    /// store:` line.
    fn store_stats(&self, prefix: &str) -> Result<(u64, u64, u64), String> {
        let line = self.line(prefix)?;
        let n: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|s| s.parse().ok())
            .collect();
        ensure!(n.len() >= 3, "unparsable `{line}`");
        Ok((n[0], n[1], n[2]))
    }

    fn killed_at(&self, site: &str) -> Check {
        ensure!(
            !self.status.success() && self.stderr.contains(&format!("kill point `{site}` fired")),
            "kill point `{site}` did not fire ({}):\n{}",
            self.status,
            self.stderr
        );
        Ok(())
    }
}

impl Drop for Case<'_> {
    /// SIGKILLs every process group the row started: a command past its
    /// deadline, a daemon, a stopped worker, orphans of a killed
    /// coordinator that a failed resume never re-adopted.
    fn drop(&mut self) {
        for group in &self.groups {
            signal("KILL", &format!("-{group}"));
        }
    }
}

/// Sends `kill -<name>` to `target`: a pid, or `-<pgid>` for a group.
fn signal(name: &str, target: &str) {
    let _ = Command::new("kill")
        .args([&format!("-{name}"), "--", target])
        .stderr(Stdio::null())
        .status();
}

impl<'a> Case<'a> {
    fn new(index: usize, row: &'a Row) -> Case<'a> {
        let dir = tempdir(&format!("contracts_row{index}"));
        write_inputs(&dir);
        let port = match row.runtime {
            // Pinned up front: a restarted coordinator must bind the
            // address its orphaned workers keep redialing.
            Distributed(_) => std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .unwrap()
                .port(),
            _ => 0,
        };
        Case {
            row,
            dir,
            reference: Reference::of(row.objective, row.explorer),
            lines: Vec::new(),
            groups: Vec::new(),
            port,
        }
    }

    /// Starts `wootz args` in the row's directory as the leader of a new
    /// process group, its output going to numbered files there.
    fn spawn(&mut self, args: &[String], env: &[(&str, String)]) -> Result<(Child, usize), String> {
        let n = self.lines.len();
        let env_text: String = env.iter().map(|(k, v)| format!("{k}={v} ")).collect();
        self.lines.push(format!(
            "{env_text}{} {}",
            wootz_bin().display(),
            args.join(" ")
        ));
        let file = |ext: &str| std::fs::File::create(self.dir.join(format!("cmd{n}.{ext}")));
        let child = Command::new(wootz_bin())
            .args(args)
            .envs(env.iter().map(|(k, v)| (*k, v.as_str())))
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(file("out").map_err(|e| e.to_string())?)
            .stderr(file("err").map_err(|e| e.to_string())?)
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot start wootz: {e}"))?;
        self.groups.push(child.id());
        Ok((child, n))
    }

    /// Waits for a spawned command, at most [`DEADLINE`].
    fn wait(&self, (mut child, n): (Child, usize)) -> Result<Ran, String> {
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            ensure!(
                started.elapsed() < DEADLINE,
                "`{}` still running after {DEADLINE:?}",
                self.lines[n]
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        let read = |ext: &str| {
            std::fs::read_to_string(self.dir.join(format!("cmd{n}.{ext}"))).unwrap_or_default()
        };
        Ok(Ran {
            status,
            stdout: read("out"),
            stderr: read("err"),
        })
    }

    fn run_cmd(&mut self, args: &[String], env: &[(&str, String)]) -> Result<Ran, String> {
        let spawned = self.spawn(args, env)?;
        self.wait(spawned)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, String> {
        std::fs::read(self.dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
    }

    /// The thread count of a `--resume` run: the other end of the range.
    fn resume_threads(&self) -> usize {
        if self.row.threads == 4 {
            1
        } else {
            4
        }
    }

    fn run(&mut self) -> Check {
        match self.row.runtime {
            Serve => self.run_served(),
            _ => self.run_pruned(),
        }
    }

    /// A `wootz prune` command line of this row.
    fn prune_args(&self, objective: Objective, threads: usize) -> Vec<String> {
        let row = self.row;
        let mut args = job_args(objective, row.explorer);
        args.extend(words(&format!("--threads {threads}")));
        if row.store != NoStore {
            args.extend(words("--store store"));
        }
        if let Distributed(workers) = row.runtime {
            args.extend(words(&format!(
                "--distributed {workers} --log-dir logs --listen 127.0.0.1:{}",
                self.port
            )));
            if matches!(row.cut, Fault(_) | Hand(Stopped)) {
                // Reclaim a dead or silent worker's task quickly.
                args.extend(words("--lease-ms 400"));
            }
        }
        if let Fault(_) = row.cut {
            args.extend(words("--inject-faults faults.json"));
        }
        args
    }

    /// The row's job, journaled, with its results and metrics exported.
    fn job(&self, threads: usize) -> Vec<String> {
        let mut args = self.prune_args(self.row.objective, threads);
        args.extend(words(
            "--journal run.journal --out run.json --metrics-out metrics.ndjson",
        ));
        args
    }

    fn resume(&self) -> Vec<String> {
        let mut args = self.job(self.resume_threads());
        args.push("--resume".to_string());
        args
    }

    fn run_pruned(&mut self) -> Check {
        let row = self.row;
        let reference = Arc::clone(&self.reference);
        match row.store {
            Warm | Crossover => {
                let objective = match row.store {
                    Warm => row.objective,
                    _ => row.objective.other(),
                };
                let warm = self.prune_args(objective, row.threads);
                self.run_cmd(&warm, &[])?.ok()?;
            }
            _ => {}
        }
        if let Fault(plan) = row.cut {
            self.write_plan(plan)?;
        }
        let mut env = Vec::new();
        match row.cut {
            Kill(site, n) => env.push(("WOOTZ_CHAOS_KILL_AT", format!("{site}:{n}"))),
            NetDrop => env.push(("WOOTZ_CHAOS_NET_DROP", "w0:1".to_string())),
            _ => {}
        }
        if let Journal(NotARecord) = row.cut {
            return self.refuse_non_record();
        }

        let job = self.job(row.threads);
        let first = match row.cut {
            Hand(signal) => self.run_beside_hand_worker(&job, signal)?,
            _ => self.run_cmd(&job, &env)?,
        };
        let last = match row.cut {
            Kill(site, _) => {
                first.killed_at(site)?;
                let resumed = self.resume();
                self.run_cmd(&resumed, &[])?.ok()?
            }
            Journal(damage) => {
                first.ok()?;
                self.damage_journal(damage)?;
                let resumed = self.resume();
                self.run_cmd(&resumed, &[])?.ok()?
            }
            _ => first.ok()?,
        };

        // Nothing resumed, no store hit, no evaluation retried.
        let same_work = !matches!(
            row.cut,
            Kill(..) | Journal(_) | Fault(EvalError | EvalPanic)
        ) && matches!(row.store, NoStore | Cold);
        if same_work {
            ensure!(
                self.read("run.json")? == reference.out,
                "--out differs from the reference's"
            );
            ensure!(
                self.read("run.journal")? == reference.journal,
                "the journal differs from the reference's"
            );
        }
        let run: Value =
            parse(&self.read("run.json")?).map_err(|e| format!("unparsable run.json: {e}"))?;
        ensure!(
            Fingerprint::of_run(&run) == Fingerprint::of_run(&reference.run),
            "fingerprint differs:\n  row:       {:?}\n  reference: {:?}",
            Fingerprint::of_run(&run),
            Fingerprint::of_run(&reference.run)
        );

        self.check_store(&last)?;
        self.check_cut(&last)?;
        if row.objective == MaxAccuracy
            && row.runtime == InProcess
            && !matches!(row.cut, Kill(..) | Journal(_))
        {
            // Without an accuracy bound nothing reads a curve: the full
            // model, unless the store served it, and each fresh evaluation
            // take one test-set pass.
            let trained = u64::from(!matches!(row.store, Warm | Crossover));
            let evals = self.metric("metrics.ndjson", "trainer.evals", "value")?;
            ensure!(
                evals == Some(trained + last.fresh()?),
                "trainer.evals = {evals:?} for {trained} full model + {} fresh evaluations",
                last.fresh()?
            );
        }
        if let Distributed(_) = row.runtime {
            // The task queue lives in the coordinator's memory, and the
            // epoch is drawn, not stored: a run leaves worker logs only.
            let strays: Vec<String> = std::fs::read_dir(self.dir.join("logs"))
                .map_err(|e| e.to_string())?
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| !name.ends_with(".log"))
                .collect();
            ensure!(
                strays.is_empty(),
                "the log dir holds more than worker logs: {strays:?}"
            );
            ensure!(
                last.cluster_stat("tasks abandoned")? == 0,
                "{}",
                last.line("cluster:")?
            );
        }
        Ok(())
    }

    /// The row's store expectations, on the run that finished the job.
    fn check_store(&self, last: &Ran) -> Check {
        let blocks = self.reference.blocks();
        let (blocks, teacher) = match self.row.store {
            NoStore => return Ok(()),
            Cold => ((0, blocks, blocks), (0, 1, 1)),
            Warm | Crossover => ((blocks, 0, 0), (1, 0, 0)),
            Restarted => return Err("an in-process row cannot start from Restarted".into()),
        };
        // A resume that replays the journaled full model looks no teacher up.
        let teacher = match self.row.cut {
            Kill(JOURNAL_APPEND, n) if n >= 2 => (0, 0, 0),
            _ => teacher,
        };
        for (prefix, (hits, misses, inserts)) in
            [("block store:", blocks), ("teacher store:", teacher)]
        {
            ensure!(
                last.store_stats(prefix)? == (hits, misses, inserts),
                "expected {hits} hits, {misses} misses, {inserts} inserts: {}",
                last.line(prefix)?
            );
        }
        if matches!(self.row.store, Warm | Crossover) {
            self.same_full_model("run.journal")?;
        }
        Ok(())
    }

    /// The full model `journal` recorded is the reference's, byte for
    /// byte, wherever it came from.
    fn same_full_model(&self, journal: &str) -> Check {
        let full_model = |bytes: &[u8]| {
            wootz_wire::scan_records(bytes, &wootz_wire::Limits::ARTIFACT)
                .records
                .into_iter()
                .map(|r| r.frame)
                .find(|f| f.msg_type == wootz_wire::record_type::JOURNAL_FULL_MODEL)
        };
        let ours = full_model(&self.read(journal)?).ok_or("no FullModel record")?;
        ensure!(
            Some(ours) == full_model(&self.reference.journal),
            "the journaled full model differs from the reference's"
        );
        Ok(())
    }

    /// A serve row's store holds exactly the one teacher every job of the
    /// row shares (the daemon keeps no counters a row could read), and
    /// never quarantined one.
    fn one_teacher_in_store(&self) -> Check {
        let store = self.dir.join("store");
        let teachers = std::fs::read_dir(&store)
            .map_err(|e| e.to_string())?
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("tch-")
            })
            .count();
        ensure!(teachers == 1, "the store holds {teachers} teachers");
        ensure!(
            !store.join("quarantine").exists(),
            "a store entry was quarantined"
        );
        Ok(())
    }

    /// What the row's interruption exercises, beyond the result.
    fn check_cut(&mut self, last: &Ran) -> Check {
        match self.row.cut {
            Kill(..) if matches!(self.row.runtime, Distributed(_)) => {
                let readopted = last.cluster_stat("workers re-adopted")?;
                ensure!(readopted >= 1, "no orphaned worker was re-adopted");
            }
            Fault(EvalError | EvalPanic) => {
                let retries = self.metric("metrics.ndjson", "explore.retries", "value")?;
                ensure!(retries == Some(1), "explore.retries = {retries:?}, not 1");
                // Every evaluation is in the journal: a resume replays
                // them all and lands on the same result.
                let mut replay = self.resume();
                for arg in replay.iter_mut().filter(|a| *a == "run.json") {
                    *arg = "replay.json".to_string();
                }
                let replayed = self.run_cmd(&replay, &[])?.ok()?;
                ensure!(replayed.fresh()? == 0, "{}", replayed.line("exploration:")?);
                let run: Value = parse(&self.read("replay.json")?).map_err(|e| e.to_string())?;
                ensure!(
                    Fingerprint::of_run(&run) == Fingerprint::of_run(&self.reference.run),
                    "the replay's fingerprint differs"
                );
            }
            Fault(WorkerCrash) => {
                // The plan's draws are pure functions of (seed, site, key):
                // every planned crash is reclaimed exactly once.
                let reclaimed = last.cluster_stat("leases reclaimed")?;
                let planned = self.planned_crashes();
                ensure!(
                    reclaimed == planned,
                    "{reclaimed} leases reclaimed for {planned} planned crashes"
                );
                ensure!(
                    last.cluster_stat("workers respawned")? >= 1,
                    "no crashed worker was respawned"
                );
            }
            Fault(WorkerHang) => {
                ensure!(
                    last.cluster_stat("leases reclaimed")? >= 1,
                    "the hung worker's lease was never reclaimed"
                );
            }
            NetDrop => {
                ensure!(
                    last.cluster_stat("net reconnects")? >= 1,
                    "no reconnect after the dropped frame"
                );
            }
            Journal(Torn) => {
                ensure!(
                    last.stderr.contains("1 torn tail truncated"),
                    "no torn tail reported:\n{}",
                    last.stderr
                );
            }
            Journal(BitFlip) => {
                ensure!(
                    self.dir.join("quarantine").join("run.journal").exists(),
                    "the damaged journal was not quarantined"
                );
            }
            Hand(Measured) => {
                let p50 = self.metric("hand.ndjson", "net.result_delivery_us", "p50")?;
                let p50 = p50.ok_or("the hand-started worker delivered no result")?;
                ensure!(
                    p50 < 50_000,
                    "net.result_delivery_us p50 = {p50} us (>= 50 ms)"
                );
                ensure!(
                    self.metric("metrics.ndjson", "cluster.reap_latency_us", "count")?
                        .is_some(),
                    "cluster.reap_latency_us missing from the coordinator's metrics"
                );
            }
            _ => {}
        }
        Ok(())
    }

    /// Unit-of-work keys the `WorkerCrash` plan crashes: key 0 and the
    /// reference's first evaluated configuration.
    fn crash_keys(&self) -> [u64; 2] {
        [0, self.reference.evaluated()[0]]
    }

    /// Tasks the `WorkerCrash` plan kills on their first attempt: a key
    /// names both a pre-training group and an evaluated configuration.
    fn planned_crashes(&self) -> u64 {
        let set = identify_tuning_blocks(&configs()).unwrap();
        let groups = partition_into_groups(&set.blocks).len() as u64;
        let evaluated = self.reference.evaluated();
        self.crash_keys()
            .iter()
            .map(|k| u64::from(*k < groups) + u64::from(evaluated.contains(k)))
            .sum()
    }

    fn write_plan(&self, plan: Plan) -> Check {
        let first = self.reference.evaluated()[0];
        let trigger = |site: &str, key: u64, kind: &str| {
            format!("{{\"site\":\"{site}\",\"key\":{key},\"kind\":{kind},\"times\":1}}")
        };
        let triggers = match plan {
            EvalError => vec![trigger("explore.eval", first, "\"EvalError\"")],
            EvalPanic => vec![trigger("explore.eval", first, "\"EvalPanic\"")],
            WorkerCrash => self
                .crash_keys()
                .iter()
                .map(|&k| trigger("cluster.task", k, "\"WorkerCrash\""))
                .collect(),
            WorkerHang => vec![trigger(
                "cluster.task",
                first,
                "{\"WorkerHang\":{\"millis\":1200}}",
            )],
        };
        std::fs::write(
            self.dir.join("faults.json"),
            format!(
                "{{\"seed\":5,\"triggers\":[{}],\"rates\":[]}}",
                triggers.join(",")
            ),
        )
        .map_err(|e| e.to_string())
    }

    /// A journal that is not a record file fails the run, and is left
    /// byte-for-byte as it was: no truncation, rebuild or quarantine.
    fn refuse_non_record(&mut self) -> Check {
        let legacy = "{\"Header\":{\"version\":1,\"subspace_hash\":0,\"objective\":\"{}\",\
                      \"seed\":3,\"mode\":\"Composability\"}}\n";
        std::fs::write(self.dir.join("run.journal"), legacy).map_err(|e| e.to_string())?;
        let resumed = self.resume();
        let ran = self.run_cmd(&resumed, &[])?;
        ensure!(!ran.status.success(), "a non-record journal resumed");
        ensure!(
            ran.stderr.contains("not a record artifact"),
            "refusal message missing:\n{}",
            ran.stderr
        );
        ensure!(
            self.read("run.journal")? == legacy.as_bytes(),
            "the refused journal was modified"
        );
        ensure!(
            !self.dir.join("quarantine").exists(),
            "the refused journal was quarantined"
        );
        Ok(())
    }

    fn damage_journal(&self, damage: Damage) -> Check {
        let path = self.dir.join("run.journal");
        let mut bytes = self.read("run.journal")?;
        let scan = wootz_wire::scan_records(&bytes, &wootz_wire::Limits::ARTIFACT);
        ensure!(
            scan.tail.is_clean() && scan.records.len() >= 3,
            "unexpected journal: {} records, tail {:?}",
            scan.records.len(),
            scan.tail
        );
        match damage {
            Torn => {
                let last = scan.records.last().unwrap().offset as usize;
                bytes.truncate(last + (bytes.len() - last) / 2);
            }
            // Header and one entry stay intact: a prefix worth salvaging.
            BitFlip => bytes[scan.records[2].offset as usize + wootz_wire::HEADER_LEN + 1] ^= 0x40,
            NotARecord => unreachable!("written in place of a journal"),
        }
        std::fs::write(path, bytes).map_err(|e| e.to_string())
    }

    /// Runs the coordinator `job` with a worker started by hand beside
    /// it on the row's port.
    fn run_beside_hand_worker(&mut self, job: &[String], how: Signal) -> Result<Ran, String> {
        let coordinator = self.spawn(job, &[])?;
        // The pool's first worker is spawned once the hub listens; join then.
        let started = Instant::now();
        while !self.dir.join("logs/w0.log").exists() {
            ensure!(
                started.elapsed() < DEADLINE,
                "the coordinator never spawned a worker"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut hand = words(&format!(
            "worker --connect 127.0.0.1:{} --worker-id hand --orphan-grace-ms 1000",
            self.port
        ));
        if how == Measured {
            hand.extend(words("--metrics-out hand.ndjson"));
        }
        let worker = self.spawn(&hand, &[])?;
        if how == Stopped {
            // Long enough to join the run, which then has to finish
            // without it.
            std::thread::sleep(Duration::from_millis(100));
            signal("STOP", &worker.0.id().to_string());
        }
        let ran = self.wait(coordinator)?;
        if how == Measured {
            // The drain reaches a worker outside the pool too: it reads
            // its `Shutdown` and exits cleanly (its metrics are written
            // on the way out).
            let exited = self.wait(worker)?;
            ensure!(
                exited.status.success(),
                "the hand-started worker exited with {}:\n{}",
                exited.status,
                exited.stderr
            );
        }
        Ok(ran)
    }

    /// `field` of the NDJSON metric `name` in `file`, if exported.
    fn metric(&self, file: &str, name: &str, field: &str) -> Result<Option<u64>, String> {
        let text = String::from_utf8_lossy(&self.read(file)?).into_owned();
        Ok(text
            .lines()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .find(|v| v["name"] == *name)
            .and_then(|v| v[field].as_u64()))
    }

    fn run_served(&mut self) -> Check {
        let row = self.row;
        let reference = Arc::clone(&self.reference);
        let kill = match row.cut {
            Kill(site, n) => Some((site, n)),
            Clean => None,
            other => return Err(format!("a serve row cannot be cut by {other:?}")),
        };
        let env: Vec<(&str, String)> = kill
            .map(|(site, n)| ("WOOTZ_CHAOS_KILL_AT", format!("{site}:{n}")))
            .into_iter()
            .collect();
        let (mut daemon, mut addr) = self.start_daemon(&env)?;
        match row.store {
            Cold => {}
            Crossover => {
                self.submit(&addr, row.objective.other(), &[])?.ok()?;
            }
            Restarted => {
                self.submit(&addr, row.objective, &words("--mode baseline"))?
                    .ok()?;
                signal("KILL", &format!("-{}", daemon.0.id()));
                self.wait(daemon)?;
                (daemon, addr) = self.start_daemon(&[])?;
            }
            other => return Err(format!("a serve row cannot start from {other:?}")),
        }
        let mut ran = self.submit(&addr, row.objective, &[])?;
        if let Some((site, _)) = kill {
            ensure!(
                !ran.status.success(),
                "the job survived its daemon's kill point"
            );
            self.wait(daemon)?.killed_at(site)?;
            // The same store and state, the same job: it resumes.
            let (_, addr) = self.start_daemon(&[])?;
            ran = self.submit(&addr, row.objective, &[])?;
        }
        let ran = ran.ok()?;
        let result: Value = ran
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("result "))
            .and_then(|l| l.split_once(' '))
            .and_then(|(_, json)| serde_json::from_str(json).ok())
            .ok_or_else(|| format!("no result line in:\n{}", ran.stdout))?;
        let events = |kind: &str| {
            ran.stdout
                .lines()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count() as u64
        };
        let expected = Fingerprint {
            evals: None,
            ..Fingerprint::of_run(&reference.run)
        };
        ensure!(
            Fingerprint::of_served(&result) == expected,
            "fingerprint differs:\n  row:       {:?}\n  reference: {expected:?}",
            Fingerprint::of_served(&result)
        );
        let (hits, trained) = (events("block_cache_hit"), events("block_pretrained"));
        self.one_teacher_in_store()?;
        // Every job after the one that trained the teacher finds it; a
        // resubmission after a kill replays it from the journal instead.
        let teacher_hits = u64::from(matches!(row.store, Crossover | Restarted));
        ensure!(
            events("teacher_cache_hit") == teacher_hits,
            "{} teacher hits, expected {teacher_hits}",
            events("teacher_cache_hit")
        );
        let job = ran.line("result ")?.split(' ').nth(1).unwrap_or_default();
        let journal = format!("state/jobs/{job}.journal");
        match (row.store, kill) {
            (Cold | Restarted, None) => {
                ensure!(
                    result == reference.served(),
                    "result differs from the reference's:\n  row:       {result}\n  reference: {}",
                    reference.served()
                );
                ensure!(
                    self.read(&journal)? == reference.journal,
                    "the daemon's journal differs from the reference's"
                );
                ensure!(
                    (hits, trained) == (0, reference.blocks()),
                    "a cold store: {hits} hits, {trained} blocks trained"
                );
            }
            (Crossover, _) => {
                ensure!(
                    (hits, trained) == (reference.blocks(), 0)
                        && result["pretrain_steps"].as_u64() == Some(0),
                    "not served from the store: {hits} hits, {trained} blocks trained, result {result}"
                );
                self.same_full_model(&journal)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Starts `wootz serve` on the row's store and state; returns it and
    /// the address it announced. The row's end stops it.
    fn start_daemon(&mut self, env: &[(&str, String)]) -> Result<((Child, usize), String), String> {
        let args = words(&format!(
            "serve --store store --state state --listen 127.0.0.1:0 --threads {}",
            self.row.threads
        ));
        let (child, n) = self.spawn(&args, env)?;
        let banner = self.dir.join(format!("cmd{n}.out"));
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&banner).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("serving on "))
                .and_then(|rest| rest.split_whitespace().next())
            {
                return Ok(((child, n), addr.to_string()));
            }
            ensure!(
                started.elapsed() < DEADLINE,
                "the daemon never announced an address"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn submit(
        &mut self,
        addr: &str,
        objective: Objective,
        extra: &[String],
    ) -> Result<Ran, String> {
        let mut args = words(&format!("submit --connect {addr}"));
        args.extend(input_args(objective, self.row.explorer));
        args.extend_from_slice(extra);
        self.run_cmd(&args, &[])
    }
}
