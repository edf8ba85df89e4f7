//! Process hygiene: scratch directories, the serve-daemon and cluster-worker
//! children (the benchmark re-executing itself through hidden subcommands),
//! and what the parent reads back from them.
//!
//! Every guard cleans up in `Drop`, so a failed check, an error or a panic
//! leaves no child process and no scratch directory behind.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wootz_cluster::{self_worker_cmd, ServeOptions, WorkerExit};

/// Hidden subcommand: run the serve daemon until stdin closes.
pub const SERVE_SUBCOMMAND: &str = "__serve";
/// Hidden subcommand: run one TCP cluster worker.
pub const WORKER_SUBCOMMAND: &str = "__worker";
/// Directory (environment variable) a worker child writes its exit dump to.
const ENV_DUMP_DIR: &str = "WOOTZ_BENCH_DUMP_DIR";
/// Set (environment variable) when a worker child should record spans.
const ENV_TRACE: &str = "WOOTZ_BENCH_TRACE";

/// Scratch space of the benchmark, inside the checkout it runs from.
pub const WORK_ROOT: &str = ".bench_work";

/// A scratch directory removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<pid>-<n>-<label>` under the current directory.
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::current_dir()?
            .join(WORK_ROOT)
            .join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The root goes too once the last scratch directory is gone.
        let _ = std::fs::remove_dir(
            self.path
                .parent()
                .expect("scratch dirs live under the root"),
        );
    }
}

/// Peak resident set size (`VmHWM`) of a process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What a child process reports when it ends: its `wootz-obs` registry and
/// its peak memory.
#[derive(Debug, Default, Clone)]
pub struct ChildDump {
    pub counters: Vec<(String, u64)>,
    /// Median of each histogram.
    pub histogram_p50s: Vec<(String, f64)>,
    pub vm_hwm_kb: u64,
}

impl ChildDump {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn histogram_p50(&self, name: &str) -> Option<f64> {
        self.histogram_p50s
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, p50)| p50)
    }

    fn parse(text: &str) -> ChildDump {
        let mut dump = ChildDump::default();
        for line in text.lines() {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
                continue;
            };
            let name = v["name"].as_str().unwrap_or_default().to_string();
            match v["kind"].as_str() {
                Some("counter") => dump.counters.push((name, v["value"].as_u64().unwrap_or(0))),
                Some("histogram") => dump
                    .histogram_p50s
                    .push((name, v["p50"].as_f64().unwrap_or(0.0))),
                Some("rss") => dump.vm_hwm_kb = v["vm_hwm_kb"].as_u64().unwrap_or(0),
                _ => {}
            }
        }
        dump
    }

    pub fn read(path: &Path) -> std::io::Result<ChildDump> {
        Ok(ChildDump::parse(&std::fs::read_to_string(path)?))
    }

    /// Every dump in `dir` (one per worker process that exited cleanly).
    pub fn read_all(dir: &Path) -> Vec<ChildDump> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        paths
            .iter()
            .filter_map(|p| ChildDump::read(p).ok())
            .collect()
    }
}

/// Writes this process's registry and peak memory where the parent reads it.
fn write_dump(path: &Path) -> std::io::Result<()> {
    let mut text = wootz_obs::snapshot().to_ndjson();
    let hwm = vm_hwm_kb(std::process::id()).unwrap_or(0);
    text.push_str(&format!("{{\"kind\":\"rss\",\"vm_hwm_kb\":{hwm}}}\n"));
    std::fs::write(path, text)
}

fn flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let at = args.iter().position(|a| a == name)?;
    if at + 1 >= args.len() {
        return None;
    }
    args.remove(at);
    Some(args.remove(at))
}

/// `benchmark __serve --store D --state D`: the daemon child. Serves until
/// its stdin closes (the parent dropped it, or died). Meanwhile the parent
/// may write `trace` (record `wootz-obs` spans from now on) or `dump <path>`
/// (write the registry and peak memory to `<path>`).
pub fn serve_child_main(mut args: Vec<String>) -> ExitCode {
    let (Some(store), Some(state)) = (flag(&mut args, "--store"), flag(&mut args, "--state"))
    else {
        eprintln!("{SERVE_SUBCOMMAND} needs --store <dir> and --state <dir>");
        return ExitCode::from(2);
    };
    let opts = ServeOptions {
        listen: "127.0.0.1:0".to_string(),
        store_dir: store.into(),
        store_budget: None,
        state_dir: state.into(),
    };
    // `serve` only returns on a start-up error; it runs beside the stdin
    // watch so either can end the process.
    std::thread::spawn(move || {
        if let Err(e) = wootz_cluster::serve(&opts) {
            eprintln!("{SERVE_SUBCOMMAND}: {e}");
            std::process::exit(1);
        }
    });
    for line in std::io::stdin().lines().map_while(Result::ok) {
        if line == "trace" {
            wootz_obs::enable();
        } else if let Some(path) = line.strip_prefix("dump ") {
            // Written beside and renamed, so the parent never reads half.
            let staged = format!("{path}.part");
            if let Err(e) =
                write_dump(Path::new(&staged)).and_then(|()| std::fs::rename(&staged, path))
            {
                eprintln!("{SERVE_SUBCOMMAND}: cannot write dump `{path}`: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

/// `benchmark __worker --connect A --worker-id I`: one TCP worker, as
/// `wootz worker --connect`. Leaves a dump in `WOOTZ_BENCH_DUMP_DIR`.
pub fn worker_child_main(mut args: Vec<String>) -> ExitCode {
    let (Some(addr), Some(id)) = (flag(&mut args, "--connect"), flag(&mut args, "--worker-id"))
    else {
        eprintln!("{WORKER_SUBCOMMAND} needs --connect <addr> and --worker-id <id>");
        return ExitCode::from(2);
    };
    if std::env::var_os(ENV_TRACE).is_some() {
        wootz_obs::enable();
    }
    let exit = wootz_cluster::worker_net_main(&addr, &id, None);
    if let Ok(dir) = std::env::var(ENV_DUMP_DIR) {
        let path = Path::new(&dir).join(format!("{id}-{}.ndjson", std::process::id()));
        if let Err(e) = write_dump(&path) {
            eprintln!(
                "{WORKER_SUBCOMMAND}: cannot write dump `{}`: {e}",
                path.display()
            );
        }
    }
    match exit {
        Ok(WorkerExit::Shutdown) => ExitCode::SUCCESS,
        Ok(WorkerExit::CoordinatorGone) => {
            eprintln!("{WORKER_SUBCOMMAND} {id}: coordinator at `{addr}` is gone");
            ExitCode::from(86)
        }
        Err(e) => {
            eprintln!("{WORKER_SUBCOMMAND} {id}: {e}");
            ExitCode::from(1)
        }
    }
}

/// The environment that makes a worker child single-threaded and has it
/// dump into `dump_dir` when it ends.
pub fn worker_env(dump_dir: &Path, traced: bool) -> Vec<(String, String)> {
    let mut env = vec![
        ("WOOTZ_THREADS".to_string(), "1".to_string()),
        (ENV_DUMP_DIR.to_string(), dump_dir.display().to_string()),
    ];
    if traced {
        env.push((ENV_TRACE.to_string(), "1".to_string()));
    }
    env
}

/// A running serve daemon child. Killed on drop.
pub struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
    dumps: usize,
}

impl Daemon {
    /// Starts the daemon over an empty store in `dir` with `threads` compute
    /// threads and waits (bounded) for its `serving on <addr>` line.
    pub fn start(dir: &Path, threads: usize) -> Result<Daemon, String> {
        let (exe, mut args) = self_worker_cmd(&[SERVE_SUBCOMMAND]).map_err(|e| e.to_string())?;
        args.extend(["--store".into(), dir.join("store").display().to_string()]);
        args.extend(["--state".into(), dir.join("state").display().to_string()]);
        let mut child = Command::new(&exe)
            .args(&args)
            .env("WOOTZ_THREADS", threads.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the daemon via `{}`: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here the guard owns the child: every return path kills it.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
            dumps: 0,
        };
        // The reader thread ends when the child closes its stdout or nobody
        // listens any more.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "the daemon did not print `serving on <addr>` in time".to_string())?;
            if let Some(rest) = line.strip_prefix("serving on ") {
                daemon.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                return Ok(daemon);
            }
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Where the daemon journals job `id`.
    pub fn journal_of(&self, id: &str) -> PathBuf {
        self.dir
            .join("state")
            .join("jobs")
            .join(format!("{id}.journal"))
    }

    /// Peak resident memory of the daemon so far, in KiB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        vm_hwm_kb(self.child.id())
    }

    fn command(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.child.stdin.as_mut().expect("stdin was piped");
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot reach the daemon: {e}"))
    }

    /// Has the daemon record `wootz-obs` spans from now on.
    pub fn trace(&mut self) -> Result<(), String> {
        self.command("trace")
    }

    /// The daemon's registry and peak memory, now.
    pub fn dump(&mut self) -> Result<ChildDump, String> {
        self.dumps += 1;
        let path = self.dir.join(format!("daemon-{}.dump.ndjson", self.dumps));
        self.command(&format!("dump {}", path.display()))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !path.exists() {
            if Instant::now() > deadline {
                return Err("the daemon did not dump its registry in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        ChildDump::read(&path).map_err(|e| format!("cannot read the daemon's dump: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_dirs_are_distinct_and_removed_on_drop() {
        let (a, b) = (WorkDir::new("t").unwrap(), WorkDir::new("t").unwrap());
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }

    #[test]
    fn own_peak_memory_is_readable() {
        assert!(vm_hwm_kb(std::process::id()).unwrap() > 0);
    }

    #[test]
    fn dumps_parse_counters_histograms_and_memory() {
        let dump = ChildDump::parse(
            "{\"v\":1,\"kind\":\"meta\"}\n\
             {\"v\":1,\"kind\":\"counter\",\"name\":\"wire.frames\",\"value\":7}\n\
             {\"v\":1,\"kind\":\"histogram\",\"name\":\"h\",\"count\":3,\"sum\":30,\"min\":1,\"max\":20,\"p50\":9.5,\"p90\":1,\"p99\":1}\n\
             {\"kind\":\"rss\",\"vm_hwm_kb\":4096}\n",
        );
        assert_eq!(dump.counter("wire.frames"), 7);
        assert_eq!(dump.counter("absent"), 0);
        assert_eq!(dump.histogram_p50("h"), Some(9.5));
        assert_eq!(dump.vm_hwm_kb, 4096);
    }
}
