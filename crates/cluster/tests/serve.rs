//! Integration tests of the `wootz serve` daemon, driven over the wire
//! protocol against the real binary.

mod common;

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::tempdir;
use wootz_cluster::{job_code, Message};
use wootz_wire::Limits;

/// A daemon child that is killed when the test ends, however it ends.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(dir: &std::path::Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wootz"))
            .arg("serve")
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--state")
            .arg(dir.join("state"))
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("wootz serve starts");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .strip_prefix("serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    /// Submits `job` and reads the stream to its terminal `JobDone`,
    /// returning `(code, detail)`.
    fn submit(&self, job: &Message) -> (u32, String) {
        let mut conn = TcpStream::connect(&self.addr).unwrap();
        job.write_to(&mut conn).unwrap();
        loop {
            match Message::read_from(&mut conn, &Limits::DEFAULT).unwrap().0 {
                Message::JobDone { code, detail, .. } => return (code, detail),
                Message::JobEvent { .. } => {}
                other => panic!("unexpected {} from the daemon", other.name()),
            }
        }
    }
}

/// A two-configuration baseline job that takes a fraction of a second.
fn small_job() -> Message {
    Message::SubmitJob {
        model: wootz_models::resnet_mini(8).to_prototxt(),
        configs: "[[30,30,30,30],[50,50,50,50]]".to_string(),
        solver: "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 4\nbatch_size: 4\n\
                 pretrain_iter: 2\neval_every: 4\nseed: 3\nnum_workers: 2\n"
            .to_string(),
        objective: "min ModelSize\nconstraint Accuracy >= 0.0\n".to_string(),
        mode: "baseline".to_string(),
        explorer: String::new(),
        explorer_budget: 0,
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A client that resubmits the same job the moment it reads `JobDone`
/// must never be refused busy: the daemon frees the job id (the journal
/// lock is long released) *before* it announces completion. Found by the
/// repository benchmark, whose replay clients resubmit exactly like this.
#[test]
fn resubmitting_on_job_done_is_never_refused_busy() {
    let dir = tempdir("serve_resubmit");
    let daemon = Daemon::start(&dir, &[]);
    let job = small_job();
    let (code, first) = daemon.submit(&job);
    assert_eq!(code, job_code::OK, "{first}");
    // Every resubmission replays the journal, so each round trip is a few
    // milliseconds — as tight a resubmit-on-receipt loop as a client gets.
    let codes: Vec<u32> = (0..20).map(|_| daemon.submit(&job).0).collect();
    let busy = codes.iter().filter(|&&c| c == job_code::BUSY).count();
    assert_eq!(busy, 0, "busy refusals on prompt resubmission: {codes:?}");
    assert!(codes.iter().all(|&c| c == job_code::OK), "{codes:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `wootz serve --metrics-out` keeps its export current while it runs: a
/// daemon is only ever stopped by a kill, so the file is rewritten after
/// each job instead of at exit.
#[test]
fn a_running_daemon_exports_its_metrics_after_each_job() {
    let dir = tempdir("serve_metrics");
    let metrics = dir.join("metrics.ndjson");
    let mut daemon = Daemon::start(&dir, &["--metrics-out", metrics.to_str().unwrap()]);
    let (code, detail) = daemon.submit(&small_job());
    assert_eq!(code, job_code::OK, "{detail}");
    // The export follows `JobDone`: give it a moment.
    let deadline = Instant::now() + Duration::from_secs(20);
    let text = loop {
        let text = std::fs::read_to_string(&metrics).unwrap_or_default();
        if text.contains("\"name\":\"serve.job_done\"") || Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        daemon.child.try_wait().unwrap().is_none(),
        "the daemon exited"
    );
    assert!(
        text.contains("\"name\":\"serve.job_done\""),
        "no serve.job_done in the export:\n{text}"
    );
    assert!(
        text.contains("\"kind\":\"counter\",\"name\":\"par."),
        "no par.* counter in the export:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
