//! Integration tests of the `wootz serve` daemon, driven over the wire
//! protocol against the real binary.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use wootz_cluster::{job_code, Message};
use wootz_wire::Limits;

/// A daemon child that is killed when the test ends, however it ends.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(dir: &std::path::Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wootz"))
            .arg("serve")
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--state")
            .arg(dir.join("state"))
            .args(["--listen", "127.0.0.1:0"])
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

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wootz_serve_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A client that resubmits the same job the moment it reads `JobDone`
/// must never be refused busy: the daemon frees the job id (the journal
/// lock is long released) *before* it announces completion. Found by the
/// repository benchmark, whose replay clients resubmit exactly like this.
#[test]
fn resubmitting_on_job_done_is_never_refused_busy() {
    let dir = tempdir("resubmit");
    let daemon = Daemon::start(&dir);
    let job = Message::SubmitJob {
        model: wootz_models::resnet_mini(8).to_prototxt(),
        configs: "[[30,30,30,30],[50,50,50,50]]".to_string(),
        solver: "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 4\nbatch_size: 4\n\
                 pretrain_iter: 2\neval_every: 4\nseed: 3\nnum_workers: 2\n"
            .to_string(),
        objective: "min ModelSize\nconstraint Accuracy >= 0.0\n".to_string(),
        mode: "baseline".to_string(),
        explorer: String::new(),
        explorer_budget: 0,
    };
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
