//! The crash-safe filesystem task queue.
//!
//! The queue needs no networking and no daemon: it is a handful of
//! directories under the run directory, manipulated with the only two
//! primitives a POSIX filesystem makes atomic — `rename(2)` within a
//! directory and temp-file-plus-rename publication.
//!
//! * **Enqueue**: the coordinator writes `tasks/t{seq}.a{attempt}.json`
//!   atomically. Pending tasks sort by name, so workers drain the queue in
//!   sequence order.
//! * **Claim**: a worker `rename`s the task file into `claims/`. Rename is
//!   atomic and fails for every racer but one, which is the whole
//!   mutual-exclusion story — no locks, no fsync ordering subtleties.
//! * **Lease**: the claiming worker rewrites `leases/<task>.json` every
//!   quarter lease period; the file's mtime is the heartbeat. A claim
//!   without a fresh lease is a dead or wedged worker, and the coordinator
//!   reclaims the task by enqueuing a fresh attempt (the stale files are
//!   left for the zombie to clean up or the next epoch to wipe).
//! * **Result**: the worker publishes `results/<task>.json` atomically;
//!   the coordinator polls the directory and applies fencing before
//!   accepting anything.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use wootz_core::Result;

use crate::protocol::{
    self, atomic_write_json, read_json, TaskSpec, BLOCKS_DIR, CLAIMS_DIR, LEASES_DIR, LOGS_DIR,
    RESULTS_DIR, SHUTDOWN, TASKS_DIR,
};

/// A handle on the run directory's layout. Cheap to clone; both the
/// coordinator and the workers drive the queue through this type so the
/// path scheme exists in exactly one place.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Wraps `root` without touching the filesystem.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RunDir { root: root.into() }
    }

    /// The run directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the run manifest.
    pub fn manifest(&self) -> PathBuf {
        self.root.join(protocol::MANIFEST)
    }

    /// Path of the trained full-model checkpoint.
    pub fn full_ckpt(&self) -> PathBuf {
        self.root.join(protocol::FULL_CKPT)
    }

    /// The block-checkpoint directory.
    pub fn blocks(&self) -> PathBuf {
        self.root.join(BLOCKS_DIR)
    }

    /// The block index file (`blocks/index.json`).
    pub fn blocks_index(&self) -> PathBuf {
        self.blocks().join(protocol::BLOCKS_INDEX)
    }

    /// The pending-task directory.
    pub fn tasks(&self) -> PathBuf {
        self.root.join(TASKS_DIR)
    }

    /// The claimed-task directory.
    pub fn claims(&self) -> PathBuf {
        self.root.join(CLAIMS_DIR)
    }

    /// The lease directory.
    pub fn leases(&self) -> PathBuf {
        self.root.join(LEASES_DIR)
    }

    /// The result directory.
    pub fn results(&self) -> PathBuf {
        self.root.join(RESULTS_DIR)
    }

    /// The per-worker log directory.
    pub fn logs(&self) -> PathBuf {
        self.root.join(LOGS_DIR)
    }

    /// The shutdown marker path.
    pub fn shutdown_marker(&self) -> PathBuf {
        self.root.join(SHUTDOWN)
    }

    /// (Re-)initializes the queue for a fresh coordinator epoch: wipes the
    /// transient queue directories (tasks, claims, leases, results) and the
    /// shutdown marker, and creates every directory the run needs. The
    /// manifest, checkpoints, blocks and logs survive across epochs.
    ///
    /// # Errors
    ///
    /// Returns an error when a directory cannot be created or wiped.
    pub fn init_epoch(&self) -> Result<()> {
        std::fs::create_dir_all(&self.root)
            .map_err(|e| protocol::cluster_err(format!("cannot create run dir: {e}")))?;
        for dir in [self.tasks(), self.claims(), self.leases(), self.results()] {
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| {
                    protocol::cluster_err(format!("cannot wipe `{}`: {e}", dir.display()))
                })?;
            }
        }
        for dir in [
            self.tasks(),
            self.claims(),
            self.leases(),
            self.results(),
            self.blocks(),
            self.logs(),
        ] {
            std::fs::create_dir_all(&dir).map_err(|e| {
                protocol::cluster_err(format!("cannot create `{}`: {e}", dir.display()))
            })?;
        }
        let _ = std::fs::remove_file(self.shutdown_marker());
        Ok(())
    }

    /// Enqueues a task (atomic publish into `tasks/`).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn enqueue(&self, task: &TaskSpec) -> Result<()> {
        atomic_write_json(&self.tasks().join(task.file_name()), task)
    }

    /// Names of the currently pending tasks, sorted (= sequence order).
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be listed.
    pub fn pending(&self) -> Result<Vec<String>> {
        list_task_files(&self.tasks())
    }

    /// Names of the currently claimed tasks, sorted.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be listed.
    pub fn claimed(&self) -> Result<Vec<String>> {
        list_task_files(&self.claims())
    }

    /// Tries to claim the oldest pending task for `worker`. The claim is a
    /// single `rename` from `tasks/` into `claims/`: exactly one of any
    /// number of racing workers wins; the losers observe `NotFound` and
    /// move on to the next file.
    ///
    /// Returns `None` when the queue is currently empty.
    ///
    /// # Errors
    ///
    /// Returns an error on unexpected I/O failure (not on lost races).
    pub fn try_claim(&self, _worker: &str) -> Result<Option<TaskSpec>> {
        for name in self.pending()? {
            let from = self.tasks().join(&name);
            let to = self.claims().join(&name);
            match std::fs::rename(&from, &to) {
                Ok(()) => {
                    let spec: TaskSpec = read_json(&to)?;
                    return Ok(Some(spec));
                }
                // Another worker won the race for this file; try the next.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    return Err(protocol::cluster_err(format!(
                        "cannot claim `{name}`: {e}"
                    )))
                }
            }
        }
        Ok(None)
    }

    /// Writes (or refreshes) the lease file of a claimed task; the file's
    /// mtime is the heartbeat the coordinator watches.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn write_lease(&self, task: &TaskSpec, worker: &str) -> Result<()> {
        let path = self.leases().join(task.file_name());
        std::fs::write(&path, worker).map_err(|e| {
            protocol::cluster_err(format!("cannot write lease `{}`: {e}", path.display()))
        })
    }

    /// The last-heartbeat time of a task's lease, if the lease exists.
    pub fn lease_heartbeat(&self, name: &str) -> Option<SystemTime> {
        std::fs::metadata(self.leases().join(name))
            .and_then(|m| m.modified())
            .ok()
    }

    /// Removes the claim and lease files of a finished task (worker-side
    /// cleanup; best-effort, the next epoch wipes leftovers anyway).
    pub fn release(&self, task: &TaskSpec) {
        self.release_by_name(&task.file_name());
    }

    /// [`RunDir::release`] by queue file name — the coordinator-side
    /// cleanup path for network workers, which never touch the run
    /// directory themselves.
    pub fn release_by_name(&self, name: &str) {
        let _ = std::fs::remove_file(self.claims().join(name));
        let _ = std::fs::remove_file(self.leases().join(name));
    }

    /// Publishes a task result (atomic write into `results/`).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn publish_result(&self, result: &crate::protocol::TaskResult) -> Result<()> {
        use wootz_fault::chaos::{self, kill_site};
        let name = protocol::task_file_name(result.seq, result.attempt);
        let path = self.results().join(&name);
        if chaos::kill_point(kill_site::RUNDIR_PUBLISH) {
            // Die the way a mid-publish kill does: half the JSON in the
            // temp file, never renamed — consumers must only ever see the
            // result appear atomically or not at all, and the coordinator
            // recovers by lease expiry + respawn.
            let json = serde_json::to_vec(result).unwrap_or_default();
            let tmp = path.with_file_name(format!(".{name}.tmp-{}", std::process::id()));
            if let Ok(mut file) = std::fs::File::create(&tmp) {
                chaos::torn_write_and_die(kill_site::RUNDIR_PUBLISH, &mut file, &json);
            }
            chaos::die(kill_site::RUNDIR_PUBLISH);
        }
        atomic_write_json(&path, result)
    }

    /// Names of the currently published results, sorted.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be listed.
    pub fn result_files(&self) -> Result<Vec<String>> {
        list_task_files(&self.results())
    }

    /// Reads one published result by file name.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O or parse failure.
    pub fn read_result(&self, name: &str) -> Result<crate::protocol::TaskResult> {
        read_json(&self.results().join(name))
    }

    /// Asks every worker to exit after its current task.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn request_shutdown(&self) -> Result<()> {
        std::fs::write(self.shutdown_marker(), b"shutdown")
            .map_err(|e| protocol::cluster_err(format!("cannot write shutdown marker: {e}")))
    }

    /// Whether a shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_marker().exists()
    }
}

/// Lists the well-formed task files (`t….a….json`) of a queue directory,
/// sorted by name. Temp files and strangers are ignored.
fn list_task_files(dir: &Path) -> Result<Vec<String>> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| protocol::cluster_err(format!("cannot list `{}`: {e}", dir.display())))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| protocol::parse_task_file_name(n).is_some())
        .collect();
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TaskKind;
    use std::collections::BTreeSet;

    fn tmp_run_dir(name: &str) -> RunDir {
        let dir = std::env::temp_dir()
            .join("wootz_queue_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rd = RunDir::new(dir);
        rd.init_epoch().unwrap();
        rd
    }

    fn spec(seq: u64, attempt: u32) -> TaskSpec {
        TaskSpec {
            seq,
            attempt,
            epoch: 1,
            kind: TaskKind::Eval {
                config_index: seq as usize,
                universe: Vec::new(),
            },
            expected_steps: 5,
        }
    }

    #[test]
    fn enqueue_claim_and_result_round_trip() {
        let rd = tmp_run_dir("roundtrip");
        rd.enqueue(&spec(2, 1)).unwrap();
        rd.enqueue(&spec(1, 1)).unwrap();
        assert_eq!(rd.pending().unwrap().len(), 2);
        // Claims drain in sequence order.
        let first = rd.try_claim("w0").unwrap().unwrap();
        assert_eq!(first.seq, 1);
        let second = rd.try_claim("w0").unwrap().unwrap();
        assert_eq!(second.seq, 2);
        assert!(rd.try_claim("w0").unwrap().is_none());
        assert_eq!(rd.claimed().unwrap().len(), 2);
        rd.write_lease(&first, "w0").unwrap();
        assert!(rd.lease_heartbeat(&first.file_name()).is_some());
        rd.release(&first);
        assert!(rd.lease_heartbeat(&first.file_name()).is_none());
        std::fs::remove_dir_all(rd.root()).ok();
    }

    #[test]
    fn racing_claimants_get_disjoint_tasks() {
        let rd = tmp_run_dir("race");
        let n_tasks = 24u64;
        for seq in 1..=n_tasks {
            rd.enqueue(&spec(seq, 1)).unwrap();
        }
        let winners: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let rd = rd.clone();
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(task) = rd.try_claim(&format!("w{w}")).unwrap() {
                            got.push(task.seq);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let all: Vec<u64> = winners.iter().flatten().copied().collect();
        let unique: BTreeSet<u64> = all.iter().copied().collect();
        assert_eq!(all.len() as u64, n_tasks, "every task claimed exactly once");
        assert_eq!(unique.len() as u64, n_tasks, "no task claimed twice");
        std::fs::remove_dir_all(rd.root()).ok();
    }

    #[test]
    fn init_epoch_wipes_queue_state_but_keeps_logs() {
        let rd = tmp_run_dir("epochs");
        rd.enqueue(&spec(1, 1)).unwrap();
        rd.request_shutdown().unwrap();
        std::fs::write(rd.logs().join("w0.log"), "hello").unwrap();
        assert!(rd.shutdown_requested());
        rd.init_epoch().unwrap();
        assert!(rd.pending().unwrap().is_empty());
        assert!(!rd.shutdown_requested());
        assert!(rd.logs().join("w0.log").exists(), "logs survive epochs");
        std::fs::remove_dir_all(rd.root()).ok();
    }
}
