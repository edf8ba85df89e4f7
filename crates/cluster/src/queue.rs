//! The crash-safe task queue: the coordinator's durability journal.
//!
//! Only the coordinator process touches it — the drive loop enqueues and
//! reaps, the TCP hub ([`crate::net`]) claims and journals on the
//! workers' behalf. It is a handful of directories under the run
//! directory, manipulated with the only two primitives a POSIX filesystem
//! makes atomic — `rename(2)` within a directory and
//! temp-file-plus-rename publication — so a coordinator killed at any
//! instruction leaves a state the next epoch can wipe and rebuild.
//!
//! * **Enqueue**: the coordinator writes `tasks/t{seq}.a{attempt}.json`
//!   atomically. Pending tasks sort by name, so the queue drains in
//!   sequence order.
//! * **Claim**: a hub handler answering a `TaskRequest` `rename`s the
//!   task file into `claims/`. Rename is atomic and fails for every racer
//!   but one, which is the whole mutual-exclusion story between handler
//!   threads — no locks, no fsync ordering subtleties.
//! * **Result**: the hub publishes `results/<task>.json` atomically when
//!   a `TaskDone` frame arrives; the coordinator reads the directory when
//!   the hub says so and applies fencing before accepting anything.

use std::path::{Path, PathBuf};

use wootz_core::Result;

use crate::protocol::{
    self, atomic_write_json, read_json, TaskSpec, BLOCKS_DIR, CLAIMS_DIR, LOGS_DIR, RESULTS_DIR,
    TASKS_DIR,
};

/// A handle on the run directory's layout. Cheap to clone; the drive loop
/// and the hub share the queue through this type so the path scheme
/// exists in exactly one place.
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

    /// The result directory.
    pub fn results(&self) -> PathBuf {
        self.root.join(RESULTS_DIR)
    }

    /// The per-worker log directory.
    pub fn logs(&self) -> PathBuf {
        self.root.join(LOGS_DIR)
    }

    /// (Re-)initializes the queue for a fresh coordinator epoch: wipes the
    /// transient queue directories (tasks, claims, results) and creates
    /// every directory the run needs. The manifest, blocks and logs
    /// survive across epochs.
    ///
    /// # Errors
    ///
    /// Returns an error when a directory cannot be created or wiped.
    pub fn init_epoch(&self) -> Result<()> {
        std::fs::create_dir_all(&self.root)
            .map_err(|e| protocol::cluster_err(format!("cannot create run dir: {e}")))?;
        for dir in [self.tasks(), self.claims(), self.results()] {
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| {
                    protocol::cluster_err(format!("cannot wipe `{}`: {e}", dir.display()))
                })?;
            }
        }
        for dir in [
            self.tasks(),
            self.claims(),
            self.results(),
            self.blocks(),
            self.logs(),
        ] {
            std::fs::create_dir_all(&dir).map_err(|e| {
                protocol::cluster_err(format!("cannot create `{}`: {e}", dir.display()))
            })?;
        }
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
    /// number of racing claimants wins; the losers observe `NotFound` and
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
                Err(e) => return Err(protocol::cluster_err(format!("cannot claim `{name}`: {e}"))),
            }
        }
        Ok(None)
    }

    /// Removes the claim file of a finished task, by queue file name
    /// (best-effort; the next epoch wipes leftovers anyway).
    pub fn release(&self, name: &str) {
        let _ = std::fs::remove_file(self.claims().join(name));
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
            // result appear atomically or not at all; the restarted
            // epoch wipes `results/` and re-runs the unit.
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
        rd.release(&first.file_name());
        assert_eq!(rd.claimed().unwrap(), vec![second.file_name()]);
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
        std::fs::write(rd.logs().join("w0.log"), "hello").unwrap();
        rd.init_epoch().unwrap();
        assert!(rd.pending().unwrap().is_empty());
        assert!(rd.logs().join("w0.log").exists(), "logs survive epochs");
        std::fs::remove_dir_all(rd.root()).ok();
    }
}
