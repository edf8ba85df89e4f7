//! Deterministic kill points: crash the process at a named durability
//! boundary, on the Nth visit.
//!
//! Crash-consistency bugs hide in the few instructions between "bytes
//! written" and "bytes durable" (half an appended record) and between
//! "coordinator committed" and "run state updated" (a grant sent torn, a
//! result received but never folded). This module turns each such
//! boundary into a *kill site* — a stable name registered in
//! [`KILL_SITES`] — at which the environment variable
//! [`ENV_KILL_AT`]`=<site>:<n>` makes the process die on the `n`-th
//! visit, after flushing a deliberately partial write. The schedule is
//! fully deterministic: same binary, same inputs, same `<site>:<n>` ⇒
//! the same torn bytes on disk, which is what lets the `wootz-cluster`
//! contracts test (`crates/cluster/tests/contracts.rs`) assert identical
//! recovery for every site.
//!
//! Dying means [`std::process::abort`] — no unwinding, no `Drop`, no
//! atexit flushing — the closest a process can get to `kill -9`-ing
//! itself at an exact instruction.
//!
//! The registry is enumerable (`wootz chaos list`) so the contracts test
//! can never silently fall out of sync with the code: it fails on a site
//! added here without a row of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The environment variable arming a kill point: `<site>:<n>` dies on
/// the `n`-th visit (1-based) to `site`.
pub const ENV_KILL_AT: &str = "WOOTZ_CHAOS_KILL_AT";

/// One registered kill site: where a crash is simulated.
#[derive(Debug, Clone, Copy)]
pub struct KillSite {
    /// Stable site name, as given to [`ENV_KILL_AT`].
    pub name: &'static str,
    /// The durability boundary the site sits on.
    pub boundary: &'static str,
}

/// Stable names of the registered kill sites (see [`KILL_SITES`] for
/// the descriptions).
pub mod kill_site {
    /// Writing the run journal's header record (`Journal::create`).
    pub const JOURNAL_HEADER: &str = "journal.header";
    /// Appending one run-journal record (`Journal::append`).
    pub const JOURNAL_APPEND: &str = "journal.append";
    /// Coordinator granting a task: the task is claimed from the hub's
    /// queue, the `TaskGrant` frame half-written to the socket
    /// (`NetHub`'s connection handler).
    pub const COORD_GRANT: &str = "coord.grant";
    /// Coordinator reaping a result: the result is taken from the hub,
    /// abort before `accept_or_fence` folds it into run state
    /// (`Coordinator::drive`).
    pub const COORD_REAP: &str = "coord.reap";
    /// Coordinator publishing the pre-trained block bag: the round's
    /// blocks are journaled, abort before the hub gets the bag
    /// (`Coordinator::publish_blocks`).
    pub const COORD_ASSEMBLE: &str = "coord.assemble";
}

/// Every kill point registered in the workspace, with the boundary it
/// guards. `wootz chaos list` prints this table; the contracts test
/// (`crates/cluster/tests/contracts.rs`) requires a row for each entry.
pub const KILL_SITES: &[KillSite] = &[
    KillSite {
        name: kill_site::JOURNAL_HEADER,
        boundary: "run journal: header record half-written, then abort (fresh journal is torn)",
    },
    KillSite {
        name: kill_site::JOURNAL_APPEND,
        boundary: "run journal: entry record half-written, then abort (tail is torn)",
    },
    KillSite {
        name: kill_site::COORD_GRANT,
        boundary: "coordinator grant: task claimed in memory, TaskGrant frame half-written, then abort",
    },
    KillSite {
        name: kill_site::COORD_REAP,
        boundary: "coordinator reap: result received, abort before it folds into run state",
    },
    KillSite {
        name: kill_site::COORD_ASSEMBLE,
        boundary: "coordinator assemble: block bag pre-trained and journaled, abort before the hub gets it",
    },
];

/// The armed kill point, parsed once from [`ENV_KILL_AT`].
#[derive(Debug)]
struct Armed {
    site: String,
    /// Visits left before firing; fires on the transition 1 → 0.
    countdown: AtomicU64,
}

fn armed() -> Option<&'static Armed> {
    static ARMED: OnceLock<Option<Armed>> = OnceLock::new();
    ARMED
        .get_or_init(|| {
            let spec = std::env::var(ENV_KILL_AT).ok()?;
            let (site, n) = spec.rsplit_once(':')?;
            let n: u64 = n.parse().ok()?;
            if site.is_empty() || n == 0 {
                return None;
            }
            Some(Armed {
                site: site.to_string(),
                countdown: AtomicU64::new(n),
            })
        })
        .as_ref()
}

/// Whether *this* visit to `site` is the one scheduled to die. Returns
/// `false` forever when [`ENV_KILL_AT`] is unset, names another site, or
/// has already fired — the check is two atomic loads on un-chaosed runs.
///
/// The caller decides *how* to die (usually [`torn_write_and_die`] or
/// [`die`]); splitting "should I" from "do it" keeps the partial-write
/// staging next to the real write it mimics.
pub fn kill_point(site: &str) -> bool {
    let Some(armed) = armed() else { return false };
    if armed.site != site {
        return false;
    }
    // Saturating countdown: visits after the fatal one (in a process that
    // somehow survived, e.g. under a test harness) never underflow.
    armed
        .countdown
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok_and(|prev| prev == 1)
}

/// Kills the process at `site`: one stderr line (so harnesses can assert
/// the kill actually happened where scheduled), then [`std::process::abort`].
pub fn die(site: &str) -> ! {
    eprintln!("wootz-chaos: kill point `{site}` fired; aborting");
    std::process::abort();
}

/// Simulates a crash mid-write: flushes the first half of `bytes` into
/// `file` (followed by `sync_all`, so the torn prefix is really on disk,
/// exactly as a power cut after a partial page flush would leave it) and
/// aborts. Errors during the staging write are ignored — the process is
/// dying either way.
pub fn torn_write_and_die(site: &str, file: &mut std::fs::File, bytes: &[u8]) -> ! {
    use std::io::Write;
    let half = &bytes[..bytes.len() / 2];
    let _ = file.write_all(half);
    let _ = file.sync_all();
    die(site)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_kill_points_never_fire() {
        // The test process has no WOOTZ_CHAOS_KILL_AT; every site is cold.
        for site in KILL_SITES {
            assert!(!kill_point(site.name));
        }
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        for (i, a) in KILL_SITES.iter().enumerate() {
            assert!(!a.name.is_empty() && !a.boundary.is_empty());
            for b in &KILL_SITES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
        assert_eq!(
            KILL_SITES.len(),
            5,
            "give a new site a row in crates/cluster/tests/contracts.rs"
        );
    }

    // The firing behavior is exercised end-to-end by the contracts test
    // of `wootz-cluster`, which kills real `wootz` processes — an
    // aborting assertion cannot run in-process.
}
