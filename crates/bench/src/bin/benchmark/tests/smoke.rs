//! Drives the real binary through `--smoke`: every workload, untraced and
//! traced, at tiny sizes — so the children it re-executes are the binary
//! itself, exactly as in a full run.

use std::process::Command;
use std::time::{Duration, Instant};

/// Processes still running one of the benchmark's hidden subcommands.
fn stray_children(exe: &str) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| std::fs::read(e.ok()?.path().join("cmdline")).ok())
        .map(|raw| String::from_utf8_lossy(&raw).replace('\0', " "))
        .filter(|cmd| cmd.starts_with(exe) && (cmd.contains("__serve") || cmd.contains("__worker")))
        .collect()
}

#[test]
fn smoke_runs_every_workload_and_leaves_nothing_behind() {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    let cwd = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&cwd).unwrap();
    let start = Instant::now();
    let out = Command::new(exe)
        .arg("--smoke")
        .current_dir(&cwd)
        .output()
        .unwrap();
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in ["prune_cold", "prune_warm", "serve_mixed", "cluster_tcp"] {
        assert_eq!(
            stdout
                .lines()
                .filter(|l| l.starts_with(&format!("{workload}: ")))
                .count(),
            2,
            "{workload} runs untraced and traced:\n{stdout}"
        );
    }
    assert!(!stdout.contains("FAILED"), "{stdout}");
    // About 25 s optimized and 40 s unoptimized on a 2-core host: five
    // distributed runs alone wait some 12 s on the cluster's polling periods.
    assert!(
        elapsed < Duration::from_secs(120),
        "--smoke took {elapsed:?}"
    );
    // Only the traces stay; scratch directories and children are gone.
    let left: Vec<String> = std::fs::read_dir(cwd.join(".bench_work"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        left.iter().all(|name| name.starts_with("trace-")),
        "{left:?}"
    );
    assert_eq!(stray_children(exe), Vec::<String>::new());
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--all", "--smoke"][..],
        &["--trace", "2"][..],
    ] {
        let out = Command::new(exe).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
