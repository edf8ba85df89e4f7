//! Integration tests of the `reproduce` binary's cheap artifacts and its
//! flag handling (the expensive real-training artifacts are covered by the
//! library tests at the quick budget).

use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

#[test]
fn fig4_prints_the_grammar() {
    let out = reproduce().args(["fig4"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CFG:"), "{stdout}");
    assert!(stdout.contains("4(50) 5(50)"), "{stdout}");
}

#[test]
fn table4_runs_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("wootz_repro_{}", std::process::id()));
    let out = reproduce()
        .args(["table4", "--seed", "3", "--json"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 4"), "{stdout}");
    assert!(stdout.contains("paper-speedup"), "{stdout}");
    let json = std::fs::read_to_string(dir.join("table4.json")).unwrap();
    let rows: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(rows.as_array().unwrap().len(), 16); // 2 models x 2 datasets x 4 sizes
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails() {
    // Wall-clock measurement belongs to the repository benchmark
    // (`BENCHMARK.json`), not to `reproduce`; crash recovery and resume
    // to `wootz prune` and the contracts test of `wootz-cluster`.
    for command in [
        "tableX",
        "kernels",
        "memory",
        "cache",
        "explorers",
        "crashes",
        "pipeline",
        "crash-child",
    ] {
        let out = reproduce().args([command]).output().unwrap();
        assert!(!out.status.success(), "{command}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown command"),
            "{command}"
        );
    }
}

#[test]
fn bad_flag_fails_with_usage() {
    let cases: [&[&str]; 5] = [
        &["fig4", "--bogus"],
        &["fig4", "--budget", "1"],
        &["fig4", "--journal", "run.journal"],
        &["fig4", "--resume"],
        &["fig4", "--inject-faults", "plan.json"],
    ];
    for args in cases {
        let out = reproduce().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "{args:?}"
        );
    }
}
