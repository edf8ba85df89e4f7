//! Integration tests of the `wootz` CLI binary: the full file-driven
//! workflow of the paper's Figure 2 (compile → sample → identify → prune).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn wootz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wootz"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wootz_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_model(dir: &Path) -> PathBuf {
    let path = dir.join("model.prototxt");
    std::fs::write(&path, wootz_models::resnet_mini(8).to_prototxt()).unwrap();
    path
}

fn assert_success(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn compile_reports_stats_and_emits_python() {
    let dir = tempdir("compile");
    let model = write_model(&dir);
    let py = dir.join("model_gen.py");
    let out = wootz()
        .args([
            "compile",
            model.to_str().unwrap(),
            "--summary",
            "--emit-python",
        ])
        .arg(&py)
        .output()
        .unwrap();
    let stdout = assert_success(&out);
    assert!(stdout.contains("4 convolution modules"), "{stdout}");
    assert!(stdout.contains("total:"), "{stdout}");
    let script = std::fs::read_to_string(&py).unwrap();
    assert!(script.contains("def resnet_mini("));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sample_then_identify() {
    let dir = tempdir("identify");
    let model = write_model(&dir);
    let configs = dir.join("configs.json");
    let out = wootz()
        .args([
            "sample",
            "--modules",
            "4",
            "--count",
            "6",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&configs)
        .output()
        .unwrap();
    assert_success(&out);
    let parsed: Vec<Vec<u8>> =
        serde_json::from_str(&std::fs::read_to_string(&configs).unwrap()).unwrap();
    assert_eq!(parsed.len(), 6);
    assert!(parsed.iter().all(|c| c.len() == 4));

    let out = wootz()
        .args(["identify", "--model"])
        .arg(&model)
        .args(["--configs"])
        .arg(&configs)
        .output()
        .unwrap();
    let stdout = assert_success(&out);
    assert!(stdout.contains("tuning blocks"), "{stdout}");
    assert!(stdout.contains("composite vectors"), "{stdout}");
    assert!(stdout.contains("pre-training groups"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prune_end_to_end_writes_results() {
    let dir = tempdir("prune");
    let model = write_model(&dir);
    let configs = dir.join("configs.json");
    std::fs::write(&configs, "[[30,30,30,30],[70,70,70,70]]").unwrap();
    let solver = dir.join("solver.prototxt");
    std::fs::write(
        &solver,
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 30\nbatch_size: 8\npretrain_iter: 8\neval_every: 10\nseed: 3\n",
    )
    .unwrap();
    let objective = dir.join("objective.txt");
    std::fs::write(&objective, "min ModelSize\nconstraint Accuracy >= 0.1\n").unwrap();
    let results = dir.join("results.json");
    let out = wootz()
        .args(["prune", "--model"])
        .arg(&model)
        .args(["--configs"])
        .arg(&configs)
        .args(["--solver"])
        .arg(&solver)
        .args(["--objective"])
        .arg(&objective)
        .args(["--mode", "baseline", "--out"])
        .arg(&results)
        .output()
        .unwrap();
    let stdout = assert_success(&out);
    assert!(stdout.contains("full-model accuracy"), "{stdout}");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&results).unwrap()).unwrap();
    assert_eq!(json["mode"], "Baseline");
    assert!(json["exploration"]["configs_explored"].as_u64().unwrap() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prune_with_metrics_out_writes_parseable_ndjson() {
    let dir = tempdir("metrics");
    let model = write_model(&dir);
    let configs = dir.join("configs.json");
    std::fs::write(&configs, "[[30,30,30,30],[70,70,70,70]]").unwrap();
    let solver = dir.join("solver.prototxt");
    std::fs::write(
        &solver,
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 20\nbatch_size: 8\npretrain_iter: 6\neval_every: 10\nseed: 3\n",
    )
    .unwrap();
    // A bound no 20-step fine-tune reaches: every evaluation records its
    // whole accuracy curve, which is what emits `trainer.eval` events.
    let objective = dir.join("objective.txt");
    std::fs::write(&objective, "min ModelSize\nconstraint Accuracy >= 0.99\n").unwrap();
    let metrics = dir.join("metrics.ndjson");
    let out = wootz()
        .args(["prune", "--model"])
        .arg(&model)
        .args(["--configs"])
        .arg(&configs)
        .args(["--solver"])
        .arg(&solver)
        .args(["--objective"])
        .arg(&objective)
        .args(["--mode", "composability", "--metrics-out"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert_success(&out);
    // The summary table goes to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wootz-obs summary"), "{stderr}");

    // Every NDJSON line parses and carries the schema version + kind.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let mut span_names = std::collections::BTreeSet::new();
    let mut counter_names = std::collections::BTreeSet::new();
    let mut event_names = std::collections::BTreeSet::new();
    let mut histogram_names = std::collections::BTreeSet::new();
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["v"].as_u64(), Some(1), "{line}");
        let kind = v["kind"].as_str().unwrap().to_string();
        let name = v["name"].as_str().unwrap_or_default().to_string();
        match kind.as_str() {
            "span" => {
                span_names.insert(name);
            }
            "counter" => {
                counter_names.insert(name);
            }
            "event" => {
                event_names.insert(name);
            }
            "histogram" => {
                histogram_names.insert(name);
            }
            _ => {}
        }
    }
    // The top-level pipeline phases show up as spans...
    for expected in [
        "pipeline.run",
        "pipeline.full_model",
        "pipeline.identify_blocks",
        "pretrain.run",
        "pretrain.group",
        "pretrain.block",
        "explore.run",
        "explore.round",
        "explore.config",
        "trainer.run",
    ] {
        assert!(span_names.contains(expected), "missing span {expected}: {span_names:?}");
    }
    // ...the kernel FLOP accounting as counters...
    for expected in ["tensor.conv2d.calls", "tensor.conv2d.flops", "tensor.conv2d.bytes"] {
        assert!(
            counter_names.contains(expected),
            "missing counter {expected}: {counter_names:?}"
        );
    }
    // ...and the trainer telemetry as events + a step-time histogram.
    assert!(event_names.contains("trainer.eval"), "{event_names:?}");
    assert!(event_names.contains("explore.progress"), "{event_names:?}");
    assert!(
        histogram_names.contains("trainer.step_time_us"),
        "{histogram_names:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn genmodel_emits_a_compilable_model() {
    let dir = tempdir("genmodel");
    let model = dir.join("gen.prototxt");
    let out = wootz()
        .args(["genmodel", "--classes", "8", "--out"])
        .arg(&model)
        .output()
        .unwrap();
    let stdout = assert_success(&out);
    assert!(stdout.contains("resnet_mini"), "{stdout}");
    let out = wootz()
        .args(["compile", model.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = assert_success(&out);
    assert!(stdout.contains("4 convolution modules"), "{stdout}");

    // The inception family is a different shape.
    let out = wootz()
        .args(["genmodel", "--family", "inception"])
        .output()
        .unwrap();
    let stdout = assert_success(&out);
    assert!(stdout.contains("inception"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `prune` with identical inputs: once cold with `--journal`, once
/// warm with `--resume`. The resumed run must do strictly less fresh
/// evaluation work while reporting the same best network.
#[test]
fn prune_journal_then_resume_skips_finished_work() {
    let dir = tempdir("resume");
    let model = write_model(&dir);
    let configs = dir.join("configs.json");
    std::fs::write(&configs, "[[30,30,30,30],[70,70,70,70]]").unwrap();
    let solver = dir.join("solver.prototxt");
    std::fs::write(
        &solver,
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 30\nbatch_size: 8\npretrain_iter: 8\neval_every: 10\nseed: 3\n",
    )
    .unwrap();
    let objective = dir.join("objective.txt");
    std::fs::write(&objective, "min ModelSize\nconstraint Accuracy >= 0.1\n").unwrap();
    let journal = dir.join("run.ndjson");

    let run = |extra: &[&str]| {
        let mut cmd = wootz();
        cmd.args(["prune", "--model"])
            .arg(&model)
            .args(["--configs"])
            .arg(&configs)
            .args(["--solver"])
            .arg(&solver)
            .args(["--objective"])
            .arg(&objective)
            .args(["--journal"])
            .arg(&journal)
            .args(extra);
        cmd.output().unwrap()
    };

    let cold = assert_success(&run(&[]));
    let warm = assert_success(&run(&["--resume"]));

    let fresh = |stdout: &str| -> usize {
        let line = stdout
            .lines()
            .find(|l| l.starts_with("exploration:"))
            .unwrap_or_else(|| panic!("no exploration line in {stdout}"));
        line.split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    let best = |stdout: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with("best network:"))
            .unwrap_or_else(|| panic!("no best line in {stdout}"))
            .to_string()
    };
    assert!(fresh(&cold) >= 1, "{cold}");
    assert!(
        fresh(&warm) < fresh(&cold),
        "resume did not skip work:\ncold: {cold}\nwarm: {warm}"
    );
    assert!(warm.contains("resumed from journal"), "{warm}");
    assert_eq!(best(&cold), best(&warm), "\ncold: {cold}\nwarm: {warm}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A deterministic fault plan with an exhaustible per-config trigger:
/// the faulty configuration is retried, then skipped, and the run still
/// completes and reports the failure.
#[test]
fn prune_with_fault_plan_skips_exhausted_config() {
    let dir = tempdir("faults");
    let model = write_model(&dir);
    let configs = dir.join("configs.json");
    std::fs::write(&configs, "[[70,70,70,70],[30,30,30,30]]").unwrap();
    let solver = dir.join("solver.prototxt");
    std::fs::write(
        &solver,
        "dataset: \"flowers102\"\nbase_lr: 0.03\nmax_iter: 30\nbatch_size: 8\npretrain_iter: 8\neval_every: 10\nseed: 3\n",
    )
    .unwrap();
    let objective = dir.join("objective.txt");
    std::fs::write(&objective, "min ModelSize\nconstraint Accuracy >= 0.0\n").unwrap();
    let plan = dir.join("faults.json");
    // Config 0 fails on every attempt (times=99 > max_attempts).
    std::fs::write(
        &plan,
        "{\"seed\": 5, \"triggers\": [{\"site\":\"explore.eval\",\"key\":0,\"kind\":\"EvalError\",\"times\":99}], \"rates\": []}",
    )
    .unwrap();
    let out = wootz()
        .args(["prune", "--model"])
        .arg(&model)
        .args(["--configs"])
        .arg(&configs)
        .args(["--solver"])
        .arg(&solver)
        .args(["--objective"])
        .arg(&objective)
        .args(["--inject-faults"])
        .arg(&plan)
        .output()
        .unwrap();
    let stdout = assert_success(&out);
    assert!(stdout.contains("1 failed"), "{stdout}");
    assert!(stdout.contains("best network"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_inputs_fail_with_messages() {
    let out = wootz().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = wootz()
        .args(["compile", "/nonexistent/model.prototxt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read model"));

    let dir = tempdir("bad");
    let model = write_model(&dir);
    let configs = dir.join("bad.json");
    std::fs::write(&configs, "{\"not\": \"a list\"}").unwrap();
    let out = wootz()
        .args(["identify", "--model"])
        .arg(&model)
        .args(["--configs"])
        .arg(&configs)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("JSON array"));

    // Config length mismatch is caught before any training.
    let configs = dir.join("short.json");
    std::fs::write(&configs, "[[30, 30]]").unwrap();
    let out = wootz()
        .args(["identify", "--model"])
        .arg(&model)
        .args(["--configs"])
        .arg(&configs)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("covers 2 modules"));

    // A removed flag fails loudly rather than being ignored.
    let out = wootz()
        .arg("compile")
        .arg(&model)
        .args(["--exec-plan", "off"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognized arguments"));
    std::fs::remove_dir_all(&dir).ok();

    // A worker joins over TCP only; there is no shared-directory mode.
    let out = wootz()
        .args(["worker", "--run-dir", "d", "--worker-id", "w"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--connect"));
}
