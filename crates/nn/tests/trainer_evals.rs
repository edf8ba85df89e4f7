//! How many test-set passes `train_classifier` makes, counted on
//! `trainer.evals` (one per measurement), and how many plans it builds,
//! counted on `plan.builds`. A test binary of its own because the counters
//! are process-global; the tests here take turns.

use std::sync::Mutex;

use wootz_nn::{
    train_classifier, EvalSet, GraphBuilder, LrSchedule, TrainConfig, TrainLog, TrainRecord,
};
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::Tensor;

static SERIAL: Mutex<()> = Mutex::new(());

const MAX_STEPS: usize = 20;

/// Two linearly separable classes: the sign of the image.
fn batch(step: usize) -> (Tensor, Vec<usize>) {
    let images = Tensor::from_fn(&[8, 1, 2, 2], |i| {
        if (i / 4 + step).is_multiple_of(2) {
            0.8
        } else {
            -0.8
        }
    });
    let labels = (0..8)
        .map(|s| usize::from((s + step).is_multiple_of(2)))
        .collect();
    (images, labels)
}

/// Trains the same toy classifier from the same seed and returns the log
/// with the number of test-set passes it took and of plans it built.
fn train(eval_every: usize, target: Option<f32>) -> (TrainLog, u64, u64) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut b = GraphBuilder::new(21);
    let x = b.input("data", (1, 2, 2));
    let c = b.conv2d("c1", x, 4, 1, 1, 0).unwrap();
    let r = b.relu("r1", c).unwrap();
    let g = b.global_avg_pool("gap", r).unwrap();
    let d = b.dense("fc", g, 2).unwrap();
    let (graph, mut vars) = b.finish();
    let cfg = TrainConfig {
        max_steps: MAX_STEPS,
        sgd: SgdConfig {
            learning_rate: 0.1,
            weight_decay: 0.0,
            momentum: 0.9,
        },
        schedule: LrSchedule::Fixed,
        eval_every,
    };
    let (eval_x, eval_y) = batch(1);
    let eval = EvalSet {
        images: &eval_x,
        labels: &eval_y,
        target,
    };
    let evals = wootz_obs::counter("trainer.evals");
    let plans = wootz_obs::counter("plan.builds");
    let (evals_before, plans_before) = (evals.get(), plans.get());
    let log = train_classifier(&graph, &mut vars, "data", d, &cfg, batch, Some(eval)).unwrap();
    (log, evals.get() - evals_before, plans.get() - plans_before)
}

fn steps(records: &[TrainRecord]) -> Vec<usize> {
    records.iter().map(|r| r.step).collect()
}

/// Records as comparable values (the step-0 loss is NaN).
fn points(records: &[TrainRecord]) -> Vec<(usize, u32, Option<f32>)> {
    records
        .iter()
        .map(|r| (r.step, r.loss.to_bits(), r.accuracy))
        .collect()
}

#[test]
fn without_a_curve_only_the_final_accuracy_is_measured() {
    let (log, evals, _) = train(0, None);
    assert_eq!(evals, 1);
    assert_eq!(log.initial_accuracy, None);
    assert!(log.records.is_empty(), "{log:?}");
    assert!(log.final_accuracy.is_some());
    assert_eq!(log.steps_run, MAX_STEPS);
}

#[test]
fn a_curve_point_at_the_last_step_is_the_final_accuracy() {
    // 5 divides 20: the step-20 point is measured once, not again as final.
    let (log, evals, _) = train(5, None);
    assert_eq!(steps(&log.records), [0, 5, 10, 15, 20]);
    assert_eq!(evals, 5);
    assert_eq!(log.records.last().unwrap().accuracy, log.final_accuracy);
    // 7 does not: the final pass is the curve's last point.
    let (log, evals, _) = train(7, None);
    assert_eq!(steps(&log.records), [0, 7, 14, 20]);
    assert_eq!(evals, 4);
    assert_eq!(log.records.last().unwrap().accuracy, log.final_accuracy);
}

#[test]
fn a_reached_target_ends_the_curve() {
    let (full, _, _) = train(2, None);
    // The first point at the curve's best accuracy, before the last step.
    let best = full
        .records
        .iter()
        .filter_map(|r| r.accuracy)
        .fold(f32::NEG_INFINITY, f32::max);
    let at = full
        .records
        .iter()
        .position(|r| r.accuracy == Some(best))
        .unwrap();
    assert!(full.records[at].step < MAX_STEPS, "{full:?}");

    let (cut, evals, _) = train(2, Some(best));
    assert_eq!(
        points(&cut.records),
        points(&full.records[..=at]),
        "no point after the target"
    );
    // The curve's points, then the final accuracy after the last step.
    assert_eq!(evals, at as u64 + 2);
    assert_eq!(cut.final_accuracy, full.final_accuracy);
    assert_eq!(cut.initial_accuracy, full.initial_accuracy);

    // A target the untrained network already meets: step 0 and the final
    // accuracy are all that is measured.
    let (log, evals, _) = train(2, Some(0.0));
    assert_eq!(steps(&log.records), [0]);
    assert_eq!(evals, 2);
    assert_eq!(log.final_accuracy, full.final_accuracy);
}

#[test]
fn every_measurement_runs_through_the_run_s_own_eval_plan() {
    // One train plan and one eval plan per run, however many points the
    // curve takes.
    for eval_every in [0, 1, 7] {
        let (log, evals, plans) = train(eval_every, None);
        assert!(evals >= 1, "{log:?}");
        assert_eq!(plans, 2, "eval_every {eval_every}: {evals} passes");
    }
}
