//! Training meta data, in the style of Caffe Solver Prototxt (the paper's
//! fourth input: "the dataset for training and testing, along with some meta
//! data on the training (e.g., learning rates, maximum training steps)").

use serde::{Deserialize, Serialize};

use crate::prototxt;
use crate::{IrError, Result};

/// Parsed training configuration.
///
/// Field names follow Caffe's solver prototxt where an equivalent exists
/// (`base_lr`, `max_iter`, `weight_decay`, `momentum`); Wootz-specific
/// fields cover block pre-training and distributed exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Dataset identifier (e.g. `"cub200"`).
    pub dataset: String,
    /// Learning rate for global fine-tuning / baseline training.
    pub base_lr: f32,
    /// Maximum fine-tuning steps.
    pub max_iter: usize,
    /// L2 weight decay for fine-tuning.
    pub weight_decay: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for tuning-block pre-training.
    pub pretrain_lr: f32,
    /// Steps of tuning-block pre-training.
    pub pretrain_iter: usize,
    /// Weight decay during pre-training.
    pub pretrain_weight_decay: f32,
    /// Learning-rate policy: `"fixed"` (the paper's setting), `"step"`
    /// (decay by `lr_gamma` every `lr_step` iterations) or `"cosine"`.
    pub lr_policy: String,
    /// Step interval for the `"step"` policy.
    pub lr_step: usize,
    /// Decay factor for the `"step"` policy.
    pub lr_gamma: f32,
    /// Spacing, in steps, of the accuracy curve a fine-tune records under
    /// an `Accuracy >= thr` objective bound (0 = every step). The curve
    /// starts at step 0 and ends at its first point at or above `thr`,
    /// which is the evaluation's cost; it is all the `log` of an `Eval`
    /// journal record and of `--out` holds besides the final accuracy.
    /// Without an `Accuracy` bound no curve is recorded and this value has
    /// no effect; the full model never records one.
    pub eval_every: usize,
    /// Number of worker machines for concurrent exploration.
    pub num_workers: usize,
    /// RNG seed for the whole pipeline.
    pub seed: u64,
}

impl Default for SolverConfig {
    /// Micro-scale defaults proportioned like the paper's meta data
    /// (§7.1): fine-tuning has more steps and a smaller learning rate than
    /// block pre-training.
    fn default() -> Self {
        SolverConfig {
            dataset: "synthetic".into(),
            base_lr: 0.05,
            max_iter: 300,
            weight_decay: 1e-5,
            momentum: 0.9,
            batch_size: 16,
            pretrain_lr: 0.2,
            pretrain_iter: 100,
            pretrain_weight_decay: 1e-4,
            lr_policy: "fixed".into(),
            lr_step: 0,
            lr_gamma: 0.1,
            eval_every: 20,
            num_workers: 1,
            seed: 0,
        }
    }
}

impl SolverConfig {
    /// Parses a solver configuration from Prototxt-style text. Unknown keys
    /// are rejected so typos surface immediately.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] — carrying the offending source line — on syntax
    /// errors, unknown keys, mistyped values, or non-positive required
    /// values.
    pub fn parse(text: &str) -> Result<Self> {
        let msg = prototxt::parse(text)?;
        let mut cfg = SolverConfig::default();
        for (key, field, line) in msg.fields_at() {
            let at = |what: String| match line {
                Some(l) => IrError::at_line(l, what),
                None => IrError::new(what),
            };
            let scalar = match field {
                prototxt::Field::Scalar(v) => v,
                prototxt::Field::Message(_) => {
                    return Err(at(format!("solver key `{key}` cannot be a message")))
                }
            };
            let num = scalar.as_num();
            let need_num = || num.ok_or_else(|| at(format!("solver key `{key}` needs a number")));
            match key {
                "dataset" => {
                    cfg.dataset = scalar
                        .as_str()
                        .ok_or_else(|| at("`dataset` needs a string".to_string()))?
                        .to_string();
                }
                "base_lr" => cfg.base_lr = need_num()? as f32,
                "max_iter" => cfg.max_iter = need_num()? as usize,
                "weight_decay" => cfg.weight_decay = need_num()? as f32,
                "momentum" => cfg.momentum = need_num()? as f32,
                "batch_size" => cfg.batch_size = need_num()? as usize,
                "pretrain_lr" => cfg.pretrain_lr = need_num()? as f32,
                "pretrain_iter" => cfg.pretrain_iter = need_num()? as usize,
                "pretrain_weight_decay" => cfg.pretrain_weight_decay = need_num()? as f32,
                "lr_policy" => {
                    cfg.lr_policy = scalar
                        .as_str()
                        .or_else(|| scalar.as_ident())
                        .ok_or_else(|| at("`lr_policy` needs a string".to_string()))?
                        .to_string();
                }
                "lr_step" => cfg.lr_step = need_num()? as usize,
                "lr_gamma" => cfg.lr_gamma = need_num()? as f32,
                "eval_every" => cfg.eval_every = need_num()? as usize,
                "num_workers" => cfg.num_workers = need_num()? as usize,
                "seed" => cfg.seed = need_num()? as u64,
                other => return Err(at(format!("unknown solver key `{other}`"))),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(IrError::new("batch_size must be positive"));
        }
        if self.base_lr <= 0.0 || self.pretrain_lr <= 0.0 {
            return Err(IrError::new("learning rates must be positive"));
        }
        if self.num_workers == 0 {
            return Err(IrError::new("num_workers must be positive"));
        }
        match self.lr_policy.as_str() {
            "fixed" | "cosine" => {}
            "step" => {
                if self.lr_step == 0 {
                    return Err(IrError::new("lr_policy \"step\" needs a positive lr_step"));
                }
            }
            other => {
                return Err(IrError::new(format!(
                    "unknown lr_policy `{other}` (expected fixed, step or cosine)"
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_overrides_and_keeps_defaults() {
        let cfg = SolverConfig::parse(
            "dataset: \"cub200\"\nbase_lr: 0.001\nmax_iter: 30000\nbatch_size: 32\nseed: 7",
        )
        .unwrap();
        assert_eq!(cfg.dataset, "cub200");
        assert_eq!(cfg.base_lr, 0.001);
        assert_eq!(cfg.max_iter, 30000);
        assert_eq!(cfg.batch_size, 32);
        assert_eq!(cfg.seed, 7);
        // Untouched fields keep defaults.
        assert_eq!(cfg.momentum, SolverConfig::default().momentum);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = SolverConfig::parse("learning_rate: 0.1").unwrap_err();
        assert!(err.to_string().contains("unknown solver key"), "{err}");
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(SolverConfig::parse("batch_size: 0").is_err());
        assert!(SolverConfig::parse("base_lr: -1").is_err());
        assert!(SolverConfig::parse("num_workers: 0").is_err());
        assert!(SolverConfig::parse("dataset: 42").is_err());
        assert!(SolverConfig::parse("base_lr: \"high\"").is_err());
    }

    #[test]
    fn empty_text_gives_defaults() {
        assert_eq!(SolverConfig::parse("").unwrap(), SolverConfig::default());
    }

    #[test]
    fn lr_policies_parse_and_validate() {
        let cfg = SolverConfig::parse("lr_policy: \"step\"\nlr_step: 100\nlr_gamma: 0.5").unwrap();
        assert_eq!(cfg.lr_policy, "step");
        assert_eq!(cfg.lr_step, 100);
        assert_eq!(cfg.lr_gamma, 0.5);
        assert!(SolverConfig::parse("lr_policy: \"cosine\"").is_ok());
        assert!(
            SolverConfig::parse("lr_policy: \"step\"").is_err(),
            "step needs lr_step"
        );
        assert!(SolverConfig::parse("lr_policy: \"exponential\"").is_err());
    }
}
