//! The deterministic fault-injection plan.

use serde::{Deserialize, Serialize};

use crate::error::FaultError;
use crate::hash::u01;

/// What kind of fault is injected when a plan fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The evaluator returns an error (a clean `Err`).
    EvalError,
    /// The evaluator panics (exercises the `catch_unwind` supervisors).
    EvalPanic,
    /// A block checkpoint is treated as corrupt/unusable at its use site.
    CorruptCheckpoint,
    /// The work completes but its cost is multiplied by `factor`
    /// (straggler modeling). At the distributed `cluster.task` site this
    /// stretches the task's wall time (heartbeats stay alive), which is
    /// what trips speculative re-execution.
    SlowWorker {
        /// Cost multiplier, e.g. `3.0` for a 3× slower worker.
        factor: f64,
    },
    /// The whole worker *process* dies instantly (`abort()`), mid-task:
    /// no result, no lease renewal, no cleanup. Only meaningful at the
    /// `cluster.task` site of the distributed runtime; the coordinator
    /// must reclaim the task via lease expiry.
    WorkerCrash,
    /// The worker process wedges for `millis` before its heartbeat starts,
    /// then completes the task late. Its lease expires meanwhile, the
    /// coordinator reclaims the task, and the late ("zombie") result must
    /// be rejected by fencing — this kind exists to prove exactly that.
    WorkerHang {
        /// How long the worker sleeps without heartbeating, in ms.
        millis: u64,
    },
}

impl FaultKind {
    /// A short stable label for events and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::EvalError => "eval_error",
            FaultKind::EvalPanic => "eval_panic",
            FaultKind::CorruptCheckpoint => "corrupt_checkpoint",
            FaultKind::SlowWorker { .. } => "slow_worker",
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::WorkerHang { .. } => "worker_hang",
        }
    }
}

/// An explicit `(site, key)` trigger: fires on the first `times` attempts
/// of that unit of work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trigger {
    /// Injection site (see [`crate::site`]).
    pub site: String,
    /// The unit-of-work key the trigger applies to; `None` matches every
    /// key at the site.
    pub key: Option<u64>,
    /// Injected fault.
    pub kind: FaultKind,
    /// Number of leading attempts that fail (default 1). A trigger with
    /// `times: 1` under a 2-attempt retry policy fails once and then
    /// recovers; `times >= max_attempts` exhausts the retries.
    pub times: Option<u32>,
}

impl Trigger {
    fn times(&self) -> u32 {
        self.times.unwrap_or(1)
    }
}

/// A per-site failure probability, drawn deterministically per key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteRate {
    /// Injection site (see [`crate::site`]).
    pub site: String,
    /// Injected fault.
    pub kind: FaultKind,
    /// Probability that a given key at this site is faulty. The draw is a
    /// pure function of `(plan seed, site, key)`, so the same plan yields
    /// the same set of faulty keys on every run and interleaving.
    pub probability: f64,
    /// Number of leading attempts that fail for a faulty key (default 1).
    pub times: Option<u32>,
}

impl SiteRate {
    fn times(&self) -> u32 {
        self.times.unwrap_or(1)
    }
}

/// A deterministic, seeded fault-injection schedule.
///
/// Explicit [`Trigger`]s are checked first, then [`SiteRate`]s. All
/// decisions are pure functions of the plan contents, so a plan is safe to
/// share across worker threads and replays identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the probabilistic draws.
    pub seed: u64,
    /// Explicit `(site, key)` triggers.
    pub triggers: Vec<Trigger>,
    /// Per-site probabilistic failure rates.
    pub rates: Vec<SiteRate>,
}

impl FaultPlan {
    /// An empty plan that never fires.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            triggers: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Whether the plan can ever fire.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty() && self.rates.is_empty()
    }

    /// Parses a plan from its JSON form, e.g.
    ///
    /// ```json
    /// {"seed": 1,
    ///  "triggers": [{"site":"explore.eval","key":3,"kind":"EvalPanic","times":1}],
    ///  "rates":    [{"site":"explore.eval","kind":"EvalError","probability":0.05}]}
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Plan`] on malformed JSON.
    pub fn parse(json: &str) -> Result<Self, FaultError> {
        let plan: FaultPlan =
            serde_json::from_str(json).map_err(|e| FaultError::Plan(e.to_string()))?;
        plan.validate()?;
        Ok(plan)
    }

    /// Loads a plan from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Plan`] on I/O or parse failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, FaultError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| FaultError::Plan(format!("cannot read `{}`: {e}", path.display())))?;
        Self::parse(&text)
    }

    fn validate(&self) -> Result<(), FaultError> {
        for r in &self.rates {
            if !(0.0..=1.0).contains(&r.probability) {
                return Err(FaultError::Plan(format!(
                    "probability {} at site `{}` is outside [0, 1]",
                    r.probability, r.site
                )));
            }
        }
        for t in self.triggers.iter().map(|t| (&t.site, &t.kind)) {
            if let (_, FaultKind::SlowWorker { factor }) = t {
                if *factor < 1.0 {
                    return Err(FaultError::Plan(format!(
                        "slow-worker factor {factor} must be >= 1"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checks whether a fault fires for `attempt` (1-based) of the unit of
    /// work `key` at `site`. Emits a `fault.injected` event and bumps the
    /// `fault.injections` counter when it does.
    pub fn fire(&self, site: &str, key: u64, attempt: u32) -> Option<FaultKind> {
        let kind = self
            .triggers
            .iter()
            .find(|t| t.site == site && t.key.is_none_or(|k| k == key) && attempt <= t.times())
            .map(|t| t.kind.clone())
            .or_else(|| {
                self.rates
                    .iter()
                    .find(|r| {
                        r.site == site
                            && attempt <= r.times()
                            && u01(self.seed, &r.site, key) < r.probability
                    })
                    .map(|r| r.kind.clone())
            })?;
        wootz_obs::counter("fault.injections").incr();
        wootz_obs::event("fault.injected")
            .field("site", site)
            .field("key", key as usize)
            .field("attempt", attempt as usize)
            .field("kind", kind.label())
            .emit();
        Some(kind)
    }

    /// Convenience for call sites holding an `Option<&FaultPlan>`.
    pub fn fire_opt(
        plan: Option<&FaultPlan>,
        site: &str,
        key: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        plan.and_then(|p| p.fire(site, key, attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site;

    #[test]
    fn triggers_fire_for_leading_attempts_only() {
        let plan = FaultPlan {
            seed: 0,
            triggers: vec![Trigger {
                site: site::EXPLORE_EVAL.into(),
                key: Some(3),
                kind: FaultKind::EvalError,
                times: Some(2),
            }],
            rates: vec![],
        };
        assert_eq!(
            plan.fire(site::EXPLORE_EVAL, 3, 1),
            Some(FaultKind::EvalError)
        );
        assert_eq!(
            plan.fire(site::EXPLORE_EVAL, 3, 2),
            Some(FaultKind::EvalError)
        );
        assert_eq!(plan.fire(site::EXPLORE_EVAL, 3, 3), None, "retry recovers");
        assert_eq!(plan.fire(site::EXPLORE_EVAL, 4, 1), None, "other key");
        assert_eq!(plan.fire(site::PRETRAIN_GROUP, 3, 1), None, "other site");
    }

    #[test]
    fn wildcard_key_matches_everything() {
        let plan = FaultPlan {
            seed: 0,
            triggers: vec![Trigger {
                site: site::EXPLORE_EVAL.into(),
                key: None,
                kind: FaultKind::SlowWorker { factor: 2.0 },
                times: None,
            }],
            rates: vec![],
        };
        for key in [0u64, 7, 1000] {
            assert!(matches!(
                plan.fire(site::EXPLORE_EVAL, key, 1),
                Some(FaultKind::SlowWorker { .. })
            ));
        }
    }

    #[test]
    fn rates_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan {
            seed: 11,
            triggers: vec![],
            rates: vec![SiteRate {
                site: site::EXPLORE_EVAL.into(),
                kind: FaultKind::EvalError,
                probability: 0.2,
                times: None,
            }],
        };
        let fired: Vec<u64> = (0..1000)
            .filter(|&k| plan.fire(site::EXPLORE_EVAL, k, 1).is_some())
            .collect();
        let again: Vec<u64> = (0..1000)
            .filter(|&k| plan.fire(site::EXPLORE_EVAL, k, 1).is_some())
            .collect();
        assert_eq!(fired, again, "same plan, same schedule");
        assert!(
            (150..250).contains(&fired.len()),
            "~20% of keys fire, got {}",
            fired.len()
        );
        // A different seed fires a different subset.
        let other = FaultPlan { seed: 12, ..plan };
        let other_fired: Vec<u64> = (0..1000)
            .filter(|&k| other.fire(site::EXPLORE_EVAL, k, 1).is_some())
            .collect();
        assert_ne!(fired, other_fired);
    }

    #[test]
    fn parse_round_trips_and_validates() {
        let json = r#"{"seed":1,
            "triggers":[{"site":"explore.eval","key":3,"kind":"EvalPanic","times":1},
                        {"site":"assemble.block","key":0,"kind":"CorruptCheckpoint","times":null}],
            "rates":[{"site":"explore.eval","kind":{"SlowWorker":{"factor":3.0}},"probability":0.1,"times":1}]}"#;
        let plan = FaultPlan::parse(json).unwrap();
        assert_eq!(plan.triggers.len(), 2);
        assert_eq!(plan.rates.len(), 1);
        let back = serde_json::to_string(&plan).unwrap();
        assert_eq!(FaultPlan::parse(&back).unwrap(), plan);
        // Missing optional fields are tolerated.
        let sparse =
            r#"{"seed":0,"triggers":[{"site":"explore.eval","kind":"EvalError"}],"rates":[]}"#;
        assert_eq!(FaultPlan::parse(sparse).unwrap().triggers[0].times(), 1);
        // Bad probability rejected.
        assert!(FaultPlan::parse(
            r#"{"seed":0,"triggers":[],"rates":[{"site":"s","kind":"EvalError","probability":1.5}]}"#
        )
        .is_err());
    }
}
