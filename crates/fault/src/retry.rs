//! Retry policies for supervised work loops.

use serde::{Deserialize, Serialize};

/// What a supervisor does when a unit of work exhausts its attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum OnExhausted {
    /// Record the failure, skip the unit, keep the run alive.
    Skip,
    /// Abort the whole run with a structured error (the default, as in
    /// [`RetryPolicy::default`]).
    #[default]
    Abort,
}

/// Retry policy: attempt budget plus exponential backoff measured in the
/// same abstract cost units as evaluation cost (wall-clock seconds for
/// real training, simulated hours in the cluster simulator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per unit of work (>= 1; 1 means no retry).
    pub max_attempts: u32,
    /// Backoff cost charged after the first failed attempt.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff for each further failed attempt.
    pub backoff_factor: f64,
    /// Action once every attempt failed.
    pub on_exhausted: OnExhausted,
}

impl Default for RetryPolicy {
    /// The pre-supervisor behavior: one attempt, no backoff, abort on
    /// failure. Runs without faults are bit-identical under this policy.
    fn default() -> Self {
        RetryPolicy::abort_fast()
    }
}

impl RetryPolicy {
    /// One attempt, abort on failure (the legacy semantics).
    pub fn abort_fast() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0.0,
            backoff_factor: 2.0,
            on_exhausted: OnExhausted::Abort,
        }
    }

    /// `max_attempts` attempts with unit exponential backoff, skipping the
    /// unit once exhausted — the recommended policy for long multi-node
    /// exploration runs.
    pub fn skip_after(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base: 1.0,
            backoff_factor: 2.0,
            on_exhausted: OnExhausted::Skip,
        }
    }

    /// The backoff cost charged after failed attempt `attempt` (1-based):
    /// `base * factor^(attempt-1)`.
    pub fn backoff_cost(&self, attempt: u32) -> f64 {
        if self.backoff_base == 0.0 {
            return 0.0;
        }
        self.backoff_base * self.backoff_factor.powi(attempt.saturating_sub(1) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_legacy_abort() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.on_exhausted, OnExhausted::Abort);
        assert_eq!(p.backoff_cost(1), 0.0);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff_base: 1.5,
            backoff_factor: 2.0,
            on_exhausted: OnExhausted::Skip,
        };
        assert_eq!(p.backoff_cost(1), 1.5);
        assert_eq!(p.backoff_cost(2), 3.0);
        assert_eq!(p.backoff_cost(3), 6.0);
    }

    #[test]
    fn skip_after_clamps_attempts() {
        assert_eq!(RetryPolicy::skip_after(0).max_attempts, 1);
        assert_eq!(RetryPolicy::skip_after(3).on_exhausted, OnExhausted::Skip);
    }
}
