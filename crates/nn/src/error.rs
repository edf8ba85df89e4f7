use std::error::Error;
use std::fmt;

use wootz_tensor::ShapeError;

/// Errors raised by graph construction, execution, training or
/// checkpoint restore.
#[derive(Debug)]
pub enum NnError {
    /// A tensor-level shape violation.
    Shape(ShapeError),
    /// Graph construction or validation failure (unknown node, duplicate
    /// name, incompatible layer wiring).
    Graph(String),
    /// A named variable was missing or had the wrong shape.
    Var(String),
    /// Training produced a non-finite loss, gradient or weight (numerical
    /// divergence, e.g. an exploding learning rate). The training loop
    /// aborts at the step it happens, so a run that returns `Ok` — and any
    /// checkpoint captured from it — never contains NaN/Inf.
    Diverged {
        /// SGD step (0-based) at which the non-finite value appeared.
        step: usize,
        /// The training loss at that step (itself `NaN`/`Inf` when the
        /// loss is what tripped the guard).
        loss: f32,
        /// Name of the first variable with a non-finite gradient or value,
        /// when that is what tripped the guard.
        var: Option<String>,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Shape(e) => write!(f, "{e}"),
            NnError::Graph(m) => write!(f, "graph error: {m}"),
            NnError::Var(m) => write!(f, "variable error: {m}"),
            NnError::Diverged { step, loss, var } => match var {
                Some(name) => write!(
                    f,
                    "training diverged at step {step}: non-finite gradient in `{name}` (loss {loss})"
                ),
                None => write!(f, "training diverged at step {step}: non-finite loss {loss}"),
            },
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for NnError {
    fn from(e: ShapeError) -> Self {
        NnError::Shape(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NnError::Graph("node `x` unknown".into());
        assert!(e.to_string().contains("node `x` unknown"));
        let e: NnError = ShapeError::new("bad").into();
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<NnError>();
    }
}
