//! # wootz-nn
//!
//! A compact, deterministic neural-network graph engine built on
//! [`wootz_tensor`]: directed acyclic graphs of CNN operations with shape
//! inference at construction time, reverse-mode backpropagation, SGD
//! training, named parameters and TensorFlow-checkpoint-style persistence.
//!
//! The engine plays the role TensorFlow + Slim play in the Wootz paper:
//! the Wootz compiler (`wootz-core`) lowers a Prototxt model description to
//! a [`Graph`] via [`GraphBuilder`], and the pre-training/fine-tuning
//! drivers compile it once into a [`CompiledNet`] and run every step
//! through that planned executor (see [`plan`]). The interpreter —
//! [`forward`]/[`backward`]/[`forward_eval`] — is the reference semantics
//! the planned executor is pinned against bit for bit; only tests call
//! it. Parameter names are hierarchical (`scope/layer/weight`), exactly
//! like TF variable scopes, so checkpoints can be re-targeted when tuning
//! blocks are assembled into pruned networks.
//!
//! ```
//! use wootz_nn::{GraphBuilder, Mode, forward};
//! use wootz_tensor::Tensor;
//!
//! # fn main() -> Result<(), wootz_nn::NnError> {
//! let mut b = GraphBuilder::new(7);
//! let x = b.input("data", (1, 8, 8));
//! let c = b.conv2d("conv1", x, 4, 3, 1, 1)?;
//! let r = b.relu("relu1", c)?;
//! let p = b.global_avg_pool("pool", r)?;
//! let y = b.dense("logits", p, 10)?;
//! let (graph, mut vars) = b.finish();
//!
//! let batch = wootz_tensor::Tensor::zeros(&[2, 1, 8, 8]);
//! let pass = forward(&graph, &mut vars, &[("data", &batch)], Mode::Eval)?;
//! assert_eq!(pass.activation(y).shape(), &[2, 10]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod checkpoint;
pub mod dot;
mod error;
mod exec;
mod graph;
pub mod plan;
mod trainer;
mod var;

pub use checkpoint::Checkpoint;
pub use error::NnError;
pub use exec::{backward, forward, forward_eval, sgd_step, zero_grads, ForwardPass, Mode};
pub use graph::{Graph, GraphBuilder, Node, NodeId, NodeShape, Op};
pub use plan::{
    planned_backward, planned_forward_eval, CompiledNet, ExecPlan, PlanState, SlotSpec,
};
pub use trainer::{
    evaluate_accuracy, train_classifier, EvalSet, LrSchedule, TrainConfig, TrainLog, TrainRecord,
};
pub use var::{Param, VarStore};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
