//! CNN kernels with forward and reverse-mode backward implementations.
//!
//! Each kernel is a free function pair `op(...)` / `op_backward(...)`. The
//! backward functions take the forward inputs (and, where profitable, cached
//! forward intermediates) plus the upstream gradient, and return gradients
//! for every differentiable input. The `wootz-nn` graph engine threads these
//! through a topological traversal.
//!
//! All kernels are finite-difference checked in `tests/grad_check.rs` of this
//! crate.
//!
//! The heavyweight kernels (matmul variants, conv2d forward/backward, the
//! per-sample softmax cross-entropy) run on the `wootz-par` pool with
//! **deterministic** decompositions — disjoint output rows/samples, fixed
//! chunk boundaries, ordered merges — so every result is bit-identical to
//! the sequential kernel for any `--threads` value. See `PERFORMANCE.md` at
//! the repository root for the full contract.

mod activation;
mod bn;
mod conv;
mod dense;
mod eltwise;
mod loss;
mod matmul;
pub(crate) mod metering;
mod pool;

pub use activation::{relu, relu_backward, relu_backward_into, relu_into};
pub use bn::{
    batch_norm, batch_norm_apply_into, batch_norm_backward, batch_norm_backward_into,
    batch_stats_into, BnCache,
};
pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_into, conv2d_into, conv2d_out_dim, Conv2dCfg,
    Conv2dGrads,
};
pub use dense::{dense, dense_backward, dense_backward_into, dense_into, DenseGrads};
pub use eltwise::{add_n, add_n_backward, add_n_into};
pub use loss::{
    mse_loss, mse_loss_backward, mse_loss_backward_into, softmax_cross_entropy,
    softmax_cross_entropy_into, SoftmaxCeOutput,
};
#[doc(hidden)]
pub use matmul::force_kernel_level;
pub use matmul::{kernel_level, matmul, try_matmul, KernelLevel};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_backward_into, avg_pool2d_into, global_avg_pool,
    global_avg_pool_backward, global_avg_pool_backward_into, global_avg_pool_into, max_pool2d,
    max_pool2d_backward, max_pool2d_backward_into, max_pool2d_into, Pool2dCfg,
};
