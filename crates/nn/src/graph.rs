//! Computational graph representation and the shape-inferring builder.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wootz_tensor::init;
use wootz_tensor::ops::{Conv2dCfg, Pool2dCfg};
use wootz_tensor::Tensor;

use crate::var::VarStore;
use crate::{NnError, Result};

/// Identifier of a node within its [`Graph`]. Indices are assigned in
/// insertion order, which is also a topological order (the builder only
/// lets a node consume already-existing nodes).
pub type NodeId = usize;

/// The operation a graph node performs. Parameterized ops reference their
/// variables by name in the companion [`VarStore`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// External input placeholder.
    Input,
    /// 2-D convolution; `weight`/`bias` name the parameter tensors.
    Conv2d {
        /// Variable name of the filter tensor `[F, C, Kh, Kw]`.
        weight: String,
        /// Variable name of the bias tensor `[F]`.
        bias: String,
        /// Stride/padding.
        cfg: Conv2dCfg,
    },
    /// Per-channel batch normalization with learnable affine and running
    /// statistics buffers (used in [`crate::Mode::Eval`]).
    BatchNorm {
        /// Variable name of the scale `[C]`.
        gamma: String,
        /// Variable name of the shift `[C]`.
        beta: String,
        /// Variable name of the running mean `[C]` (non-trainable).
        mean: String,
        /// Variable name of the running variance `[C]` (non-trainable).
        var: String,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Rectified linear unit.
    Relu,
    /// Max pooling.
    MaxPool(Pool2dCfg),
    /// Average pooling.
    AvgPool(Pool2dCfg),
    /// Global average pooling (`[N,C,H,W] -> [N,C]`).
    GlobalAvgPool,
    /// Flattens `[N,C,H,W] -> [N, C*H*W]`.
    Flatten,
    /// Fully-connected layer.
    Dense {
        /// Variable name of the weight `[Out, In]`.
        weight: String,
        /// Variable name of the bias `[Out]`.
        bias: String,
    },
    /// Elementwise sum of all inputs (residual join).
    Add,
    /// Channel-axis concatenation of all inputs (Inception join).
    Concat,
    /// Identity forward; blocks gradient flow backward. Wootz inserts this
    /// between the frozen teacher's activations and a pruned tuning block's
    /// input so pre-training never back-propagates into the teacher.
    StopGradient,
}

impl Op {
    /// Short lowercase operation name, used in diagnostics and codegen.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv2d { .. } => "conv2d",
            Op::BatchNorm { .. } => "batch_norm",
            Op::Relu => "relu",
            Op::MaxPool(_) => "max_pool",
            Op::AvgPool(_) => "avg_pool",
            Op::GlobalAvgPool => "global_avg_pool",
            Op::Flatten => "flatten",
            Op::Dense { .. } => "dense",
            Op::Add => "add",
            Op::Concat => "concat",
            Op::StopGradient => "stop_gradient",
        }
    }
}

/// One graph node: a named operation applied to the outputs of `inputs`.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique node name (doubles as the TF-style scope for its parameters).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Producer nodes.
    pub inputs: Vec<NodeId>,
}

/// Per-node activation shape, ignoring the batch dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeShape {
    /// Convolutional activation `[C, H, W]`.
    Chw(usize, usize, usize),
    /// Flat feature vector `[D]`.
    Flat(usize),
}

impl NodeShape {
    /// Channel count of a convolutional shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] for flat shapes.
    pub fn channels(&self) -> Result<usize> {
        match self {
            NodeShape::Chw(c, _, _) => Ok(*c),
            NodeShape::Flat(_) => Err(NnError::Graph("expected a CHW activation".into())),
        }
    }

    /// Number of features per sample.
    pub fn features(&self) -> usize {
        match self {
            NodeShape::Chw(c, h, w) => c * h * w,
            NodeShape::Flat(d) => *d,
        }
    }
}

/// An immutable computational graph. Node IDs index [`Graph::nodes`] and are
/// topologically ordered.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    shapes: Vec<NodeShape>,
}

impl Graph {
    /// The graph's nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with the given ID.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The inferred activation shape (per sample) of a node.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn shape(&self, id: NodeId) -> NodeShape {
        self.shapes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }
}

/// Builds a [`Graph`] and its [`VarStore`] together, inferring activation
/// shapes and initializing parameters as layers are added.
///
/// Layer-adding methods return the new [`NodeId`] so construction reads like
/// the TF-Slim code the Wootz compiler generates:
///
/// ```
/// # use wootz_nn::GraphBuilder;
/// # fn main() -> Result<(), wootz_nn::NnError> {
/// let mut b = GraphBuilder::new(0);
/// let x = b.input("data", (3, 16, 16));
/// let c = b.conv2d("net/conv1", x, 8, 3, 1, 1)?;
/// let r = b.relu("net/relu1", c)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
    vars: VarStore,
    rng: ChaCha8Rng,
}

impl GraphBuilder {
    /// Starts an empty builder whose parameter initialization is driven by
    /// the given seed (construction is fully deterministic).
    pub fn new(seed: u64) -> Self {
        GraphBuilder {
            graph: Graph::default(),
            vars: VarStore::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Finishes construction, returning the graph and its variables.
    pub fn finish(self) -> (Graph, VarStore) {
        (self.graph, self.vars)
    }

    /// Read-only view of the graph built so far.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Read-only view of the variables registered so far.
    pub fn vars(&self) -> &VarStore {
        &self.vars
    }

    fn push(
        &mut self,
        name: &str,
        op: Op,
        inputs: Vec<NodeId>,
        shape: NodeShape,
    ) -> Result<NodeId> {
        if self.graph.find(name).is_some() {
            return Err(NnError::Graph(format!("duplicate node name `{name}`")));
        }
        for &i in &inputs {
            if i >= self.graph.nodes.len() {
                return Err(NnError::Graph(format!(
                    "node `{name}` references unknown input {i}"
                )));
            }
        }
        self.graph.nodes.push(Node {
            name: name.to_string(),
            op,
            inputs,
        });
        self.graph.shapes.push(shape);
        Ok(self.graph.nodes.len() - 1)
    }

    fn chw(&self, id: NodeId, ctx: &str) -> Result<(usize, usize, usize)> {
        match self.graph.shapes.get(id) {
            Some(NodeShape::Chw(c, h, w)) => Ok((*c, *h, *w)),
            Some(NodeShape::Flat(_)) => Err(NnError::Graph(format!(
                "{ctx}: input `{}` is flat, need CHW",
                self.graph.nodes[id].name
            ))),
            None => Err(NnError::Graph(format!("{ctx}: unknown input node {id}"))),
        }
    }

    /// Adds an external input placeholder with per-sample shape `(c, h, w)`.
    pub fn input(&mut self, name: &str, (c, h, w): (usize, usize, usize)) -> NodeId {
        self.push(name, Op::Input, vec![], NodeShape::Chw(c, h, w))
            .expect("input construction cannot fail on a fresh name")
    }

    /// Adds a convolution with `filters` output channels, square kernel
    /// `kernel`, and the given stride/padding. Registers
    /// `{name}/weight` (Kaiming-normal) and `{name}/bias` (zeros).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] on bad wiring (flat input, kernel larger
    /// than padded input, duplicate names).
    pub fn conv2d(
        &mut self,
        name: &str,
        input: NodeId,
        filters: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId> {
        let (c, h, w) = self.chw(input, "conv2d")?;
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Err(NnError::Graph(format!(
                "conv2d `{name}`: kernel {kernel} does not fit {h}x{w} input with pad {pad}"
            )));
        }
        if filters == 0 {
            return Err(NnError::Graph(format!("conv2d `{name}`: zero filters")));
        }
        let weight = format!("{name}/weight");
        let bias = format!("{name}/bias");
        self.vars.register(
            &weight,
            init::kaiming_normal(&mut self.rng, &[filters, c, kernel, kernel]),
            true,
            true,
        )?;
        self.vars
            .register(&bias, Tensor::zeros(&[filters]), true, false)?;
        let cfg = Conv2dCfg { stride, pad };
        let ho = wootz_tensor::ops::conv2d_out_dim(h, kernel, stride, pad);
        let wo = wootz_tensor::ops::conv2d_out_dim(w, kernel, stride, pad);
        self.push(
            name,
            Op::Conv2d { weight, bias, cfg },
            vec![input],
            NodeShape::Chw(filters, ho, wo),
        )
    }

    /// Adds batch normalization over the channel axis. Registers
    /// `{name}/gamma`, `{name}/beta` (trainable) and `{name}/moving_mean`,
    /// `{name}/moving_variance` (running statistics, non-trainable).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] when the input is not convolutional.
    pub fn batch_norm(&mut self, name: &str, input: NodeId) -> Result<NodeId> {
        let (c, h, w) = self.chw(input, "batch_norm")?;
        let gamma = format!("{name}/gamma");
        let beta = format!("{name}/beta");
        let mean = format!("{name}/moving_mean");
        let var = format!("{name}/moving_variance");
        self.vars
            .register(&gamma, Tensor::ones(&[c]), true, false)?;
        self.vars
            .register(&beta, Tensor::zeros(&[c]), true, false)?;
        self.vars
            .register(&mean, Tensor::zeros(&[c]), false, false)?;
        self.vars.register(&var, Tensor::ones(&[c]), false, false)?;
        self.push(
            name,
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                eps: 1e-3,
            },
            vec![input],
            NodeShape::Chw(c, h, w),
        )
    }

    /// Adds a ReLU activation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] on duplicate names or bad inputs.
    pub fn relu(&mut self, name: &str, input: NodeId) -> Result<NodeId> {
        let shape = *self
            .graph
            .shapes
            .get(input)
            .ok_or_else(|| NnError::Graph(format!("relu `{name}`: unknown input {input}")))?;
        self.push(name, Op::Relu, vec![input], shape)
    }

    /// Adds max pooling.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] on bad wiring.
    pub fn max_pool(
        &mut self,
        name: &str,
        input: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId> {
        let (c, h, w) = self.chw(input, "max_pool")?;
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Err(NnError::Graph(format!(
                "max_pool `{name}`: window does not fit"
            )));
        }
        let cfg = Pool2dCfg {
            kernel,
            stride,
            pad,
        };
        let ho = wootz_tensor::ops::conv2d_out_dim(h, kernel, stride, pad);
        let wo = wootz_tensor::ops::conv2d_out_dim(w, kernel, stride, pad);
        self.push(
            name,
            Op::MaxPool(cfg),
            vec![input],
            NodeShape::Chw(c, ho, wo),
        )
    }

    /// Adds average pooling.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] on bad wiring.
    pub fn avg_pool(
        &mut self,
        name: &str,
        input: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId> {
        let (c, h, w) = self.chw(input, "avg_pool")?;
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Err(NnError::Graph(format!(
                "avg_pool `{name}`: window does not fit"
            )));
        }
        let cfg = Pool2dCfg {
            kernel,
            stride,
            pad,
        };
        let ho = wootz_tensor::ops::conv2d_out_dim(h, kernel, stride, pad);
        let wo = wootz_tensor::ops::conv2d_out_dim(w, kernel, stride, pad);
        self.push(
            name,
            Op::AvgPool(cfg),
            vec![input],
            NodeShape::Chw(c, ho, wo),
        )
    }

    /// Adds global average pooling, yielding a flat `[C]` feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] on bad wiring.
    pub fn global_avg_pool(&mut self, name: &str, input: NodeId) -> Result<NodeId> {
        let (c, _, _) = self.chw(input, "global_avg_pool")?;
        self.push(name, Op::GlobalAvgPool, vec![input], NodeShape::Flat(c))
    }

    /// Adds an explicit flatten.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] on bad wiring.
    pub fn flatten(&mut self, name: &str, input: NodeId) -> Result<NodeId> {
        let shape =
            *self.graph.shapes.get(input).ok_or_else(|| {
                NnError::Graph(format!("flatten `{name}`: unknown input {input}"))
            })?;
        self.push(
            name,
            Op::Flatten,
            vec![input],
            NodeShape::Flat(shape.features()),
        )
    }

    /// Adds a fully-connected layer with `units` outputs. Registers
    /// `{name}/weight` (Xavier-uniform) and `{name}/bias` (zeros). Accepts a
    /// flat input (use [`GraphBuilder::flatten`] or
    /// [`GraphBuilder::global_avg_pool`] first).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] when the input is convolutional.
    pub fn dense(&mut self, name: &str, input: NodeId, units: usize) -> Result<NodeId> {
        let d = match self.graph.shapes.get(input) {
            Some(NodeShape::Flat(d)) => *d,
            Some(NodeShape::Chw(..)) => {
                return Err(NnError::Graph(format!(
                    "dense `{name}`: input must be flattened first"
                )))
            }
            None => {
                return Err(NnError::Graph(format!(
                    "dense `{name}`: unknown input {input}"
                )))
            }
        };
        if units == 0 {
            return Err(NnError::Graph(format!("dense `{name}`: zero units")));
        }
        let weight = format!("{name}/weight");
        let bias = format!("{name}/bias");
        self.vars.register(
            &weight,
            init::xavier_uniform(&mut self.rng, &[units, d]),
            true,
            true,
        )?;
        self.vars
            .register(&bias, Tensor::zeros(&[units]), true, false)?;
        self.push(
            name,
            Op::Dense { weight, bias },
            vec![input],
            NodeShape::Flat(units),
        )
    }

    /// Adds an elementwise sum of all `inputs` (a residual join).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] when shapes differ or fewer than two
    /// inputs are given.
    pub fn add(&mut self, name: &str, inputs: &[NodeId]) -> Result<NodeId> {
        if inputs.len() < 2 {
            return Err(NnError::Graph(format!(
                "add `{name}`: needs at least two inputs"
            )));
        }
        let first = *self
            .graph
            .shapes
            .get(inputs[0])
            .ok_or_else(|| NnError::Graph(format!("add `{name}`: unknown input")))?;
        for &i in &inputs[1..] {
            let s = *self
                .graph
                .shapes
                .get(i)
                .ok_or_else(|| NnError::Graph(format!("add `{name}`: unknown input")))?;
            if s != first {
                return Err(NnError::Graph(format!(
                    "add `{name}`: mismatched input shapes {first:?} vs {s:?}"
                )));
            }
        }
        self.push(name, Op::Add, inputs.to_vec(), first)
    }

    /// Adds a channel-axis concatenation of all `inputs` (Inception join).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] when spatial sizes differ or fewer than
    /// two inputs are given.
    pub fn concat(&mut self, name: &str, inputs: &[NodeId]) -> Result<NodeId> {
        if inputs.len() < 2 {
            return Err(NnError::Graph(format!(
                "concat `{name}`: needs at least two inputs"
            )));
        }
        let (c0, h0, w0) = self.chw(inputs[0], "concat")?;
        let mut total_c = c0;
        for &i in &inputs[1..] {
            let (c, h, w) = self.chw(i, "concat")?;
            if (h, w) != (h0, w0) {
                return Err(NnError::Graph(format!(
                    "concat `{name}`: spatial mismatch {h0}x{w0} vs {h}x{w}"
                )));
            }
            total_c += c;
        }
        self.push(
            name,
            Op::Concat,
            inputs.to_vec(),
            NodeShape::Chw(total_c, h0, w0),
        )
    }

    /// Adds a gradient barrier (identity forward, zero backward).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] on bad wiring.
    pub fn stop_gradient(&mut self, name: &str, input: NodeId) -> Result<NodeId> {
        let shape = *self.graph.shapes.get(input).ok_or_else(|| {
            NnError::Graph(format!("stop_gradient `{name}`: unknown input {input}"))
        })?;
        self.push(name, Op::StopGradient, vec![input], shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_flow_through_a_small_cnn() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (3, 16, 16));
        let c1 = b.conv2d("c1", x, 8, 3, 1, 1).unwrap();
        assert_eq!(b.graph().shape(c1), NodeShape::Chw(8, 16, 16));
        let p = b.max_pool("p1", c1, 2, 2, 0).unwrap();
        assert_eq!(b.graph().shape(p), NodeShape::Chw(8, 8, 8));
        let g = b.global_avg_pool("gap", p).unwrap();
        assert_eq!(b.graph().shape(g), NodeShape::Flat(8));
        let d = b.dense("fc", g, 10).unwrap();
        assert_eq!(b.graph().shape(d), NodeShape::Flat(10));
    }

    #[test]
    fn parameters_are_registered_with_scoped_names() {
        let mut b = GraphBuilder::new(1);
        let x = b.input("data", (3, 8, 8));
        b.conv2d("net/conv1", x, 4, 3, 1, 1).unwrap();
        assert!(b.vars().contains("net/conv1/weight"));
        assert!(b.vars().contains("net/conv1/bias"));
        assert_eq!(
            b.vars().value("net/conv1/weight").unwrap().shape(),
            &[4, 3, 3, 3]
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (1, 4, 4));
        b.relu("r", x).unwrap();
        assert!(b.relu("r", x).is_err());
    }

    #[test]
    fn dense_requires_flat_input() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (1, 4, 4));
        assert!(b.dense("fc", x, 10).is_err());
        let f = b.flatten("flat", x).unwrap();
        assert_eq!(b.graph().shape(f), NodeShape::Flat(16));
        assert!(b.dense("fc", f, 10).is_ok());
    }

    #[test]
    fn add_validates_shapes() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (2, 4, 4));
        let c1 = b.conv2d("c1", x, 2, 3, 1, 1).unwrap();
        let c2 = b.conv2d("c2", x, 2, 3, 1, 1).unwrap();
        let c3 = b.conv2d("c3", x, 3, 3, 1, 1).unwrap();
        assert!(b.add("ok", &[c1, c2]).is_ok());
        assert!(b.add("bad", &[c1, c3]).is_err());
        assert!(b.add("single", &[c1]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (2, 4, 4));
        let c1 = b.conv2d("c1", x, 2, 1, 1, 0).unwrap();
        let c2 = b.conv2d("c2", x, 5, 1, 1, 0).unwrap();
        let cat = b.concat("cat", &[c1, c2]).unwrap();
        assert_eq!(b.graph().shape(cat), NodeShape::Chw(7, 4, 4));
    }

    #[test]
    fn batch_norm_registers_running_stats() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (3, 4, 4));
        b.batch_norm("bn", x).unwrap();
        assert!(b.vars().contains("bn/gamma"));
        assert!(b.vars().contains("bn/moving_mean"));
        // Running stats must be frozen.
        let frozen = b
            .vars()
            .iter()
            .find(|(n, _)| *n == "bn/moving_mean")
            .unwrap()
            .1;
        assert!(!frozen.trainable);
    }

    #[test]
    fn oversized_kernel_rejected() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (1, 2, 2));
        assert!(b.conv2d("c", x, 1, 5, 1, 0).is_err());
        assert!(b.max_pool("p", x, 5, 1, 0).is_err());
    }

    #[test]
    fn find_locates_nodes_by_name() {
        let mut b = GraphBuilder::new(0);
        let x = b.input("data", (1, 2, 2));
        b.relu("act", x).unwrap();
        let (g, _) = b.finish();
        assert_eq!(g.find("act"), Some(1));
        assert_eq!(g.find("nope"), None);
        assert_eq!(g.len(), 2);
    }
}
