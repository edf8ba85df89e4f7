//! Execution planning: liveness analysis, arena-backed buffer reuse and the
//! planned executor.
//!
//! This is the executor every training and evaluation driver runs. The
//! reference interpreter ([`crate::forward`] / [`crate::backward`]) defines
//! its semantics: it interprets the graph node by node and allocates a fresh
//! tensor for every activation and gradient. This module *compiles* a
//! [`Graph`] into an [`ExecPlan`] — a static schedule of buffer lifetimes —
//! and then runs forward/backward passes against a
//! [`wootz_tensor::TensorArena`], recycling every tensor the moment its last
//! reader has run. After a warm-up pass the steady state performs **zero**
//! tensor allocations per training step.
//!
//! # Determinism contract
//!
//! The plan is a pure function of the graph (and the requested mode); it
//! never depends on the thread count, the batch contents or the arena's
//! allocation history. Every kernel invoked by the planned executor is the
//! `_into` body of the corresponding allocating kernel, and the arena zeroes
//! buffers on reuse, so a planned pass is **bit-identical** to the
//! interpreted pass for any `--threads` value. `tests/plan_equivalence.rs`
//! property-checks single passes on generated graphs; the trainer and
//! pre-training tests pin whole driver runs against an interpreter loop.
//!
//! # Liveness timeline
//!
//! For a graph of `n` nodes, position `p` of an event is:
//!
//! * forward computation of node `id` → `p = id`;
//! * backward step of node `id` (reverse topological walk) →
//!   `p = n + (n - 1 - id)`.
//!
//! An activation's interval starts at its defining node and ends at its last
//! read: the max over forward consumers and — in train mode, for consumers
//! whose backward re-reads input *data* (`Conv2d`, `Relu`, `Dense`) — the
//! consumer's backward position. Batch-norm backward reads only its cached
//! `x̂`/variance, and the pooling/reshape/concat backwards read only shapes,
//! so their inputs are *not* retained to backward. Output ("kept") nodes are
//! pinned for the whole pass and recycled at the start of the next one.
//!
//! # Slot coloring
//!
//! Buffer demand is summarized by greedy interval coloring over byte-size
//! classes ([`SlotSpec`]): intervals are sorted by start and each is placed
//! in a free slot of its class or opens a new one. Interval graphs are
//! perfect, so greedy-by-start uses exactly the clique number of each class
//! — the arena's peak live footprint equals the colored slot total.

use std::collections::BTreeMap;

use wootz_tensor::ops;
use wootz_tensor::{ArenaStats, Tensor, TensorArena};

use crate::exec::{EvalAccess, TrainAccess, VarAccess};
use crate::graph::{Graph, NodeId, NodeShape, Op};
use crate::var::VarStore;
use crate::{Mode, NnError, Result};

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

/// A byte-size class for slot coloring: tensors of `elems` f32 scalars,
/// either per batch sample (activations, gradients, `x̂`) or absolute
/// (per-channel batch statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotSpec {
    /// Scalars per unit (per sample when `per_sample`, total otherwise).
    pub elems: usize,
    /// Whether `elems` scales with the batch size.
    pub per_sample: bool,
}

/// Backward-walk position of node `id` in a graph of `n` nodes.
fn bwd_pos(n: usize, id: NodeId) -> usize {
    n + (n - 1 - id)
}

/// Whether `op`'s backward step re-reads its input *activation data* (as
/// opposed to cached side-state or shapes only).
fn backward_reads_input(op: &Op) -> bool {
    matches!(op, Op::Conv2d { .. } | Op::Relu | Op::Dense { .. })
}

/// A compiled execution schedule for one graph in one mode: buffer lifetimes
/// (release lists), the kept-output set and the slot coloring summary.
///
/// Build once with [`ExecPlan::for_train`] / [`ExecPlan::for_eval`] and
/// reuse across steps; the runtime state lives separately in [`PlanState`]
/// so one plan can serve many concurrent shards.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    mode: Mode,
    num_nodes: usize,
    /// `base[id]` chases `StopGradient` aliases to the node whose buffer
    /// actually holds the activation.
    base: Vec<NodeId>,
    /// Kept (output/metric) base nodes — never released mid-pass.
    keep: Vec<bool>,
    /// Activations to recycle after the forward step of node `p`.
    release_fwd: Vec<Vec<NodeId>>,
    /// Activations to recycle after the backward step of node `id`.
    release_bwd: Vec<Vec<NodeId>>,
    /// Slot coloring of all buffer intervals, one entry per slot.
    slots: Vec<SlotSpec>,
}

impl ExecPlan {
    /// Compiles a training plan: activations feeding `Conv2d`/`Relu`/`Dense`
    /// backwards are retained across the backward walk, batch-norm side
    /// state and gradient buffers are scheduled, and `outputs` are kept.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when an output id is out of range.
    pub fn for_train(graph: &Graph, outputs: &[NodeId]) -> Result<ExecPlan> {
        ExecPlan::build(graph, outputs, Mode::Train)
    }

    /// Compiles an evaluation plan: only `outputs` survive the pass; every
    /// other activation is recycled at its last forward read, and no
    /// batch-norm side state or gradients are scheduled at all.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when an output id is out of range.
    pub fn for_eval(graph: &Graph, outputs: &[NodeId]) -> Result<ExecPlan> {
        ExecPlan::build(graph, outputs, Mode::Eval)
    }

    fn build(graph: &Graph, outputs: &[NodeId], mode: Mode) -> Result<ExecPlan> {
        let n = graph.len();
        for &o in outputs {
            if o >= n {
                return Err(NnError::Graph(format!(
                    "exec plan output references unknown node {o}"
                )));
            }
        }
        let train = mode == Mode::Train;
        // The timeline horizon: one position past the last event.
        let horizon = if train { 2 * n } else { n };

        // Chase StopGradient aliases to the owning buffer. Inputs of a node
        // always precede it, so one forward sweep suffices.
        let mut base: Vec<NodeId> = (0..n).collect();
        for (id, node) in graph.nodes().iter().enumerate() {
            if matches!(node.op, Op::StopGradient) {
                base[id] = base[node.inputs[0]];
            }
        }

        let mut keep = vec![false; n];
        for &o in outputs {
            keep[base[o]] = true;
        }

        // Last use per *base* node, as a timeline position.
        let mut last: Vec<usize> = (0..n).collect();
        for (c, node) in graph.nodes().iter().enumerate() {
            let retain = train && backward_reads_input(&node.op);
            for &i in &node.inputs {
                let b = base[i];
                last[b] = last[b].max(c);
                if retain {
                    last[b] = last[b].max(bwd_pos(n, c));
                }
            }
        }
        for id in 0..n {
            if keep[id] {
                last[id] = horizon;
            }
        }

        // Release lists: positions in [0, n) land after a forward step,
        // positions in [n, 2n) after a backward step. Kept nodes (position
        // == horizon) appear in neither and are recycled by `reset_pass`.
        let mut release_fwd: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut release_bwd: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for id in 0..n {
            if base[id] != id || keep[id] {
                continue;
            }
            let p = last[id];
            if p < n {
                release_fwd[p].push(id);
            } else if p < horizon {
                release_bwd[n - 1 - (p - n)].push(id);
            }
        }

        // ---- interval items for slot coloring -----------------------------
        struct Item {
            start: usize,
            end: usize,
            spec: SlotSpec,
        }
        let mut items: Vec<Item> = Vec::new();
        for id in 0..n {
            if base[id] != id {
                continue; // aliases own no buffer
            }
            items.push(Item {
                start: id,
                end: last[id],
                spec: SlotSpec {
                    elems: graph.shape(id).features(),
                    per_sample: true,
                },
            });
        }
        if train {
            for (id, node) in graph.nodes().iter().enumerate() {
                if let Op::BatchNorm { .. } = node.op {
                    let c = graph.shape(id).channels()?;
                    let feat = graph.shape(id).features();
                    // Batch mean: recycled immediately after the running-
                    // stats fold at the BN node itself.
                    items.push(Item {
                        start: id,
                        end: id,
                        spec: SlotSpec {
                            elems: c,
                            per_sample: false,
                        },
                    });
                    // Batch variance and x̂ feed the backward step.
                    items.push(Item {
                        start: id,
                        end: bwd_pos(n, id),
                        spec: SlotSpec {
                            elems: c,
                            per_sample: false,
                        },
                    });
                    items.push(Item {
                        start: id,
                        end: bwd_pos(n, id),
                        spec: SlotSpec {
                            elems: feat,
                            per_sample: true,
                        },
                    });
                }
            }
            // Gradient buffers are indexed by *raw* node id (StopGradient
            // nodes accumulate and then drop their upstream gradient).
            let mut max_consumer: Vec<Option<NodeId>> = vec![None; n];
            for (c, node) in graph.nodes().iter().enumerate() {
                for &i in &node.inputs {
                    max_consumer[i] = Some(max_consumer[i].map_or(c, |m: NodeId| m.max(c)));
                }
            }
            for (id, mc) in max_consumer.iter().enumerate() {
                let seedable = outputs.contains(&id);
                let start = if seedable {
                    n // seeds are installed before the backward walk
                } else if let Some(mc) = mc {
                    bwd_pos(n, *mc)
                } else {
                    continue; // no consumers, never seeded: no gradient
                };
                items.push(Item {
                    start,
                    end: bwd_pos(n, id),
                    spec: SlotSpec {
                        elems: graph.shape(id).features(),
                        per_sample: true,
                    },
                });
            }
        }

        // ---- greedy interval coloring per size class ----------------------
        items.sort_by_key(|it| (it.start, it.end, it.spec));
        let mut slots: Vec<SlotSpec> = Vec::new();
        let mut free: BTreeMap<SlotSpec, Vec<usize>> = BTreeMap::new();
        let mut active: Vec<(usize, usize)> = Vec::new(); // (end, slot)
        for it in &items {
            let mut still = Vec::with_capacity(active.len());
            for (end, s) in active.drain(..) {
                if end < it.start {
                    free.entry(slots[s]).or_default().push(s);
                } else {
                    still.push((end, s));
                }
            }
            active = still;
            let s = match free.get_mut(&it.spec).and_then(|v| v.pop()) {
                Some(s) => s,
                None => {
                    slots.push(it.spec);
                    slots.len() - 1
                }
            };
            active.push((it.end, s));
        }

        wootz_obs::counter("plan.builds").incr();
        wootz_obs::gauge("plan.slots").set(slots.len() as f64);

        Ok(ExecPlan {
            mode,
            num_nodes: n,
            base,
            keep,
            release_fwd,
            release_bwd,
            slots,
        })
    }

    /// The mode this plan was compiled for.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of graph nodes the plan covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The buffer-owning node behind `id` (chases `StopGradient` aliases).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn base(&self, id: NodeId) -> NodeId {
        self.base[id]
    }

    /// Whether `id`'s buffer is pinned for the whole pass (an output node).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn is_kept(&self, id: NodeId) -> bool {
        self.keep[self.base[id]]
    }

    /// Number of colored buffer slots — the peak number of simultaneously
    /// live tensors of each size class, summed over classes.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Steady-state bytes the arena holds for a given batch size: the sum of
    /// all colored slots (f32 tensors).
    pub fn steady_bytes(&self, batch: usize) -> usize {
        self.slots
            .iter()
            .map(|s| 4 * s.elems * if s.per_sample { batch } else { 1 })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

/// Per-pass runtime state for the planned executor: the arena plus slot
/// tables for activations, batch-norm side state, gradients and max-pool
/// argmax indices. One `PlanState` serves one sequential stream of passes;
/// concurrent evaluation shards each build their own (cheap — the arena
/// starts empty and warms up on the first pass).
#[derive(Debug)]
pub struct PlanState {
    arena: TensorArena,
    batch: usize,
    acts: Vec<Option<Tensor>>,
    bn_var: Vec<Option<Tensor>>,
    bn_xhat: Vec<Option<Tensor>>,
    grads: Vec<Option<Tensor>>,
    argmax: Vec<Vec<usize>>,
}

impl PlanState {
    /// Fresh state sized for `graph`.
    pub fn new(graph: &Graph) -> PlanState {
        let n = graph.len();
        PlanState {
            arena: TensorArena::new(),
            batch: 0,
            acts: (0..n).map(|_| None).collect(),
            bn_var: (0..n).map(|_| None).collect(),
            bn_xhat: (0..n).map(|_| None).collect(),
            grads: (0..n).map(|_| None).collect(),
            argmax: vec![Vec::new(); n],
        }
    }

    /// Returns every live tensor to the arena. Runs at the start of each
    /// forward pass, which doubles as recovery if a previous pass errored
    /// mid-way: whatever it left live is recycled, never leaked.
    pub fn reset_pass(&mut self) {
        for table in [
            &mut self.acts,
            &mut self.bn_var,
            &mut self.bn_xhat,
            &mut self.grads,
        ] {
            for slot in table.iter_mut() {
                if let Some(t) = slot.take() {
                    self.arena.recycle(t);
                }
            }
        }
    }

    /// The activation of node `id` as of the last pass (aliases resolve to
    /// their base buffer).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the node's buffer is not live — it was
    /// released mid-pass (not in the plan's keep set) or no pass has run.
    pub fn activation(&self, plan: &ExecPlan, id: NodeId) -> Result<&Tensor> {
        if id >= self.acts.len() {
            return Err(NnError::Graph(format!("unknown node {id}")));
        }
        self.acts[plan.base(id)].as_ref().ok_or_else(|| {
            NnError::Graph(format!(
                "activation of node {id} is not live (released by the plan or never computed)"
            ))
        })
    }

    /// Snapshot of the arena counters (allocations, reuse, peak bytes).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Resets the arena counters without releasing the warm buffer pool.
    pub fn reset_arena_stats(&mut self) {
        self.arena.reset_stats();
    }

    /// Batch size of the last forward pass (0 before any pass).
    pub fn batch(&self) -> usize {
        self.batch
    }
}

/// `[N, ...]` runtime shape of node `id` for batch size `batch`.
fn runtime_shape(graph: &Graph, id: NodeId, batch: usize) -> Vec<usize> {
    match graph.shape(id) {
        NodeShape::Chw(c, h, w) => vec![batch, c, h, w],
        NodeShape::Flat(d) => vec![batch, d],
    }
}

/// Live activation lookup over the base-resolved slot table.
fn act<'a>(acts: &'a [Option<Tensor>], plan: &ExecPlan, id: NodeId) -> Result<&'a Tensor> {
    acts[plan.base(id)].as_ref().ok_or_else(|| {
        NnError::Graph(format!(
            "internal: activation of node {id} not live when read"
        ))
    })
}

/// Shape-agnostic gradient accumulate: `acc[i] += 1.0 * g[i]` over flat
/// data — the exact per-element operation of `Tensor::axpy(1.0, g)`, usable
/// when shapes differ but element counts match (`Flatten` backward).
fn axpy_flat(acc: &mut Tensor, g: &Tensor) {
    assert_eq!(acc.len(), g.len(), "axpy_flat length mismatch");
    for (a, &b) in acc.data_mut().iter_mut().zip(g.data().iter()) {
        *a += 1.0 * b;
    }
}

/// The buffer a `Conv2d`/`Dense` backward writes its input gradient into,
/// or `None` when that gradient would be discarded unread — the input is
/// the graph's `Input` or a `StopGradient` — so the kernel skips its `dx`
/// matmul altogether.
fn input_grad_buffer(graph: &Graph, state: &mut PlanState, ti: NodeId) -> Option<Tensor> {
    let dead = matches!(graph.node(ti).op, Op::Input | Op::StopGradient);
    (!dead).then(|| state.arena.take(&runtime_shape(graph, ti, state.batch)))
}

/// Hands a freshly computed input gradient `dx` to node `ti`: it becomes
/// the node's gradient buffer, or is added into the one already there (the
/// per-element `+= 1.0 * g` of `Tensor::axpy`) and recycled.
fn deposit_grad(state: &mut PlanState, ti: NodeId, dx: Tensor) {
    match &mut state.grads[ti] {
        Some(acc) => {
            axpy_flat(acc, &dx);
            state.arena.recycle(dx);
        }
        slot @ None => *slot = Some(dx),
    }
}

/// Axis-1 concatenation into a caller-provided buffer, laid out exactly like
/// `Tensor::concat_axis1` (row-major, per-sample part blocks in order).
fn concat_into(parts: &[&Tensor], out: &mut Tensor) {
    let n = out.shape()[0];
    let inner: usize = out.shape()[2..].iter().product();
    let total_c = out.shape()[1];
    let out_data = out.data_mut();
    for i0 in 0..n {
        let mut c0 = 0usize;
        for p in parts {
            let c = p.shape()[1];
            let src = &p.data()[i0 * c * inner..(i0 + 1) * c * inner];
            let dst_off = (i0 * total_c + c0) * inner;
            out_data[dst_off..dst_off + c * inner].copy_from_slice(src);
            c0 += c;
        }
    }
}

/// Copies the `[c0, c0 + w)` channel band of `dy` into `part` — the region
/// `Tensor::split_axis1` would have extracted.
fn concat_part_copy(dy: &Tensor, c0: usize, w: usize, part: &mut Tensor) {
    let n = dy.shape()[0];
    let total_c = dy.shape()[1];
    let inner: usize = dy.shape()[2..].iter().product();
    let src = dy.data();
    let dst = part.data_mut();
    for i0 in 0..n {
        let s = (i0 * total_c + c0) * inner;
        let d = i0 * w * inner;
        dst[d..d + w * inner].copy_from_slice(&src[s..s + w * inner]);
    }
}

/// Accumulates the `[c0, c0 + w)` channel band of `dy` into `acc` with the
/// same per-element `+= 1.0 * v` as `axpy(1.0, part)` on the split part.
fn concat_part_add(dy: &Tensor, c0: usize, w: usize, acc: &mut Tensor) {
    let n = dy.shape()[0];
    let total_c = dy.shape()[1];
    let inner: usize = dy.shape()[2..].iter().product();
    let src = dy.data();
    let dst = acc.data_mut();
    for i0 in 0..n {
        let s = (i0 * total_c + c0) * inner;
        let d = i0 * w * inner;
        for (a, &v) in dst[d..d + w * inner].iter_mut().zip(&src[s..s + w * inner]) {
            *a += 1.0 * v;
        }
    }
}

// ---------------------------------------------------------------------------
// Planned forward
// ---------------------------------------------------------------------------

pub(crate) fn planned_forward_impl<V: VarAccess>(
    graph: &Graph,
    plan: &ExecPlan,
    state: &mut PlanState,
    vars: &mut V,
    inputs: &[(&str, &Tensor)],
) -> Result<()> {
    if plan.num_nodes != graph.len() {
        return Err(NnError::Graph(format!(
            "plan covers {} nodes but graph has {}",
            plan.num_nodes,
            graph.len()
        )));
    }
    state.reset_pass();
    for (id, node) in graph.nodes().iter().enumerate() {
        let out: Option<Tensor> = match &node.op {
            Op::Input => {
                let t = inputs
                    .iter()
                    .find(|(n, _)| *n == node.name)
                    .map(|(_, t)| *t)
                    .ok_or_else(|| NnError::Graph(format!("missing input `{}`", node.name)))?;
                if t.shape().len() != 4 {
                    return Err(NnError::Graph(format!(
                        "input `{}` must be [N,C,H,W], got {:?}",
                        node.name,
                        t.shape()
                    )));
                }
                let expect = graph.shape(id);
                let got = (t.shape()[1], t.shape()[2], t.shape()[3]);
                if expect.channels().ok() != Some(got.0)
                    || matches!(expect, NodeShape::Chw(_, h, w) if (h, w) != (got.1, got.2))
                {
                    return Err(NnError::Graph(format!(
                        "input `{}`: batch shape {:?} does not match declared {:?}",
                        node.name,
                        t.shape(),
                        expect
                    )));
                }
                state.batch = t.shape()[0];
                let mut buf = state.arena.take(t.shape());
                buf.copy_data_from(t)?;
                Some(buf)
            }
            Op::Conv2d { weight, bias, cfg } => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                let x = act(&state.acts, plan, node.inputs[0])?;
                ops::conv2d_into(x, vars.value(weight)?, vars.value(bias)?, *cfg, &mut y);
                Some(y)
            }
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                eps,
            } => {
                let shape = runtime_shape(graph, id, state.batch);
                let c = graph.shape(id).channels()?;
                let mut y = state.arena.take(&shape);
                match plan.mode {
                    Mode::Train => {
                        let mut bmean = state.arena.take(&[c]);
                        let mut bvar = state.arena.take(&[c]);
                        let mut xh = state.arena.take(&shape);
                        {
                            let x = act(&state.acts, plan, node.inputs[0])?;
                            ops::batch_stats_into(x, &mut bmean, &mut bvar);
                            ops::batch_norm_apply_into(
                                x,
                                vars.value(gamma)?,
                                vars.value(beta)?,
                                *eps,
                                &bmean,
                                &bvar,
                                &mut y,
                                Some(&mut xh),
                            );
                        }
                        vars.update_bn_stats(mean, var, &bmean, &bvar)?;
                        state.arena.recycle(bmean);
                        state.bn_var[id] = Some(bvar);
                        state.bn_xhat[id] = Some(xh);
                    }
                    Mode::Eval => {
                        // Eval reads the running statistics straight from
                        // the store — no clones, no x̂, no side state.
                        let x = act(&state.acts, plan, node.inputs[0])?;
                        ops::batch_norm_apply_into(
                            x,
                            vars.value(gamma)?,
                            vars.value(beta)?,
                            *eps,
                            vars.value(mean)?,
                            vars.value(var)?,
                            &mut y,
                            None,
                        );
                    }
                }
                Some(y)
            }
            Op::Relu => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                ops::relu_into(act(&state.acts, plan, node.inputs[0])?, &mut y);
                Some(y)
            }
            Op::MaxPool(cfg) => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                ops::max_pool2d_into(
                    act(&state.acts, plan, node.inputs[0])?,
                    *cfg,
                    &mut y,
                    &mut state.argmax[id],
                );
                Some(y)
            }
            Op::AvgPool(cfg) => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                ops::avg_pool2d_into(act(&state.acts, plan, node.inputs[0])?, *cfg, &mut y);
                Some(y)
            }
            Op::GlobalAvgPool => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                ops::global_avg_pool_into(act(&state.acts, plan, node.inputs[0])?, &mut y);
                Some(y)
            }
            Op::Flatten => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                y.copy_data_from(act(&state.acts, plan, node.inputs[0])?)?;
                Some(y)
            }
            Op::Dense { weight, bias } => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                ops::dense_into(
                    act(&state.acts, plan, node.inputs[0])?,
                    vars.value(weight)?,
                    vars.value(bias)?,
                    &mut y,
                );
                Some(y)
            }
            Op::Add => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                let parts: Result<Vec<&Tensor>> = node
                    .inputs
                    .iter()
                    .map(|&i| act(&state.acts, plan, i))
                    .collect();
                ops::add_n_into(&parts?, &mut y)?;
                Some(y)
            }
            Op::Concat => {
                let mut y = state.arena.take(&runtime_shape(graph, id, state.batch));
                let parts: Result<Vec<&Tensor>> = node
                    .inputs
                    .iter()
                    .map(|&i| act(&state.acts, plan, i))
                    .collect();
                concat_into(&parts?, &mut y);
                Some(y)
            }
            // Aliases own no buffer: reads resolve through `plan.base`.
            Op::StopGradient => None,
        };
        if let Some(t) = out {
            debug_assert_eq!(plan.base(id), id);
            state.acts[id] = Some(t);
        }
        for &r in &plan.release_fwd[id] {
            if let Some(t) = state.acts[r].take() {
                state.arena.recycle(t);
            }
        }
    }
    Ok(())
}

/// Planned evaluation forward against a *shared* variable store — the
/// planned analogue of [`crate::forward_eval`]. Each concurrent shard owns
/// its `PlanState`; the graph, plan and variables are shared immutably.
///
/// # Errors
///
/// As for [`crate::forward`].
pub fn planned_forward_eval(
    graph: &Graph,
    plan: &ExecPlan,
    state: &mut PlanState,
    vars: &VarStore,
    inputs: &[(&str, &Tensor)],
) -> Result<()> {
    planned_forward_impl(graph, plan, state, &mut EvalAccess(vars), inputs)
}

// ---------------------------------------------------------------------------
// Planned backward
// ---------------------------------------------------------------------------

/// Reverse-mode backpropagation over buffers left live by a planned train
/// forward. Seeds are borrowed (`&Tensor`), so callers can keep one
/// persistent seed buffer across steps. Parameter gradients accumulate into
/// `vars` exactly as [`crate::backward`] does; the input gradient of a
/// `Conv2d`/`Dense` fed by an `Input` or `StopGradient` node — discarded by
/// both executors — is not computed here at all.
///
/// # Errors
///
/// Returns [`NnError`] when the plan is not a train plan, a seed is
/// malformed, or a required buffer is missing.
pub fn planned_backward(
    graph: &Graph,
    plan: &ExecPlan,
    state: &mut PlanState,
    vars: &mut VarStore,
    seeds: &[(NodeId, &Tensor)],
) -> Result<()> {
    if plan.mode != Mode::Train {
        return Err(NnError::Graph(
            "planned_backward requires a train plan (ExecPlan::for_train)".to_string(),
        ));
    }
    let n = graph.len();
    for (id, g) in seeds {
        if *id >= n {
            return Err(NnError::Graph(format!(
                "backward seed references unknown node {id}"
            )));
        }
        let expect = runtime_shape(graph, *id, state.batch);
        if g.shape() != expect.as_slice() {
            return Err(NnError::Graph(format!(
                "backward seed for `{}`: shape {:?} != activation {:?}",
                graph.node(*id).name,
                g.shape(),
                expect
            )));
        }
        match &mut state.grads[*id] {
            Some(acc) => acc.axpy(1.0, g)?,
            slot => {
                let mut buf = state.arena.take(g.shape());
                buf.copy_data_from(g)?;
                *slot = Some(buf);
            }
        }
    }

    for id in (0..n).rev() {
        let node = graph.node(id);
        if let Some(dy) = state.grads[id].take() {
            match &node.op {
                Op::Input => {}
                Op::Conv2d { weight, bias, cfg } => {
                    let ti = node.inputs[0];
                    let mut dw = state.arena.take(vars.value(weight)?.shape());
                    let mut db = state.arena.take(vars.value(bias)?.shape());
                    let mut dx = input_grad_buffer(graph, state, ti);
                    {
                        let x = act(&state.acts, plan, ti)?;
                        ops::conv2d_backward_into(
                            x,
                            vars.value(weight)?,
                            &dy,
                            *cfg,
                            dx.as_mut(),
                            &mut dw,
                            &mut db,
                        );
                    }
                    if let Some(dx) = dx {
                        deposit_grad(state, ti, dx);
                    }
                    vars.accumulate_grad(weight, &dw)?;
                    vars.accumulate_grad(bias, &db)?;
                    state.arena.recycle(dw);
                    state.arena.recycle(db);
                }
                Op::BatchNorm {
                    gamma, beta, eps, ..
                } => {
                    let ti = node.inputs[0];
                    let c = graph.shape(id).channels()?;
                    let mut dgamma = state.arena.take(&[c]);
                    let mut dbeta = state.arena.take(&[c]);
                    let mut dx = state.arena.take(&runtime_shape(graph, ti, state.batch));
                    {
                        let xh = state.bn_xhat[id].as_ref().ok_or_else(|| {
                            NnError::Graph(format!("bn `{}` missing cache", node.name))
                        })?;
                        let var_t = state.bn_var[id].as_ref().ok_or_else(|| {
                            NnError::Graph(format!("bn `{}` missing cache", node.name))
                        })?;
                        ops::batch_norm_backward_into(
                            &dy,
                            vars.value(gamma)?,
                            xh,
                            var_t,
                            *eps,
                            &mut dx,
                            &mut dgamma,
                            &mut dbeta,
                        );
                    }
                    deposit_grad(state, ti, dx);
                    vars.accumulate_grad(gamma, &dgamma)?;
                    vars.accumulate_grad(beta, &dbeta)?;
                    state.arena.recycle(dgamma);
                    state.arena.recycle(dbeta);
                }
                Op::Relu => {
                    let ti = node.inputs[0];
                    let mut dx = state.arena.take(&runtime_shape(graph, ti, state.batch));
                    ops::relu_backward_into(act(&state.acts, plan, ti)?, &dy, &mut dx);
                    deposit_grad(state, ti, dx);
                }
                Op::MaxPool(_) => {
                    let ti = node.inputs[0];
                    let mut dx = state.arena.take(&runtime_shape(graph, ti, state.batch));
                    ops::max_pool2d_backward_into(&state.argmax[id], &dy, &mut dx);
                    deposit_grad(state, ti, dx);
                }
                Op::AvgPool(cfg) => {
                    let ti = node.inputs[0];
                    let mut dx = state.arena.take(&runtime_shape(graph, ti, state.batch));
                    ops::avg_pool2d_backward_into(&dy, *cfg, &mut dx);
                    deposit_grad(state, ti, dx);
                }
                Op::GlobalAvgPool => {
                    let ti = node.inputs[0];
                    let mut dx = state.arena.take(&runtime_shape(graph, ti, state.batch));
                    ops::global_avg_pool_backward_into(&dy, &mut dx);
                    deposit_grad(state, ti, dx);
                }
                Op::Flatten => {
                    let ti = node.inputs[0];
                    match &mut state.grads[ti] {
                        Some(acc) => axpy_flat(acc, &dy),
                        slot @ None => {
                            let mut dx = state.arena.take(&runtime_shape(graph, ti, state.batch));
                            dx.copy_data_from(&dy)?;
                            *slot = Some(dx);
                        }
                    }
                }
                Op::Dense { weight, bias } => {
                    let ti = node.inputs[0];
                    let mut dw = state.arena.take(vars.value(weight)?.shape());
                    let mut db = state.arena.take(vars.value(bias)?.shape());
                    let mut dx = input_grad_buffer(graph, state, ti);
                    {
                        let x = act(&state.acts, plan, ti)?;
                        ops::dense_backward_into(
                            x,
                            vars.value(weight)?,
                            &dy,
                            dx.as_mut(),
                            &mut dw,
                            &mut db,
                        );
                    }
                    if let Some(dx) = dx {
                        deposit_grad(state, ti, dx);
                    }
                    vars.accumulate_grad(weight, &dw)?;
                    vars.accumulate_grad(bias, &db)?;
                    state.arena.recycle(dw);
                    state.arena.recycle(db);
                }
                Op::Add => {
                    for &ti in &node.inputs {
                        match &mut state.grads[ti] {
                            Some(acc) => axpy_flat(acc, &dy),
                            slot @ None => {
                                let mut dx = state.arena.take(dy.shape());
                                dx.copy_data_from(&dy)?;
                                *slot = Some(dx);
                            }
                        }
                    }
                }
                Op::Concat => {
                    let mut c0 = 0usize;
                    for &ti in &node.inputs {
                        let part_shape = runtime_shape(graph, ti, state.batch);
                        let w = part_shape[1];
                        match &mut state.grads[ti] {
                            Some(acc) => concat_part_add(&dy, c0, w, acc),
                            slot @ None => {
                                let mut dx = state.arena.take(&part_shape);
                                concat_part_copy(&dy, c0, w, &mut dx);
                                *slot = Some(dx);
                            }
                        }
                        c0 += w;
                    }
                }
                Op::StopGradient => {
                    // Gradient is dropped by design.
                }
            }
            state.arena.recycle(dy);
        }
        // Releases run whether or not a gradient reached this node: the
        // schedule is static.
        if let Some(t) = state.bn_var[id].take() {
            state.arena.recycle(t);
        }
        if let Some(t) = state.bn_xhat[id].take() {
            state.arena.recycle(t);
        }
        for &r in &plan.release_bwd[id] {
            if let Some(t) = state.acts[r].take() {
                state.arena.recycle(t);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CompiledNet — the one-stop handle drivers hold across steps
// ---------------------------------------------------------------------------

/// A graph compiled for repeated planned execution: both a train and an eval
/// plan plus one reusable [`PlanState`]. Build once per network (or per
/// tuning block / cluster task) and drive every step through it — after the
/// first step the arena is warm and steady-state training performs zero
/// tensor allocations.
#[derive(Debug)]
pub struct CompiledNet {
    graph: Graph,
    plan_train: ExecPlan,
    plan_eval: ExecPlan,
    state: PlanState,
}

impl CompiledNet {
    /// Compiles `graph` keeping `outputs` (loss ports, metric nodes) live
    /// across each pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when an output id is out of range.
    pub fn new(graph: &Graph, outputs: &[NodeId]) -> Result<CompiledNet> {
        let plan_train = ExecPlan::for_train(graph, outputs)?;
        let plan_eval = ExecPlan::for_eval(graph, outputs)?;
        Ok(CompiledNet {
            graph: graph.clone(),
            plan_train,
            plan_eval,
            state: PlanState::new(graph),
        })
    }

    /// The compiled graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The plan used for the given mode.
    pub fn plan(&self, mode: Mode) -> &ExecPlan {
        match mode {
            Mode::Train => &self.plan_train,
            Mode::Eval => &self.plan_eval,
        }
    }

    /// Planned forward pass; the analogue of [`crate::forward`].
    ///
    /// # Errors
    ///
    /// As for [`crate::forward`].
    pub fn forward(
        &mut self,
        vars: &mut VarStore,
        inputs: &[(&str, &Tensor)],
        mode: Mode,
    ) -> Result<()> {
        match mode {
            Mode::Train => planned_forward_impl(
                &self.graph,
                &self.plan_train,
                &mut self.state,
                &mut TrainAccess(vars),
                inputs,
            ),
            Mode::Eval => planned_forward_impl(
                &self.graph,
                &self.plan_eval,
                &mut self.state,
                &mut EvalAccess(vars),
                inputs,
            ),
        }
    }

    /// Planned eval forward against a shared store; the analogue of
    /// [`crate::forward_eval`].
    ///
    /// # Errors
    ///
    /// As for [`crate::forward`].
    pub fn forward_eval(&mut self, vars: &VarStore, inputs: &[(&str, &Tensor)]) -> Result<()> {
        planned_forward_eval(&self.graph, &self.plan_eval, &mut self.state, vars, inputs)
    }

    /// The activation of `id` from the last forward pass. Only kept
    /// (output) nodes are guaranteed live; anything else errors.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the buffer was released by the plan.
    pub fn activation(&self, id: NodeId) -> Result<&Tensor> {
        self.state.activation(&self.plan_train, id)
    }

    /// Planned backward pass over the buffers the last train forward left
    /// live; the analogue of [`crate::backward`] with borrowed seeds.
    ///
    /// # Errors
    ///
    /// As for [`planned_backward`].
    pub fn backward(&mut self, vars: &mut VarStore, seeds: &[(NodeId, &Tensor)]) -> Result<()> {
        planned_backward(&self.graph, &self.plan_train, &mut self.state, vars, seeds)
    }

    /// Snapshot of the arena counters.
    pub fn arena_stats(&self) -> ArenaStats {
        self.state.arena_stats()
    }

    /// Resets the arena counters, keeping the warm pool.
    pub fn reset_arena_stats(&mut self) {
        self.state.reset_arena_stats();
    }
}
