//! The Wootz compiler: lowers a Prototxt model IR to the **multiplexing
//! model** — one builder that, depending on its `mode_to_use` argument and
//! the pruning information passed in, materializes
//!
//! * the original full network (`Original`),
//! * a pruned network for global fine-tuning (`FineTune`), or
//! * the Teacher–Student structure for pre-training one or more tuning
//!   blocks (`PreTrain`) — the full model runs alongside the pruned blocks,
//!   feeding them their inputs and "ground truth" output activation maps
//!   (Figure 5 (a)/(b) of the paper).
//!
//! Variable names are scoped (`net/...`, `teacher/...`,
//! `student/<block-key>/...`) so checkpoints transfer between modes by
//! prefix renaming, exactly like TensorFlow variable scopes in the paper's
//! generated code.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wootz_ir::{LayerKind, ModelIr, PoolMethod};
use wootz_nn::{Graph, GraphBuilder, NodeId, VarStore};

use crate::analysis::block_interface;
use crate::prune::{pruned_widths, PruneConfig};
use crate::{CoreError, Result};

/// A tuning block: a sequence of *consecutive* convolution modules, each
/// pruned at a rate (§5: "a sequence of consecutive CNN layers pruned at
/// certain rates").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TuningBlock {
    /// Identifier within its block set.
    pub id: usize,
    /// `(module position, rate-percent)` pairs; positions index the model's
    /// conv-module list and must be consecutive.
    pub parts: Vec<(usize, u8)>,
}

impl TuningBlock {
    /// Builds a block, validating consecutiveness.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Block`] when `parts` is empty or module
    /// positions are not consecutive ascending.
    pub fn new(id: usize, parts: Vec<(usize, u8)>) -> Result<Self> {
        if parts.is_empty() {
            return Err(CoreError::Block("tuning block with no modules".into()));
        }
        for w in parts.windows(2) {
            if w[1].0 != w[0].0 + 1 {
                return Err(CoreError::Block(format!(
                    "tuning block modules must be consecutive, got {:?}",
                    parts.iter().map(|p| p.0).collect::<Vec<_>>()
                )));
            }
        }
        Ok(TuningBlock { id, parts })
    }

    /// The module positions this block covers.
    pub fn module_positions(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.0).collect()
    }

    /// Lowest module position (used by the concurrent-training partition
    /// algorithm, which sorts blocks by their lowest conv layer).
    pub fn lowest_module(&self) -> usize {
        self.parts[0].0
    }

    /// Whether two blocks share a module (overlapping blocks cannot be
    /// pre-trained in the same network).
    pub fn overlaps(&self, other: &TuningBlock) -> bool {
        self.parts
            .iter()
            .any(|(m, _)| other.parts.iter().any(|(om, _)| om == m))
    }

    /// A content-derived key naming the block's variable scope and
    /// checkpoint, e.g. `m2r30+m3r50`. Two blocks with the same modules and
    /// rates share pre-training results — the computation reuse at the core
    /// of the paper.
    pub fn key(&self) -> String {
        self.parts
            .iter()
            .map(|(m, r)| format!("m{m}r{r}"))
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The variable scope of this block's parameters in pre-training
    /// graphs.
    pub fn scope(&self) -> String {
        format!("student/{}", self.key())
    }

    /// FNV-1a hash of [`TuningBlock::key`] — the structure component of
    /// the block store's cache key (`SERVING.md`). Defined over the key
    /// string (not the raw parts) so store identity and checkpoint/scope
    /// identity provably agree: same key string ⇒ same scope ⇒ same
    /// structure hash.
    pub fn structure_hash(&self) -> u64 {
        wootz_fault::fnv1a64(self.key().as_bytes())
    }
}

/// Which network the multiplexing model should materialize — the
/// `mode_to_use` argument of the paper's generated model function.
#[derive(Debug, Clone, PartialEq)]
pub enum ModeToUse<'a> {
    /// The original full network under scope `net/`.
    Original,
    /// The pruned network for `config` under scope `net/` (the `prune_info`
    /// argument carries the per-module rates).
    FineTune(&'a PruneConfig),
    /// The Teacher–Student structure: frozen full model under `teacher/`
    /// plus one pruned copy per tuning block under `student/<key>/`. Blocks
    /// must be pairwise non-overlapping.
    PreTrain(&'a [TuningBlock]),
}

/// Connection points of one pruned block inside a pre-training graph,
/// with the derivation its student was built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPorts {
    /// Index into the block list passed to the builder.
    pub block_index: usize,
    /// The pruned block's output node (student side).
    pub student_output: NodeId,
    /// The unpruned counterpart's output node (teacher side) — the
    /// "ground truth" activation map.
    pub teacher_output: NodeId,
    /// The block's conv widths ([`pruned_widths`] of its parts).
    pub widths: BTreeMap<String, usize>,
    /// The block's layers, in definition order
    /// ([`crate::analysis::BlockInterface::layers`]).
    pub layers: Vec<String>,
}

/// A materialized network.
#[derive(Debug)]
pub struct BuiltModel {
    /// The executable graph.
    pub graph: Graph,
    /// Its parameters.
    pub vars: VarStore,
    /// Name of the input placeholder node.
    pub input_name: String,
    /// Classifier logits node (absent in pre-training structures, which
    /// train against activation maps, not labels).
    pub logits: Option<NodeId>,
    /// Per-block ports (pre-training mode only).
    pub block_ports: Vec<BlockPorts>,
    /// The conv widths the `net/` network was built with
    /// ([`pruned_widths`] of the fine-tuning configuration; empty for the
    /// original network and in pre-training mode).
    pub widths: BTreeMap<String, usize>,
}

/// The multiplexing model: a compiled form of one Prototxt model that can
/// be invoked in any of the three modes.
#[derive(Debug, Clone)]
pub struct MultiplexingModel {
    ir: ModelIr,
}

impl MultiplexingModel {
    /// Compiles a model IR. The IR must contain at least one convolution
    /// module for pruning to be meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for models without conv modules.
    pub fn compile(ir: ModelIr) -> Result<Self> {
        if ir.conv_module_ids().is_empty() {
            return Err(CoreError::Config(format!(
                "model `{}` has no convolution modules to prune",
                ir.name()
            )));
        }
        Ok(MultiplexingModel { ir })
    }

    /// The underlying IR.
    pub fn ir(&self) -> &ModelIr {
        &self.ir
    }

    /// Materializes the network for `mode`. `seed` drives parameter
    /// initialization deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on invalid configurations, overlapping blocks,
    /// or graph-construction failures.
    pub fn build(&self, mode: &ModeToUse<'_>, seed: u64) -> Result<BuiltModel> {
        match mode {
            ModeToUse::Original => self.build_single(BTreeMap::new(), seed),
            ModeToUse::FineTune(config) => {
                self.build_single(pruned_widths(&self.ir, config.parts(&self.ir)?)?, seed)
            }
            ModeToUse::PreTrain(blocks) => self.build_pretrain(blocks, seed),
        }
    }

    fn build_single(&self, widths: BTreeMap<String, usize>, seed: u64) -> Result<BuiltModel> {
        let mut b = GraphBuilder::new(seed);
        let input = self.ir.input();
        let input_node = b.input(&input.name, (input.channels, input.height, input.width));
        let mut blobs: BTreeMap<&str, NodeId> = BTreeMap::new();
        blobs.insert(input.name.as_str(), input_node);
        let logits = emit_layers(&mut b, &self.ir, "net", &widths, &mut blobs, None)?;
        let (graph, vars) = b.finish();
        Ok(BuiltModel {
            graph,
            vars,
            input_name: input.name.clone(),
            logits: Some(logits),
            block_ports: Vec::new(),
            widths,
        })
    }

    fn build_pretrain(&self, blocks: &[TuningBlock], seed: u64) -> Result<BuiltModel> {
        for (i, a) in blocks.iter().enumerate() {
            for b in &blocks[i + 1..] {
                if a.overlaps(b) {
                    return Err(CoreError::Block(format!(
                        "blocks {} and {} overlap; pre-train them in separate groups",
                        a.key(),
                        b.key()
                    )));
                }
            }
        }
        let mut b = GraphBuilder::new(seed);
        let input = self.ir.input();
        let input_node = b.input(&input.name, (input.channels, input.height, input.width));
        let mut teacher_blobs: BTreeMap<&str, NodeId> = BTreeMap::new();
        teacher_blobs.insert(input.name.as_str(), input_node);
        emit_layers(
            &mut b,
            &self.ir,
            "teacher",
            &BTreeMap::new(),
            &mut teacher_blobs,
            None,
        )?;

        let module_ids = self.ir.conv_module_ids();
        let mut block_ports = Vec::with_capacity(blocks.len());
        for (bi, block) in blocks.iter().enumerate() {
            let widths = pruned_widths(&self.ir, block.parts.iter().copied())?;
            // `pruned_widths` refused positions outside the model.
            let ids: Vec<usize> = block
                .parts
                .iter()
                .map(|&(pos, _)| module_ids[pos])
                .collect();
            let iface = block_interface(&self.ir, &ids)?;
            let scope = block.scope();
            let teacher_in = *teacher_blobs
                .get(iface.input_blob.as_str())
                .ok_or_else(|| {
                    CoreError::Block(format!("missing teacher blob `{}`", iface.input_blob))
                })?;
            // Gradient barrier so pre-training never updates the teacher.
            let sg = b.stop_gradient(&format!("{scope}/input_sg"), teacher_in)?;
            let mut student_blobs: BTreeMap<&str, NodeId> = BTreeMap::new();
            student_blobs.insert(iface.input_blob.as_str(), sg);
            emit_layers(
                &mut b,
                &self.ir,
                &scope,
                &widths,
                &mut student_blobs,
                Some(&iface.layers),
            )?;
            let student_output =
                *student_blobs
                    .get(iface.output_blob.as_str())
                    .ok_or_else(|| {
                        CoreError::Block(format!("missing student blob `{}`", iface.output_blob))
                    })?;
            let teacher_output =
                *teacher_blobs
                    .get(iface.output_blob.as_str())
                    .ok_or_else(|| {
                        CoreError::Block(format!("missing teacher blob `{}`", iface.output_blob))
                    })?;
            block_ports.push(BlockPorts {
                block_index: bi,
                student_output,
                teacher_output,
                widths,
                layers: iface.layers,
            });
        }
        let (graph, mut vars) = b.finish();
        // Only the pruned blocks' parameters are updated in this phase "to
        // ensure the pre-trained blocks are reusable" (§6.1).
        vars.set_trainable_by_prefix("teacher/", false);
        Ok(BuiltModel {
            graph,
            vars,
            input_name: input.name.clone(),
            logits: None,
            block_ports,
            widths: BTreeMap::new(),
        })
    }
}

/// Walks the IR layers (optionally restricted to `only`) and adds the
/// corresponding nodes under `scope`, with conv widths overridden by
/// `widths`. Returns the logits node (the last non-softmax top emitted).
fn emit_layers<'a>(
    b: &mut GraphBuilder,
    ir: &'a ModelIr,
    scope: &str,
    widths: &BTreeMap<String, usize>,
    blobs: &mut BTreeMap<&'a str, NodeId>,
    only: Option<&[String]>,
) -> Result<NodeId> {
    let mut last = *blobs
        .values()
        .next()
        .ok_or_else(|| CoreError::Pipeline("emit_layers: empty blob map".into()))?;
    for layer in ir.layers() {
        if let Some(names) = only {
            if !names.contains(&layer.name) {
                continue;
            }
        }
        let node_name = format!("{scope}/{}", layer.name);
        let get = |blobs: &BTreeMap<&str, NodeId>, blob: &str| -> Result<NodeId> {
            blobs.get(blob).copied().ok_or_else(|| {
                CoreError::Pipeline(format!("layer `{}`: blob `{blob}` not built", layer.name))
            })
        };
        let node = match &layer.kind {
            LayerKind::Convolution {
                num_output,
                kernel_size,
                stride,
                pad,
            } => {
                let filters = widths.get(&layer.name).copied().unwrap_or(*num_output);
                let input = get(blobs, &layer.bottoms[0])?;
                b.conv2d(&node_name, input, filters, *kernel_size, *stride, *pad)?
            }
            LayerKind::BatchNorm => {
                let input = get(blobs, &layer.bottoms[0])?;
                b.batch_norm(&node_name, input)?
            }
            LayerKind::ReLU => {
                let input = get(blobs, &layer.bottoms[0])?;
                b.relu(&node_name, input)?
            }
            LayerKind::Pooling {
                method,
                kernel_size,
                stride,
                pad,
                global,
            } => {
                let input = get(blobs, &layer.bottoms[0])?;
                if *global {
                    b.global_avg_pool(&node_name, input)?
                } else {
                    match method {
                        PoolMethod::Max => {
                            b.max_pool(&node_name, input, *kernel_size, *stride, *pad)?
                        }
                        PoolMethod::Ave => {
                            b.avg_pool(&node_name, input, *kernel_size, *stride, *pad)?
                        }
                    }
                }
            }
            LayerKind::InnerProduct { num_output } => {
                let mut input = get(blobs, &layer.bottoms[0])?;
                if matches!(b.graph().shape(input), wootz_nn::NodeShape::Chw(..)) {
                    input = b.flatten(&format!("{node_name}/flatten"), input)?;
                }
                b.dense(&node_name, input, *num_output)?
            }
            LayerKind::Eltwise => {
                let inputs: Vec<NodeId> = layer
                    .bottoms
                    .iter()
                    .map(|blob| get(blobs, blob))
                    .collect::<Result<_>>()?;
                b.add(&node_name, &inputs)?
            }
            LayerKind::Concat => {
                let inputs: Vec<NodeId> = layer
                    .bottoms
                    .iter()
                    .map(|blob| get(blobs, blob))
                    .collect::<Result<_>>()?;
                b.concat(&node_name, &inputs)?
            }
            LayerKind::Softmax => {
                // Losses are attached by the training scripts; the softmax
                // blob aliases its bottom.
                let input = get(blobs, &layer.bottoms[0])?;
                blobs.insert(layer.top.as_str(), input);
                continue;
            }
        };
        blobs.insert(layer.top.as_str(), node);
        last = node;
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_models::{inception_mini, resnet_mini};
    use wootz_nn::{forward, Mode};
    use wootz_tensor::Tensor;

    fn mm() -> MultiplexingModel {
        MultiplexingModel::compile(resnet_mini(10)).unwrap()
    }

    #[test]
    fn tuning_block_validation() {
        assert!(TuningBlock::new(0, vec![]).is_err());
        assert!(TuningBlock::new(0, vec![(1, 30), (3, 30)]).is_err());
        let b = TuningBlock::new(0, vec![(1, 30), (2, 50)]).unwrap();
        assert_eq!(b.key(), "m1r30+m2r50");
        assert_eq!(b.lowest_module(), 1);
        let c = TuningBlock::new(1, vec![(2, 70)]).unwrap();
        assert!(b.overlaps(&c));
        let d = TuningBlock::new(2, vec![(3, 70)]).unwrap();
        assert!(!b.overlaps(&d));
    }

    #[test]
    fn original_mode_runs_forward() {
        let m = mm();
        let built = m.build(&ModeToUse::Original, 1).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let mut vars = built.vars;
        let pass = forward(&built.graph, &mut vars, &[("data", &x)], Mode::Eval).unwrap();
        assert_eq!(pass.activation(built.logits.unwrap()).shape(), &[2, 10]);
    }

    #[test]
    fn finetune_mode_shrinks_parameters() {
        let m = mm();
        let n = m.ir().conv_module_ids().len();
        let full = m.build(&ModeToUse::Original, 1).unwrap();
        let config = PruneConfig::uniform(n, 70).unwrap();
        let pruned = m.build(&ModeToUse::FineTune(&config), 1).unwrap();
        let full_params = full.vars.num_scalars_with_prefix("net/");
        let pruned_params = pruned.vars.num_scalars_with_prefix("net/");
        assert!(
            pruned_params < full_params,
            "{pruned_params} !< {full_params}"
        );
        // The pruned network still runs.
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let mut vars = pruned.vars;
        let pass = forward(&pruned.graph, &mut vars, &[("data", &x)], Mode::Eval).unwrap();
        assert_eq!(pass.activation(pruned.logits.unwrap()).shape(), &[1, 10]);
    }

    #[test]
    fn analytic_and_materialized_sizes_agree() {
        // ModelSize (analytic) must equal the learnable scalars the
        // compiler materializes; batch-norm running statistics are state,
        // not parameters.
        let learnable = |built: &BuiltModel| -> usize {
            built
                .vars
                .iter()
                .filter(|(name, p)| name.starts_with("net/") && p.trainable)
                .map(|(_, p)| p.value.len())
                .sum()
        };
        // The classifier reads a max-pooled 4x4x4 map, not a global pool:
        // it flattens 64 features.
        let pooled = ModelIr::parse(
            r#"
name: "pooled"
input: "data"
input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8
layer { name: "a" type: "Convolution" bottom: "data" top: "a" module: 0
  convolution_param { num_output: 8 kernel_size: 3 pad: 1 } }
layer { name: "a_relu" type: "ReLU" bottom: "a" top: "a_relu" module: 0 }
layer { name: "b" type: "Convolution" bottom: "a_relu" top: "b" module: 0
  convolution_param { num_output: 4 kernel_size: 3 pad: 1 } }
layer { name: "pool" type: "Pooling" bottom: "b" top: "pool"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layer { name: "fc" type: "InnerProduct" bottom: "pool" top: "fc"
  inner_product_param { num_output: 5 } }
"#,
        )
        .unwrap();
        let pooled = MultiplexingModel::compile(pooled).unwrap();
        let inception = MultiplexingModel::compile(inception_mini(10)).unwrap();
        let mixed: Vec<u8> = (0..inception.ir().conv_module_ids().len())
            .map(|i| [0, 30, 50, 70][i % 4])
            .collect();
        let n = mm().ir().conv_module_ids().len();
        let cases = [
            (mm(), PruneConfig::unpruned(n)),
            (mm(), PruneConfig::uniform(n, 50).unwrap()),
            (pooled.clone(), PruneConfig::unpruned(1)),
            (pooled, PruneConfig::new(vec![50]).unwrap()),
            (inception, PruneConfig::new(mixed).unwrap()),
        ];
        for (m, config) in cases {
            let built = m.build(&ModeToUse::FineTune(&config), 0).unwrap();
            let analytic = crate::prune::config_param_count(m.ir(), &config).unwrap();
            assert_eq!(
                learnable(&built),
                analytic,
                "{} at {:?}",
                m.ir().name(),
                config.rates()
            );
        }
    }

    #[test]
    fn pretrain_mode_builds_teacher_and_students() {
        let m = mm();
        let blocks = vec![
            TuningBlock::new(0, vec![(0, 50)]).unwrap(),
            TuningBlock::new(1, vec![(2, 70), (3, 70)]).unwrap(),
        ];
        let built = m.build(&ModeToUse::PreTrain(&blocks), 3).unwrap();
        assert_eq!(built.block_ports.len(), 2);
        assert!(built.logits.is_none());
        // Teacher is frozen, students trainable.
        let teacher_trainable = built
            .vars
            .iter()
            .filter(|(n, p)| n.starts_with("teacher/") && p.trainable)
            .count();
        assert_eq!(teacher_trainable, 0);
        let student_trainable = built
            .vars
            .iter()
            .filter(|(n, p)| n.starts_with("student/") && p.trainable)
            .count();
        assert!(student_trainable > 0);
        // Student and teacher outputs have identical shapes (the MSE pairs).
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let mut vars = built.vars;
        let pass = forward(&built.graph, &mut vars, &[("data", &x)], Mode::Eval).unwrap();
        for ports in &built.block_ports {
            assert_eq!(
                pass.activation(ports.student_output).shape(),
                pass.activation(ports.teacher_output).shape()
            );
        }
    }

    #[test]
    fn pretrain_rejects_overlapping_blocks() {
        let m = mm();
        let blocks = vec![
            TuningBlock::new(0, vec![(0, 50), (1, 50)]).unwrap(),
            TuningBlock::new(1, vec![(1, 70)]).unwrap(),
        ];
        assert!(matches!(
            m.build(&ModeToUse::PreTrain(&blocks), 0),
            Err(CoreError::Block(_))
        ));
    }

    #[test]
    fn pretrain_rejects_out_of_range_module() {
        let m = mm();
        let blocks = vec![TuningBlock::new(0, vec![(99, 50)]).unwrap()];
        assert!(m.build(&ModeToUse::PreTrain(&blocks), 0).is_err());
    }

    #[test]
    fn inception_builds_in_all_modes() {
        let m = MultiplexingModel::compile(inception_mini(7)).unwrap();
        let n = m.ir().conv_module_ids().len();
        m.build(&ModeToUse::Original, 0).unwrap();
        let config = PruneConfig::uniform(n, 50).unwrap();
        let built = m.build(&ModeToUse::FineTune(&config), 0).unwrap();
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let mut vars = built.vars;
        let pass = forward(&built.graph, &mut vars, &[("data", &x)], Mode::Eval).unwrap();
        assert_eq!(pass.activation(built.logits.unwrap()).shape(), &[1, 7]);
        let blocks = vec![TuningBlock::new(0, vec![(1, 70)]).unwrap()];
        let built = m.build(&ModeToUse::PreTrain(&blocks), 0).unwrap();
        assert_eq!(built.block_ports.len(), 1);
    }

    #[test]
    fn models_without_modules_are_rejected() {
        let text = r#"
name: "flat"
input: "data"
input_dim: 1 input_dim: 1 input_dim: 4 input_dim: 4
layer { name: "r" type: "ReLU" bottom: "data" top: "r" }
"#;
        let ir = wootz_ir::ModelIr::parse(text).unwrap();
        assert!(MultiplexingModel::compile(ir).is_err());
    }
}
