//! Analytic model statistics: per-layer parameter and FLOP counts with
//! shape propagation over the IR — no tensors are allocated.
//!
//! Besides the paper's ModelSize metric, this supports the computational-
//! cost objective the paper mentions among pruning goals ("maximizing the
//! inference speed, or minimizing the amount of computations", §2): FLOPs
//! are counted as two operations per multiply-accumulate.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wootz_ir::{LayerKind, ModelIr};

use crate::prune::{pruned_widths, PruneConfig};
use crate::Result;

/// Statistics of one layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Layer name.
    pub name: String,
    /// Caffe type string.
    pub kind: String,
    /// Output shape per sample `(channels, height, width)`; fully-connected
    /// outputs use `(units, 1, 1)`.
    pub output: (usize, usize, usize),
    /// Learnable parameters.
    pub params: usize,
    /// Forward FLOPs per sample (2 per MAC).
    pub flops: u64,
}

/// Whole-model statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Per-layer rows, in definition order.
    pub layers: Vec<LayerStats>,
    /// Total parameters.
    pub total_params: usize,
    /// Total forward FLOPs per sample.
    pub total_flops: u64,
}

impl ModelStats {
    /// Renders a `model summary`-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:<13} {:>14} {:>12} {:>14}\n",
            "layer", "type", "output", "params", "flops"
        ));
        for l in &self.layers {
            out.push_str(&format!(
                "{:<28} {:<13} {:>14} {:>12} {:>14}\n",
                l.name,
                l.kind,
                format!("{}x{}x{}", l.output.0, l.output.1, l.output.2),
                l.params,
                l.flops
            ));
        }
        out.push_str(&format!(
            "total: {} params, {} flops/sample\n",
            self.total_params, self.total_flops
        ));
        out
    }
}

fn pooled_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad).saturating_sub(kernel) / stride.max(1) + 1
}

/// Computes per-layer and total statistics of the network `ir` builds
/// with the conv widths `widths` ([`pruned_widths`]; an
/// empty map is the full model) by propagating shapes through the blob
/// graph. `total_params` is the number of learnable scalars the compiler
/// materializes for those widths — an inner product charges every
/// feature of the map it flattens — and is the paper's ModelSize.
///
/// ```
/// use std::collections::BTreeMap;
/// use wootz_core::stats::model_stats;
///
/// let stats = model_stats(&wootz_models::resnet_mini(10), &BTreeMap::new());
/// assert!(stats.total_params > 0);
/// assert!(stats.total_flops > stats.total_params as u64);
/// ```
///
/// # Panics
///
/// Panics when the IR is internally inconsistent (validated IRs never
/// are — every bottom is produced before use).
pub fn model_stats(ir: &ModelIr, widths: &BTreeMap<String, usize>) -> ModelStats {
    let mut shapes: BTreeMap<&str, (usize, usize, usize)> = BTreeMap::new();
    shapes.insert(
        ir.input().name.as_str(),
        (ir.input().channels, ir.input().height, ir.input().width),
    );
    let mut layers = Vec::with_capacity(ir.layers().len());
    let mut total_params = 0usize;
    let mut total_flops = 0u64;
    for layer in ir.layers() {
        let inp = |b: &str| {
            *shapes
                .get(b)
                .unwrap_or_else(|| panic!("blob `{b}` has no shape (layer `{}`)", layer.name))
        };
        let (out, params, flops) = match &layer.kind {
            LayerKind::Convolution {
                num_output,
                kernel_size,
                stride,
                pad,
            } => {
                let filters = widths.get(&layer.name).copied().unwrap_or(*num_output);
                let (c, h, w) = inp(&layer.bottoms[0]);
                let ho = pooled_dim(h, *kernel_size, *stride, *pad);
                let wo = pooled_dim(w, *kernel_size, *stride, *pad);
                let params = filters * c * kernel_size * kernel_size + filters;
                let macs = (filters * c * kernel_size * kernel_size * ho * wo) as u64;
                (
                    (filters, ho, wo),
                    params,
                    2 * macs + (filters * ho * wo) as u64,
                )
            }
            LayerKind::BatchNorm => {
                let (c, h, w) = inp(&layer.bottoms[0]);
                ((c, h, w), 2 * c, (4 * c * h * w) as u64)
            }
            LayerKind::ReLU => {
                let s = inp(&layer.bottoms[0]);
                (s, 0, (s.0 * s.1 * s.2) as u64)
            }
            LayerKind::Pooling {
                method: _,
                kernel_size,
                stride,
                pad,
                global,
            } => {
                let (c, h, w) = inp(&layer.bottoms[0]);
                if *global {
                    ((c, 1, 1), 0, (c * h * w) as u64)
                } else {
                    let ho = pooled_dim(h, *kernel_size, *stride, *pad);
                    let wo = pooled_dim(w, *kernel_size, *stride, *pad);
                    (
                        (c, ho, wo),
                        0,
                        (c * ho * wo * kernel_size * kernel_size) as u64,
                    )
                }
            }
            LayerKind::InnerProduct { num_output } => {
                let (c, h, w) = inp(&layer.bottoms[0]);
                let features = c * h * w;
                let params = num_output * features + num_output;
                (
                    (*num_output, 1, 1),
                    params,
                    2 * (num_output * features) as u64,
                )
            }
            LayerKind::Eltwise => {
                let s = inp(&layer.bottoms[0]);
                (s, 0, (s.0 * s.1 * s.2 * layer.bottoms.len()) as u64)
            }
            LayerKind::Concat => {
                let mut c = 0;
                let (_, h, w) = inp(&layer.bottoms[0]);
                for b in &layer.bottoms {
                    c += inp(b).0;
                }
                ((c, h, w), 0, 0)
            }
            LayerKind::Softmax => {
                let s = inp(&layer.bottoms[0]);
                (s, 0, (3 * s.0 * s.1 * s.2) as u64)
            }
        };
        shapes.insert(layer.top.as_str(), out);
        total_params += params;
        total_flops += flops;
        layers.push(LayerStats {
            name: layer.name.clone(),
            kind: layer.kind.type_name().to_string(),
            output: out,
            params,
            flops,
        });
    }
    ModelStats {
        layers,
        total_params,
        total_flops,
    }
}

/// [`model_stats`] of the pruned network for `config`: one walk over its
/// [`pruned_widths`], whose totals are ModelSize
/// ([`crate::prune::config_param_count`]) and [`config_flop_count`].
///
/// # Errors
///
/// [`crate::CoreError::Config`] on a module-count mismatch or a bad rate.
pub fn config_stats(ir: &ModelIr, config: &PruneConfig) -> Result<ModelStats> {
    Ok(model_stats(ir, &pruned_widths(ir, config.parts(ir)?)?))
}

/// Total forward FLOPs of the pruned network for a configuration — the
/// computational-cost metric.
///
/// # Errors
///
/// Same as [`config_stats`].
pub fn config_flop_count(ir: &ModelIr, config: &PruneConfig) -> Result<u64> {
    Ok(config_stats(ir, config)?.total_flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_models::{resnet50, resnet_mini};

    #[test]
    fn a_pruned_configuration_has_its_hand_counted_size() {
        // One module: `a` (prunable, 8 -> 4 filters at 50%) feeds `b`
        // through a batch norm and a ReLU; `b` leaves the module, so it
        // keeps its 6 filters. The classifier flattens a 6x4x4 map.
        let text = r#"
name: "counted"
input: "data"
input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8
layer { name: "a" type: "Convolution" bottom: "data" top: "a" module: 0
  convolution_param { num_output: 8 kernel_size: 3 pad: 1 } }
layer { name: "a_bn" type: "BatchNorm" bottom: "a" top: "a_bn" module: 0 }
layer { name: "a_relu" type: "ReLU" bottom: "a_bn" top: "a_relu" module: 0 }
layer { name: "b" type: "Convolution" bottom: "a_relu" top: "b" module: 0
  convolution_param { num_output: 6 kernel_size: 1 } }
layer { name: "pool" type: "Pooling" bottom: "b" top: "pool"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layer { name: "fc" type: "InnerProduct" bottom: "pool" top: "fc"
  inner_product_param { num_output: 5 } }
"#;
        let ir = wootz_ir::ModelIr::parse(text).unwrap();
        let config = PruneConfig::new(vec![50]).unwrap();
        let a = 4 * 3 * 3 * 3 + 4;
        let a_bn = 2 * 4;
        let b = 6 * 4 + 6;
        let fc = 5 * (6 * 4 * 4) + 5;
        let stats = config_stats(&ir, &config).unwrap();
        assert_eq!(stats.total_params, a + a_bn + b + fc);
        assert_eq!(crate::prune::config_param_count(&ir, &config).unwrap(), 635);
        assert_eq!(config_flop_count(&ir, &config).unwrap(), stats.total_flops);
    }

    #[test]
    fn resnet50_flops_are_in_the_right_ballpark() {
        // Real ResNet-50 is ~3.8 GFLOPs (2/MAC convention gives ~7.7
        // GMACs x2) on 224x224; our generator should land within 3x.
        let stats = model_stats(&resnet50(1000), &BTreeMap::new());
        let gflops = stats.total_flops as f64 / 1e9;
        assert!((2.0..20.0).contains(&gflops), "{gflops} GFLOPs");
    }

    #[test]
    fn pruning_reduces_flops_monotonically() {
        let ir = resnet_mini(10);
        let n = ir.conv_module_ids().len();
        let f0 = config_flop_count(&ir, &PruneConfig::unpruned(n)).unwrap();
        let f30 = config_flop_count(&ir, &PruneConfig::uniform(n, 30).unwrap()).unwrap();
        let f70 = config_flop_count(&ir, &PruneConfig::uniform(n, 70).unwrap()).unwrap();
        assert!(f0 > f30 && f30 > f70, "{f0} {f30} {f70}");
        assert_eq!(f0, model_stats(&ir, &BTreeMap::new()).total_flops);
    }

    #[test]
    fn conv_flops_formula() {
        // Single conv: 4 filters, 3 in-channels, 3x3 kernel, 8x8 output.
        let text = r#"
name: "one"
input: "data"
input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8
layer { name: "c" type: "Convolution" bottom: "data" top: "c" module: 0
  convolution_param { num_output: 4 kernel_size: 3 pad: 1 } }
"#;
        let ir = wootz_ir::ModelIr::parse(text).unwrap();
        let stats = model_stats(&ir, &BTreeMap::new());
        let macs = 4 * 3 * 3 * 3 * 8 * 8;
        assert_eq!(stats.layers[0].flops, (2 * macs + 4 * 8 * 8) as u64);
        assert_eq!(stats.layers[0].output, (4, 8, 8));
        assert_eq!(stats.layers[0].params, 4 * 3 * 3 * 3 + 4);
    }

    #[test]
    fn render_contains_totals() {
        let text = model_stats(&resnet_mini(10), &BTreeMap::new()).render();
        assert!(text.contains("total:"), "{text}");
        assert!(text.contains("conv1"));
    }
}
