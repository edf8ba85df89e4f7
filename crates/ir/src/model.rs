//! Typed model IR lowered from the Prototxt dialect.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::prototxt::{self, Message, Value};
use crate::{IrError, Result};

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolMethod {
    /// Max pooling (`pool: MAX`).
    Max,
    /// Average pooling (`pool: AVE`).
    Ave,
}

/// The operation a model layer performs, with its Caffe-style parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerKind {
    /// `type: "Convolution"` with `convolution_param`.
    Convolution {
        /// Number of filters.
        num_output: usize,
        /// Square kernel size.
        kernel_size: usize,
        /// Stride (defaults to 1).
        stride: usize,
        /// Symmetric padding (defaults to 0).
        pad: usize,
    },
    /// `type: "BatchNorm"`.
    BatchNorm,
    /// `type: "ReLU"`.
    ReLU,
    /// `type: "Pooling"` with `pooling_param`.
    Pooling {
        /// Max or average.
        method: PoolMethod,
        /// Square window (ignored when `global` is set).
        kernel_size: usize,
        /// Stride (defaults to `kernel_size`).
        stride: usize,
        /// Symmetric padding (defaults to 0).
        pad: usize,
        /// `global_pooling: true` pools the full spatial extent.
        global: bool,
    },
    /// `type: "InnerProduct"` with `inner_product_param`.
    InnerProduct {
        /// Number of output units.
        num_output: usize,
    },
    /// `type: "Eltwise"` (SUM) — the residual join.
    Eltwise,
    /// `type: "Concat"` — the Inception join along channels.
    Concat,
    /// `type: "Softmax"` — kept in the IR, skipped by code generation
    /// (losses are attached by the training scripts).
    Softmax,
}

impl LayerKind {
    /// The Caffe `type:` string of this kind.
    pub fn type_name(&self) -> &'static str {
        match self {
            LayerKind::Convolution { .. } => "Convolution",
            LayerKind::BatchNorm => "BatchNorm",
            LayerKind::ReLU => "ReLU",
            LayerKind::Pooling { .. } => "Pooling",
            LayerKind::InnerProduct { .. } => "InnerProduct",
            LayerKind::Eltwise => "Eltwise",
            LayerKind::Concat => "Concat",
            LayerKind::Softmax => "Softmax",
        }
    }

    /// Whether this layer holds prunable filters.
    pub fn is_convolution(&self) -> bool {
        matches!(self, LayerKind::Convolution { .. })
    }
}

/// One layer definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerDef {
    /// Unique layer name.
    pub name: String,
    /// The operation.
    pub kind: LayerKind,
    /// Input blob names (the `bottom:` fields).
    pub bottoms: Vec<String>,
    /// Output blob name (the `top:` field). This IR requires a single,
    /// unique top per layer.
    pub top: String,
    /// The Wootz `module:` extension — the convolution-module index this
    /// layer belongs to, when any.
    pub module: Option<usize>,
}

/// The model input declaration (`input:` + four `input_dim:`s, old-Caffe
/// style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputDef {
    /// Input blob name.
    pub name: String,
    /// Declared batch size (a hint; execution accepts any batch).
    pub batch: usize,
    /// Channels.
    pub channels: usize,
    /// Height.
    pub height: usize,
    /// Width.
    pub width: usize,
}

/// A validated CNN model description: the Wootz compiler's input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelIr {
    name: String,
    input: InputDef,
    layers: Vec<LayerDef>,
    /// The Wootz `pruning_rate:` extension — the model-declared pruning-rate
    /// alphabet as fractions in `[0, 1)` (empty when the model declares
    /// none and callers should fall back to the paper's `{0.3, 0.5, 0.7}`).
    pruning_rates: Vec<f32>,
}

impl ModelIr {
    /// Builds a model IR from parts, running full validation. The
    /// pruning-rate alphabet is left empty (see
    /// [`ModelIr::with_pruning_rates`]).
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] on duplicate names/tops, undefined bottoms,
    /// parameter violations (zero filters, zero kernel, zero input dims) or
    /// a module ID labelling two separate layer groups.
    pub fn from_parts(
        name: impl Into<String>,
        input: InputDef,
        layers: Vec<LayerDef>,
    ) -> Result<Self> {
        let model = ModelIr {
            name: name.into(),
            input,
            layers,
            pruning_rates: Vec::new(),
        };
        model.validate()?;
        Ok(model)
    }

    /// Replaces the declared pruning-rate alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] when a rate falls outside `[0, 1)` (a rate of
    /// exactly 1 would delete every filter of a module).
    pub fn with_pruning_rates(mut self, rates: Vec<f32>) -> Result<Self> {
        for &r in &rates {
            validate_pruning_rate(f64::from(r), None)?;
        }
        self.pruning_rates = rates;
        Ok(self)
    }

    /// The model-declared pruning-rate alphabet (the Wootz `pruning_rate:`
    /// extension), as fractions in `[0, 1)`. Empty when the model declares
    /// none.
    pub fn pruning_rates(&self) -> &[f32] {
        &self.pruning_rates
    }

    /// Parses a model from Prototxt text.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] on syntax errors or validation failures.
    pub fn parse(text: &str) -> Result<Self> {
        let msg = prototxt::parse(text)?;
        lower_model(&msg)
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input declaration.
    pub fn input(&self) -> &InputDef {
        &self.input
    }

    /// All layers in definition order.
    pub fn layers(&self) -> &[LayerDef] {
        &self.layers
    }

    /// Looks up a layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerDef> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Names of all convolution layers, in order.
    pub fn conv_layer_names(&self) -> Vec<&str> {
        self.layers
            .iter()
            .filter(|l| l.kind.is_convolution())
            .map(|l| l.name.as_str())
            .collect()
    }

    /// Groups layers by their `module:` annotation. Keys are module IDs in
    /// ascending order; values are layer names in definition order.
    pub fn modules(&self) -> BTreeMap<usize, Vec<&LayerDef>> {
        let mut map: BTreeMap<usize, Vec<&LayerDef>> = BTreeMap::new();
        for layer in &self.layers {
            if let Some(m) = layer.module {
                map.entry(m).or_default().push(layer);
            }
        }
        map
    }

    /// IDs of modules that contain at least one convolution — the units the
    /// paper assigns per-module pruning rates to.
    pub fn conv_module_ids(&self) -> Vec<usize> {
        self.modules()
            .into_iter()
            .filter(|(_, layers)| layers.iter().any(|l| l.kind.is_convolution()))
            .map(|(id, _)| id)
            .collect()
    }

    /// Names of the convolution layers the paper's pruning convention
    /// allows to prune, determined by dataflow: a convolution is prunable
    /// iff every consumer of its output — traced through channel-preserving
    /// layers (ReLU, BatchNorm, non-global Pooling) — is another
    /// convolution *inside the same module*. Convolutions whose output
    /// feeds an Eltwise/Concat join, leaves the module, or is the network
    /// output are the module "tops" that stay unpruned ("it helps ensure
    /// the dimension compatibility of the module", §7.1) so that module
    /// interfaces stay fixed and pre-trained blocks compose.
    pub fn prunable_convs(&self) -> Vec<&str> {
        self.layers
            .iter()
            .filter(|l| l.kind.is_convolution() && self.conv_is_prunable(l))
            .map(|l| l.name.as_str())
            .collect()
    }

    /// Prunable convolutions (see [`ModelIr::prunable_convs`]) belonging to
    /// the given module.
    pub fn prunable_convs_of_module(&self, module: usize) -> Vec<&str> {
        self.layers
            .iter()
            .filter(|l| {
                l.module == Some(module) && l.kind.is_convolution() && self.conv_is_prunable(l)
            })
            .map(|l| l.name.as_str())
            .collect()
    }

    fn conv_is_prunable(&self, conv: &LayerDef) -> bool {
        let Some(module) = conv.module else {
            return false;
        };
        // Trace the conv's output blob through channel-preserving layers;
        // every terminal consumer must be a convolution in the same module.
        let mut frontier = vec![conv.top.as_str()];
        let mut visited: HashSet<&str> = HashSet::new();
        while let Some(blob) = frontier.pop() {
            if !visited.insert(blob) {
                continue;
            }
            let consumers: Vec<&LayerDef> = self
                .layers
                .iter()
                .filter(|l| l.bottoms.iter().any(|b| b == blob))
                .collect();
            if consumers.is_empty() {
                // Network output: interface is externally visible.
                return false;
            }
            for consumer in consumers {
                match &consumer.kind {
                    LayerKind::Convolution { .. } => {
                        if consumer.module != Some(module) {
                            return false;
                        }
                    }
                    LayerKind::ReLU | LayerKind::BatchNorm => frontier.push(consumer.top.as_str()),
                    LayerKind::Pooling { global, .. } => {
                        if *global {
                            // Channels become classifier features outside
                            // the module.
                            return false;
                        }
                        frontier.push(consumer.top.as_str());
                    }
                    LayerKind::Eltwise
                    | LayerKind::Concat
                    | LayerKind::InnerProduct { .. }
                    | LayerKind::Softmax => return false,
                }
            }
        }
        true
    }

    /// Serializes back to Prototxt (parse ∘ print is the identity on the
    /// typed IR, which the round-trip tests verify).
    pub fn to_prototxt(&self) -> String {
        let mut root = Message::new();
        root.push_scalar("name", Value::Str(self.name.clone()));
        root.push_scalar("input", Value::Str(self.input.name.clone()));
        for dim in [
            self.input.batch,
            self.input.channels,
            self.input.height,
            self.input.width,
        ] {
            root.push_scalar("input_dim", Value::Num(dim as f64));
        }
        for &rate in &self.pruning_rates {
            root.push_scalar("pruning_rate", Value::Num(f64::from(rate)));
        }
        for layer in &self.layers {
            let mut l = Message::new();
            l.push_scalar("name", Value::Str(layer.name.clone()));
            l.push_scalar("type", Value::Str(layer.kind.type_name().to_string()));
            for b in &layer.bottoms {
                l.push_scalar("bottom", Value::Str(b.clone()));
            }
            l.push_scalar("top", Value::Str(layer.top.clone()));
            if let Some(m) = layer.module {
                l.push_scalar("module", Value::Num(m as f64));
            }
            match &layer.kind {
                LayerKind::Convolution {
                    num_output,
                    kernel_size,
                    stride,
                    pad,
                } => {
                    let mut p = Message::new();
                    p.push_scalar("num_output", Value::Num(*num_output as f64));
                    p.push_scalar("kernel_size", Value::Num(*kernel_size as f64));
                    p.push_scalar("stride", Value::Num(*stride as f64));
                    p.push_scalar("pad", Value::Num(*pad as f64));
                    l.push_message("convolution_param", p);
                }
                LayerKind::Pooling {
                    method,
                    kernel_size,
                    stride,
                    pad,
                    global,
                } => {
                    let mut p = Message::new();
                    p.push_scalar(
                        "pool",
                        Value::Ident(match method {
                            PoolMethod::Max => "MAX".into(),
                            PoolMethod::Ave => "AVE".into(),
                        }),
                    );
                    if *global {
                        p.push_scalar("global_pooling", Value::Ident("true".into()));
                    } else {
                        p.push_scalar("kernel_size", Value::Num(*kernel_size as f64));
                        p.push_scalar("stride", Value::Num(*stride as f64));
                        p.push_scalar("pad", Value::Num(*pad as f64));
                    }
                    l.push_message("pooling_param", p);
                }
                LayerKind::InnerProduct { num_output } => {
                    let mut p = Message::new();
                    p.push_scalar("num_output", Value::Num(*num_output as f64));
                    l.push_message("inner_product_param", p);
                }
                LayerKind::BatchNorm
                | LayerKind::ReLU
                | LayerKind::Eltwise
                | LayerKind::Concat
                | LayerKind::Softmax => {}
            }
            root.push_message("layer", l);
        }
        root.print(0)
    }

    fn validate(&self) -> Result<()> {
        if self.layers.is_empty() {
            return Err(IrError::new("model has no layers"));
        }
        let mut names = HashSet::new();
        let mut tops: HashSet<&str> = HashSet::new();
        tops.insert(self.input.name.as_str());
        for layer in &self.layers {
            if !names.insert(layer.name.as_str()) {
                return Err(IrError::new(format!(
                    "duplicate layer name `{}`",
                    layer.name
                )));
            }
            if layer.bottoms.is_empty() {
                return Err(IrError::new(format!(
                    "layer `{}` has no bottom",
                    layer.name
                )));
            }
            for b in &layer.bottoms {
                if !tops.contains(b.as_str()) {
                    return Err(IrError::new(format!(
                        "layer `{}` consumes undefined blob `{b}`",
                        layer.name
                    )));
                }
            }
            if !tops.insert(layer.top.as_str()) {
                return Err(IrError::new(format!(
                    "blob `{}` produced twice (in-place layers are not supported)",
                    layer.top
                )));
            }
            match &layer.kind {
                LayerKind::Convolution {
                    num_output,
                    kernel_size,
                    ..
                } if (*num_output == 0 || *kernel_size == 0) => {
                    return Err(IrError::new(format!(
                        "conv `{}` must have positive num_output and kernel_size",
                        layer.name
                    )));
                }
                LayerKind::InnerProduct { num_output } if *num_output == 0 => {
                    return Err(IrError::new(format!(
                        "inner product `{}` must have positive num_output",
                        layer.name
                    )));
                }
                LayerKind::Pooling {
                    kernel_size,
                    global,
                    ..
                } if !*global && *kernel_size == 0 => {
                    return Err(IrError::new(format!(
                        "pooling `{}` must have positive kernel_size",
                        layer.name
                    )));
                }
                LayerKind::Eltwise | LayerKind::Concat if layer.bottoms.len() < 2 => {
                    return Err(IrError::new(format!(
                        "`{}` ({}) needs at least two bottoms",
                        layer.name,
                        layer.kind.type_name()
                    )));
                }
                _ => {}
            }
        }
        let modules: Vec<Option<usize>> = self.layers.iter().map(|l| l.module).collect();
        if let Some((idx, module)) = first_split_module(&modules) {
            return Err(IrError::new(format!(
                "module {module} declared twice: layer `{}` reopens it after other modules \
                 intervened (each module ID must label one contiguous layer group)",
                self.layers[idx].name
            )));
        }
        Ok(())
    }
}

/// Checks that every module ID labels one contiguous run of layers
/// (unannotated layers may interleave freely). Returns the index of the
/// first layer that *reopens* a module after a different module intervened,
/// together with the offending module ID.
///
/// A split module is rejected because tuning-block extraction and
/// checkpoint slicing both treat a module as one unit; two disjoint groups
/// sharing an ID would silently merge unrelated layers into one block.
fn first_split_module(modules: &[Option<usize>]) -> Option<(usize, usize)> {
    let mut closed: HashSet<usize> = HashSet::new();
    let mut current: Option<usize> = None;
    for (i, m) in modules.iter().enumerate() {
        let Some(id) = m else { continue };
        if current == Some(*id) {
            continue;
        }
        if closed.contains(id) {
            return Some((i, *id));
        }
        if let Some(c) = current {
            closed.insert(c);
        }
        current = Some(*id);
    }
    None
}

/// Validates a Wootz pruning rate: a fraction in `[0, 1)`.
fn validate_pruning_rate(rate: f64, line: Option<usize>) -> Result<()> {
    if rate.is_finite() && (0.0..1.0).contains(&rate) {
        return Ok(());
    }
    let msg = format!(
        "pruning rate {rate} is outside [0, 1) (rates are fractions of filters removed; \
         1 would delete every filter)"
    );
    Err(match line {
        Some(l) => IrError::at_line(l, msg),
        None => IrError::new(msg),
    })
}

/// Lowers one `input_dim:`/`dim:` scalar into a positive integer, rejecting
/// zero, negative, fractional and non-numeric dims with the source line.
fn lower_input_dim(value: &Value, line: Option<usize>) -> Result<usize> {
    let err = |what: String| match line {
        Some(l) => IrError::at_line(l, what),
        None => IrError::new(what),
    };
    let n = value
        .as_num()
        .ok_or_else(|| err(format!("input dim needs a number, got `{value:?}`")))?;
    if !n.is_finite() || n.fract() != 0.0 || n < 1.0 {
        return Err(err(format!(
            "input dim must be a positive integer, got `{n}` (zero-sized shapes are invalid)"
        )));
    }
    Ok(n as usize)
}

fn lower_model(msg: &Message) -> Result<ModelIr> {
    let name = msg.str("name").unwrap_or("unnamed").to_string();
    let input_name = msg
        .str("input")
        .ok_or_else(|| IrError::new("model must declare `input: \"...\"`"))?
        .to_string();
    // Old-Caffe style: four repeated `input_dim:` scalars. New-Caffe style:
    // an `input_shape { dim: ... }` message. Accept either.
    let mut dims: Vec<usize> = msg
        .scalars_at("input_dim")
        .map(|(v, line)| lower_input_dim(v, line))
        .collect::<Result<_>>()?;
    if dims.is_empty() {
        if let Some(shape) = msg.message("input_shape") {
            dims = shape
                .scalars_at("dim")
                .map(|(v, line)| lower_input_dim(v, line))
                .collect::<Result<_>>()?;
        }
    }
    if dims.len() != 4 {
        return Err(IrError::new(format!(
            "model must declare four input dims (N C H W) via `input_dim:` or `input_shape {{ dim: ... }}`; found {}",
            dims.len()
        )));
    }
    let input = InputDef {
        name: input_name,
        batch: dims[0],
        channels: dims[1],
        height: dims[2],
        width: dims[3],
    };

    // The Wootz `pruning_rate:` extension: the model's rate alphabet, each
    // a fraction in [0, 1).
    let mut pruning_rates = Vec::new();
    for (value, line) in msg.scalars_at("pruning_rate") {
        let rate = value.as_num().ok_or_else(|| {
            let what = format!("`pruning_rate` needs a number, got `{value:?}`");
            match line {
                Some(l) => IrError::at_line(l, what),
                None => IrError::new(what),
            }
        })?;
        validate_pruning_rate(rate, line)?;
        pruning_rates.push(rate as f32);
    }

    let mut layers = Vec::new();
    let mut layer_lines = Vec::new();
    for (lmsg, line) in msg.messages_at("layer") {
        layers.push(lower_layer(lmsg, line)?);
        layer_lines.push(line);
    }
    // Check module contiguity here, where source lines are known; the
    // line-less `validate` repeats the check for programmatic construction.
    let modules: Vec<Option<usize>> = layers.iter().map(|l| l.module).collect();
    if let Some((idx, module)) = first_split_module(&modules) {
        let what = format!(
            "module {module} declared twice: layer `{}` reopens it after other modules \
             intervened (each module ID must label one contiguous layer group)",
            layers[idx].name
        );
        return Err(match layer_lines[idx] {
            Some(l) => IrError::at_line(l, what),
            None => IrError::new(what),
        });
    }
    resolve_in_place(&input.name, &mut layers);
    let mut model = ModelIr::from_parts(name, input, layers)?;
    model.pruning_rates = pruning_rates;
    Ok(model)
}

/// Rewrites Caffe-style *in-place* layers (top == bottom, common for ReLU
/// and BatchNorm) into single-assignment form: each in-place layer gets a
/// fresh top (its own layer name) and later consumers of the overwritten
/// blob are redirected to the latest producer — exactly Caffe's
/// sequential-overwrite semantics, expressed as SSA.
fn resolve_in_place(input_name: &str, layers: &mut [LayerDef]) {
    use std::collections::HashMap;
    // blob name -> its current (latest) alias.
    let mut alias: HashMap<String, String> = HashMap::new();
    alias.insert(input_name.to_string(), input_name.to_string());
    for layer in layers.iter_mut() {
        for b in &mut layer.bottoms {
            if let Some(current) = alias.get(b) {
                *b = current.clone();
            }
        }
        let in_place = layer.bottoms.contains(&layer.top) || alias.contains_key(&layer.top);
        if in_place {
            // The layer's unique name becomes the fresh blob.
            let fresh = layer.name.clone();
            alias.insert(layer.top.clone(), fresh.clone());
            layer.top = fresh.clone();
            // The fresh name itself may be consumed later.
            alias.insert(fresh.clone(), fresh);
        } else {
            alias.insert(layer.top.clone(), layer.top.clone());
        }
    }
}

fn lower_layer(msg: &Message, layer_line: Option<usize>) -> Result<LayerDef> {
    // Anchor errors at the layer's own first field when known, else at the
    // `layer {` line the caller saw.
    let line = msg.start_line().or(layer_line);
    let at = |what: String| match line {
        Some(l) => IrError::at_line(l, what),
        None => IrError::new(what),
    };
    let name = msg
        .str("name")
        .ok_or_else(|| at("layer without `name`".to_string()))?
        .to_string();
    let type_name = msg
        .str("type")
        .ok_or_else(|| at(format!("layer `{name}` without `type`")))?;
    let bottoms: Vec<String> = msg
        .scalars("bottom")
        .filter_map(|v| v.as_str())
        .map(str::to_string)
        .collect();
    let top = msg
        .str("top")
        .ok_or_else(|| at(format!("layer `{name}` without `top`")))?
        .to_string();
    let mut module_decls = msg.scalars_at("module");
    let module = match module_decls.next() {
        None => None,
        Some((value, mline)) => {
            let id = value
                .as_num()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .ok_or_else(|| {
                    let what = format!("layer `{name}`: `module` needs a non-negative integer");
                    match mline.or(line) {
                        Some(l) => IrError::at_line(l, what),
                        None => IrError::new(what),
                    }
                })? as usize;
            // A second, conflicting `module:` on the same layer is a
            // duplicate declaration, not a repeated field.
            for (other, oline) in module_decls {
                if other.as_num() != Some(id as f64) {
                    let what =
                        format!("layer `{name}` declares `module` twice with different values");
                    return Err(match oline.or(line) {
                        Some(l) => IrError::at_line(l, what),
                        None => IrError::new(what),
                    });
                }
            }
            Some(id)
        }
    };

    let kind = match type_name {
        "Convolution" => {
            let p = msg
                .message("convolution_param")
                .ok_or_else(|| at(format!("conv `{name}` missing convolution_param")))?;
            LayerKind::Convolution {
                num_output: p
                    .usize("num_output")
                    .ok_or_else(|| at(format!("conv `{name}` missing num_output")))?,
                kernel_size: p
                    .usize("kernel_size")
                    .ok_or_else(|| at(format!("conv `{name}` missing kernel_size")))?,
                stride: p.usize("stride").unwrap_or(1),
                pad: p.usize("pad").unwrap_or(0),
            }
        }
        "BatchNorm" => LayerKind::BatchNorm,
        "ReLU" => LayerKind::ReLU,
        "Pooling" => {
            let p = msg
                .message("pooling_param")
                .ok_or_else(|| at(format!("pooling `{name}` missing pooling_param")))?;
            let method = match p.scalar("pool").and_then(Value::as_ident) {
                Some("MAX") | None => PoolMethod::Max,
                Some("AVE") => PoolMethod::Ave,
                Some(other) => {
                    return Err(at(format!("pooling `{name}`: unknown method `{other}`")))
                }
            };
            let global = p
                .scalar("global_pooling")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let kernel_size = p.usize("kernel_size").unwrap_or(0);
            LayerKind::Pooling {
                method,
                kernel_size,
                stride: p.usize("stride").unwrap_or(kernel_size.max(1)),
                pad: p.usize("pad").unwrap_or(0),
                global,
            }
        }
        "InnerProduct" => {
            let p = msg.message("inner_product_param").ok_or_else(|| {
                at(format!(
                    "inner product `{name}` missing inner_product_param"
                ))
            })?;
            LayerKind::InnerProduct {
                num_output: p
                    .usize("num_output")
                    .ok_or_else(|| at(format!("inner product `{name}` missing num_output")))?,
            }
        }
        "Eltwise" => LayerKind::Eltwise,
        "Concat" => LayerKind::Concat,
        "Softmax" => LayerKind::Softmax,
        other => return Err(at(format!("layer `{name}`: unsupported type `{other}`"))),
    };
    Ok(LayerDef {
        name,
        kind,
        bottoms,
        top,
        module,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
name: "tiny"
input: "data"
input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8
layer {
  name: "conv1" type: "Convolution" bottom: "data" top: "conv1" module: 0
  convolution_param { num_output: 4 kernel_size: 3 stride: 1 pad: 1 }
}
layer { name: "relu1" type: "ReLU" bottom: "conv1" top: "relu1" module: 0 }
layer {
  name: "conv2" type: "Convolution" bottom: "relu1" top: "conv2" module: 1
  convolution_param { num_output: 8 kernel_size: 3 pad: 1 }
}
layer {
  name: "pool" type: "Pooling" bottom: "conv2" top: "pool"
  pooling_param { pool: AVE global_pooling: true }
}
layer {
  name: "fc" type: "InnerProduct" bottom: "pool" top: "fc"
  inner_product_param { num_output: 10 }
}
"#;

    #[test]
    fn parses_a_small_model() {
        let m = ModelIr::parse(TINY).unwrap();
        assert_eq!(m.name(), "tiny");
        assert_eq!(m.input().channels, 3);
        assert_eq!(m.layers().len(), 5);
        assert_eq!(m.conv_layer_names(), vec!["conv1", "conv2"]);
        let conv2 = m.layer("conv2").unwrap();
        assert_eq!(
            conv2.kind,
            LayerKind::Convolution {
                num_output: 8,
                kernel_size: 3,
                stride: 1,
                pad: 1
            }
        );
    }

    #[test]
    fn modules_group_layers() {
        let m = ModelIr::parse(TINY).unwrap();
        let mods = m.modules();
        assert_eq!(mods.len(), 2);
        assert_eq!(mods[&0].len(), 2);
        assert_eq!(mods[&1][0].name, "conv2");
        assert_eq!(m.conv_module_ids(), vec![0, 1]);
    }

    #[test]
    fn prunable_convs_exclude_module_top() {
        let text = r#"
name: "m"
input: "data"
input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8
layer { name: "a" type: "Convolution" bottom: "data" top: "a" module: 0
  convolution_param { num_output: 4 kernel_size: 1 } }
layer { name: "b" type: "Convolution" bottom: "a" top: "b" module: 0
  convolution_param { num_output: 4 kernel_size: 1 } }
layer { name: "c" type: "Convolution" bottom: "b" top: "c" module: 0
  convolution_param { num_output: 4 kernel_size: 1 } }
"#;
        let m = ModelIr::parse(text).unwrap();
        // The last conv of the module is kept unpruned.
        assert_eq!(m.prunable_convs_of_module(0), vec!["a", "b"]);
        // A single-conv module has nothing prunable.
        assert!(m.prunable_convs_of_module(7).is_empty());
    }

    #[test]
    fn in_place_layers_are_rewritten_to_ssa() {
        // Caffe-style in-place ReLU (top == bottom), twice in a row, plus a
        // consumer of the overwritten blob.
        let text = r#"
name: "inplace"
input: "data"
input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8
layer { name: "conv1" type: "Convolution" bottom: "data" top: "conv1" module: 0
  convolution_param { num_output: 4 kernel_size: 3 pad: 1 } }
layer { name: "relu1" type: "ReLU" bottom: "conv1" top: "conv1" module: 0 }
layer { name: "bn1" type: "BatchNorm" bottom: "conv1" top: "conv1" module: 0 }
layer { name: "conv2" type: "Convolution" bottom: "conv1" top: "conv2" module: 0
  convolution_param { num_output: 4 kernel_size: 3 pad: 1 } }
"#;
        let m = ModelIr::parse(text).expect("in-place layers are supported");
        // relu1 gets its own top; bn1 consumes relu1; conv2 consumes bn1.
        assert_eq!(m.layer("relu1").unwrap().bottoms, vec!["conv1".to_string()]);
        assert_eq!(m.layer("relu1").unwrap().top, "relu1");
        assert_eq!(m.layer("bn1").unwrap().bottoms, vec!["relu1".to_string()]);
        assert_eq!(m.layer("conv2").unwrap().bottoms, vec!["bn1".to_string()]);
    }

    #[test]
    fn validation_catches_undefined_bottom() {
        let text = r#"
name: "bad"
input: "data"
input_dim: 1 input_dim: 1 input_dim: 4 input_dim: 4
layer { name: "r" type: "ReLU" bottom: "ghost" top: "r" }
"#;
        let err = ModelIr::parse(text).unwrap_err();
        assert!(err.to_string().contains("undefined blob"), "{err}");
    }

    #[test]
    fn validation_catches_duplicate_names_and_tops() {
        let input = InputDef {
            name: "data".into(),
            batch: 1,
            channels: 1,
            height: 4,
            width: 4,
        };
        let relu = |name: &str, bottom: &str, top: &str| LayerDef {
            name: name.into(),
            kind: LayerKind::ReLU,
            bottoms: vec![bottom.into()],
            top: top.into(),
            module: None,
        };
        let err = ModelIr::from_parts(
            "m",
            input.clone(),
            vec![relu("a", "data", "x"), relu("a", "x", "y")],
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate layer name"));
        let err = ModelIr::from_parts(
            "m",
            input,
            vec![relu("a", "data", "x"), relu("b", "x", "x")],
        )
        .unwrap_err();
        assert!(err.to_string().contains("produced twice"));
    }

    #[test]
    fn split_module_groups_are_rejected_even_without_positions() {
        let input = InputDef {
            name: "data".into(),
            batch: 1,
            channels: 1,
            height: 4,
            width: 4,
        };
        let relu = |name: &str, bottom: &str, module: usize| LayerDef {
            name: name.into(),
            kind: LayerKind::ReLU,
            bottoms: vec![bottom.into()],
            top: name.into(),
            module: Some(module),
        };
        let err = ModelIr::from_parts(
            "m",
            input.clone(),
            vec![relu("a", "data", 0), relu("b", "a", 1), relu("c", "b", 0)],
        )
        .unwrap_err();
        assert!(err.to_string().contains("module 0 declared twice"), "{err}");
        // Unannotated layers inside a module's run do not split it.
        let mut mid = relu("b", "a", 0);
        mid.module = None;
        assert!(ModelIr::from_parts(
            "m",
            input,
            vec![relu("a", "data", 0), mid, relu("c", "b", 0)],
        )
        .is_ok());
    }

    #[test]
    fn eltwise_needs_two_bottoms() {
        let text = r#"
name: "bad"
input: "data"
input_dim: 1 input_dim: 1 input_dim: 4 input_dim: 4
layer { name: "e" type: "Eltwise" bottom: "data" top: "e" }
"#;
        assert!(ModelIr::parse(text).is_err());
    }

    #[test]
    fn prototxt_round_trip() {
        let m = ModelIr::parse(TINY).unwrap();
        let text = m.to_prototxt();
        let m2 = ModelIr::parse(&text).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn input_shape_message_syntax_is_accepted() {
        let text = r#"
name: "new_caffe"
input: "data"
input_shape { dim: 1 dim: 3 dim: 8 dim: 8 }
layer { name: "c" type: "Convolution" bottom: "data" top: "c" module: 0
  convolution_param { num_output: 2 kernel_size: 1 } }
"#;
        let m = ModelIr::parse(text).unwrap();
        assert_eq!(m.input().channels, 3);
        assert_eq!(m.input().height, 8);
    }

    #[test]
    fn missing_input_dims_is_an_error() {
        let err = ModelIr::parse("name: \"x\"\ninput: \"data\"\ninput_dim: 1").unwrap_err();
        assert!(err.to_string().contains("input_dim"));
    }

    #[test]
    fn unsupported_layer_type_is_an_error() {
        let text = r#"
name: "bad"
input: "data"
input_dim: 1 input_dim: 1 input_dim: 4 input_dim: 4
layer { name: "l" type: "LSTM" bottom: "data" top: "l" }
"#;
        let err = ModelIr::parse(text).unwrap_err();
        assert!(err.to_string().contains("unsupported type"));
    }

    #[test]
    fn conv_defaults_stride_one_pad_zero() {
        let text = r#"
name: "d"
input: "data"
input_dim: 1 input_dim: 1 input_dim: 4 input_dim: 4
layer { name: "c" type: "Convolution" bottom: "data" top: "c"
  convolution_param { num_output: 2 kernel_size: 1 } }
"#;
        let m = ModelIr::parse(text).unwrap();
        assert_eq!(
            m.layer("c").unwrap().kind,
            LayerKind::Convolution {
                num_output: 2,
                kernel_size: 1,
                stride: 1,
                pad: 0
            }
        );
    }
}
