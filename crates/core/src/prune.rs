//! Pruning configurations, promising-subspace sampling, filter importance
//! and analytic model sizing.
//!
//! A configuration assigns one pruning rate to each convolution module
//! (§7.1: "A typical practice is to use the same pruning rate for the
//! convolutional layers in one convolution module. We adopt the same
//! strategy."). Rates are percentages from the paper's set `{30, 50, 70}`
//! (with `0` meaning "unpruned"); the importance of a filter is its L1 norm
//! (Li et al., as in the paper).

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use wootz_ir::{LayerKind, ModelIr};
use wootz_tensor::Tensor;

use crate::{CoreError, Result};

/// The paper's pruning-rate alphabet, in percent.
pub const PAPER_RATES: [u8; 3] = [30, 50, 70];

/// One pruning configuration: a rate (percent of least-important filters
/// removed) per convolution module, in module-ID order.
///
/// ```
/// use wootz_core::prune::PruneConfig;
///
/// let config = PruneConfig::new(vec![30, 0, 70])?;
/// assert_eq!(config.rate(2), 70);
/// assert_eq!(config.terminals(), vec![30, 1000, 2070]);
/// # Ok::<(), wootz_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PruneConfig {
    rates: Vec<u8>,
}

impl PruneConfig {
    /// Wraps per-module rates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when a rate is ≥ 100 (removing every
    /// filter is not a network).
    pub fn new(rates: Vec<u8>) -> Result<Self> {
        if let Some(&bad) = rates.iter().find(|&&r| r >= 100) {
            return Err(CoreError::Config(format!(
                "pruning rate {bad}% must be < 100%"
            )));
        }
        Ok(PruneConfig { rates })
    }

    /// The all-zero (unpruned) configuration for `n` modules.
    pub fn unpruned(n: usize) -> Self {
        PruneConfig { rates: vec![0; n] }
    }

    /// A uniform configuration pruning every module at `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `rate >= 100`.
    pub fn uniform(n: usize, rate: u8) -> Result<Self> {
        PruneConfig::new(vec![rate; n])
    }

    /// Per-module rates, indexed by position among the model's conv-module
    /// IDs.
    pub fn rates(&self) -> &[u8] {
        &self.rates
    }

    /// Number of modules covered.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the config covers no modules.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// The rate of the `i`-th module.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn rate(&self, i: usize) -> u8 {
        self.rates[i]
    }

    /// The configuration as `(module position, rate)` parts over `ir`'s
    /// conv modules — what [`pruned_widths`] reads.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the configuration does not cover
    /// exactly the model's conv modules.
    pub fn parts(&self, ir: &ModelIr) -> Result<impl Iterator<Item = (usize, u8)> + '_> {
        let modules = ir.conv_module_ids().len();
        if self.len() != modules {
            return Err(CoreError::Config(format!(
                "configuration covers {} modules, model `{}` has {modules}",
                self.len(),
                ir.name()
            )));
        }
        Ok(self.rates.iter().copied().enumerate())
    }

    /// Encodes the configuration as Sequitur terminals, one per module:
    /// `module_index * 1000 + rate` (the `N_(d)` notation of Figure 4).
    pub fn terminals(&self) -> Vec<u64> {
        self.rates
            .iter()
            .enumerate()
            .map(|(m, &r)| (m as u64) * 1000 + r as u64)
            .collect()
    }

    /// Decodes a Sequitur terminal back to `(module_index, rate)`.
    /// Returns `None` for end-marker terminals (≥ [`END_MARKER_BASE`]).
    pub fn decode_terminal(t: u64) -> Option<(usize, u8)> {
        if t >= END_MARKER_BASE {
            return None;
        }
        Some(((t / 1000) as usize, (t % 1000) as u8))
    }
}

/// Base of the unique per-network end-marker terminals that separate
/// concatenated configurations in the Sequitur input (the ①②③④ markers of
/// Figure 4).
pub const END_MARKER_BASE: u64 = 1_000_000;

/// How many filters remain when `total` filters are pruned at `rate`
/// percent: the `floor(total · rate / 100)` *least important* filters are
/// removed, always keeping at least one.
pub fn kept_count(total: usize, rate: u8) -> usize {
    let removed = total * rate as usize / 100;
    (total - removed).max(1)
}

/// Samples the promising subspace: `n` random configurations over
/// `num_modules` modules with rates from `rates`.
///
/// ```
/// use wootz_core::prune::{sample_subspace, PAPER_RATES};
///
/// let subspace = sample_subspace(16, &PAPER_RATES, 500, 7);
/// assert_eq!(subspace.len(), 500);
/// ```
///
/// Per-network rate-mixture weights are drawn first and per-module rates
/// sampled from them, so network sizes spread broadly ("sizes follow a
/// close-to-uniform distribution", §7.1) instead of concentrating like an
/// iid-per-module draw would. Configurations are deduplicated; sampling is
/// deterministic in `seed`.
pub fn sample_subspace(num_modules: usize, rates: &[u8], n: usize, seed: u64) -> Vec<PruneConfig> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<PruneConfig> = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut attempts = 0;
    while out.len() < n && attempts < n * 50 + 100 {
        attempts += 1;
        // Random mixture over the rate alphabet for this network.
        let mut weights: Vec<f64> = (0..rates.len())
            .map(|_| rng.gen::<f64>().max(1e-6))
            .collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let config: Vec<u8> = (0..num_modules)
            .map(|_| {
                let mut u = rng.gen::<f64>();
                for (w, &r) in weights.iter().zip(rates.iter()) {
                    if u < *w {
                        return r;
                    }
                    u -= *w;
                }
                *rates.last().expect("non-empty rate alphabet")
            })
            .collect();
        let cfg = PruneConfig { rates: config };
        if seen.insert(cfg.clone()) {
            out.push(cfg);
        }
    }
    out
}

/// Samples a "collection-2" subspace (§7.3): one rate per contiguous
/// *segment* of modules, "similar to the prior work to reduce module-wise
/// meta-parameters". `segments` contiguous runs share a rate.
pub fn sample_segment_subspace(
    num_modules: usize,
    rates: &[u8],
    segments: usize,
    n: usize,
    seed: u64,
) -> Vec<PruneConfig> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SEGMENT_SALT);
    let segments = segments.max(1).min(num_modules.max(1));
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut attempts = 0;
    while out.len() < n && attempts < n * 50 + 100 {
        attempts += 1;
        // Random segment boundaries.
        let mut cuts: Vec<usize> = (1..num_modules).collect();
        cuts.shuffle(&mut rng);
        let mut cuts: Vec<usize> = cuts.into_iter().take(segments - 1).collect();
        cuts.sort_unstable();
        cuts.push(num_modules);
        let mut rates_out = Vec::with_capacity(num_modules);
        let mut start = 0;
        for &end in &cuts {
            let rate = *rates.choose(&mut rng).expect("non-empty rate alphabet");
            for _ in start..end {
                rates_out.push(rate);
            }
            start = end;
        }
        let cfg = PruneConfig { rates: rates_out };
        if seen.insert(cfg.clone()) {
            out.push(cfg);
        }
    }
    out
}

/// Salt keeping collection-2 sampling decorrelated from collection-1 at
/// equal seeds.
const SEGMENT_SALT: u64 = 0x5e69;

/// L1 importance of each filter of a conv weight `[F, C, Kh, Kw]`.
///
/// # Panics
///
/// Panics when the weight is not rank ≥ 1.
pub fn filter_importance(weight: &Tensor) -> Vec<f32> {
    let f = weight.shape()[0];
    let chunk = weight.len() / f.max(1);
    (0..f)
        .map(|i| {
            weight.data()[i * chunk..(i + 1) * chunk]
                .iter()
                .map(|v| v.abs())
                .sum()
        })
        .collect()
}

/// Indices (ascending) of the `keep` most important filters by L1 norm.
/// Order is preserved so sliced weights keep their relative layout, as when
/// a pruned network "inherits the remaining parameters" (§7.1).
pub fn kept_filter_indices(weight: &Tensor, keep: usize) -> Vec<usize> {
    let importance = filter_importance(weight);
    let mut order: Vec<usize> = (0..importance.len()).collect();
    // Least important first; ties broken by index for determinism.
    order.sort_by(|&a, &b| {
        importance[a]
            .partial_cmp(&importance[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let keep = keep.min(importance.len());
    let mut kept: Vec<usize> = order[importance.len() - keep..].to_vec();
    kept.sort_unstable();
    kept
}

/// The kept-filter count of every prunable conv
/// ([`ModelIr::prunable_convs`]) that `parts` prune: a `(module position,
/// rate)` part keeps [`kept_count`] filters of each prunable conv of the
/// module at that position. Configurations ([`PruneConfig::parts`]) and
/// tuning blocks both derive their shape here, and the compiler builds
/// and [`crate::stats::model_stats`] counts what it returns.
///
/// # Errors
///
/// [`CoreError::Config`] for a rate ≥ 100 or a position outside the model
/// (decoded configurations and blocks skip their constructors).
pub fn pruned_widths(
    ir: &ModelIr,
    parts: impl IntoIterator<Item = (usize, u8)>,
) -> Result<BTreeMap<String, usize>> {
    let module_ids = ir.conv_module_ids();
    let mut widths = BTreeMap::new();
    for (pos, rate) in parts {
        let Some(&module) = module_ids.get(pos) else {
            return Err(CoreError::Config(format!(
                "module position {pos} is outside model `{}` ({} conv modules)",
                ir.name(),
                module_ids.len()
            )));
        };
        if rate >= 100 {
            return Err(CoreError::Config(format!(
                "pruning rate {rate}% must be < 100%"
            )));
        }
        if rate == 0 {
            continue;
        }
        for name in ir.prunable_convs_of_module(module) {
            if let Some(LayerKind::Convolution { num_output, .. }) = ir.layer(name).map(|l| &l.kind)
            {
                widths.insert(name.to_string(), kept_count(*num_output, rate));
            }
        }
    }
    Ok(widths)
}

/// Parameter count of the pruned network for `config` — the paper's
/// ModelSize: the [`crate::stats::config_stats`] total, equal to the
/// learnable scalars the compiler materializes for it.
///
/// # Errors
///
/// [`CoreError::Config`] on a module-count mismatch or a bad rate.
pub fn config_param_count(ir: &ModelIr, config: &PruneConfig) -> Result<usize> {
    Ok(crate::stats::config_stats(ir, config)?.total_params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wootz_models::{resnet50, resnet_mini};

    #[test]
    fn kept_count_floors_removal_and_keeps_one() {
        assert_eq!(kept_count(10, 30), 7);
        assert_eq!(kept_count(10, 50), 5);
        assert_eq!(kept_count(10, 70), 3);
        assert_eq!(kept_count(3, 70), 1); // 3*70/100 = 2 removed
        assert_eq!(kept_count(1, 70), 1); // never below one filter
        assert_eq!(kept_count(64, 0), 64);
    }

    #[test]
    fn config_construction_validates_rates() {
        assert!(PruneConfig::new(vec![0, 30, 70]).is_ok());
        assert!(PruneConfig::new(vec![100]).is_err());
        assert_eq!(PruneConfig::unpruned(4).rates(), &[0, 0, 0, 0]);
        assert_eq!(PruneConfig::uniform(3, 50).unwrap().rates(), &[50, 50, 50]);
    }

    #[test]
    fn terminal_encoding_round_trips() {
        let cfg = PruneConfig::new(vec![30, 0, 70]).unwrap();
        let ts = cfg.terminals();
        assert_eq!(ts, vec![30, 1000, 2070]);
        assert_eq!(PruneConfig::decode_terminal(ts[2]), Some((2, 70)));
        assert_eq!(PruneConfig::decode_terminal(END_MARKER_BASE + 3), None);
    }

    #[test]
    fn sampling_is_deterministic_and_unique() {
        let a = sample_subspace(8, &PAPER_RATES, 50, 7);
        let b = sample_subspace(8, &PAPER_RATES, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 50);
        for cfg in &a {
            assert_eq!(cfg.len(), 8);
            assert!(cfg.rates().iter().all(|r| PAPER_RATES.contains(r)));
        }
    }

    #[test]
    fn sampled_sizes_spread_widely() {
        // The mixture sampling should produce both mostly-30% and
        // mostly-70% networks across 200 draws over 16 modules.
        let configs = sample_subspace(16, &PAPER_RATES, 200, 3);
        let mean_rate =
            |c: &PruneConfig| c.rates().iter().map(|&r| r as f64).sum::<f64>() / c.len() as f64;
        let min = configs.iter().map(&mean_rate).fold(f64::INFINITY, f64::min);
        let max = configs.iter().map(mean_rate).fold(0.0, f64::max);
        assert!(min < 38.0, "min mean rate {min}");
        assert!(max > 62.0, "max mean rate {max}");
    }

    #[test]
    fn segment_subspace_uses_contiguous_rates() {
        let configs = sample_segment_subspace(12, &PAPER_RATES, 3, 20, 11);
        assert_eq!(configs.len(), 20);
        for cfg in &configs {
            // Count rate-change boundaries; must be < segments.
            let changes = cfg.rates().windows(2).filter(|w| w[0] != w[1]).count();
            assert!(changes <= 2, "{:?}", cfg.rates());
        }
    }

    #[test]
    fn importance_and_kept_indices() {
        let w = Tensor::from_vec(
            vec![
                0.1, 0.1, // filter 0: L1 = 0.2
                1.0, 1.0, // filter 1: L1 = 2.0
                0.5, -0.5, // filter 2: L1 = 1.0
            ],
            &[3, 2, 1, 1],
        )
        .unwrap();
        assert_eq!(filter_importance(&w), vec![0.2, 2.0, 1.0]);
        assert_eq!(kept_filter_indices(&w, 2), vec![1, 2]);
        assert_eq!(kept_filter_indices(&w, 1), vec![1]);
        assert_eq!(kept_filter_indices(&w, 5), vec![0, 1, 2]);
    }

    #[test]
    fn pruned_model_shrinks_only_prunable_convs() {
        let ir = resnet_mini(10);
        let n = ir.conv_module_ids().len();
        let config = PruneConfig::uniform(n, 50).unwrap();
        let widths = pruned_widths(&ir, config.parts(&ir).unwrap()).unwrap();
        // Inner convs halve; module tops are not in the map.
        let width = |name: &str| match ir.layer(name).unwrap().kind {
            LayerKind::Convolution { num_output, .. } => num_output,
            _ => panic!(),
        };
        assert_eq!(widths["res2_0_branch2a"], width("res2_0_branch2a") / 2);
        assert!(!widths.contains_key("res2_0_branch2c"));
        let mut prunable = ir.prunable_convs();
        prunable.sort_unstable();
        assert_eq!(
            widths.keys().map(String::as_str).collect::<Vec<_>>(),
            prunable
        );
        let full = crate::stats::model_stats(&ir, &BTreeMap::new()).total_params;
        assert!(config_param_count(&ir, &config).unwrap() < full);
    }

    #[test]
    fn config_length_mismatch_is_an_error() {
        let ir = resnet_mini(10);
        let config = PruneConfig::uniform(99, 30).unwrap();
        assert!(config.parts(&ir).is_err());
        assert!(config_param_count(&ir, &config).is_err());
    }

    #[test]
    fn decoded_parts_with_bad_rates_or_positions_are_errors() {
        // Serde-decoded configurations and blocks skip their constructors,
        // so the width derivation itself refuses what `kept_count` cannot
        // take and positions the model does not have.
        let ir = resnet_mini(10);
        let n = ir.conv_module_ids().len();
        let decoded: PruneConfig =
            serde_json::from_str(&format!("{{\"rates\":{:?}}}", vec![200u8; n])).unwrap();
        assert!(matches!(
            config_param_count(&ir, &decoded),
            Err(CoreError::Config(_))
        ));
        for parts in [vec![(0, 100)], vec![(n, 30)], vec![(0, 30), (n + 5, 0)]] {
            assert!(
                matches!(pruned_widths(&ir, parts.clone()), Err(CoreError::Config(_))),
                "{parts:?}"
            );
        }
        assert!(pruned_widths(&ir, [(n - 1, 99)]).is_ok());
    }

    #[test]
    fn resnet50_param_count_matches_the_paper() {
        // Table 3 footnote: "The model size of full ResNet-50 is 25.6
        // million." Our generator should land close (BN affines and the
        // 1000-way classifier included).
        let ir = resnet50(1000);
        let params = crate::stats::model_stats(&ir, &BTreeMap::new()).total_params;
        let millions = params as f64 / 1e6;
        assert!(
            (24.0..27.5).contains(&millions),
            "resnet50 has {millions:.1}M params, expected ~25.6M"
        );
    }

    #[test]
    fn deeper_pruning_means_fewer_params() {
        let ir = resnet_mini(10);
        let n = ir.conv_module_ids().len();
        let p0 = config_param_count(&ir, &PruneConfig::unpruned(n)).unwrap();
        let p30 = config_param_count(&ir, &PruneConfig::uniform(n, 30).unwrap()).unwrap();
        let p70 = config_param_count(&ir, &PruneConfig::uniform(n, 70).unwrap()).unwrap();
        assert!(p0 > p30 && p30 > p70, "{p0} {p30} {p70}");
        assert_eq!(
            p0,
            crate::stats::model_stats(&ir, &BTreeMap::new()).total_params
        );
    }
}
