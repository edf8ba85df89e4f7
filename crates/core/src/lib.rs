//! # wootz-core
//!
//! Composability-based CNN pruning — the primary contribution of
//! *"Wootz: A Compiler-Based Framework for Fast CNN Pruning via
//! Composability"* (PLDI 2019) — implemented end to end:
//!
//! * [`prune`] — pruning configurations over convolution modules, promising
//!   subspace sampling, L1 filter importance, pruned-model derivation and
//!   analytic parameter counting;
//! * [`stats`] — per-layer parameter/FLOP accounting and the
//!   computational-cost pruning metric;
//! * [`analysis`] — dataflow analyses over the model IR (module interfaces,
//!   channel origins, pruned-weight inheritance maps);
//! * [`blocks`] — the hierarchical tuning-block identifier (§5): Sequitur
//!   over the concatenated subspace, rule DAG post-order traversal with the
//!   paper's two heuristics, composite vectors;
//! * [`optimal`] — an exhaustive solver of the (NP-hard) optimal
//!   tuning-block definition problem on tiny instances, the ablation
//!   baseline for the heuristic;
//! * [`compile`] — the Wootz compiler: lowers a Prototxt model to the
//!   *multiplexing model*, a single builder that materializes the original
//!   network, the Teacher–Student pre-training structure, or a pruned
//!   network for global fine-tuning depending on its `mode_to_use` and
//!   `prune_info` arguments (§6.2);
//! * [`codegen`] — emission of the equivalent TensorFlow-Slim Python
//!   script (the textual artifact the paper's compiler produces);
//! * [`pretrain`] — Teacher–Student tuning-block pre-training with
//!   activation-map reconstruction loss and concurrent block grouping
//!   (§6.1);
//! * [`finetune`] — block-trained network assembly and global fine-tuning;
//! * [`explore`] — objective-ordered exploration of the promising subspace
//!   across one or more workers, supervised against failures (retry,
//!   skip-with-record, panic capture, deterministic fault injection);
//! * [`explorer`] — pluggable exploration strategies (fixed subspace,
//!   Taylor-saliency candidate synthesis, seeded bandit policy) behind a
//!   propose/observe engine with journaled, replayable trajectories;
//! * [`journal`] — the append-only run journal (checksummed binary wire
//!   records) that makes long exploration runs crash-resumable;
//! * [`recovery`] — journal quarantine + degradation reporting for
//!   damaged artifacts (the journal scanner's "corrupt" verdict lands
//!   here);
//! * [`pipeline`] — the end-to-end driver tying everything together
//!   (Figure 2).

#![warn(missing_docs)]

pub mod analysis;
pub mod blocks;
pub mod codegen;
pub mod compile;
mod error;
pub mod explore;
pub mod explorer;
pub mod finetune;
pub mod journal;
pub mod optimal;
pub mod pipeline;
pub mod pretrain;
pub mod prune;
pub mod recovery;
pub mod stats;

pub use error::CoreError;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
