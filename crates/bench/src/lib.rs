//! # wootz-bench
//!
//! The reproduction harness for every table and figure in the Wootz
//! paper's evaluation (§7):
//!
//! | Artifact | Source | Module |
//! |----------|--------|--------|
//! | Table 1 — dataset statistics + full-model accuracies | real micro training | [`real::table1`] |
//! | Table 2 — init/final accuracies, default vs block-trained | real micro training | [`real::table2`] |
//! | Figure 6 — accuracy curves | real micro training | [`real::fig6`] |
//! | Table 3 — speedups & config savings | calibrated simulation | [`simrep::table3_report`] |
//! | Table 4 — speedups vs subspace size | calibrated simulation | [`simrep::table4_report`] |
//! | Table 5 — extra speedups from the block identifier | calibrated simulation | [`simrep::table5_report`] |
//! | Figure 7 — accuracy vs model size | calibrated simulation | [`simrep::fig7_report`] |
//! | Figure 4 — Sequitur grammar/DAG example | exact algorithm run | [`simrep::fig4_report`] |
//! | Speedup under node failures/stragglers | calibrated simulation | [`simrep::faults_report`] |
//! | Cluster — simulated fault model vs the real distributed runtime | real worker processes | [`clusterrep::cluster_report`] |
//!
//! Run `cargo run -p wootz-bench --bin reproduce --release -- all` to print
//! every artifact with the paper's reference numbers alongside. Wall-clock
//! performance is measured by the repository benchmark (`BENCHMARK.json`),
//! not by this crate.

pub mod clusterrep;
pub mod real;
pub mod report;
pub mod simrep;
