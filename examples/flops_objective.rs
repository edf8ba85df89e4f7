//! Pruning under the computational-cost objective: `min Flops` — the
//! extension of the paper's objective format covering the "minimizing the
//! amount of computations" goal §2 lists.
//!
//! Parameter count and FLOPs disagree on *which* network is smallest:
//! late-stage convolutions hold most of the parameters, while early
//! high-resolution convolutions burn most of the FLOPs. This example prunes
//! the same subspace under both objectives and shows the chosen networks
//! differ accordingly.
//!
//! ```sh
//! cargo run --release -p wootz-bench --example flops_objective
//! ```

use wootz_core::pipeline::{run_wootz, RunMode, WootzInputs};
use wootz_core::prune::{config_param_count, sample_subspace, PAPER_RATES};
use wootz_core::stats::{config_flop_count, model_stats};
use wootz_data::micro_dataset;
use wootz_ir::{Objective, SolverConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = micro_dataset("flowers102", 7);
    let model = wootz_models::resnet_mini(dataset.spec().classes);
    let n = model.conv_module_ids().len();

    let stats = model_stats(&model, &Default::default());
    println!(
        "full `{}`: {} params, {} FLOPs/sample\n",
        model.name(),
        stats.total_params,
        stats.total_flops
    );

    let subspace = sample_subspace(n, &PAPER_RATES, 10, 7);
    println!("{:<4} {:>10} {:>12}", "cfg", "params", "flops");
    for (i, c) in subspace.iter().enumerate() {
        println!(
            "{i:<4} {:>10} {:>12}   rates {:?}",
            config_param_count(&model, c)?,
            config_flop_count(&model, c)?,
            c.rates()
        );
    }

    let solver = SolverConfig {
        dataset: "flowers102".into(),
        base_lr: 0.02,
        max_iter: 150,
        batch_size: 8,
        pretrain_lr: 0.02,
        pretrain_iter: 60,
        eval_every: 30,
        seed: 7,
        ..SolverConfig::default()
    };

    for objective_text in [
        "min ModelSize\nconstraint Accuracy >= 0.5",
        "min Flops\nconstraint Accuracy >= 0.5",
    ] {
        let inputs = WootzInputs {
            model: model.clone(),
            subspace: subspace.clone(),
            solver: solver.clone(),
            objective: Objective::parse(objective_text)?,
        };
        let run = run_wootz(&inputs, &dataset, RunMode::Composability, None)?;
        println!("\nobjective: {}", objective_text.replace('\n', " | "));
        match &run.best {
            Some(best) => {
                let flops = config_flop_count(&model, &inputs.subspace[best.config_index])?;
                println!(
                    "  chosen: cfg #{} -> {} params, {flops} FLOPs, accuracy {:.3}",
                    best.config_index, best.model_size, best.accuracy
                );
            }
            None => println!("  no configuration met the objective"),
        }
    }
    Ok(())
}
