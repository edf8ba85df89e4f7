//! Property test for the planned executor: for a large family of generated
//! graphs (convs, batch-norm, pools, residual adds, concats, stop-gradients)
//! the planned forward/backward must be **bit-identical** to the reference
//! interpreter — activations, losses, every parameter and every gradient —
//! in both train and eval mode, across multiple SGD steps, with the arena
//! performing zero fresh allocations once warm.

use wootz_nn::{
    backward, forward, forward_eval, CompiledNet, Graph, GraphBuilder, Mode, NodeId, VarStore,
};
use wootz_tensor::ops::softmax_cross_entropy;
use wootz_tensor::Tensor;

/// Deterministic 64-bit LCG (SplitMix-style) so every test run sees the
/// same ≥100 graphs.
fn next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let z = *s;
    (z ^ (z >> 29)).wrapping_mul(0xBF58476D1CE4E5B9) >> 17
}

/// Builds a random small CNN: a trunk of conv/bn/relu segments with
/// occasional pooling, residual-add branches (sometimes through a
/// stop-gradient), channel concats, and a GAP + dense head.
fn gen_graph(seed: u64) -> (Graph, VarStore, NodeId) {
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut b = GraphBuilder::new(seed);
    let c0 = 1 + (next(&mut s) % 2) as usize;
    let mut cur = b.input("data", (c0, 6, 6));
    let mut ch = c0;
    let mut hw = 6usize;
    let n_seg = 2 + (next(&mut s) % 3) as usize;
    for i in 0..n_seg {
        match next(&mut s) % 6 {
            0 | 1 => {
                // Plain conv [+ bn] [+ relu], shape-preserving.
                let f = 1 + (next(&mut s) % 3) as usize;
                let k = [1usize, 3][(next(&mut s) % 2) as usize];
                cur = b.conv2d(&format!("c{i}"), cur, f, k, 1, k / 2).unwrap();
                ch = f;
                if next(&mut s).is_multiple_of(2) {
                    cur = b.batch_norm(&format!("bn{i}"), cur).unwrap();
                }
                if next(&mut s).is_multiple_of(2) {
                    cur = b.relu(&format!("r{i}"), cur).unwrap();
                }
            }
            2 => {
                // Residual join: two same-shaped conv branches, optionally
                // with a stop-gradient on the second.
                let f = 1 + (next(&mut s) % 3) as usize;
                let b1 = b.conv2d(&format!("a{i}"), cur, f, 3, 1, 1).unwrap();
                let mut b2 = b.conv2d(&format!("b{i}"), cur, f, 1, 1, 0).unwrap();
                if next(&mut s).is_multiple_of(2) {
                    b2 = b.stop_gradient(&format!("sg{i}"), b2).unwrap();
                }
                cur = b.add(&format!("add{i}"), &[b1, b2]).unwrap();
                ch = f;
            }
            3 => {
                // Channel concat of two conv branches.
                let f1 = 1 + (next(&mut s) % 2) as usize;
                let f2 = 1 + (next(&mut s) % 2) as usize;
                let b1 = b.conv2d(&format!("p{i}"), cur, f1, 3, 1, 1).unwrap();
                let b2 = b.conv2d(&format!("q{i}"), cur, f2, 1, 1, 0).unwrap();
                cur = b.concat(&format!("cat{i}"), &[b1, b2]).unwrap();
                ch = f1 + f2;
            }
            4 => {
                // Pool (max or avg) if the map is still large enough.
                if hw >= 2 {
                    cur = if next(&mut s).is_multiple_of(2) {
                        b.max_pool(&format!("mp{i}"), cur, 2, 2, 0).unwrap()
                    } else {
                        b.avg_pool(&format!("ap{i}"), cur, 2, 2, 0).unwrap()
                    };
                    hw = (hw - 2) / 2 + 1;
                }
            }
            _ => {
                // Bare stop-gradient on the trunk.
                cur = b.stop_gradient(&format!("tsg{i}"), cur).unwrap();
            }
        }
    }
    let _ = ch;
    let g = b.global_avg_pool("gap", cur).unwrap();
    let logits = b.dense("head", g, 3).unwrap();
    let (graph, vars) = b.finish();
    (graph, vars, logits)
}

fn assert_vars_bit_identical(a: &VarStore, b: &VarStore, ctx: &str) {
    for ((na, pa), (nb, pb)) in a.iter().zip(b.iter()) {
        assert_eq!(na, nb, "{ctx}: variable order diverged");
        assert_eq!(
            pa.value.data(),
            pb.value.data(),
            "{ctx}: value of `{na}` diverged"
        );
        assert_eq!(
            pa.grad.data(),
            pb.grad.data(),
            "{ctx}: grad of `{na}` diverged"
        );
    }
}

/// Runs `steps` interpreter steps and `steps` planned steps from identical
/// starting parameters and demands bitwise agreement throughout.
fn check_case(seed: u64, steps: usize) {
    let (graph, vars, logits) = gen_graph(seed);
    let mut vars_i = vars.clone();
    let mut vars_p = vars;

    let batch = 3usize;
    let c0 = graph.shape(0).channels().unwrap();
    let input = Tensor::from_fn(&[batch, c0, 6, 6], |i| {
        (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 997) as f32) / 997.0 - 0.5
    });
    let labels = vec![0usize, 1, 2];
    let sgd = wootz_tensor::sgd::SgdConfig {
        learning_rate: 0.05,
        weight_decay: 1e-4,
        momentum: 0.9,
    };

    let mut net = CompiledNet::new(&graph, &[logits]).expect("plan build");
    for step in 0..steps {
        // Reference interpreter step.
        let pass = forward(&graph, &mut vars_i, &[("data", &input)], Mode::Train).unwrap();
        let out_i = softmax_cross_entropy(pass.activation(logits), &labels);
        vars_i.zero_grads();
        backward(
            &graph,
            &mut vars_i,
            &pass,
            &[(logits, out_i.dlogits.clone())],
        )
        .unwrap();

        // Planned step.
        net.forward(&mut vars_p, &[("data", &input)], Mode::Train)
            .unwrap();
        let out_p = softmax_cross_entropy(net.activation(logits).unwrap(), &labels);
        vars_p.zero_grads();
        net.backward(&mut vars_p, &[(logits, &out_p.dlogits)])
            .unwrap();

        assert_eq!(
            out_i.loss.to_bits(),
            out_p.loss.to_bits(),
            "seed {seed} step {step}: loss diverged ({} vs {})",
            out_i.loss,
            out_p.loss
        );
        assert_vars_bit_identical(
            &vars_i,
            &vars_p,
            &format!("seed {seed} step {step} post-bwd"),
        );

        vars_i.sgd_step(&sgd);
        vars_p.sgd_step(&sgd);

        if step == 1 {
            // Shapes repeat step to step: once warm, the arena must satisfy
            // every take from the pool.
            net.reset_arena_stats();
        }
        if step >= 2 {
            let st = net.arena_stats();
            assert_eq!(
                st.fresh, 0,
                "seed {seed} step {step}: steady-state arena allocated fresh buffers"
            );
        }
    }

    // Eval agreement (shared-store interpreter vs planned).
    let pass = forward_eval(&graph, &vars_i, &[("data", &input)]).unwrap();
    net.forward_eval(&vars_p, &[("data", &input)]).unwrap();
    assert_eq!(
        pass.activation(logits).data(),
        net.activation(logits).unwrap().data(),
        "seed {seed}: eval logits diverged"
    );
}

#[test]
fn planned_matches_interpreter_on_generated_graphs() {
    // ≥100 generated topologies, 3 SGD steps each, train + eval.
    for seed in 0..110u64 {
        check_case(seed, 3);
    }
}

#[test]
fn planned_matches_interpreter_with_multiple_seeds() {
    // Two loss ports feeding the same trunk — the Teacher–Student shape.
    let mut b = GraphBuilder::new(5);
    let x = b.input("data", (1, 4, 4));
    let c = b.conv2d("c1", x, 2, 3, 1, 1).unwrap();
    let r1 = b.relu("r1", c).unwrap();
    let r2 = b.relu("r2", c).unwrap();
    let (graph, vars) = b.finish();
    let mut vars_i = vars.clone();
    let mut vars_p = vars;
    let input = Tensor::from_fn(&[2, 1, 4, 4], |i| (i as f32).sin());

    let pass = forward(&graph, &mut vars_i, &[("data", &input)], Mode::Train).unwrap();
    let d1 = Tensor::from_fn(pass.activation(r1).shape(), |i| 0.1 * i as f32);
    let d2 = Tensor::from_fn(pass.activation(r2).shape(), |i| -0.2 * i as f32);
    vars_i.zero_grads();
    backward(
        &graph,
        &mut vars_i,
        &pass,
        &[(r1, d1.clone()), (r2, d2.clone())],
    )
    .unwrap();

    let mut net = CompiledNet::new(&graph, &[r1, r2]).unwrap();
    net.forward(&mut vars_p, &[("data", &input)], Mode::Train)
        .unwrap();
    vars_p.zero_grads();
    net.backward(&mut vars_p, &[(r1, &d1), (r2, &d2)]).unwrap();

    assert_vars_bit_identical(&vars_i, &vars_p, "multi-seed");
}
