//! Edge-case coverage for the planned executor that the broad
//! `plan_equivalence` property test does not reach directly:
//!
//! * eval-mode `keep` correctness when a *mid-graph* metric node is
//!   requested as an output (not just the final logits);
//! * recovery after an aborted step: a forward pass whose backward never
//!   runs (a panic or injected fault in the driver) must not leak arena
//!   buffers — `reset_pass` at the next forward recycles the leftovers and
//!   the executor stays in its zero-allocation steady state;
//! * input validation parity: a bad feed fails identically before and
//!   after a successful pass, and the state stays usable.

use wootz_nn::{
    forward_eval, CompiledNet, ExecPlan, Graph, GraphBuilder, Mode, NodeId, PlanState, VarStore,
};
use wootz_tensor::ops::softmax_cross_entropy;
use wootz_tensor::Tensor;

/// input → conv → bn → relu → pool → gap → dense. Returns the graph, the
/// store, a mid-graph node (the relu) and the logits node.
fn small_net() -> (Graph, VarStore, NodeId, NodeId) {
    let mut b = GraphBuilder::new(42);
    let x = b.input("data", (2, 6, 6));
    let c = b.conv2d("conv", x, 3, 3, 1, 1).unwrap();
    let n = b.batch_norm("bn", c).unwrap();
    let r = b.relu("relu", n).unwrap();
    let p = b.max_pool("pool", r, 2, 2, 0).unwrap();
    let g = b.global_avg_pool("gap", p).unwrap();
    let d = b.dense("fc", g, 5).unwrap();
    let (graph, vars) = b.finish();
    (graph, vars, r, d)
}

fn batch(seed: u64, n: usize) -> Tensor {
    let mut s = seed;
    let data: Vec<f32> = (0..n * 2 * 6 * 6)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, &[n, 2, 6, 6]).unwrap()
}

#[test]
fn eval_keep_set_preserves_a_mid_graph_metric_node() {
    let (graph, vars, relu, logits) = small_net();
    let x = batch(1, 3);
    let feed = [("data", &x)];

    // An eval plan asked to keep a mid-graph node *and* the head.
    let plan = ExecPlan::for_eval(&graph, &[relu, logits]).unwrap();
    assert!(plan.is_kept(relu) && plan.is_kept(logits));
    let mut state = PlanState::new(&graph);
    wootz_nn::planned_forward_eval(&graph, &plan, &mut state, &vars, &feed).unwrap();

    // Both kept activations are bit-identical to the interpreter's.
    let reference = forward_eval(&graph, &vars, &feed).unwrap();
    for id in [relu, logits] {
        let got = state.activation(&plan, id).unwrap();
        let want = reference.activation(id);
        assert_eq!(got.shape(), want.shape());
        let same = got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "kept node {id} diverged from the interpreter");
    }

    // A node the plan released (the conv behind the kept relu) must
    // error, not hand back a stale buffer.
    let conv = relu - 2; // conv precedes bn precedes relu
    assert!(!plan.is_kept(conv));
    assert!(state.activation(&plan, conv).is_err());

    // Keeping a mid-graph node must not *shrink* what a logits-only plan
    // retains: the released interior is still released.
    let lean = ExecPlan::for_eval(&graph, &[logits]).unwrap();
    assert!(!lean.is_kept(relu));
    assert!(lean.num_slots() <= plan.num_slots());
}

#[test]
fn aborted_step_does_not_leak_arena_buffers() {
    let (graph, mut vars, _relu, logits) = small_net();
    let x = batch(2, 2);
    let labels = [0usize, 3];
    let feed = [("data", &x)];
    let mut net = CompiledNet::new(&graph, &[logits]).unwrap();

    // Warm-up: one complete step.
    let step = |net: &mut CompiledNet, vars: &mut VarStore| {
        net.forward(vars, &feed, Mode::Train).unwrap();
        let out = softmax_cross_entropy(net.activation(logits).unwrap(), &labels);
        vars.zero_grads();
        net.backward(vars, &[(logits, &out.dlogits)]).unwrap();
        out.loss
    };
    step(&mut net, &mut vars);
    net.reset_arena_stats();

    // Aborted steps: forward runs, "the driver panics", backward never
    // happens. The kept output and the retained backward inputs are
    // stranded — until the next forward's reset_pass recycles them.
    for _ in 0..3 {
        net.forward(&mut vars, &feed, Mode::Train).unwrap();
        // no backward: simulated abort
    }
    let loss = step(&mut net, &mut vars);
    assert!(loss.is_finite());
    let st = net.arena_stats();
    assert_eq!(
        st.fresh, 0,
        "aborted steps forced fresh allocations: {st:?}"
    );

    // Live bytes after a completed step equal the kept output's footprint
    // (everything else was recycled): no monotonic growth across aborts.
    let live_after_first = net.arena_stats().live_bytes;
    for _ in 0..2 {
        net.forward(&mut vars, &feed, Mode::Train).unwrap();
    }
    step(&mut net, &mut vars);
    assert_eq!(net.arena_stats().live_bytes, live_after_first);
    assert_eq!(net.arena_stats().fresh, 0);
}

#[test]
fn bad_feed_fails_cleanly_and_state_stays_usable() {
    let (graph, mut vars, _relu, logits) = small_net();
    let good = batch(3, 2);
    let bad = batch(3, 8).reshape(&[2, 8, 6, 6]).unwrap(); // wrong channels
    let mut net = CompiledNet::new(&graph, &[logits]).unwrap();

    assert!(net
        .forward(&mut vars, &[("data", &bad)], Mode::Train)
        .is_err());
    assert!(net
        .forward(&mut vars, &[("other", &good)], Mode::Train)
        .is_err());

    // The failed attempts must not wedge the state: a good feed still
    // produces the interpreter's bits.
    net.forward(&mut vars, &[("data", &good)], Mode::Eval)
        .unwrap();
    let planned = net.activation(logits).unwrap().data().to_vec();
    let reference = forward_eval(&graph, &vars, &[("data", &good)]).unwrap();
    let want = reference.activation(logits).data();
    assert!(planned
        .iter()
        .zip(want)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}
