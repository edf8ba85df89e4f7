//! Per-layer probes of the traced run: direct, timed calls into each
//! layer's public functions, on inputs taken from a real job of shape `J`.
//!
//! The probes are the same whatever workload is traced; what the workload
//! itself contributes (phase spans, counter increments, serve and cluster
//! numbers) is added by `main`.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wootz_cluster::Message;
use wootz_core::blocks::identify_tuning_blocks;
use wootz_core::compile::{ModeToUse, MultiplexingModel};
use wootz_core::finetune::{assemble, InitStrategy};
use wootz_core::journal::{read_journal, Journal, JournalEntry};
use wootz_core::pipeline::{
    block_pretrain_config, blocks_for_mode, journal_header, store_solver_hash, subspace_stats,
    EvalContext,
};
use wootz_data::micro_dataset;
use wootz_ir::ModelIr;
use wootz_nn::{
    evaluate_accuracy, train_classifier, Checkpoint, CompiledNet, Mode, Op, TrainConfig,
};
use wootz_par::Pool;
use wootz_store::{BlockEntry, BlockStore, StoreKey};
use wootz_tensor::ops::{self, softmax_cross_entropy};
use wootz_tensor::sgd::SgdConfig;
use wootz_tensor::{init, Tensor};
use wootz_wire::{Limits, WireReader};

use crate::catalog::Metrics;
use crate::jobs::Generator;
use crate::procs::WorkDir;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{run_in_process, Config};

/// The `job` id probe spans carry in `trace.ndjson`.
const PROBE_JOB: usize = usize::MAX;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times `f` `reps` times as spans named `name`; returns the times in
/// microseconds and the last result.
fn timed<R>(tracer: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        tracer.record(name, None, PROBE_JOB, start, end);
        times.push((end - start).as_secs_f64() * 1e6);
        last = Some(out);
    }
    (times, last.expect("at least one repetition ran"))
}

/// Runs every probe and returns the per-layer metrics they yield.
pub fn probe(cfg: Config, tracer: &Tracer) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let job = Generator::new(cfg.seed, cfg.shape).cold(0);
    let inputs = job.inputs();
    let solver = &inputs.solver;
    let batch = solver.batch_size;
    let dataset = micro_dataset(&solver.dataset, solver.seed);
    let reps = 5;

    // --- ir, sequitur + core.blocks, core.compile, nn.plan -------------
    let (us, _) = timed(tracer, "ir.parse", reps, || ModelIr::parse(&job.model_text));
    m.set("ir.parse_us", median(&us), us.len());
    let (us, blocks) = timed(tracer, "blocks.identify", reps, || {
        identify_tuning_blocks(&job.configs)
    });
    let blocks = blocks.map_err(err)?;
    let modules = inputs.model.conv_module_ids().len();
    m.set("blocks.identify_us", median(&us), us.len());
    m.set("blocks.count", blocks.blocks.len() as f64, 1);
    m.set(
        "blocks.reuse_factor",
        (job.configs.len() * modules) as f64 / blocks.blocks.len().max(1) as f64,
        1,
    );
    let (us, built) = timed(tracer, "compile.build", reps, || {
        MultiplexingModel::compile(inputs.model.clone()).and_then(|mm| {
            mm.build(&ModeToUse::Original, solver.seed)
                .map(|built| (mm, built))
        })
    });
    let (mm, mut built) = built.map_err(err)?;
    m.set("compile.build_us", median(&us), us.len());
    let logits = built.logits.ok_or("the full model has no classifier")?;
    let (us, net) = timed(tracer, "plan.build", reps, || {
        CompiledNet::new(&built.graph, &[logits])
    });
    let mut net = net.map_err(err)?;
    m.set("plan.build_us", median(&us), us.len());
    m.set("plan.slots", net.plan(Mode::Train).num_slots() as f64, 1);
    m.set(
        "plan.steady_bytes",
        net.plan(Mode::Train).steady_bytes(batch) as f64,
        1,
    );

    // --- tensor kernels at the shapes of J's graph ----------------------
    kernels(
        &built.graph,
        &built.vars,
        batch,
        cfg.threads,
        tracer,
        &mut m,
    )?;

    // --- arena: fresh allocations after the warm-up step must be zero --
    let (x, labels) = dataset.train_batch(0, batch);
    let feed: Vec<(&str, &Tensor)> = vec![(built.input_name.as_str(), &x)];
    let mut fresh_steady = 0;
    let mut peak_live = 0;
    for step in 0..4 {
        net.reset_arena_stats();
        net.forward(&mut built.vars, &feed, Mode::Train)
            .map_err(err)?;
        let loss = softmax_cross_entropy(net.activation(logits).map_err(err)?, &labels);
        built.vars.zero_grads();
        net.backward(&mut built.vars, &[(logits, &loss.dlogits)])
            .map_err(err)?;
        let stats = net.arena_stats();
        if step > 0 {
            fresh_steady += stats.fresh;
        }
        peak_live = peak_live.max(stats.peak_live_bytes);
    }
    m.set("arena.fresh_steady", fresh_steady as f64, 3);
    m.set("arena.peak_live_bytes", peak_live as f64, 4);

    // --- nn.trainer and data --------------------------------------------
    let steps = cfg.shape.max_iter.min(30);
    let train = TrainConfig {
        max_steps: steps,
        sgd: SgdConfig {
            learning_rate: solver.base_lr,
            weight_decay: solver.weight_decay,
            momentum: solver.momentum,
        },
        schedule: wootz_nn::LrSchedule::Fixed,
        eval_every: 0,
    };
    let input_name = built.input_name.clone();
    let (us, log) = timed(tracer, "trainer.train", 1, || {
        train_classifier(
            &built.graph,
            &mut built.vars,
            &input_name,
            logits,
            &train,
            |step| dataset.train_batch(step, batch),
            None,
        )
    });
    log.map_err(err)?;
    m.set("trainer.steps_per_s", steps as f64 / (us[0] / 1e6), steps);
    let (eval_x, eval_y) = dataset.test_set(256);
    let (us, accuracy) = timed(tracer, "trainer.evaluate", 3, || {
        evaluate_accuracy(
            &built.graph,
            &mut built.vars,
            &input_name,
            logits,
            &eval_x,
            &eval_y,
        )
    });
    accuracy.map_err(err)?;
    m.set(
        "trainer.eval_samples_per_s",
        eval_y.len() as f64 / (median(&us) / 1e6),
        us.len(),
    );
    let step_time = wootz_obs::histogram("trainer.step_time_us");
    m.set(
        "trainer.step_us_p50",
        step_time.quantile(0.5) as f64,
        step_time.count() as usize,
    );
    let chunk_wall = wootz_obs::histogram("par.chunk_wall_us");
    m.set(
        "par.chunk_wall_us_p50",
        chunk_wall.quantile(0.5) as f64,
        chunk_wall.count() as usize,
    );
    let (us, _) = timed(tracer, "data.batch", 20, || dataset.train_batch(7, batch));
    m.set("data.batch_us", median(&us), us.len());

    // --- one real job gives the durable artefacts the rest probes ------
    let work = WorkDir::new("probe").map_err(err)?;
    let journal_path = work.join("job.journal");
    let store = BlockStore::open(work.join("store"), None).map_err(err)?;
    tracer.time("probe.job", None, PROBE_JOB, || {
        run_in_process(&job, None, Some(&store), Some(journal_path.clone()))
    })?;
    let header = journal_header(&inputs, job.mode).map_err(err)?;
    let (_, replay) = read_journal(&journal_path).map_err(err)?;
    let (teacher, teacher_accuracy) = replay
        .full
        .clone()
        .ok_or("the probe job journaled no full model")?;

    // core.finetune: assembly and one evaluation, called directly.
    let set = blocks_for_mode(&inputs, job.mode)
        .map_err(err)?
        .ok_or("the probe job has no blocks")?;
    let checkpoints: BTreeMap<String, Checkpoint> = replay
        .blocks
        .iter()
        .map(|(k, b)| (k.clone(), b.checkpoint.clone()))
        .collect();
    let best = job
        .expect_best
        .expect("a bounded job knows its best network");
    let pairs: Vec<_> = set.composites[best]
        .parts
        .iter()
        .filter_map(|p| {
            let block = &set.blocks[p.block_index];
            checkpoints.get(&block.key()).map(|c| (block, c))
        })
        .collect();
    let (us, assembled) = timed(tracer, "finetune.assemble", reps, || {
        assemble(
            &mm,
            &job.configs[best],
            &teacher,
            InitStrategy::BlockTrained(&pairs),
            solver.seed,
        )
    });
    assembled.map_err(err)?;
    m.set("finetune.assemble_us", median(&us), us.len());
    let (sizes, flops) = subspace_stats(&inputs).map_err(err)?;
    let context = EvalContext::new(
        &inputs,
        &dataset,
        &mm,
        &teacher,
        Some(&set),
        Some(&checkpoints),
        &sizes,
        &flops,
        None,
    );
    let (us, outcome) = timed(tracer, "finetune.eval", 3, || context.evaluate(best));
    outcome.map_err(err)?;
    m.set("finetune.eval_s_p50", median(&us) / 1e6, us.len());

    // core.journal: re-write the job's own entries, then resume them.
    let mut entries = vec![JournalEntry::FullModel {
        accuracy: teacher_accuracy,
        checkpoint: teacher.clone(),
    }];
    entries.extend(replay.blocks.values().cloned().map(JournalEntry::Block));
    entries.extend(replay.evals.values().cloned().map(JournalEntry::Eval));
    let copy_path = work.join("copy.journal");
    let mut copy = Journal::create(&copy_path, &header).map_err(err)?;
    let mut append_us = Vec::new();
    for entry in &entries {
        let (us, appended) = timed(tracer, "journal.append", 1, || copy.append(entry));
        appended.map_err(err)?;
        append_us.extend(us);
    }
    drop(copy);
    m.set("journal.append_us_p50", median(&append_us), append_us.len());
    let (us, resumed) = timed(tracer, "journal.resume", 3, || {
        Journal::resume(&copy_path, &header).map(|(_, replay)| replay.len())
    });
    resumed.map_err(err)?;
    m.set("journal.resume_us", median(&us), us.len());

    // nn.checkpoint: the teacher through the wire encoding.
    let mut encoded = Vec::new();
    let (us, _) = timed(tracer, "checkpoint.encode", reps, || {
        encoded.clear();
        teacher.wire_encode(&mut encoded);
    });
    let megabytes = encoded.len() as f64 / 1e6;
    m.set(
        "checkpoint.encode_mb_per_s",
        megabytes / (median(&us) / 1e6),
        us.len(),
    );
    let (us, decoded) = timed(tracer, "checkpoint.decode", reps, || {
        Checkpoint::wire_decode(&mut WireReader::new(
            &encoded[..],
            encoded.len() as u64,
            Limits::ARTIFACT,
        ))
    });
    if decoded.map_err(err)?.content_hash() != teacher.content_hash() {
        return Err("the teacher checkpoint did not survive its wire encoding".into());
    }
    m.set(
        "checkpoint.decode_mb_per_s",
        megabytes / (median(&us) / 1e6),
        us.len(),
    );

    // store: the job's blocks into a second store, and back out.
    let solver_hash = store_solver_hash(&teacher, &block_pretrain_config(solver));
    let keyed: Vec<(StoreKey, BlockEntry)> = replay
        .blocks
        .values()
        .map(|b| {
            let key = StoreKey {
                structure: wootz_fault::fnv1a64(b.key.as_bytes()),
                dataset: solver.dataset.clone(),
                solver: solver_hash,
            };
            let entry = BlockEntry {
                block_key: b.key.clone(),
                first_loss: b.first_loss,
                last_loss: b.last_loss,
                trained_steps: b.steps as u64,
                checkpoint: b.checkpoint.clone(),
            };
            (key, entry)
        })
        .collect();
    let second = BlockStore::open(work.join("second-store"), None).map_err(err)?;
    let (mut insert_us, mut get_us) = (Vec::new(), Vec::new());
    for (key, entry) in &keyed {
        let (us, inserted) = timed(tracer, "store.insert", 1, || second.insert(key, entry));
        inserted.map_err(err)?;
        insert_us.extend(us);
    }
    for (key, entry) in &keyed {
        let (us, got) = timed(tracer, "store.get", 1, || second.get(key));
        if got.as_ref() != Some(entry) {
            return Err(format!(
                "the store returned another entry for block `{}`",
                entry.block_key
            ));
        }
        get_us.extend(us);
    }
    drop(second);
    m.set("store.insert_us_p50", median(&insert_us), insert_us.len());
    m.set("store.get_us_p50", median(&get_us), get_us.len());
    let (us, opened) = timed(tracer, "store.open", 3, || {
        BlockStore::open(work.join("second-store"), None).map(|s| s.len())
    });
    opened.map_err(err)?;
    m.set("store.open_us", median(&us), us.len());

    // wire: the block bag as the `Blocks` frame a coordinator sends.
    let message = Message::Blocks {
        index: checkpoints.into_iter().collect(),
    };
    let mut frame = Vec::new();
    let (us, written) = timed(tracer, "wire.encode", reps, || {
        frame.clear();
        message.write_to(&mut frame)
    });
    written.map_err(err)?;
    let megabytes = frame.len() as f64 / 1e6;
    m.set(
        "wire.encode_mb_per_s",
        megabytes / (median(&us) / 1e6),
        us.len(),
    );
    let (us, read) = timed(tracer, "wire.decode", reps, || {
        Message::read_from(&mut &frame[..], &Limits::DEFAULT).map(|(message, _)| message.name())
    });
    if read.map_err(err)? != message.name() {
        return Err("the Blocks frame decoded as another message".into());
    }
    m.set(
        "wire.decode_mb_per_s",
        megabytes / (median(&us) / 1e6),
        us.len(),
    );
    Ok(m)
}

/// Times matmul, convolution forward and backward, and batch norm at every
/// convolution shape of `graph`, on a private one-thread pool and a private
/// `threads`-thread pool. Rates are total work over total time across the
/// shapes, so large layers weigh as they do in a job. `resnet_mini` carries
/// no batch-norm layer, so batch norm is timed on each convolution's output,
/// where the `with_bn` variants of the model place it.
fn kernels(
    graph: &wootz_nn::Graph,
    vars: &wootz_nn::VarStore,
    batch: usize,
    threads: usize,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    struct Conv {
        x: Tensor,
        w: Tensor,
        b: Tensor,
        y: Tensor,
        dy: Tensor,
        cfg: ops::Conv2dCfg,
        /// The convolution as the matmul its im2col form runs.
        lhs: Tensor,
        rhs: Tensor,
    }
    let mut convs = Vec::new();
    for node in graph.nodes() {
        let (Op::Conv2d { weight, bias, cfg }, Some(&input)) = (&node.op, node.inputs.first())
        else {
            continue;
        };
        let wootz_nn::NodeShape::Chw(c, h, w) = graph.shape(input) else {
            continue;
        };
        let w_t = vars.value(weight).map_err(err)?.clone();
        let b_t = vars.value(bias).map_err(err)?.clone();
        let x = init::normal(&mut rng, &[batch, c, h, w], 0.0, 1.0);
        let y = ops::conv2d(&x, &w_t, &b_t, *cfg);
        let (filters, k) = (w_t.shape()[0], w_t.len() / w_t.shape()[0]);
        let positions = y.len() / (batch * filters);
        convs.push(Conv {
            dy: y.scale(0.1),
            lhs: init::normal(&mut rng, &[filters, k], 0.0, 1.0),
            rhs: init::normal(&mut rng, &[k, positions], 0.0, 1.0),
            x,
            y,
            w: w_t,
            b: b_t,
            cfg: *cfg,
        });
    }
    if convs.is_empty() {
        return Err("job shape J has no convolution layer to time".into());
    }

    let reps = 5;
    let fwd_flops = wootz_obs::counter("tensor.conv2d.flops");
    let bwd_flops = wootz_obs::counter("tensor.conv2d_backward.flops");
    for (suffix, pool) in [("t1", Pool::new(1)), ("tn", Pool::new(threads))] {
        wootz_par::with_pool(&pool, || {
            // matmul counts no flops of its own: 2·M·K·N each.
            let work: f64 = convs
                .iter()
                .map(|c| 2.0 * (c.lhs.shape()[0] * c.lhs.shape()[1] * c.rhs.shape()[1]) as f64)
                .sum();
            let (us, _) = timed(tracer, &format!("tensor.matmul.{suffix}"), reps, || {
                convs
                    .iter()
                    .map(|c| ops::matmul(&c.lhs, &c.rhs).len())
                    .sum::<usize>()
            });
            m.set(
                &format!("tensor.matmul_gflops_{suffix}"),
                work / (median(&us) * 1e3),
                us.len(),
            );

            let before = fwd_flops.get();
            let (us, _) = timed(tracer, &format!("tensor.conv2d_fwd.{suffix}"), reps, || {
                convs
                    .iter()
                    .map(|c| ops::conv2d(&c.x, &c.w, &c.b, c.cfg).len())
                    .sum::<usize>()
            });
            let work = (fwd_flops.get() - before) as f64 / reps as f64;
            m.set(
                &format!("tensor.conv2d_fwd_gflops_{suffix}"),
                work / (median(&us) * 1e3),
                us.len(),
            );

            let before = bwd_flops.get();
            let (us, _) = timed(tracer, &format!("tensor.conv2d_bwd.{suffix}"), reps, || {
                convs
                    .iter()
                    .map(|c| ops::conv2d_backward(&c.x, &c.w, &c.dy, c.cfg).dx.len())
                    .sum::<usize>()
            });
            let work = (bwd_flops.get() - before) as f64 / reps as f64;
            m.set(
                &format!("tensor.conv2d_bwd_gflops_{suffix}"),
                work / (median(&us) * 1e3),
                us.len(),
            );

            if suffix == "tn" {
                // Read once, written once, 4 bytes an element.
                let bytes: f64 = convs.iter().map(|c| 8.0 * c.y.len() as f64).sum();
                let (us, _) = timed(tracer, "tensor.batch_norm", reps, || {
                    convs
                        .iter()
                        .map(|c| {
                            let channels = c.y.shape()[1];
                            let (gamma, beta) =
                                (Tensor::ones(&[channels]), Tensor::zeros(&[channels]));
                            ops::batch_norm(&c.y, &gamma, &beta, 1e-5, None).0.len()
                        })
                        .sum::<usize>()
                });
                m.set("tensor.bn_gb_per_s", bytes / (median(&us) * 1e3), us.len());
            }
        });
    }
    Ok(())
}
