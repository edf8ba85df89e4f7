//! The seeded job-script generator: every pruning job any workload runs is
//! made here, from `--seed` alone. The pipeline only ever sees the generated
//! inputs (model text, subspace, solver text, objective text).
//!
//! One job shape `J` is shared by all workloads so their numbers are
//! comparable: `resnet_mini(8)` on the `flowers102` micro dataset, a
//! 12-configuration subspace and the solver of [`Shape::FULL`].
//!
//! The objective is `max Accuracy` under a `ModelSize <=` bound rather than
//! `min ModelSize` under an accuracy bound. On the micro dataset the accuracy
//! of a fine-tuned network is close to noise (0.15–0.94 with no relation to
//! size), so the number of configurations an accuracy-bounded job evaluates
//! before it stops swings between 1 and 12 from seed to seed, and job time
//! with it. A size bound makes the stopping point analytic: exploration walks
//! size-descending, every configuration above the bound violates it, and the
//! first one at or below it ends the search. The generator places the bound
//! on the 4th-largest configuration, so every job evaluates exactly
//! [`EVALS_TO_BEST`] configurations (a third of its subspace) and its best
//! network is known before it runs — which the workloads use as an
//! independent reference for the output check.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wootz_core::pipeline::{RunMode, WootzInputs};
use wootz_core::prune::{config_param_count, sample_subspace, PruneConfig, PAPER_RATES};
use wootz_ir::{ModelIr, Objective, SolverConfig};

/// Dataset every job trains on.
pub const DATASET: &str = "flowers102";
/// Exploration round width (`num_workers`): two evaluations per round, one
/// per worker process in `cluster_tcp`.
pub const ROUND_WIDTH: usize = 2;
/// Configurations a bounded job evaluates before it finds its best network.
pub const EVALS_TO_BEST: usize = 4;

/// The solver and subspace size of a job. `FULL` is job shape `J`; `SMOKE`
/// keeps every code path but trains for a few steps only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub max_iter: usize,
    pub pretrain_iter: usize,
    pub eval_every: usize,
    pub batch_size: usize,
    pub configs: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        max_iter: 60,
        pretrain_iter: 20,
        eval_every: 20,
        batch_size: 8,
        configs: 12,
    };
    pub const SMOKE: Shape = Shape {
        max_iter: 4,
        pretrain_iter: 2,
        eval_every: 4,
        batch_size: 4,
        configs: 6,
    };

    fn solver_text(&self, seed: u64) -> String {
        format!(
            "dataset: \"{DATASET}\"\nbase_lr: 0.03\nmax_iter: {}\nbatch_size: {}\n\
             pretrain_iter: {}\neval_every: {}\nnum_workers: {ROUND_WIDTH}\nseed: {seed}\n",
            self.max_iter, self.batch_size, self.pretrain_iter, self.eval_every
        )
    }
}

/// One generated job, as the four input texts a tenant would submit plus
/// what the generator knows about its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub model_text: String,
    pub configs: Vec<PruneConfig>,
    pub solver_text: String,
    pub objective_text: String,
    pub mode: RunMode,
    /// Configurations the job must evaluate before it stops.
    pub expect_evals: usize,
    /// Index of the best network when the objective fixes it analytically.
    pub expect_best: Option<usize>,
}

impl JobSpec {
    /// Parses the texts into pipeline inputs, exactly as `wootz prune` and
    /// the serve daemon do.
    pub fn inputs(&self) -> WootzInputs {
        WootzInputs {
            model: ModelIr::parse(&self.model_text).expect("generated model text parses"),
            subspace: self.configs.clone(),
            solver: SolverConfig::parse(&self.solver_text).expect("generated solver parses"),
            objective: Objective::parse(&self.objective_text).expect("generated objective parses"),
        }
    }

    /// The subspace as the JSON rate rows `SubmitJob` carries.
    pub fn configs_json(&self) -> String {
        let rows: Vec<String> = self
            .configs
            .iter()
            .map(|c| {
                let rates: Vec<String> = c.rates().iter().map(u8::to_string).collect();
                format!("[{}]", rates.join(","))
            })
            .collect();
        format!("[{}]", rows.join(","))
    }

    /// The serve daemon's spelling of [`JobSpec::mode`].
    pub fn mode_text(&self) -> &'static str {
        match self.mode {
            RunMode::Baseline => "baseline",
            RunMode::Composability => "composability",
            RunMode::ComposabilityHierarchical => "hierarchical",
        }
    }

    /// The same job under another objective: a new job id for the daemon,
    /// the same tuning blocks.
    fn with_objective(&self, text: &str, expect_evals: usize) -> JobSpec {
        JobSpec {
            objective_text: text.to_string(),
            expect_evals,
            expect_best: None,
            ..self.clone()
        }
    }
}

/// A serve tenant's traffic for one model: a novel job, the same inputs
/// under two other objectives, and exact resubmissions of all three.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    pub cold: JobSpec,
    pub warm: [JobSpec; 2],
}

/// Derives an independent 64-bit stream value from the run seed.
fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(stream.as_bytes());
    bytes.extend_from_slice(&index.to_le_bytes());
    wootz_fault::fnv1a64(&bytes)
}

/// Solver seeds stay below 2^31 so the prototxt number round-trips exactly.
fn solver_seed(seed: u64, stream: &str, index: u64) -> u64 {
    derive(seed, stream, index) % (1 << 31)
}

/// Generates every job of a run from `--seed`.
#[derive(Clone)]
pub struct Generator {
    seed: u64,
    shape: Shape,
    model: ModelIr,
    model_text: String,
}

impl Generator {
    pub fn new(seed: u64, shape: Shape) -> Generator {
        let model = wootz_models::resnet_mini(8);
        let model_text = model.to_prototxt();
        Generator {
            seed,
            shape,
            model,
            model_text,
        }
    }

    fn sizes(&self, configs: &[PruneConfig]) -> Vec<usize> {
        configs
            .iter()
            .map(|c| config_param_count(&self.model, c).expect("generated config fits the model"))
            .collect()
    }

    /// Places the size bound on the [`EVALS_TO_BEST`]-th largest
    /// configuration. `None` when sizes tie around the bound, which would
    /// move the stopping point.
    fn bound(&self, configs: &[PruneConfig]) -> Option<(usize, usize)> {
        let sizes = self.sizes(configs);
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(sizes[i]), i));
        let at = order[EVALS_TO_BEST - 1];
        let above = sizes.iter().filter(|&&s| s > sizes[at]).count();
        let tied = sizes.iter().filter(|&&s| s == sizes[at]).count();
        (above == EVALS_TO_BEST - 1 && tied == 1).then_some((sizes[at], at))
    }

    fn bounded_job(
        &self,
        configs: Vec<PruneConfig>,
        solver_seed: u64,
        mode: RunMode,
    ) -> Option<JobSpec> {
        let (bound, best) = self.bound(&configs)?;
        Some(JobSpec {
            model_text: self.model_text.clone(),
            configs,
            solver_text: self.shape.solver_text(solver_seed),
            objective_text: format!("max Accuracy\nconstraint ModelSize <= {bound}\n"),
            mode,
            expect_evals: EVALS_TO_BEST,
            expect_best: Some(best),
        })
    }

    /// Job `index` of stream `stream`: a fresh sampled subspace under its
    /// own solver seed, so nothing it needs is in any cache.
    pub fn novel(&self, stream: &str, index: u64, mode: RunMode) -> JobSpec {
        let modules = self.model.conv_module_ids().len();
        let solver = solver_seed(self.seed, stream, index);
        (0..)
            .find_map(|attempt| {
                let sample = derive(self.seed, stream, index).wrapping_add(attempt);
                let configs = sample_subspace(modules, &PAPER_RATES, self.shape.configs, sample);
                self.bounded_job(configs, solver, mode)
            })
            .expect("some sampled subspace has distinct sizes around the bound")
    }

    /// The jobs `prune_cold` and `cluster_tcp` both run.
    pub fn cold(&self, index: u64) -> JobSpec {
        self.novel("cold", index, RunMode::ComposabilityHierarchical)
    }

    /// The job that seeds `prune_warm`'s store and the second-tenant jobs
    /// that follow it (see [`WarmJobs`]).
    pub fn warm(&self) -> WarmJobs {
        let sampled = self.novel("warm-seed", 0, RunMode::Composability);
        let solver = SolverConfig::parse(&sampled.solver_text)
            .expect("generated solver parses")
            .seed;
        let (cover, rest) = cover_first(&sampled.configs);
        let ordered: Vec<PruneConfig> = cover.iter().chain(&rest).cloned().collect();
        let seed_job = self
            .bounded_job(ordered, solver, RunMode::Composability)
            .expect("reordering a subspace keeps its sizes distinct around the bound");
        let pool = crossover_pool(&seed_job.configs)
            .into_iter()
            .filter(|c| !cover.contains(c))
            .collect();
        WarmJobs {
            generator: self.clone(),
            seed_job,
            solver,
            cover,
            pool,
        }
    }

    /// Family `index` of serve client `client`.
    pub fn family(&self, client: usize, index: u64) -> Family {
        let cold = self.novel(&format!("serve-{client}"), index, RunMode::Composability);
        // Size-ascending objectives with a vacuous accuracy floor stop after
        // the first round whatever the accuracies are.
        let warm = [
            cold.with_objective("min ModelSize\nconstraint Accuracy >= 0\n", ROUND_WIDTH),
            cold.with_objective("min Flops\nconstraint Accuracy >= 0\n", ROUND_WIDTH),
        ];
        Family { cold, warm }
    }
}

/// The warm-job stream of one run.
///
/// Every warm job shares the seed job's solver, so the teacher and the store
/// keys match, and needs exactly the seed job's `(module, rate)` pairs, so
/// the seed job published every block it asks for. Its subspace opens with
/// the same few configurations as the seed job's (`cover`, which introduce
/// every pair): blocks are pre-trained in groups formed in order of first
/// appearance, so only then would a cold run of the job train bit-identical
/// blocks — which is what the cold control of `prune_warm` checks. The rest
/// of the subspace is a seeded draw from crossovers of the seed job's
/// configurations.
pub struct WarmJobs {
    generator: Generator,
    pub seed_job: JobSpec,
    solver: u64,
    cover: Vec<PruneConfig>,
    pool: Vec<PruneConfig>,
}

impl WarmJobs {
    pub fn job(&self, index: u64) -> JobSpec {
        let g = &self.generator;
        (0..)
            .find_map(|attempt| {
                let draw = derive(g.seed, "warm", index).wrapping_add(attempt);
                let mut pool = self.pool.clone();
                pool.shuffle(&mut ChaCha8Rng::seed_from_u64(draw));
                pool.truncate(g.shape.configs - self.cover.len());
                let configs = self.cover.iter().cloned().chain(pool).collect();
                g.bounded_job(configs, self.solver, RunMode::Composability)
            })
            .expect("some draw has distinct sizes around the bound")
    }
}

/// Splits `configs` into a greedy cover — repeatedly the configuration that
/// introduces the most `(module, rate)` pairs not seen yet, until none is
/// new — and the rest, in their original order.
fn cover_first(configs: &[PruneConfig]) -> (Vec<PruneConfig>, Vec<PruneConfig>) {
    let pairs =
        |c: &PruneConfig| -> Vec<(usize, u8)> { c.rates().iter().copied().enumerate().collect() };
    let mut seen = std::collections::HashSet::new();
    let mut rest: Vec<PruneConfig> = configs.to_vec();
    let mut cover = Vec::new();
    loop {
        let news = |c: &PruneConfig| pairs(c).iter().filter(|p| !seen.contains(*p)).count();
        // `max_by_key` keeps the last maximum; reversed, that is the first.
        let Some((at, gain)) = rest
            .iter()
            .enumerate()
            .rev()
            .map(|(i, c)| (i, news(c)))
            .max_by_key(|&(_, n)| n)
        else {
            break;
        };
        if gain == 0 {
            break;
        }
        let next = rest.remove(at);
        seen.extend(pairs(&next));
        cover.push(next);
    }
    (cover, rest)
}

/// `base` plus every crossover that takes even modules from one base
/// configuration and odd modules from another: no `(module, rate)` pair in
/// the pool is new, so the module-level block set is `base`'s.
fn crossover_pool(base: &[PruneConfig]) -> Vec<PruneConfig> {
    let mut pool: Vec<PruneConfig> = base.to_vec();
    let mut seen: std::collections::HashSet<Vec<u8>> =
        base.iter().map(|c| c.rates().to_vec()).collect();
    for a in base {
        for b in base {
            let mixed: Vec<u8> = a
                .rates()
                .iter()
                .zip(b.rates())
                .enumerate()
                .map(|(m, (&x, &y))| if m % 2 == 0 { x } else { y })
                .collect();
            if seen.insert(mixed.clone()) {
                pool.push(PruneConfig::new(mixed).expect("rates come from valid configs"));
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: u64) -> Vec<JobSpec> {
        let g = Generator::new(seed, Shape::FULL);
        let warm = g.warm();
        let family = g.family(1, 2);
        vec![
            g.cold(0),
            g.cold(1),
            warm.seed_job.clone(),
            warm.job(0),
            warm.job(5),
            family.cold,
            family.warm[0].clone(),
            family.warm[1].clone(),
        ]
    }

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        assert_eq!(script(7), script(7));
        let (a, b) = (script(7), script(8));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn bounded_jobs_stop_at_the_fourth_largest_configuration() {
        let g = Generator::new(3, Shape::FULL);
        for index in 0..20 {
            let job = g.cold(index);
            assert_eq!(job.configs.len(), Shape::FULL.configs);
            let sizes = g.sizes(&job.configs);
            let best = job.expect_best.unwrap();
            assert_eq!(
                sizes.iter().filter(|&&s| s > sizes[best]).count(),
                EVALS_TO_BEST - 1
            );
            assert!(job.objective_text.contains(&format!("<= {}", sizes[best])));
            // The texts are what the pipeline parses.
            let inputs = job.inputs();
            assert_eq!(inputs.solver.num_workers, ROUND_WIDTH);
            assert_eq!(inputs.solver.max_iter, Shape::FULL.max_iter);
            let rows: Vec<Vec<u8>> = serde_json::from_str(&job.configs_json()).unwrap();
            assert_eq!(rows.len(), job.configs.len());
        }
    }

    #[test]
    fn warm_jobs_need_only_blocks_the_seed_job_published() {
        let g = Generator::new(11, Shape::FULL);
        let warm = g.warm();
        let published: std::collections::HashSet<(usize, u8)> = warm
            .seed_job
            .configs
            .iter()
            .flat_map(|c| c.rates().iter().copied().enumerate().collect::<Vec<_>>())
            .collect();
        let first_seen = |configs: &[PruneConfig]| -> Vec<(usize, u8)> {
            let mut order = Vec::new();
            for pair in configs
                .iter()
                .flat_map(|c| c.rates().iter().copied().enumerate().collect::<Vec<_>>())
            {
                if !order.contains(&pair) {
                    order.push(pair);
                }
            }
            order
        };
        for index in 0..10 {
            let job = warm.job(index);
            assert_eq!(job.solver_text, warm.seed_job.solver_text);
            assert_ne!(job.configs, warm.seed_job.configs);
            assert_eq!(job.configs.len(), Shape::FULL.configs);
            let distinct: std::collections::HashSet<&PruneConfig> = job.configs.iter().collect();
            assert_eq!(distinct.len(), job.configs.len());
            // The same pairs in the same order of first appearance: the same
            // blocks, grouped for pre-training the same way.
            assert_eq!(first_seen(&job.configs), first_seen(&warm.seed_job.configs));
            assert_eq!(first_seen(&job.configs).len(), published.len());
        }
        assert!(warm.cover.len() <= Shape::FULL.configs - EVALS_TO_BEST);
    }

    #[test]
    fn a_family_shares_inputs_but_not_job_identity() {
        let family = Generator::new(5, Shape::FULL).family(0, 0);
        for warm in &family.warm {
            assert_eq!(warm.configs, family.cold.configs);
            assert_eq!(warm.solver_text, family.cold.solver_text);
            assert_ne!(warm.objective_text, family.cold.objective_text);
        }
        assert_ne!(family.warm[0].objective_text, family.warm[1].objective_text);
    }
}
