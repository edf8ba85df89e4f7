//! `prune_cold` and `prune_warm`: one client running jobs in-process, one
//! after another, as `wootz prune` does.

use wootz_core::compile::MultiplexingModel;
use wootz_core::pipeline::train_full_model;
use wootz_data::micro_dataset;
use wootz_nn::Checkpoint;
use wootz_store::BlockStore;

use super::{
    check_outcome, closed_loop, run_in_process, Config, JobSample, Region, Verdict, Workload,
};
use crate::jobs::{Generator, JobSpec, WarmJobs};
use crate::procs::WorkDir;
use crate::trace::Tracer;

fn open_store(dir: std::path::PathBuf) -> Result<BlockStore, String> {
    BlockStore::open(dir, None).map_err(|e| format!("cannot open a block store: {e}"))
}

/// `prune_cold`: every job is novel and meets an empty store.
pub struct Cold {
    generator: Generator,
    work: WorkDir,
    regions: usize,
}

impl Cold {
    /// Set-up is one untimed job of the timed kind, which also brings the
    /// `wootz-par` pool and the allocator to their steady state.
    pub fn setup(cfg: Config) -> Result<Cold, String> {
        let cold = Cold {
            generator: Generator::new(cfg.seed, cfg.shape),
            work: WorkDir::new("prune_cold").map_err(|e| e.to_string())?,
            regions: 0,
        };
        let warm_up = cold
            .generator
            .novel("warm-up", 0, cold.generator.cold(0).mode);
        cold.run(&warm_up, "warm-up")?;
        Ok(cold)
    }

    fn run(&self, job: &JobSpec, tag: &str) -> Result<(JobSample, Vec<String>), String> {
        let store = open_store(self.work.join(format!("store-{tag}")))?;
        let journal = self.work.join(format!("job-{tag}.journal"));
        let done = run_in_process(job, None, Some(&store), Some(journal))?;
        let mut failures = check_outcome(tag, job, done.sample.evals, done.run.best.as_ref());
        if done.run.pretrain_steps == 0 {
            failures.push(format!("{tag}: a cold job pre-trained nothing"));
        }
        if done.run.blocks_failed != Some(0) || done.run.exploration.failed != 0 {
            failures.push(format!("{tag}: blocks or evaluations failed"));
        }
        if store.stats().inserts != done.run.blocks_pretrained as u64 {
            failures.push(format!("{tag}: not every pre-trained block was published"));
        }
        if done.sample.journal_bytes == 0 {
            failures.push(format!("{tag}: the journal is empty"));
        }
        Ok((done.sample, failures))
    }
}

impl Workload for Cold {
    fn region(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Region, String> {
        self.regions += 1;
        let regions = self.regions;
        Ok(closed_loop(seconds, tracer, |index| {
            self.run(&self.generator.cold(index), &format!("r{regions}-{index}"))
        }))
    }

    /// The first job again with neither store nor journal: caching and
    /// journaling must not change the outcome.
    fn verify(&mut self, region: &Region) -> Result<Verdict, String> {
        let Some(timed) = region.jobs.first() else {
            return Ok(Verdict::default());
        };
        let control = run_in_process(&self.generator.cold(0), None, None, None)?;
        Ok(Verdict::of_control(
            timed,
            &control.sample,
            "job 0 differs from its store-less, journal-less control",
        ))
    }
}

/// `prune_warm`: second-tenant jobs against a store the set-up seeded, with
/// the set-up-trained teacher supplied.
pub struct Warm {
    jobs: WarmJobs,
    teacher: (Checkpoint, f64),
    store: BlockStore,
    work: WorkDir,
    regions: usize,
    seed: u64,
}

impl Warm {
    /// Set-up trains the teacher and runs the first tenant's job, which
    /// publishes every block the warm jobs will ask for.
    pub fn setup(cfg: Config) -> Result<Warm, String> {
        let jobs = Generator::new(cfg.seed, cfg.shape).warm();
        let work = WorkDir::new("prune_warm").map_err(|e| e.to_string())?;
        let inputs = jobs.seed_job.inputs();
        let dataset = micro_dataset(&inputs.solver.dataset, inputs.solver.seed);
        let mm = MultiplexingModel::compile(inputs.model.clone()).map_err(|e| e.to_string())?;
        let (checkpoint, accuracy, _) =
            train_full_model(&mm, &dataset, &inputs.solver).map_err(|e| e.to_string())?;
        let teacher = (checkpoint, accuracy);
        let store = open_store(work.join("store"))?;
        let journal = work.join("seed.journal");
        let seeded = run_in_process(
            &jobs.seed_job,
            Some(teacher.clone()),
            Some(&store),
            Some(journal),
        )?;
        if seeded.run.pretrain_steps == 0 || store.stats().inserts == 0 {
            return Err("the seed job published no blocks".to_string());
        }
        Ok(Warm {
            jobs,
            teacher,
            store,
            work,
            regions: 0,
            seed: cfg.seed,
        })
    }

    fn run(&self, index: u64, tag: &str) -> Result<(JobSample, Vec<String>), String> {
        let job = self.jobs.job(index);
        let before = self.store.stats();
        let journal = self.work.join(format!("job-{tag}.journal"));
        let done = run_in_process(
            &job,
            Some(self.teacher.clone()),
            Some(&self.store),
            Some(journal),
        )?;
        let after = self.store.stats();
        let mut failures = check_outcome(tag, &job, done.sample.evals, done.run.best.as_ref());
        if done.run.pretrain_steps != 0 {
            failures.push(format!(
                "{tag}: a warm job spent {} pre-training steps",
                done.run.pretrain_steps
            ));
        }
        if after.misses != before.misses {
            failures.push(format!(
                "{tag}: {} store misses",
                after.misses - before.misses
            ));
        }
        if after.hits - before.hits != done.run.blocks_pretrained as u64 {
            failures.push(format!("{tag}: not every block came from the store"));
        }
        Ok((done.sample, failures))
    }
}

impl Workload for Warm {
    fn region(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Result<Region, String> {
        self.regions += 1;
        let regions = self.regions;
        Ok(closed_loop(seconds, tracer, |index| {
            self.run(index, &format!("r{regions}-{index}"))
        }))
    }

    /// One job (which one depends on the seed) again from nothing: its own
    /// teacher, an empty private store. The warm result must be bit-equal.
    fn verify(&mut self, region: &Region) -> Result<Verdict, String> {
        if region.jobs.is_empty() {
            return Ok(Verdict::default());
        }
        let index = self.seed as usize % region.jobs.len();
        let control_store = open_store(self.work.join(format!("control-store-{}", self.regions)))?;
        let control = run_in_process(
            &self.jobs.job(index as u64),
            None,
            Some(&control_store),
            None,
        )?;
        let mut verdict = Verdict::of_control(
            &region.jobs[index],
            &control.sample,
            &format!("warm job {index} differs from its cold control"),
        );
        if control.run.pretrain_steps == 0 {
            verdict
                .failures
                .push("the cold control pre-trained nothing".to_string());
        }
        Ok(verdict)
    }
}
