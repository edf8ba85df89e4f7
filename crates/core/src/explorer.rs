//! Pluggable exploration strategies and the one propose/observe engine
//! every run explores through (`DESIGN.md` §13).
//!
//! The paper fixes the promising subspace up front and evaluates it in
//! objective order, in rounds of `num_workers`. Composability makes
//! *adaptive* exploration nearly free — most configurations a strategy
//! proposes share already pre-trained tuning blocks — so the exploration
//! layer is a closed loop: an [`Explorer`] declares an initial universe
//! of configurations and proposes what to evaluate next, the engine
//! ([`run_explorer`]) evaluates one round of proposals (round width =
//! `num_workers`), and the outcomes are fed back through
//! [`Explorer::observe`] before the next round is proposed.
//!
//! Three deterministic strategies ship here:
//!
//! - [`FixedSubspace`] — the paper's behavior and the default: the
//!   initial universe *is* the input subspace (so universe index ==
//!   subspace index == evaluation seed index), proposals walk it in
//!   objective order, nothing is ever appended and so no proposal round
//!   is ever journaled.
//! - [`TaylorSaliency`] — ranks modules by a first-order Taylor-style
//!   saliency proxy computed from the trained full model's weights
//!   (Molchanov et al.: filters whose removal perturbs the loss least go
//!   first) and descends a deterministic (rate level, prune depth)
//!   ladder, backing off the depth whenever an observed configuration
//!   misses the objective.
//! - [`BanditExplorer`] — a seeded RL-Pruner-style policy: per-module
//!   preference weights over the rate arms, sampled with a
//!   `ChaCha8`-seeded generator, reinforced toward the accuracy
//!   constraint with a play-and-prune-style min–max threshold that
//!   tightens as better networks are observed.
//!
//! Every strategy is bit-deterministic for a fixed seed: proposals
//! depend only on the (deterministic) sequence of observations, never on
//! thread scheduling, worker count, or transport. Rounds that append
//! configurations to the universe are journaled as [`ProposalRecord`]
//! entries so `--resume` replays the exact trajectory — and verifies the
//! live explorer re-proposes it.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use serde::{Deserialize, Serialize};
use wootz_fault::OnExhausted;
use wootz_ir::Objective;

use crate::explore::{
    emit_progress, exploration_order, finish_exploration, fold_round, EvalOutcome, EvalRecord,
    ExplorationResult, RecordSink, SupervisedEval,
};
use crate::prune::PruneConfig;
use crate::{CoreError, Result};

/// One thing a strategy wants evaluated next. Every proposal resolves to
/// a universe index, and an index is evaluated at most once per run.
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// A configuration already in the universe, by its index (how
    /// [`FixedSubspace`] walks the subspace it seeded).
    Index(usize),
    /// A configuration by value: resolves to its universe index when the
    /// universe already holds it, and is appended otherwise (budget
    /// permitting).
    Config(PruneConfig),
}

/// A pluggable exploration strategy.
///
/// The engine ([`run_explorer`]) drives the loop: it seeds the universe
/// with [`initial_universe`](Explorer::initial_universe), calls
/// [`propose`](Explorer::propose) until it has a round's worth of
/// not-yet-evaluated configurations, evaluates them, then reports each
/// completed outcome through [`observe`](Explorer::observe) in round
/// order. A strategy must be deterministic: given the same construction
/// parameters and the same observation sequence, it must produce the
/// same proposals.
pub trait Explorer {
    /// Stable strategy name, journaled with every proposal round.
    fn name(&self) -> &'static str;

    /// The configurations the universe holds before the first proposal
    /// (empty by default). Universe indices double as evaluation seed
    /// indices, so a strategy that seeds the input subspace here, in
    /// input order, evaluates configuration `i` exactly as the subspace's
    /// `i`-th entry.
    fn initial_universe(&self) -> Vec<PruneConfig> {
        Vec::new()
    }

    /// Proposes the next candidate configuration(s). May repeat earlier
    /// proposals (the engine deduplicates) or return an empty vector when
    /// momentarily out of ideas; return empty *and* report
    /// [`done`](Explorer::done) to stop the run.
    fn propose(&mut self) -> Vec<Proposal>;

    /// Feeds back one completed evaluation. Called once per evaluated
    /// configuration, in deterministic (round) order — including
    /// configurations replayed from a resume journal, so a resumed
    /// strategy reaches the same internal state as the original run.
    fn observe(&mut self, config: &PruneConfig, outcome: &EvalOutcome, satisfies: bool);

    /// Whether the strategy has exhausted its search space.
    fn done(&self) -> bool;
}

/// Which exploration strategy a run uses (`--explorer`). Serialized by
/// variant name; use [`ExplorerKind::as_str`]/[`ExplorerKind::parse`]
/// for the flag spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExplorerKind {
    /// [`FixedSubspace`]: the paper's fixed-subspace walk (the default).
    #[default]
    Fixed,
    /// [`TaylorSaliency`]: saliency-ranked depth ladder.
    Taylor,
    /// [`BanditExplorer`]: seeded preference-weight policy.
    Bandit,
}

impl ExplorerKind {
    /// Parses a `--explorer` flag value.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError::Config`] naming the accepted values.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "fixed" => Ok(ExplorerKind::Fixed),
            "taylor" => Ok(ExplorerKind::Taylor),
            "bandit" => Ok(ExplorerKind::Bandit),
            other => Err(CoreError::Config(format!(
                "unknown explorer `{other}` (expected fixed, taylor, or bandit)"
            ))),
        }
    }

    /// The flag spelling of this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExplorerKind::Fixed => "fixed",
            ExplorerKind::Taylor => "taylor",
            ExplorerKind::Bandit => "bandit",
        }
    }

    /// Whether this kind grows its universe from proposals and therefore
    /// takes an `--explorer-budget` (everything but
    /// [`ExplorerKind::Fixed`]). Flag validation only — the run drivers
    /// treat every kind alike.
    pub fn is_adaptive(&self) -> bool {
        !matches!(self, ExplorerKind::Fixed)
    }
}

impl std::fmt::Display for ExplorerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journaled proposal round: the configurations an explorer appended
/// to the evaluation universe while round `round` was being filled.
/// Rounds that append nothing (every round of [`FixedSubspace`]) journal
/// no record. On `--resume`, the engine re-derives each appending round
/// from the replayed explorer state and verifies it against these
/// records — a divergence aborts the resume instead of silently
/// exploring a different trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProposalRecord {
    /// Zero-based round index.
    pub round: usize,
    /// [`Explorer::name`] of the proposing strategy.
    pub explorer: String,
    /// Universe length before this round's configurations were appended
    /// (the universe index of `configs[0]`).
    pub base_index: usize,
    /// The configurations appended this round, in proposal order.
    pub configs: Vec<PruneConfig>,
}

/// A sink invoked once per freshly journaled proposal round.
pub type ProposalSink<'s> = dyn FnMut(&ProposalRecord) -> Result<()> + 's;

/// One round handed to the round runner: the universe so far and the
/// universe indices that actually need evaluating (resumed entries are
/// replayed by the engine and never handed out). The universe only ever
/// grows by appending, so its length identifies it within a run.
pub struct Round<'a> {
    /// Every configuration seeded or proposed so far.
    pub universe: &'a [PruneConfig],
    /// Universe indices to evaluate this round, in round order.
    pub fresh: &'a [usize],
}

/// What [`run_explorer`] reads besides the strategy, the objective and the
/// round runner. Fault injection and retries are the round runner's: the
/// engine sees only each configuration's final [`SupervisedEval`]. The
/// default resumes nothing, aborts on an exhausted evaluation and appends
/// nothing.
#[derive(Debug, Default)]
pub struct EngineOptions<'a> {
    /// Already-completed records keyed by universe index (from a run
    /// journal); these are replayed instead of re-evaluated.
    pub resume: BTreeMap<usize, EvalRecord>,
    /// What a configuration whose evaluation exhausted its attempts does:
    /// it is recorded as an [`EvalRecord::Failed`] and skipped, or it
    /// aborts the run with a [`CoreError::Eval`].
    pub on_exhausted: OnExhausted,
    /// Maximum configurations proposals may append to the universe
    /// beyond [`Explorer::initial_universe`] (replayed rounds count).
    /// Seeded configurations are free, so a strategy that appends
    /// nothing ignores it; a strategy that starts empty evaluates at
    /// most this many configurations, and `0` runs none.
    pub budget: usize,
    /// Proposal rounds replayed from a resume journal, verified against
    /// the live explorer's re-proposals in order.
    pub replay_proposals: &'a [ProposalRecord],
}

/// What an engine run produced: the exploration result (indices are
/// universe indices), the universe itself, and round counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Explored {
    /// The fold of every processed round;
    /// `evaluated[i].config_index()` indexes into `universe`.
    pub exploration: ExplorationResult,
    /// Every configuration seeded or proposed, in universe order. Seeds,
    /// journals and records all key configurations by their index here.
    pub universe: Vec<PruneConfig>,
    /// Rounds run (proposal + evaluation barriers).
    pub rounds: usize,
    /// Whether some round produced a satisfying configuration (the
    /// `explorer.converged` event fired).
    pub converged: bool,
}

/// Consecutive fruitless [`Explorer::propose`] calls (nothing new to
/// evaluate) tolerated before the engine treats the strategy as
/// exhausted — a spin guard against explorers that keep re-proposing
/// known configurations without reporting `done`.
const MAX_STALE_PROPOSALS: u32 = 32;

/// Refuses a resume journal the live strategy could not have written: a
/// journal whose proposal rounds name another explorer, or one holding
/// evaluations of universe indices that neither the initial universe nor
/// any journaled proposal round introduced (a proposal-free journal
/// replayed under a strategy that starts empty).
fn check_replay(explorer: &str, seeded: usize, opts: &EngineOptions<'_>) -> Result<()> {
    if let Some(first) = opts.replay_proposals.first() {
        if first.explorer != explorer {
            return Err(CoreError::Journal(format!(
                "journal contains proposal records of the `{}` explorer; resume it with \
                 that explorer, not `{explorer}`",
                first.explorer
            )));
        }
    }
    let introduced: usize = opts.replay_proposals.iter().map(|p| p.configs.len()).sum();
    match opts.resume.keys().next_back() {
        Some(&index) if index >= seeded + introduced => Err(CoreError::Journal(format!(
            "cannot resume under the `{explorer}` explorer: the journal evaluates \
             configuration {index} without proposal records introducing it (it was \
             written by a different explorer)"
        ))),
        _ => Ok(()),
    }
}

/// The one exploration loop: propose → evaluate → observe, in rounds of
/// `width`, stopping at the end of the first round with a satisfying
/// configuration, or when the explorer has nothing left to propose
/// (exhausted, out of budget, or spinning).
///
/// Round positions follow the static task-assignment table: the `g`-th
/// configuration scheduled over the whole run is charged to logical
/// worker `g % width`, so cost accounting matches
/// [`crate::explore::task_assignment`] for every strategy.
///
/// `run_round` must return exactly one [`SupervisedEval`] per entry of
/// [`Round::fresh`], in the same order — results re-associate
/// positionally, so thread-pool, process and transport scheduling cannot
/// change the fold. Entries present in `opts.resume` (keyed by
/// universe index) are replayed, not re-evaluated, and their outcomes
/// still feed [`Explorer::observe`] so a resumed strategy replays its
/// exact trajectory. A [`ProposalRecord`] is handed to `proposal_sink`
/// for every round that appended configurations and was not replayed.
///
/// # Errors
///
/// Propagates `run_round`, evaluator (per the retry policy), journal
/// sink, strategy-swap and trajectory-divergence errors.
pub fn run_explorer(
    explorer: &mut dyn Explorer,
    objective: &Objective,
    width: usize,
    run_round: &mut dyn FnMut(&Round<'_>) -> Result<Vec<SupervisedEval>>,
    opts: &EngineOptions<'_>,
    mut proposal_sink: Option<&mut ProposalSink<'_>>,
    mut sink: Option<&mut RecordSink<'_>>,
) -> Result<Explored> {
    let p = width.max(1);
    let mut universe = explorer.initial_universe();
    let seeded = universe.len();
    check_replay(explorer.name(), seeded, opts)?;
    let _run = wootz_obs::span("explore.run")
        .with("explorer", explorer.name())
        .with("configs", seeded)
        .with("budget", opts.budget)
        .with("workers", p);
    // First universe index of every configuration, for resolving
    // by-value proposals; `queued[i]` marks indices already scheduled.
    let mut index_of: HashMap<PruneConfig, usize> = HashMap::new();
    for (i, config) in universe.iter().enumerate() {
        index_of.entry(config.clone()).or_insert(i);
    }
    let mut queued = vec![false; seeded];
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut result = ExplorationResult::empty();
    let mut worker_cost = vec![0.0f64; p];
    let mut position = 0usize;
    let mut round_index = 0usize;
    let mut appending_rounds = 0usize;
    let mut converged = false;
    loop {
        let base_index = universe.len();
        let room = opts.budget.saturating_sub(base_index - seeded);
        let unqueued_seeds = queued[..seeded].iter().filter(|&&q| !q).count();
        let target = p.min(pending.len() + unqueued_seeds + room);
        let mut stale = 0u32;
        while pending.len() < target && !explorer.done() && stale < MAX_STALE_PROPOSALS {
            let before = pending.len();
            for proposal in explorer.propose() {
                let index = match proposal {
                    Proposal::Index(index) => index,
                    Proposal::Config(config) => match index_of.get(&config) {
                        Some(&index) => index,
                        None if universe.len() - seeded < opts.budget => {
                            index_of.insert(config.clone(), universe.len());
                            universe.push(config);
                            queued.push(false);
                            universe.len() - 1
                        }
                        None => continue,
                    },
                };
                let slot = queued.get_mut(index).ok_or_else(|| {
                    CoreError::Config(format!(
                        "explorer `{}` proposed universe index {index} of {}",
                        explorer.name(),
                        universe.len()
                    ))
                })?;
                if !std::mem::replace(slot, true) {
                    pending.push_back(index);
                }
            }
            stale = if pending.len() == before {
                stale + 1
            } else {
                0
            };
        }
        if pending.is_empty() {
            break;
        }
        wootz_obs::counter("explore.rounds").incr();
        if universe.len() > base_index {
            wootz_obs::counter("explore.proposals").add((universe.len() - base_index) as u64);
            let record = ProposalRecord {
                round: round_index,
                explorer: explorer.name().to_string(),
                base_index,
                configs: universe[base_index..].to_vec(),
            };
            match opts.replay_proposals.get(appending_rounds) {
                // A journaled round must be re-proposed identically — the
                // whole point of journaling proposals is that a resumed
                // trajectory is the original one, bit for bit.
                Some(expected) if *expected != record => {
                    return Err(CoreError::Journal(format!(
                        "explorer trajectory diverged from journal at round {round_index}: \
                         journal has {} configs from `{}` at base {} (round {}), live \
                         explorer proposed {} configs from `{}` at base {}",
                        expected.configs.len(),
                        expected.explorer,
                        expected.base_index,
                        expected.round,
                        record.configs.len(),
                        record.explorer,
                        record.base_index,
                    )));
                }
                Some(_) => {}
                None => {
                    if let Some(ps) = proposal_sink.as_deref_mut() {
                        ps(&record)?;
                    }
                }
            }
            appending_rounds += 1;
        }
        let take = pending.len().min(p);
        let round: Vec<(usize, usize)> = pending
            .drain(..take)
            .enumerate()
            .map(|(k, index)| (position + k, index))
            .collect();
        position += take;
        let fresh_indices: Vec<usize> = round
            .iter()
            .filter(|(_, c)| !opts.resume.contains_key(c))
            .map(|&(_, c)| c)
            .collect();
        let _round_span = wootz_obs::span("explore.round")
            .with("round", round_index)
            .with("configs", take);
        let fresh = run_round(&Round {
            universe: &universe,
            fresh: &fresh_indices,
        })?;
        assert_eq!(
            fresh.len(),
            fresh_indices.len(),
            "round runner must return one result per fresh config"
        );
        let found = fold_round(
            objective,
            opts,
            &round,
            fresh.into_iter(),
            p,
            &mut worker_cost,
            &mut result,
            &mut sink,
        )?;
        emit_progress(round_index, &result, found);
        for rec in &result.evaluated[result.evaluated.len() - take..] {
            if let Some(outcome) = rec.outcome() {
                explorer.observe(&universe[rec.config_index()], outcome, rec.satisfies());
            }
        }
        round_index += 1;
        if found {
            converged = true;
            wootz_obs::event("explorer.converged")
                .field("explorer", explorer.name())
                .field("round", round_index - 1)
                .field("evaluated", result.evaluated.len())
                .emit();
            break;
        }
    }
    let exploration = finish_exploration(objective, result, &worker_cost)?;
    Ok(Explored {
        exploration,
        universe,
        rounds: round_index,
        converged,
    })
}

/// The paper's fixed-subspace strategy and the default explorer: seeds
/// the universe with the input subspace, in input order, and walks it in
/// objective order, one configuration per [`propose`](Explorer::propose)
/// call, observing nothing and appending nothing.
pub struct FixedSubspace {
    configs: Vec<PruneConfig>,
    order: Vec<usize>,
    cursor: usize,
}

impl FixedSubspace {
    /// Orders `configs` by the objective over their analytic `sizes`
    /// ([`exploration_order`]).
    pub fn new(objective: &Objective, configs: Vec<PruneConfig>, sizes: &[usize]) -> Self {
        FixedSubspace {
            configs,
            order: exploration_order(objective, sizes),
            cursor: 0,
        }
    }
}

impl Explorer for FixedSubspace {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn initial_universe(&self) -> Vec<PruneConfig> {
        self.configs.clone()
    }

    fn propose(&mut self) -> Vec<Proposal> {
        match self.order.get(self.cursor) {
            Some(&i) => {
                self.cursor += 1;
                vec![Proposal::Index(i)]
            }
            None => Vec::new(),
        }
    }

    fn observe(&mut self, _config: &PruneConfig, _outcome: &EvalOutcome, _satisfies: bool) {}

    fn done(&self) -> bool {
        self.cursor >= self.order.len()
    }
}

/// Saliency-guided candidate synthesis (Molchanov et al.'s first-order
/// Taylor ranking, computed here as the mean L1 filter importance of
/// each module's prunable convolutions in the *trained* full model — the
/// magnitude term of the Taylor expansion at the trained point).
///
/// Modules are ranked ascending by saliency; a candidate at ladder rung
/// `(level, depth)` prunes the `depth` least-salient modules at rate
/// `grid[level]`, leaving the rest unpruned. The walk starts at the
/// lowest rate with every module pruned (the most likely to satisfy an
/// accuracy constraint while still shrinking the model) and backs the
/// depth off on every observed miss; a miss at depth `d` also caps
/// later levels at depth `d - 1`, since a higher rate at the same depth
/// is strictly more aggressive (the play-and-prune min–max adaptation).
pub struct TaylorSaliency {
    /// Module indices, ascending saliency (least important first).
    order: Vec<usize>,
    /// Pruning-rate ladder, ascending.
    grid: Vec<u8>,
    level: usize,
    depth: usize,
    /// Depth cap for the *next* level, tightened by observed misses.
    cap: usize,
    finished: bool,
}

impl TaylorSaliency {
    /// Builds the ladder from per-module saliencies (see
    /// `wootz_core::pipeline::module_saliency`) and an ascending rate
    /// grid. NaN saliencies order by `f64::total_cmp`.
    pub fn new(saliency: &[f64], mut grid: Vec<u8>) -> Self {
        let mut order: Vec<usize> = (0..saliency.len()).collect();
        order.sort_by(|&a, &b| saliency[a].total_cmp(&saliency[b]).then(a.cmp(&b)));
        grid.sort_unstable();
        grid.dedup();
        grid.retain(|&r| r > 0);
        let n = order.len();
        TaylorSaliency {
            finished: n == 0 || grid.is_empty(),
            order,
            grid,
            level: 0,
            depth: n,
            cap: n,
        }
    }

    fn config_at(&self, level: usize, depth: usize) -> PruneConfig {
        let mut rates = vec![0u8; self.order.len()];
        for &m in &self.order[..depth] {
            rates[m] = self.grid[level];
        }
        PruneConfig::new(rates).expect("grid rates are below 100")
    }

    fn advance(&mut self) {
        if self.depth > 1 {
            self.depth -= 1;
            return;
        }
        self.level += 1;
        self.depth = self.cap;
        if self.level >= self.grid.len() || self.cap == 0 {
            self.finished = true;
        }
    }
}

impl Explorer for TaylorSaliency {
    fn name(&self) -> &'static str {
        "taylor"
    }

    fn propose(&mut self) -> Vec<Proposal> {
        if self.finished {
            return Vec::new();
        }
        let config = self.config_at(self.level, self.depth);
        self.advance();
        vec![Proposal::Config(config)]
    }

    fn observe(&mut self, config: &PruneConfig, _outcome: &EvalOutcome, satisfies: bool) {
        if satisfies {
            return;
        }
        let depth = config.rates().iter().filter(|&&r| r > 0).count();
        if depth > 0 {
            self.cap = self.cap.min(depth - 1);
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

/// A seeded RL-Pruner-style policy over per-module rate arms.
///
/// Each module holds a preference weight per arm (`0` = unpruned, plus
/// the rate grid); proposals sample every module's arm from its weight
/// distribution with a `ChaCha8`-seeded generator. Observations
/// reinforce: a configuration at or above the adaptive accuracy
/// threshold strengthens its pruned arms (the policy prunes more where
/// pruning kept accuracy), a miss weakens them and strengthens the
/// unpruned arm. The threshold itself adapts play-and-prune style,
/// tightening halfway toward `min(target, best observed accuracy)`
/// after every observation.
pub struct BanditExplorer {
    /// Arms per module: rate `0` plus the ascending grid.
    arms: Vec<u8>,
    /// `weights[module][arm]` preference weights.
    weights: Vec<Vec<f64>>,
    rng: rand_chacha::ChaCha8Rng,
    /// Accuracy constraint to steer toward, when the objective has one.
    target: Option<f64>,
    /// Adaptive accuracy threshold (play-and-prune min–max).
    theta: f64,
    best_accuracy: f64,
    seen: HashSet<PruneConfig>,
    finished: bool,
}

/// Duplicate samples tolerated per [`Explorer::propose`] call before the
/// bandit declares its reachable space exhausted.
const BANDIT_RESAMPLE_LIMIT: u32 = 64;

impl BanditExplorer {
    /// A fresh policy over `modules` modules and the given rate grid,
    /// seeded for bit-reproducible sampling. `target` is the objective's
    /// minimum-accuracy bound, when it has one.
    pub fn new(modules: usize, mut grid: Vec<u8>, seed: u64, target: Option<f64>) -> Self {
        use rand::SeedableRng;
        grid.sort_unstable();
        grid.dedup();
        grid.retain(|&r| r > 0);
        let mut arms = vec![0u8];
        arms.extend_from_slice(&grid);
        BanditExplorer {
            weights: vec![vec![1.0; arms.len()]; modules],
            finished: modules == 0 || grid.is_empty(),
            arms,
            rng: rand_chacha::ChaCha8Rng::seed_from_u64(seed),
            target,
            theta: 0.0,
            best_accuracy: 0.0,
            seen: HashSet::new(),
        }
    }

    fn sample(&mut self) -> PruneConfig {
        use rand::Rng;
        let rates: Vec<u8> = self
            .weights
            .iter()
            .map(|w| {
                let total: f64 = w.iter().sum();
                let mut draw = self.rng.gen::<f64>() * total;
                let mut pick = w.len() - 1;
                for (i, &wi) in w.iter().enumerate() {
                    if draw < wi {
                        pick = i;
                        break;
                    }
                    draw -= wi;
                }
                self.arms[pick]
            })
            .collect();
        PruneConfig::new(rates).expect("arm rates are below 100")
    }
}

impl Explorer for BanditExplorer {
    fn name(&self) -> &'static str {
        "bandit"
    }

    fn propose(&mut self) -> Vec<Proposal> {
        if self.finished {
            return Vec::new();
        }
        for _ in 0..BANDIT_RESAMPLE_LIMIT {
            let config = self.sample();
            if self.seen.insert(config.clone()) {
                return vec![Proposal::Config(config)];
            }
        }
        self.finished = true;
        Vec::new()
    }

    fn observe(&mut self, config: &PruneConfig, outcome: &EvalOutcome, satisfies: bool) {
        // Resumed trajectories replay observations for configurations the
        // sampler never drew this process; count them as seen so the live
        // sampler cannot re-propose them.
        self.seen.insert(config.clone());
        let rewarded = satisfies || outcome.accuracy >= self.theta;
        for (module, &rate) in config.rates().iter().enumerate() {
            let Some(arm) = self.arms.iter().position(|&a| a == rate) else {
                continue; // a rate outside the grid (foreign config): no arm to update
            };
            let w = &mut self.weights[module][arm];
            *w = if rate == 0 {
                // The unpruned arm gains only when pruning elsewhere missed.
                if rewarded {
                    *w
                } else {
                    (*w * 1.1).min(1e6)
                }
            } else if rewarded {
                (*w * 1.25).min(1e6)
            } else {
                (*w * 0.8).max(1e-6)
            };
        }
        if outcome.accuracy > self.best_accuracy {
            self.best_accuracy = outcome.accuracy;
        }
        // Min–max adaptation: the bar rises halfway toward the best
        // accuracy seen, capped at the objective's target.
        let goal = match self.target {
            Some(t) => t.min(self.best_accuracy),
            None => self.best_accuracy,
        };
        self.theta += 0.5 * (goal - self.theta);
    }

    fn done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    fn min_size(thr: f64) -> Objective {
        Objective::min_size_with_accuracy(thr)
    }

    /// Synthetic size model: 100 params per unpruned module "unit",
    /// scaled down by the pruning rates.
    fn toy_size(config: &PruneConfig) -> usize {
        config
            .rates()
            .iter()
            .map(|&r| 100 - r as usize)
            .sum::<usize>()
    }

    /// Synthetic accuracy: pruning hurts in proportion to total rate.
    fn toy_outcome(config: &PruneConfig) -> EvalOutcome {
        let total: f64 = config.rates().iter().map(|&r| r as f64).sum();
        let n = config.len() as f64;
        EvalOutcome {
            model_size: toy_size(config),
            flops: toy_size(config) as u64 * 10,
            accuracy: (1.0 - total / (100.0 * n)).max(0.0),
            cost: 1.0,
            log: None,
        }
    }

    fn run_toy(
        explorer: &mut dyn Explorer,
        objective: &Objective,
        width: usize,
        budget: usize,
        resume: BTreeMap<usize, EvalRecord>,
        replay: &[ProposalRecord],
    ) -> (Explored, Vec<ProposalRecord>, Vec<usize>) {
        let opts = EngineOptions {
            resume,
            budget,
            replay_proposals: replay,
            ..EngineOptions::default()
        };
        let mut proposals: Vec<ProposalRecord> = Vec::new();
        let mut proposal_sink = |p: &ProposalRecord| {
            proposals.push(p.clone());
            Ok(())
        };
        let mut sunk: Vec<usize> = Vec::new();
        let mut sink = |r: &EvalRecord| {
            sunk.push(r.config_index());
            Ok(())
        };
        let out = run_explorer(
            explorer,
            objective,
            width,
            &mut toy_round,
            &opts,
            Some(&mut proposal_sink),
            Some(&mut sink),
        )
        .unwrap();
        (out, proposals, sunk)
    }

    /// The single by-value configuration of the strategy's next proposal.
    fn next_config(explorer: &mut dyn Explorer) -> PruneConfig {
        match explorer.propose().as_slice() {
            [Proposal::Config(config)] => config.clone(),
            other => panic!("expected one by-value proposal, got {other:?}"),
        }
    }

    /// Round runner over [`toy_outcome`].
    fn toy_round(round: &Round<'_>) -> Result<Vec<SupervisedEval>> {
        Ok(round
            .fresh
            .iter()
            .map(|&i| SupervisedEval {
                result: Ok(toy_outcome(&round.universe[i])),
                attempts: 1,
                backoff: 0.0,
            })
            .collect())
    }

    #[test]
    fn explorer_kind_parses_and_displays() {
        for (s, k) in [
            ("fixed", ExplorerKind::Fixed),
            ("taylor", ExplorerKind::Taylor),
            ("bandit", ExplorerKind::Bandit),
        ] {
            assert_eq!(ExplorerKind::parse(s).unwrap(), k);
            assert_eq!(k.to_string(), s);
        }
        assert_eq!(ExplorerKind::default(), ExplorerKind::Fixed);
        assert!(!ExplorerKind::Fixed.is_adaptive());
        assert!(ExplorerKind::Taylor.is_adaptive());
        let err = ExplorerKind::parse("greedy").unwrap_err().to_string();
        assert!(err.contains("unknown explorer `greedy`"), "{err}");
        assert!(err.contains("fixed, taylor, or bandit"), "{err}");
    }

    #[test]
    fn fixed_explorer_walks_its_seeded_universe_by_index() {
        // The default strategy through the engine: the universe is the
        // subspace in input order (records carry subspace indices), the
        // walk follows the objective order with first-satisfying-round
        // stop semantics, nothing is appended — so no proposal round is
        // journaled and the budget is irrelevant — and a duplicated
        // configuration is evaluated once per subspace slot.
        let configs: Vec<PruneConfig> = [70u8, 50, 30, 50, 0]
            .iter()
            .map(|&r| PruneConfig::new(vec![r, r, r]).unwrap())
            .collect();
        let sizes: Vec<usize> = configs.iter().map(toy_size).collect();
        let objective = min_size(0.45);
        for (width, expected) in [(1usize, vec![0, 1]), (2, vec![0, 1]), (3, vec![0, 1, 3])] {
            for budget in [0usize, 2] {
                let mut explorer = FixedSubspace::new(&objective, configs.clone(), &sizes);
                let (out, proposals, sunk) = run_toy(
                    &mut explorer,
                    &objective,
                    width,
                    budget,
                    BTreeMap::new(),
                    &[],
                );
                let order: Vec<usize> = out
                    .exploration
                    .evaluated
                    .iter()
                    .map(|r| r.config_index())
                    .collect();
                assert_eq!(order, expected, "width={width} budget={budget}");
                assert_eq!(sunk, expected);
                assert!(proposals.is_empty(), "fixed journals no proposal rounds");
                assert_eq!(out.universe, configs);
                assert!(out.converged);
                // Config 1 (rate 50) is the smallest satisfying one.
                let best = &out.exploration.evaluated[out.exploration.best.unwrap()];
                assert_eq!(best.config_index(), 1);
                // The index-only entry agrees record for record.
                let by_index =
                    explore(&objective, &sizes, width, |i| Ok(toy_outcome(&configs[i]))).unwrap();
                assert_eq!(by_index, out.exploration, "width={width}");
            }
        }
    }

    #[test]
    fn by_value_proposals_resolve_to_universe_indices() {
        /// Seeds two configurations, then proposes the second by value,
        /// a new one, the first by index, and the new one again.
        struct Mixed(u32);
        fn cfg(rate: u8) -> PruneConfig {
            PruneConfig::new(vec![rate]).unwrap()
        }
        impl Explorer for Mixed {
            fn name(&self) -> &'static str {
                "mixed"
            }
            fn initial_universe(&self) -> Vec<PruneConfig> {
                vec![cfg(30), cfg(50)]
            }
            fn propose(&mut self) -> Vec<Proposal> {
                self.0 += 1;
                match self.0 {
                    1 => vec![Proposal::Config(cfg(50)), Proposal::Config(cfg(70))],
                    2 => vec![Proposal::Index(0), Proposal::Config(cfg(70))],
                    _ => vec![Proposal::Index(9)],
                }
            }
            fn observe(&mut self, _: &PruneConfig, _: &EvalOutcome, _: bool) {}
            fn done(&self) -> bool {
                false
            }
        }
        let objective = min_size(2.0);
        let (out, proposals, _) = run_toy(&mut Mixed(0), &objective, 2, 1, BTreeMap::new(), &[]);
        let order: Vec<usize> = out
            .exploration
            .evaluated
            .iter()
            .map(|r| r.config_index())
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(out.universe, vec![cfg(30), cfg(50), cfg(70)]);
        // Only round 0 appended anything.
        assert_eq!(proposals.len(), 1);
        assert_eq!((proposals[0].round, proposals[0].base_index), (0, 2));
        assert_eq!(proposals[0].configs, vec![cfg(70)]);
        // An index outside the universe is a strategy bug, not a panic.
        let err = run_explorer(
            &mut Mixed(2),
            &objective,
            2,
            &mut toy_round,
            &EngineOptions::default(),
            None,
            None,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("proposed universe index 9 of 2"), "{err}");
    }

    #[test]
    fn journals_of_another_strategy_are_refused() {
        let objective = min_size(2.0);
        let resume = || {
            BTreeMap::from([(
                1,
                EvalRecord::Failed {
                    config_index: 1,
                    error: "x".into(),
                    attempts: 1,
                    cost: 0.0,
                },
            )])
        };
        // Evaluations nothing introduced: a proposal-free journal under a
        // strategy that starts with an empty universe.
        let opts = EngineOptions {
            resume: resume(),
            budget: 4,
            ..EngineOptions::default()
        };
        let mut taylor = TaylorSaliency::new(&[0.1, 0.2], vec![30]);
        let err = run_explorer(
            &mut taylor,
            &objective,
            2,
            &mut toy_round,
            &opts,
            None,
            None,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("without proposal records"), "{err}");
        // Proposal records of another explorer: refused before any work,
        // even by a strategy whose seeded universe covers the indices.
        let foreign = vec![ProposalRecord {
            round: 0,
            explorer: "taylor".to_string(),
            base_index: 0,
            configs: vec![PruneConfig::new(vec![30, 30]).unwrap()],
        }];
        let opts = EngineOptions {
            resume: resume(),
            replay_proposals: &foreign,
            ..EngineOptions::default()
        };
        let configs = vec![PruneConfig::new(vec![30, 30]).unwrap(); 2];
        let mut fixed = FixedSubspace::new(&objective, configs, &[140, 140]);
        let err = run_explorer(&mut fixed, &objective, 2, &mut toy_round, &opts, None, None)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("proposal records of the `taylor` explorer"),
            "{err}"
        );
    }

    #[test]
    fn taylor_prunes_least_salient_first_and_backs_off() {
        // Module 1 is least salient, then 0, then 2.
        let saliency = [0.5, 0.1, 0.9];
        let mut t = TaylorSaliency::new(&saliency, vec![30, 50]);
        // First rung: every module at the lowest rate.
        assert_eq!(next_config(&mut t).rates(), &[30, 30, 30]);
        // Depth 2: the two least salient modules (1, then 0).
        assert_eq!(next_config(&mut t).rates(), &[30, 30, 0]);
        assert_eq!(next_config(&mut t).rates(), &[0, 30, 0]);
        // Level exhausted: next level starts at the (untightened) cap.
        assert_eq!(next_config(&mut t).rates(), &[50, 50, 50]);
        assert!(!t.done());
    }

    #[test]
    fn taylor_miss_caps_later_levels() {
        let saliency = [0.1, 0.2, 0.3];
        let mut t = TaylorSaliency::new(&saliency, vec![30, 50]);
        let c1 = next_config(&mut t); // depth 3 at rate 30
                                      // A miss at depth 3 caps later levels at depth 2.
        t.observe(&c1, &toy_outcome(&c1), false);
        let _d2 = t.propose(); // depth 2 at rate 30
        let _d1 = t.propose(); // depth 1 at rate 30
        let next_level = next_config(&mut t);
        assert_eq!(
            next_level.rates().iter().filter(|&&r| r > 0).count(),
            2,
            "level 50 must start at the capped depth, rates {:?}",
            next_level.rates()
        );
        assert_eq!(next_level.rates().iter().copied().max(), Some(50));
    }

    #[test]
    fn taylor_trajectory_is_deterministic() {
        let saliency = [0.4, 0.1, 0.7, 0.2];
        let objective = min_size(0.35);
        let run = |width: usize| {
            let mut t = TaylorSaliency::new(&saliency, vec![30, 50, 70]);
            run_toy(&mut t, &objective, width, 16, BTreeMap::new(), &[])
        };
        let (a, pa, _) = run(2);
        let (b, pb, _) = run(2);
        assert_eq!(a, b);
        assert_eq!(pa, pb);
    }

    #[test]
    fn bandit_same_seed_same_trajectory() {
        let objective = min_size(0.55);
        let run = || {
            let mut bandit = BanditExplorer::new(4, vec![30, 50, 70], 9, Some(0.55));
            run_toy(&mut bandit, &objective, 3, 24, BTreeMap::new(), &[])
        };
        let (a, pa, _) = run();
        let (b, pb, _) = run();
        assert_eq!(a, b);
        assert_eq!(pa, pb);
        assert!(a.rounds >= 1);
        // A different seed explores a different trajectory (with 4
        // modules and 4 arms the chance of a collision is negligible).
        let mut other = BanditExplorer::new(4, vec![30, 50, 70], 10, Some(0.55));
        let (c, _, _) = run_toy(&mut other, &objective, 3, 24, BTreeMap::new(), &[]);
        assert_ne!(a.universe, c.universe);
    }

    #[test]
    fn bandit_exhausts_tiny_spaces() {
        // One module, one rate: exactly two distinct configs exist.
        let objective = min_size(2.0); // nothing satisfies
        let mut bandit = BanditExplorer::new(1, vec![50], 3, None);
        let (out, _, _) = run_toy(&mut bandit, &objective, 4, 100, BTreeMap::new(), &[]);
        assert!(out.exploration.configs_explored <= 2);
        assert!(bandit.done());
        assert!(!out.converged);
    }

    #[test]
    fn engine_stops_at_first_satisfying_round() {
        let saliency = [0.1, 0.2, 0.3];
        let objective = min_size(0.2); // depth-3 gentle prune satisfies
        let mut t = TaylorSaliency::new(&saliency, vec![30, 50]);
        let (out, proposals, _) = run_toy(&mut t, &objective, 2, 16, BTreeMap::new(), &[]);
        assert!(out.converged);
        assert_eq!(out.rounds, 1);
        assert_eq!(proposals.len(), 1);
        assert!(out.exploration.best.is_some());
    }

    #[test]
    fn engine_respects_budget() {
        let objective = min_size(2.0); // nothing satisfies: budget rules
        let mut bandit = BanditExplorer::new(3, vec![30, 50, 70], 5, None);
        let (out, _, _) = run_toy(&mut bandit, &objective, 4, 6, BTreeMap::new(), &[]);
        assert_eq!(out.exploration.configs_explored, 6);
        assert_eq!(out.rounds, 2, "width 4 against budget 6: rounds of 4 + 2");
        assert_eq!(out.universe.len(), 6);
        let mut zero = BanditExplorer::new(3, vec![30], 5, None);
        let (out, proposals, _) = run_toy(&mut zero, &objective, 4, 0, BTreeMap::new(), &[]);
        assert_eq!(out.exploration.configs_explored, 0);
        assert_eq!(out.rounds, 0);
        assert!(proposals.is_empty());
    }

    #[test]
    fn resume_replays_and_verifies_proposals() {
        // Unsatisfiable objective: the run deterministically spends its
        // whole budget, guaranteeing the resume point splits a round.
        let objective = min_size(2.0);
        let full = || BanditExplorer::new(4, vec![30, 50, 70], 21, Some(2.0));
        let (cold, cold_props, _) = run_toy(&mut full(), &objective, 3, 9, BTreeMap::new(), &[]);
        assert!(cold.exploration.configs_explored > 3, "needs 2+ rounds");
        // Resume from a prefix that splits the second round.
        let cut = 4;
        let resume: BTreeMap<usize, EvalRecord> = cold.exploration.evaluated[..cut]
            .iter()
            .map(|r| (r.config_index(), r.clone()))
            .collect();
        let replayed: Vec<ProposalRecord> = cold_props[..2].to_vec();
        let (warm, warm_props, sunk) = run_toy(&mut full(), &objective, 3, 9, resume, &replayed);
        assert_eq!(warm.exploration.evaluated, cold.exploration.evaluated);
        assert_eq!(warm.exploration.best, cold.exploration.best);
        assert_eq!(warm.exploration.resumed, cut);
        assert_eq!(warm.universe, cold.universe);
        // Replayed rounds are not re-journaled; later rounds are.
        assert_eq!(
            warm_props,
            cold_props[replayed.len().min(cold_props.len())..].to_vec()
        );
        // The sink saw only fresh records.
        assert!(sunk.iter().all(|i| *i >= cut));
    }

    #[test]
    fn diverging_resume_trajectory_is_an_error() {
        let objective = min_size(0.55);
        let mut bandit = BanditExplorer::new(4, vec![30, 50, 70], 21, Some(0.55));
        let bogus = vec![ProposalRecord {
            round: 0,
            explorer: "bandit".to_string(),
            base_index: 0,
            configs: vec![PruneConfig::new(vec![30, 30, 30, 30]).unwrap()],
        }];
        let opts = EngineOptions {
            budget: 8,
            replay_proposals: &bogus,
            ..EngineOptions::default()
        };
        let err = run_explorer(
            &mut bandit,
            &objective,
            3,
            &mut toy_round,
            &opts,
            None,
            None,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("explorer trajectory diverged"), "{err}");
    }

    #[test]
    fn stale_explorer_does_not_spin() {
        /// Never done, never proposes anything new.
        struct Stubborn;
        impl Explorer for Stubborn {
            fn name(&self) -> &'static str {
                "stubborn"
            }
            fn propose(&mut self) -> Vec<Proposal> {
                vec![Proposal::Config(PruneConfig::new(vec![50]).unwrap())]
            }
            fn observe(&mut self, _: &PruneConfig, _: &EvalOutcome, _: bool) {}
            fn done(&self) -> bool {
                false
            }
        }
        let objective = min_size(2.0);
        let (out, _, _) = run_toy(&mut Stubborn, &objective, 2, 100, BTreeMap::new(), &[]);
        // The single unique config is evaluated once; the spin guard
        // then ends the run.
        assert_eq!(out.exploration.configs_explored, 1);
    }
}
