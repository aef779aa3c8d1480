//! The traced replay: drives one experiment's rounds through the crates'
//! public calls, on one thread, with a [`Ledger`] span around each call.
//!
//! The loop mirrors the round engine of `float-core` (plan → execute →
//! commit, then aggregation, selector feedback and evaluation) for the
//! configurations the benchmark runs: synchronous and FedBuff selection,
//! acceleration off or RL-driven, any fault plan, no profiling, no drift
//! correction and no pipelining. It is a model of the engine, not the
//! engine: the traced run reports the replay's attempt count and phase
//! totals next to the engine's own, so any gap between them is visible.
//!
//! Span names are `<crate>.<call>`. The engine's phases are `core.plan`,
//! `core.execute` (one `core.attempt` per client attempt) and
//! `core.commit`, bounded like the engine's `PhaseSpan` timers (cohort
//! selection sits outside them); `core.aggregate` and `core.global_eval`
//! follow each round.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use rand::seq::SliceRandom;

use float_accel::apply::transform_update;
use float_accel::{apply_action_protected, AccelAction, ActionCatalogue, ErrorFeedback};
use float_core::aggregate::{dedup_updates, PendingUpdate};
use float_core::{AccelMode, ExperimentConfig, SelectorChoice, ServerOptimizer, ShardCacheStats};
use float_data::{ShardCache, ShardSpec, SharedShardCache};
use float_models::RoundCost;
use float_rl::{AgentConfig, DeadlineLevel, GlobalState, LocalState, RlhfAgent};
use float_select::{
    ClientSelector, FedAvgSelector, FedBuffSelector, OortSelector, ReflSelector, SelectionFeedback,
    TiflSelector,
};
use float_sim::{
    apply_outcome_fault, estimate_round_time_s, execute_client_round, DropReason, FaultKind,
    ResourceLedger, RoundParams, SimClock,
};
use float_tensor::rng::{seed_rng, split_seed};
use float_tensor::{Dataset, DriftOptions, Mlp, MlpConfig, Sgd};
use float_traces::{
    AvailabilityIndex, AvailabilityModel, DeviceProfile, ResourceSampler, ResourceSnapshot,
};

use crate::ledger::Ledger;

/// Hidden width of the runtime's proxy model.
const PROXY_HIDDEN: usize = 128;

/// Where the replay's shards come from: a private LRU cache (standalone
/// runs) or a store shared by every trial of a sweep.
pub enum Shards {
    /// A standalone run's bounded cache.
    Owned(ShardCache),
    /// A sweep's shared store.
    Shared(Arc<SharedShardCache>),
}

impl Shards {
    /// The standalone cache the runtime builds for `cfg`.
    pub fn for_config(cfg: &ExperimentConfig) -> Shards {
        Shards::Owned(ShardCache::new(shard_spec(cfg), cfg.resolved_shard_cache()))
    }

    fn get(&mut self, client: usize) -> (Arc<Dataset>, Arc<Dataset>) {
        match self {
            Shards::Owned(c) => c.get(client),
            Shards::Shared(s) => s.get(client),
        }
    }

    fn spec(&self) -> &ShardSpec {
        match self {
            Shards::Owned(c) => c.spec(),
            Shards::Shared(s) => s.spec(),
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> ShardCacheStats {
        match self {
            Shards::Owned(c) => c.stats(),
            Shards::Shared(s) => s.stats(),
        }
    }
}

/// The shard spec the runtime derives for `cfg` (seed stream 1 of the
/// population seed).
pub fn shard_spec(cfg: &ExperimentConfig) -> ShardSpec {
    ShardSpec::new(cfg.federated_config(), split_seed(cfg.population_seed(), 1))
}

/// A sweep population's prebuilt calendar and availability models, shared
/// by the replayed trials like `SharedPopulation` shares them.
pub struct SharedTraces {
    index: AvailabilityIndex,
    models: Arc<Vec<AvailabilityModel>>,
}

impl SharedTraces {
    /// Build the calendar and the full-sweep models of `cfg`'s population.
    pub fn build(cfg: &ExperimentConfig) -> SharedTraces {
        let seed = split_seed(cfg.population_seed(), 2);
        SharedTraces {
            index: ResourceSampler::build_index(cfg.num_clients, seed),
            models: Arc::new(ResourceSampler::build_sweep_models(cfg.num_clients, seed)),
        }
    }
}

/// Counters the replay keeps beside its spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Committed client attempts (stall retries included).
    pub attempts: u64,
    /// Attempts whose update was usable (completed, not quarantined).
    pub completed: u64,
    /// Samples passed to `train_epoch_corrected`.
    pub train_samples: u64,
    /// Analytic training FLOPs of those samples.
    pub train_flops: f64,
    /// Summed eligible-list length over `select_into` calls.
    pub eligible_total: u64,
    /// Clients evaluated by global evaluation passes.
    pub eval_clients: u64,
    /// Aggregation rounds completed.
    pub rounds: u64,
}

impl Counters {
    /// Add another replay's counters.
    pub fn add(&mut self, o: &Counters) {
        self.attempts += o.attempts;
        self.completed += o.completed;
        self.train_samples += o.train_samples;
        self.train_flops += o.train_flops;
        self.eligible_total += o.eligible_total;
        self.eval_clients += o.eval_clients;
        self.rounds += o.rounds;
    }
}

/// Analytic fused multiply-add FLOPs of one training sample through an MLP
/// (forward 2·W, backward 4·W, with W the weight count).
fn mlp_train_flops_per_sample(dims: &[usize]) -> f64 {
    let weights: usize = dims.windows(2).map(|w| w[0] * w[1]).sum();
    6.0 * weights as f64
}

/// One planned client attempt (the replay's copy of the engine's task).
#[derive(Clone)]
struct Task {
    client: usize,
    staleness: u64,
    attempt: u32,
    snap: ResourceSnapshot,
    profile: DeviceProfile,
    action: AccelAction,
    base_cost: RoundCost,
    shard_len: usize,
    train: Arc<Dataset>,
    test: Arc<Dataset>,
    global: GlobalState,
    local: LocalState,
    hf: DeadlineLevel,
    error_feedback: Option<ErrorFeedback>,
}

/// The executed attempt, before commit.
struct Exec {
    outcome: float_sim::ClientRoundOutcome,
    utility: f64,
    improvement: f64,
    update: Option<PendingUpdate>,
    error_feedback: Option<ErrorFeedback>,
    duplicate: bool,
}

/// The committed attempt.
struct Attempt {
    client: usize,
    completed: bool,
    duration_s: f64,
    was_available: bool,
    utility: f64,
    update: Option<PendingUpdate>,
    quarantined: bool,
    duplicate: bool,
    stalled: bool,
}

/// One experiment's state, rebuilt from its configuration the way the
/// runtime builds it.
struct Replay<'a> {
    cfg: ExperimentConfig,
    l: &'a mut Ledger,
    c: Counters,
    shards: &'a mut Shards,
    sampler: ResourceSampler,
    selector: Box<dyn ClientSelector>,
    catalogue: ActionCatalogue,
    agent: Option<RlhfAgent>,
    model: Mlp,
    local: Mlp,
    eval_model: Mlp,
    flops_per_sample: f64,
    hf_ema: HashMap<usize, f64>,
    error_feedback: HashMap<usize, ErrorFeedback>,
    protected: Vec<bool>,
    clock: SimClock,
    ledger: ResourceLedger,
    server_optim: ServerOptimizer,
    eval_set: Vec<usize>,
    backoff_s: f64,
}

/// Replay `cfg` to completion, recording spans into `l`; `traces` supplies
/// a sweep's shared calendar (standalone runs build their own).
///
/// # Errors
///
/// Returns an error for configurations outside the replay's coverage.
pub fn replay(
    cfg: &ExperimentConfig,
    shards: &mut Shards,
    traces: Option<&SharedTraces>,
    l: &mut Ledger,
) -> Result<Counters, String> {
    cfg.validate()?;
    if cfg.profiling.enabled
        || cfg.scaffold
        || cfg.prox_mu > 0.0
        || cfg.pipeline_rounds
        || cfg.candidate_pool > 0
        || cfg.assume_no_dropouts
        || !matches!(cfg.accel, AccelMode::Off | AccelMode::Rl | AccelMode::Rlhf)
    {
        return Err(format!(
            "the traced replay does not cover this configuration ({})",
            cfg.knob_label()
        ));
    }
    let mut r = Replay::new(*cfg, shards, traces, l);
    if cfg.selector == SelectorChoice::FedBuff {
        r.run_async();
    } else {
        r.run_sync();
    }
    let accs = r.eval_all();
    if accs.iter().any(|a| !a.is_finite()) {
        return Err("replayed accuracies are not finite".to_string());
    }
    Ok(r.c)
}

impl<'a> Replay<'a> {
    fn new(
        cfg: ExperimentConfig,
        shards: &'a mut Shards,
        traces: Option<&SharedTraces>,
        l: &'a mut Ledger,
    ) -> Replay<'a> {
        let seed = cfg.seed;
        let trace_seed = split_seed(cfg.population_seed(), 2);
        let sampler = match traces {
            Some(t) => ResourceSampler::with_shared(
                cfg.num_clients,
                cfg.interference,
                trace_seed,
                t.index.clone(),
                Some(Arc::clone(&t.models)),
            ),
            None => {
                let mut s = ResourceSampler::new(cfg.num_clients, cfg.interference, trace_seed);
                s.prewarm_full_sweep();
                s
            }
        };
        let selector: Box<dyn ClientSelector> = match cfg.selector {
            SelectorChoice::FedAvg => Box::new(FedAvgSelector::new(split_seed(seed, 3))),
            SelectorChoice::Oort => {
                Box::new(OortSelector::new(split_seed(seed, 3), cfg.deadline_s / 2.0))
            }
            SelectorChoice::Refl => {
                Box::new(ReflSelector::new(split_seed(seed, 3), cfg.deadline_s))
            }
            SelectorChoice::FedBuff => Box::new(FedBuffSelector::new(
                split_seed(seed, 3),
                cfg.async_concurrency,
                cfg.async_buffer,
            )),
            SelectorChoice::Tifl => Box::new(TiflSelector::new(split_seed(seed, 3))),
        };
        let catalogue = ActionCatalogue::paper();
        let agent = match cfg.accel {
            AccelMode::Rl | AccelMode::Rlhf => {
                let mut a = if cfg.accel == AccelMode::Rl {
                    AgentConfig::rl_only(catalogue.len())
                } else {
                    AgentConfig::rlhf(catalogue.len())
                };
                a.w_participation = cfg.reward_w_participation;
                a.w_accuracy = cfg.reward_w_accuracy;
                Some(RlhfAgent::new(a, split_seed(seed, 4)))
            }
            _ => None,
        };
        let synth = *shards.spec().synthetic();
        let dims = [synth.feature_dim, PROXY_HIDDEN, synth.num_classes];
        let model = Mlp::new(
            &MlpConfig::new(synth.feature_dim, &[PROXY_HIDDEN], synth.num_classes),
            split_seed(seed, 6),
        );
        let eval_set = if cfg.eval_sample == 0 || cfg.eval_sample >= cfg.num_clients {
            (0..cfg.num_clients).collect()
        } else {
            let mut ids: Vec<usize> = (0..cfg.num_clients).collect();
            ids.shuffle(&mut seed_rng(split_seed(seed, 7)));
            ids.truncate(cfg.eval_sample);
            ids.sort_unstable();
            ids
        };
        Replay {
            cfg,
            l,
            c: Counters::default(),
            shards,
            sampler,
            selector,
            catalogue,
            agent,
            protected: model.protected_mask(),
            local: model.clone(),
            eval_model: model.clone(),
            model,
            flops_per_sample: mlp_train_flops_per_sample(&dims),
            hf_ema: HashMap::new(),
            error_feedback: HashMap::new(),
            clock: SimClock::new(),
            ledger: ResourceLedger::new(),
            server_optim: ServerOptimizer::new(cfg.server_optim),
            eval_set,
            backoff_s: 0.0,
        }
    }

    fn global_state(&self) -> GlobalState {
        GlobalState::from_raw(
            self.cfg.batch_size,
            self.cfg.local_epochs,
            self.cfg.cohort_size,
        )
    }

    /// Plan one client attempt: snapshot, shards, human-feedback EMA and the
    /// acceleration action.
    fn plan(&mut self, client: usize, round: usize, staleness: u64) -> Task {
        let sampler = &mut self.sampler;
        let snap = self
            .l
            .time("traces.snapshot", || sampler.snapshot(client, round));
        let profile = sampler.client(client).profile;
        let shards = &mut *self.shards;
        let (train, test) = self.l.time("data.shard_get", || shards.get(client));
        let shard_len = train.len();
        let base_cost = RoundCost::vanilla(
            &self.cfg.arch.profile(),
            shard_len,
            self.cfg.local_epochs,
            self.cfg.batch_size,
        );
        let vanilla_s = estimate_round_time_s(&snap, &base_cost);
        let overrun = ((vanilla_s - self.cfg.deadline_s) / self.cfg.deadline_s).max(0.0);
        let ema = self.hf_ema.entry(client).or_insert(0.0);
        *ema = 0.7 * *ema + 0.3 * overrun;
        let hf = DeadlineLevel::from_overrun(*ema);
        let global = self.global_state();
        let local =
            LocalState::from_fractions(snap.cpu_fraction, snap.mem_fraction, snap.net_fraction);
        let rounds = self.cfg.rounds;
        let action = match self.agent.as_mut() {
            Some(agent) => {
                let idx = self.l.time("rl.choose_action", || {
                    agent.choose_action(global, local, hf, round, rounds)
                });
                self.catalogue.action(idx)
            }
            None => AccelAction::NoOp,
        };
        let error_feedback = (action == AccelAction::TopK10).then(|| {
            self.error_feedback
                .get(&client)
                .cloned()
                .unwrap_or_default()
        });
        Task {
            client,
            staleness,
            attempt: 0,
            snap,
            profile,
            action,
            base_cost,
            shard_len,
            train,
            test,
            global,
            local,
            hf,
            error_feedback,
        }
    }

    /// Execute one attempt: acceleration plan, resource simulation, faults,
    /// and on completion local training plus the wire transform.
    fn execute(&mut self, round: usize, task: &Task, global: &[f32]) -> Exec {
        let span = self.l.begin("core.attempt");
        let cfg = self.cfg;
        let protected = &self.protected;
        let plan = self.l.time("accel.apply_action_protected", || {
            apply_action_protected(
                task.action,
                task.base_cost,
                global,
                split_seed(cfg.seed, (round as u64) << 20 | task.client as u64),
                Some(protected),
            )
        });
        let params = RoundParams {
            deadline_s: cfg.deadline_s,
            failure_hazard_per_s: cfg.failure_hazard_per_s,
        };
        let mut outcome = self.l.time("sim.execute_client_round", || {
            execute_client_round(
                &task.snap,
                &task.profile,
                &plan.cost,
                &params,
                split_seed(
                    cfg.seed,
                    0xE0 << 56 | (round as u64) << 20 | task.client as u64,
                ),
            )
        });
        let fault = cfg
            .fault_plan
            .draw(cfg.seed, round as u64, task.client as u64, task.attempt);
        if let Some(kind) = fault {
            if !kind.affects_payload() {
                apply_outcome_fault(&mut outcome, kind, &params);
            }
        }
        if !outcome.completed() {
            self.l.end(span);
            return Exec {
                outcome,
                utility: 0.0,
                improvement: 0.0,
                update: None,
                error_feedback: None,
                duplicate: false,
            };
        }
        let local = &mut self.local;
        self.l.time("tensor.set_params", || {
            local
                .set_params(global)
                .expect("the local model shares the global architecture")
        });
        let before = f64::from(
            self.l
                .time("tensor.evaluate_mut", || local.evaluate_mut(&task.test))
                .accuracy,
        );
        let mut opt = Sgd::new(cfg.learning_rate);
        let mut last_loss = 0.0f32;
        let drift = DriftOptions::default();
        for e in 0..cfg.local_epochs {
            let seed = split_seed(
                cfg.seed,
                (round as u64) << 24 | (task.client as u64) << 8 | e as u64,
            );
            last_loss = self.l.time("tensor.train_epoch", || {
                local.train_epoch_corrected(
                    &task.train,
                    cfg.batch_size,
                    &mut opt,
                    seed,
                    &plan.train_options,
                    &drift,
                )
            });
            self.c.train_samples += task.train.len() as u64;
            self.c.train_flops += task.train.len() as f64 * self.flops_per_sample;
        }
        let after = f64::from(
            self.l
                .time("tensor.evaluate_mut", || local.evaluate_mut(&task.test))
                .accuracy,
        );
        let delta: Vec<f32> = local
            .params()
            .iter()
            .zip(global)
            .map(|(l, g)| l - g)
            .collect();
        let (mut delta, error_feedback) = if task.action == AccelAction::TopK10 {
            let mut ef = task.error_feedback.clone().unwrap_or_default();
            let d = self
                .l
                .time("accel.transform_update", || ef.compress(&delta, 0.10));
            (d, Some(ef))
        } else {
            let d = self.l.time("accel.transform_update", || {
                transform_update(task.action, &delta, &plan)
            });
            (d, None)
        };
        if fault == Some(FaultKind::CorruptPayload) && !delta.is_empty() {
            let mid = delta.len() / 2;
            delta[0] = f32::NAN;
            delta[mid] = f32::INFINITY;
        }
        let utility = f64::from(last_loss.max(0.0)) * (task.train.len() as f64).sqrt();
        let improvement = ((after - before) * 10.0).clamp(0.0, 1.0);
        self.l.end(span);
        Exec {
            outcome,
            utility,
            improvement,
            update: Some(PendingUpdate {
                client: task.client,
                delta,
                samples: task.shard_len,
                staleness: task.staleness,
            }),
            error_feedback,
            duplicate: fault == Some(FaultKind::DuplicateDelivery),
        }
    }

    /// Commit one attempt: validation, ledger, battery, residual and agent
    /// feedback.
    fn commit(&mut self, round: usize, task: &Task, mut exec: Exec) -> Attempt {
        let quarantined = exec
            .update
            .as_ref()
            .is_some_and(|u| u.delta.iter().any(|v| !v.is_finite()));
        if quarantined {
            exec.outcome.dropped = Some(DropReason::Quarantined);
            exec.update = None;
            exec.error_feedback = None;
            exec.utility = 0.0;
            exec.improvement = 0.0;
        }
        self.ledger.record(&exec.outcome);
        self.sampler
            .drain_battery(task.client, exec.outcome.energy_j);
        if let Some(ef) = exec.error_feedback {
            self.error_feedback.insert(task.client, ef);
        }
        let completed = exec.outcome.completed();
        let rounds = self.cfg.rounds;
        if let Some(agent) = self.agent.as_mut() {
            let idx = self
                .catalogue
                .index_of(task.action)
                .expect("the action came from the catalogue");
            let improvement = exec.improvement;
            self.l.time("rl.feedback", || {
                if completed {
                    agent.feedback(
                        task.client,
                        task.global,
                        task.local,
                        task.hf,
                        idx,
                        1.0,
                        improvement,
                        round,
                        rounds,
                    );
                } else {
                    agent.feedback_dropout(
                        task.client,
                        task.global,
                        task.local,
                        task.hf,
                        idx,
                        round,
                        rounds,
                    );
                }
            });
        }
        self.c.attempts += 1;
        if completed {
            self.c.completed += 1;
        }
        Attempt {
            client: task.client,
            completed,
            duration_s: exec.outcome.total_s(),
            was_available: task.snap.available,
            utility: exec.utility,
            update: exec.update,
            quarantined,
            duplicate: exec.duplicate && completed,
            stalled: exec.outcome.dropped == Some(DropReason::NetworkStall),
        }
    }

    /// Plan, execute and commit one batch of attempts, with the synchronous
    /// engine's stall retries when `retry` is set.
    fn run_attempts(
        &mut self,
        round: usize,
        cohort: &[usize],
        global: &[f32],
        retry: bool,
    ) -> Vec<Attempt> {
        let plan = self.l.begin("core.plan");
        let tasks: Vec<Task> = cohort.iter().map(|&c| self.plan(c, round, 0)).collect();
        self.l.end(plan);
        let exec = self.l.begin("core.execute");
        let execs: Vec<Exec> = tasks
            .iter()
            .map(|t| self.execute(round, t, global))
            .collect();
        self.l.end(exec);
        let commit = self.l.begin("core.commit");
        let mut attempts: Vec<Attempt> = tasks
            .iter()
            .zip(execs)
            .map(|(t, e)| self.commit(round, t, e))
            .collect();
        let max_retries = self.cfg.fault_plan.stall_max_retries;
        if retry && max_retries > 0 {
            for (i, task0) in tasks.iter().enumerate() {
                let mut n = 0u32;
                while attempts[i].stalled && n < max_retries {
                    n += 1;
                    let mut task = task0.clone();
                    task.attempt = n;
                    task.error_feedback = (task.action == AccelAction::TopK10).then(|| {
                        self.error_feedback
                            .get(&task.client)
                            .cloned()
                            .unwrap_or_default()
                    });
                    self.backoff_s += self.cfg.fault_plan.stall_backoff_s;
                    let exec = self.execute(round, &task, global);
                    attempts[i] = self.commit(round, &task, exec);
                }
            }
        }
        self.l.end(commit);
        attempts
    }

    fn select(&mut self, round: usize, eligible: &[usize], cohort: &mut Vec<usize>) {
        let target = self.cfg.cohort_size;
        let selector = &mut self.selector;
        self.l.time("select.select_into", || {
            selector.select_into(round, eligible, target, cohort)
        });
        self.c.eligible_total += eligible.len() as u64;
    }

    fn refresh_eligible(&mut self, round: usize, eligible: &mut Vec<usize>) {
        let sampler = &mut self.sampler;
        self.l.time("traces.available_clients_into", || {
            sampler.available_clients_into(round, eligible)
        });
    }

    fn aggregate(&mut self, updates: &mut Vec<PendingUpdate>) {
        dedup_updates(updates);
        let mut global = self.model.params();
        let optim = &mut self.server_optim;
        self.l
            .time("core.aggregate", || optim.aggregate(&mut global, updates));
        self.model
            .set_params(&global)
            .expect("aggregation preserves the parameter count");
    }

    fn feedback(&mut self, round: usize, attempts: &[&Attempt]) {
        let fb: Vec<SelectionFeedback> = attempts
            .iter()
            .map(|a| SelectionFeedback {
                client: a.client,
                completed: a.completed,
                duration_s: a.duration_s,
                utility: a.utility,
                was_available: a.was_available,
                quarantined: a.quarantined,
            })
            .collect();
        let selector = &mut self.selector;
        self.l
            .time("select.feedback", || selector.feedback(round, &fb));
    }

    fn end_round(&mut self, round: usize) {
        self.c.rounds += 1;
        if round.is_multiple_of(self.cfg.eval_every) || round + 1 == self.cfg.rounds {
            self.eval_all();
        }
    }

    /// Global evaluation over the evaluation set.
    fn eval_all(&mut self) -> Vec<f64> {
        let span = self.l.begin("core.global_eval");
        let params = self.model.params();
        let m = &mut self.eval_model;
        self.l.time("tensor.set_params", || {
            m.set_params(&params).expect("same architecture")
        });
        let spec = self.shards.spec();
        let mut accs = Vec::with_capacity(self.eval_set.len());
        for &c in &self.eval_set {
            let test = self.l.time("data.test_shard", || spec.test_shard(c));
            let e = self.l.time("tensor.evaluate_mut", || m.evaluate_mut(&test));
            accs.push(f64::from(e.accuracy));
        }
        self.c.eval_clients += self.eval_set.len() as u64;
        self.l.end(span);
        accs
    }

    fn run_sync(&mut self) {
        let mut eligible = Vec::new();
        let mut cohort = Vec::new();
        for round in 0..self.cfg.rounds {
            self.refresh_eligible(round, &mut eligible);
            self.select(round, &eligible, &mut cohort);
            let global = self.model.params();
            let mut attempts = self.run_attempts(round, &cohort, &global, true);
            let mut updates = Vec::with_capacity(attempts.len());
            for a in attempts.iter_mut() {
                if let Some(u) = a.update.take() {
                    if a.duplicate {
                        updates.push(u.clone());
                    }
                    updates.push(u);
                }
            }
            self.aggregate(&mut updates);
            let backoff = std::mem::take(&mut self.backoff_s);
            let any_miss = attempts.iter().any(|a| !a.completed && a.was_available);
            let slowest = attempts
                .iter()
                .filter(|a| a.completed)
                .map(|a| a.duration_s)
                .fold(0.0f64, f64::max);
            let wall = if any_miss {
                self.cfg.deadline_s
            } else {
                slowest.max(1.0)
            } + backoff;
            self.clock.advance(wall);
            self.sampler.charge_all();
            let refs: Vec<&Attempt> = attempts.iter().collect();
            self.feedback(round, &refs);
            self.end_round(round);
        }
    }

    fn run_async(&mut self) {
        struct Finish {
            at_s: f64,
            client: usize,
            idx: usize,
        }
        impl PartialEq for Finish {
            fn eq(&self, o: &Self) -> bool {
                self.cmp(o) == Ordering::Equal
            }
        }
        impl Eq for Finish {}
        impl Ord for Finish {
            fn cmp(&self, o: &Self) -> Ordering {
                o.at_s
                    .total_cmp(&self.at_s)
                    .then(o.client.cmp(&self.client))
            }
        }
        impl PartialOrd for Finish {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        let mut heap = BinaryHeap::new();
        let mut store: Vec<Attempt> = Vec::new();
        let mut launch_agg: Vec<u64> = Vec::new();
        let mut buffer: Vec<PendingUpdate> = Vec::new();
        let mut agg_count = 0u64;
        let mut eligible = Vec::new();
        let mut launched = Vec::new();
        for round in 0..self.cfg.rounds {
            self.refresh_eligible(round, &mut eligible);
            let global = self.model.params();
            let mut done: Vec<usize> = Vec::new();
            loop {
                self.select(round, &eligible, &mut launched);
                let batch = self.run_attempts(round, &launched, &global, false);
                for a in batch {
                    let free_s = if a.completed {
                        a.duration_s.max(1.0)
                    } else {
                        self.cfg.deadline_s
                    };
                    heap.push(Finish {
                        at_s: self.clock.now_s() + free_s,
                        client: a.client,
                        idx: store.len(),
                    });
                    launch_agg.push(agg_count);
                    store.push(a);
                }
                if buffer.len() >= self.cfg.async_buffer {
                    break;
                }
                let Some(ev) = heap.pop() else { break };
                self.clock.advance((ev.at_s - self.clock.now_s()).max(0.0));
                self.feedback(round, &[&store[ev.idx]]);
                done.push(ev.idx);
                let a = &mut store[ev.idx];
                if a.completed {
                    let duplicate = a.duplicate;
                    if let Some(mut u) = a.update.take() {
                        u.staleness = agg_count - launch_agg[ev.idx];
                        if duplicate {
                            buffer.push(u.clone());
                        }
                        buffer.push(u);
                    }
                }
            }
            if !buffer.is_empty() {
                self.aggregate(&mut buffer);
                buffer.clear();
                agg_count += 1;
            }
            self.sampler.charge_all();
            self.end_round(round);
        }
    }
}
