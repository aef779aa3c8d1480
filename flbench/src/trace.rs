//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! The untraced timed phase runs first (shorter than in `--trace 0`), then
//! one real run with the engine's `PhaseSpan` wall timers on, then the
//! [`replay`] of the same rounds with a span around every public call. The
//! replay's counts and phase totals are reported beside the engine's, and
//! the per-layer prediction check runs last.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use float_core::engine::parallel_map_with;
use float_core::trial::SharedPopulation;
use float_core::{Experiment, ExperimentConfig, ExperimentReport};
use float_data::SharedShardCache;
use float_obs::{Event, ObsConfig, Phase, Telemetry};
use float_sweep::{run_sweep, SweepOptions, SweepOutcome, SweepPlan};
use float_tensor::rng::split_seed;
use float_traces::ResourceSampler;

use crate::ledger::{Ledger, Totals};
use crate::replay::{replay, shard_spec, Counters, Shards, SharedTraces};
use crate::stats::{digest, median};
use crate::workload::{
    halving, measure_experiment, measure_sweep, promote, Budget, HalvingRun, Measured, Size,
    Workload, THREADS,
};

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The traced run's result.
pub struct Traced {
    /// The untraced phase it started with (its checks count too).
    pub measured: Measured,
    /// Every per-layer metric.
    pub values: Values,
    /// The span totals, by span name.
    pub spans: BTreeMap<&'static str, Totals>,
    /// Wall seconds of the replay the spans cover.
    pub replay_s: f64,
    /// Checks that failed, one line each.
    pub failures: Vec<String>,
}

/// Engine phase wall seconds summed from `PhaseSpan` events: plan,
/// execute, commit.
fn phase_totals(events: &[Event]) -> [f64; 3] {
    let mut t = [0.0; 3];
    for e in events {
        if let Event::PhaseSpan { phase, wall_us, .. } = e {
            let i = match phase {
                Phase::Plan => 0,
                Phase::Execute => 1,
                Phase::Commit => 2,
            };
            t[i] += *wall_us as f64 * 1e-6;
        }
    }
    t
}

/// Share of worker time left idle when each batch's attempts (durations in
/// order) are pulled by `workers` workers, the engine's schedule: the next
/// attempt goes to the first worker to come free.
fn idle_share(batches: &[Vec<f64>], workers: usize) -> f64 {
    let (mut idle, mut total) = (0.0, 0.0);
    for batch in batches {
        // The engine spawns no more workers than the batch has attempts.
        let mut free = vec![0.0f64; workers.min(batch.len()).max(1)];
        for &d in batch {
            let w = (0..free.len())
                .min_by(|&a, &b| free[a].total_cmp(&free[b]))
                .expect("at least one worker");
            free[w] += d;
        }
        let span = free.iter().copied().fold(0.0, f64::max);
        idle += span * free.len() as f64 - batch.iter().sum::<f64>();
        total += span * free.len() as f64;
    }
    if total > 0.0 {
        idle / total
    } else {
        0.0
    }
}

/// Median wall seconds of `reps` calls of `f`.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The engine-side facts the traced run compares the replay against.
#[derive(Debug, Default)]
struct Engine {
    /// Plan, execute and commit wall seconds from `PhaseSpan` events.
    phases: [f64; 3],
    /// Events the telemetry recorded (dropped ones included).
    events: u64,
    /// Committed attempts, from the resource ledger.
    attempts: u64,
}

impl Engine {
    fn add(&mut self, report: &ExperimentReport, telemetry: &Telemetry) {
        for (a, b) in self.phases.iter_mut().zip(phase_totals(&telemetry.events)) {
            *a += b;
        }
        self.events += telemetry.summary.events_recorded + telemetry.summary.events_dropped;
        self.attempts += report.resources.completions + report.resources.dropouts;
    }
}

/// Values every workload derives the same way from the replay's ledger.
fn ledger_values(
    v: &mut Values,
    l: &Ledger,
    c: &Counters,
    replay_s: f64,
    workers: usize,
) -> BTreeMap<&'static str, Totals> {
    let t = l.totals();
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let mut put_calls_self = |calls: &'static str, self_s: &'static str, span: &str| {
        v.insert(calls, get(span).calls as f64);
        v.insert(self_s, get(span).self_s);
    };
    put_calls_self(
        "core.aggregate.calls",
        "core.aggregate.self_s",
        "core.aggregate",
    );
    put_calls_self(
        "tensor.train_epoch.calls",
        "tensor.train_epoch.self_s",
        "tensor.train_epoch",
    );
    put_calls_self(
        "tensor.evaluate_mut.calls",
        "tensor.evaluate_mut.self_s",
        "tensor.evaluate_mut",
    );
    put_calls_self(
        "accel.apply_action_protected.calls",
        "accel.apply_action_protected.self_s",
        "accel.apply_action_protected",
    );
    put_calls_self(
        "sim.execute_client_round.calls",
        "sim.execute_client_round.self_s",
        "sim.execute_client_round",
    );
    put_calls_self(
        "select.select_into.calls",
        "select.select_into.self_s",
        "select.select_into",
    );
    put_calls_self(
        "rl.choose_action.calls",
        "rl.choose_action.self_s",
        "rl.choose_action",
    );
    put_calls_self(
        "traces.available_clients_into.calls",
        "traces.available_clients_into.self_s",
        "traces.available_clients_into",
    );
    put_calls_self(
        "traces.snapshot.calls",
        "traces.snapshot.self_s",
        "traces.snapshot",
    );
    put_calls_self(
        "data.shard_get.calls",
        "data.shard_get.self_s",
        "data.shard_get",
    );
    v.insert("core.global_eval.clients", c.eval_clients as f64);
    v.insert("core.global_eval.self_s", get("core.global_eval").self_s);
    v.insert("tensor.train.samples", c.train_samples as f64);
    let train_s = get("tensor.train_epoch").self_s;
    v.insert(
        "tensor.train.gflop_per_s",
        if train_s > 0.0 {
            c.train_flops / train_s * 1e-9
        } else {
            0.0
        },
    );
    v.insert("tensor.set_params.self_s", get("tensor.set_params").self_s);
    v.insert(
        "accel.transform_update.self_s",
        get("accel.transform_update").self_s,
    );
    v.insert(
        "sim.attempts.completed_ratio",
        c.completed as f64 / c.attempts.max(1) as f64,
    );
    let selects = get("select.select_into").calls.max(1);
    v.insert(
        "select.eligible.mean_len",
        c.eligible_total as f64 / selects as f64,
    );
    v.insert("select.feedback.self_s", get("select.feedback").self_s);
    v.insert("rl.feedback.self_s", get("rl.feedback").self_s);
    v.insert("data.test_shard.self_s", get("data.test_shard").self_s);
    let parallel = get("core.execute").incl_s + get("core.global_eval").incl_s;
    v.insert("core.sequential_share", 1.0 - parallel / replay_s);
    v.insert(
        "core.execute.idle_share",
        idle_share(
            &l.durations_by_parent("core.execute", "core.attempt"),
            workers,
        ),
    );
    v.insert(
        "trace.unattributed_share",
        (replay_s - l.covered_s()) / replay_s,
    );
    v.insert("trace.replay.attempts", c.attempts as f64);
    v.insert("trace.replay.plan_s", get("core.plan").incl_s);
    v.insert("trace.replay.execute_s", get("core.execute").incl_s);
    v.insert("trace.replay.commit_s", get("core.commit").incl_s);
    t
}

fn engine_values(v: &mut Values, e: &Engine) {
    v.insert("core.plan.wall_s", e.phases[0]);
    v.insert("core.execute.wall_s", e.phases[1]);
    v.insert("core.commit.wall_s", e.phases[2]);
    v.insert("obs.events", e.events as f64);
    v.insert("core.engine.attempts", e.attempts as f64);
}

/// Values read off the replay's shard store (`hits`, `misses`) and timed
/// from the population builders of `cfg`.
fn population_values(v: &mut Values, cfg: &ExperimentConfig, hits: u64, misses: u64) {
    v.insert(
        "data.shard.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.insert("data.shard.derivations", misses as f64);
    let trace_seed = split_seed(cfg.population_seed(), 2);
    v.insert(
        "traces.index.build_s",
        median_time(3, || {
            drop(ResourceSampler::build_index(cfg.num_clients, trace_seed))
        }),
    );
    v.insert(
        "sweep.population.build_s",
        median_time(3, || drop(SharedPopulation::build(cfg))),
    );
}

/// The 1-thread reference against the timed runs, and the replay against
/// the reference.
fn timing_values(v: &mut Values, m: &Measured, replay_s: f64) {
    let run_median = median(&m.runs.iter().map(|r| r.run_s).collect::<Vec<_>>());
    v.insert("core.scaling_2v1", m.reference_s / run_median);
    v.insert(
        "trace.overhead_pct",
        100.0 * (replay_s - m.reference_s) / m.reference_s,
    );
}

/// Trace a single-experiment workload.
fn trace_experiment(cfg: ExperimentConfig, budget: Budget) -> Result<Traced, String> {
    let m = measure_experiment(cfg, budget)?;
    let mut failures = Vec::new();
    let run_s: Vec<f64> = m.runs.iter().map(|r| r.run_s).collect();
    let run_median = median(&run_s);

    // One real run with the phase timers on; telemetry must not change the
    // report.
    let mut profiled = cfg;
    profiled.obs = ObsConfig::profiled();
    let t = Instant::now();
    let (mut report, telemetry) = Experiment::new(profiled)?.run_traced();
    let obs_run_s = t.elapsed().as_secs_f64();
    let mut engine = Engine::default();
    engine.add(&report, &telemetry);
    report.telemetry = None;
    if digest(&report) != m.reference_digest {
        failures.push("the telemetry-on run's report differs from the reference".to_string());
    }

    let mut l = Ledger::new();
    let mut shards = Shards::for_config(&cfg);
    let t = Instant::now();
    let c = replay(&cfg, &mut shards, None, &mut l)?;
    let replay_s = t.elapsed().as_secs_f64();

    let mut v = Values::new();
    let spans = ledger_values(&mut v, &l, &c, replay_s, cfg.effective_threads());
    engine_values(&mut v, &engine);
    let stats = shards.stats();
    population_values(&mut v, &cfg, stats.hits, stats.misses);
    // A single experiment is a one-trial sweep: it pays its own calendar
    // and shard derivations, and runs every round of its budget.
    v.insert("sweep.shard_derivations", stats.misses as f64);
    v.insert("sweep.index_builds", 1.0);
    v.insert("sweep.trial.p50_s", run_median);
    v.insert(
        "sweep.trial.max_s",
        run_s.iter().copied().fold(0.0, f64::max),
    );
    v.insert("sweep.worker.idle_share", 0.0);
    v.insert("sweep.rounds_executed_ratio", 1.0);
    v.insert("sweep.halving_regret_pts", 0.0);
    v.insert(
        "obs.overhead_pct",
        100.0 * (obs_run_s - run_median) / run_median,
    );
    timing_values(&mut v, &m, replay_s);
    failures.extend(m.failures.iter().cloned());
    Ok(Traced {
        measured: m,
        values: v,
        spans,
        replay_s,
        failures,
    })
}

/// Trace `sweep_halving_rlhf`: each plan's halving schedule once more on
/// the sweep's worker pool with per-trial timing and phase timers, every
/// trial run of it through the replay, and one trial with telemetry on and
/// off.
fn trace_sweep(plans: &[SweepPlan], size: Size, budget: Budget) -> Result<Traced, String> {
    let mut m = measure_sweep(plans, size, budget)?;
    let h = halving(size);
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut regret_pts = 0.0;
    let mut trial_s = Vec::new();
    let (mut idle, mut pool) = (0.0, 0.0);
    let mut engine = Engine::default();
    let mut l = Ledger::new();
    let mut c = Counters::default();
    let mut replay_s = 0.0;
    let (mut hits, mut misses) = (0u64, 0u64);
    for (plan, reference) in plans.iter().zip(&m.sweep_reference) {
        let full = plan.full_budget();
        let pop_cfg = plan.trial_config(0, full);
        // The schedule on the worker pool, each trial timed.
        let shared = SharedPopulation::build(&pop_cfg)?;
        let budgets = h.budgets(full);
        let mut survivors: Vec<usize> = (0..plan.len()).collect();
        for (rung, &b) in budgets.iter().enumerate() {
            let mut scratch = vec![(); THREADS];
            let t = Instant::now();
            let ran = parallel_map_with(&mut scratch, &survivors, |_, &idx| {
                let mut cfg = plan.trial_config(idx, b);
                cfg.obs = ObsConfig::profiled();
                let t = Instant::now();
                let r = Experiment::new_shared(cfg, &shared).map(Experiment::run_traced);
                r.map(|(report, tel)| (idx, report, tel, t.elapsed().as_secs_f64()))
            });
            let rung_s = t.elapsed().as_secs_f64();
            let mut ranked = Vec::new();
            for r in ran {
                let (idx, report, tel, s) = r?;
                engine.add(&report, &tel);
                trial_s.push(s);
                idle -= s;
                ranked.push((idx, report.accuracy.mean));
            }
            let workers = THREADS.min(survivors.len()).max(1) as f64;
            idle += rung_s * workers;
            pool += rung_s * workers;
            if rung + 1 == budgets.len() {
                break;
            }
            survivors = promote(ranked, h.eta);
        }
        drop(shared);
        regret_pts += grid_check(plan, reference, &mut notes, &mut failures)?;

        // Every trial run of the schedule through the replay, sharing one
        // shard store and one calendar like the sweep does.
        let traces = SharedTraces::build(&pop_cfg);
        let store = Arc::new(SharedShardCache::new(shard_spec(&pop_cfg)));
        let mut shards = Shards::Shared(Arc::clone(&store));
        let t = Instant::now();
        for &(idx, b, _) in &reference.runs {
            let one = replay(
                &plan.trial_config(idx, b),
                &mut shards,
                Some(&traces),
                &mut l,
            )?;
            c.add(&one);
        }
        replay_s += t.elapsed().as_secs_f64();
        let stats = store.stats();
        hits += stats.hits;
        misses += stats.misses;
    }

    // Telemetry's cost on one full-budget trial, on and off alternately.
    let plan = &plans[0];
    let full = plan.full_budget();
    let pop_cfg = plan.trial_config(0, full);
    let obs_shared = SharedPopulation::build(&pop_cfg)?;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (obs, out) in [(ObsConfig::on(), &mut on), (ObsConfig::off(), &mut off)] {
            let mut cfg = plan.trial_config(0, full);
            cfg.obs = obs;
            let t = Instant::now();
            drop(Experiment::new_shared(cfg, &obs_shared)?.run());
            out.push(t.elapsed().as_secs_f64());
        }
    }
    drop(obs_shared);

    let mut v = Values::new();
    let spans = ledger_values(&mut v, &l, &c, replay_s, pop_cfg.effective_threads());
    engine_values(&mut v, &engine);
    population_values(&mut v, &pop_cfg, hits, misses);
    let sum = |f: fn(&SweepOutcome) -> u64| m.sweeps.iter().map(f).sum::<u64>() as f64;
    v.insert(
        "sweep.shard_derivations",
        sum(|o| o.amortization.shard_derivations),
    );
    v.insert("sweep.index_builds", sum(|o| o.amortization.index_builds));
    v.insert("sweep.trial.p50_s", median(&trial_s));
    v.insert(
        "sweep.trial.max_s",
        trial_s.iter().copied().fold(0.0, f64::max),
    );
    v.insert(
        "sweep.worker.idle_share",
        if pool > 0.0 { idle / pool } else { 0.0 },
    );
    v.insert(
        "sweep.rounds_executed_ratio",
        sum(|o| o.rounds_executed as u64) / sum(|o| o.full_grid_rounds as u64).max(1.0),
    );
    v.insert("sweep.halving_regret_pts", regret_pts / plans.len() as f64);
    let off_s = median(&off);
    v.insert("obs.overhead_pct", 100.0 * (median(&on) - off_s) / off_s);
    timing_values(&mut v, &m, replay_s);
    let executed = sum(|o| o.rounds_executed as u64);
    if c.rounds as f64 != executed {
        failures.push(format!(
            "the replay ran {} rounds, the sweeps {executed}",
            c.rounds
        ));
    }
    failures.extend(m.failures.iter().cloned());
    m.notes.extend(notes);
    Ok(Traced {
        measured: m,
        values: v,
        spans,
        replay_s,
        failures,
    })
}

/// Run `plan`'s full grid with `run_sweep` (no halving) and compare it with
/// the 1-worker halving `reference`. Every halving survivor's final report
/// must equal the grid's report of the same trial bit for bit: pruning
/// decides which trials finish, never their bits. Returns the accuracy
/// points the halving winner trails the grid winner by — a measurement, not
/// a check, since successive halving does not guarantee the grid's argmax.
fn grid_check(
    plan: &SweepPlan,
    reference: &HalvingRun,
    notes: &mut Vec<String>,
    failures: &mut Vec<String>,
) -> Result<f64, String> {
    let full = plan.full_budget();
    let grid = run_sweep(
        plan,
        &SweepOptions {
            workers: THREADS,
            halving: None,
            obs_dir: None,
        },
    )?;
    for (idx, report) in reference.finals(full) {
        if grid
            .results
            .get(idx)
            .is_none_or(|g| g.idx != idx || &g.report != report)
        {
            failures.push(format!(
                "halving survivor {idx} differs from the grid's full-budget trial {idx}"
            ));
        }
    }
    if !grid.results.iter().all(|g| g.report.is_finite()) {
        failures.push("the full grid's output is not finite".to_string());
    }
    let (halving_winner, halving_report) = reference.winner(full);
    let grid_winner = grid.best().ok_or("the grid is empty")?;
    let acc = |r: &ExperimentReport| 100.0 * r.accuracy.mean;
    let regret_pts = acc(&grid_winner.report) - acc(halving_report);
    notes.push(format!(
        "sweep: halving winner {halving_winner} at {:.4}%, grid winner {} at {:.4}% ({regret_pts:.4} points better)",
        acc(halving_report),
        grid_winner.idx,
        acc(&grid_winner.report),
    ));
    Ok(regret_pts)
}

/// A layer predicted to stay near zero may take at most this share of the
/// replay's wall time.
const NEAR_ZERO: f64 = 0.01;

/// What the metric map predicts for `workload`: the spans it must exercise
/// (calls and self time both nonzero), and the layers that should stay
/// near zero there.
fn predictions(workload: Workload) -> (&'static [&'static str], &'static [&'static str]) {
    match workload {
        Workload::SyncPaperRlhf => (
            &[
                "tensor.train_epoch",
                "tensor.evaluate_mut",
                "accel.apply_action_protected",
                "accel.transform_update",
                "rl.choose_action",
                "rl.feedback",
                "core.aggregate",
                "core.global_eval",
                "data.test_shard",
            ],
            &["select", "traces"],
        ),
        Workload::Async1mChaos => (
            &[
                "select.select_into",
                "select.feedback",
                "traces.available_clients_into",
                "traces.snapshot",
                "sim.execute_client_round",
                "data.shard_get",
            ],
            &["accel", "rl"],
        ),
        Workload::SweepHalvingRlhf => (
            &[
                "tensor.train_epoch",
                "rl.choose_action",
                "rl.feedback",
                "core.aggregate",
                "core.global_eval",
                "data.shard_get",
            ],
            &["select", "traces"],
        ),
    }
}

/// Check the traced run against [`predictions`], one line per miss.
fn check_predictions(
    workload: Workload,
    spans: &BTreeMap<&'static str, Totals>,
    replay_s: f64,
) -> Vec<String> {
    let (stressed, quiet) = predictions(workload);
    let mut misses = Vec::new();
    for name in stressed {
        let t = spans.get(name).copied().unwrap_or_default();
        if t.calls == 0 || t.self_s <= 0.0 {
            misses.push(format!(
                "{} should exercise {name} but made {} calls taking {} s",
                workload.name(),
                t.calls,
                t.self_s
            ));
        }
    }
    for layer in quiet {
        let prefix = format!("{layer}.");
        let self_s: f64 = spans
            .iter()
            .filter(|(n, _)| n.starts_with(&prefix))
            .map(|(_, t)| t.self_s)
            .sum();
        let share = self_s / replay_s;
        if share > NEAR_ZERO {
            misses.push(format!(
                "{} should leave layer {layer} near zero but it took {:.2}% of the replay",
                workload.name(),
                100.0 * share
            ));
        }
    }
    misses
}

/// Trace `workload` and check the per-layer predictions.
pub fn trace(workload: Workload, seed: u64, size: Size, budget: Budget) -> Result<Traced, String> {
    use crate::workload::{async_config, sweep_plans, sync_config};
    let mut t = match workload {
        Workload::SyncPaperRlhf => trace_experiment(sync_config(seed, size), budget),
        Workload::Async1mChaos => trace_experiment(async_config(seed, size), budget),
        Workload::SweepHalvingRlhf => trace_sweep(&sweep_plans(seed, size), size, budget),
    }?;
    let misses = check_predictions(workload, &t.spans, t.replay_s);
    t.failures.extend(misses);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_share_follows_the_first_free_worker() {
        // Two workers: [3, 1, 1, 1] -> worker 0 runs 3, worker 1 runs 1+1+1;
        // both finish at 3, nothing idles.
        assert_eq!(idle_share(&[vec![3.0, 1.0, 1.0, 1.0]], 2), 0.0);
        // [1, 3]: worker 0 idles 2 of the 6 worker-seconds.
        assert!((idle_share(&[vec![1.0, 3.0]], 2) - 2.0 / 6.0).abs() < 1e-12);
        // A one-attempt batch runs on one worker, as the engine runs it.
        assert_eq!(idle_share(&[vec![2.0]], 2), 0.0);
    }
}
