//! The benchmark's workloads: how each is configured from the command-line
//! seed, and the untraced timed runs that produce the end-to-end metrics.
//!
//! Every workload runs inside one process on at most [`THREADS`] threads.
//! The program under test receives only the generated configuration.

use std::time::Instant;

use float_core::trial::{run_trial, SharedPopulation};
use float_core::{AccelMode, Experiment, ExperimentConfig, ExperimentReport, SelectorChoice};
use float_data::Task;
use float_sim::FaultPlan;
use float_sweep::{run_sweep, Halving, Knob, SweepOptions, SweepOutcome, SweepPlan};
use float_tensor::rng::split_seed;

use crate::replay::shard_spec;
use crate::stats::{digest, peak_rss_mib};

/// Worker threads of every timed run (the host this benchmark targets has
/// two cores; the sweep runs two single-threaded trials at once instead).
pub const THREADS: usize = 2;

/// Seed the command-line seed is mixed into (the paper-e2e default seed).
const BASE_SEED: u64 = 20_240_422;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline setting: Oort + RLHF, 200 clients, cohort 30.
    SyncPaperRlhf,
    /// FedBuff over one million clients under the chaos fault plan.
    Async1mChaos,
    /// Four 3×3 successive-halving sweeps, each over its own shared
    /// population.
    SweepHalvingRlhf,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [
        Workload::SyncPaperRlhf,
        Workload::Async1mChaos,
        Workload::SweepHalvingRlhf,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncPaperRlhf => "sync_paper_rlhf",
            Workload::Async1mChaos => "async_1m_chaos",
            Workload::SweepHalvingRlhf => "sweep_halving_rlhf",
        }
    }

    /// The workloads `BENCHMARK.json` declares, whose end-to-end metrics
    /// carry regression bounds. `async_1m_chaos` runs from the same command
    /// but is not among them: its planning is bound by memory latency over
    /// a million-client population, and on a shared 2-core host identical
    /// runs within one invocation differ by up to 2×, so its timings spread
    /// past any bound the benchmark may set.
    pub const GATED: [Workload; 2] = [Workload::SyncPaperRlhf, Workload::SweepHalvingRlhf];

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a workload runs: `Full` is the benchmark, `Tiny` a seconds-long
/// stand-in for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark sizes.
    Full,
    /// Small sizes with the same code paths.
    Tiny,
}

/// The root seed a workload derives from the command-line seed: well mixed
/// and never zero (zero means "unset" for a sweep's population seed).
fn root_seed(seed: u64) -> u64 {
    split_seed(BASE_SEED, seed).max(1)
}

/// `sync_paper_rlhf`: `paper_e2e(Cifar10, Oort, Rlhf, 300)` with 200
/// clients, cohort 30, 5 local epochs, on [`THREADS`] threads.
pub fn sync_config(seed: u64, size: Size) -> ExperimentConfig {
    let rounds = match size {
        Size::Full => 300,
        Size::Tiny => 12,
    };
    let mut c =
        ExperimentConfig::paper_e2e(Task::Cifar10, SelectorChoice::Oort, AccelMode::Rlhf, rounds);
    c.num_clients = 200;
    c.cohort_size = 30;
    c.local_epochs = 5;
    if size == Size::Tiny {
        c.num_clients = 40;
        c.cohort_size = 10;
        c.local_epochs = 2;
        c.eval_every = 4;
    }
    c.seed = root_seed(seed);
    c.num_threads = THREADS;
    c
}

/// `async_1m_chaos`: the one-million-client population preset with
/// FedBuff, acceleration off and the chaos fault plan, 40 aggregation
/// rounds, on [`THREADS`] threads.
pub fn async_config(seed: u64, size: Size) -> ExperimentConfig {
    // The repository's `Pop1M` preset: 1M clients with the quick-scale
    // per-round working set, a 256-client evaluation sample, and the full
    // availability sweep (no candidate pool).
    let mut c =
        ExperimentConfig::paper_e2e(Task::Cifar10, SelectorChoice::FedBuff, AccelMode::Off, 40);
    c.num_clients = 1_000_000;
    c.cohort_size = 16;
    c.async_concurrency = 40;
    c.async_buffer = 15;
    c.mean_samples = 80;
    c.local_epochs = 2;
    c.batch_size = 16;
    c.eval_sample = 256;
    c.eval_every = 10;
    c.candidate_pool = 0;
    c.fault_plan = FaultPlan::chaos();
    if size == Size::Tiny {
        c.num_clients = 20_000;
        c.rounds = 4;
        c.eval_every = 4;
    }
    c.seed = root_seed(seed);
    c.num_threads = THREADS;
    c
}

/// Independent sweeps one `sweep_halving_rlhf` run executes. Which trials
/// survive halving — and so how much work a sweep does — varies with the
/// seed; four populations per run halve the spread that gives the timings.
pub const SWEEPS_PER_RUN: u64 = 4;

/// `sweep_halving_rlhf`: [`SWEEPS_PER_RUN`] sweeps, each cohort 10/20/30 ×
/// local epochs 1/3/5 over a `paper_e2e(Cifar10, FedAvg, Rlhf, 60)` base
/// and its own population (root seed).
pub fn sweep_plans(seed: u64, size: Size) -> Vec<SweepPlan> {
    let (rounds, axes) = match size {
        Size::Full => (
            60,
            vec![
                vec![
                    Knob::CohortSize(10),
                    Knob::CohortSize(20),
                    Knob::CohortSize(30),
                ],
                vec![
                    Knob::LocalEpochs(1),
                    Knob::LocalEpochs(3),
                    Knob::LocalEpochs(5),
                ],
            ],
        ),
        Size::Tiny => (
            10,
            vec![
                vec![Knob::CohortSize(5), Knob::CohortSize(10)],
                vec![Knob::LocalEpochs(1), Knob::LocalEpochs(2)],
            ],
        ),
    };
    let mut base = ExperimentConfig::paper_e2e(
        Task::Cifar10,
        SelectorChoice::FedAvg,
        AccelMode::Rlhf,
        rounds,
    );
    if size == Size::Tiny {
        base.num_clients = 40;
        base.eval_every = 5;
    }
    (0..SWEEPS_PER_RUN)
        .map(|j| SweepPlan::grid(base, split_seed(root_seed(seed), j).max(1), &axes))
        .collect()
}

/// The halving schedule of `sweep_halving_rlhf`: rungs of 7, 21 and the
/// full 60 rounds, keeping the top third at each (the tiny sweep's budget
/// is shorter).
pub fn halving(size: Size) -> Halving {
    match size {
        Size::Full => Halving { eta: 3, r0: 7 },
        Size::Tiny => Halving { eta: 2, r0: 3 },
    }
}

/// The deterministic outcome of a workload: a faster program that computes
/// something else moves one of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guards {
    /// Final mean client accuracy, percent.
    pub final_accuracy_pct: f64,
    /// Dropped attempts over all committed attempts, percent.
    pub dropout_pct: f64,
    /// Wasted over total client compute hours, percent.
    pub wasted_compute_pct: f64,
    /// Simulated wall-clock hours.
    pub sim_hours: f64,
}

impl Guards {
    /// The guards of one run.
    pub fn of(r: &ExperimentReport) -> Guards {
        Guards::over(100.0 * r.accuracy.mean, [r])
    }

    /// The guards of several runs taken together (a sweep's trial runs):
    /// `final_accuracy_pct` as given, the others over all their attempts,
    /// compute hours and simulated hours.
    pub fn over<'a>(
        final_accuracy_pct: f64,
        runs: impl IntoIterator<Item = &'a ExperimentReport>,
    ) -> Guards {
        let (mut dropped, mut attempts, mut wasted_h, mut compute_h, mut sim_hours) =
            (0, 0, 0.0, 0.0, 0.0);
        for r in runs {
            dropped += r.total_dropouts;
            attempts += r.total_dropouts + r.total_completions;
            wasted_h += r.resources.wasted_compute_h;
            compute_h += r.resources.total_compute_h();
            sim_hours += r.wall_clock_h;
        }
        Guards {
            final_accuracy_pct,
            dropout_pct: 100.0 * dropped as f64 / attempts.max(1) as f64,
            wasted_compute_pct: if compute_h > 0.0 {
                100.0 * wasted_h / compute_h
            } else {
                0.0
            },
            sim_hours,
        }
    }
}

/// Training samples a report's completions processed: Σ over clients of
/// completions × train-shard length × local epochs.
fn train_samples(report: &ExperimentReport, cfg: &ExperimentConfig) -> f64 {
    let spec = shard_spec(cfg);
    report
        .completed_count
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(c, &n)| n as f64 * spec.train_shard(c).len() as f64 * cfg.local_epochs as f64)
        .sum()
}

/// One timed run's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Run wall seconds.
    pub run_s: f64,
    /// Digest of the run's output.
    pub digest: u64,
    /// Whether the output is entirely finite.
    pub finite: bool,
}

/// Everything the untraced timed phase of a workload measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// One entry per timed run.
    pub runs: Vec<Timed>,
    /// Set-up wall seconds, one sample per set-up (`Experiment::new`, or a
    /// sweep's `SharedPopulation::build` plus one `Experiment::new_shared`).
    pub setup_s: Vec<f64>,
    /// Aggregation rounds one run completes (all trials, for the sweep).
    pub rounds: usize,
    /// Trials one run completes (1 for a single experiment).
    pub trials: usize,
    /// Local training samples one run processes.
    pub train_samples: f64,
    /// The deterministic guards (for the sweep: the winners' mean accuracy,
    /// and the rest over every trial run of every rung).
    pub guards: Guards,
    /// Peak RSS after the timed runs, MiB.
    pub peak_rss_mib: f64,
    /// Wall seconds of the single-threaded reference (for the sweep, its
    /// 1-worker halving schedules).
    pub reference_s: f64,
    /// Digest of the single-threaded reference output.
    pub reference_digest: u64,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// The last timed run's sweep outcomes, one per plan
    /// (`sweep_halving_rlhf` only).
    pub sweeps: Vec<SweepOutcome>,
    /// Per plan, its 1-worker halving reference (`sweep_halving_rlhf`
    /// only).
    pub sweep_reference: Vec<HalvingRun>,
    /// Informational lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Measured {
    /// Operations attempted: the timed runs plus the reference.
    pub fn attempted(&self) -> usize {
        self.runs.len() + 1
    }
}

/// Timed runs keep going until the budget is spent and at least this many
/// have finished (the traced mode asks for fewer).
pub const MIN_RUNS: usize = 3;

/// Set-up is sampled at least this many times, and for at least
/// [`SETUP_SECONDS`], per invocation (at most [`MAX_SETUP_SAMPLES`] times):
/// a cheap set-up is timed thousands of times, an expensive one a few.
const MIN_SETUP_SAMPLES: usize = 15;

/// Minimum wall time spent sampling set-up after the timed runs.
const SETUP_SECONDS: f64 = 0.5;

/// Most set-up samples taken per invocation.
const MAX_SETUP_SAMPLES: usize = 2000;

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall seconds to keep starting runs for.
    pub seconds: f64,
    /// Runs to finish whatever the time.
    pub min_runs: usize,
}

/// Repeat `run` until the budget's time has elapsed and its minimum number
/// of runs finished.
fn timed_loop(
    budget: Budget,
    mut run: impl FnMut() -> Result<Timed, String>,
) -> Result<Vec<Timed>, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < budget.min_runs.max(1) || start.elapsed().as_secs_f64() < budget.seconds {
        runs.push(run()?);
    }
    Ok(runs)
}

/// Sample set-up after the timed runs until there are [`MIN_SETUP_SAMPLES`]
/// in all and [`SETUP_SECONDS`] have passed, but never past
/// [`MAX_SETUP_SAMPLES`].
fn sample_setup(
    samples: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let start = Instant::now();
    while samples.len() < MAX_SETUP_SAMPLES
        && (samples.len() < MIN_SETUP_SAMPLES || start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        samples.push(setup()?);
    }
    Ok(())
}

/// Compare every timed digest against the reference digest.
fn check_runs(runs: &[Timed], reference: u64, failures: &mut Vec<String>) {
    for (i, r) in runs.iter().enumerate() {
        if r.digest != reference {
            failures.push(format!(
                "timed run {i}: output digest {:016x} differs from the 1-thread reference {reference:016x}",
                r.digest
            ));
        }
        if !r.finite {
            failures.push(format!("timed run {i}: output is not finite"));
        }
    }
}

/// Wall seconds of one `Experiment::new`.
fn time_setup(cfg: ExperimentConfig) -> Result<f64, String> {
    let t = Instant::now();
    let exp = Experiment::new(cfg)?;
    let s = t.elapsed().as_secs_f64();
    drop(exp);
    Ok(s)
}

/// Measure a single-experiment workload (`sync_paper_rlhf`,
/// `async_1m_chaos`): a 1-thread reference run first (it also warms the
/// process), then timed runs on [`THREADS`] threads.
pub fn measure_experiment(cfg: ExperimentConfig, budget: Budget) -> Result<Measured, String> {
    let mut reference_cfg = cfg;
    reference_cfg.num_threads = 1;
    let t = Instant::now();
    let reference = Experiment::new(reference_cfg)?.run();
    let reference_s = t.elapsed().as_secs_f64();
    let reference_digest = digest(&reference);

    let mut setup_s = Vec::new();
    let runs = timed_loop(budget, || {
        let t0 = Instant::now();
        let exp = Experiment::new(cfg)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let report = exp.run();
        let run_s = t1.elapsed().as_secs_f64();
        Ok(Timed {
            run_s,
            digest: digest(&report),
            finite: report.is_finite(),
        })
    })?;
    let peak_rss_mib = peak_rss_mib().unwrap_or(f64::NAN);
    sample_setup(&mut setup_s, || time_setup(cfg))?;

    let mut failures = Vec::new();
    if !reference.is_finite() {
        failures.push("1-thread reference output is not finite".to_string());
    }
    check_runs(&runs, reference_digest, &mut failures);
    Ok(Measured {
        runs,
        setup_s,
        rounds: reference.rounds.len(),
        trials: 1,
        train_samples: train_samples(&reference, &cfg),
        guards: Guards::of(&reference),
        peak_rss_mib,
        reference_s,
        reference_digest,
        failures,
        sweeps: Vec::new(),
        sweep_reference: Vec::new(),
        notes: Vec::new(),
    })
}

/// One trial run of the sweep reference: `(trial, budget, report)`.
pub type TrialRun = (usize, usize, ExperimentReport);

/// `run_sweep`'s promotion rule: keep the top `ceil(n/eta)` of
/// `(trial, accuracy)` pairs by accuracy, ties to the lower index; returns
/// them in index order.
pub fn promote(mut ranked: Vec<(usize, f64)>, eta: usize) -> Vec<usize> {
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let keep = ranked.len().div_ceil(eta).max(1);
    let mut survivors: Vec<usize> = ranked.iter().take(keep).map(|r| r.0).collect();
    survivors.sort_unstable();
    survivors
}

/// The trial with the best final accuracy (ties to the lower index).
pub fn winner<'a>(reports: impl Iterator<Item = (usize, &'a ExperimentReport)>) -> Option<usize> {
    reports
        .min_by(|a, b| {
            b.1.accuracy
                .mean
                .total_cmp(&a.1.accuracy.mean)
                .then(a.0.cmp(&b.0))
        })
        .map(|(i, _)| i)
}

/// A sweep's final records as `(trial, report)` pairs, the part of its
/// output the digests cover.
pub type Finals<'a> = Vec<(usize, &'a ExperimentReport)>;

/// One sweep's successive-halving schedule run on one worker: the
/// reference its timed runs must reproduce.
#[derive(Debug, Clone)]
pub struct HalvingRun {
    /// Every trial run of the schedule, in rung order.
    pub runs: Vec<TrialRun>,
    /// The final survivors, in index order.
    pub survivors: Vec<usize>,
    /// Wall seconds of the schedule, shared-population build included.
    pub wall_s: f64,
}

impl HalvingRun {
    /// Run `plan`'s halving schedule on one worker through the public
    /// trial API, keeping every rung's report (`run_sweep` returns only the
    /// survivors').
    ///
    /// # Errors
    ///
    /// Propagates trial-construction errors.
    pub fn new(plan: &SweepPlan, size: Size) -> Result<HalvingRun, String> {
        let t = Instant::now();
        let shared = SharedPopulation::build(&plan.trial_config(0, plan.full_budget()))?;
        let halving = halving(size);
        let budgets = halving.budgets(plan.full_budget());
        let mut survivors: Vec<usize> = (0..plan.len()).collect();
        let mut runs = Vec::new();
        for (rung, &budget) in budgets.iter().enumerate() {
            let mut ranked = Vec::with_capacity(survivors.len());
            for &idx in &survivors {
                let report = run_trial(plan.trial_config(idx, budget), Some(&shared))?;
                ranked.push((idx, report.accuracy.mean));
                runs.push((idx, budget, report));
            }
            if rung + 1 == budgets.len() {
                break;
            }
            survivors = promote(ranked, halving.eta);
        }
        Ok(HalvingRun {
            runs,
            survivors,
            wall_s: t.elapsed().as_secs_f64(),
        })
    }

    /// The survivors' full-budget records.
    pub fn finals(&self, full: usize) -> Finals<'_> {
        self.runs
            .iter()
            .filter(|(idx, b, _)| *b == full && self.survivors.contains(idx))
            .map(|(idx, _, r)| (*idx, r))
            .collect()
    }

    /// The halving winner's full-budget record.
    pub fn winner(&self, full: usize) -> (usize, &ExperimentReport) {
        let finals = self.finals(full);
        let best = winner(finals.iter().copied()).expect("halving keeps a trial");
        finals
            .into_iter()
            .find(|(i, _)| *i == best)
            .expect("the winner survived")
    }

    /// Rounds the schedule executes.
    pub fn rounds(&self) -> usize {
        self.runs.iter().map(|(_, b, _)| b).sum()
    }
}

/// Measure `sweep_halving_rlhf`: every timed run executes each plan's sweep
/// once, in order, and must reproduce each plan's 1-worker halving
/// reference bit for bit.
pub fn measure_sweep(plans: &[SweepPlan], size: Size, budget: Budget) -> Result<Measured, String> {
    let opts = SweepOptions {
        workers: THREADS,
        halving: Some(halving(size)),
        obs_dir: None,
    };
    let mut failures = Vec::new();
    let refs: Vec<HalvingRun> = plans
        .iter()
        .map(|p| HalvingRun::new(p, size))
        .collect::<Result<_, _>>()?;
    if !refs
        .iter()
        .flat_map(|r| &r.runs)
        .all(|(_, _, r)| r.is_finite())
    {
        failures.push("the 1-worker sweep reference is not finite".to_string());
    }
    let reference_s = refs.iter().map(|r| r.wall_s).sum();
    let reference_digest = digest(
        &refs
            .iter()
            .zip(plans)
            .map(|(r, p)| r.finals(p.full_budget()))
            .collect::<Vec<_>>(),
    );

    let setup = |plan: &SweepPlan| -> Result<f64, String> {
        let cfg = plan.trial_config(0, plan.full_budget());
        let t = Instant::now();
        let pop = SharedPopulation::build(&cfg)?;
        let exp = Experiment::new_shared(cfg, &pop)?;
        let s = t.elapsed().as_secs_f64();
        drop(exp);
        Ok(s)
    };
    let mut setup_s = Vec::new();
    let mut last: Vec<SweepOutcome> = Vec::new();
    let runs = timed_loop(budget, || {
        for plan in plans {
            setup_s.push(setup(plan)?);
        }
        let t = Instant::now();
        let outcomes: Vec<SweepOutcome> = plans
            .iter()
            .map(|p| run_sweep(p, &opts))
            .collect::<Result<_, _>>()?;
        let run_s = t.elapsed().as_secs_f64();
        let finals: Vec<Finals<'_>> = outcomes
            .iter()
            .map(|o| o.results.iter().map(|r| (r.idx, &r.report)).collect())
            .collect();
        let timed = Timed {
            run_s,
            digest: digest(&finals),
            finite: finals.iter().flatten().all(|(_, r)| r.is_finite()),
        };
        for (o, r) in outcomes.iter().zip(&refs) {
            if o.rounds_executed != r.rounds() {
                failures.push(format!(
                    "a sweep executed {} rounds, its 1-worker reference {}",
                    o.rounds_executed,
                    r.rounds()
                ));
            }
        }
        last = outcomes;
        Ok(timed)
    })?;
    let peak_rss_mib = peak_rss_mib().unwrap_or(f64::NAN);
    let mut next = 0;
    sample_setup(&mut setup_s, || {
        next += 1;
        setup(&plans[next % plans.len()])
    })?;
    check_runs(&runs, reference_digest, &mut failures);

    let winners_pct: f64 = refs
        .iter()
        .zip(plans)
        .map(|(r, p)| 100.0 * r.winner(p.full_budget()).1.accuracy.mean)
        .sum();
    Ok(Measured {
        runs,
        setup_s,
        rounds: refs.iter().map(HalvingRun::rounds).sum(),
        trials: plans.iter().map(SweepPlan::len).sum(),
        train_samples: refs
            .iter()
            .zip(plans)
            .flat_map(|(r, p)| {
                r.runs
                    .iter()
                    .map(move |(idx, b, rep)| train_samples(rep, &p.trial_config(*idx, *b)))
            })
            .sum(),
        // The sweeps' outcome is their winners' accuracy; their cost is
        // every trial run of every rung.
        guards: Guards::over(
            winners_pct / refs.len() as f64,
            refs.iter()
                .flat_map(|r| r.runs.iter().map(|(_, _, rep)| rep)),
        ),
        peak_rss_mib,
        reference_s,
        reference_digest,
        failures,
        sweeps: last,
        sweep_reference: refs,
        notes: Vec::new(),
    })
}
