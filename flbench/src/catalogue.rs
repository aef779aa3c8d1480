//! Every metric the benchmark emits, with its unit, the direction that is
//! better, and — for the per-layer metrics — which end-to-end metric it
//! should move and on which workload. `BENCHMARK.json` and `README.md`
//! list the same names; the benchmark's tests keep them in step.

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix before the first dot is the layer (crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric a change in this one should move (`None` for
    /// the trace's own bookkeeping).
    pub moves: Option<&'static str>,
    /// The workload on which it should move it.
    pub workload: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("rounds_per_s", "1/s", "higher", 0.25),
    e2e("train_samples_per_s", "1/s", "higher", 0.25),
    e2e("trials_per_hour", "1/h", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.2),
    e2e("final_accuracy_pct", "%", "higher", 0.08),
    e2e("dropout_pct", "%", "lower", 0.25),
    e2e("wasted_compute_pct", "%", "lower", 0.15),
    e2e("sim_hours", "sim_h", "lower", 0.05),
];

const SYNC: &str = "sync_paper_rlhf";
const ASYNC: &str = "async_1m_chaos";
const SWEEP: &str = "sweep_halving_rlhf";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves: Some(moves),
        workload,
    }
}

const fn own(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves: None,
        workload: "all",
    }
}

/// The per-layer metrics, reported on every workload by the traced run.
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.plan.wall_s", "s", "lower", "rounds_per_s", ASYNC),
    layer("core.commit.wall_s", "s", "lower", "rounds_per_s", ASYNC),
    layer("core.execute.wall_s", "s", "lower", "rounds_per_s", SYNC),
    layer(
        "core.sequential_share",
        "ratio",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "core.execute.idle_share",
        "ratio",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer("core.scaling_2v1", "x", "higher", "rounds_per_s", SYNC),
    layer(
        "core.aggregate.calls",
        "count",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer("core.aggregate.self_s", "s", "lower", "rounds_per_s", SYNC),
    layer(
        "core.global_eval.clients",
        "count",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "core.global_eval.self_s",
        "s",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "tensor.train_epoch.calls",
        "count",
        "lower",
        "train_samples_per_s",
        SYNC,
    ),
    layer(
        "tensor.train_epoch.self_s",
        "s",
        "lower",
        "train_samples_per_s",
        SYNC,
    ),
    layer(
        "tensor.train.samples",
        "count",
        "lower",
        "train_samples_per_s",
        SYNC,
    ),
    layer(
        "tensor.train.gflop_per_s",
        "GFLOP/s",
        "higher",
        "train_samples_per_s",
        SYNC,
    ),
    layer(
        "tensor.evaluate_mut.calls",
        "count",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "tensor.evaluate_mut.self_s",
        "s",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "tensor.set_params.self_s",
        "s",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "accel.apply_action_protected.calls",
        "count",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "accel.apply_action_protected.self_s",
        "s",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "accel.transform_update.self_s",
        "s",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "sim.execute_client_round.calls",
        "count",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "sim.execute_client_round.self_s",
        "s",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "sim.attempts.completed_ratio",
        "ratio",
        "higher",
        "dropout_pct",
        ASYNC,
    ),
    layer(
        "select.select_into.calls",
        "count",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "select.select_into.self_s",
        "s",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "select.eligible.mean_len",
        "count",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "select.feedback.self_s",
        "s",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "rl.choose_action.calls",
        "count",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer(
        "rl.choose_action.self_s",
        "s",
        "lower",
        "rounds_per_s",
        SYNC,
    ),
    layer("rl.feedback.self_s", "s", "lower", "rounds_per_s", SYNC),
    layer(
        "traces.available_clients_into.calls",
        "count",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "traces.available_clients_into.self_s",
        "s",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "traces.snapshot.calls",
        "count",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "traces.snapshot.self_s",
        "s",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer("traces.index.build_s", "s", "lower", "setup_s", ASYNC),
    layer(
        "data.shard_get.calls",
        "count",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer("data.shard_get.self_s", "s", "lower", "rounds_per_s", ASYNC),
    layer(
        "data.shard.hit_ratio",
        "ratio",
        "higher",
        "rounds_per_s",
        ASYNC,
    ),
    layer(
        "data.shard.derivations",
        "count",
        "lower",
        "rounds_per_s",
        ASYNC,
    ),
    layer("data.test_shard.self_s", "s", "lower", "rounds_per_s", SYNC),
    layer("obs.events", "count", "lower", "trials_per_hour", SWEEP),
    layer("obs.overhead_pct", "%", "lower", "trials_per_hour", SWEEP),
    layer("sweep.population.build_s", "s", "lower", "setup_s", SWEEP),
    layer(
        "sweep.shard_derivations",
        "count",
        "lower",
        "setup_s",
        SWEEP,
    ),
    layer("sweep.index_builds", "count", "lower", "setup_s", SWEEP),
    layer("sweep.trial.p50_s", "s", "lower", "trials_per_hour", SWEEP),
    layer("sweep.trial.max_s", "s", "lower", "trials_per_hour", SWEEP),
    layer(
        "sweep.worker.idle_share",
        "ratio",
        "lower",
        "trials_per_hour",
        SWEEP,
    ),
    layer(
        "sweep.rounds_executed_ratio",
        "ratio",
        "lower",
        "trials_per_hour",
        SWEEP,
    ),
    layer(
        "sweep.halving_regret_pts",
        "pp",
        "lower",
        "final_accuracy_pct",
        SWEEP,
    ),
    own("trace.unattributed_share", "ratio", "lower"),
    own("trace.overhead_pct", "%", "lower"),
    own("trace.replay.attempts", "count", "lower"),
    own("core.engine.attempts", "count", "lower"),
    own("trace.replay.plan_s", "s", "lower"),
    own("trace.replay.execute_s", "s", "lower"),
    own("trace.replay.commit_s", "s", "lower"),
];
