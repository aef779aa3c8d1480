//! `population_scale` — round throughput and peak memory at population
//! scale (10k / 100k / 1M / 10M clients).
//!
//! The claim under test: with lazy shards, an event-driven availability
//! index, sampled candidate pools, top-k selection, and sampled
//! evaluation, per-round cost is O(cohort + diurnal transitions) and
//! memory is O(index + caches), so a ten-million-client population runs
//! on a laptop. Each row reports rounds/sec plus the process high-water
//! RSS (`VmHWM`), the shard cache's peak residency, and the availability
//! substrate's footprint: index heap bytes, diurnal transitions applied
//! per round, tracked (non-full) batteries, and trace-cache residency.
//!
//! Populations run in ascending order: `VmHWM` is a monotone per-process
//! high-water mark, so each row's RSS reflects the largest population run
//! *so far* — ascending order makes it attributable to that row's scale.
//!
//! A 10k-client determinism probe (1 vs 2 worker threads) and a parse-back
//! self-check of the emitted JSON guard the benchmark itself.
//!
//! ```text
//! population_scale [--scales 10k,100k,1m,10m] [--rounds N] [--out PATH] [--quick]
//! ```
//!
//! `--quick` is the CI mode: the 10k sweep rows plus a pooled stand-in —
//! the 10M preset's config (candidate_pool 2048) downsized to 10k clients
//! so CI exercises the pooled planner path without the 10M wall-clock.
//! Output lands under `target/`, same self-checks.

use std::time::Instant;

use float_bench::{selfcheck, Scale};
use float_core::{AccelMode, Experiment, SelectorChoice};
use float_data::Task;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct PopulationRow {
    clients: usize,
    mode: String,
    rounds: usize,
    seconds: f64,
    rounds_per_sec: f64,
    /// Process high-water RSS after this run, MiB (monotone across rows).
    peak_rss_mb: f64,
    /// Shard-cache capacity the runtime resolved for this population.
    cache_capacity: usize,
    /// Most shards ever resident at once — must stay <= cache_capacity.
    cache_peak_resident: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    /// Candidate-pool size the run planned with (0 = full sweep).
    candidate_pool: usize,
    /// Heap footprint of the availability index (calendars + bitset), MiB.
    index_heap_mb: f64,
    /// Mean diurnal on/off transitions applied per index advance — the
    /// event-driven planner's per-round work, vs O(clients) for a sweep.
    avail_transitions_per_round: f64,
    /// Most non-full batteries tracked at once (lazy battery residency).
    peak_tracked_batteries: usize,
    /// Client traces resident in the bounded rederivation cache at end.
    trace_cache_resident: usize,
    /// Capacity of that cache.
    trace_cache_capacity: usize,
    /// Heap held by eagerly materialized sweep models, MiB (0 under
    /// pooling — the pooled path never builds them).
    sweep_models_mb: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchReport {
    benchmark: String,
    selector_sync: String,
    selector_async: String,
    accel: String,
    deterministic_at_10k_across_threads: bool,
    rows: Vec<PopulationRow>,
}

/// Peak resident set size of this process in MiB, from `/proc/self/status`
/// (`VmHWM`). Returns 0.0 where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Run one benchmark configuration and collect its row, including the
/// availability substrate's residency stats.
fn run_row(cfg: float_core::ExperimentConfig, mode: &str) -> PopulationRow {
    let rounds = cfg.rounds;
    let clients = cfg.num_clients;
    let capacity = cfg.resolved_shard_cache();
    let pool = cfg.candidate_pool;
    eprintln!("population_scale: {clients} clients, {mode}, {rounds} rounds (pool {pool}) ...");
    let exp = Experiment::new(cfg).expect("valid config");
    let start = Instant::now();
    let (report, run_stats) = exp.run_with_stats();
    let (stats, avail) = (run_stats.cache, run_stats.availability);
    let seconds = start.elapsed().as_secs_f64();
    assert!(report.is_finite(), "report carries NaN/Inf at {clients}");
    assert!(
        stats.peak_resident <= stats.capacity,
        "cache exceeded its capacity: {} > {}",
        stats.peak_resident,
        stats.capacity
    );
    let rps = rounds as f64 / seconds.max(1e-9);
    let rss = peak_rss_mb();
    let transitions_per_round = if avail.rounds_advanced > 0 {
        avail.transitions_applied as f64 / avail.rounds_advanced as f64
    } else {
        0.0
    };
    let index_heap_mb = avail.index_heap_bytes as f64 / (1024.0 * 1024.0);
    let sweep_models_mb = avail.sweep_models_bytes as f64 / (1024.0 * 1024.0);
    eprintln!(
        "  {seconds:8.3}s  {rps:7.2} rounds/s  rss {rss:7.1} MiB  \
         cache {}/{} resident (hits {} misses {} evictions {})",
        stats.peak_resident, stats.capacity, stats.hits, stats.misses, stats.evictions
    );
    eprintln!(
        "  index {index_heap_mb:.1} MiB, {transitions_per_round:.0} transitions/round, \
         {} tracked batteries peak, traces {}/{}, sweep models {sweep_models_mb:.1} MiB",
        avail.peak_tracked_batteries, avail.trace_cache_resident, avail.trace_cache_capacity
    );
    PopulationRow {
        clients,
        mode: mode.to_string(),
        rounds,
        seconds,
        rounds_per_sec: rps,
        peak_rss_mb: rss,
        cache_capacity: capacity,
        cache_peak_resident: stats.peak_resident,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        candidate_pool: pool,
        index_heap_mb,
        avail_transitions_per_round: transitions_per_round,
        peak_tracked_batteries: avail.peak_tracked_batteries,
        trace_cache_resident: avail.trace_cache_resident,
        trace_cache_capacity: avail.trace_cache_capacity,
        sweep_models_mb,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: population_scale [--scales 10k,100k,1m,10m] [--rounds N] [--out PATH] [--quick]"
    );
    std::process::exit(2);
}

fn main() {
    let mut scales: Vec<Scale> = vec![Scale::Pop10k, Scale::Pop100k, Scale::Pop1M, Scale::Pop10m];
    let mut rounds_override: Option<usize> = None;
    let mut out = "BENCH_population_scale.json".to_string();
    let mut quick = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--scales" => {
                scales = val()
                    .split(',')
                    .map(|s| Scale::parse(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--rounds" => rounds_override = Some(val().parse().unwrap_or_else(|_| usage())),
            "--out" => out = val(),
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    if quick {
        scales = vec![Scale::Pop10k];
        out = "target/BENCH_population_scale.json".to_string();
    }
    let pooled_standin = quick;
    if scales.is_empty() || scales.iter().any(|s| !s.is_population()) {
        usage();
    }
    // Ascending populations so the monotone VmHWM stays attributable.
    scales.sort_by_key(|s| s.num_clients());
    scales.dedup();

    // Determinism probe: the 10k population, sync, 1 vs 2 worker threads
    // must produce bit-identical reports (same contract the paper-scale
    // engine ships with, exercised here at population scale).
    let deterministic = {
        let mut base = Scale::Pop10k.config(Task::Femnist, SelectorChoice::FedAvg, AccelMode::Off);
        base.rounds = rounds_override.unwrap_or(3).max(1);
        base.eval_every = base.rounds;
        let mut one = base;
        one.num_threads = 1;
        let mut two = base;
        two.num_threads = 2;
        let a = Experiment::new(one).expect("valid config").run();
        let b = Experiment::new(two).expect("valid config").run();
        let ok = a == b;
        eprintln!(
            "determinism probe (10k sync, 1 vs 2 threads): {}",
            if ok { "bit-identical" } else { "DIVERGED" }
        );
        ok
    };

    let mut rows = Vec::new();
    for &scale in &scales {
        for (mode, selector) in [
            ("sync", SelectorChoice::FedAvg),
            ("async", SelectorChoice::FedBuff),
        ] {
            let mut cfg = scale.config(Task::Femnist, selector, AccelMode::Off);
            if let Some(r) = rounds_override {
                cfg.rounds = r;
                cfg.eval_every = r;
            }
            rows.push(run_row(cfg, mode));
        }
    }
    if pooled_standin {
        // CI stand-in for the 10M preset: the same pooled-planner config,
        // downsized to a 10k population so it finishes in CI time. The
        // pool must shrink with it to satisfy `candidate_pool <=
        // num_clients`; 2048 of 10k still forces the sampled path.
        let mut cfg = Scale::Pop10m.config(Task::Femnist, SelectorChoice::FedAvg, AccelMode::Off);
        cfg.num_clients = 10_000;
        if let Some(r) = rounds_override {
            cfg.rounds = r;
            cfg.eval_every = r;
        }
        rows.push(run_row(cfg, "sync-pooled"));
    }

    let row_count = rows.len();
    let report = BenchReport {
        benchmark: "population_scale".to_string(),
        selector_sync: "fedavg".to_string(),
        selector_async: "fedbuff".to_string(),
        accel: "off".to_string(),
        deterministic_at_10k_across_threads: deterministic,
        rows,
    };
    selfcheck::write_report(&out, &report);

    // Parse-back self-check: the file we just wrote must round-trip and
    // carry sane numbers — positive throughput everywhere, caches bounded.
    let parsed: BenchReport = selfcheck::parse_back(&out);
    assert_eq!(parsed.rows.len(), row_count);
    for row in &parsed.rows {
        selfcheck::assert_positive(
            row.rounds_per_sec,
            &format!("throughput at {} clients ({})", row.clients, row.mode),
        );
        assert!(
            row.cache_peak_resident <= row.cache_capacity,
            "cache bound violated in emitted report"
        );
        assert!(
            row.cache_capacity < row.clients,
            "cache as large as the population defeats the point"
        );
        assert!(
            row.candidate_pool <= row.clients,
            "pool larger than the population in emitted report"
        );
        selfcheck::assert_positive(row.index_heap_mb, "availability index footprint");
        assert!(
            row.avail_transitions_per_round.is_finite(),
            "transition rate not finite in emitted report"
        );
        if row.candidate_pool > 0 {
            // Pooling must keep the O(N) sweep-model array unmaterialized.
            assert_eq!(
                row.sweep_models_mb, 0.0,
                "pooled row materialized full-sweep models"
            );
        }
    }
    eprintln!("self-check passed: {row_count} rows, throughput positive, caches bounded");
    if !deterministic {
        std::process::exit(1);
    }
}
