//! `flbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, prints a table of metrics and,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 when an output check fails and 2 on bad usage or
//! a run that cannot start.

use std::process::ExitCode;

use flbench::host::Fingerprint;
use flbench::output::{end_to_end, per_layer, result_line, table};
use flbench::stats::Summary;
use flbench::trace::trace;
use flbench::workload::{
    async_config, measure_experiment, measure_sweep, sweep_plans, sync_config, Budget, Size,
    Workload, MIN_RUNS, THREADS,
};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| bad("expected 1..=3600"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // `FLOAT_THREADS` overrides every configured thread count; the
    // workloads fix theirs, so it must not leak in.
    let float_threads_env = std::env::var("FLOAT_THREADS").ok();
    std::env::remove_var("FLOAT_THREADS");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flbench: {e}");
            eprintln!("usage: flbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, float_threads_env) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("flbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the workload, print the table and the result line, and say whether
/// every check passed.
fn run(args: &Args, float_threads_env: Option<String>) -> Result<bool, String> {
    let (w, seed, size) = (args.workload, args.seed, Size::Full);
    println!(
        "# flbench {} seed={} seconds={} trace={}",
        w.name(),
        seed,
        args.seconds,
        u8::from(args.trace)
    );
    let seconds = args.seconds as f64;
    let (measured, metrics, attempted, mut failures, spans) = if args.trace {
        // The traced run repeats a shorter timed phase: it is there for the
        // engine-side comparisons, not for the end-to-end figures.
        let budget = Budget {
            seconds: seconds / 4.0,
            min_runs: 1,
        };
        let t = trace(w, seed, size, budget)?;
        let metrics = per_layer(&t.values)?;
        // The telemetry-on run is one more checked operation.
        let attempted = t.measured.attempted() + 1;
        (t.measured, metrics, attempted, t.failures, Some(t.spans))
    } else {
        let budget = Budget {
            seconds,
            min_runs: MIN_RUNS,
        };
        let m = match w {
            Workload::SyncPaperRlhf => measure_experiment(sync_config(seed, size), budget)?,
            Workload::Async1mChaos => measure_experiment(async_config(seed, size), budget)?,
            Workload::SweepHalvingRlhf => measure_sweep(&sweep_plans(seed, size), size, budget)?,
        };
        let metrics = end_to_end(&m);
        let (attempted, failures) = (m.attempted(), m.failures.clone());
        (m, metrics, attempted, failures, None)
    };
    for n in &measured.notes {
        println!("# {n}");
    }
    let runs: Vec<String> = measured
        .runs
        .iter()
        .map(|r| format!("{:.4}", r.run_s))
        .collect();
    println!(
        "# run_s {} reference_s {:.4} (1 thread)",
        runs.join(" "),
        measured.reference_s
    );
    let repeats = measured.runs.len();
    let host = Fingerprint::capture(THREADS, float_threads_env);
    println!(
        "# host {} repeats={repeats}",
        serde_json::to_string(&host).expect("the fingerprint serializes")
    );
    if let Some(spans) = spans {
        println!(
            "# {:<40} {:>10} {:>12} {:>12}",
            "span", "calls", "incl_s", "self_s"
        );
        for (name, t) in &spans {
            println!(
                "  {name:<40} {:>10} {:>12.6} {:>12.6}",
                t.calls, t.incl_s, t.self_s
            );
        }
    }
    print!("{}", table(&metrics));
    for m in &metrics {
        let Summary { median, q1, q3, .. } = m.summary;
        if ![median, q1, q3].iter().all(|x| x.is_finite()) {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for f in &failures {
        println!("# check failed: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        result_line(correct, attempted, failures.len().min(attempted), &metrics)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "async_1m_chaos",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("a valid command line");
        assert_eq!(a.workload, Workload::Async1mChaos);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &[
                "--workload",
                "sync_paper_rlhf",
                "--seed",
                "-1",
                "--seconds",
                "1",
            ],
            &[
                "--workload",
                "sync_paper_rlhf",
                "--seed",
                "1",
                "--seconds",
                "0",
            ],
            &[
                "--workload",
                "sync_paper_rlhf",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "sync_paper_rlhf", "--seconds", "1"],
            &[
                "--workload",
                "sync_paper_rlhf",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--extra",
                "x",
            ],
            &["--workload"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
