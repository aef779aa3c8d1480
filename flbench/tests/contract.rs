//! The benchmark's own contract: metric names and units are well formed,
//! `BENCHMARK.json` declares exactly what the code emits, every declared
//! metric is emitted with its unit on every workload, the result line
//! parses back, and a tiny traced workload accounts for its wall time.

use std::collections::BTreeSet;

use serde_json::Value;

use flbench::catalogue::{END_TO_END, PER_LAYER};
use flbench::output::{end_to_end, per_layer, result_line, Metric};
use flbench::trace::trace;
use flbench::workload::{
    async_config, measure_experiment, measure_sweep, sweep_plans, sync_config, Budget, Size,
    Workload,
};

const SEED: u64 = 3;

/// One quick run whatever its length.
const QUICK: Budget = Budget {
    seconds: 0.0,
    min_runs: 1,
};

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 letters, digits, `_`, `.` or `-`.
fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name), "metric {name} declared twice");
    }
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for m in PER_LAYER {
        assert!(["higher", "lower"].contains(&m.better), "{}", m.name);
        match m.moves {
            Some(target) => {
                assert!(
                    END_TO_END.iter().any(|e| e.name == target),
                    "{} moves {target}",
                    m.name
                );
                assert!(
                    workloads.contains(&m.workload),
                    "{} on {}",
                    m.name,
                    m.workload
                );
            }
            None => assert_eq!(m.workload, "all", "{}", m.name),
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_code_emits() {
    let b = benchmark_json();
    let obj = b.as_object().expect("an object");
    let keys: BTreeSet<&str> = obj.keys().map(String::as_str).collect();
    let expected: BTreeSet<&str> = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into();
    assert_eq!(keys, expected);
    let workloads: Vec<&str> = b["workloads"]
        .as_array()
        .expect("workloads is a list")
        .iter()
        .map(|w| w["name"].as_str().expect("a workload name"))
        .collect();
    let ours: Vec<&str> = Workload::GATED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let e2e = b["end_to_end"].as_array().expect("end_to_end is a list");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(j["name"].as_str(), Some(m.name));
        assert_eq!(j["unit"].as_str(), Some(m.unit));
        assert_eq!(j["better"].as_str(), Some(m.better));
        assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
    }
    let layers = b["per_layer"].as_array().expect("per_layer is a list");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(j["name"].as_str(), Some(m.name));
        assert_eq!(j["unit"].as_str(), Some(m.unit));
        assert_eq!(j["better"].as_str(), Some(m.better));
    }
}

/// The result line parses back with exactly the four keys, and its metrics
/// are exactly `declared`, each a finite number with its unit.
fn assert_result_line(metrics: &[Metric], declared: &[(&str, &str)]) {
    let line = result_line(true, 2, 0, metrics);
    let v: Value = serde_json::from_str(&line).expect("the result line is JSON");
    let keys: BTreeSet<&str> = v
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"].into());
    assert_eq!(v["correct"].as_bool(), Some(true));
    assert_eq!(v["attempted"].as_u64(), Some(2));
    let m = v["metrics"].as_object().expect("metrics is an object");
    assert_eq!(m.len(), declared.len());
    for (name, unit) in declared {
        let entry = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(entry["unit"].as_str(), Some(*unit), "{name}");
        let x = entry["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("{name} has no number"));
        assert!(x.is_finite(), "{name} = {x}");
    }
}

#[test]
fn every_end_to_end_metric_is_emitted_on_every_workload() {
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in Workload::ALL {
        let m = match w {
            Workload::SyncPaperRlhf => measure_experiment(sync_config(SEED, Size::Tiny), QUICK),
            Workload::Async1mChaos => measure_experiment(async_config(SEED, Size::Tiny), QUICK),
            Workload::SweepHalvingRlhf => {
                measure_sweep(&sweep_plans(SEED, Size::Tiny), Size::Tiny, QUICK)
            }
        }
        .expect("the tiny workload runs");
        assert!(m.failures.is_empty(), "{}: {:?}", w.name(), m.failures);
        let metrics = end_to_end(&m);
        for x in &metrics {
            assert!(
                x.summary.median > 0.0,
                "{} reads {} on {}",
                x.name,
                x.summary.median,
                w.name()
            );
        }
        assert_result_line(&metrics, &declared);
    }
}

#[test]
fn every_per_layer_metric_is_emitted_and_the_trace_accounts_for_its_time() {
    let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in Workload::ALL {
        let t = trace(w, SEED, Size::Tiny, QUICK).expect("the tiny traced workload runs");
        let metrics = per_layer(&t.values).expect("every per-layer metric is produced");
        assert_result_line(&metrics, &declared);
        let unattributed = t.values["trace.unattributed_share"];
        assert!(
            unattributed.is_finite() && (0.0..1.0).contains(&unattributed),
            "{}: unattributed share {unattributed}",
            w.name()
        );
        // The replay drives the same attempts as the engine.
        assert_eq!(
            t.values["trace.replay.attempts"],
            t.values["core.engine.attempts"],
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_second_seed_runs_clean_with_different_guards() {
    let a = measure_experiment(sync_config(SEED, Size::Tiny), QUICK).expect("seed a runs");
    let b = measure_experiment(sync_config(SEED + 1, Size::Tiny), QUICK).expect("seed b runs");
    assert!(a.failures.is_empty() && b.failures.is_empty());
    assert_ne!(
        a.guards, b.guards,
        "the seed must reach the program's inputs"
    );
    let again = measure_experiment(sync_config(SEED, Size::Tiny), QUICK).expect("seed a reruns");
    assert_eq!(a.guards, again.guards, "the guards repeat exactly");
    assert_eq!(a.reference_digest, again.reference_digest);
}
