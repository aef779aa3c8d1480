//! `pipeline_rounds` is a legacy config field: the pipelined engine it
//! selected is gone, and configs that still set it must load and
//! reproduce the pinned reports byte-for-byte.

use float::core::{AccelMode, Experiment, ExperimentConfig, SelectorChoice};
use float::sim::FaultPlan;

fn run(cfg: ExperimentConfig) -> float::core::ExperimentReport {
    Experiment::new(cfg).expect("valid config").run()
}

/// Round-trip `cfg` through JSON with `pipeline_rounds` set, as a config
/// written for the old pipelined engine would arrive.
fn legacy_pipelined(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.pipeline_rounds = true;
    let json = serde_json::to_string(&cfg).expect("config serializes");
    assert!(json.contains("\"pipeline_rounds\":true"), "{json}");
    serde_json::from_str(&json).expect("config deserializes")
}

#[test]
fn pipelined_reproduces_pinned_reports_byte_for_byte() {
    let cfg = ExperimentConfig::small(SelectorChoice::FedAvg, AccelMode::Rlhf, 12);
    let got = serde_json::to_string_pretty(&run(legacy_pipelined(cfg))).expect("report serializes");
    let want = include_str!("data/pinned_pool0_fedavg_rlhf.json");
    assert_eq!(got, want.trim_end(), "pipelined fedavg+rlhf report drifted");

    let mut cfg = ExperimentConfig::small(SelectorChoice::Oort, AccelMode::Off, 10);
    cfg.fault_plan = FaultPlan::chaos();
    let got = serde_json::to_string_pretty(&run(legacy_pipelined(cfg))).expect("report serializes");
    let want = include_str!("data/pinned_pool0_oort_chaos.json");
    assert_eq!(got, want.trim_end(), "pipelined oort+chaos report drifted");
}
