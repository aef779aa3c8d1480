//! Turning measurements into named metrics, and the benchmark's output:
//! a human-readable table followed by one JSON result line.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::Values;
use crate::workload::Measured;

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (a median where it was sampled).
    pub summary: Summary,
}

/// The end-to-end metrics of a timed phase, in catalogue order.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let per_run = |f: &dyn Fn(f64) -> f64| {
        Summary::of(&m.runs.iter().map(|r| f(r.run_s)).collect::<Vec<_>>())
    };
    END_TO_END
        .iter()
        .map(|d| {
            let summary = match d.name {
                "rounds_per_s" => per_run(&|s| m.rounds as f64 / s),
                "train_samples_per_s" => per_run(&|s| m.train_samples / s),
                "trials_per_hour" => per_run(&|s| m.trials as f64 * 3600.0 / s),
                "setup_s" => Summary::of(&m.setup_s),
                "peak_rss_mb" => Summary::exact(m.peak_rss_mib),
                "final_accuracy_pct" => Summary::exact(m.guards.final_accuracy_pct),
                "dropout_pct" => Summary::exact(m.guards.dropout_pct),
                "wasted_compute_pct" => Summary::exact(m.guards.wasted_compute_pct),
                "sim_hours" => Summary::exact(m.guards.sim_hours),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            Metric {
                name: d.name,
                unit: d.unit,
                summary,
            }
        })
        .collect()
}

/// The per-layer metrics, in catalogue order.
///
/// # Errors
///
/// Names a catalogued metric the traced run did not produce.
pub fn per_layer(values: &Values) -> Result<Vec<Metric>, String> {
    PER_LAYER
        .iter()
        .map(|d| {
            let v = values
                .get(d.name)
                .ok_or_else(|| format!("the traced run produced no {}", d.name))?;
            Ok(Metric {
                name: d.name,
                unit: d.unit,
                summary: Summary::exact(*v),
            })
        })
        .collect()
}

/// The human-readable table: one line per metric with its median,
/// quartiles and sample count, and for a per-layer metric the end-to-end
/// metric and workload it should move.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "# {:<40} {:>16} {:>16} {:>16} {:>4}  unit\n",
        "metric", "median", "q1", "q3", "n"
    );
    for m in metrics {
        let s = m.summary;
        let target = PER_LAYER
            .iter()
            .find(|d| d.name == m.name)
            .and_then(|d| d.moves.map(|e| format!("  -> {e} on {}", d.workload)))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<40} {:>16.6} {:>16.6} {:>16.6} {:>4}  {}{target}\n",
            m.name, s.median, s.q1, s.q3, s.n, m.unit
        ));
    }
    out
}

/// A finite number as JSON (non-finite values are reported as failures by
/// the caller and written as 0 so the line stays valid JSON).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.summary.median),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
