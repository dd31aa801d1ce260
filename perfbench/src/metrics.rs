//! The metric catalog and the result line the benchmark prints last.
//!
//! Names and units here must agree with `BENCHMARK.json`; the self-test in
//! `tests/test_bench.py` checks that they do.

use dlb_telemetry::Phase;

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("time_to_eps_s", "s"),
    ("rounds_to_eps", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (the traced run) other than the per-phase times.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("graphs.build_s", "s"),
    ("graphs.partition_s", "s"),
    ("graphs.edge_cut", "count"),
    ("graphs.halo", "count"),
    ("continuous.new_s", "s"),
    ("engine.new_s", "s"),
    ("engine.round_ms", "ms"),
    ("engine.round_ms_serial", "ms"),
    ("engine.pool_speedup", "x"),
    ("engine.stats_ms", "ms"),
    ("engine.potential_ms", "ms"),
    ("kernels.edges_per_round", "count"),
    ("kernels.bytes_per_round_computed", "bytes"),
    ("kernels.ns_per_edge", "ns"),
    ("comm.messages_per_round", "count"),
    ("comm.halo_values_per_round", "count"),
    ("comm.owned_in_per_round", "count"),
    ("comm.owned_out_per_round", "count"),
    ("comm.delta_values_per_round", "count"),
    ("comm.collects_per_round", "count"),
    ("wire.bytes_out_per_round", "bytes"),
    ("wire.bytes_in_per_round", "bytes"),
    ("wire.worker_rss_mb", "MB"),
    ("workload.apply_ms", "ms"),
    ("workload.touched_frac", "frac"),
    ("runner.overhead_ms_per_round", "ms"),
    ("runner.scenario_over_round", "x"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.rounds", "count"),
    ("trace.dropped_spans", "count"),
    ("oracle.rounds_bound", "rounds"),
    ("oracle.violations", "count"),
];

/// `phase.<phase>_ms_per_round`: span time summed over every lane that
/// recorded the phase, per traced round.
pub fn phase_metric(phase: Phase) -> String {
    format!("phase.{}_ms_per_round", phase.name())
}

/// Every metric a run in the given mode must report, in print order.
pub fn catalog(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(Phase::ALL.iter().map(|&p| (phase_metric(p), "ms")));
    all
}

/// Measured values, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The result line: `correct`, `attempted`, `failed` and every catalog
/// metric with its unit. A catalog metric without a finite value is a
/// defect of the benchmark itself and is returned as an error.
pub fn result_line(
    values: &Values,
    trace: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in catalog(trace) {
        let value = values
            .get(&name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    ))
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_and_rejects_gaps() {
        let mut values = Values::default();
        for (name, _) in catalog(false) {
            values.set(name, 1.25);
        }
        let line = result_line(&values, false, 3, 0).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let mut with_nan = Values::default();
        for (name, _) in catalog(false) {
            let value = if name == "rounds_per_s" {
                f64::NAN
            } else {
                1.25
            };
            with_nan.set(name, value);
        }
        assert!(result_line(&with_nan, false, 3, 0).is_err());
        assert!(result_line(&Values::default(), true, 1, 0).is_err());
    }

    #[test]
    fn failures_make_the_line_incorrect() {
        let mut values = Values::default();
        for (name, _) in catalog(false) {
            values.set(name, 2.0);
        }
        let line = result_line(&values, false, 4, 1).expect("complete");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"value\": 2.0,"));
    }
}
