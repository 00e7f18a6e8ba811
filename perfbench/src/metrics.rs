//! Metric names, units and the result line.

/// End-to-end metrics: host time and memory a user of the simulator sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("records_per_s", "1/s"),
    ("device_ios_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("scenarios_per_s", "1/s"),
];

/// Per-layer metrics, named by the simulator module they measure.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("trace.gen_s", "s"),
    ("trace.records", "count"),
    ("trace.footprint_blocks", "blocks"),
    ("sim.map_s", "s"),
    ("sim.map_ranges", "count"),
    ("sim.events_s", "s"),
    ("sim.record_us_p50", "us"),
    ("sim.record_us_p999", "us"),
    ("sim.record_samples", "count"),
    ("sim.loop_self_s", "s"),
    ("array.submit_s", "s"),
    ("array.submits", "count"),
    ("array.device_ios_per_submit", "io/submit"),
    ("policy.access_ns", "ns"),
    ("policy.accesses", "count"),
    ("policy.hit_ratio", "ratio"),
    ("policy.evictions", "count"),
    ("monitor.access_ns", "ns"),
    ("monitor.dirty_evictions", "count"),
    ("devices.submit_ns", "ns"),
    ("devices.ios", "count"),
    ("devices.internal_cache_hit_ratio", "ratio"),
    ("devices.replay_mismatches", "count"),
    ("background.pump_s", "s"),
    ("background.due_check_s", "s"),
    ("background.pumps", "count"),
    ("background.due_checks", "count"),
    ("background.blocks", "blocks"),
    ("background.useful_pump_ratio", "ratio"),
    ("qos.evaluate_s", "s"),
    ("qos.observe_s", "s"),
    ("qos.decisions", "count"),
    ("qos.retargets", "count"),
    ("metrics.fold_s", "s"),
    ("metrics.device_events", "count"),
    ("obs.traced_records_per_s", "1/s"),
    ("obs.overhead_pct", "%"),
    ("obs.events_emitted", "count"),
    ("campaign.worker_busy_frac", "ratio"),
    ("campaign.setup_s", "s"),
    ("model.hit_ratio", "ratio"),
    ("model.read_mean_ms", "ms"),
    ("model.write_mean_ms", "ms"),
    ("model.degraded_reads", "count"),
    ("model.mttr_s", "s"),
    ("model.upgrade_window_s", "s"),
    ("model.slo_violation_s", "s"),
    ("model.qos_floor_s", "s"),
    ("model.qos_ceiling_s", "s"),
    ("model.device_ios", "count"),
    ("bench.span_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Values collected for one table of metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    values: Vec<Metric>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Sets a metric by name; its unit comes from the tables above.
    ///
    /// # Panics
    ///
    /// Panics if the name is in neither table or was already set: both are
    /// bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.get(name).is_none(), "metric {name} was set twice");
        self.values.push(Metric { name, unit, value });
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics of `table`, in its order; names not set are reported.
    pub fn select(&self, table: &[(&str, &str)]) -> Result<Vec<Metric>, Vec<String>> {
        let mut out = Vec::with_capacity(table.len());
        let mut missing = Vec::new();
        for (name, _) in table {
            match self.values.iter().find(|m| m.name == *name) {
                Some(m) => out.push(m.clone()),
                None => missing.push((*name).to_string()),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// The result line: one JSON object with the gate's tally and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite value in JSON number syntax with all its digits; non-finite
/// values (which the gate rejects) as `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(name), "{name} is declared twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
