//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit; `BENCHMARK.json` at the repository root lists the same names and
//! units (a test keeps the two in step) and `perfbench/metrics.json` says
//! which layer each one measures and what it is expected to move.

use std::collections::BTreeMap;
use std::time::Instant;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("peak_rss_mb", "MB"),
    m("decisions_per_s", "1/s"),
    m("completion_gap_p50_us", "us"),
    m("completion_gap_p99_us", "us"),
    m("stretch_mean", "ratio"),
    m("stretch_p99", "ratio"),
];

/// Metrics of single layers, printed by traced runs (see
/// [`Outcome::fill_idle_layers`] for layers a workload does not use).
pub const PER_LAYER: &[MetricDef] = &[
    m("solver.installment_s", "s"),
    m("solver.installment_solve_us_p50", "us"),
    m("solver.installment_solve_us_p99", "us"),
    m("solver.alone_s", "s"),
    m("solver.alone_solve_us_p50", "us"),
    m("solver.alone_solve_us_p99", "us"),
    m("solver.sweep_s", "s"),
    m("service.self_s", "s"),
    m("service.decisions", "count"),
    m("service.solves", "count"),
    m("service.decisions_per_solve", "ratio"),
    m("service.alone_solves", "count"),
    m("service.preemptions", "count"),
    m("service.peak_pending", "count"),
    m("event_queue.pop_us_at_peak", "us"),
    m("failure.events", "count"),
    m("failure.interruptions", "count"),
    m("failure.requeued_data", "data"),
    m("experiments.sec2_s", "s"),
    m("experiments.sec_amdahl_s", "s"),
    m("experiments.sample_sort_s", "s"),
    m("experiments.hetero_sort_s", "s"),
    m("experiments.fig4_s", "s"),
    m("experiments.rho_table_s", "s"),
    m("experiments.partition_quality_s", "s"),
    m("outer.commhet_s", "s"),
    m("outer.commhom_s", "s"),
    m("outer.commhom_k_s", "s"),
    m("outer.refine_levels", "count"),
    m("sim.simulate_demand_s", "s"),
    m("sim.tasks", "count"),
    m("partition.peri_sum_s", "s"),
    m("completion_gap.samples", "count"),
    m("completion_gap.tail_level", "pct"),
    m("trace.untraced_wall_s", "s"),
    m("trace.traced_wall_s", "s"),
    m("trace.overhead_s", "s"),
];

/// What one run found: operation counts, measured values by name, and
/// human-readable notes (sample counts, check failures) for stderr.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (loads served, or artifact checks made).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Notes printed to stderr before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records one failed check: counts it and keeps the first few
    /// messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("check failed: {message}"));
        }
    }

    /// Metrics of `defs` the workload's run did not set belong to layers
    /// it does not use: their counts are 0, and their times are the wall
    /// time of an empty span — the timer's own cost, measured like every
    /// other time rather than printed as a constant.
    pub fn fill_idle_layers(&mut self, defs: &[MetricDef]) {
        for def in defs {
            if !self.values.contains_key(def.name) {
                let span = || {
                    let t0 = Instant::now();
                    t0.elapsed().as_secs_f64()
                };
                let value = match def.unit {
                    "s" => span(),
                    "us" => span() * 1e6,
                    _ => 0.0,
                };
                self.values.insert(def.name, value);
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `defs` with its unit. Errors on a metric that was not measured
    /// or is not finite.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut body = Vec::with_capacity(defs.len());
        for def in defs {
            let value = *self
                .values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", def.name));
            }
            // `Display` gives the shortest round-trip form, never with an
            // exponent — valid JSON with all significant digits.
            body.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }

    /// Whether every attempted operation passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line of a run that failed its checks: no metrics.
    pub fn failure_line(&self) -> String {
        format!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            self.attempted.max(1),
            self.failed.max(1)
        )
    }
}

/// Peak resident set size of this process in MB, from `/proc`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_declares_every_metric_with_its_unit() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn metrics_json_describes_every_metric() {
        let text = include_str!("../metrics.json");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let key = format!("\"{}\": {{", def.name);
            assert!(text.contains(&key), "metrics.json lacks {}", def.name);
        }
    }

    #[test]
    fn result_line_is_json_shaped_and_complete() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for def in END_TO_END {
            o.set(def.name, 1.25);
        }
        let line = o.result_line(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        o.values.remove("wall_s");
        assert!(o.result_line(END_TO_END).is_err());
        o.set("wall_s", f64::NAN);
        assert!(o.result_line(END_TO_END).is_err());
    }

    #[test]
    fn idle_layers_report_zero_counts_and_measured_empty_spans() {
        let mut o = Outcome::default();
        o.set("service.decisions", 7.0);
        o.fill_idle_layers(PER_LAYER);
        assert_eq!(o.values["service.decisions"], 7.0);
        assert_eq!(o.values["sim.tasks"], 0.0);
        let span = o.values["sim.simulate_demand_s"];
        assert!((0.0..1e-3).contains(&span), "empty span took {span} s");
        assert!(o.result_line(PER_LAYER).is_ok());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        assert!(o.correct());
        o.fail("load 3 lost data".into());
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
        assert!(o.failure_line().contains("\"metrics\": {}"));
    }
}
