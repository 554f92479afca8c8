//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its mode: the end-to-end set
//! untraced, the per-layer set traced. A per-layer metric whose layer
//! the workload never enters reads 0 (no work, no busy time).

use serde::Value;
use std::collections::BTreeMap;

/// Matrix sizes of the accelerator points (the `<n>` of per-shape
/// per-layer metrics).
pub const SHAPES: [usize; 5] = [32, 64, 128, 256, 512];

/// `(n, P_eng)` points with a signed perf-model residual metric: the
/// `accel-batch` points plus the serving plan's two shapes.
pub const RESIDUAL_POINTS: [(usize, usize); 7] = [
    (32, 8),
    (64, 8),
    (128, 4),
    (256, 4),
    (512, 4),
    (64, 2),
    (128, 2),
];

/// One metric's identity.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

/// Metrics a user of the system sees, printed by untraced runs.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("throughput_rps", "1/s", true),
        def("p50_ms", "ms", false),
        def("p99_ms", "ms", false),
        def("write_p99_ms", "ms", false),
        def("served_frac", "ratio", true),
        def("setup_s", "s", false),
        def("peak_rss_mb", "MiB", false),
        def("modeled_ms", "ms", false),
        def("model_err_pct", "%", false),
        def("sv_err_max", "ratio", false),
    ]
}

/// Metrics of single layers, printed by traced runs.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("admit.p50_us", "us", false),
        def("admit.p99_us", "us", false),
        def("admit.refused_queue_full", "count", false),
        def("admit.refused_invalid", "count", false),
        def("admit.refused_other", "count", false),
        def("queue.wait_p50_ms", "ms", false),
        def("queue.wait_p99_ms", "ms", false),
        def("batch.linger_p50_ms", "ms", false),
        def("batch.linger_p99_ms", "ms", false),
        def("batch.size_mean", "count", true),
        def("batch.fill", "ratio", true),
        def("exec.p50_ms", "ms", false),
        def("exec.p99_ms", "ms", false),
        def("exec.sim_ms_p50", "ms", false),
        def("class.interactive_p99_ms", "ms", false),
        def("apply.exec_p50_us", "us", false),
        def("store.resident_models", "count", true),
        def("store.versions_published", "count", true),
        def("update.route_lowrank_frac", "ratio", true),
        def("update.route_warm_frac", "ratio", true),
        def("update.route_full_frac", "ratio", false),
        def("update.warm_iters_saved_mean", "count", true),
        def("update.exec_p50_ms", "ms", false),
        def("dse.sweep_ms", "ms", false),
        def("dse.best_tasks_per_s", "1/s", true),
        def("gen.late_p99_ms", "ms", false),
        def("gen.late_max_ms", "ms", false),
        def("trace.overhead_pct", "%", false),
        def("attr.p50_layer_share_pct", "%", true),
    ];
    for n in SHAPES {
        defs.extend([
            def(format!("kernels.host_ms.{n}"), "ms", false),
            def(format!("kernels.gated_rotations.{n}"), "count", true),
            def(format!("kernels.memo_skips.{n}"), "count", true),
            def(format!("replay.host_us.{n}"), "us", false),
            def(format!("plan.first_run_ms.{n}"), "ms", false),
            def(format!("model.task_ms.{n}"), "ms", false),
            def(format!("model.ddr_ms.{n}"), "ms", false),
            def(format!("model.iter_ms.{n}"), "ms", false),
            def(format!("model.norm_ms.{n}"), "ms", false),
            def(format!("model.iterations.{n}"), "count", false),
            def(format!("util.plio.{n}"), "ratio", true),
            def(format!("util.aie_core.{n}"), "ratio", true),
            def(format!("util.dma.{n}"), "ratio", true),
            def(format!("util.ddr.{n}"), "ratio", true),
            def(format!("dma.transfers.{n}"), "count", false),
        ]);
    }
    for (n, p_eng) in RESIDUAL_POINTS {
        // Signed: model minus simulator, as a share of the simulator.
        defs.push(def(residual_name(n, p_eng), "%", false));
    }
    defs
}

/// Name of the signed perf-model residual metric at `(n, P_eng)`.
pub fn residual_name(n: usize, p_eng: usize) -> String {
    format!("perf.resid_pct.{n}_p{p_eng}")
}

/// Values a run measured, by metric name.
#[derive(Debug, Default)]
pub struct Measured(BTreeMap<String, f64>);

impl Measured {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue or a non-finite value:
    /// both are bugs in this benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            end_to_end()
                .iter()
                .chain(&per_layer())
                .any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Requests or tasks sent.
    pub attempted: u64,
    /// Sent but failed or refused.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Builds the result for one mode from what was measured. End-to-end
    /// metrics must all be measured; an unmeasured per-layer metric
    /// reads 0.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric was not measured.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        traced: bool,
        measured: &Measured,
    ) -> Self {
        let defs = if traced { per_layer() } else { end_to_end() };
        let metrics = defs
            .into_iter()
            .map(|d| {
                let value = match measured.get(&d.name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {} was not measured", d.name),
                };
                (d.name, value, d.unit.to_string())
            })
            .collect();
        RunResult {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The result as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::Str(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        let root = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&root).expect("a Value always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: 1 to 64 of
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Parses a line written by [`RunResult::to_json`].
    fn from_json(text: &str) -> Result<RunResult, String> {
        let root = serde_json::from_str_value(text).map_err(|e| e.to_string())?;
        let map = root.as_map().ok_or("result is not an object")?;
        let field = |name: &str| serde::get_field(map, name).map_err(|e| e.to_string());
        let correct = match field("correct")? {
            Value::Bool(b) => *b,
            _ => return Err("correct is not a boolean".into()),
        };
        let count = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or(format!("{name} is not a count"))
        };
        let mut metrics = Vec::new();
        for (name, entry) in field("metrics")?
            .as_map()
            .ok_or("metrics is not an object")?
        {
            let entry = entry.as_map().ok_or("metric is not an object")?;
            let get = |key: &str| serde::get_field(entry, key).map_err(|e| e.to_string());
            let value = get("value")?.as_f64().ok_or("value is not a number")?;
            let unit = get("unit")?.as_str().ok_or("unit is not a string")?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    #[test]
    fn every_name_is_legal_and_used_once() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for d in &all {
            assert!(valid_name(&d.name), "illegal metric name {}", d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(end_to_end().len() <= 16);
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_round_trips() {
        let mut measured = Measured::default();
        for (i, d) in end_to_end().iter().enumerate() {
            measured.set(d.name.clone(), 1.0 / (i as f64 + 3.0));
        }
        let result = RunResult::new(true, 1234, 2, false, &measured);
        let line = result.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(from_json(&line).unwrap(), result);
    }

    #[test]
    fn traced_result_fills_unvisited_layers_with_zero() {
        let mut measured = Measured::default();
        measured.set("admit.p50_us", 12.5);
        let result = RunResult::new(true, 1, 0, true, &measured);
        assert_eq!(result.metrics.len(), per_layer().len());
        let value = |name: &str| result.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(value("admit.p50_us"), 12.5);
        assert_eq!(value("model.task_ms.512"), 0.0);
    }

    /// The catalogue and `BENCHMARK.json` at the repository root name
    /// the same metrics with the same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let root = serde_json::from_str_value(&text).unwrap();
        let map = root.as_map().unwrap();
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String, bool)> = serde::get_field(map, key)
                .unwrap()
                .as_seq()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_map().unwrap();
                    let s = |k: &str| {
                        serde::get_field(m, k)
                            .unwrap()
                            .as_str()
                            .unwrap()
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better") == "higher")
                })
                .collect();
            let ours: Vec<(String, String, bool)> = defs
                .into_iter()
                .map(|d| (d.name, d.unit.to_string(), d.higher_is_better))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the catalogue");
        }
    }
}
