//! The run's result: metrics, operation counts and correctness checks,
//! printed as the one-line JSON object the benchmark ends with.

use std::collections::BTreeMap;

/// Correctness checks. Every failed check is printed to stderr and makes
/// the run exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    failed: Vec<String>,
    passed: usize,
}

impl Checks {
    pub fn expect(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(format!("{name}: {detail}"));
        }
    }

    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failed
    }

    pub fn passed(&self) -> usize {
        self.passed
    }
}

/// Metrics of one run: end-to-end figures always, per-layer figures in the
/// traced run.
#[derive(Debug, Default)]
pub struct Report {
    e2e: BTreeMap<String, (f64, &'static str)>,
    layers: BTreeMap<String, (f64, &'static str)>,
    /// Operations the run attempted: transactions issued to the engine or
    /// the service, plus one per simulated scheme run.
    pub attempted: u64,
    /// Attempted operations that did not complete as the input demands.
    pub failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.e2e.insert(name.to_string(), (value, unit)).is_none(),
            "end-to-end metric {name} reported twice"
        );
    }

    /// Set a per-layer metric (a later value replaces an earlier one).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_string(), (value, unit));
    }

    pub fn e2e_metrics(&self) -> &BTreeMap<String, (f64, &'static str)> {
        &self.e2e
    }

    /// The result line: `metrics` holds the end-to-end figures, or the
    /// per-layer figures when `layers` is set.
    pub fn json(&self, correct: bool, layers: bool) -> String {
        let m = if layers { &self.layers } else { &self.e2e };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            metrics_json(m)
        )
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
pub fn metrics_json(m: &BTreeMap<String, (f64, &'static str)>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
