//! Metrics, output checks, and how a run prints them.

use crate::stats::{RunShape, MIN_BEYOND};

/// One named measurement. `value` is `None` when the metric has too few
/// samples (or does not apply to the workload); it then prints as "n/a".
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: Option<f64>,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, unit: &'static str, value: Option<f64>, samples: usize) -> Self {
        Self {
            name: name.to_owned(),
            unit,
            value,
            samples,
        }
    }
}

/// One output check: how many of `total` items passed.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Items that passed.
    pub passed: u64,
    /// Items checked.
    pub total: u64,
    /// Whether a failure makes the run incorrect. Checks that expose a
    /// known program defect count their failures in `failed` only.
    pub gates_correctness: bool,
    /// Printed beside a failing check.
    pub note: &'static str,
}

impl Check {
    /// A check whose failures make the run incorrect.
    #[must_use]
    pub fn gate(name: &'static str, passed: u64, total: u64) -> Self {
        Self {
            name,
            passed,
            total,
            gates_correctness: true,
            note: "",
        }
    }

    /// A check that exposes a known defect: failures count as failed
    /// operations but leave the run's outputs correct.
    #[must_use]
    pub fn defect(name: &'static str, passed: u64, total: u64, note: &'static str) -> Self {
        Self {
            name,
            passed,
            total,
            gates_correctness: false,
            note,
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Every output check.
    pub checks: Vec<Check>,
    /// Operations attempted: sessions, wire requests, admission checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failed session: its key and why (digest, error or
    /// infeasible recommendation).
    pub failures: Vec<String>,
}

impl Outcome {
    /// True when every correctness-gating check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks
            .iter()
            .all(|c| !c.gates_correctness || c.passed == c.total)
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prints every metric and check in human form, then the result line
    /// holding the `selected` metrics. Fails, printing no result line, if a
    /// selected metric is missing or lacks samples.
    ///
    /// # Errors
    ///
    /// Names the first selected metric without a value.
    pub fn print(
        &self,
        header: &str,
        shape: RunShape,
        rounds: usize,
        selected: &[&str],
    ) -> Result<(), String> {
        println!(
            "{header} cpus={} lanes={} connections={} rounds={rounds}",
            shape.cpus, shape.lanes, shape.connections
        );
        for metric in &self.metrics {
            match metric.value {
                Some(value) => println!(
                    "metric {:<34} {value:>14.6} {:<6} n={}",
                    metric.name, metric.unit, metric.samples
                ),
                None => println!(
                    "metric {:<34} {:>14} {:<6} n={} (needs samples; timing percentiles need {MIN_BEYOND} beyond)",
                    metric.name, "n/a", metric.unit, metric.samples
                ),
            }
        }
        for check in &self.checks {
            let verdict = if check.passed == check.total {
                "ok"
            } else if check.gates_correctness {
                "FAILED"
            } else {
                "FAILED (known defect)"
            };
            println!(
                "check {:<26} {}/{} {verdict} {}",
                check.name,
                check.passed,
                check.total,
                if check.passed == check.total {
                    ""
                } else {
                    check.note
                }
            );
        }
        for failure in &self.failures {
            println!("failed {failure}");
        }
        let mut entries = Vec::with_capacity(selected.len());
        for &name in selected {
            let metric = self
                .find(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let value = metric
                .value
                .ok_or_else(|| format!("metric {name} has too few samples ({})", metric.samples))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            entries.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        );
        Ok(())
    }
}
