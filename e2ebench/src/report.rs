//! What one run measured, and the lines it prints.

use std::fmt::Write as _;

use fading_cr::sim::obs::SpanRecord;

use crate::config::{declared, MetricDef};

/// Operations attempted and failed (failed, refused, or wrong output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed or whose output was wrong.
    pub failed: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    e2e: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    named: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(&'static str, String)>,
    /// Spans of the traced run.
    pub spans: Vec<SpanRecord>,
    /// Attempted / failed operations.
    pub outcome: Outcome,
}

fn check_declared(defs: &[MetricDef], name: &str) {
    assert!(
        defs.iter().any(|d| d.name == name),
        "metric {name} is not declared in BENCHMARK.json"
    );
}

/// JSON number text for `v` with all its digits (non-finite reads 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

impl Report {
    /// Records an end-to-end metric (must be declared).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        check_declared(&declared().end_to_end, name);
        self.e2e.push((name, value));
    }

    /// Records a per-layer metric (must be declared).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        check_declared(&declared().per_layer, name);
        self.layers.push((name, value));
    }

    /// Records a workload-specific headline metric for the human report
    /// (e.g. `trial_ms_p95`, `slo_miss_frac`).
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// Records a note (sample counts, digests, settings).
    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.push((name, value.to_string()));
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0 && self.outcome.attempted > 0
    }

    /// The headline line: workload-specific metric names with units, the
    /// notes, and the failed fraction.
    #[must_use]
    pub fn headline(&self, workload: &str) -> String {
        let mut out = format!("{{\"report\":\"{workload}\",\"metrics\":{{");
        let failed_frac = self.outcome.failed as f64 / self.outcome.attempted.max(1) as f64;
        let mut items: Vec<(&str, f64, &str)> = self.named.clone();
        items.push(("failed_frac", failed_frac, "frac"));
        for (i, (name, value, unit)) in items.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            );
        }
        out.push_str("},\"notes\":{");
        for (i, (name, value)) in self.notes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{name}\":\"{value}\"");
        }
        out.push_str("}}");
        out
    }

    /// The result line: exactly the declared metrics of the run's kind,
    /// in declaration order. End-to-end metrics must all have been
    /// recorded; a layer metric the workload does not exercise reads 0.
    ///
    /// # Errors
    ///
    /// An end-to-end metric was never recorded.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let (defs, values) = if traced {
            (&declared().per_layer, &self.layers)
        } else {
            (&declared().end_to_end, &self.e2e)
        };
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let value = match values.iter().find(|(n, _)| *n == d.name) {
                Some((_, v)) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", d.name)),
            };
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                num(value),
                d.unit
            );
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.outcome.attempted,
            self.outcome.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_cr::sim::telemetry::jsonl::parse_json;

    #[test]
    fn result_line_lists_exactly_the_declared_metrics() {
        let mut r = Report::default();
        for d in &declared().end_to_end {
            r.e2e(d.name.as_str(), 1.25);
        }
        r.layer("trace.overhead", 0.97);
        r.outcome = Outcome {
            attempted: 10,
            failed: 0,
        };
        for traced in [false, true] {
            let line = r.result_line(traced).unwrap();
            let v = parse_json(&line).unwrap();
            assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
            assert_eq!(v.get("attempted").and_then(|c| c.as_f64()), Some(10.0));
            let defs = if traced {
                &declared().per_layer
            } else {
                &declared().end_to_end
            };
            let fading_cr::sim::telemetry::jsonl::JsonValue::Obj(metrics) =
                v.get("metrics").unwrap()
            else {
                panic!("metrics is not an object");
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                names,
                defs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_and_failures_are_incorrect() {
        let mut r = Report::default();
        r.e2e("setup_s", 0.5);
        assert!(r.result_line(false).is_err());
        r.outcome = Outcome {
            attempted: 4,
            failed: 1,
        };
        assert!(!r.correct());
        assert!(r.headline("x").contains("\"failed_frac\":{\"value\":0.25"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_rejected() {
        Report::default().layer("sim.no_such_metric", 1.0);
    }
}
