//! The benchmark's declared shape, read from the committed
//! `BENCHMARK.json`, and the recorded settings in `design.json`.

use std::sync::OnceLock;

use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};

/// The seed whose `mc_*` trial digests `design.json` records.
pub const DEFAULT_SEED: u64 = 1;

/// The committed `BENCHMARK.json`, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares, in its order.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    /// Metrics of an untraced run, reported by every workload.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of a traced run; one a workload does not exercise reads 0.
    pub per_layer: Vec<MetricDef>,
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key}"))
}

fn array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key}"))
}

fn metrics(v: &JsonValue, key: &str) -> Result<Vec<MetricDef>, String> {
    array(v, key)?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: str_field(m, "name")?,
                unit: str_field(m, "unit")?,
                better: str_field(m, "better")?,
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

fn parse_declared(text: &str) -> Result<Declared, String> {
    let v = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(Declared {
        run_seconds: v
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
        workloads: array(&v, "workloads")?
            .iter()
            .map(|w| Ok((str_field(w, "name")?, str_field(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics(&v, "end_to_end")?,
        per_layer: metrics(&v, "per_layer")?,
    })
}

/// The declared shape of the committed `BENCHMARK.json`.
///
/// # Panics
///
/// The compiled-in file is malformed (the tests parse it).
#[must_use]
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| parse_declared(BENCHMARK_JSON).unwrap_or_else(|e| panic!("{e}")))
}

/// The recorded settings the benchmark runs with (`design.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// `(workload, digest)` of the default seed's first trials.
    pub digests: Vec<(String, String)>,
    /// `svc_open` arrival rate, jobs per second.
    pub svc_rate_per_s: f64,
    /// `svc_open` per-job latency limit, ms.
    pub svc_latency_limit_ms: f64,
}

impl Design {
    /// The recorded digest for `workload`, if any.
    #[must_use]
    pub fn digest(&self, workload: &str) -> Option<&str> {
        self.digests
            .iter()
            .find(|(w, _)| w == workload)
            .map(|(_, d)| d.as_str())
    }
}

/// The committed `design.json`, compiled in.
pub const DESIGN_JSON: &str = include_str!("../design.json");

/// Parses `design.json`.
///
/// # Errors
///
/// Malformed JSON or a missing field.
pub fn design() -> Result<Design, String> {
    let v = parse_json(DESIGN_JSON).map_err(|e| format!("design.json: {e}"))?;
    let num = |obj: Option<&JsonValue>, key: &str| {
        obj.and_then(|o| o.get(key))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("design.json: missing number {key}"))
    };
    let digests = match v.get("default_seed_digests") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, d)| d.as_str().map(|d| (k.clone(), d.to_string())))
            .collect(),
        _ => return Err("design.json: missing default_seed_digests".into()),
    };
    let svc = v.get("svc_open_calibration");
    Ok(Design {
        digests,
        svc_rate_per_s: num(svc, "rate_per_s")?,
        svc_latency_limit_ms: num(svc, "latency_limit_ms")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names the workload code passes as a literal to `call`
    /// (`report.e2e(` or `report.layer(`).
    fn recorded(call: &str) -> Vec<String> {
        let sources = [
            include_str!("main.rs"),
            include_str!("mc.rs"),
            include_str!("svc.rs"),
        ];
        let mut out = Vec::new();
        for src in sources {
            for part in src.split(call).skip(1) {
                let lit = part.trim_start();
                if let Some(rest) = lit.strip_prefix('"') {
                    out.push(rest.split('"').next().unwrap().to_string());
                }
            }
        }
        out
    }

    /// Whether `name` is a string literal in the workload code; this also
    /// covers names recorded through tables (e.g. the tier table in `mc`).
    fn mentioned(name: &str) -> bool {
        let quoted = format!("\"{name}\"");
        [
            include_str!("main.rs"),
            include_str!("mc.rs"),
            include_str!("svc.rs"),
        ]
        .iter()
        .any(|src| src.contains(&quoted))
    }

    #[test]
    fn benchmark_json_round_trips_through_the_code() {
        let d = declared();
        let names =
            |defs: &[MetricDef]| -> Vec<String> { defs.iter().map(|m| m.name.clone()).collect() };
        let (e2e, layers) = (names(&d.end_to_end), names(&d.per_layer));
        for name in recorded("report.e2e(") {
            assert!(e2e.contains(&name), "recorded {name} is not declared");
        }
        for name in recorded("report.layer(") {
            assert!(layers.contains(&name), "recorded {name} is not declared");
        }
        for name in e2e.iter().chain(&layers) {
            assert!(mentioned(name), "declared {name} is never recorded");
        }
        let workloads: Vec<&str> = d.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(workloads, ["mc_mid", "mc_giant", "svc_open"]);
        for w in workloads {
            assert!(
                include_str!("main.rs").contains(&format!("\"{w}\" =>")),
                "workload {w} has no runner"
            );
        }
    }

    #[test]
    fn declared_metrics_meet_the_format_rules() {
        let d = declared();
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut seen = std::collections::HashSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(ok_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.as_str()), "duplicate {}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.unit.len() <= 16);
        }
        for (name, why) in &d.workloads {
            assert!(ok_name(name) && seen.insert(name.as_str()));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in &d.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(d.end_to_end.iter().all(|m| m.bound <= setup.bound));
        assert!(d.run_seconds >= 1.0 && d.run_seconds <= 60.0);
    }

    #[test]
    fn design_json_parses_and_covers_every_mc_workload() {
        let d = design().unwrap();
        assert!(d.svc_rate_per_s > 0.0 && d.svc_latency_limit_ms > 0.0);
        for w in ["mc_mid", "mc_giant"] {
            assert_eq!(d.digest(w).map(str::len), Some(16), "{w}");
        }
    }
}
