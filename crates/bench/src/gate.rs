//! The perf-regression gate behind the `bench-gate` binary: parse a
//! committed `BENCH_scaling.json` baseline, re-run the scaling probe on
//! the overlapping sizes, and compare per-(tier, n) `ms_per_round`
//! ratios against a relative threshold.
//!
//! The comparison is one-sided — only slowdowns gate; speedups are
//! reported but never fail. Machine-to-machine absolute drift is expected
//! (the committed baseline came from one host), which is why the default
//! threshold is generous and CI runs the gate in informational
//! `--check` mode.

use std::fmt::Write as _;

use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};

use crate::probe::{KernelSample, SizeSample};

/// One (tier, n) cell of a parsed baseline snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    /// Number of deployed nodes.
    pub n: usize,
    /// Tier name as committed (`"exact"`, `"farfield"`, `"hierarchical"`).
    pub tier: String,
    /// Committed mean wall time per resolve round, in milliseconds.
    pub ms_per_round: f64,
}

/// One kernel-class cell of a parsed baseline snapshot (the per-α
/// `gain_batch` micro-probe under the top-level `"kernels"` key).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBaselineEntry {
    /// Class label as committed (`"alpha2"` … `"generic"`).
    pub class: String,
    /// Committed milliseconds per million fused kernel points.
    pub ms_per_mpoint: f64,
}

/// Parses the optional top-level `"kernels"` array of a baseline snapshot.
/// Snapshots written before the kernel micro-probe existed simply lack
/// the key and yield an empty vector.
///
/// # Errors
///
/// Returns a description of the first structural problem (not JSON, or a
/// kernel cell missing `class` / a positive `ms_per_mpoint`).
pub fn parse_kernel_baseline(text: &str) -> Result<Vec<KernelBaselineEntry>, String> {
    let doc = parse_json(text).map_err(|e| format!("baseline is not JSON: {e}"))?;
    let Some(kernels) = doc.get("kernels").and_then(JsonValue::as_array) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        let class = k
            .get("class")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("kernels[{i}] has no \"class\" label"))?;
        let ms = k
            .get("ms_per_mpoint")
            .and_then(JsonValue::as_f64)
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("kernels[{i}] has no positive \"ms_per_mpoint\""))?;
        out.push(KernelBaselineEntry {
            class: class.to_string(),
            ms_per_mpoint: ms,
        });
    }
    Ok(out)
}

/// Compares fresh kernel micro-probe samples against kernel baseline
/// cells, reusing the tier [`Verdict`] shape (`n` = 0 marks a kernel
/// cell; the renderer prints the class in the tier column). The same
/// skip rules as [`judge`] apply: only matched classes are judged.
#[must_use]
pub fn judge_kernels(
    baseline: &[KernelBaselineEntry],
    measured: &[KernelSample],
    threshold: f64,
) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for b in baseline {
        let Some(k) = measured.iter().find(|k| k.class == b.class) else {
            continue;
        };
        let ratio = k.ms_per_mpoint / b.ms_per_mpoint;
        verdicts.push(Verdict {
            n: 0,
            tier: format!("kernel:{}", b.class),
            baseline_ms: b.ms_per_mpoint,
            measured_ms: k.ms_per_mpoint,
            ratio,
            regressed: ratio > threshold,
        });
    }
    verdicts
}

/// Parses the `BENCH_scaling.json` schema into baseline cells.
///
/// # Errors
///
/// Returns a description of the first structural problem (not JSON, no
/// `sizes` array, a size without `n`/`tiers`, a tier without its fields).
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = parse_json(text).map_err(|e| format!("baseline is not JSON: {e}"))?;
    let sizes = doc
        .get("sizes")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "baseline has no \"sizes\" array".to_string())?;
    let mut out = Vec::new();
    for (i, size) in sizes.iter().enumerate() {
        let n = size
            .get("n")
            .and_then(JsonValue::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 1.0)
            .ok_or_else(|| format!("sizes[{i}] has no integer \"n\""))? as usize;
        let tiers = size
            .get("tiers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("sizes[{i}] has no \"tiers\" array"))?;
        for (j, tier) in tiers.iter().enumerate() {
            let name = tier
                .get("tier")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("sizes[{i}].tiers[{j}] has no \"tier\" name"))?;
            let ms = tier
                .get("ms_per_round")
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| {
                    format!("sizes[{i}].tiers[{j}] has no positive \"ms_per_round\"")
                })?;
            out.push(BaselineEntry {
                n,
                tier: name.to_string(),
                ms_per_round: ms,
            });
        }
    }
    if out.is_empty() {
        return Err("baseline contains no tier samples".to_string());
    }
    Ok(out)
}

/// One gate comparison: a baseline cell matched against a fresh probe.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Number of deployed nodes.
    pub n: usize,
    /// Tier name.
    pub tier: String,
    /// Committed ms/round.
    pub baseline_ms: f64,
    /// Freshly measured ms/round.
    pub measured_ms: f64,
    /// `measured / baseline`.
    pub ratio: f64,
    /// Whether `ratio > threshold` — the cell regressed.
    pub regressed: bool,
}

/// Compares fresh probe samples against baseline cells at `threshold`
/// (e.g. `1.5` = fail beyond a 1.5× slowdown). Baseline cells for sizes
/// the probe did not run are skipped — the gate only judges what it
/// measured; probe tiers absent from the baseline are likewise skipped.
#[must_use]
pub fn judge(baseline: &[BaselineEntry], measured: &[SizeSample], threshold: f64) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for b in baseline {
        let Some(size) = measured.iter().find(|s| s.n == b.n) else {
            continue;
        };
        let Some(tier) = size.tiers.iter().find(|t| t.tier == b.tier) else {
            continue;
        };
        let ratio = tier.ms_per_round / b.ms_per_round;
        verdicts.push(Verdict {
            n: b.n,
            tier: b.tier.clone(),
            baseline_ms: b.ms_per_round,
            measured_ms: tier.ms_per_round,
            ratio,
            regressed: ratio > threshold,
        });
    }
    verdicts
}

/// Renders the per-(n, tier) verdict table shown by `bench-gate`.
#[must_use]
pub fn render_verdicts(verdicts: &[Verdict], threshold: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7} {:>11} {:>14} {:>14} {:>8}  verdict (threshold {threshold:.2}x)",
        "n", "tier", "baseline ms", "measured ms", "ratio"
    );
    for v in verdicts {
        let _ = writeln!(
            out,
            "{:>7} {:>11} {:>14.4} {:>14.4} {:>7.2}x  {}",
            v.n,
            v.tier,
            v.baseline_ms,
            v.measured_ms,
            v.ratio,
            if v.regressed { "REGRESSED" } else { "ok" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::TierSample;

    fn baseline_json() -> &'static str {
        r#"{
  "bench": "resolve_scaling",
  "workload": {"tx_fraction": 0.25, "density": 0.25, "seed": 7, "channel": "sinr-single-hop"},
  "sizes": [
    {
      "n": 1024,
      "tiers": [{"tier": "exact", "iters": 50, "ms_per_round": 2.0},
                {"tier": "farfield", "iters": 80, "ms_per_round": 0.5}],
      "speedup_farfield_vs_exact": 4.00,
      "farfield_fallback_fraction": 0.01
    }
  ]
}"#
    }

    fn measured(exact_ms: f64, far_ms: f64) -> Vec<SizeSample> {
        vec![SizeSample {
            n: 1024,
            tiers: vec![
                TierSample {
                    tier: "exact",
                    iters: 3,
                    ms_per_round: exact_ms,
                },
                TierSample {
                    tier: "farfield",
                    iters: 3,
                    ms_per_round: far_ms,
                },
            ],
            speedup_farfield_vs_exact: exact_ms / far_ms,
            speedup_hierarchical_vs_exact: 0.0,
            farfield_fallback_fraction: 0.0,
            hierarchical_fallback_fraction: 0.0,
        }]
    }

    #[test]
    fn baseline_parses_committed_schema() {
        let entries = parse_baseline(baseline_json()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].n, 1024);
        assert_eq!(entries[0].tier, "exact");
        assert!((entries[0].ms_per_round - 2.0).abs() < 1e-12);
        assert_eq!(entries[1].tier, "farfield");
    }

    #[test]
    fn committed_repo_baseline_parses() {
        let text = include_str!("../../../BENCH_scaling.json");
        let entries = parse_baseline(text).unwrap();
        assert!(
            entries.iter().any(|e| e.n == 65536 && e.tier == "farfield"),
            "committed baseline should cover the flat engine's range"
        );
        assert!(
            entries
                .iter()
                .any(|e| e.n == 1_048_576 && e.tier == "hierarchical"),
            "committed baseline should cover the hierarchical tier at n = 1M"
        );
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"bench\": \"x\"}").is_err());
        assert!(parse_baseline("{\"sizes\": []}").is_err());
        assert!(parse_baseline("{\"sizes\": [{\"n\": 4}]}").is_err());
        assert!(
            parse_baseline(
                "{\"sizes\": [{\"n\": 4, \"tiers\": [{\"tier\": \"exact\", \"ms_per_round\": 0}]}]}"
            )
            .is_err(),
            "zero baseline time would divide by zero"
        );
    }

    #[test]
    fn threshold_separates_ok_from_regressed() {
        let baseline = parse_baseline(baseline_json()).unwrap();
        // Exact 1.4x slower, farfield 2x slower: only farfield gates at 1.5.
        let verdicts = judge(&baseline, &measured(2.8, 1.0), 1.5);
        assert_eq!(verdicts.len(), 2);
        assert!(!verdicts[0].regressed, "1.4x is under a 1.5x threshold");
        assert!(verdicts[1].regressed, "2x must gate at 1.5x");
        assert!((verdicts[1].ratio - 2.0).abs() < 1e-12);
        // Speedups never gate.
        let verdicts = judge(&baseline, &measured(0.1, 0.01), 1.5);
        assert!(verdicts.iter().all(|v| !v.regressed));
    }

    #[test]
    fn unmatched_sizes_and_tiers_are_skipped() {
        let baseline = parse_baseline(baseline_json()).unwrap();
        assert!(judge(&baseline, &[], 1.5).is_empty());
        let mut other_size = measured(1.0, 1.0);
        other_size[0].n = 2048;
        assert!(judge(&baseline, &other_size, 1.5).is_empty());
    }

    #[test]
    fn kernel_baseline_parses_and_judges() {
        let json = r#"{
  "bench": "resolve_scaling",
  "kernels": [{"class": "alpha3", "alpha": 3, "ms_per_mpoint": 1.0},
              {"class": "generic", "alpha": 2.5, "ms_per_mpoint": 4.0}],
  "sizes": [{"n": 4, "tiers": [{"tier": "exact", "ms_per_round": 1.0}]}]
}"#;
        let kernels = parse_kernel_baseline(json).unwrap();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].class, "alpha3");

        let measured = vec![
            KernelSample {
                class: "alpha3",
                alpha: 3.0,
                ms_per_mpoint: 2.5,
            },
            KernelSample {
                class: "generic",
                alpha: 2.5,
                ms_per_mpoint: 4.0,
            },
            KernelSample {
                class: "alpha6",
                alpha: 6.0,
                ms_per_mpoint: 1.0,
            },
        ];
        let verdicts = judge_kernels(&kernels, &measured, 1.5);
        assert_eq!(verdicts.len(), 2, "unmatched classes are skipped");
        assert!(verdicts[0].regressed, "2.5x must gate at 1.5x");
        assert!(!verdicts[1].regressed);
        assert_eq!(verdicts[0].tier, "kernel:alpha3");
        let table = render_verdicts(&verdicts, 1.5);
        assert!(table.contains("kernel:alpha3"));
    }

    #[test]
    fn baselines_without_kernels_yield_empty() {
        assert_eq!(parse_kernel_baseline(baseline_json()).unwrap(), vec![]);
        assert!(parse_kernel_baseline("not json").is_err());
        assert!(parse_kernel_baseline(
            "{\"kernels\": [{\"class\": \"alpha2\", \"ms_per_mpoint\": 0}]}"
        )
        .is_err());
    }

    #[test]
    fn verdict_table_renders_both_outcomes() {
        let baseline = parse_baseline(baseline_json()).unwrap();
        let table = render_verdicts(&judge(&baseline, &measured(2.8, 1.0), 1.5), 1.5);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains(" ok"));
        assert!(table.contains("1024"));
    }
}
