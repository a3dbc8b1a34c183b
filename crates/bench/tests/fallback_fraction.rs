//! Regression gate on the hierarchical engine's pruning quality: the
//! fraction of listener decisions that give up on the bracket and fall
//! back to the exact scan must stay small at every probed size, or the
//! "hierarchical tier is fast" claim silently erodes into "hierarchical
//! tier is a slow wrapper around the exact scan".
//!
//! The probe bound (6%) sits above the committed snapshot's measured
//! fractions (≤ ~4.5% across the sweep) with headroom for geometry jitter,
//! and far below the ~100% a broken bracket would produce.
//!
//! The probe resolves a fixed 25% transmitter fraction, which is not the
//! traffic the engine serves: FKN transmits with probability 0.05 and its
//! active set collapses round by round, so a second gate runs full FKN
//! trials through `Scenario` on the hierarchical tier.

use fading_bench::probe::run_probe;
use fading_cr::protocols::ProtocolKind;
use fading_cr::{ChannelSpec, JobSpec};

/// The quick-mode sizes (`bench-gate --quick` probes ≤ 4096) plus one
/// mid-size point; kept small enough for a test-suite run.
const SIZES: [usize; 3] = [1024, 4096, 16384];

const MAX_FALLBACK_FRACTION: f64 = 0.06;

#[test]
fn hierarchical_fallback_fraction_stays_low() {
    let samples = run_probe(&SIZES, |_| 5.0, |_| {});
    assert_eq!(samples.len(), SIZES.len());
    for s in &samples {
        assert!(
            s.hierarchical_fallback_fraction <= MAX_FALLBACK_FRACTION,
            "hierarchical fallback fraction {:.4} at n={} exceeds {MAX_FALLBACK_FRACTION}",
            s.hierarchical_fallback_fraction,
            s.n
        );
        // The flat engine is probed at these sizes too and shares the
        // decision ladder; hold it to the same bar so a shared-ladder
        // regression cannot hide in either engine.
        assert!(
            s.farfield_fallback_fraction <= MAX_FALLBACK_FRACTION,
            "flat farfield fallback fraction {:.4} at n={} exceeds {MAX_FALLBACK_FRACTION}",
            s.farfield_fallback_fraction,
            s.n
        );
    }
}

/// Full-trial gate: n, pinned deployment and trial seeds, and the bound on
/// the summed fallback fraction. The engine reads about 0.054 here, and a
/// one-ring near field about 0.187, so the bound catches a bracket that
/// loosens back to that level.
const TRIAL_N: usize = 16384;
const TRIAL_DEPLOY_SEED: u64 = 2016;
const TRIAL_SEEDS: std::ops::RangeInclusive<u64> = 1..=8;
const MAX_TRIAL_FALLBACK_FRACTION: f64 = 0.08;

#[test]
fn hierarchical_fallback_fraction_stays_low_on_full_fkn_trials() {
    let spec = JobSpec {
        id: "fallback-gate".into(),
        n: TRIAL_N,
        density: 0.25,
        deploy_seed: TRIAL_DEPLOY_SEED,
        protocol: ProtocolKind::fkn_default(),
        channel: ChannelSpec::Sinr,
        trials: 1,
        seed_base: 1,
        max_rounds: 10_000,
        telemetry: false,
    };
    let scenario = spec.build_scenario().expect("valid spec");
    let (mut fallbacks, mut listeners) = (0u64, 0u64);
    for seed in TRIAL_SEEDS {
        let mut sim = scenario.simulation_with_seed(seed);
        sim.set_hierarchical_enabled(true);
        let result = sim.run_until_resolved(spec.max_rounds);
        assert!(result.resolved(), "seed {seed} did not resolve");
        let stats = sim.hierarchical_stats().expect("hierarchical tier served");
        fallbacks += stats.exact_fallbacks();
        listeners += stats.listeners_resolved();
    }
    let fraction = fallbacks as f64 / listeners as f64;
    assert!(
        fraction <= MAX_TRIAL_FALLBACK_FRACTION,
        "full-trial hierarchical fallback fraction {fraction:.4} at n={TRIAL_N} \
         ({fallbacks}/{listeners}) exceeds {MAX_TRIAL_FALLBACK_FRACTION}"
    );
}
