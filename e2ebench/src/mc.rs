//! The Monte-Carlo workloads (`mc_mid`, `mc_giant`): full FKN trials —
//! engine build plus every round — through `montecarlo::run_trials_with`.

use std::sync::Arc;
use std::time::Instant;

use fading_cr::geom::Deployment;
use fading_cr::jobspec::{ChannelSpec, JobSpec};
use fading_cr::protocols::ProtocolKind;
use fading_cr::sim::montecarlo::run_trials_with;
use fading_cr::sim::obs::export::prometheus::{counters_to_prometheus, parse_prometheus};
use fading_cr::sim::obs::{SpanGuard, SpanRecord, Tracer};
use fading_cr::sim::Simulation;
use fading_cr::Scenario;

use crate::report::{Outcome, Report};
use crate::spans;
use crate::stats::{self, CpuTime, SplitMix, TrialKey};

/// One Monte-Carlo workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Workload name.
    pub name: &'static str,
    /// Network size.
    pub n: usize,
    /// `run_trials_with` worker threads.
    pub trial_threads: usize,
    /// Trials per `run_trials_with` call.
    pub batch: usize,
    /// `Simulation::set_resolve_threads`, when set.
    pub resolve_threads: Option<usize>,
    /// Per-trial round cap; every trial must resolve within it.
    pub max_rounds: u64,
    /// The first this-many trials of every run form the digest.
    pub digest_trials: usize,
}

/// n = 4096 on two trial threads: the auto tier builds the gain cache (and
/// a far-field engine that never serves) for every trial.
pub const MC_MID: McConfig = McConfig {
    name: "mc_mid",
    n: 4096,
    trial_threads: 2,
    batch: 8,
    resolve_threads: None,
    max_rounds: 10_000,
    digest_trials: 16,
};

/// n = 131072, one trial at a time on the hierarchical tier with a
/// two-thread parallel resolve: rounds dominate, no gain cache exists.
pub const MC_GIANT: McConfig = McConfig {
    name: "mc_giant",
    n: 131_072,
    trial_threads: 1,
    batch: 1,
    resolve_threads: Some(2),
    max_rounds: 10_000,
    digest_trials: 2,
};

/// The spec a workload seed generates: FKN on the SINR channel (α = 3),
/// density 0.25. The program sees only this spec.
#[must_use]
fn spec_for(cfg: &McConfig, seed: u64) -> JobSpec {
    let mut rng = SplitMix::new(seed, 1);
    JobSpec {
        id: cfg.name.to_string(),
        n: cfg.n,
        density: 0.25,
        deploy_seed: rng.next_u64() >> 24,
        protocol: ProtocolKind::fkn_default(),
        channel: ChannelSpec::Sinr,
        trials: cfg.batch,
        seed_base: rng.next_u64() >> 24,
        max_rounds: cfg.max_rounds,
        telemetry: false,
    }
}

fn span(tracer: Option<&Arc<Tracer>>, name: &'static str) -> Option<SpanGuard> {
    tracer.map(|t| t.span(name))
}

/// Set-up: generate the spec, round-trip it through its wire format and
/// build the scenario (deployment + derived SINR power), as a job runner
/// does before its first trial.
fn setup(
    cfg: &McConfig,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(f64, Scenario), String> {
    let (setup_s, scenario) = stats::repeat_setup(200, || {
        let t0 = Instant::now();
        let _s = span(tracer, "bench.setup");
        let text = spec_for(cfg, seed).to_json();
        let spec = {
            let _p = span(tracer, "core.spec_parse");
            JobSpec::from_json(&text)
        };
        let scenario = spec.and_then(|s| {
            let _c = span(tracer, "core.scenario");
            s.build_scenario()
        });
        (t0.elapsed(), scenario)
    });
    let scenario = scenario.map_err(|e| format!("{}: scenario: {e}", cfg.name))?;
    if let Some(t) = tracer {
        // The deployment alone, outside the set-up timing (build_scenario
        // generates its own inside `core.scenario`).
        let spec = spec_for(cfg, seed);
        for _ in 0..3 {
            let _d = t.span("geom.deploy");
            drop(Deployment::uniform_density(
                spec.n,
                spec.density,
                spec.deploy_seed,
            ));
        }
    }
    Ok((setup_s, scenario))
}

/// One trial's measurements.
#[derive(Debug, Clone)]
struct Trial {
    key: TrialKey,
    /// Build + rounds + teardown, ms.
    ms: f64,
    /// Engine rounds by tier and far-field (fallbacks, listeners), traced
    /// runs only.
    tiers: Option<([f64; 4], f64, f64)>,
}

/// The tiers `channel.tier_rounds.*` reports: the program's Prometheus
/// `engine` label and the metric it feeds.
const TIERS: [(&str, &str); 4] = [
    ("gain_cache", "channel.tier_rounds.gain_cache"),
    ("exact", "channel.tier_rounds.exact"),
    ("farfield", "channel.tier_rounds.farfield"),
    ("hierarchical", "channel.tier_rounds.hierarchical"),
];

/// Rounds served per tier, read from the program's Prometheus exposition
/// of `engine_counters()` (a tier the program no longer has reads 0).
fn tier_rounds(sim: &Simulation) -> [f64; 4] {
    let mut out = [0.0; 4];
    let text = counters_to_prometheus(&sim.engine_counters());
    for s in parse_prometheus(&text).unwrap_or_default() {
        if s.name == "fading_resolve_rounds_total" {
            if let Some(i) = s
                .label("engine")
                .and_then(|e| TIERS.iter().position(|(t, _)| *t == e))
            {
                out[i] += s.value;
            }
        }
    }
    out
}

fn run_trial(
    cfg: &McConfig,
    scenario: &Scenario,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> (fading_cr::sim::RunResult, Trial) {
    let t0 = Instant::now();
    let _t = span(tracer, "bench.trial");
    let mut sim = {
        let _b = span(tracer, "sim.build");
        let mut sim = scenario.simulation_with_seed(seed);
        if let Some(threads) = cfg.resolve_threads {
            sim.set_resolve_threads(threads);
        }
        sim
    };
    if let Some(t) = tracer {
        sim.set_tracer(Arc::clone(t));
    }
    let result = {
        let _r = span(tracer, "sim.run");
        sim.run_until_resolved(cfg.max_rounds)
    };
    let tiers = tracer.map(|_| {
        let ff = [sim.farfield_stats(), sim.hierarchical_stats()];
        let fallbacks = ff
            .iter()
            .flatten()
            .map(|s| s.exact_fallbacks() as f64)
            .sum();
        let listeners = ff
            .iter()
            .flatten()
            .map(|s| s.listeners_resolved() as f64)
            .sum();
        (tier_rounds(&sim), fallbacks, listeners)
    });
    {
        let _d = span(tracer, "sim.drop");
        drop(sim);
    }
    let key = TrialKey {
        seed,
        rounds: result.resolved_at().unwrap_or(result.rounds_executed()),
        winner: result.winner(),
        resolved: result.resolved(),
    };
    let ms = stats::ms(t0.elapsed());
    (result, Trial { key, ms, tiers })
}

/// One measured loop.
struct Phase {
    trials: Vec<Trial>,
    wall_s: f64,
    /// Process CPU time over the loop.
    cpu: CpuTime,
    spans: Vec<SpanRecord>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.trials.len() as f64 / self.wall_s
    }

    fn user_cpu_ms_per_op(&self) -> f64 {
        self.cpu.user_ms_per(self.trials.len())
    }
}

/// Runs batches of trials in seed order until `seconds` have passed and
/// at least `cfg.digest_trials` trials are done.
fn measure(
    cfg: &McConfig,
    scenario: &Scenario,
    seed_base: u64,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Phase {
    let mut trials = Vec::new();
    let cpu0 = CpuTime::now();
    let start = Instant::now();
    let mut next_seed = seed_base;
    while start.elapsed().as_secs_f64() < seconds || trials.len() < cfg.digest_trials {
        let batch = run_trials_with(cfg.batch, cfg.trial_threads, next_seed, |seed| {
            run_trial(cfg, scenario, seed, tracer)
        });
        trials.extend(batch.into_iter().map(|(_, t)| t));
        next_seed += cfg.batch as u64;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu = CpuTime::since(cpu0);
    let spans = tracer.map(|t| t.finished_spans()).unwrap_or_default();
    Phase {
        trials,
        wall_s,
        cpu,
        spans,
    }
}

/// Checks every trial resolved within its cap and, for the default seed,
/// that the digest of the first trials matches the recorded one. Returns
/// the digest and the count of failed checks.
fn check(cfg: &McConfig, phase: &Phase, expected_digest: Option<&str>) -> (String, usize) {
    let mut failed = phase.trials.iter().filter(|t| !t.key.resolved).count();
    let keys: Vec<TrialKey> = phase
        .trials
        .iter()
        .take(cfg.digest_trials)
        .map(|t| t.key)
        .collect();
    let digest = stats::digest(&keys);
    if let Some(want) = expected_digest {
        if want != digest {
            eprintln!("{}: digest {digest} != recorded {want}", cfg.name);
            failed += 1;
        }
    }
    (digest, failed)
}

/// Runs one Monte-Carlo workload and fills `report`.
///
/// # Errors
///
/// A set-up failure (the spec is rejected).
pub fn run(
    cfg: &McConfig,
    seed: u64,
    seconds: f64,
    traced: bool,
    expected_digest: Option<&str>,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = traced.then(Tracer::new);
    let (setup_s, scenario) = setup(cfg, seed, tracer.as_ref())?;
    let seed_base = scenario.seed();
    report.e2e("setup_s", setup_s);

    let build_rss = tracer.as_ref().map(|_| {
        let before = stats::proc_status_mib("VmRSS");
        let sim = scenario.simulation_with_seed(seed_base);
        let grown = stats::proc_status_mib("VmRSS") - before;
        drop(sim);
        grown
    });

    // The untraced loop; in a traced run it is the baseline half that the
    // tracing overhead is measured against.
    let plain_seconds = if traced { seconds / 2.0 } else { seconds };
    let plain = measure(cfg, &scenario, seed_base, plain_seconds, None);
    let (digest, mut failed) = check(cfg, &plain, expected_digest);
    let mut attempted = plain.trials.len();
    let ms: Vec<f64> = plain.trials.iter().map(|t| t.ms).collect();
    report.e2e("ops_per_s", plain.ops_per_s());
    report.e2e("user_cpu_ms_per_op", plain.user_cpu_ms_per_op());
    report.named("trials_per_s", plain.ops_per_s(), "1/s");
    report.named("trial_ms_p50", stats::median(&ms).unwrap_or(0.0), "ms");
    if let Some(p95) = stats::tail(&ms, 95.0) {
        report.named("trial_ms_p95", p95, "ms");
    }
    report.note("samples", ms.len());
    report.named("sys_cpu_ms_per_op", plain.cpu.sys_ms_per(ms.len()), "ms");
    report.note("digest", &digest);

    if let Some(tracer) = tracer {
        let traced_phase = measure(cfg, &scenario, seed_base, seconds / 2.0, Some(&tracer));
        let (_, traced_failed) = check(cfg, &traced_phase, expected_digest);
        failed += traced_failed;
        attempted += traced_phase.trials.len();
        layer_metrics(cfg, &plain, &traced_phase, build_rss.unwrap_or(0.0), report);
        report.spans = traced_phase.spans;
    }
    report.outcome = Outcome { attempted, failed };
    Ok(())
}

fn layer_metrics(
    cfg: &McConfig,
    plain: &Phase,
    traced: &Phase,
    build_rss: f64,
    report: &mut Report,
) {
    let s = &traced.spans;
    let trials = traced.trials.len().max(1) as f64;
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    report.layer("geom.deploy_ms", med(spans::durations_ms(s, "geom.deploy")));
    report.layer(
        "core.scenario_ms",
        med(spans::durations_ms(s, "core.scenario")),
    );
    report.layer(
        "core.spec_parse_us",
        1e3 * med(spans::durations_ms(s, "core.spec_parse")),
    );
    report.layer("sim.build_ms_p50", med(spans::durations_ms(s, "sim.build")));
    report.layer("sim.build_rss_mib", build_rss);
    let steps = spans::durations_ms(s, "step");
    report.layer("sim.step_ms_p50", med(steps.clone()));
    report.layer("sim.step_ms_p95", stats::tail(&steps, 95.0).unwrap_or(0.0));
    report.layer(
        "sim.step1_ms_p50",
        med(spans::first_child_ms(s, "sim.run", "step")),
    );
    let digest_trials = &traced.trials[..cfg.digest_trials.min(traced.trials.len())];
    report.layer(
        "sim.rounds_per_trial",
        stats::mean(
            &digest_trials
                .iter()
                .map(|t| t.key.rounds as f64)
                .collect::<Vec<_>>(),
        ),
    );
    // A phase's self time includes its tier sub-spans (`resolve` opens
    // `resolve.<tier>` around the engine call).
    let self_ms = spans::self_ms_by_name(s);
    for (metric, phase) in [
        ("phase.act_ms", "act"),
        ("phase.resolve_ms", "resolve"),
        ("phase.feedback_ms", "feedback"),
        ("phase.churn_ms", "churn"),
    ] {
        let ms: f64 = self_ms
            .iter()
            .filter(|(name, _)| {
                name.as_str() == phase
                    || name.strip_prefix(phase).is_some_and(|r| r.starts_with('.'))
            })
            .map(|(_, ms)| ms)
            .sum();
        report.layer(metric, ms / trials);
    }
    let mut tiers = [0.0; 4];
    let (mut fallbacks, mut listeners) = (0.0, 0.0);
    for (t, f, l) in traced.trials.iter().filter_map(|t| t.tiers) {
        for (acc, v) in tiers.iter_mut().zip(t) {
            *acc += v;
        }
        fallbacks += f;
        listeners += l;
    }
    for ((_, metric), rounds) in TIERS.iter().zip(tiers) {
        report.layer(metric, rounds / trials);
    }
    report.layer(
        "channel.fallback_frac",
        if listeners > 0.0 {
            fallbacks / listeners
        } else {
            0.0
        },
    );
    let busy: f64 = traced.trials.iter().map(|t| t.ms).sum();
    report.layer(
        "mc.busy_frac",
        busy / (cfg.trial_threads as f64 * traced.wall_s * 1e3),
    );
    report.layer(
        "trace.overhead",
        plain.user_cpu_ms_per_op() / traced.user_cpu_ms_per_op(),
    );
}
