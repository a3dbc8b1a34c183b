//! Seeded, parallel Monte-Carlo trial running.
//!
//! The paper's guarantees are "with high probability"; empirically that
//! means running many independent seeded trials and summarizing the
//! distribution of rounds-to-resolution. Trials are embarrassingly
//! parallel: [`run_trials`] fans seeds out over a `std::thread::scope`
//! while keeping results in seed order, so parallel and serial execution
//! produce byte-identical output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::obs::progress::{NoopProgress, ProgressSink};
use crate::recover::{
    supervise_trial_observed, FleetSummary, SnapshotError, SupervisedRun, SupervisorConfig,
    TrialFn, TrialManifest, TrialOutcome,
};
use crate::RunResult;

/// Runs `trials` independent trials with seeds `seed_base..seed_base+trials`,
/// using up to `threads` worker threads (clamped to at least 1), and returns
/// the results **in seed order**.
///
/// `f` maps a seed to a completed [`RunResult`]; it typically builds a fresh
/// `Simulation` per call. Because every trial derives all randomness from
/// its seed, the output is independent of the thread count.
///
/// # Example
///
/// ```
/// use fading_channel::{SinrChannel, SinrParams};
/// use fading_geom::Deployment;
/// use fading_sim::{montecarlo, Action, Protocol, Reception, Simulation};
/// use rand::{rngs::SmallRng, Rng};
///
/// #[derive(Debug)]
/// struct Simple { active: bool }
/// impl Protocol for Simple {
///     fn act(&mut self, _r: u64, rng: &mut SmallRng) -> Action {
///         if rng.gen_bool(0.25) { Action::Transmit } else { Action::Listen }
///     }
///     fn feedback(&mut self, _r: u64, rx: &Reception) {
///         if rx.is_message() { self.active = false; }
///     }
///     fn is_active(&self) -> bool { self.active }
///     fn name(&self) -> &'static str { "simple" }
/// }
///
/// let results = montecarlo::run_trials(8, 4, 100, |seed| {
///     let d = Deployment::uniform_square(16, 10.0, seed);
///     let ch = SinrChannel::new(SinrParams::default_single_hop());
///     Simulation::new(d, Box::new(ch), seed, |_| Box::new(Simple { active: true }))
///         .run_until_resolved(10_000)
/// });
/// let summary = montecarlo::Summary::from_results(&results);
/// assert_eq!(summary.trials, 8);
/// assert!(summary.success_rate > 0.9);
/// ```
pub fn run_trials<F>(trials: usize, threads: usize, seed_base: u64, f: F) -> Vec<RunResult>
where
    F: Fn(u64) -> RunResult + Sync,
{
    run_trials_with(trials, threads, seed_base, |seed| (f(seed), ()))
        .into_iter()
        .map(|(result, ())| result)
        .collect()
}

/// Like [`run_trials`], but each trial returns a [`RunResult`] **plus** an
/// arbitrary per-trial payload `T` (telemetry events, per-trial
/// measurements, …), still merged **in seed order** regardless of the
/// thread count.
///
/// This is how telemetry-collecting experiment drivers stay deterministic:
/// each worker recovers its own trial's sink inside `f` and hands the
/// events back as the payload, and the seed-ordered merge makes the
/// combined stream independent of scheduling.
pub fn run_trials_with<F, T>(trials: usize, threads: usize, seed_base: u64, f: F) -> Vec<(RunResult, T)>
where
    F: Fn(u64) -> (RunResult, T) + Sync,
    T: Send,
{
    let threads = threads.max(1).min(trials.max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(RunResult, T)>>> =
        Mutex::new((0..trials).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let result = f(seed_base + i as u64);
                // A worker that panicked inside `f` poisons the lock while
                // never writing its slot; recover the guard so the other
                // workers' completed trials aren't thrown away with it
                // (the scope still propagates the panic itself).
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)[i] = Some(result);
            });
        }
    });
    // `thread::scope` has already joined every worker (re-raising any
    // panic), so at this point each slot was written exactly once.
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|| unreachable!("trial {i} finished without storing a result"))
        })
        .collect()
}

/// Like [`run_trials`], but every trial runs under the
/// [`recover::supervisor`](crate::recover::supervisor): panics are caught
/// and classified, panicked trials are retried (same seed) up to
/// `cfg.max_retries` times, and — when `cfg.timeout` is set — a hung
/// trial becomes a typed [`TrialOutcome::TimedOut`] instead of wedging
/// the pool. One poisoned trial no longer takes the whole batch down.
///
/// Outcomes come back **in seed order** with a [`FleetSummary`] tally
/// (`succeeded`/`retried`/`timed_out`/`poisoned`). Successful results are
/// available via [`SupervisedRun::results`].
///
/// `f` must be `Send + Sync + 'static` because the watchdog path hands it
/// to a detached thread; with `cfg.timeout == None` trials run inline
/// under `catch_unwind` only, which keeps supervision overhead within the
/// bench gate's 2% budget.
pub fn run_trials_supervised<F>(
    trials: usize,
    threads: usize,
    seed_base: u64,
    cfg: &SupervisorConfig,
    f: F,
) -> SupervisedRun
where
    F: Fn(u64) -> RunResult + Send + Sync + 'static,
{
    run_trials_supervised_observed(trials, threads, seed_base, cfg, &NoopProgress, f)
}

/// [`run_trials_supervised`] with live progress: every trial transition
/// (started / retried / finished / timed-out / poisoned) is delivered to
/// `sink` as a typed [`ProgressEvent`](crate::obs::ProgressEvent) from
/// the worker thread supervising that trial, as it happens.
///
/// The sink only observes — outcomes, ordering, and the returned
/// [`SupervisedRun`] are byte-identical to the unobserved runner
/// (`run_trials_supervised` *is* this function with a
/// [`NoopProgress`] sink). Events from
/// different seeds interleave by scheduling; within one seed the sequence
/// is always started → retried\* → terminal.
pub fn run_trials_supervised_observed<F>(
    trials: usize,
    threads: usize,
    seed_base: u64,
    cfg: &SupervisorConfig,
    sink: &dyn ProgressSink,
    f: F,
) -> SupervisedRun
where
    F: Fn(u64) -> RunResult + Send + Sync + 'static,
{
    let trial: Arc<TrialFn> = Arc::new(f);
    let threads = threads.max(1).min(trials.max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<TrialOutcome>>> = Mutex::new((0..trials).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let outcome = supervise_trial_observed(cfg, seed_base + i as u64, &trial, sink);
                // `supervise_trial` never unwinds, but mirror
                // `run_trials_with`'s poison recovery for uniformity.
                slots
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)[i] = Some(outcome);
            });
        }
    });
    let outcomes: Vec<TrialOutcome> = slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            o.unwrap_or_else(|| unreachable!("trial {i} finished without storing an outcome"))
        })
        .collect();
    let mut summary = FleetSummary::default();
    for outcome in &outcomes {
        summary.record(outcome);
    }
    SupervisedRun { outcomes, summary }
}

/// Like [`run_trials`], but completed trials are recorded in (and resumed
/// from) a [`TrialManifest`]: trials whose seed is already on record are
/// **skipped**, and every freshly-completed trial is appended and synced
/// to the manifest *as it finishes* — so a crash or SIGKILL mid-batch
/// loses at most the trials that were in flight.
///
/// Returns the results for **all** `trials` seeds in seed order, resumed
/// and fresh alike, each read back from the manifest store. Manifests do
/// not persist traces, so a resumed batch is byte-identical to an
/// uninterrupted one exactly when trials run at
/// [`TraceLevel::None`](crate::TraceLevel::None) (the fleet default).
///
/// # Errors
///
/// [`SnapshotError::Io`] when appending to the manifest fails;
/// [`SnapshotError::Corrupt`] if the manifest ends up missing a completed
/// trial (cannot happen through this API).
pub fn run_trials_with_manifest<F>(
    trials: usize,
    threads: usize,
    seed_base: u64,
    manifest: &mut TrialManifest,
    f: F,
) -> Result<Vec<RunResult>, SnapshotError>
where
    F: Fn(u64) -> RunResult + Sync,
{
    let pending: Vec<u64> = (0..trials as u64)
        .map(|i| seed_base + i)
        .filter(|&seed| !manifest.is_done(seed))
        .collect();
    let threads = threads.max(1).min(pending.len().max(1));
    let next = AtomicUsize::new(0);
    // Workers compute trials in parallel but append under one lock, so
    // each manifest line lands intact. The first IO failure is latched;
    // later completions still compute but stop recording.
    let sink: Mutex<(&mut TrialManifest, Option<SnapshotError>)> = Mutex::new((manifest, None));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= pending.len() {
                    break;
                }
                let seed = pending[i];
                let result = f(seed);
                let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
                let (manifest, err) = &mut *guard;
                if err.is_none() {
                    if let Err(e) = manifest.record(seed, &result) {
                        *err = Some(e);
                    }
                }
            });
        }
    });
    let (manifest, err) = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = err {
        return Err(e);
    }
    (0..trials as u64)
        .map(|i| {
            let seed = seed_base + i;
            manifest.get(seed).cloned().ok_or_else(|| SnapshotError::Corrupt {
                detail: format!("manifest missing completed trial for seed {seed}"),
            })
        })
        .collect()
}

/// The outcome of one supervised, manifest-backed shard of trials: the
/// seed-ordered results (where available), the supervision tally, and how
/// many trials were resumed from disk instead of re-run.
#[derive(Debug)]
pub struct ShardedRun {
    /// Per-seed results in seed order; `None` where the trial poisoned or
    /// timed out and therefore never reached the manifest.
    pub results: Vec<Option<RunResult>>,
    /// Supervision tally over **all** `trials` seeds; resumed trials count
    /// as succeeded (they completed in an earlier incarnation).
    pub summary: FleetSummary,
    /// How many trials were satisfied from the manifest without re-running.
    pub resumed: u64,
}

impl ShardedRun {
    /// `true` when every trial has a result on record.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }
}

/// The full service-path trial runner: combines [`run_trials_supervised`]
/// (panic capture, same-seed retries, watchdog timeouts) with
/// [`run_trials_with_manifest`] (skip completed seeds, append+sync each
/// fresh success). This is what a long-running job server shards work
/// through: a SIGKILL loses at most the in-flight trials, and a poisoned
/// trial is tallied instead of taking the job down.
///
/// Trials already in `manifest` are counted as succeeded without re-running;
/// only successful outcomes are recorded (a panicked or timed-out trial
/// leaves no manifest line, so a later resume retries it from scratch).
///
/// # Errors
///
/// [`SnapshotError::Io`] when appending to the manifest fails; the first
/// failure is latched and aborts recording (in-flight trials still finish).
pub fn run_trials_supervised_with_manifest<F>(
    trials: usize,
    threads: usize,
    seed_base: u64,
    cfg: &SupervisorConfig,
    manifest: &mut TrialManifest,
    f: F,
) -> Result<ShardedRun, SnapshotError>
where
    F: Fn(u64) -> RunResult + Send + Sync + 'static,
{
    run_trials_supervised_with_manifest_observed(
        trials,
        threads,
        seed_base,
        cfg,
        manifest,
        &NoopProgress,
        f,
    )
}

/// [`run_trials_supervised_with_manifest`] with live progress delivered
/// to `progress`, exactly as in [`run_trials_supervised_observed`].
///
/// Resumed trials (seeds already in the manifest) emit **no** events —
/// they completed in an earlier incarnation; only freshly-run seeds are
/// observed. The sink cannot perturb results: the service-path
/// determinism drill pins a watched run byte-identical to an unwatched
/// one, stalled subscriber included.
///
/// # Errors
///
/// [`SnapshotError::Io`] when appending to the manifest fails; the first
/// failure is latched and aborts recording (in-flight trials still finish).
pub fn run_trials_supervised_with_manifest_observed<F>(
    trials: usize,
    threads: usize,
    seed_base: u64,
    cfg: &SupervisorConfig,
    manifest: &mut TrialManifest,
    progress: &dyn ProgressSink,
    f: F,
) -> Result<ShardedRun, SnapshotError>
where
    F: Fn(u64) -> RunResult + Send + Sync + 'static,
{
    let trial: Arc<TrialFn> = Arc::new(f);
    let pending: Vec<u64> = (0..trials as u64)
        .map(|i| seed_base + i)
        .filter(|&seed| !manifest.is_done(seed))
        .collect();
    let resumed = (trials - pending.len()) as u64;
    let threads = threads.max(1).min(pending.len().max(1));
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<TrialOutcome>>> =
        Mutex::new((0..pending.len()).map(|_| None).collect());
    // As in `run_trials_with_manifest`: compute in parallel, append under
    // one lock so each line lands intact, latch the first IO failure.
    let sink: Mutex<(&mut TrialManifest, Option<SnapshotError>)> = Mutex::new((manifest, None));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= pending.len() {
                    break;
                }
                let outcome = supervise_trial_observed(cfg, pending[i], &trial, progress);
                if let Some(result) = outcome.result() {
                    let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
                    let (manifest, err) = &mut *guard;
                    if err.is_none() {
                        if let Err(e) = manifest.record(pending[i], result) {
                            *err = Some(e);
                        }
                    }
                }
                outcomes
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)[i] = Some(outcome);
            });
        }
    });
    let (manifest, err) = sink.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = err {
        return Err(e);
    }
    let mut summary = FleetSummary {
        trials: resumed,
        succeeded: resumed,
        ..FleetSummary::default()
    };
    for outcome in outcomes
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .flatten()
    {
        summary.record(outcome);
    }
    let results = (0..trials as u64)
        .map(|i| manifest.get(seed_base + i).cloned())
        .collect();
    Ok(ShardedRun {
        results,
        summary,
        resumed,
    })
}

/// Distribution summary of a batch of trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Total number of trials.
    pub trials: usize,
    /// Fraction of trials that resolved within their round budget.
    pub success_rate: f64,
    /// Mean rounds-to-resolution over the *resolved* trials.
    pub mean_rounds: f64,
    /// Sample standard deviation of rounds over the resolved trials.
    pub std_rounds: f64,
    /// Minimum rounds over the resolved trials.
    pub min_rounds: u64,
    /// Median rounds over the resolved trials.
    pub median_rounds: f64,
    /// 95th-percentile rounds over the resolved trials.
    pub p95_rounds: f64,
    /// Maximum rounds over the resolved trials.
    pub max_rounds: u64,
    /// Mean total transmissions (energy) per trial, over **all** trials
    /// (0.0 when summarizing raw round counts via [`Summary::from_rounds`]).
    pub mean_transmissions: f64,
}

impl Summary {
    /// Summarizes a batch. Unresolved trials count against
    /// [`Summary::success_rate`] but are excluded from the round statistics.
    ///
    /// Returns an all-zero summary for an empty batch.
    #[must_use]
    pub fn from_results(results: &[RunResult]) -> Self {
        let rounds: Vec<u64> = results.iter().filter_map(RunResult::resolved_at).collect();
        let mut summary = Self::from_rounds(&rounds, results.len());
        if !results.is_empty() {
            summary.mean_transmissions = results
                .iter()
                .map(|r| r.total_transmissions() as f64)
                .sum::<f64>()
                / results.len() as f64;
        }
        summary
    }

    /// Summarizes raw per-trial round counts (`rounds` holds only resolved
    /// trials; `trials` is the total attempted).
    #[must_use]
    pub fn from_rounds(rounds: &[u64], trials: usize) -> Self {
        if rounds.is_empty() {
            return Summary {
                trials,
                success_rate: 0.0,
                mean_rounds: 0.0,
                std_rounds: 0.0,
                min_rounds: 0,
                median_rounds: 0.0,
                p95_rounds: 0.0,
                max_rounds: 0,
                mean_transmissions: 0.0,
            };
        }
        let mut sorted = rounds.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mean = sorted.iter().map(|&r| r as f64).sum::<f64>() / n;
        let var = if sorted.len() > 1 {
            sorted
                .iter()
                .map(|&r| (r as f64 - mean).powi(2))
                .sum::<f64>()
                / (n - 1.0)
        } else {
            0.0
        };
        Summary {
            trials,
            success_rate: n / trials.max(1) as f64,
            mean_rounds: mean,
            std_rounds: var.sqrt(),
            min_rounds: sorted[0],
            median_rounds: percentile(&sorted, 50.0),
            p95_rounds: percentile(&sorted, 95.0),
            max_rounds: sorted.last().copied().unwrap_or_default(),
            mean_transmissions: 0.0,
        }
    }
}

/// Computes the interpolation coordinates for the `q`-th percentile of a
/// length-`len` sorted sample: `(lo, hi, frac)` such that the value is
/// `sorted[lo] * (1 - frac) + sorted[hi] * frac`.
fn percentile_coords(len: usize, q: f64) -> (usize, usize, f64) {
    assert!(len > 0, "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "q must be in [0, 100]");
    let pos = q / 100.0 * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    (lo, hi, pos - lo as f64)
}

/// Linear-interpolated percentile of a **sorted** slice (`q` in `[0, 100]`).
///
/// This is the workspace's **canonical** quantile: position
/// `q/100 · (len − 1)` with linear interpolation between the bracketing
/// order statistics (the "type 7" estimator). `fading_analysis::stats`
/// re-exports it so every crate computes medians and p95s identically.
/// (The deliberately *different* `hitting::WinDistribution::quantile` —
/// an upper empirical quantile over failure mass — is documented there.)
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    let (lo, hi, frac) = percentile_coords(sorted.len(), q);
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// [`percentile`] over a sorted `f64` slice (same canonical estimator).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 100]`.
#[must_use]
pub fn percentile_f64(sorted: &[f64], q: f64) -> f64 {
    let (lo, hi, frac) = percentile_coords(sorted.len(), q);
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Trace;

    fn result_with_rounds(rounds: Option<u64>) -> RunResult {
        RunResult::new(
            rounds,
            rounds.unwrap_or(100),
            8,
            1,
            None,
            0,
            Trace::default(),
        )
    }

    #[test]
    fn run_trials_is_in_seed_order_and_thread_invariant() {
        let f = |seed: u64| result_with_rounds(Some(seed + 1));
        let serial = run_trials(16, 1, 0, f);
        let parallel = run_trials(16, 8, 0, f);
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.resolved_at(), Some(i as u64 + 1));
            assert_eq!(a.resolved_at(), b.resolved_at());
        }
    }

    #[test]
    fn run_trials_applies_seed_base() {
        let results = run_trials(3, 2, 100, |seed| result_with_rounds(Some(seed)));
        let got: Vec<_> = results.iter().map(|r| r.resolved_at().unwrap()).collect();
        assert_eq!(got, vec![100, 101, 102]);
    }

    #[test]
    fn summary_statistics() {
        let results: Vec<RunResult> = [1u64, 2, 3, 4, 100]
            .iter()
            .map(|&r| result_with_rounds(Some(r)))
            .chain(std::iter::once(result_with_rounds(None)))
            .collect();
        let s = Summary::from_results(&results);
        assert_eq!(s.trials, 6);
        assert!((s.success_rate - 5.0 / 6.0).abs() < 1e-12);
        assert!((s.mean_rounds - 22.0).abs() < 1e-12);
        assert_eq!(s.min_rounds, 1);
        assert_eq!(s.max_rounds, 100);
        assert_eq!(s.median_rounds, 3.0);
    }

    #[test]
    fn summary_of_empty_batch() {
        let s = Summary::from_results(&[]);
        assert_eq!(s.trials, 0);
        assert_eq!(s.success_rate, 0.0);
        assert_eq!(s.mean_rounds, 0.0);
    }

    #[test]
    fn summary_single_trial_has_zero_std() {
        let s = Summary::from_results(&[result_with_rounds(Some(7))]);
        assert_eq!(s.std_rounds, 0.0);
        assert_eq!(s.median_rounds, 7.0);
        assert_eq!(s.p95_rounds, 7.0);
    }

    fn result_with_transmissions(rounds: Option<u64>, transmissions: u64) -> RunResult {
        RunResult::new(
            rounds,
            rounds.unwrap_or(100),
            8,
            1,
            None,
            transmissions,
            Trace::default(),
        )
    }

    #[test]
    fn all_unresolved_batch_has_zero_success_but_counts_trials() {
        let results: Vec<RunResult> = (0..4).map(|_| result_with_rounds(None)).collect();
        let s = Summary::from_results(&results);
        assert_eq!(s.trials, 4);
        assert_eq!(s.success_rate, 0.0);
        // No resolved trials: every round statistic is the zero sentinel.
        assert_eq!(s.mean_rounds, 0.0);
        assert_eq!(s.std_rounds, 0.0);
        assert_eq!(s.min_rounds, 0);
        assert_eq!(s.median_rounds, 0.0);
        assert_eq!(s.p95_rounds, 0.0);
        assert_eq!(s.max_rounds, 0);
    }

    #[test]
    fn all_unresolved_batch_still_averages_transmissions() {
        // Energy is spent whether or not the run resolves, so
        // mean_transmissions covers *all* trials — including a batch with
        // zero successes.
        let results = vec![
            result_with_transmissions(None, 10),
            result_with_transmissions(None, 30),
        ];
        let s = Summary::from_results(&results);
        assert_eq!(s.success_rate, 0.0);
        assert!((s.mean_transmissions - 20.0).abs() < 1e-12);
    }

    #[test]
    fn p95_on_two_element_slice_interpolates() {
        // pos = 0.95 · (2 − 1): 5% of the low value, 95% of the high one.
        assert!((percentile(&[10, 20], 95.0) - 19.5).abs() < 1e-12);
        let s = Summary::from_rounds(&[10, 20], 2);
        assert!((s.p95_rounds - 19.5).abs() < 1e-12);
        assert!((s.median_rounds - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mean_transmissions_over_mixed_resolved_and_unresolved() {
        // Round statistics come from resolved trials only;
        // mean_transmissions averages over the whole batch.
        let results = vec![
            result_with_transmissions(Some(5), 12),
            result_with_transmissions(None, 40),
            result_with_transmissions(Some(7), 8),
        ];
        let s = Summary::from_results(&results);
        assert_eq!(s.trials, 3);
        assert!((s.success_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_rounds - 6.0).abs() < 1e-12);
        assert!((s.mean_transmissions - 20.0).abs() < 1e-12);
    }

    #[test]
    fn from_rounds_leaves_transmissions_zero() {
        let s = Summary::from_rounds(&[3, 4, 5], 3);
        assert_eq!(s.mean_transmissions, 0.0);
        assert_eq!(s.success_rate, 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 100.0), 40.0);
        assert_eq!(percentile(&sorted, 50.0), 25.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1], 101.0);
    }

    #[test]
    fn percentile_f64_agrees_with_u64_version() {
        for sorted in [vec![7u64], vec![1, 2], vec![3, 3, 9], vec![1, 2, 2, 2, 10]] {
            let as_f64: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
            for q in [0.0, 25.0, 50.0, 90.0, 95.0, 100.0] {
                assert_eq!(percentile(&sorted, q), percentile_f64(&as_f64, q), "{sorted:?} q={q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_f64_rejects_empty() {
        let _ = percentile_f64(&[], 50.0);
    }

    #[test]
    fn run_trials_supervised_isolates_panics_and_keeps_seed_order() {
        let cfg = SupervisorConfig::default();
        let run = run_trials_supervised(8, 4, 10, &cfg, |seed| {
            assert!(seed != 13, "injected poison for seed 13");
            result_with_rounds(Some(seed))
        });
        assert_eq!(run.outcomes.len(), 8);
        assert_eq!(run.summary.trials, 8);
        assert_eq!(run.summary.succeeded, 7);
        assert_eq!(run.summary.poisoned, 1);
        assert_eq!(run.summary.timed_out, 0);
        // Default config retries a panicked trial once before poisoning.
        assert_eq!(run.summary.retried, 1);
        for (i, outcome) in run.outcomes.iter().enumerate() {
            assert_eq!(outcome.seed(), 10 + i as u64, "outcomes stay seed-ordered");
            assert_eq!(outcome.is_success(), outcome.seed() != 13);
        }
        let results = run.results();
        assert_eq!(results.len(), 7);
        assert_eq!(results[0].resolved_at(), Some(10));
    }

    #[test]
    fn run_trials_supervised_matches_unsupervised_results() {
        let f = |seed: u64| result_with_rounds(Some(seed * 3 + 1));
        let plain = run_trials(6, 2, 40, f);
        let supervised = run_trials_supervised(6, 2, 40, &SupervisorConfig::default(), f);
        let resumed: Vec<&RunResult> = supervised.results();
        assert_eq!(resumed.len(), plain.len());
        for (a, b) in plain.iter().zip(resumed) {
            assert_eq!(a, b, "supervision must not change a healthy trial");
        }
    }

    #[test]
    fn run_trials_with_manifest_skips_completed_trials_on_resume() {
        use std::sync::atomic::AtomicUsize;

        let dir = std::env::temp_dir().join("fading-sim-montecarlo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        std::fs::remove_file(&path).ok();

        let calls = AtomicUsize::new(0);
        let f = |seed: u64| {
            calls.fetch_add(1, Ordering::SeqCst);
            result_with_rounds(Some(seed + 1))
        };

        // First pass: only 3 of 6 trials "complete" before the crash.
        let mut first = crate::TrialManifest::open(&path).unwrap();
        let partial = run_trials_with_manifest(3, 2, 50, &mut first, f).unwrap();
        assert_eq!(partial.len(), 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        drop(first);

        // Resume: the full batch only runs the 3 missing seeds.
        let mut resumed = crate::TrialManifest::open(&path).unwrap();
        assert_eq!(resumed.completed(), 3);
        let full = run_trials_with_manifest(6, 2, 50, &mut resumed, f).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 6, "completed seeds are not re-run");
        assert_eq!(full.len(), 6);
        for (i, r) in full.iter().enumerate() {
            assert_eq!(r.resolved_at(), Some(50 + i as u64 + 1), "seed order preserved");
        }

        // A fresh uninterrupted run over a clean manifest produces the
        // identical result vector.
        let clean = dir.join("fresh.jsonl");
        std::fs::remove_file(&clean).ok();
        let mut fresh = crate::TrialManifest::open(&clean).unwrap();
        let uninterrupted = run_trials_with_manifest(6, 2, 50, &mut fresh, f).unwrap();
        assert_eq!(uninterrupted, full, "resumed == uninterrupted");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&clean).ok();
    }

    #[test]
    fn supervised_manifest_run_resumes_and_tallies_failures() {
        let dir = std::env::temp_dir().join("fading-sim-supmanifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.jsonl");
        std::fs::remove_file(&path).ok();
        let cfg = SupervisorConfig {
            max_retries: 0,
            timeout: None,
        };
        // Seed 72 always panics; everything else succeeds.
        let f = |seed: u64| {
            assert_ne!(seed, 72, "poisoned trial");
            result_with_rounds(Some(seed + 1))
        };

        let mut first = crate::TrialManifest::open(&path).unwrap();
        let run = run_trials_supervised_with_manifest(4, 2, 70, &cfg, &mut first, f).unwrap();
        assert_eq!(run.summary.trials, 4);
        assert_eq!(run.summary.succeeded, 3);
        assert_eq!(run.summary.poisoned, 1);
        assert_eq!(run.resumed, 0);
        assert!(!run.complete());
        assert!(run.results[2].is_none(), "poisoned seed has no result");
        drop(first);

        // Resume with a healthy trial fn: only the poisoned seed re-runs
        // (`resumed` counts the seeds satisfied straight from the manifest).
        let mut second = crate::TrialManifest::open(&path).unwrap();
        let run2 =
            run_trials_supervised_with_manifest(4, 2, 70, &cfg, &mut second, |seed: u64| {
                result_with_rounds(Some(seed + 1))
            })
            .unwrap();
        assert_eq!(run2.resumed, 3);
        assert_eq!(run2.summary.succeeded, 4);
        assert!(run2.complete());
        let rounds: Vec<_> = run2
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().resolved_at().unwrap())
            .collect();
        assert_eq!(rounds, vec![71, 72, 73, 74], "seed order preserved");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observed_runner_matches_unobserved_and_orders_events_per_seed() {
        use crate::obs::progress::{MemoryProgress, ProgressEvent};
        let f = |seed: u64| result_with_rounds(Some(seed + 2));
        let cfg = SupervisorConfig::default();
        let plain = run_trials_supervised(10, 4, 30, &cfg, f);
        let sink = MemoryProgress::new();
        let observed = run_trials_supervised_observed(10, 4, 30, &cfg, &sink, f);
        assert_eq!(plain.summary, observed.summary);
        for (a, b) in plain.outcomes.iter().zip(&observed.outcomes) {
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.result(), b.result(), "a sink must not perturb results");
        }
        let events = sink.take();
        assert_eq!(events.len(), 20, "started + finished per trial");
        for seed in 30..40u64 {
            let per_seed: Vec<&ProgressEvent> =
                events.iter().filter(|e| e.seed() == seed).collect();
            assert_eq!(per_seed.len(), 2);
            assert!(matches!(per_seed[0], ProgressEvent::TrialStarted { .. }));
            assert!(matches!(
                per_seed[1],
                ProgressEvent::TrialFinished { rounds, resolved: true, retries: 0, .. }
                    if *rounds == seed + 2
            ));
        }
    }

    #[test]
    fn observed_manifest_runner_skips_events_for_resumed_seeds() {
        use crate::obs::progress::MemoryProgress;
        let dir = std::env::temp_dir().join("fading-sim-observed-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.jsonl");
        std::fs::remove_file(&path).ok();
        let cfg = SupervisorConfig::default();
        let f = |seed: u64| result_with_rounds(Some(seed + 1));

        let mut first = crate::TrialManifest::open(&path).unwrap();
        let sink = MemoryProgress::new();
        let run = run_trials_supervised_with_manifest_observed(3, 2, 90, &cfg, &mut first, &sink, f)
            .unwrap();
        assert!(run.complete());
        assert_eq!(sink.take().len(), 6);
        drop(first);

        // Resume over the same manifest: all 5 seeds satisfied means only
        // the 2 fresh ones emit events.
        let mut second = crate::TrialManifest::open(&path).unwrap();
        let run2 =
            run_trials_supervised_with_manifest_observed(5, 2, 90, &cfg, &mut second, &sink, f)
                .unwrap();
        assert_eq!(run2.resumed, 3);
        let events = sink.take();
        assert_eq!(events.len(), 4, "resumed seeds are silent");
        assert!(events.iter().all(|e| e.seed() >= 93));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_trials_with_carries_payloads_in_seed_order() {
        let f = |seed: u64| (result_with_rounds(Some(seed + 1)), format!("payload-{seed}"));
        let serial = run_trials_with(12, 1, 5, f);
        let parallel = run_trials_with(12, 8, 5, f);
        assert_eq!(serial.len(), 12);
        for (i, ((ra, pa), (rb, pb))) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(ra.resolved_at(), Some(5 + i as u64 + 1));
            assert_eq!(pa, &format!("payload-{}", 5 + i as u64));
            assert_eq!((ra, pa), (rb, pb), "thread count must not affect payload order");
        }
    }
}
