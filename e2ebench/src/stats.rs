//! Small, dependency-free statistics the benchmark relies on: percentiles
//! and the tail rule, the trial digest, the seeded open-loop schedule and
//! the process's memory and CPU-time readings.

use std::time::{Duration, Instant};

use fading_cr::sim::montecarlo::percentile_f64;

/// A percentile needs at least this many samples beyond it before it is
/// reported (so p95 needs 200 samples, p50 needs 20).
pub const TAIL_MIN_BEYOND: usize = 10;

/// The workspace's canonical percentile (`q` in `[0, 100]`, linear
/// interpolation; see `percentile_f64`) of an unsorted sample; `None`
/// when empty.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_f64(&sorted, q))
}

/// The median; `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Whether a sample of `n` values has at least [`TAIL_MIN_BEYOND`] values
/// beyond percentile `q`.
#[must_use]
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9
}

/// The percentile under the tail rule: `None` when the sample is too small
/// to have [`TAIL_MIN_BEYOND`] values beyond it.
#[must_use]
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    if tail_supported(values.len(), q) {
        percentile(values, q)
    } else {
        None
    }
}

/// Sum of `values` divided by their count (0 when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in a duration, as a float.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up repetitions: at least this many, and then until this much
/// set-up time has accumulated (or `max_reps` is reached).
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// Repeats `rep` (which returns its own timed duration and a value) under
/// the set-up repetition rule; returns the median seconds and the last
/// value.
pub fn repeat_setup<T>(max_reps: usize, mut rep: impl FnMut() -> (Duration, T)) -> (f64, T) {
    let mut secs = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let (d, value) = rep();
        secs.push(d.as_secs_f64());
        total += d;
        if secs.len() >= max_reps || (secs.len() >= SETUP_MIN_REPS && total >= SETUP_MIN_TOTAL) {
            return (median(&secs).unwrap_or(0.0), value);
        }
    }
}

/// One trial's identity for the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialKey {
    /// The trial's seed.
    pub seed: u64,
    /// The round it resolved in, or the rounds executed if it did not.
    pub rounds: u64,
    /// The winning node, if one was named.
    pub winner: Option<usize>,
    /// Whether contention resolved within the cap.
    pub resolved: bool,
}

/// FNV-1a over every trial's canonical `seed,rounds,winner,outcome;` text,
/// in the order given, as 16 hex digits. Any change to any field of any
/// trial, or to their order, changes the digest.
#[must_use]
pub fn digest(trials: &[TrialKey]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in trials {
        let winner = t.winner.map_or_else(|| "-".to_string(), |w| w.to_string());
        let outcome = if t.resolved { "resolved" } else { "capped" };
        let line = format!("{},{},{},{};", t.seed, t.rounds, winner, outcome);
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// SplitMix64: the benchmark's own seeded generator, so its inputs do not
/// depend on any program crate's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` on `lane` (lanes give independent streams).
    #[must_use]
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut s = SplitMix(seed ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Due times (offsets from the loop's start, ascending) of a Poisson
/// arrival process at `rate` per second over `seconds`, conditioned on
/// its expected count: `round(rate × seconds)` arrivals at independent
/// uniform times. Every run offers the same load; only the timing varies.
#[must_use]
pub fn poisson_schedule(rng: &mut SplitMix, rate: f64, seconds: f64) -> Vec<Duration> {
    let count = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter().map(Duration::from_secs_f64).collect()
}

/// Open-loop timing of one request. Latency counts from when the request
/// was **due**, not from when it was sent, so a stalled generator or a
/// backed-up server charges its wait to every request behind it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopTiming {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When the generator actually sent it.
    pub sent: Instant,
    /// When the harness saw it finish, if it did.
    pub done: Option<Instant>,
}

impl OpenLoopTiming {
    /// How late the generator sent it, in ms (0 when on time).
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }

    /// Due → seen done, in ms; `None` if it never finished.
    #[must_use]
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| ms(d.saturating_duration_since(self.due)))
    }
}

/// Reads one `kB` field (e.g. `VmRSS`, `VmHWM`) of `/proc/self/status`,
/// in MiB; 0 where the file does not exist.
#[must_use]
pub fn proc_status_mib(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| {
            let rest = l.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100
/// by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU time the process has used, all threads counted, ended ones
/// included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    /// User-space seconds.
    pub user_s: f64,
    /// Kernel seconds (system calls, file-system work).
    pub sys_s: f64,
}

impl CpuTime {
    /// The process's CPU time so far; 0 where `/proc` is missing.
    #[must_use]
    pub fn now() -> CpuTime {
        let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut ticks = after
            .split_whitespace()
            .skip(11)
            .map(|f| f.parse::<u64>().unwrap_or(0) as f64 / USER_HZ);
        CpuTime {
            user_s: ticks.next().unwrap_or(0.0),
            sys_s: ticks.next().unwrap_or(0.0),
        }
    }

    /// CPU time used between `earlier` and now.
    #[must_use]
    pub fn since(earlier: CpuTime) -> CpuTime {
        let now = CpuTime::now();
        CpuTime {
            user_s: now.user_s - earlier.user_s,
            sys_s: now.sys_s - earlier.sys_s,
        }
    }

    /// User-space ms per operation over `ops` operations.
    #[must_use]
    pub fn user_ms_per(&self, ops: usize) -> f64 {
        1e3 * self.user_s / ops.max(1) as f64
    }

    /// Kernel ms per operation over `ops` operations.
    #[must_use]
    pub fn sys_ms_per(&self, ops: usize) -> f64 {
        1e3 * self.sys_s / ops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = CpuTime::now();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(300) {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let used = CpuTime::since(before).user_s;
        assert!(used > 0.05 && used < 5.0, "{used}");
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!tail_supported(199, 95.0));
        assert!(tail_supported(200, 95.0));
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail(&few, 95.0), None);
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = tail(&enough, 95.0).unwrap();
        assert!((p95 - 189.05).abs() < 1e-9, "{p95}");
        // Ten samples lie strictly beyond it.
        assert_eq!(enough.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn setup_repeats_until_enough_time_then_takes_the_median() {
        let mut reps = 0u32;
        let (median_s, last) = repeat_setup(200, || {
            reps += 1;
            (Duration::from_millis(100 * u64::from(reps)), reps)
        });
        assert_eq!(last, SETUP_MIN_REPS as u32, "1.5 s after the minimum reps");
        assert!((median_s - 0.3).abs() < 1e-9, "{median_s}");
        let mut reps = 0;
        let (_, ()) = repeat_setup(7, || {
            reps += 1;
            (Duration::from_nanos(1), ())
        });
        assert_eq!(reps, 7, "capped before 1 s accumulates");
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(100);
        let on_time = OpenLoopTiming {
            due,
            sent: due,
            done: Some(due + Duration::from_millis(30)),
        };
        assert_eq!(on_time.late_ms(), 0.0);
        assert!((on_time.latency_ms().unwrap() - 30.0).abs() < 1e-9);
        // A generator that fell 50 ms behind charges the delay to the
        // request: latency is 80 ms although the server took 30.
        let late = OpenLoopTiming {
            due,
            sent: due + Duration::from_millis(50),
            done: Some(due + Duration::from_millis(80)),
        };
        assert!((late.late_ms() - 50.0).abs() < 1e-9);
        assert!((late.latency_ms().unwrap() - 80.0).abs() < 1e-9);
        // Sent early (the generator never is, but the clock is monotonic
        // only per read): lateness saturates at 0.
        let early = OpenLoopTiming {
            due,
            sent: t0,
            done: None,
        };
        assert_eq!(early.late_ms(), 0.0);
        assert_eq!(early.latency_ms(), None);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = TrialKey {
            seed: 5,
            rounds: 17,
            winner: Some(3),
            resolved: true,
        };
        let b = TrialKey {
            seed: 6,
            rounds: 12,
            winner: None,
            resolved: false,
        };
        let base = digest(&[a, b]);
        assert_eq!(base.len(), 16);
        assert_eq!(base, digest(&[a, b]));
        assert_ne!(base, digest(&[b, a]), "order matters");
        for changed in [
            TrialKey { seed: 4, ..a },
            TrialKey { rounds: 18, ..a },
            TrialKey {
                winner: Some(2),
                ..a
            },
            TrialKey { winner: None, ..a },
            TrialKey {
                resolved: false,
                ..a
            },
        ] {
            assert_ne!(base, digest(&[changed, b]), "{changed:?}");
        }
        // FNV-1a offset basis for the empty input.
        assert_eq!(digest(&[]), "cbf29ce484222325");
    }

    #[test]
    fn schedule_is_seeded_and_near_rate() {
        let a = poisson_schedule(&mut SplitMix::new(9, 1), 200.0, 10.0);
        let b = poisson_schedule(&mut SplitMix::new(9, 1), 200.0, 10.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap().as_secs_f64() < 10.0);
        let c = poisson_schedule(&mut SplitMix::new(10, 1), 200.0, 10.0);
        assert_ne!(a, c);
    }
}
