//! Fixed-capacity time-series recorder over the fleet's counters.
//!
//! The Prometheus scrape answers "what are the totals *right now*"; this
//! module answers "what happened *over the last minute*". A monitor loop
//! periodically builds a [`TsSample`] — a flat snapshot of the cumulative
//! counters ([`EngineCounters`] totals, trials finished, supervision
//! tallies, job tallies) plus the instantaneous gauges (queue depth, jobs
//! in flight) — and feeds it to a [`TimeSeries`], which stores the
//! **delta** against the previous sample as a [`TsFrame`] in a bounded
//! ring buffer.
//!
//! Deltas rather than levels because that is what a dashboard plots: a
//! frame *is* a rate once divided by its `dt_ms`, old frames can be
//! evicted without breaking later ones, and a counter reset (server
//! restart) clamps to zero instead of going negative (all deltas are
//! `saturating_sub`). The ring is fixed-capacity: recording is O(1), the
//! memory bound is set at construction, and eviction is counted
//! ([`TimeSeries::evicted`]) rather than silent.
//!
//! Windowed rates over the newest frames come from [`TimeSeries::rates`]:
//! rounds/sec and trials/sec (from live per-trial progress), the
//! fallback fraction (exact fallbacks over listeners the far-field ladder
//! resolved), and the jammer-active fraction (jammed rounds over engine
//! rounds). Engine-derived fields advance when a job's counters merge
//! (job completion), so those two fractions move in job-sized steps;
//! trials/rounds advance per trial.
//!
//! Frames have a one-line JSON form with the workspace's usual bit-exact
//! round-trip guarantee ([`frame_to_json`] / [`frame_from_json`], file
//! helpers [`write_frames`] / [`read_frames`]) — trivially exact here
//! since every field is an integer.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::obs::EngineCounters;
use crate::telemetry::jsonl::{parse_json, JsonValue, JsonlError};

/// One snapshot of the fleet's cumulative counters and gauges, stamped
/// with a caller-supplied monotonic timestamp (milliseconds since the
/// recorder's epoch — callers use `Instant::elapsed`, tests use plain
/// integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsSample {
    /// Milliseconds since the monitor's epoch. Must be non-decreasing
    /// across samples fed to one [`TimeSeries`].
    pub t_ms: u64,
    /// Trials finished (live, from progress events).
    pub trials: u64,
    /// Rounds executed summed over finished trials (live).
    pub trial_rounds: u64,
    /// Panicked attempts that were re-run (live).
    pub retried: u64,
    /// Trials that hit the watchdog (live).
    pub timed_out: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
    /// [`EngineCounters::rounds`] total (advances at job completion).
    pub engine_rounds: u64,
    /// Rounds served by the flat far-field engine.
    pub farfield_rounds: u64,
    /// Rounds served by the hierarchical far-field engine.
    pub hierarchical_rounds: u64,
    /// Rounds served by the exact scan.
    pub exact_rounds: u64,
    /// Rounds served by the instrumented scan.
    pub instrumented_rounds: u64,
    /// Rounds with at least one active jammer.
    pub jammed_rounds: u64,
    /// Far-field listeners that fell back to the exact path.
    pub fallback_listeners: u64,
    /// Far-field listeners the decision ladder resolved.
    pub resolved_listeners: u64,
    /// Queue depth **gauge** (not cumulative).
    pub queue_depth: u64,
    /// Jobs in flight **gauge** (not cumulative).
    pub jobs_in_flight: u64,
}

impl TsSample {
    /// An all-zero sample at `t_ms`.
    #[must_use]
    pub fn at(t_ms: u64) -> Self {
        TsSample {
            t_ms,
            ..TsSample::default()
        }
    }

    /// Copies the engine-derived cumulative fields out of a merged
    /// [`EngineCounters`] total.
    pub fn observe_counters(&mut self, c: &EngineCounters) {
        self.engine_rounds = c.rounds;
        self.farfield_rounds = c.farfield_rounds;
        self.hierarchical_rounds = c.hierarchical_rounds;
        self.exact_rounds = c.exact_rounds;
        self.instrumented_rounds = c.instrumented_rounds;
        self.jammed_rounds = c.jammed_rounds;
        self.fallback_listeners = c.farfield.exact_fallbacks();
        self.resolved_listeners = c.farfield.listeners_resolved();
    }
}

/// The delta between two consecutive [`TsSample`]s: every cumulative
/// field becomes a `d_*` increment (saturating, so a counter reset reads
/// as zero progress, never underflow); the two gauges are carried at
/// their sampled absolute values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsFrame {
    /// Timestamp of the newer sample, ms since the monitor's epoch.
    pub t_ms: u64,
    /// Milliseconds elapsed since the previous sample.
    pub dt_ms: u64,
    /// Trials finished in this frame.
    pub d_trials: u64,
    /// Rounds executed by trials finished in this frame.
    pub d_trial_rounds: u64,
    /// Retried attempts in this frame.
    pub d_retried: u64,
    /// Watchdog timeouts in this frame.
    pub d_timed_out: u64,
    /// Jobs completed in this frame.
    pub d_jobs_completed: u64,
    /// Jobs failed in this frame.
    pub d_jobs_failed: u64,
    /// Engine rounds merged in this frame.
    pub d_engine_rounds: u64,
    /// Flat far-field rounds merged in this frame.
    pub d_farfield_rounds: u64,
    /// Hierarchical far-field rounds merged in this frame.
    pub d_hierarchical_rounds: u64,
    /// Exact-scan rounds merged in this frame.
    pub d_exact_rounds: u64,
    /// Instrumented rounds merged in this frame.
    pub d_instrumented_rounds: u64,
    /// Jammed rounds merged in this frame.
    pub d_jammed_rounds: u64,
    /// Exact-fallback listeners merged in this frame.
    pub d_fallback_listeners: u64,
    /// Ladder-resolved listeners merged in this frame.
    pub d_resolved_listeners: u64,
    /// Queue depth gauge at this frame's sample.
    pub queue_depth: u64,
    /// Jobs-in-flight gauge at this frame's sample.
    pub jobs_in_flight: u64,
}

impl TsFrame {
    fn delta(prev: &TsSample, next: &TsSample) -> TsFrame {
        TsFrame {
            t_ms: next.t_ms,
            dt_ms: next.t_ms.saturating_sub(prev.t_ms),
            d_trials: next.trials.saturating_sub(prev.trials),
            d_trial_rounds: next.trial_rounds.saturating_sub(prev.trial_rounds),
            d_retried: next.retried.saturating_sub(prev.retried),
            d_timed_out: next.timed_out.saturating_sub(prev.timed_out),
            d_jobs_completed: next.jobs_completed.saturating_sub(prev.jobs_completed),
            d_jobs_failed: next.jobs_failed.saturating_sub(prev.jobs_failed),
            d_engine_rounds: next.engine_rounds.saturating_sub(prev.engine_rounds),
            d_farfield_rounds: next.farfield_rounds.saturating_sub(prev.farfield_rounds),
            d_hierarchical_rounds: next
                .hierarchical_rounds
                .saturating_sub(prev.hierarchical_rounds),
            d_exact_rounds: next.exact_rounds.saturating_sub(prev.exact_rounds),
            d_instrumented_rounds: next
                .instrumented_rounds
                .saturating_sub(prev.instrumented_rounds),
            d_jammed_rounds: next.jammed_rounds.saturating_sub(prev.jammed_rounds),
            d_fallback_listeners: next
                .fallback_listeners
                .saturating_sub(prev.fallback_listeners),
            d_resolved_listeners: next
                .resolved_listeners
                .saturating_sub(prev.resolved_listeners),
            queue_depth: next.queue_depth,
            jobs_in_flight: next.jobs_in_flight,
        }
    }
}

/// Windowed rates over the newest frames of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rates {
    /// Wall-clock span the window covers, in milliseconds.
    pub window_ms: u64,
    /// Finished trials per second.
    pub trials_per_sec: f64,
    /// Trial rounds per second (live, per-trial granularity).
    pub rounds_per_sec: f64,
    /// Exact fallbacks over ladder-resolved listeners in the window
    /// (0 when no far-field listeners were resolved).
    pub fallback_fraction: f64,
    /// Jammed rounds over engine rounds in the window (0 when no engine
    /// rounds were merged).
    pub jammer_fraction: f64,
}

/// The bounded delta recorder. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    capacity: usize,
    last: Option<TsSample>,
    frames: VecDeque<TsFrame>,
    evicted: u64,
}

impl TimeSeries {
    /// A recorder holding at most `capacity` frames (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            capacity: capacity.max(1),
            last: None,
            frames: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Feeds one snapshot. The first sample only establishes the baseline
    /// (no frame — there is nothing to delta against); every later sample
    /// appends one frame, evicting the oldest when the ring is full.
    /// Returns the frame it appended.
    pub fn record(&mut self, sample: TsSample) -> Option<TsFrame> {
        let frame = self.last.as_ref().map(|prev| TsFrame::delta(prev, &sample));
        self.last = Some(sample);
        if let Some(frame) = frame {
            if self.frames.len() == self.capacity {
                self.frames.pop_front();
                self.evicted += 1;
            }
            self.frames.push_back(frame);
        }
        frame
    }

    /// The stored frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &TsFrame> {
        self.frames.iter()
    }

    /// The newest frame, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&TsFrame> {
        self.frames.back()
    }

    /// Frames currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when no frame has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The construction-time ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames evicted to make room since construction.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Windowed rates over the newest `window` frames (fewer if the ring
    /// holds fewer). All-zero when the window is empty or spans zero
    /// milliseconds.
    #[must_use]
    pub fn rates(&self, window: usize) -> Rates {
        let skip = self.frames.len().saturating_sub(window);
        let mut dt_ms = 0u64;
        let (mut trials, mut rounds) = (0u64, 0u64);
        let (mut fallback, mut resolved) = (0u64, 0u64);
        let (mut jammed, mut engine) = (0u64, 0u64);
        for f in self.frames.iter().skip(skip) {
            dt_ms += f.dt_ms;
            trials += f.d_trials;
            rounds += f.d_trial_rounds;
            fallback += f.d_fallback_listeners;
            resolved += f.d_resolved_listeners;
            jammed += f.d_jammed_rounds;
            engine += f.d_engine_rounds;
        }
        let per_sec = |count: u64| {
            if dt_ms == 0 {
                0.0
            } else {
                count as f64 * 1000.0 / dt_ms as f64
            }
        };
        let fraction = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        Rates {
            window_ms: dt_ms,
            trials_per_sec: per_sec(trials),
            rounds_per_sec: per_sec(rounds),
            fallback_fraction: fraction(fallback, resolved),
            jammer_fraction: fraction(jammed, engine),
        }
    }
}

/// One wire field of a frame: its JSON key and the accessor reading it.
type FrameField = (&'static str, fn(&TsFrame) -> u64);

/// All (key, value-accessor) pairs of a frame, in wire order. One table
/// drives the writer, the parser, and keeps the round-trip test honest.
const FRAME_FIELDS: [FrameField; 18] = [
    ("t_ms", |f| f.t_ms),
    ("dt_ms", |f| f.dt_ms),
    ("d_trials", |f| f.d_trials),
    ("d_trial_rounds", |f| f.d_trial_rounds),
    ("d_retried", |f| f.d_retried),
    ("d_timed_out", |f| f.d_timed_out),
    ("d_jobs_completed", |f| f.d_jobs_completed),
    ("d_jobs_failed", |f| f.d_jobs_failed),
    ("d_engine_rounds", |f| f.d_engine_rounds),
    ("d_farfield_rounds", |f| f.d_farfield_rounds),
    ("d_hierarchical_rounds", |f| f.d_hierarchical_rounds),
    ("d_exact_rounds", |f| f.d_exact_rounds),
    ("d_instrumented_rounds", |f| f.d_instrumented_rounds),
    ("d_jammed_rounds", |f| f.d_jammed_rounds),
    ("d_fallback_listeners", |f| f.d_fallback_listeners),
    ("d_resolved_listeners", |f| f.d_resolved_listeners),
    ("queue_depth", |f| f.queue_depth),
    ("jobs_in_flight", |f| f.jobs_in_flight),
];

fn set_frame_field(frame: &mut TsFrame, key: &str, value: u64) {
    match key {
        "t_ms" => frame.t_ms = value,
        "dt_ms" => frame.dt_ms = value,
        "d_trials" => frame.d_trials = value,
        "d_trial_rounds" => frame.d_trial_rounds = value,
        "d_retried" => frame.d_retried = value,
        "d_timed_out" => frame.d_timed_out = value,
        "d_jobs_completed" => frame.d_jobs_completed = value,
        "d_jobs_failed" => frame.d_jobs_failed = value,
        "d_engine_rounds" => frame.d_engine_rounds = value,
        "d_farfield_rounds" => frame.d_farfield_rounds = value,
        "d_hierarchical_rounds" => frame.d_hierarchical_rounds = value,
        "d_exact_rounds" => frame.d_exact_rounds = value,
        "d_instrumented_rounds" => frame.d_instrumented_rounds = value,
        "d_jammed_rounds" => frame.d_jammed_rounds = value,
        "d_fallback_listeners" => frame.d_fallback_listeners = value,
        "d_resolved_listeners" => frame.d_resolved_listeners = value,
        "queue_depth" => frame.queue_depth = value,
        "jobs_in_flight" => frame.jobs_in_flight = value,
        _ => unreachable!("set_frame_field called with a key not in FRAME_FIELDS"),
    }
}

/// Serializes one frame as a single JSON line (no trailing newline),
/// stable key order.
#[must_use]
pub fn frame_to_json(frame: &TsFrame) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(FRAME_FIELDS.len() * 24);
    s.push('{');
    for (i, (key, get)) in FRAME_FIELDS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{key}\":{}", get(frame));
    }
    s.push('}');
    s
}

/// Parses the output of [`frame_to_json`]. Unknown keys are ignored
/// (streams stay readable across schema additions); missing keys are an
/// error.
///
/// # Errors
///
/// [`JsonlError::Parse`] on malformed JSON or a missing field.
pub fn frame_from_json(line: &str) -> Result<TsFrame, JsonlError> {
    let v = parse_json(line)?;
    let mut frame = TsFrame::default();
    for (key, _) in &FRAME_FIELDS {
        let value = v.get(key).and_then(JsonValue::as_f64).ok_or_else(|| {
            JsonlError::Parse {
                line: 0,
                msg: format!("missing or non-numeric {key:?}"),
            }
        })?;
        set_frame_field(&mut frame, key, value as u64);
    }
    Ok(frame)
}

/// Writes frames to `path` as JSONL, one frame per line.
///
/// # Errors
///
/// Propagates any underlying I/O failure.
pub fn write_frames<'a>(
    path: &Path,
    frames: impl IntoIterator<Item = &'a TsFrame>,
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for frame in frames {
        w.write_all(frame_to_json(frame).as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Reads a frame stream written by [`write_frames`], skipping blank lines.
///
/// # Errors
///
/// [`JsonlError::Io`] on I/O failure, [`JsonlError::Parse`] (with the
/// 1-based line number) on a malformed line.
pub fn read_frames(path: &Path) -> Result<Vec<TsFrame>, JsonlError> {
    let reader = BufReader::new(File::open(path)?);
    let mut frames = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        frames.push(frame_from_json(&line).map_err(|e| match e {
            JsonlError::Parse { msg, .. } => JsonlError::Parse { line: idx + 1, msg },
            io => io,
        })?);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ms: u64, trials: u64, rounds: u64) -> TsSample {
        TsSample {
            t_ms,
            trials,
            trial_rounds: rounds,
            queue_depth: trials % 5,
            jobs_in_flight: 1,
            ..TsSample::default()
        }
    }

    #[test]
    fn first_sample_is_baseline_only() {
        let mut ts = TimeSeries::new(8);
        assert!(ts.record(sample(100, 3, 30)).is_none());
        assert!(ts.is_empty());
        let frame = ts.record(sample(200, 5, 55)).unwrap();
        assert_eq!(frame.dt_ms, 100);
        assert_eq!(frame.d_trials, 2);
        assert_eq!(frame.d_trial_rounds, 25);
        assert_eq!(frame.queue_depth, 0, "gauge carries the sampled value");
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut ts = TimeSeries::new(3);
        for i in 0..10u64 {
            ts.record(sample(i * 100, i, i * 7));
        }
        // 10 samples → 9 frames, ring holds the newest 3.
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.evicted(), 6);
        assert_eq!(ts.capacity(), 3);
        let ts_values: Vec<u64> = ts.frames().map(|f| f.t_ms).collect();
        assert_eq!(ts_values, vec![700, 800, 900]);
        assert_eq!(ts.latest().unwrap().t_ms, 900);
    }

    #[test]
    fn counter_reset_clamps_to_zero() {
        let mut ts = TimeSeries::new(4);
        ts.record(sample(0, 100, 1000));
        let frame = ts.record(sample(50, 2, 20)).unwrap();
        assert_eq!(frame.d_trials, 0, "reset reads as zero progress");
        assert_eq!(frame.d_trial_rounds, 0);
        assert_eq!(frame.dt_ms, 50);
    }

    #[test]
    fn rates_over_window() {
        let mut ts = TimeSeries::new(16);
        let mut s = TsSample::at(0);
        ts.record(s);
        // 4 frames, 500 ms each: 2 trials and 100 rounds per frame,
        // fallback 3/60, jammed 10/50 per frame.
        for i in 1..=4u64 {
            s.t_ms = i * 500;
            s.trials += 2;
            s.trial_rounds += 100;
            s.fallback_listeners += 3;
            s.resolved_listeners += 60;
            s.jammed_rounds += 10;
            s.engine_rounds += 50;
            ts.record(s);
        }
        let r = ts.rates(4);
        assert_eq!(r.window_ms, 2000);
        assert!((r.trials_per_sec - 4.0).abs() < 1e-12);
        assert!((r.rounds_per_sec - 200.0).abs() < 1e-12);
        assert!((r.fallback_fraction - 0.05).abs() < 1e-12);
        assert!((r.jammer_fraction - 0.2).abs() < 1e-12);
        // A window wider than the ring uses whatever is there.
        assert_eq!(ts.rates(100).window_ms, 2000);
        // Empty window → zeros.
        assert_eq!(TimeSeries::new(4).rates(8), Rates::default());
    }

    #[test]
    fn observe_counters_copies_engine_fields() {
        let mut c = EngineCounters {
            rounds: 40,
            farfield_rounds: 10,
            hierarchical_rounds: 20,
            exact_rounds: 9,
            instrumented_rounds: 1,
            jammed_rounds: 7,
            ..EngineCounters::default()
        };
        c.farfield.bracket_decisions = 90;
        c.farfield.far_rival_fallbacks = 9;
        let mut s = TsSample::at(5);
        s.observe_counters(&c);
        assert_eq!(s.engine_rounds, 40);
        assert_eq!(s.hierarchical_rounds, 20);
        assert_eq!(s.jammed_rounds, 7);
        assert_eq!(s.fallback_listeners, c.farfield.exact_fallbacks());
        assert_eq!(s.resolved_listeners, c.farfield.listeners_resolved());
    }

    #[test]
    fn frame_json_round_trips_bit_exact() {
        // A frame with every field distinct, so a swapped key would show.
        let mut frame = TsFrame::default();
        for (i, (key, _)) in FRAME_FIELDS.iter().enumerate() {
            set_frame_field(&mut frame, key, (i as u64 + 1) * 1001);
        }
        let line = frame_to_json(&frame);
        assert_eq!(frame_from_json(&line).unwrap(), frame);
        // Unknown keys are ignored; missing keys are an error.
        let with_extra = line.replacen('{', "{\"schema\":9,", 1);
        assert_eq!(frame_from_json(&with_extra).unwrap(), frame);
        assert!(frame_from_json("{\"t_ms\":1}").is_err());
        assert!(frame_from_json("nope").is_err());
    }

    #[test]
    fn frame_from_json_reads_lines_that_still_carry_gain_cache_rounds() {
        // Servers that predate the removal of the gain-cache tier write a
        // `d_gain_cache_rounds` key; a newer reader (fading-top) ignores it.
        let line = "{\"t_ms\":1000,\"dt_ms\":500,\"d_trials\":3,\"d_trial_rounds\":40,\
                    \"d_retried\":0,\"d_timed_out\":0,\"d_jobs_completed\":0,\"d_jobs_failed\":0,\
                    \"d_engine_rounds\":40,\"d_farfield_rounds\":30,\"d_hierarchical_rounds\":0,\
                    \"d_gain_cache_rounds\":6,\"d_exact_rounds\":4,\"d_instrumented_rounds\":0,\
                    \"d_jammed_rounds\":0,\"d_fallback_listeners\":2,\"d_resolved_listeners\":90,\
                    \"queue_depth\":7,\"jobs_in_flight\":1}";
        let frame = frame_from_json(line).unwrap();
        assert_eq!(frame.d_engine_rounds, 40);
        assert_eq!(frame.d_farfield_rounds, 30);
        assert_eq!(frame.d_exact_rounds, 4);
        assert_eq!(frame.queue_depth, 7);
        assert!(!frame_to_json(&frame).contains("gain_cache"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("fading-sim-timeseries-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.jsonl");
        let mut ts = TimeSeries::new(8);
        for i in 0..5u64 {
            ts.record(sample(i * 250, i * 3, i * 40));
        }
        let frames: Vec<TsFrame> = ts.frames().copied().collect();
        write_frames(&path, &frames).unwrap();
        assert_eq!(read_frames(&path).unwrap(), frames);
        std::fs::remove_file(&path).ok();
    }
}
