//! The open-loop service workload (`svc_open`): one generator submits a
//! seeded Poisson stream of jobs into an in-process [`Server`] and the
//! harness times each job from when it was **due** to when the watch hub
//! says it is done.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fading_cr::geom::Deployment;
use fading_cr::jobspec::{ChannelSpec, JobSpec};
use fading_cr::protocols::ProtocolKind;
use fading_cr::sim::obs::SpanRecord;
use fading_cr::sim::recover::trial_line;
use fading_cr::sim::telemetry::jsonl::{parse_json, JsonValue};
use fading_server::{ExitPolicy, Server, ServerConfig, Subscription};

use crate::report::{Outcome, Report};
use crate::spans::{self, SpanBuilder};
use crate::stats::{self, CpuTime, OpenLoopTiming, SplitMix};

/// Job workers in the server.
const WORKERS: usize = 2;
/// Threads sharding the trials within one job.
const TRIAL_THREADS: usize = 1;
/// One job in this many is a far-field straggler (1%), evenly spaced so
/// every run offers the same straggler load and no two overlap.
const STRAGGLER_EVERY: usize = 100;
/// Straggler size: n = 16384 is served by the flat far-field tier.
const STRAGGLER_N: usize = 16_384;
/// Straggler round cap (they are capped, not run to resolution).
const STRAGGLER_ROUNDS: u64 = 8;
/// Trials per straggler job.
const STRAGGLER_TRIALS: usize = 2;
/// Trials per small job.
const SMALL_TRIALS: usize = 8;
/// Share of small jobs that stream telemetry event files.
const TELEMETRY_SHARE: f64 = 0.1;
/// How long the harness waits for the last jobs after the schedule ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Done jobs whose artifacts are recomputed and compared.
const CHECK_JOBS: usize = 12;

/// The job id of schedule slot `seq`. Zero-padded, because the server
/// claims queued jobs in lexicographic order.
fn job_id(seq: usize) -> String {
    format!("svc-{seq:07}")
}

fn job_seq(id: &str) -> Option<usize> {
    id.strip_prefix("svc-")?.parse().ok()
}

/// The spec of schedule slot `seq`. Mostly small FKN/SINR jobs; some on
/// the Rayleigh, radio and lossy-SINR channels and with the Decay and
/// ALOHA protocols; some streaming telemetry; every hundredth a far-field
/// straggler.
#[must_use]
fn job_spec(rng: &mut SplitMix, seq: usize) -> JobSpec {
    let mut spec = JobSpec::example(&job_id(seq));
    spec.deploy_seed = rng.next_u64() >> 24;
    spec.seed_base = rng.next_u64() >> 24;
    if seq % STRAGGLER_EVERY == STRAGGLER_EVERY / 2 {
        spec.n = STRAGGLER_N;
        spec.trials = STRAGGLER_TRIALS;
        spec.max_rounds = STRAGGLER_ROUNDS;
        return spec;
    }
    spec.n = 32 * (1 + rng.below(6) as usize);
    spec.trials = SMALL_TRIALS;
    spec.max_rounds = 20_000;
    let kind = rng.unit();
    let (protocol, channel) = if kind < 0.6 {
        (ProtocolKind::fkn_default(), ChannelSpec::Sinr)
    } else if kind < 0.68 {
        (ProtocolKind::fkn_default(), ChannelSpec::Rayleigh)
    } else if kind < 0.76 {
        (
            ProtocolKind::fkn_default(),
            ChannelSpec::Lossy { drop_prob: 0.1 },
        )
    } else if kind < 0.84 {
        (ProtocolKind::Decay, ChannelSpec::Sinr)
    } else if kind < 0.92 {
        (ProtocolKind::Decay, ChannelSpec::Radio)
    } else {
        (ProtocolKind::Aloha { n: spec.n }, ChannelSpec::Radio)
    };
    spec.protocol = protocol;
    spec.channel = channel;
    spec.telemetry = rng.unit() < TELEMETRY_SHARE;
    spec
}

/// One scheduled job.
#[derive(Debug, Clone)]
struct Job {
    /// The job.
    spec: JobSpec,
    /// When it is due, from the loop's start.
    due: Duration,
}

/// The seeded arrival schedule: Poisson arrivals at `rate` per second for
/// `seconds`, each with a spec from [`job_spec`].
#[must_use]
fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Job> {
    let dues = stats::poisson_schedule(&mut SplitMix::new(seed, 2), rate, seconds);
    let mut rng = SplitMix::new(seed, 3);
    dues.into_iter()
        .enumerate()
        .map(|(seq, due)| Job {
            spec: job_spec(&mut rng, seq),
            due,
        })
        .collect()
}

/// Lifecycle times of one job as the watch hub reported them.
#[derive(Debug, Clone, Copy, Default)]
struct JobEvents {
    /// Server clock (ms since open) of `job_started`.
    started_ms: Option<f64>,
    /// Server clock of `job_done`.
    done_ms: Option<f64>,
    /// When the harness received `job_done`.
    seen_done: Option<Instant>,
    /// A `job_failed` event arrived.
    failed: bool,
}

/// A running server, its event collector and its queue directory.
struct Service {
    server: Server,
    /// When the server's `t_ms` clock reads 0 (taken just after open).
    epoch: Instant,
    runner: JoinHandle<()>,
    collector: JoinHandle<()>,
    stop: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<JobEvents>>>,
    finished: Arc<AtomicUsize>,
    root: PathBuf,
}

fn collect(line: &str, events: &Mutex<Vec<JobEvents>>, finished: &AtomicUsize) {
    if !line.contains("\"event\":\"job_") {
        return;
    }
    let Ok(v) = parse_json(line) else { return };
    let (Some(kind), Some(seq)) = (
        v.get("event").and_then(JsonValue::as_str),
        v.get("job").and_then(JsonValue::as_str).and_then(job_seq),
    ) else {
        return;
    };
    let t_ms = v.get("t_ms").and_then(JsonValue::as_f64);
    let mut ev = events.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(slot) = ev.get_mut(seq) else { return };
    match kind {
        "job_started" => slot.started_ms = t_ms,
        "job_done" => {
            slot.done_ms = t_ms;
            slot.seen_done = Some(Instant::now());
            finished.fetch_add(1, Ordering::SeqCst);
        }
        "job_failed" => {
            slot.failed = true;
            finished.fetch_add(1, Ordering::SeqCst);
        }
        _ => {}
    }
}

impl Service {
    /// Opens a server over a fresh queue at `root`, subscribes to its hub
    /// and starts its workers.
    fn start(root: &Path, jobs: usize) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(root);
        let cfg = ServerConfig {
            workers: WORKERS,
            trial_threads: TRIAL_THREADS,
            ..ServerConfig::default()
        };
        let server = Server::open(root, cfg).map_err(|e| format!("opening server: {e}"))?;
        let epoch = Instant::now();
        let sub = server.hub().subscribe(Subscription {
            job: None,
            frames: false,
            capacity: 1 << 22,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(vec![JobEvents::default(); jobs]));
        let finished = Arc::new(AtomicUsize::new(0));
        let collector = {
            let (stop, events, finished) = (
                Arc::clone(&stop),
                Arc::clone(&events),
                Arc::clone(&finished),
            );
            std::thread::spawn(move || loop {
                match sub.recv_timeout(Duration::from_millis(5)) {
                    Some(line) => collect(&line, &events, &finished),
                    None if stop.load(Ordering::SeqCst) => return,
                    None => {}
                }
            })
        };
        let runner = {
            let server = server.clone();
            std::thread::spawn(move || server.run(ExitPolicy::forever()))
        };
        Ok(Service {
            server,
            epoch,
            runner,
            collector,
            stop,
            events,
            finished,
            root: root.to_path_buf(),
        })
    }

    /// Stops the workers and the collector and waits for both.
    fn stop(self) -> Result<(Vec<JobEvents>, Server, PathBuf), String> {
        self.server.request_stop();
        let runner = self.runner.join();
        self.stop.store(true, Ordering::SeqCst);
        let collector = self.collector.join();
        if runner.is_err() || collector.is_err() {
            return Err("a server worker or the event collector panicked".into());
        }
        let events = self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Ok((events, self.server, self.root))
    }
}

/// One open-loop run.
struct Phase {
    jobs: Vec<Job>,
    timings: Vec<OpenLoopTiming>,
    refused: Vec<bool>,
    events: Vec<JobEvents>,
    start: Instant,
    epoch: Instant,
    wall_s: f64,
    /// Process CPU time from the first due job until every job finished.
    cpu: CpuTime,
    server: Server,
    root: PathBuf,
}

impl Phase {
    fn done(&self, i: usize) -> bool {
        self.events[i].seen_done.is_some() && !self.events[i].failed
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.timings
            .iter()
            .filter_map(OpenLoopTiming::latency_ms)
            .collect()
    }

    fn ops_per_s(&self) -> f64 {
        self.latencies_ms().len() as f64 / self.wall_s
    }

    /// User-space CPU time per done job, every thread of the process
    /// (server workers, generator, event collector) over the loop: it
    /// moves with per-job work although the offered rate fixes
    /// `ops_per_s`. Kernel time is left out of it because the file-system
    /// syncs make it follow the host's disk.
    fn user_cpu_ms_per_op(&self) -> f64 {
        self.cpu.user_ms_per(self.latencies_ms().len())
    }

    /// Due time of job `i` on the server's `t_ms` clock (the server
    /// opened before the loop started, so no job is due before it).
    fn due_server_ms(&self, i: usize) -> f64 {
        stats::ms((self.start + self.jobs[i].due).saturating_duration_since(self.epoch))
    }

    /// (queue wait, exec) in ms per done job, from the hub's `t_ms`
    /// stamps. `t_ms` is whole ms, floored; +0.5 centres it.
    fn server_split_ms(&self) -> Vec<(usize, f64, f64)> {
        (0..self.jobs.len())
            .filter(|&i| self.done(i))
            .filter_map(|i| {
                let e = &self.events[i];
                let (s, d) = (e.started_ms? + 0.5, e.done_ms? + 0.5);
                Some((i, (s - self.due_server_ms(i)).max(0.0), (d - s).max(0.0)))
            })
            .collect()
    }
}

/// Submits `jobs` on their schedule and waits for them to finish.
fn open_loop(root: &Path, jobs: Vec<Job>) -> Result<Phase, String> {
    let service = Service::start(root, jobs.len())?;
    let queue = service.server.queue().clone();
    let cpu0 = CpuTime::now();
    let start = Instant::now();
    let mut timings = Vec::with_capacity(jobs.len());
    let mut refused = vec![false; jobs.len()];
    for (i, job) in jobs.iter().enumerate() {
        let due = start + job.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if let Err(e) = queue.submit(&job.spec) {
            eprintln!("svc_open: submit {} refused: {e}", job.spec.id);
            refused[i] = true;
        }
        timings.push(OpenLoopTiming {
            due,
            sent,
            done: None,
        });
    }
    let accepted = refused.iter().filter(|r| !**r).count();
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while service.finished.load(Ordering::SeqCst) < accepted && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let cpu = CpuTime::since(cpu0);
    let epoch = service.epoch;
    let (events, server, root) = service.stop()?;
    for (t, e) in timings.iter_mut().zip(&events) {
        t.done = e.seen_done.filter(|_| !e.failed);
    }
    let end = timings.iter().filter_map(|t| t.done).max().unwrap_or(start);
    Ok(Phase {
        jobs,
        timings,
        refused,
        events,
        start,
        epoch,
        wall_s: end.saturating_duration_since(start).as_secs_f64().max(1e-3),
        cpu,
        server,
        root,
    })
}

/// Recomputes a sample of done jobs directly through
/// `Scenario::montecarlo` and compares with the server's `trials.jsonl`.
/// Returns the number of mismatching jobs; records `check.*` spans (with
/// the per-job parse, deployment and scenario layers) into `spans` when
/// given.
fn check_sample(phase: &Phase, mut spans: Option<&mut SpanBuilder>) -> usize {
    let done: Vec<usize> = (0..phase.jobs.len()).filter(|&i| phase.done(i)).collect();
    let stride = (done.len() / CHECK_JOBS).max(1);
    let mut sample: Vec<usize> = done
        .iter()
        .copied()
        .step_by(stride)
        .take(CHECK_JOBS)
        .collect();
    if let Some(&s) = done.iter().find(|&&i| phase.jobs[i].spec.n == STRAGGLER_N) {
        if !sample.contains(&s) {
            sample.push(s);
        }
    }
    let ns = |t: Instant| t.saturating_duration_since(phase.start).as_nanos() as u64;
    let queue = phase.server.queue();
    let mut mismatches = 0;
    for i in sample {
        let spec = &phase.jobs[i].spec;
        let t0 = Instant::now();
        let text = std::fs::read_to_string(queue.done_dir().join(format!("{}.json", spec.id)));
        let p0 = Instant::now();
        let parsed = text
            .map_err(|e| e.to_string())
            .and_then(|t| JobSpec::from_json(t.trim()).map_err(|e| e.to_string()));
        let p1 = Instant::now();
        drop(Deployment::uniform_density(
            spec.n,
            spec.density,
            spec.deploy_seed,
        ));
        let d1 = Instant::now();
        let scenario = spec.build_scenario();
        let s1 = Instant::now();
        let want: Option<String> = scenario.ok().map(|sc| {
            sc.montecarlo(spec.trials, 1, spec.max_rounds)
                .iter()
                .enumerate()
                .map(|(k, r)| trial_line(spec.seed_base + k as u64, r) + "\n")
                .collect()
        });
        let m1 = Instant::now();
        let got = std::fs::read_to_string(queue.job_dir(&spec.id).join("trials.jsonl")).ok();
        let ok = matches!((&parsed, &want, &got), (Ok(p), Some(w), Some(g)) if p == spec && w == g);
        if !ok {
            eprintln!(
                "svc_open: job {} artifacts differ from a direct recomputation",
                spec.id
            );
            mismatches += 1;
        }
        if let Some(spans) = spans.as_deref_mut() {
            let job = spans.push("check.job", None, 0, ns(t0), ns(m1));
            spans.push("core.spec_parse", Some(job), 0, ns(p0), ns(p1));
            spans.push("geom.deploy", Some(job), 0, ns(p1), ns(d1));
            spans.push("core.scenario", Some(job), 0, ns(d1), ns(s1));
            spans.push("check.montecarlo", Some(job), 0, ns(s1), ns(m1));
        }
    }
    mismatches
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                    _ => e.metadata().map_or(0, |m| m.len()),
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Open-loop outcome: attempted, failed (refused, failed or never seen
/// done) and over-limit counts.
fn tally(phase: &Phase, limit_ms: f64) -> (usize, usize, usize) {
    let attempted = phase.jobs.len();
    let failed = (0..attempted)
        .filter(|&i| phase.refused[i] || !phase.done(i))
        .count();
    let slow = phase
        .latencies_ms()
        .iter()
        .filter(|&&l| l > limit_ms)
        .count();
    (attempted, failed, slow)
}

/// The queue directory of one run, inside `work`.
fn queue_root(work: &Path, tag: &str) -> PathBuf {
    work.join(format!("svc-{}-{tag}", std::process::id()))
}

/// Set-up: generate the seeded schedule and start a server over a fresh
/// queue (open, subscribe, spawn workers). Repeated; the median counts.
fn setup(work: &Path, seed: u64, rate: f64, seconds: f64) -> Result<f64, String> {
    let (setup_s, last) = stats::repeat_setup(25, || {
        let t0 = Instant::now();
        let jobs = schedule(seed, rate, seconds);
        let service = Service::start(&queue_root(work, "setup"), jobs.len());
        let d = t0.elapsed();
        let ok = service.and_then(Service::stop).map(|(_, _, root)| {
            let _ = std::fs::remove_dir_all(root);
        });
        (d, ok)
    });
    last.map(|()| setup_s)
}

/// Runs `svc_open` and fills `report`.
///
/// # Errors
///
/// The server could not be started.
pub fn run(
    work: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    rate: f64,
    limit_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    report.e2e("setup_s", setup(work, seed, rate, seconds)?);
    let plain_seconds = if traced { seconds / 2.0 } else { seconds };
    let plain = open_loop(
        &queue_root(work, "plain"),
        schedule(seed, rate, plain_seconds),
    )?;
    let mismatches = check_sample(&plain, None);
    let (attempted, failed, slow) = tally(&plain, limit_ms);
    let lat = plain.latencies_ms();
    report.e2e("ops_per_s", plain.ops_per_s());
    report.e2e("user_cpu_ms_per_op", plain.user_cpu_ms_per_op());
    report.named("jobs_per_s", plain.ops_per_s(), "1/s");
    report.named("job_ms_p50", stats::median(&lat).unwrap_or(0.0), "ms");
    if let Some(p95) = stats::tail(&lat, 95.0) {
        report.named("job_ms_p95", p95, "ms");
    }
    report.named(
        "slo_miss_frac",
        (failed + slow) as f64 / attempted.max(1) as f64,
        "frac",
    );
    report.named("sys_cpu_ms_per_op", plain.cpu.sys_ms_per(lat.len()), "ms");
    report.note("samples", lat.len());
    let split = plain.server_split_ms();
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    report.note(
        "queue_wait_ms_p50",
        med(split.iter().map(|s| s.1).collect()),
    );
    report.note("exec_ms_p50", med(split.iter().map(|s| s.2).collect()));
    report.note("rate_per_s", rate);
    report.note("latency_limit_ms", limit_ms);
    let mut outcome = Outcome {
        attempted,
        failed: failed + mismatches,
    };
    let _ = std::fs::remove_dir_all(&plain.root);

    if traced {
        let phase = open_loop(
            &queue_root(work, "traced"),
            schedule(seed, rate, seconds / 2.0),
        )?;
        let mut builder = SpanBuilder::default();
        let mismatches = check_sample(&phase, Some(&mut builder));
        let (attempted, failed, _) = tally(&phase, limit_ms);
        outcome.attempted += attempted;
        outcome.failed += failed + mismatches;
        layer_metrics(&phase, &plain, builder, report);
        let _ = std::fs::remove_dir_all(&phase.root);
    }
    report.outcome = outcome;
    Ok(())
}

/// Job spans (due → seen done, with the server's queue-wait and exec
/// children) plus the check spans, and the per-layer metrics read off them.
fn layer_metrics(phase: &Phase, plain: &Phase, mut builder: SpanBuilder, report: &mut Report) {
    let ns = |t: Instant| t.saturating_duration_since(phase.start).as_nanos() as u64;
    let epoch_ns = |ms: f64| {
        let base = phase
            .epoch
            .saturating_duration_since(phase.start)
            .as_nanos() as f64;
        (base + ms * 1e6).max(0.0) as u64
    };
    let split = phase.server_split_ms();
    for &(i, _, _) in &split {
        let t = &phase.timings[i];
        let e = &phase.events[i];
        let (Some(done), Some(s), Some(d)) = (t.done, e.started_ms, e.done_ms) else {
            continue;
        };
        let track = 1 + i as u64;
        let job = builder.push("svc.job", None, track, ns(t.due), ns(done));
        builder.push(
            "server.queue_wait",
            Some(job),
            track,
            ns(t.due),
            epoch_ns(s + 0.5),
        );
        builder.push(
            "server.exec",
            Some(job),
            track,
            epoch_ns(s + 0.5),
            epoch_ns(d + 0.5),
        );
    }
    let spans: Vec<SpanRecord> = builder.finish();
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    report.layer(
        "geom.deploy_ms",
        med(spans::durations_ms(&spans, "geom.deploy")),
    );
    report.layer(
        "core.scenario_ms",
        med(spans::durations_ms(&spans, "core.scenario")),
    );
    report.layer(
        "core.spec_parse_us",
        1e3 * med(spans::durations_ms(&spans, "core.spec_parse")),
    );
    let waits: Vec<f64> = split.iter().map(|s| s.1).collect();
    let execs: Vec<f64> = split.iter().map(|s| s.2).collect();
    report.layer("server.queue_wait_ms_p50", med(waits.clone()));
    report.layer(
        "server.queue_wait_ms_p95",
        stats::tail(&waits, 95.0).unwrap_or(0.0),
    );
    report.layer("server.exec_ms_p50", med(execs.clone()));
    report.layer(
        "server.exec_ms_p95",
        stats::tail(&execs, 95.0).unwrap_or(0.0),
    );
    let queue = phase.server.queue();
    let kib: Vec<f64> = split
        .iter()
        .map(|&(i, _, _)| dir_bytes(&queue.job_dir(&phase.jobs[i].spec.id)) as f64 / 1024.0)
        .collect();
    report.layer("server.artifact_kib", stats::mean(&kib));
    let late: Vec<f64> = phase.timings.iter().map(OpenLoopTiming::late_ms).collect();
    report.layer(
        "loadgen.late_ms_p95",
        stats::percentile(&late, 95.0).unwrap_or(0.0),
    );
    report.layer(
        "trace.overhead",
        plain.user_cpu_ms_per_op() / phase.user_cpu_ms_per_op(),
    );
    report.spans = spans;
}

/// One calibration step's result.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, jobs/s.
    pub rate: f64,
    /// Jobs scheduled.
    pub jobs: usize,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 95th percentile latency, ms (interpolated; see `jobs`).
    pub p95_ms: f64,
    /// Failed or never finished.
    pub failed: usize,
    /// Median latency of the last third of jobs over that of the first
    /// third: well above 1 means the backlog grew.
    pub backlog_growth: f64,
}

/// Whether a step meets the latency limit without a growing backlog.
#[must_use]
pub fn step_ok(s: &Step, limit_ms: f64) -> bool {
    s.failed == 0 && s.p95_ms <= limit_ms && s.backlog_growth <= 1.5
}

/// Steps the arrival rate and reports the highest rate that meets the
/// latency limit (on p95) without a growing backlog.
///
/// # Errors
///
/// The server could not be started.
pub fn calibrate(
    work: &Path,
    seed: u64,
    seconds: f64,
    limit_ms: f64,
    rates: &[f64],
) -> Result<Vec<Step>, String> {
    let mut steps = Vec::new();
    for &rate in rates {
        let phase = open_loop(&queue_root(work, "cal"), schedule(seed, rate, seconds))?;
        let lat: Vec<f64> = phase.latencies_ms();
        let third = phase.timings.len() / 3;
        let part = |r: std::ops::Range<usize>| -> f64 {
            let v: Vec<f64> = phase.timings[r]
                .iter()
                .filter_map(OpenLoopTiming::latency_ms)
                .collect();
            stats::median(&v).unwrap_or(f64::INFINITY)
        };
        let (_, failed, _) = tally(&phase, limit_ms);
        let step = Step {
            rate,
            jobs: phase.jobs.len(),
            p50_ms: stats::median(&lat).unwrap_or(f64::INFINITY),
            p95_ms: stats::percentile(&lat, 95.0).unwrap_or(f64::INFINITY),
            failed,
            backlog_growth: part(phase.timings.len() - third..phase.timings.len())
                / part(0..third.max(1)),
        };
        let _ = std::fs::remove_dir_all(&phase.root);
        eprintln!(
            "calibrate: rate {:>6.1}/s jobs {:>5} p50 {:>8.2} ms p95 {:>8.2} ms failed {} backlog x{:.2} -> {}",
            step.rate,
            step.jobs,
            step.p50_ms,
            step.p95_ms,
            step.failed,
            step.backlog_growth,
            if step_ok(&step, limit_ms) { "ok" } else { "over" }
        );
        let over = !step_ok(&step, limit_ms);
        steps.push(step);
        if over {
            break;
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_mixes_every_kind() {
        let a = schedule(3, 100.0, 60.0);
        let b = schedule(3, 100.0, 60.0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.spec == y.spec && x.due == y.due));
        let ids: Vec<&str> = a.iter().map(|j| j.spec.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(
            ids, sorted,
            "claim order (lexicographic) must be submit order"
        );
        let stragglers = a.iter().filter(|j| j.spec.n == STRAGGLER_N).count();
        assert_eq!(stragglers, a.len() / STRAGGLER_EVERY, "{stragglers}");
        assert!(a.iter().any(|j| j.spec.telemetry));
        for label in ["sinr", "rayleigh", "lossy-sinr", "radio"] {
            assert!(a.iter().any(|j| j.spec.channel.label() == label), "{label}");
        }
        for label in ["fkn", "decay", "aloha"] {
            assert!(
                a.iter().any(|j| j.spec.protocol.label() == label),
                "{label}"
            );
        }
        for j in &a {
            assert!(j.spec.validate().is_ok(), "{}", j.spec.id);
            assert_eq!(JobSpec::from_json(&j.spec.to_json()).unwrap(), j.spec);
        }
    }

    #[test]
    fn job_ids_round_trip() {
        assert_eq!(job_seq(&job_id(42)), Some(42));
        assert_eq!(job_seq("other"), None);
    }

    #[test]
    fn calibration_rule_rejects_slow_or_growing_steps() {
        let good = Step {
            rate: 50.0,
            jobs: 500,
            p50_ms: 10.0,
            p95_ms: 40.0,
            failed: 0,
            backlog_growth: 1.1,
        };
        assert!(step_ok(&good, 100.0));
        assert!(!step_ok(
            &Step {
                p95_ms: 120.0,
                ..good
            },
            100.0
        ));
        assert!(!step_ok(
            &Step {
                backlog_growth: 3.0,
                ..good
            },
            100.0
        ));
        assert!(!step_ok(&Step { failed: 1, ..good }, 100.0));
    }
}
