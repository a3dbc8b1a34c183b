//! `telemetry_overhead_n2048`: guards the zero-cost-when-disabled contract
//! of the telemetry layer.
//!
//! A `NoopSink` attached at counts detail must keep stepping within 5% of
//! an identical simulation with no sink at all (`n = 2048`, maximum
//! contention). This is a plain timing harness rather than a Criterion
//! bench so it can *assert* the contract: interleaved A/B reps, median of
//! the per-rep times, up to three attempts to ride out scheduler noise.
//! A `MemorySink` at counts detail is also timed, for information only.

use std::time::{Duration, Instant};

use fading_cr::prelude::*;
use fading_cr::sim::{MemorySink, NoopSink, TelemetryDetail};

const N: usize = 2048;
const ROUNDS: u64 = 48;
const REPS: usize = 11;
const TOLERANCE: f64 = 1.05;

fn build_sim() -> Simulation {
    let d = Deployment::uniform_density(N, 0.25, 7);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    Simulation::new(d, Box::new(SinrChannel::new(params)), 7, |_| {
        Box::new(Fkn::new())
    })
}

#[derive(Clone, Copy)]
enum Sink {
    None,
    Noop,
    Memory,
}

fn time_stepping(sink: Sink) -> Duration {
    let mut sim = build_sim();
    match sink {
        Sink::None => {}
        Sink::Noop => sim.set_telemetry_sink(Box::new(NoopSink)),
        Sink::Memory => {
            sim.set_telemetry_sink(Box::new(MemorySink::new(TelemetryDetail::counts())));
        }
    }
    let start = Instant::now();
    for _ in 0..ROUNDS {
        sim.step();
    }
    start.elapsed()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure() -> (Duration, Duration, Duration) {
    let mut base = Vec::with_capacity(REPS);
    let mut noop = Vec::with_capacity(REPS);
    let mut memory = Vec::with_capacity(REPS);
    // Warm-up: fault the resolve code paths and the allocator once.
    let _ = time_stepping(Sink::None);
    for _ in 0..REPS {
        base.push(time_stepping(Sink::None));
        noop.push(time_stepping(Sink::Noop));
        memory.push(time_stepping(Sink::Memory));
    }
    (median(base), median(noop), median(memory))
}

fn main() {
    let attempts = 3;
    let mut last = None;
    for attempt in 1..=attempts {
        let (base, noop, memory) = measure();
        let ratio = noop.as_secs_f64() / base.as_secs_f64();
        println!(
            "telemetry_overhead_n2048 attempt {attempt}: baseline {base:?}, \
             noop sink {noop:?} (x{ratio:.3}), memory sink {memory:?}"
        );
        if ratio <= TOLERANCE {
            println!("telemetry_overhead_n2048: PASS (no-op sink within 5% of baseline)");
            return;
        }
        last = Some(ratio);
    }
    panic!(
        "telemetry_overhead_n2048: no-op sink overhead x{:.3} exceeds the 5% budget \
         in {attempts} attempts",
        last.unwrap()
    );
}
