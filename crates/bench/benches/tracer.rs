//! `tracer_overhead_n2048`: guards the zero-cost-when-disabled contract
//! of the span tracer.
//!
//! A *disabled* tracer attached to the simulation must keep stepping
//! within 2% of an identical simulation with no tracer at all
//! (`n = 2048`, maximum contention) — the disabled fast path is one
//! relaxed atomic load per would-be span and no allocation. This is a
//! plain timing harness rather than a Criterion bench so it can *assert*
//! the contract: interleaved A/B reps, median of the per-rep times, up to
//! three attempts to ride out scheduler noise. An *enabled* tracer is
//! also timed, for information only (its cost is the price of real span
//! recording, not a regression).
//!
//! `--quick` (used by CI) drops to fewer reps and rounds so the assert
//! still runs everywhere without dominating the job.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fading_cr::prelude::*;
use fading_cr::sim::Tracer;

const N: usize = 2048;
const TOLERANCE: f64 = 1.02;

fn build_sim() -> Simulation {
    let d = Deployment::uniform_density(N, 0.25, 7);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    Simulation::new(d, Box::new(SinrChannel::new(params)), 7, |_| {
        Box::new(Fkn::new())
    })
}

#[derive(Clone, Copy)]
enum Mode {
    None,
    Disabled,
    Enabled,
}

fn time_stepping(mode: Mode, rounds: u64) -> Duration {
    let mut sim = build_sim();
    match mode {
        Mode::None => {}
        Mode::Disabled => sim.set_tracer(Tracer::disabled()),
        Mode::Enabled => sim.set_tracer(Tracer::new()),
    }
    let start = Instant::now();
    for _ in 0..rounds {
        sim.step();
    }
    start.elapsed()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure(reps: usize, rounds: u64) -> (Duration, Duration, Duration) {
    let mut base = Vec::with_capacity(reps);
    let mut disabled = Vec::with_capacity(reps);
    let mut enabled = Vec::with_capacity(reps);
    // Warm-up: fault the resolve code paths and the allocator once.
    let _ = time_stepping(Mode::None, rounds);
    for _ in 0..reps {
        base.push(time_stepping(Mode::None, rounds));
        disabled.push(time_stepping(Mode::Disabled, rounds));
        enabled.push(time_stepping(Mode::Enabled, rounds));
    }
    (median(base), median(disabled), median(enabled))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (reps, rounds) = if quick { (5, 24) } else { (11, 48) };
    // Sanity-check that an enabled tracer actually records while stepping.
    {
        let mut sim = build_sim();
        let tracer = Tracer::new();
        sim.set_tracer(Arc::clone(&tracer));
        sim.step();
        assert!(
            tracer.finished_spans().iter().any(|s| s.name == "step"),
            "enabled tracer recorded no step span"
        );
    }
    let attempts = 3;
    let mut last = None;
    for attempt in 1..=attempts {
        let (base, disabled, enabled) = measure(reps, rounds);
        let ratio = disabled.as_secs_f64() / base.as_secs_f64();
        let enabled_ratio = enabled.as_secs_f64() / base.as_secs_f64();
        println!(
            "tracer_overhead_n2048 attempt {attempt}: baseline {base:?}, \
             disabled tracer {disabled:?} (x{ratio:.3}), \
             enabled tracer {enabled:?} (x{enabled_ratio:.3})"
        );
        if ratio <= TOLERANCE {
            println!("tracer_overhead_n2048: PASS (disabled tracer within 2% of baseline)");
            return;
        }
        last = Some(ratio);
    }
    panic!(
        "tracer_overhead_n2048: disabled-tracer overhead x{:.3} exceeds the 2% budget \
         in {attempts} attempts",
        last.unwrap()
    );
}
