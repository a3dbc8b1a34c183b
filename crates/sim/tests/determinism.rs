//! Determinism harness: the engine tier must be invisible to results.
//!
//! [`montecarlo::run_trials`] batches over seeded simulations; this suite
//! asserts the batch output is **byte-identical** (full [`RunResult`]
//! equality, traces included) regardless of (a) whether the simulation
//! resolves rounds through the exact scan or the far-field engine and (b)
//! how many worker threads run the batch — the decision-exactness
//! contract and the seed-ordered fan-out contract, checked end to end.

use fading_channel::{
    Channel, LossySinrChannel, RayleighSinrChannel, Reception, SinrChannel, SinrParams,
};
use fading_geom::{Deployment, Point};
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading_sim::{montecarlo, Action, Protocol, RunResult, Simulation, TraceLevel};
use rand::rngs::SmallRng;
use rand::Rng;

/// Transmits with fixed probability; knocked out on any reception.
#[derive(Debug)]
struct Knockout {
    p: f64,
    active: bool,
}

impl Protocol for Knockout {
    fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action {
        if rng.gen_bool(self.p) {
            Action::Transmit
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, _round: u64, reception: &Reception) {
        if reception.is_message() {
            self.active = false;
        }
    }
    fn is_active(&self) -> bool {
        self.active
    }
    fn name(&self) -> &'static str {
        "test-knockout"
    }
}

/// Runs one full trial batch: `trials` seeded runs of a 24-node knockout
/// protocol on the channel built by `make_channel`, with the far-field
/// tier forced on or off (its engine is built on the first round it
/// serves) and the stress fault plan optionally attached.
fn run_batch<F>(
    make_channel: &F,
    farfield: bool,
    threads: usize,
    trials: usize,
    faulted: bool,
) -> Vec<RunResult>
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    montecarlo::run_trials(trials, threads, 1000, move |seed| {
        let deployment = Deployment::uniform_square(24, 15.0, seed);
        let mut sim = Simulation::new(deployment, make_channel(), seed, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        if faulted {
            sim.set_fault_plan(stress_plan()).expect("plan fits deployment");
        }
        sim.set_farfield_enabled(farfield);
        sim.set_trace_level(TraceLevel::Full);
        sim.run_until_resolved(20_000)
    })
}

/// The cross-product check for one channel: tier {exact, far-field} ×
/// threads {1, 8} must all produce the same `Vec<RunResult>`, with or
/// without fault injection (jamming, churn, noise bursts, and burst loss
/// must all preserve byte-determinism).
fn assert_tier_and_threads_invariant<F>(make_channel: F, faulted: bool)
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    let trials = 12;
    let reference = run_batch(&make_channel, false, 1, trials, faulted);
    assert!(
        reference.iter().any(|r| r.resolved()),
        "batch (faulted={faulted}) never resolved; too hard to be a useful oracle"
    );
    for &farfield in &[true, false] {
        for &threads in &[1usize, 8] {
            let got = run_batch(&make_channel, farfield, threads, trials, faulted);
            assert_eq!(
                got, reference,
                "results diverged at farfield={farfield}, threads={threads}, faulted={faulted}"
            );
        }
    }
}

fn params() -> SinrParams {
    SinrParams::default_single_hop()
}

#[test]
fn sinr_results_invariant_under_tier_and_thread_count() {
    assert_tier_and_threads_invariant(|| Box::new(SinrChannel::new(params())), false);
}

#[test]
fn rayleigh_results_invariant_under_tier_and_thread_count() {
    assert_tier_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())), false);
}

#[test]
fn lossy_results_invariant_under_tier_and_thread_count() {
    assert_tier_and_threads_invariant(
        || Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob")),
        false,
    );
}

/// A representative kitchen-sink fault plan: duty-cycled budgeted jamming,
/// a noise burst, all three churn kinds, and Gilbert–Elliott burst loss.
fn stress_plan() -> FaultPlan {
    let power = SinrParams::default_single_hop().power() * 10.0;
    FaultPlan::new()
        .with_jammer(Jammer::new(Point::new(7.5, 7.5), power, 2, 6, 3, Some(60)).expect("valid"))
        .with_jammer(Jammer::continuous(Point::new(1.0, 14.0), power / 4.0, 10).expect("valid"))
        .with_noise_burst(NoiseBurst::new(5, 15, 4.0).expect("valid"))
        .with_churn(ChurnEvent::late_wake(4, 3).expect("valid"))
        .with_churn(ChurnEvent::crash(6, 0).expect("valid"))
        .with_churn(ChurnEvent::revive(12, 0).expect("valid"))
        .with_loss(GilbertElliott::new(0.15, 0.3, 0.02, 0.7).expect("valid"))
}

#[test]
fn faulted_sinr_results_invariant_under_tier_and_thread_count() {
    assert_tier_and_threads_invariant(|| Box::new(SinrChannel::new(params())), true);
}

#[test]
fn faulted_rayleigh_results_invariant_under_tier_and_thread_count() {
    assert_tier_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())), true);
}

#[test]
fn faulted_lossy_results_invariant_under_tier_and_thread_count() {
    assert_tier_and_threads_invariant(
        || Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob")),
        true,
    );
}

#[test]
fn attaching_a_fault_plan_does_not_disturb_unfaulted_streams() {
    // A plan with no loss model must leave the channel and node RNG
    // streams untouched: the empty-plan run and the no-plan run are
    // byte-identical (the dedicated fault RNG lane is never drawn from).
    let run = |attach_empty: bool| {
        let deployment = Deployment::uniform_square(24, 15.0, 3);
        let mut sim = Simulation::new(
            deployment,
            Box::new(RayleighSinrChannel::new(params())),
            3,
            |_| {
                Box::new(Knockout {
                    p: 0.25,
                    active: true,
                })
            },
        );
        if attach_empty {
            sim.set_fault_plan(FaultPlan::new()).expect("empty plan");
        }
        sim.set_trace_level(TraceLevel::Full);
        sim.run_until_resolved(20_000)
    };
    assert_eq!(run(false), run(true));
}

/// The engine-tier cross-product: farfield {on, off} × threads {1, 8} ×
/// fault plan {none, stress} must all produce byte-identical results —
/// the end-to-end restatement of the decision-exactness contract, with
/// knockout churn keeping the tile occupancy maintenance honest.
fn assert_farfield_and_threads_invariant<F>(make_channel: F)
where
    F: Fn() -> Box<dyn Channel> + Sync,
{
    for faulted in [false, true] {
        assert_tier_and_threads_invariant(&make_channel, faulted);
    }
}

#[test]
fn sinr_results_invariant_under_farfield_and_thread_count() {
    assert_farfield_and_threads_invariant(|| Box::new(SinrChannel::new(params())));
}

#[test]
fn rayleigh_results_invariant_under_farfield_and_thread_count() {
    // Rayleigh builds no engine (per-pair fading draws pin the rng
    // schedule); enabling the tier must be a clean no-op.
    assert_farfield_and_threads_invariant(|| Box::new(RayleighSinrChannel::new(params())));
}

#[test]
fn lossy_results_invariant_under_farfield_and_thread_count() {
    assert_farfield_and_threads_invariant(|| {
        Box::new(LossySinrChannel::new(params(), 0.2).expect("valid drop_prob"))
    });
}

fn knockout_sim(deploy_seed: u64, seed: u64) -> Simulation {
    let deployment = Deployment::uniform_square(24, 15.0, deploy_seed);
    let channel = SinrChannel::new(params());
    let mut sim = Simulation::new(deployment, Box::new(channel), seed, |_| {
        Box::new(Knockout {
            p: 0.25,
            active: true,
        })
    });
    sim.set_trace_level(TraceLevel::Full);
    sim
}

/// The far-field engine is built on the first round its tier serves, over
/// the knockouts applied so far — enabling it mid-run builds nothing, and
/// the run stays byte-identical to the exact one.
#[test]
fn farfield_engine_is_built_on_the_first_round_it_serves() {
    let exact = knockout_sim(3, 17).run_until_resolved(20_000);
    assert!(
        exact.resolved_at() > Some(2),
        "the seed must outlast the probe"
    );

    let mut sim = knockout_sim(3, 17);
    assert!(!sim.farfield_active(), "the exact tier serves at n = 24");
    sim.step();
    assert!(
        sim.num_active() < sim.len(),
        "round 1 must knock someone out"
    );
    assert!(
        sim.farfield_engine().is_none(),
        "no engine until its tier serves"
    );
    sim.set_farfield_enabled(true);
    assert!(sim.farfield_engine().is_none(), "enabling builds nothing");
    assert!(!sim.farfield_active());

    sim.step();
    assert!(sim.farfield_active());
    assert_eq!(
        sim.farfield_engine().map(|e| e.num_active()),
        Some(sim.num_active()),
        "the build replays earlier knockouts; later ones are mirrored"
    );
    assert_eq!(sim.farfield_stats().map(|s| s.rounds), Some(1));
    assert_eq!(sim.run_until_resolved(20_000), exact);

    sim.set_farfield_enabled(false);
    assert!(!sim.farfield_active());
    assert!(sim.farfield_engine().is_some(), "disabling keeps it built");
}

#[test]
fn farfield_occupancy_shrinks_as_nodes_knock_out() {
    let mut sim = knockout_sim(3, 17);
    sim.set_farfield_enabled(true);
    sim.set_trace_level(TraceLevel::Counts);

    let result = sim.run_until_resolved(20_000);
    assert!(result.resolved());
    assert!(sim.num_active() < sim.len(), "someone must knock out");

    let engine = sim.farfield_engine().expect("engine stays built");
    assert_eq!(
        engine.num_active(),
        sim.num_active(),
        "tile occupancy must track the simulation's live-node count"
    );
    let per_tile_sum: usize = (0..engine.tiles().num_tiles())
        .map(|t| engine.active_in_tile(t))
        .sum();
    assert_eq!(per_tile_sum, engine.num_active());
    let stats = sim.farfield_stats().expect("engine stays built");
    assert!(stats.rounds > 0, "the engine should have served rounds");
    let listeners_served: u64 = result
        .trace()
        .rounds()
        .iter()
        .map(|r| (r.active_before - r.transmitters) as u64)
        .sum();
    assert_eq!(
        stats.listeners_resolved(),
        listeners_served,
        "every listener decision lands in exactly one stats bucket"
    );
    assert_eq!(
        stats.fast_decisions() + stats.noise_floor_silences + stats.exact_fallbacks(),
        stats.listeners_resolved(),
        "rung counters must reconcile with listeners resolved"
    );
}

#[test]
fn radio_channel_has_no_engine_but_runs_identically() {
    use fading_channel::RadioChannel;
    let run = |farfield: bool| {
        let deployment = Deployment::uniform_square(12, 10.0, 5);
        let mut sim = Simulation::new(deployment, Box::new(RadioChannel::new()), 5, |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        });
        sim.set_farfield_enabled(farfield);
        sim.set_trace_level(TraceLevel::Full);
        let result = sim.run_until_resolved(20_000);
        assert!(sim.farfield_engine().is_none(), "radio builds no engine");
        assert_eq!(sim.engine_counters().exact_rounds, sim.round());
        result
    };
    assert_eq!(run(true), run(false));
}
