//! Classical radio network channels (the paper's non-fading comparators).

use rand::rngs::SmallRng;

use crate::channel::{sealed, Channel, Engine, Round};
use crate::{Reception, SinrBreakdown};

/// The radio models' one resolve: every listener observes `outcome`, except
/// jammed ones (`extra_at(v) > 0`), which observe `jammed`. A
/// geometry-free channel has no SINR denominator to perturb, so the noise
/// scale is ignored and any jammer blankets its listener; there is no
/// breakdown to report, and no engine to consult.
fn fill_radio(
    round: &Round<'_>,
    outcome: Reception,
    jammed: Reception,
    out: &mut Vec<Reception>,
    breakdown: Option<&mut Vec<SinrBreakdown>>,
) {
    if let Some(b) = breakdown {
        b.clear();
    }
    let pt = &round.perturbation;
    out.clear();
    out.extend(round.listeners.iter().map(|&v| {
        if pt.extra_at(v) > 0.0 {
            jammed
        } else {
            outcome
        }
    }));
}

/// The classical single-hop radio network model (Chlamtac–Kutten /
/// Bar-Yehuda–Goldreich–Itai): a listener receives a message iff **exactly
/// one** node transmits in the round; two or more concurrent transmissions
/// are lost at every receiver, indistinguishably from silence, and
/// transmitters learn nothing about the fate of their transmission.
///
/// On this channel high-probability contention resolution requires
/// `Θ(log² n)` rounds — the "speed limit" the paper's SINR algorithm beats.
///
/// # Example
///
/// ```
/// use fading_channel::{Channel, RadioChannel, Reception};
/// use fading_geom::Point;
/// use rand::SeedableRng;
///
/// let ch = RadioChannel::new();
/// let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// // One transmitter: everyone hears it.
/// assert_eq!(ch.resolve(&pos, &[0], &[1, 2], &mut rng),
///            vec![Reception::Message { from: 0 }; 2]);
/// // Two transmitters: collision looks like silence.
/// assert_eq!(ch.resolve(&pos, &[0, 1], &[2], &mut rng),
///            vec![Reception::Silence]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RadioChannel {
    _private: (),
}

impl RadioChannel {
    /// Creates a radio channel.
    #[must_use]
    pub fn new() -> Self {
        RadioChannel { _private: () }
    }
}

impl sealed::Sealed for RadioChannel {}

impl Channel for RadioChannel {
    fn resolve_round(
        &self,
        round: &Round<'_>,
        _engine: Engine<'_>,
        _rng: &mut SmallRng,
        out: &mut Vec<Reception>,
        breakdown: Option<&mut Vec<SinrBreakdown>>,
    ) {
        let outcome = match round.transmitters {
            &[from] => Reception::Message { from },
            _ => Reception::Silence,
        };
        fill_radio(round, outcome, Reception::Silence, out, breakdown);
    }

    fn resolve_draws_rng(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "radio"
    }
}

/// The radio network model with **receiver collision detection**: listeners
/// distinguish silence (no transmitter), a decoded message (one
/// transmitter), and a collision (two or more).
///
/// With this extra bit, contention resolution drops to `Θ(log n)` rounds
/// (Willard-style elimination) — the comparison point for the paper's claim
/// that fading buys the same `log n` without any collision detection.
///
/// # Example
///
/// ```
/// use fading_channel::{Channel, RadioCdChannel, Reception};
/// use fading_geom::Point;
/// use rand::SeedableRng;
///
/// let ch = RadioCdChannel::new();
/// let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// assert_eq!(ch.resolve(&pos, &[0, 1], &[2], &mut rng), vec![Reception::Collision]);
/// assert_eq!(ch.resolve(&pos, &[], &[2], &mut rng), vec![Reception::Silence]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RadioCdChannel {
    _private: (),
}

impl RadioCdChannel {
    /// Creates a collision-detection radio channel.
    #[must_use]
    pub fn new() -> Self {
        RadioCdChannel { _private: () }
    }
}

impl sealed::Sealed for RadioCdChannel {}

impl Channel for RadioCdChannel {
    fn resolve_round(
        &self,
        round: &Round<'_>,
        _engine: Engine<'_>,
        _rng: &mut SmallRng,
        out: &mut Vec<Reception>,
        breakdown: Option<&mut Vec<SinrBreakdown>>,
    ) {
        let outcome = match round.transmitters {
            [] => Reception::Silence,
            &[from] => Reception::Message { from },
            _ => Reception::Collision,
        };
        fill_radio(round, outcome, Reception::Collision, out, breakdown);
    }

    fn resolve_draws_rng(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "radio-cd"
    }

    fn supports_collision_detection(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_geom::Point;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    fn positions(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn radio_zero_transmitters_silence() {
        let ch = RadioChannel::new();
        let pos = positions(3);
        assert_eq!(
            ch.resolve(&pos, &[], &[0, 1, 2], &mut rng()),
            vec![Reception::Silence; 3]
        );
    }

    #[test]
    fn radio_single_transmitter_heard_by_all() {
        let ch = RadioChannel::new();
        let pos = positions(4);
        assert_eq!(
            ch.resolve(&pos, &[2], &[0, 1, 3], &mut rng()),
            vec![Reception::Message { from: 2 }; 3]
        );
    }

    #[test]
    fn radio_collision_is_indistinguishable_from_silence() {
        let ch = RadioChannel::new();
        let pos = positions(5);
        let rx = ch.resolve(&pos, &[0, 1, 2], &[3, 4], &mut rng());
        assert_eq!(rx, vec![Reception::Silence; 2]);
        assert!(!ch.supports_collision_detection());
    }

    #[test]
    fn radio_ignores_geometry() {
        // Distance plays no role: a single transmitter is heard at any range.
        let ch = RadioChannel::new();
        let pos = vec![Point::ORIGIN, Point::new(1e9, 1e9)];
        assert_eq!(
            ch.resolve(&pos, &[0], &[1], &mut rng()),
            vec![Reception::Message { from: 0 }]
        );
    }

    #[test]
    fn cd_distinguishes_all_three_outcomes() {
        let ch = RadioCdChannel::new();
        let pos = positions(4);
        assert_eq!(
            ch.resolve(&pos, &[], &[3], &mut rng()),
            vec![Reception::Silence]
        );
        assert_eq!(
            ch.resolve(&pos, &[1], &[3], &mut rng()),
            vec![Reception::Message { from: 1 }]
        );
        assert_eq!(
            ch.resolve(&pos, &[0, 1], &[3], &mut rng()),
            vec![Reception::Collision]
        );
        assert!(ch.supports_collision_detection());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RadioChannel::new().name(), "radio");
        assert_eq!(RadioCdChannel::new().name(), "radio-cd");
    }
}
