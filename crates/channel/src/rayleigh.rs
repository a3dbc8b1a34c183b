//! Stochastic (Rayleigh) fading extension of the SINR channel.

use rand::rngs::SmallRng;
use rand::Rng;

use fading_geom::Point;

use crate::channel::{sealed, Channel, Engine, Round};
use crate::kernels::{gain_batch, ScanScratch};
use crate::sinr::pow_alpha;
use crate::{NodeId, Reception, SinrBreakdown, SinrParams};

/// A SINR channel with Rayleigh fading: every transmitter–listener power
/// gain is multiplied by an independent `Exp(1)` coefficient, redrawn each
/// round.
///
/// The PODC'16 paper analyzes the deterministic geometric-path-loss model;
/// stochastic fading is the natural "future work" robustness check (the
/// algorithm itself is oblivious to the channel). Expected gains equal the
/// deterministic model's, so the deterministic channel is recovered in the
/// mean; individual rounds, however, can deliver lucky captures or unlucky
/// deep fades.
///
/// Randomness comes from the `rng` passed to [`Channel::resolve`], so runs
/// remain reproducible under a fixed seed.
///
/// # Example
///
/// ```
/// use fading_channel::{Channel, RayleighSinrChannel, SinrParams};
/// use fading_geom::Point;
/// use rand::SeedableRng;
///
/// let ch = RayleighSinrChannel::new(SinrParams::default_single_hop());
/// let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let rx = ch.resolve(&pos, &[0], &[1], &mut rng);
/// assert_eq!(rx.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RayleighSinrChannel {
    params: SinrParams,
}

impl RayleighSinrChannel {
    /// Creates a Rayleigh-fading SINR channel.
    #[must_use]
    pub fn new(params: SinrParams) -> Self {
        RayleighSinrChannel { params }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &SinrParams {
        &self.params
    }
}

/// Draws an `Exp(1)` variate (the power gain of a Rayleigh amplitude).
fn exp1(rng: &mut SmallRng) -> f64 {
    // Inverse CDF; guard the log away from 0.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln()
}

impl sealed::Sealed for RayleighSinrChannel {}

impl Channel for RayleighSinrChannel {
    /// The Rayleigh counterpart of the SINR exact scan, with one `Exp(1)`
    /// fade drawn per (listener, transmitter) pair in loop order. Because
    /// the fade draws happen in the exact same sequence whatever the
    /// perturbation, engine or breakdown, every call consumes the rng
    /// identically. Pruning would skip draws, so every engine falls back
    /// to this scan.
    fn resolve_round(
        &self,
        round: &Round<'_>,
        _engine: Engine<'_>,
        rng: &mut SmallRng,
        out: &mut Vec<Reception>,
        mut breakdown: Option<&mut Vec<SinrBreakdown>>,
    ) {
        let Round {
            positions,
            transmitters,
            listeners,
            ..
        } = *round;
        out.clear();
        if let Some(b) = breakdown.as_deref_mut() {
            b.clear();
        }
        // A neutral perturbation routes to the clean denominator grouping.
        let perturbation = Some(&round.perturbation).filter(|pt| !pt.is_neutral());
        let p = self.params.power();
        let alpha = self.params.alpha();
        let beta = self.params.beta();
        let noise = match perturbation {
            Some(pt) => self.params.noise() * pt.noise_scale(),
            None => self.params.noise(),
        };
        // Gather transmitter coordinates once and batch the deterministic
        // gains per listener. The fades are still drawn one per pair inside
        // the fold below — same order and count as the scalar loop — so the
        // rng stream (and thus every result) is unchanged by the batching.
        let mut scratch = ScanScratch::new();
        scratch.gather(positions, transmitters);
        for &v in listeners {
            let vp = positions[v];
            scratch.gains.resize(transmitters.len(), 0.0);
            gain_batch(p, alpha, &scratch.xs, &scratch.ys, vp.x, vp.y, &mut scratch.gains);
            let mut total = 0.0;
            let mut best_sig = 0.0;
            let mut best_tx: Option<NodeId> = None;
            for (i, &u) in transmitters.iter().enumerate() {
                debug_assert_ne!(u, v, "a node cannot transmit and listen simultaneously");
                let fade = exp1(rng);
                // Grouped as fade × (P/d^α), the deterministic factor being
                // exactly the scalar `P / pow_alpha(d², α)` (the batched
                // kernel computes it bit-identically). Jammer power stays
                // deterministic (no fading on jammer links): the adversary
                // transmits wideband interference, not a decodable signal.
                let sig = fade * scratch.gains[i];
                total += sig;
                if sig > best_sig {
                    best_sig = sig;
                    best_tx = Some(u);
                }
            }
            // The jammer term is looked up once per listener and feeds both
            // the denominator and the breakdown.
            let extra = perturbation.map(|pt| pt.extra_at(v));
            let denom = match extra {
                Some(e) => noise + e + (total - best_sig),
                None => noise + (total - best_sig),
            };
            let reception = match best_tx {
                Some(u) if best_sig >= beta * denom => Reception::Message { from: u },
                _ => Reception::Silence,
            };
            if let Some(b) = breakdown.as_deref_mut() {
                b.push(SinrBreakdown {
                    listener: v,
                    best_tx,
                    signal: best_sig,
                    interference: total - best_sig,
                    noise,
                    extra: extra.unwrap_or(0.0),
                    margin: best_sig - beta * denom,
                    decoded: reception.is_message(),
                });
            }
            out.push(reception);
        }
    }

    fn interferer_gain(&self, from: Point, to: Point, power: f64) -> f64 {
        power / pow_alpha(from.distance_sq(to), self.params.alpha())
    }

    // No `pruning_params` override: this channel draws one fade per
    // (listener, transmitter) pair in canonical order, so skipping any
    // pair would desynchronize the rng stream — pruning cannot be
    // decision-exact here. The trait default (no engine, wholesale
    // fallback) is the correct behavior, not an omission.

    fn name(&self) -> &'static str {
        "rayleigh-sinr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> SinrParams {
        SinrParams::builder()
            .power(16.0)
            .alpha(3.0)
            .beta(2.0)
            .noise(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn reproducible_under_fixed_seed() {
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let a = ch.resolve(&pos, &[0, 2], &[1], &mut SmallRng::seed_from_u64(5));
        let b = ch.resolve(&pos, &[0, 2], &[1], &mut SmallRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn strong_solo_link_usually_decodes() {
        // d = 1, signal mean 16, threshold beta*(noise) = 2. The fade must
        // be below 1/8 to fail: probability 1 - e^{-1/8} ≈ 0.118.
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let mut rng = SmallRng::seed_from_u64(42);
        let mut received = 0;
        let trials = 2_000;
        for _ in 0..trials {
            if ch.resolve(&pos, &[0], &[1], &mut rng)[0].is_message() {
                received += 1;
            }
        }
        let rate = f64::from(received) / f64::from(trials);
        assert!(
            (rate - (-0.125f64).exp()).abs() < 0.03,
            "observed decode rate {rate}"
        );
    }

    #[test]
    fn deep_fade_can_block_a_strong_link() {
        // Over many trials at least one failure must occur for a link whose
        // deterministic SINR would always pass.
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let mut rng = SmallRng::seed_from_u64(9);
        let mut failures = 0;
        for _ in 0..500 {
            if !ch.resolve(&pos, &[0], &[1], &mut rng)[0].is_message() {
                failures += 1;
            }
        }
        assert!(failures > 0, "Rayleigh fading never produced a deep fade");
    }

    #[test]
    fn no_transmitters_is_silence() {
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let rx = ch.resolve(&pos, &[], &[0, 1], &mut SmallRng::seed_from_u64(0));
        assert_eq!(rx, vec![Reception::Silence; 2]);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RayleighSinrChannel::new(params()).name(), "rayleigh-sinr");
    }
}
