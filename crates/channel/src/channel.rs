//! The sealed [`Channel`] trait.

use rand::rngs::SmallRng;

use fading_geom::Point;

use crate::{
    ChannelPerturbation, ChunkExecutor, FarFieldEngine, HierarchicalFarFieldEngine, NodeId,
    Reception, SinrBreakdown, SinrParams,
};

pub(crate) mod sealed {
    /// Prevents downstream implementations so the trait can evolve.
    pub trait Sealed {}
}

/// One round's inputs to [`Channel::resolve_round`]: the deployment, the
/// disjoint transmitter and listener sets, and the round's
/// [`ChannelPerturbation`] (always present;
/// [neutral](ChannelPerturbation::neutral) when no fault is active).
///
/// # Example
///
/// ```
/// use fading_channel::{ChannelPerturbation, Round};
/// use fading_geom::Point;
///
/// let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
/// let clean = Round::new(&pos, &[0], &[1]);
/// assert!(clean.perturbation.is_neutral());
///
/// let jam = [0.0, 3.0];
/// let jammed = Round { perturbation: ChannelPerturbation::new(1.0, &jam), ..clean };
/// assert!(jammed.perturbation.has_jamming());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Round<'a> {
    /// Node positions, indexed by [`NodeId`].
    pub positions: &'a [Point],
    /// The nodes transmitting this round.
    pub transmitters: &'a [NodeId],
    /// The nodes listening this round (disjoint from `transmitters`).
    pub listeners: &'a [NodeId],
    /// Noise scaling and jammer interference from a fault plan.
    pub perturbation: ChannelPerturbation<'a>,
}

impl<'a> Round<'a> {
    /// An unperturbed round.
    #[must_use]
    pub fn new(
        positions: &'a [Point],
        transmitters: &'a [NodeId],
        listeners: &'a [NodeId],
    ) -> Self {
        Round {
            positions,
            transmitters,
            listeners,
            perturbation: ChannelPerturbation::neutral(),
        }
    }
}

/// The resolve tier offered to [`Channel::resolve_round`]. Every tier makes
/// the same Equation 1 decision; the far-field engines only prune work whose
/// outcome is certain, so the receptions are bit-identical whichever tier
/// serves.
pub enum Engine<'a> {
    /// The canonical scan over every (listener, transmitter) pair.
    Exact,
    /// The flat tile-pair [`FarFieldEngine`].
    FarField(&'a mut FarFieldEngine),
    /// The tile-tree [`HierarchicalFarFieldEngine`], running its passes on
    /// the given executor.
    Hierarchical(&'a mut HierarchicalFarFieldEngine, &'a dyn ChunkExecutor),
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Exact => "Engine::Exact",
            Engine::FarField(_) => "Engine::FarField",
            Engine::Hierarchical(..) => "Engine::Hierarchical",
        })
    }
}

/// A synchronous-round wireless channel model.
///
/// Given the node positions, the set of transmitters, and the set of
/// listeners for one round, a channel decides what every listener observes.
/// All channels in this crate are memoryless across rounds; stochastic
/// channels (e.g. [`RayleighSinrChannel`](crate::RayleighSinrChannel)) draw
/// their per-round fading coefficients from the supplied `rng`, so a run is
/// reproducible given the rng seed.
///
/// This trait is **sealed**: it cannot be implemented outside this crate
/// (the model set is part of the reproduction's fidelity contract). It is
/// object-safe, so simulators can hold a `Box<dyn Channel>`.
pub trait Channel: sealed::Sealed + Send + Sync + std::fmt::Debug {
    /// Resolves one round: clears `out` and fills it with what each node in
    /// `round.listeners` observes, in listener order.
    ///
    /// `round.transmitters` and `round.listeners` must be disjoint index
    /// sets into `round.positions`; a node cannot transmit and listen in
    /// the same round (half-duplex, per the model section of the paper).
    ///
    /// Contract (every channel, every argument combination):
    ///
    /// * **Tier-exactness.** The receptions and the rng consumption depend
    ///   only on `round`, never on `engine`. A far-field engine built over
    ///   the same positions under this channel's
    ///   [`pruning_params`](Channel::pruning_params) only skips work whose
    ///   outcome is certain. An engine that does not
    ///   [match](FarFieldEngine::matches) the round, or any engine on a
    ///   channel without pruning parameters, falls back to the exact scan.
    /// * **Perturbation.** A [neutral](ChannelPerturbation::is_neutral)
    ///   perturbation is indistinguishable from none: the clean
    ///   denominator `N + I` is used verbatim. Otherwise SINR-family
    ///   channels multiply `N` by `noise_scale` and add `extra_at(v)` to
    ///   listener `v`'s denominator. Geometry-free channels (the radio
    ///   models) ignore `noise_scale` and blanket any jammed listener
    ///   (`extra_at(v) > 0`): [`Reception::Collision`] on
    ///   collision-detection channels, [`Reception::Silence`] otherwise.
    /// * **Instrumentation.** A `Some` breakdown is cleared, the engine is
    ///   ignored and the exact scan runs. SINR-family channels then push
    ///   one [`SinrBreakdown`] per listener, in order; the radio models
    ///   leave it empty. Each breakdown's `decoded` flag reflects the SINR
    ///   test **before** any post-SINR loss layer. Instrumentation only
    ///   observes: the receptions and rng state equal an uninstrumented
    ///   call's.
    ///
    /// The engine is `&mut` for its per-round scratch and decision
    /// counters; the receptions never depend on that mutable state.
    fn resolve_round(
        &self,
        round: &Round<'_>,
        engine: Engine<'_>,
        rng: &mut SmallRng,
        out: &mut Vec<Reception>,
        breakdown: Option<&mut Vec<SinrBreakdown>>,
    );

    /// Resolves one unperturbed round exactly and returns the receptions:
    /// shorthand for [`Channel::resolve_round`] with [`Engine::Exact`], a
    /// fresh output vector and no breakdown.
    fn resolve(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        rng: &mut SmallRng,
    ) -> Vec<Reception> {
        let mut out = Vec::with_capacity(listeners.len());
        let round = Round::new(positions, transmitters, listeners);
        self.resolve_round(&round, Engine::Exact, rng, &mut out, None);
        out
    }

    /// The received power at `to` of an external interferer (a jammer)
    /// transmitting from `from` with power `power`, under this channel's
    /// propagation model.
    ///
    /// SINR-family channels apply their path loss (`power / d^α`);
    /// geometry-free channels return `power` unchanged (any active jammer
    /// blankets every listener — the radio models have no notion of
    /// distance). Used by the simulator to precompute per-node jammer
    /// gains once per deployment.
    fn interferer_gain(&self, from: Point, to: Point, power: f64) -> f64 {
        let _ = (from, to);
        power
    }

    /// The parameters a far-field engine must be built with to serve this
    /// channel ([`FarFieldEngine::build`],
    /// [`HierarchicalFarFieldEngine::build`]), or `None` when the model
    /// cannot support the tier-exactness contract: the radio channels are
    /// geometry-free, and Rayleigh fading draws per-pair randomness in
    /// canonical order that pruning would desynchronize.
    fn pruning_params(&self) -> Option<&SinrParams> {
        None
    }

    /// Whether [`Channel::resolve_round`] consumes randomness from its `rng`.
    ///
    /// `true` (the conservative default) for stochastic channels — Rayleigh
    /// fading draws per-pair coefficients and the lossy channel draws
    /// per-reception drops — and overridden to `false` by the
    /// deterministic models (SINR and the radio channels). Consumers that
    /// re-resolve a **subset** of listeners to audit an engine's output
    /// (the simulator's opt-in self-check) must skip channels that draw:
    /// a partial re-resolve would consume a different amount of
    /// randomness and desynchronize the stream.
    fn resolve_draws_rng(&self) -> bool {
        true
    }

    /// A short stable name for reports and tables (e.g. `"sinr"`).
    fn name(&self) -> &'static str;

    /// Whether listeners on this channel can distinguish collisions from
    /// silence (true only for collision-detection channels).
    fn supports_collision_detection(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_trait_is_object_safe() {
        fn _takes_dyn(_c: &dyn Channel) {}
    }
}
