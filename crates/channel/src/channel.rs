//! The sealed [`Channel`] trait.

use rand::rngs::SmallRng;

use fading_geom::Point;

use crate::{
    ChannelPerturbation, ChunkExecutor, FarFieldEngine, HierarchicalFarFieldEngine, NodeId,
    Reception, SinrBreakdown,
};

pub(crate) mod sealed {
    /// Prevents downstream implementations so the trait can evolve.
    pub trait Sealed {}
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
    /// Resolves one round: returns what each node in `listeners` observes
    /// (in the same order as `listeners`).
    ///
    /// `transmitters` and `listeners` must be disjoint index sets into
    /// `positions`; a node cannot transmit and listen in the same round
    /// (half-duplex, per the model section of the paper).
    fn resolve(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        rng: &mut SmallRng,
    ) -> Vec<Reception>;

    /// Like [`Channel::resolve`], additionally applying a per-round
    /// [`ChannelPerturbation`] (noise scaling and jammer interference from
    /// a fault plan).
    ///
    /// Contract:
    ///
    /// * A [neutral](ChannelPerturbation::is_neutral) perturbation **must**
    ///   produce results bit-identical to [`Channel::resolve`]
    ///   (and consume the rng identically) — every implementation falls
    ///   back outright, so an empty fault plan is invisible.
    /// * SINR-family channels add `extra_at(v)` to listener `v`'s
    ///   interference sum and multiply the ambient noise by `noise_scale`.
    /// * Geometry-free channels (the radio models) have no SINR denominator
    ///   to perturb; this default implementation ignores `noise_scale` and
    ///   treats any jammed listener (`extra_at(v) > 0`) as blanketed:
    ///   [`Reception::Collision`] on collision-detection channels (energy
    ///   with no decodable message), [`Reception::Silence`] otherwise.
    fn resolve_perturbed(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: &ChannelPerturbation<'_>,
        rng: &mut SmallRng,
    ) -> Vec<Reception> {
        let mut out = self.resolve(positions, transmitters, listeners, rng);
        if perturbation.has_jamming() {
            let jammed = if self.supports_collision_detection() {
                Reception::Collision
            } else {
                Reception::Silence
            };
            for (slot, &v) in out.iter_mut().zip(listeners) {
                if perturbation.extra_at(v) > 0.0 {
                    *slot = jammed;
                }
            }
        }
        out
    }

    /// Like [`Channel::resolve_perturbed`], additionally reporting one
    /// [`SinrBreakdown`] per listener (in listener order) into `breakdown`
    /// for channels with an SINR decomposition to report.
    ///
    /// Contract:
    ///
    /// * The returned `Reception` vector is **bit-identical** to what
    ///   [`Channel::resolve_perturbed`] returns for the same arguments, and
    ///   the rng is consumed identically — instrumentation observes, it
    ///   never perturbs. (With a neutral perturbation this transitively
    ///   equals [`Channel::resolve`].)
    /// * `breakdown` is cleared first. SINR-family channels then push
    ///   exactly `listeners.len()` entries, one per listener in order;
    ///   geometry-free channels (the radio models) leave it empty — they
    ///   have no SINR to decompose, which is this default implementation.
    /// * Each breakdown's `decoded` flag reflects the SINR test **before**
    ///   any post-SINR loss layer (see [`SinrBreakdown`]).
    fn resolve_instrumented(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: &ChannelPerturbation<'_>,
        rng: &mut SmallRng,
        breakdown: &mut Vec<SinrBreakdown>,
    ) -> Vec<Reception> {
        breakdown.clear();
        self.resolve_perturbed(positions, transmitters, listeners, perturbation, rng)
    }

    /// Like [`Channel::resolve_perturbed`], optionally consulting a
    /// [`FarFieldEngine`] for tile-aggregated interference pruning.
    ///
    /// The contract is **decision-exactness**: for any channel,
    /// `resolve_farfield` with an engine built by
    /// [`Channel::build_farfield_engine`] over the same `positions` returns a `Reception` vector **bit-identical** to
    /// [`Channel::resolve_perturbed`] (and consumes the `rng` identically —
    /// the engine is only ever offered to channels whose resolve draws no
    /// randomness). Passing `None`, an engine that does not
    /// [match](FarFieldEngine::matches) `positions`, or calling on a
    /// channel without a pruned path falls back to `resolve_perturbed`
    /// outright — which is this default implementation.
    ///
    /// The engine is `&mut` for its per-round scratch and decision
    /// counters; the receptions never depend on that mutable state.
    fn resolve_farfield(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        engine: Option<&mut FarFieldEngine>,
        perturbation: &ChannelPerturbation<'_>,
        rng: &mut SmallRng,
    ) -> Vec<Reception> {
        let _ = engine;
        self.resolve_perturbed(positions, transmitters, listeners, perturbation, rng)
    }

    /// Like [`Channel::resolve_farfield`], optionally consulting a
    /// [`HierarchicalFarFieldEngine`] — the tile-tree engine that serves
    /// deployments beyond the flat engine's tile-count cap — and running
    /// listener chunks on `executor`.
    ///
    /// The contract is the same **decision-exactness** guarantee as
    /// [`Channel::resolve_farfield`]: with an engine built by
    /// [`Channel::build_hierarchical_engine`] over the same `positions`,
    /// the `Reception` vector is **bit-identical** to
    /// [`Channel::resolve_perturbed`] (and the rng is consumed
    /// identically), *for any executor* — chunk boundaries are fixed and
    /// outputs merge in chunk order, so scheduling cannot reach the
    /// results. Passing `None`, a non-[matching](HierarchicalFarFieldEngine::matches)
    /// engine, or calling on a channel without a pruned path falls back to
    /// `resolve_perturbed` outright — which is this default implementation.
    #[allow(clippy::too_many_arguments)] // mirrors resolve_farfield + the executor
    fn resolve_hierarchical(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        engine: Option<&mut HierarchicalFarFieldEngine>,
        executor: &dyn ChunkExecutor,
        perturbation: &ChannelPerturbation<'_>,
        rng: &mut SmallRng,
    ) -> Vec<Reception> {
        let _ = (engine, executor);
        self.resolve_perturbed(positions, transmitters, listeners, perturbation, rng)
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

    /// Builds the [`FarFieldEngine`] this channel can exploit for
    /// `positions`, or `None` when the model cannot support the
    /// decision-exactness contract: the radio channels are geometry-free,
    /// and Rayleigh fading draws per-pair randomness in canonical order
    /// that pruning would desynchronize.
    ///
    /// The engine's memory is bounded by the tile-pair tables
    /// ([`MAX_TILES_PER_SIDE`](crate::MAX_TILES_PER_SIDE)⁴ entries), not by
    /// `n²`.
    fn build_farfield_engine(&self, positions: &[Point]) -> Option<FarFieldEngine> {
        let _ = positions;
        None
    }

    /// Builds the [`HierarchicalFarFieldEngine`] this channel can exploit
    /// for `positions`, or `None` under the same conditions as
    /// [`Channel::build_farfield_engine`] (the contract is identical; only
    /// the aggregation structure differs). Memory is linear in the fine
    /// tile count, so there is no size guard in either direction.
    fn build_hierarchical_engine(
        &self,
        positions: &[Point],
    ) -> Option<HierarchicalFarFieldEngine> {
        let _ = positions;
        None
    }

    /// Whether [`Channel::resolve`] consumes randomness from its `rng`.
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
