//! The far-field interference engine: tile-aggregated SINR resolve with a
//! **decision-exactness** contract.
//!
//! # The idea
//!
//! Exact SINR resolve walks every transmitter per listener — O(|T|·|L|)
//! work per round, which is the wall that stops the simulator at large `n`.
//! But the SINR *decision* rarely needs the exact
//! far interference: the paper's own analysis (Lemmas 3–4) bounds the
//! contribution of each exponential annulus `A^i_t(u)` by its population
//! times the extremal gain over the annulus, and that argument turns
//! directly into a kernel.
//!
//! [`FarFieldEngine`] partitions the deployment into a grid of tiles (a
//! [`TileIndex`] over the node positions) and precomputes, for every tile
//! pair `(t, s)`, the minimal and maximal pairwise gain `P/d^α` attainable
//! between their members — from the tiles' tight *content* bounding boxes.
//! Per round, transmitters are bucketed by tile; per listener, the engine:
//!
//! 1. scans the **near field** (the listener tile's 3×3 Chebyshev
//!    neighborhood) exactly, with the canonical per-pair expression;
//! 2. aggregates every **far** tile as `mass × gain` bounds, giving
//!    `I_lo ≤ I_far ≤ I_hi` and a cap on any single far signal;
//! 3. decides the reception from the bracket: when `best_sig` clears (or
//!    misses) `β·(noise + I)` for *both* endpoints — after widening the
//!    bracket by [`FARFIELD_REL_SLACK`] to absorb floating-point
//!    reordering — the decision is provably the one the exact path takes;
//! 4. otherwise **falls back** to the canonical exact scan for that
//!    listener (shared code with [`SinrChannel`], so it is identical by
//!    construction).
//!
//! # The decision-exactness contract
//!
//! A round resolved on [`Engine::FarField`](crate::Engine::FarField) is
//! *not* an approximation: its `Reception` vectors are **bit-identical**
//! to the exact scan on all inputs. The pruned path only ever skips work
//! whose outcome is already certain:
//!
//! * **Certain silence** — the exact denominator is at least the (possibly
//!   jammed, noise-scaled) floor `N`, so if neither the near-field best nor
//!   the far-field cap can reach `β·N`, no transmitter decodes.
//! * **Winner identification** — the canonical winner is the *first*
//!   transmitter (in slice order) attaining the maximal signal. Far
//!   signals are capped by the per-tile upper gain; only when the near
//!   best *strictly* beats that cap is the winner certainly near, in which
//!   case the near scan (same expression, first-index tie-break) has
//!   already identified it exactly.
//! * **Bracketed decision** — the exact interference the canonical fold
//!   produces differs from `near + far` only by summation order, i.e. by a
//!   relative error ≪ [`FARFIELD_REL_SLACK`]; the widened
//!   `[I_lo, I_hi]` bracket therefore contains it, and a decision that is
//!   invariant across the bracket is the exact decision.
//!
//! Every uncertain case — non-finite intermediate, no near winner, a far
//! tile that could rival the near best, a bracket that straddles the
//! threshold — takes the exact fallback. The equivalence proptests in
//! `tests/tier_equivalence.rs` (module `farfield`) enforce the contract
//! end to end, and
//! `tests/farfield_bounds.rs` checks the bounds bracket real sums and that
//! adversarial clustered deployments do trigger the fallback.
//!
//! Stochastic channels are excluded by design: Rayleigh fading draws one
//! rng variate per (listener, transmitter) pair in canonical order, so any
//! pruning would desynchronize the rng stream. `RayleighSinrChannel`
//! therefore has no pruning parameters, and a round offered an engine
//! falls back to the exact scan wholesale.

use fading_geom::{Point, PointsSoA, TileIndex};

use crate::kernels::{gain_batch, pow_alpha_batch, ScanScratch};
use crate::sinr::{exact_reception, scan_transmitters_batched};
use crate::{ChannelPerturbation, NodeId, Reception, Round, SinrParams};

/// Average number of nodes per tile the engine aims for when sizing the
/// grid (see [`TileIndex::with_target_occupancy`]).
pub const DEFAULT_TARGET_TILE_OCCUPANCY: usize = 64;

/// Upper bound on tiles per side: caps the pair-bound tables at
/// `(36²)² ≈ 1.7M` entries (~13 MB per table) regardless of `n`.
pub const MAX_TILES_PER_SIDE: usize = 36;

/// Chebyshev tile radius of the near field: tiles within this ring of the
/// listener's tile are scanned exactly; everything further is aggregated.
pub const NEAR_RING: usize = 1;

/// Relative slack by which the far-field bracket is widened before the
/// decision test.
///
/// This absorbs every source of discrepancy between the bracket and the
/// value the canonical fold computes: summation reorder (bounded by
/// `k·ε ≈ 1.5e-11` at `k = 65536`, `ε = 2⁻⁵²`), the few-ulp rounding of
/// the tile-pair distance bounds, and the (unspecified, but tiny)
/// non-monotonicity of `powf` for non-integer `α`. The slack is ~70×
/// larger than the worst of these at the maximum supported scale and only
/// costs a sliver of extra fallbacks near the decision boundary.
pub const FARFIELD_REL_SLACK: f64 = 1e-9;

/// Decision counters accumulated by a [`FarFieldEngine`] across rounds,
/// one named counter per rung of the decision ladder (module docs,
/// "decision-exactness contract") plus the trivial transmitter-free case.
///
/// Every listener decision lands in **exactly one** bucket, so the sum of
/// all seven counters ([`FarFieldStats::listeners_resolved`]) equals the
/// total number of listener resolutions performed — the reconciliation
/// invariant the equivalence suite asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarFieldStats {
    /// Rounds resolved through the engine.
    pub rounds: u64,
    /// Listeners of transmitter-free rounds: decided (Silence) without
    /// entering the ladder, since the canonical fold has no candidate.
    pub empty_round_silences: u64,
    /// Rung 1: a non-finite intermediate (overflow, coincident nodes,
    /// touching tile boxes) voided the bracket reasoning → exact fallback.
    pub nonfinite_fallbacks: u64,
    /// Rung 2: certain silence — neither the near best nor the far cap
    /// could reach the (possibly jammed, noise-scaled) floor `β·N`.
    pub noise_floor_silences: u64,
    /// Rung 3: no near candidate, yet rung 2 could not rule out a far
    /// decode → exact fallback (only the exact scan can name the winner).
    pub no_near_winner_fallbacks: u64,
    /// Rung 4: some far tile's gain cap rivals the near best, so the
    /// canonical winner might be a far transmitter → exact fallback.
    pub far_rival_fallbacks: u64,
    /// Rung 5: the slack-widened interference bracket settled the decision
    /// (both endpoints agree).
    pub bracket_decisions: u64,
    /// Rung 5: the bracket straddled the `β` threshold → exact fallback.
    pub bracket_straddle_fallbacks: u64,
}

impl FarFieldStats {
    /// Listener decisions settled by the near scan + far bracket alone
    /// (including listeners of transmitter-free rounds).
    #[must_use]
    pub fn fast_decisions(&self) -> u64 {
        self.empty_round_silences + self.bracket_decisions
    }

    /// Listener decisions that required the exact canonical scan — the sum
    /// of every fallback rung.
    #[must_use]
    pub fn exact_fallbacks(&self) -> u64 {
        self.nonfinite_fallbacks
            + self.no_near_winner_fallbacks
            + self.far_rival_fallbacks
            + self.bracket_straddle_fallbacks
    }

    /// Total listener resolutions performed: the sum of every bucket.
    /// Equals `fast_decisions() + noise_floor_silences + exact_fallbacks()`
    /// by construction.
    #[must_use]
    pub fn listeners_resolved(&self) -> u64 {
        self.empty_round_silences
            + self.nonfinite_fallbacks
            + self.noise_floor_silences
            + self.no_near_winner_fallbacks
            + self.far_rival_fallbacks
            + self.bracket_decisions
            + self.bracket_straddle_fallbacks
    }

    /// Fraction of listener decisions that fell back to the exact scan
    /// (0.0 when no listener has been resolved yet).
    #[must_use]
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.listeners_resolved();
        if total == 0 {
            0.0
        } else {
            self.exact_fallbacks() as f64 / total as f64
        }
    }
}

/// Counter-wise sum: every field is a u64 count, so merging per-chunk,
/// per-engine or per-simulation stats in any order gives the same totals.
impl std::ops::AddAssign for FarFieldStats {
    fn add_assign(&mut self, other: FarFieldStats) {
        self.rounds += other.rounds;
        self.empty_round_silences += other.empty_round_silences;
        self.nonfinite_fallbacks += other.nonfinite_fallbacks;
        self.noise_floor_silences += other.noise_floor_silences;
        self.no_near_winner_fallbacks += other.no_near_winner_fallbacks;
        self.far_rival_fallbacks += other.far_rival_fallbacks;
        self.bracket_decisions += other.bracket_decisions;
        self.bracket_straddle_fallbacks += other.bracket_straddle_fallbacks;
    }
}

/// Per-tile-pair gain bounds plus per-round scratch for the tile-aggregated
/// resolve. Built once per deployment by
/// [`FarFieldEngine::build`] under the channel's
/// [`Channel::pruning_params`](crate::Channel::pruning_params);
/// see the module docs for the algorithm and its exactness
/// argument.
#[derive(Debug, Clone)]
pub struct FarFieldEngine {
    tiles: TileIndex,
    n: usize,
    power: f64,
    alpha: f64,
    first: Point,
    last: Point,
    /// Lower gain bound per tile pair (`t * num_tiles + s`): attained at
    /// the maximal content-bbox distance. Zero for pairs with an empty side.
    pair_g_lo: Vec<f64>,
    /// Upper gain bound per tile pair: attained at the minimal content-bbox
    /// distance (`+∞` when the boxes touch — such pairs always fall back).
    pair_g_hi: Vec<f64>,
    /// Live-node flags mirrored from the simulator's knockout/churn state.
    alive: Vec<bool>,
    /// Live members per tile, maintained incrementally on every
    /// deactivate/activate.
    alive_per_tile: Vec<u32>,
    num_alive: usize,
    /// SoA mirror of the build positions, feeding the batched kernels
    /// (coherent with `positions` whenever `matches` holds).
    soa: PointsSoA,
    /// Per-round transmitter buckets: `(node, slice index)` per tile.
    tx_in_tile: Vec<Vec<(u32, u32)>>,
    /// Per-tile contiguous transmitter coordinates, parallel to
    /// `tx_in_tile` (bucket order), so near-ring scans run as one fused
    /// gain batch per tile.
    tx_x_in_tile: Vec<Vec<f64>>,
    tx_y_in_tile: Vec<Vec<f64>>,
    /// Tiles with at least one transmitter this round.
    occupied: Vec<u32>,
    /// Round-level gathered transmitter coordinates + gain buffer for the
    /// batched exact fallback, and the near-scan gain buffer.
    scan: ScanScratch,
    near_gains: Vec<f64>,
    /// Lazily computed per-listener-tile far aggregates, validated by
    /// `far_stamp` against the current round's `stamp`.
    far_lo: Vec<f64>,
    far_hi: Vec<f64>,
    far_cap: Vec<f64>,
    far_stamp: Vec<u64>,
    stamp: u64,
    stats: FarFieldStats,
}

impl FarFieldEngine {
    /// Builds an engine for `positions` under `params`, with the default
    /// tiling ([`DEFAULT_TARGET_TILE_OCCUPANCY`] nodes per tile, at most
    /// [`MAX_TILES_PER_SIDE`] tiles per side).
    ///
    /// Returns `None` for an empty deployment or non-finite coordinates
    /// (the exact paths define the semantics of such inputs).
    #[must_use]
    pub fn build(positions: &[Point], params: &SinrParams) -> Option<Self> {
        let tiles = TileIndex::with_target_occupancy(
            positions,
            DEFAULT_TARGET_TILE_OCCUPANCY,
            MAX_TILES_PER_SIDE,
        )?;
        Self::from_tiles(tiles, positions, params)
    }

    /// Builds an engine over an explicit `tiles_per_side × tiles_per_side`
    /// grid. Exposed so tests can force multi-tile layouts on small
    /// deployments; `build` is the production sizing.
    #[must_use]
    pub fn build_with_tiling(
        positions: &[Point],
        params: &SinrParams,
        tiles_per_side: usize,
    ) -> Option<Self> {
        let tiles = TileIndex::build(positions, tiles_per_side)?;
        Self::from_tiles(tiles, positions, params)
    }

    fn from_tiles(tiles: TileIndex, positions: &[Point], params: &SinrParams) -> Option<Self> {
        if !positions.iter().all(|p| p.is_finite()) {
            return None;
        }
        let num_tiles = tiles.num_tiles();
        let p = params.power();
        let alpha = params.alpha();
        // Row-batched pair-table build: per source tile, gather the
        // distance bounds for the whole row, then one per-α pow batch and
        // one division pass each for the lower and upper gains. Pairs with
        // an empty side keep the `∞` sentinel distance, whose gain
        // `p / ∞ = 0` matches the scalar build's untouched 0.0 slot;
        // d_min_sq = 0 (overlapping/touching content boxes) yields an
        // infinite upper bound, which forces the exact fallback for any
        // listener near such a pair — conservative, never wrong.
        let mut pair_g_lo = vec![0.0; num_tiles * num_tiles];
        let mut pair_g_hi = vec![0.0; num_tiles * num_tiles];
        let mut d_far = vec![f64::INFINITY; num_tiles];
        let mut d_near = vec![f64::INFINITY; num_tiles];
        let mut powed = vec![0.0; num_tiles];
        for t in 0..num_tiles {
            d_far.fill(f64::INFINITY);
            d_near.fill(f64::INFINITY);
            for s in 0..num_tiles {
                if let Some((d_min_sq, d_max_sq)) = tiles.distance_sq_bounds(t, s) {
                    d_far[s] = d_max_sq;
                    d_near[s] = d_min_sq;
                }
            }
            let row_lo = &mut pair_g_lo[t * num_tiles..(t + 1) * num_tiles];
            pow_alpha_batch(alpha, &d_far, &mut powed);
            for (slot, &pw) in row_lo.iter_mut().zip(&powed) {
                *slot = p / pw;
            }
            let row_hi = &mut pair_g_hi[t * num_tiles..(t + 1) * num_tiles];
            pow_alpha_batch(alpha, &d_near, &mut powed);
            for (slot, &pw) in row_hi.iter_mut().zip(&powed) {
                *slot = p / pw;
            }
        }
        let alive_per_tile = (0..num_tiles).map(|t| tiles.count(t) as u32).collect();
        Some(FarFieldEngine {
            tiles,
            n: positions.len(),
            power: p,
            alpha,
            first: positions[0],
            last: positions[positions.len() - 1],
            pair_g_lo,
            pair_g_hi,
            alive: vec![true; positions.len()],
            alive_per_tile,
            num_alive: positions.len(),
            soa: PointsSoA::from_points(positions),
            tx_in_tile: vec![Vec::new(); num_tiles],
            tx_x_in_tile: vec![Vec::new(); num_tiles],
            tx_y_in_tile: vec![Vec::new(); num_tiles],
            occupied: Vec::new(),
            scan: ScanScratch::new(),
            near_gains: Vec::new(),
            far_lo: vec![0.0; num_tiles],
            far_hi: vec![0.0; num_tiles],
            far_cap: vec![0.0; num_tiles],
            far_stamp: vec![0; num_tiles],
            stamp: 0,
            stats: FarFieldStats::default(),
        })
    }

    /// Whether this engine was built over exactly these `positions` and
    /// SINR parameters (size, power, α, and a first/last position
    /// fingerprint).
    #[must_use]
    pub fn matches(&self, positions: &[Point], params: &SinrParams) -> bool {
        self.n == positions.len()
            && self.power == params.power()
            && self.alpha == params.alpha()
            && positions.first() == Some(&self.first)
            && positions.last() == Some(&self.last)
    }

    /// Marks node `w` dead, decrementing its tile's live count. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn deactivate(&mut self, w: NodeId) {
        assert!(
            w < self.n,
            "node {w} out of range for engine of size {}",
            self.n
        );
        if std::mem::replace(&mut self.alive[w], false) {
            self.alive_per_tile[self.tiles.tile_of(w)] -= 1;
            self.num_alive -= 1;
        }
    }

    /// Marks node `w` live again (churn revival). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn activate(&mut self, w: NodeId) {
        assert!(
            w < self.n,
            "node {w} out of range for engine of size {}",
            self.n
        );
        if !std::mem::replace(&mut self.alive[w], true) {
            self.alive_per_tile[self.tiles.tile_of(w)] += 1;
            self.num_alive += 1;
        }
    }

    /// Whether node `w` is currently marked live.
    #[must_use]
    pub fn is_active(&self, w: NodeId) -> bool {
        self.alive[w]
    }

    /// Number of live nodes.
    #[must_use]
    pub fn num_active(&self) -> usize {
        self.num_alive
    }

    /// Number of live nodes in tile `t`.
    #[must_use]
    pub fn active_in_tile(&self, t: usize) -> usize {
        self.alive_per_tile[t] as usize
    }

    /// The underlying tile index.
    #[must_use]
    pub fn tiles(&self) -> &TileIndex {
        &self.tiles
    }

    /// The `(lower, upper)` gain bounds cached for tile pair `(t, s)`, or
    /// `None` when either tile has no members. Exposed for the bounds
    /// proptests.
    #[must_use]
    pub fn pair_gain_bounds(&self, t: usize, s: usize) -> Option<(f64, f64)> {
        (self.tiles.count(t) > 0 && self.tiles.count(s) > 0).then(|| {
            let i = t * self.tiles.num_tiles() + s;
            (self.pair_g_lo[i], self.pair_g_hi[i])
        })
    }

    /// Decision counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> FarFieldStats {
        self.stats
    }

    /// Resets the decision counters.
    pub fn reset_stats(&mut self) {
        self.stats = FarFieldStats::default();
    }

    /// Overwrites the decision counters (checkpoint restore: a rebuilt
    /// engine resumes the counter totals the snapshotted engine had
    /// accumulated, so `EngineCounters` reconciliation survives a resume).
    pub fn set_stats(&mut self, stats: FarFieldStats) {
        self.stats = stats;
    }

    /// Resolves one round with the tile-aggregated fast path, appending
    /// one reception per listener to the (empty) `out`; reception
    /// semantics (and bits) are exactly those of the exact scan in
    /// [`SinrChannel`](crate::SinrChannel). `perturbation` is `None` for a
    /// neutral perturbation, as the channel maps it.
    pub(crate) fn resolve_sinr(
        &mut self,
        params: &SinrParams,
        round: &Round<'_>,
        perturbation: Option<&ChannelPerturbation<'_>>,
        out: &mut Vec<Reception>,
    ) {
        let Round {
            positions,
            transmitters,
            listeners,
            ..
        } = *round;
        debug_assert!(self.matches(positions, params));
        let p = self.power;
        let alpha = self.alpha;
        let beta = params.beta();
        let noise = match perturbation {
            Some(pt) => params.noise() * pt.noise_scale(),
            None => params.noise(),
        };
        self.stats.rounds += 1;

        if transmitters.is_empty() {
            // The canonical loop yields Silence for every listener when
            // nobody transmits (best_tx stays None).
            self.stats.empty_round_silences += listeners.len() as u64;
            out.resize(listeners.len(), Reception::Silence);
            return;
        }

        // Bucket this round's transmitters by tile, remembering each
        // transmitter's slice index so the near scan can reproduce the
        // canonical first-strict-max tie-break — and each transmitter's
        // coordinates in bucket order, so near scans run as contiguous
        // gain batches.
        for &t in &self.occupied {
            self.tx_in_tile[t as usize].clear();
            self.tx_x_in_tile[t as usize].clear();
            self.tx_y_in_tile[t as usize].clear();
        }
        self.occupied.clear();
        for (idx, &u) in transmitters.iter().enumerate() {
            let t = self.tiles.tile_of(u);
            if self.tx_in_tile[t].is_empty() {
                self.occupied.push(t as u32);
            }
            self.tx_in_tile[t].push((u as u32, idx as u32));
            self.tx_x_in_tile[t].push(self.soa.xs()[u]);
            self.tx_y_in_tile[t].push(self.soa.ys()[u]);
        }
        self.stamp += 1;
        // Round-level gather for the batched exact fallback (shared with
        // the canonical resolve), plus the near-scan gain
        // buffer — both moved out of `self` so the listener loop can
        // borrow tiles and buckets immutably alongside them.
        let mut scan = std::mem::take(&mut self.scan);
        self.soa.gather(transmitters, &mut scan.xs, &mut scan.ys);
        let mut near_gains = std::mem::take(&mut self.near_gains);

        let num_tiles = self.tiles.num_tiles();
        out.reserve(listeners.len());
        for &v in listeners {
            let vp = positions[v];
            let lt = self.tiles.tile_of(v);

            // Far aggregates for this listener tile, computed once per
            // round per tile (all listeners of a tile share them).
            if self.far_stamp[lt] != self.stamp {
                let (mut lo, mut hi, mut cap) = (0.0f64, 0.0f64, 0.0f64);
                for &s in &self.occupied {
                    let s = s as usize;
                    if self.tiles.chebyshev(lt, s) <= NEAR_RING {
                        continue;
                    }
                    let mass = self.tx_in_tile[s].len() as f64;
                    lo += mass * self.pair_g_lo[lt * num_tiles + s];
                    let g_hi = self.pair_g_hi[lt * num_tiles + s];
                    hi += mass * g_hi;
                    cap = cap.max(g_hi);
                }
                self.far_lo[lt] = lo;
                self.far_hi[lt] = hi;
                self.far_cap[lt] = cap;
                self.far_stamp[lt] = self.stamp;
            }
            let far_lo = self.far_lo[lt];
            let far_hi = self.far_hi[lt];
            // Widened cap on any single far signal (covers bound rounding
            // and powf non-monotonicity; see FARFIELD_REL_SLACK).
            let far_cap = self.far_cap[lt] * (1.0 + FARFIELD_REL_SLACK);

            // Exact near-field scan: one fused gain batch per near tile
            // (canonical per-pair expression, bucket order), folded in
            // bucket order with winner = minimal slice index among the
            // strict maxima — exactly the canonical fold's
            // first-strict-max.
            let mut near_sum = 0.0f64;
            let mut best_sig = 0.0f64;
            let mut best_tx: Option<NodeId> = None;
            let mut best_idx = u32::MAX;
            for near_t in self.tiles.neighborhood(lt, NEAR_RING) {
                let bucket = &self.tx_in_tile[near_t];
                if bucket.is_empty() {
                    continue;
                }
                near_gains.resize(bucket.len(), 0.0);
                gain_batch(
                    p,
                    alpha,
                    &self.tx_x_in_tile[near_t],
                    &self.tx_y_in_tile[near_t],
                    vp.x,
                    vp.y,
                    &mut near_gains,
                );
                for (&sig, &(u, idx)) in near_gains.iter().zip(bucket) {
                    let u = u as usize;
                    debug_assert_ne!(u, v, "a node cannot transmit and listen simultaneously");
                    near_sum += sig;
                    if sig > best_sig {
                        best_sig = sig;
                        best_tx = Some(u);
                        best_idx = idx;
                    } else if sig == best_sig && sig > 0.0 && idx < best_idx {
                        best_tx = Some(u);
                        best_idx = idx;
                    }
                }
            }

            let extra = perturbation.map(|pt| pt.extra_at(v));
            let reception = decide_ladder(
                &mut self.stats,
                DecisionInputs {
                    near_sum,
                    best_sig,
                    best_tx,
                    far_lo,
                    far_hi,
                    far_cap,
                    noise,
                    extra,
                    beta,
                },
            )
            .unwrap_or_else(|| {
                // Exact fallback: the canonical batched scan over *all*
                // transmitters — bit-identical to SinrChannel by sharing
                // its kernels and fold.
                let outcome = scan_transmitters_batched(p, alpha, v, vp, transmitters, &mut scan);
                exact_reception(outcome, noise, extra, beta)
            });
            out.push(reception);
        }
        self.scan = scan;
        self.near_gains = near_gains;
    }
}

/// Everything [`decide_ladder`] needs about one listener, bundled to keep
/// the ladder's signature readable.
pub(crate) struct DecisionInputs {
    pub(crate) near_sum: f64,
    pub(crate) best_sig: f64,
    pub(crate) best_tx: Option<NodeId>,
    pub(crate) far_lo: f64,
    pub(crate) far_hi: f64,
    pub(crate) far_cap: f64,
    pub(crate) noise: f64,
    pub(crate) extra: Option<f64>,
    pub(crate) beta: f64,
}

/// The decision ladder (module docs, "decision-exactness contract"),
/// shared by the flat [`FarFieldEngine`] and the hierarchical engine — the
/// correctness argument only depends on the *bracket* inputs, not on how
/// they were aggregated. `stats` receives exactly one rung increment.
/// `None` means no rung was conclusive and the caller must run the
/// canonical exact scan; that fallback rung is already counted.
pub(crate) fn decide_ladder(stats: &mut FarFieldStats, inp: DecisionInputs) -> Option<Reception> {
    let DecisionInputs {
        near_sum,
        best_sig,
        best_tx,
        far_lo,
        far_hi,
        far_cap,
        noise,
        extra,
        beta,
    } = inp;
    // Rung 1: any non-finite intermediate (overflow, coincident nodes,
    // touching tile boxes) voids the bracket reasoning entirely.
    if !(near_sum.is_finite() && far_hi.is_finite() && far_cap.is_finite()) {
        stats.nonfinite_fallbacks += 1;
        return None;
    }
    let base = match extra {
        Some(e) => noise + e,
        None => noise,
    };
    // Rung 2: certain silence — the exact denominator is ≥ base, and
    // the exact best signal is ≤ max(near best, far cap).
    if best_sig.max(far_cap) < beta * base {
        stats.noise_floor_silences += 1;
        return Some(Reception::Silence);
    }
    // Rung 3: no near candidate, yet rung 2 could not rule out a far
    // decode — only the exact scan can name the winner.
    let Some(from) = best_tx else {
        stats.no_near_winner_fallbacks += 1;
        return None;
    };
    // Rung 4: the near best must strictly dominate every possible far
    // signal, or the canonical winner might be a far transmitter.
    if far_cap >= best_sig {
        stats.far_rival_fallbacks += 1;
        return None;
    }
    // Rung 5: bracket the canonical interference and require the
    // decision to be invariant across it.
    let interference_near = near_sum - best_sig;
    let slack = FARFIELD_REL_SLACK * (near_sum + far_hi + best_sig);
    let i_lo = ((interference_near + far_lo) - slack).max(0.0);
    let i_hi = (interference_near + far_hi) + slack;
    let (denom_lo, denom_hi) = match extra {
        Some(e) => (noise + e + i_lo, noise + e + i_hi),
        None => (noise + i_lo, noise + i_hi),
    };
    let msg_lo = best_sig >= beta * denom_lo;
    let msg_hi = best_sig >= beta * denom_hi;
    if msg_lo == msg_hi {
        stats.bracket_decisions += 1;
        Some(if msg_hi {
            Reception::Message { from }
        } else {
            Reception::Silence
        })
    } else {
        stats.bracket_straddle_fallbacks += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, SinrChannel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// One clean round straight through the engine.
    fn resolve(
        engine: &mut FarFieldEngine,
        p: &SinrParams,
        pos: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
    ) -> Vec<Reception> {
        let mut out = Vec::new();
        let round = Round::new(pos, transmitters, listeners);
        engine.resolve_sinr(p, &round, None, &mut out);
        out
    }

    fn params() -> SinrParams {
        SinrParams::builder()
            .power(16.0)
            .alpha(3.0)
            .beta(2.0)
            .noise(1.0)
            .build()
            .unwrap()
    }

    fn lattice(n_side: usize, spacing: f64) -> Vec<Point> {
        (0..n_side * n_side)
            .map(|i| Point::new((i % n_side) as f64 * spacing, (i / n_side) as f64 * spacing))
            .collect()
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let p = params();
        assert!(FarFieldEngine::build(&[], &p).is_none());
        let nan = vec![Point::new(f64::NAN, 0.0), Point::ORIGIN];
        assert!(FarFieldEngine::build(&nan, &p).is_none());
    }

    #[test]
    fn matches_is_a_fingerprint() {
        let p = params();
        let pos = lattice(8, 1.0);
        let engine = FarFieldEngine::build(&pos, &p).unwrap();
        assert!(engine.matches(&pos, &p));
        let mut moved = pos.clone();
        moved[0] = Point::new(-7.0, -7.0);
        assert!(!engine.matches(&moved, &p));
        assert!(!engine.matches(&pos[..63], &p));
        let other = SinrParams::builder().power(32.0).build().unwrap();
        assert!(!engine.matches(&pos, &other));
    }

    #[test]
    fn occupancy_tracks_knockout_and_revival() {
        let p = params();
        let pos = lattice(8, 1.0);
        let mut engine = FarFieldEngine::build_with_tiling(&pos, &p, 4).unwrap();
        let t = engine.tiles().tile_of(0);
        let before = engine.active_in_tile(t);
        assert_eq!(engine.num_active(), 64);
        engine.deactivate(0);
        engine.deactivate(0); // idempotent
        assert!(!engine.is_active(0));
        assert_eq!(engine.active_in_tile(t), before - 1);
        assert_eq!(engine.num_active(), 63);
        engine.activate(0);
        engine.activate(0); // idempotent
        assert_eq!(engine.active_in_tile(t), before);
        assert_eq!(engine.num_active(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn deactivate_out_of_range_panics() {
        let p = params();
        let pos = lattice(2, 1.0);
        let mut engine = FarFieldEngine::build(&pos, &p).unwrap();
        engine.deactivate(4);
    }

    #[test]
    fn resolve_matches_exact_on_a_lattice() {
        let p = params();
        let ch = SinrChannel::new(p);
        let pos = lattice(16, 1.5);
        let mut engine = FarFieldEngine::build_with_tiling(&pos, &p, 6).unwrap();
        let transmitters: Vec<NodeId> = (0..pos.len()).step_by(7).collect();
        let listeners: Vec<NodeId> = (0..pos.len())
            .filter(|i| !transmitters.contains(i))
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let exact = ch.resolve(&pos, &transmitters, &listeners, &mut rng);
        let fast = resolve(&mut engine, &p, &pos, &transmitters, &listeners);
        assert_eq!(exact, fast);
        let s = engine.stats();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.listeners_resolved(), listeners.len() as u64);
        assert_eq!(
            s.fast_decisions() + s.noise_floor_silences + s.exact_fallbacks(),
            s.listeners_resolved()
        );
    }

    #[test]
    fn empty_round_is_all_silence_and_counts_fast() {
        let p = params();
        let pos = lattice(4, 1.0);
        let mut engine = FarFieldEngine::build(&pos, &p).unwrap();
        let listeners: Vec<NodeId> = (0..pos.len()).collect();
        let rx = resolve(&mut engine, &p, &pos, &[], &listeners);
        assert!(rx.iter().all(|r| *r == Reception::Silence));
        assert_eq!(engine.stats().empty_round_silences, pos.len() as u64);
        assert_eq!(engine.stats().fast_decisions(), pos.len() as u64);
    }

    #[test]
    fn stats_add_assign_sums_every_counter() {
        let one = FarFieldStats {
            rounds: 1,
            empty_round_silences: 2,
            nonfinite_fallbacks: 3,
            noise_floor_silences: 4,
            no_near_winner_fallbacks: 5,
            far_rival_fallbacks: 6,
            bracket_decisions: 7,
            bracket_straddle_fallbacks: 8,
        };
        let mut sum = one;
        sum += one;
        assert_eq!(sum.rounds, 2);
        assert_eq!(sum.listeners_resolved(), 2 * one.listeners_resolved());
        assert_eq!(sum.exact_fallbacks(), 2 * one.exact_fallbacks());
        assert_eq!(sum.fast_decisions(), 2 * one.fast_decisions());
        assert_eq!(sum.noise_floor_silences, 2 * one.noise_floor_silences);
        sum += FarFieldStats::default();
        assert_eq!(sum.listeners_resolved(), 2 * one.listeners_resolved());
    }

    #[test]
    fn stats_reset() {
        let p = params();
        let pos = lattice(4, 1.0);
        let mut engine = FarFieldEngine::build(&pos, &p).unwrap();
        resolve(&mut engine, &p, &pos, &[], &[0]);
        assert_ne!(engine.stats(), FarFieldStats::default());
        engine.reset_stats();
        assert_eq!(engine.stats(), FarFieldStats::default());
    }
}
