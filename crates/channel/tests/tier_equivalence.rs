//! Decision-exactness oracle for both far-field tiers: the flat
//! tile-pair [`FarFieldEngine`] (module `farfield`) and the tile-tree
//! [`HierarchicalFarFieldEngine`] (module `hierarchical`). Filter by the
//! module name to run one tier's cases.
//!
//! The contract under test ([`Channel::resolve_round`]) is *bit-exact*
//! equivalence: resolving a round through an engine must yield a
//! `Reception` vector **identical** (`==`, not approximately equal) to the
//! exact scan on the same round, clean or faulted, while consuming the
//! channel rng identically. The property tests drive arbitrary
//! deployments, transmitter/listener partitions, parameter draws, and
//! perturbations (noise scaling + per-node jammer interference) through
//! both paths for each path-loss exponent the experiments use
//! (`α ∈ {2.5, 3, 4, 6}`), 256 cases per exponent and tier, with engines
//! **forced to multi-tile layouts** so the pruned path genuinely exercises
//! the far aggregation (the production sizing would put 48 nodes in a
//! single tile and never prune).
//!
//! Two generator families additionally stress the tree: **clustered**
//! fields (tight blobs separated by hundreds of units, so coarse
//! aggregates are accepted levels above the fine tiles) and **corridor**
//! fields (long thin strips, so the ceil-halving pyramid degenerates to
//! 1×k levels). A deterministic clustered round pins the tree's
//! round-level paths: batched exact fallbacks (full and partial
//! `LISTENER_BLOCK` groups), ring clipping at corner tiles, and multiple
//! traverse-and-decide tasks under a reversed executor; a second one puts
//! more than a `LISTENER_BLOCK` of listeners in one tile beside singleton
//! tiles, so the blocked near scan runs full and padded `NEAR_BLOCK`
//! blocks.

use fading_channel::kernels::{LISTENER_BLOCK, NEAR_BLOCK};
use fading_channel::{
    Channel, ChannelPerturbation, ChunkExecutor, Engine, FarFieldEngine, FarFieldStats,
    HierarchicalFarFieldEngine, LossySinrChannel, RadioChannel, RayleighSinrChannel, Reception,
    Round, SerialExecutor, SinrChannel, SinrParams, HIER_NEAR_RING, HIER_TILE_TASK,
};
use fading_geom::Point;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A far-field tier under test.
#[derive(Debug, Clone, Copy)]
enum Tier {
    FarField,
    Hierarchical,
}

/// A built engine of either tier.
enum Built {
    FarField(FarFieldEngine),
    Hierarchical(HierarchicalFarFieldEngine),
}

impl Tier {
    /// The production builder.
    fn build(self, positions: &[Point], params: &SinrParams) -> Option<Built> {
        match self {
            Tier::FarField => FarFieldEngine::build(positions, params).map(Built::FarField),
            Tier::Hierarchical => {
                HierarchicalFarFieldEngine::build(positions, params).map(Built::Hierarchical)
            }
        }
    }

    /// An explicit `tiles_per_side × tiles_per_side` fine grid.
    fn build_with_tiling(self, positions: &[Point], params: &SinrParams, tiles: usize) -> Built {
        let built = match self {
            Tier::FarField => {
                FarFieldEngine::build_with_tiling(positions, params, tiles).map(Built::FarField)
            }
            Tier::Hierarchical => {
                HierarchicalFarFieldEngine::build_with_tiling(positions, params, tiles)
                    .map(Built::Hierarchical)
            }
        };
        built.expect("a finite deployment builds a multi-tile engine")
    }

    /// The forced multi-tile layout of the per-case oracle. With ≤ 60
    /// nodes the production sizing would use one tile; 5 per side gives
    /// the flat engine real far tiles, and 8 per side gives the tree a
    /// 4-level pyramid (8 → 4 → 2 → 1), so coarse-level accepts genuinely
    /// happen at these small n.
    fn forced(self, positions: &[Point], params: &SinrParams) -> Built {
        let built = match self {
            Tier::FarField => self.build_with_tiling(positions, params, 5),
            Tier::Hierarchical => self.build_with_tiling(positions, params, 8),
        };
        if let Built::Hierarchical(e) = &built {
            assert!(
                e.tree().num_levels() >= 4,
                "forced tiling should produce a multi-level pyramid"
            );
        }
        built
    }
}

impl Built {
    /// The engine handle for one round (the tree runs serially).
    fn engine(&mut self) -> Engine<'_> {
        match self {
            Built::FarField(e) => Engine::FarField(e),
            Built::Hierarchical(e) => Engine::Hierarchical(e, &SerialExecutor),
        }
    }

    fn stats(&self) -> FarFieldStats {
        match self {
            Built::FarField(e) => e.stats(),
            Built::Hierarchical(e) => e.stats(),
        }
    }
}

/// Distinct points on a jittered lattice (guaranteed non-coincident).
fn arb_lattice_positions(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..0.4f64, 0.0..0.4f64), min..=max).prop_map(|jitters| {
        let side = (jitters.len() as f64).sqrt().ceil() as usize;
        jitters
            .iter()
            .enumerate()
            .map(|(i, &(jx, jy))| Point::new((i % side) as f64 + jx, (i / side) as f64 + jy))
            .collect()
    })
}

/// Tight clusters flung across a 200×200 field: most transmitter mass sits
/// levels above any listener's fine neighborhood, so accepted aggregates
/// are genuinely coarse.
fn arb_clustered_positions() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (
            (0.0..200.0f64, 0.0..200.0f64),
            prop::collection::vec((0.0..2.0f64, 0.0..2.0f64), 1..12),
        ),
        1..6,
    )
    .prop_map(|clusters| {
        clusters
            .iter()
            .flat_map(|((cx, cy), members)| {
                members
                    .iter()
                    .map(move |&(dx, dy)| Point::new(cx + dx, cy + dy))
            })
            .collect()
    })
}

/// A long thin strip (one unit tall, up to ~150 units long): the pyramid's
/// ceil-halving runs many levels in one axis while the other is already 1,
/// exercising the degenerate 1×k merge geometry.
fn arb_corridor_positions(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..3.0f64, 0.0..1.0f64), min..=max).prop_map(|jitters| {
        jitters
            .iter()
            .enumerate()
            .map(|(i, &(jx, jy))| Point::new(i as f64 * 3.0 + jx, jy))
            .collect()
    })
}

/// Splits node ids into disjoint (transmitters, listeners) from per-node
/// role draws: 0 ⇒ transmit, 1–2 ⇒ listen, 3 ⇒ idle.
fn partition(roles: &[u8], n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut tx = Vec::new();
    let mut ls = Vec::new();
    for i in 0..n {
        match roles.get(i).copied().unwrap_or(1) % 4 {
            0 => tx.push(i),
            1 | 2 => ls.push(i),
            _ => {}
        }
    }
    (tx, ls)
}

fn params_with(alpha: f64, beta: f64, noise: f64, power: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .beta(beta)
        .noise(noise)
        .power(power)
        .build()
        .expect("strategy stays in the valid range")
}

/// Builds the jammer-interference vector for a perturbation: every third
/// node (by a role-derived mask) receives `jam_power`.
fn jam_extra(roles: &[u8], n: usize, jam_power: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if roles.get(i).copied().unwrap_or(0) % 3 == 0 {
                jam_power
            } else {
                0.0
            }
        })
        .collect()
}

/// One round through `engine`, or through the exact scan when `None`.
fn resolve_on<C: Channel>(
    ch: &C,
    round: &Round<'_>,
    engine: Option<&mut Built>,
    rng: &mut SmallRng,
) -> Vec<Reception> {
    let mut out = Vec::new();
    let engine = engine.map_or(Engine::Exact, Built::engine);
    ch.resolve_round(round, engine, rng, &mut out, None);
    out
}

/// Asserts bit-exact engine/exact equivalence (receptions *and* final rng
/// state) for one channel on one scenario, neutral and faulted.
fn assert_tier_equiv<C: Channel>(
    ch: &C,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    engine: &mut Option<Built>,
    perturbation: &ChannelPerturbation<'_>,
    seed: u64,
) {
    // Neutral round: the engine vs plain resolve.
    let mut rng_exact = SmallRng::seed_from_u64(seed);
    let mut rng_fast = SmallRng::seed_from_u64(seed);
    let exact = ch.resolve(positions, tx, ls, &mut rng_exact);
    let clean = Round::new(positions, tx, ls);
    let fast = resolve_on(ch, &clean, engine.as_mut(), &mut rng_fast);
    assert_eq!(
        exact,
        fast,
        "receptions diverged on the clean path ({}, n={}, tx={}, ls={}, seed={seed})",
        ch.name(),
        positions.len(),
        tx.len(),
        ls.len()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "the engine path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );

    // Faulted round: the engine vs the exact scan under the same
    // noise-scale + jammer perturbation.
    let faulted = Round {
        perturbation: *perturbation,
        ..clean
    };
    let mut rng_exact = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut rng_fast = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let exact = resolve_on(ch, &faulted, None, &mut rng_exact);
    let fast = resolve_on(ch, &faulted, engine.as_mut(), &mut rng_fast);
    assert_eq!(
        exact,
        fast,
        "receptions diverged on the faulted path ({}, seed={seed})",
        ch.name()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "the engine's faulted path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );
}

/// The full per-case oracle: SINR and lossy SINR take the pruned path
/// (engines forced to a multi-tile layout so far aggregation actually
/// runs); Rayleigh has no pruning parameters and must fall back wholesale.
#[allow(clippy::too_many_arguments)] // mirrors the proptest argument list
fn check_all_channels(
    tier: Tier,
    alpha: f64,
    positions: &[Point],
    roles: &[u8],
    beta: f64,
    noise: f64,
    power: f64,
    drop_prob: f64,
    jam_power: f64,
    noise_scale: f64,
    seed: u64,
) {
    let (tx, ls) = partition(roles, positions.len());
    let params = params_with(alpha, beta, noise, power);
    let extra = jam_extra(roles, positions.len(), jam_power);
    let perturbation = ChannelPerturbation::new(noise_scale, &extra);

    let sinr = SinrChannel::new(params);
    let mut engine = Some(tier.forced(positions, &params));
    assert_tier_equiv(&sinr, positions, &tx, &ls, &mut engine, &perturbation, seed);
    // And through the production builder (small n ⇒ one tile or a shallow
    // tree, the near scan dominates).
    let mut default_engine = sinr.pruning_params().and_then(|p| tier.build(positions, p));
    assert!(default_engine.is_some());
    assert_tier_equiv(
        &sinr,
        positions,
        &tx,
        &ls,
        &mut default_engine,
        &perturbation,
        seed,
    );

    let lossy = LossySinrChannel::new(params, drop_prob).expect("drop_prob in [0, 1)");
    assert_eq!(lossy.pruning_params(), Some(&params));
    let mut lengine = Some(tier.forced(positions, &params));
    assert_tier_equiv(
        &lossy,
        positions,
        &tx,
        &ls,
        &mut lengine,
        &perturbation,
        seed,
    );

    // Rayleigh: no pruning parameters by contract (per-pair rng draws); a
    // foreign engine must be ignored and the round stay exact.
    let rayleigh = RayleighSinrChannel::new(params);
    assert!(rayleigh.pruning_params().is_none());
    let mut foreign = Some(tier.forced(positions, &params));
    assert_tier_equiv(
        &rayleigh,
        positions,
        &tx,
        &ls,
        &mut foreign,
        &perturbation,
        seed,
    );
    let mut none = None;
    assert_tier_equiv(
        &rayleigh,
        positions,
        &tx,
        &ls,
        &mut none,
        &perturbation,
        seed,
    );
}

/// An engine built for *different* positions or parameters must be
/// rejected, falling back to the exact (still correct) path.
fn check_mismatched_engine(tier: Tier, positions: &[Point], roles: &[u8], seed: u64) {
    let (tx, ls) = partition(roles, positions.len());
    let params = params_with(3.0, 2.0, 1.0, 1e4);
    let ch = SinrChannel::new(params);
    let neutral = ChannelPerturbation::neutral();

    // Wrong node count: engine over a prefix of the deployment.
    let mut stale = tier.build(&positions[..positions.len() - 1], &params);
    assert_tier_equiv(&ch, positions, &tx, &ls, &mut stale, &neutral, seed);

    // Wrong parameters: engine built under a different power.
    let other = params_with(3.0, 2.0, 1.0, 2e4);
    let mut wrong = tier.build(positions, &other);
    assert_tier_equiv(&ch, positions, &tx, &ls, &mut wrong, &neutral, seed);

    // No engine at all.
    let mut none = None;
    assert_tier_equiv(&ch, positions, &tx, &ls, &mut none, &neutral, seed);
}

/// Handing a geometry-free model a foreign engine must not change its
/// semantics: it has no pruning parameters and ignores the engine.
fn check_radio_fallback(tier: Tier) {
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(2.0, 0.0),
    ];
    let radio = RadioChannel::new();
    assert!(radio.pruning_params().is_none());

    let params = params_with(3.0, 2.0, 1.0, 1e4);
    let mut foreign = tier.build(&positions, &params);
    assert!(foreign.is_some());
    let round = Round::new(&positions, &[0], &[1, 2]);
    let rx = resolve_on(
        &radio,
        &round,
        foreign.as_mut(),
        &mut SmallRng::seed_from_u64(3),
    );
    assert_eq!(
        rx,
        vec![
            Reception::Message { from: 0 },
            Reception::Message { from: 0 }
        ]
    );
}

/// A 32 × 32 lattice with 3-unit spacing: plenty of genuinely far tiles.
fn spread_lattice() -> Vec<Point> {
    (0..1024)
        .map(|i| Point::new((i % 32) as f64 * 3.0, (i / 32) as f64 * 3.0))
        .collect()
}

/// On a large spread deployment the pruned path must actually settle
/// decisions without the exact scan — otherwise the engine is a no-op and
/// the perf claims are vacuous. (Exactness is separately guaranteed by the
/// oracles; this pins the *pruning* and the counter reconciliation
/// invariant.)
fn assert_settles_spread(positions: &[Point], mut engine: Built) {
    let params = params_with(3.0, 2.0, 1.0, 16.0);
    let ch = SinrChannel::new(params);
    let tx: Vec<usize> = (0..1024).step_by(5).collect();
    let ls: Vec<usize> = (0..1024).filter(|i| i % 5 != 0).collect();
    let mut rng = SmallRng::seed_from_u64(11);
    let exact = ch.resolve(positions, &tx, &ls, &mut rng);
    let round = Round::new(positions, &tx, &ls);
    let fast = resolve_on(
        &ch,
        &round,
        Some(&mut engine),
        &mut SmallRng::seed_from_u64(11),
    );
    assert_eq!(exact, fast);
    let stats = engine.stats();
    let settled = stats.fast_decisions() + stats.noise_floor_silences;
    assert!(
        settled > stats.exact_fallbacks(),
        "pruning should settle most listeners on a spread lattice: {stats:?}"
    );
    // Reconciliation invariant: every listener decision lands in exactly
    // one rung bucket, so the per-rung counters plus the exact-fallback
    // rungs sum to the listeners resolved.
    assert_eq!(
        stats.listeners_resolved(),
        ls.len() as u64,
        "one decision per listener: {stats:?}"
    );
    assert_eq!(
        stats.fast_decisions() + stats.noise_floor_silences + stats.exact_fallbacks(),
        stats.listeners_resolved(),
        "rung counters must reconcile with listeners resolved: {stats:?}"
    );
}

/// The per-α oracles of one tier, 256 cases each. Every test draws its
/// arguments in the same order, so a test name pins its cases.
macro_rules! alpha_oracles {
    ($tier:expr; $($(#[$doc:meta])* fn $name:ident(
        alpha: $alpha:expr, positions: $positions:expr, roles: $roles:expr $(,)?
    );)*) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            $(
                $(#[$doc])*
                #[test]
                fn $name(
                    positions in $positions,
                    roles in prop::collection::vec(0u8..4, $roles),
                    beta in 1.0..4.0f64,
                    noise in 0.0..2.0f64,
                    power in 1.0..1e6f64,
                    drop_prob in 0.0..0.9f64,
                    jam_power in 0.0..100.0f64,
                    noise_scale in 0.25..4.0f64,
                    seed in any::<u64>(),
                ) {
                    prop_assume!(positions.len() >= 2);
                    check_all_channels(
                        $tier, $alpha, &positions, &roles, beta, noise, power, drop_prob,
                        jam_power, noise_scale, seed,
                    );
                }
            )*
        }
    };
}

/// The tier-generic tests: mismatched-engine fallback (proptest) and the
/// radio fallback.
macro_rules! fallback_tests {
    ($tier:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// An engine built for *different* positions or parameters
            /// must be rejected, falling back to the exact path.
            #[test]
            fn mismatched_engine_falls_back_to_exact(
                positions in arb_lattice_positions(3, 24),
                roles in prop::collection::vec(0u8..4, 24),
                seed in any::<u64>(),
            ) {
                check_mismatched_engine($tier, &positions, &roles, seed);
            }
        }

        #[test]
        fn radio_channels_take_the_default_fallback() {
            check_radio_fallback($tier);
        }
    };
}

mod farfield {
    use super::*;

    alpha_oracles! { Tier::FarField;
        /// Decision-exactness oracle at the generic-powf exponent α = 2.5.
        fn farfield_equals_exact_alpha_2_5(
            alpha: 2.5, positions: arb_lattice_positions(2, 48), roles: 48,
        );
        /// Decision-exactness oracle at the fast-path exponent α = 3.
        fn farfield_equals_exact_alpha_3(
            alpha: 3.0, positions: arb_lattice_positions(2, 48), roles: 48,
        );
        /// Decision-exactness oracle at the fast-path exponent α = 4.
        fn farfield_equals_exact_alpha_4(
            alpha: 4.0, positions: arb_lattice_positions(2, 48), roles: 48,
        );
        /// Decision-exactness oracle at the fast-path exponent α = 6.
        fn farfield_equals_exact_alpha_6(
            alpha: 6.0, positions: arb_lattice_positions(2, 48), roles: 48,
        );
    }

    fallback_tests!(Tier::FarField);

    #[test]
    fn pruned_path_settles_decisions_on_spread_deployments() {
        let positions = spread_lattice();
        let params = params_with(3.0, 2.0, 1.0, 16.0);
        let engine = Tier::FarField.build_with_tiling(&positions, &params, 8);
        assert_settles_spread(&positions, engine);
    }
}

mod hierarchical {
    use super::*;

    alpha_oracles! { Tier::Hierarchical;
        /// Decision-exactness oracle at the generic-powf exponent α = 2.5.
        fn hierarchical_equals_exact_alpha_2_5(
            alpha: 2.5, positions: arb_lattice_positions(2, 48), roles: 48,
        );
        /// Decision-exactness oracle at the fast-path exponent α = 3.
        fn hierarchical_equals_exact_alpha_3(
            alpha: 3.0, positions: arb_lattice_positions(2, 48), roles: 48,
        );
        /// Decision-exactness oracle at the fast-path exponent α = 4, on
        /// the clustered generator (coarse-level accepts dominate).
        fn hierarchical_equals_exact_alpha_4_clustered(
            alpha: 4.0, positions: arb_clustered_positions(), roles: 60,
        );
        /// Decision-exactness oracle at the fast-path exponent α = 6, on
        /// the corridor generator (degenerate 1×k pyramid levels).
        fn hierarchical_equals_exact_alpha_6_corridor(
            alpha: 6.0, positions: arb_corridor_positions(2, 48), roles: 48,
        );
    }

    fallback_tests!(Tier::Hierarchical);

    /// The tree must also *accept coarse aggregates* on a spread
    /// deployment, otherwise it degenerates to the flat engine.
    #[test]
    fn pruned_path_settles_decisions_on_spread_deployments() {
        let positions = spread_lattice();
        let params = params_with(3.0, 2.0, 1.0, 16.0);
        let engine = HierarchicalFarFieldEngine::build_with_tiling(&positions, &params, 16)
            .expect("finite deployment");
        assert!(
            engine.tree().num_levels() >= 5,
            "16 tiles per side should yield a 5-level pyramid"
        );
        assert_settles_spread(&positions, Built::Hierarchical(engine));
    }

    /// Runs tasks in reverse index order: a legal schedule under the
    /// `ChunkExecutor` contract that differs from `SerialExecutor`'s, so
    /// any dependence of results on task order shows up as a mismatch.
    struct ReverseExecutor;

    impl ChunkExecutor for ReverseExecutor {
        fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
            for i in (0..num_tasks).rev() {
                task(i);
            }
        }
    }

    /// One round through the tree engine on `executor`.
    fn resolve_tree(
        ch: &SinrChannel,
        round: &Round<'_>,
        engine: &mut HierarchicalFarFieldEngine,
        executor: &dyn ChunkExecutor,
        seed: u64,
    ) -> Vec<Reception> {
        let mut out = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let engine = Engine::Hierarchical(engine, executor);
        ch.resolve_round(round, engine, &mut rng, &mut out, None);
        out
    }

    /// One round that drives every pass of the tree engine past its task
    /// boundaries. A 40 × 40 lattice (every tenth node transmits) fills
    /// 100 of 4096 fine tiles, so the traverse-and-decide pass has more
    /// than one [`HIER_TILE_TASK`]-tile task. A tight cluster of 77
    /// listeners sits in the far corner tile, with no transmitter within
    /// [`HIER_NEAR_RING`] tiles and a noise floor low enough that the far
    /// cap clears it: each of them exits the ladder at rung 3, so the
    /// fallback pass gets two full [`LISTENER_BLOCK`] groups plus a
    /// partial one. A lone transmitter three tiles from the cluster
    /// outshines the distant lattice, so the exact scan must name it as
    /// the cluster's sender. A listener at the origin puts the ring's
    /// clipping at the opposite corner too. Receptions must equal the
    /// exact scan under both executors.
    #[test]
    fn clustered_round_batches_fallbacks_and_clips_corner_rings() {
        let params = params_with(3.0, 2.0, 1e-9, 1.0);
        let ch = SinrChannel::new(params);
        let mut positions: Vec<Point> = (0..1600)
            .map(|i| Point::new((i % 40) as f64 * 4.0, (i / 40) as f64 * 4.0))
            .collect();
        let lone = positions.len();
        positions.push(Point::new(950.0, 1000.0));
        let cluster = 77u64;
        positions.extend((0..cluster).map(|i| {
            Point::new(
                1000.0 + (i % 9) as f64 * 0.25,
                1000.0 + (i / 9) as f64 * 0.25,
            )
        }));
        let mut tx: Vec<usize> = (0..1600).filter(|i| i % 10 == 3).collect();
        tx.push(lone);
        let ls: Vec<usize> = (0..positions.len()).filter(|i| !tx.contains(i)).collect();

        let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(5));
        assert!(
            exact[ls.len() - cluster as usize..]
                .iter()
                .all(|r| *r == Reception::Message { from: lone }),
            "the lone transmitter must reach every cluster listener"
        );
        let round = Round::new(&positions, &tx, &ls);
        let executors: [&dyn ChunkExecutor; 2] = [&SerialExecutor, &ReverseExecutor];
        for executor in executors {
            let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&positions, &params, 64)
                .expect("finite deployment");
            {
                let fine = engine.tree().fine();
                let corner = fine.tile_of(lone + 1);
                assert_eq!(
                    corner,
                    fine.num_tiles() - 1,
                    "cluster must sit in the corner tile"
                );
                assert_eq!(
                    fine.tile_of(0),
                    0,
                    "origin listener must sit in the corner tile"
                );
                let mut tiles: Vec<usize> = ls.iter().map(|&v| fine.tile_of(v)).collect();
                tiles.sort_unstable();
                tiles.dedup();
                assert!(
                    tiles.len() > HIER_TILE_TASK,
                    "need more than one traverse-and-decide task"
                );
                assert!(
                    tx.iter()
                        .all(|&u| fine.chebyshev(corner, fine.tile_of(u)) > HIER_NEAR_RING),
                    "the cluster's near ring must hold no transmitter"
                );
            }
            let fast = resolve_tree(&ch, &round, &mut engine, executor, 5);
            assert_eq!(exact, fast, "tree engine diverged from the exact scan");
            let stats = engine.stats();
            assert_eq!(stats.listeners_resolved(), ls.len() as u64, "{stats:?}");
            assert!(
                stats.no_near_winner_fallbacks >= cluster,
                "every cluster listener must take rung 3: {stats:?}"
            );
            let block = LISTENER_BLOCK as u64;
            assert!(
                stats.exact_fallbacks() > 2 * block
                    && !stats.exact_fallbacks().is_multiple_of(block),
                "need two full fallback groups and a partial one: {stats:?}"
            );
        }
    }

    /// One round where a single fine tile holds more than a
    /// [`LISTENER_BLOCK`] of listeners while every other listener tile
    /// holds exactly one: the blocked near scan runs full [`NEAR_BLOCK`]
    /// blocks and a padded partial one in the crowded tile and a padded
    /// block of one lane everywhere else. A 12 × 12 lattice on a 12 × 12
    /// tiling gives one node per tile; 72 nodes crowd the tile of the
    /// lattice point (50, 50), and every sixth of them transmits, so
    /// neighbouring lanes hear different senders (a lane mix-up changes
    /// receptions). Receptions must equal the exact scan under both
    /// executors, with one decision per listener.
    #[test]
    fn crowded_tile_beside_singletons_matches_exact() {
        let params = params_with(3.0, 1.5, 1e-3, 1.0);
        let ch = SinrChannel::new(params);
        let mut positions: Vec<Point> = (0..144)
            .map(|i| Point::new((i % 12) as f64 * 10.0, (i / 12) as f64 * 10.0))
            .collect();
        let lattice = positions.len();
        positions.extend(
            (0..72).map(|i| Point::new(51.0 + (i % 9) as f64 * 0.45, 51.0 + (i / 9) as f64 * 0.45)),
        );
        let hub = 5 * 12 + 5;
        assert_eq!(positions[hub], Point::new(50.0, 50.0));
        let tx: Vec<usize> = (0..positions.len())
            .filter(|&i| {
                if i < lattice {
                    i % 7 == 2
                } else {
                    (i - lattice).is_multiple_of(6)
                }
            })
            .collect();
        let ls: Vec<usize> = (0..positions.len()).filter(|i| !tx.contains(i)).collect();

        let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(9));
        let mut senders: Vec<usize> = exact
            .iter()
            .filter_map(|r| match *r {
                Reception::Message { from } if from >= lattice => Some(from),
                _ => None,
            })
            .collect();
        senders.sort_unstable();
        senders.dedup();
        assert!(
            senders.len() > 2,
            "crowd listeners must hear different senders: {senders:?}"
        );
        let round = Round::new(&positions, &tx, &ls);
        let executors: [&dyn ChunkExecutor; 2] = [&SerialExecutor, &ReverseExecutor];
        for executor in executors {
            let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&positions, &params, 12)
                .expect("finite deployment");
            {
                let fine = engine.tree().fine();
                let crowded = fine.tile_of(hub);
                let mut per_tile = vec![0usize; fine.num_tiles()];
                for &v in &ls {
                    per_tile[fine.tile_of(v)] += 1;
                }
                assert!(
                    per_tile[crowded] > LISTENER_BLOCK
                        && !per_tile[crowded].is_multiple_of(NEAR_BLOCK),
                    "crowded tile needs full blocks and a partial one: {}",
                    per_tile[crowded]
                );
                assert!(
                    per_tile
                        .iter()
                        .enumerate()
                        .all(|(t, &count)| t == crowded || count <= 1),
                    "every other tile must hold at most one listener"
                );
                assert!(
                    per_tile.iter().filter(|&&count| count == 1).count() > HIER_TILE_TASK,
                    "need singleton tiles in more than one task"
                );
            }
            let fast = resolve_tree(&ch, &round, &mut engine, executor, 9);
            assert_eq!(exact, fast, "tree engine diverged from the exact scan");
            let stats = engine.stats();
            assert_eq!(stats.listeners_resolved(), ls.len() as u64, "{stats:?}");
        }
    }
}
