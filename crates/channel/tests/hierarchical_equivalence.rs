//! Decision-exactness oracle for the hierarchical (tile-tree) far-field
//! engine.
//!
//! The contract under test ([`Channel::resolve_hierarchical`]) is the same
//! *bit-exact* equivalence the flat engine guarantees: resolving a round
//! through a [`HierarchicalFarFieldEngine`] must yield a `Reception`
//! vector **identical** (`==`, not approximately equal) to the exact
//! paths — `resolve` for neutral perturbations, `resolve_perturbed` for
//! faulted rounds — while consuming the channel rng identically. The
//! property tests drive arbitrary deployments, transmitter/listener
//! partitions, parameter draws, and perturbations (noise scaling +
//! per-node jammer interference) through both paths for each path-loss
//! exponent the experiments use (`α ∈ {2.5, 3, 4, 6}`), 256 cases per
//! exponent. Two generator families deliberately stress the tree:
//! **clustered** fields (tight blobs separated by hundreds of units, so
//! coarse aggregates are accepted levels above the fine tiles) and
//! **corridor** fields (long thin strips, so the ceil-halving pyramid
//! degenerates to 1×k levels). A deterministic clustered round pins the
//! round-level paths: batched exact fallbacks (full and partial
//! `LISTENER_BLOCK` groups), ring clipping at corner tiles, and multiple
//! traverse-and-decide tasks under a reversed executor; a second one puts
//! more than a `LISTENER_BLOCK` of listeners in one tile beside singleton
//! tiles, so the blocked near scan runs full and padded `NEAR_BLOCK`
//! blocks.

use fading_channel::kernels::{LISTENER_BLOCK, NEAR_BLOCK};
use fading_channel::{
    Channel, ChannelPerturbation, ChunkExecutor, HierarchicalFarFieldEngine, LossySinrChannel,
    RadioChannel, RayleighSinrChannel, Reception, SerialExecutor, SinrChannel, SinrParams,
    HIER_NEAR_RING, HIER_TILE_TASK,
};
use fading_geom::Point;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

/// Asserts bit-exact hierarchical/exact equivalence (receptions *and*
/// final rng state) for one channel on one scenario, neutral and faulted.
fn assert_hierarchical_equiv<C: Channel>(
    ch: &C,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    engine: &mut Option<HierarchicalFarFieldEngine>,
    perturbation: &ChannelPerturbation<'_>,
    seed: u64,
) {
    let executor = SerialExecutor;
    // Neutral round: hierarchical vs plain resolve.
    let mut rng_exact = SmallRng::seed_from_u64(seed);
    let mut rng_fast = SmallRng::seed_from_u64(seed);
    let exact = ch.resolve(positions, tx, ls, &mut rng_exact);
    let fast = ch.resolve_hierarchical(
        positions,
        tx,
        ls,
        engine.as_mut(),
        &executor,
        &ChannelPerturbation::neutral(),
        &mut rng_fast,
    );
    assert_eq!(
        exact,
        fast,
        "hierarchical receptions diverged on the clean path ({}, n={}, tx={}, ls={}, seed={seed})",
        ch.name(),
        positions.len(),
        tx.len(),
        ls.len()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "hierarchical path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );

    // Faulted round: hierarchical vs resolve_perturbed under the same
    // noise-scale + jammer perturbation.
    let mut rng_exact = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut rng_fast = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let exact = ch.resolve_perturbed(positions, tx, ls, perturbation, &mut rng_exact);
    let fast = ch.resolve_hierarchical(
        positions,
        tx,
        ls,
        engine.as_mut(),
        &executor,
        perturbation,
        &mut rng_fast,
    );
    assert_eq!(
        exact,
        fast,
        "hierarchical receptions diverged on the faulted path ({}, seed={seed})",
        ch.name()
    );
    assert_eq!(
        rng_exact,
        rng_fast,
        "hierarchical faulted path consumed the rng differently ({}, seed={seed})",
        ch.name()
    );
}

/// The full per-case oracle: SINR and lossy SINR take the pruned path
/// (engines forced to a multi-tile fine grid so the pyramid has real
/// depth); Rayleigh builds no engine and must fall back wholesale.
#[allow(clippy::too_many_arguments)] // mirrors the proptest argument list
fn check_all_channels(
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
    // Forced 8-per-side fine grid ⇒ a 4-level pyramid (8 → 4 → 2 → 1),
    // so coarse-level accepts genuinely happen at these small n.
    let mut engine = HierarchicalFarFieldEngine::build_with_tiling(positions, &params, 8);
    assert!(engine.is_some(), "multi-level engine must build");
    assert!(
        engine.as_ref().is_some_and(|e| e.tree().num_levels() >= 4),
        "forced tiling should produce a multi-level pyramid"
    );
    assert_hierarchical_equiv(&sinr, positions, &tx, &ls, &mut engine, &perturbation, seed);
    // And through the production builder (small n ⇒ shallow tree, the
    // near scan dominates).
    let mut default_engine = sinr.build_hierarchical_engine(positions);
    assert!(default_engine.is_some());
    assert_hierarchical_equiv(
        &sinr,
        positions,
        &tx,
        &ls,
        &mut default_engine,
        &perturbation,
        seed,
    );

    let lossy = LossySinrChannel::new(params, drop_prob).expect("drop_prob in [0, 1)");
    let mut lengine = HierarchicalFarFieldEngine::build_with_tiling(positions, &params, 8);
    assert_hierarchical_equiv(
        &lossy,
        positions,
        &tx,
        &ls,
        &mut lengine,
        &perturbation,
        seed,
    );

    // Rayleigh: no engine by contract (per-pair rng draws); the trait
    // default must fall back and stay exact.
    let rayleigh = RayleighSinrChannel::new(params);
    assert!(rayleigh.build_hierarchical_engine(positions).is_none());
    let mut none = None;
    assert_hierarchical_equiv(
        &rayleigh,
        positions,
        &tx,
        &ls,
        &mut none,
        &perturbation,
        seed,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decision-exactness oracle at the generic-powf exponent α = 2.5.
    #[test]
    fn hierarchical_equals_exact_alpha_2_5(
        positions in arb_lattice_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            2.5, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the fast-path exponent α = 3.
    #[test]
    fn hierarchical_equals_exact_alpha_3(
        positions in arb_lattice_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            3.0, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the fast-path exponent α = 4, on the
    /// clustered generator (coarse-level accepts dominate).
    #[test]
    fn hierarchical_equals_exact_alpha_4_clustered(
        positions in arb_clustered_positions(),
        roles in prop::collection::vec(0u8..4, 60),
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
            4.0, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// Decision-exactness oracle at the fast-path exponent α = 6, on the
    /// corridor generator (degenerate 1×k pyramid levels).
    #[test]
    fn hierarchical_equals_exact_alpha_6_corridor(
        positions in arb_corridor_positions(2, 48),
        roles in prop::collection::vec(0u8..4, 48),
        beta in 1.0..4.0f64,
        noise in 0.0..2.0f64,
        power in 1.0..1e6f64,
        drop_prob in 0.0..0.9f64,
        jam_power in 0.0..100.0f64,
        noise_scale in 0.25..4.0f64,
        seed in any::<u64>(),
    ) {
        check_all_channels(
            6.0, &positions, &roles, beta, noise, power, drop_prob, jam_power, noise_scale, seed,
        );
    }

    /// An engine built for *different* positions or parameters must be
    /// rejected, falling back to the exact (still correct) path.
    #[test]
    fn mismatched_engine_falls_back_to_exact(
        positions in arb_lattice_positions(3, 24),
        roles in prop::collection::vec(0u8..4, 24),
        seed in any::<u64>(),
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let params = params_with(3.0, 2.0, 1.0, 1e4);
        let ch = SinrChannel::new(params);
        let neutral = ChannelPerturbation::neutral();

        // Wrong node count: engine over a prefix of the deployment.
        let mut stale =
            HierarchicalFarFieldEngine::build(&positions[..positions.len() - 1], &params);
        assert_hierarchical_equiv(&ch, &positions, &tx, &ls, &mut stale, &neutral, seed);

        // Wrong parameters: engine built under a different power.
        let other = params_with(3.0, 2.0, 1.0, 2e4);
        let mut wrong = HierarchicalFarFieldEngine::build(&positions, &other);
        assert_hierarchical_equiv(&ch, &positions, &tx, &ls, &mut wrong, &neutral, seed);

        // No engine at all.
        let mut none = None;
        assert_hierarchical_equiv(&ch, &positions, &tx, &ls, &mut none, &neutral, seed);
    }
}

#[test]
fn radio_channels_take_the_default_fallback() {
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(2.0, 0.0),
    ];
    let radio = RadioChannel::new();
    assert!(radio.build_hierarchical_engine(&positions).is_none());

    // Handing the geometry-free model a foreign engine must not change its
    // semantics (the default trait impl ignores it).
    let params = params_with(3.0, 2.0, 1.0, 1e4);
    let mut foreign = HierarchicalFarFieldEngine::build(&positions, &params);
    let rx = radio.resolve_hierarchical(
        &positions,
        &[0],
        &[1, 2],
        foreign.as_mut(),
        &SerialExecutor,
        &ChannelPerturbation::neutral(),
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

/// On a large spread deployment the tree traversal must both *accept
/// coarse aggregates* (otherwise it degenerates to the flat engine) and
/// *settle decisions without the exact scan* (otherwise the perf claims
/// are vacuous). Exactness is separately guaranteed by the oracles above;
/// this pins the pruning plus the counter reconciliation invariant.
#[test]
fn pruned_path_settles_decisions_on_spread_deployments() {
    let params = params_with(3.0, 2.0, 1.0, 16.0);
    // 32 × 32 lattice with 3-unit spacing: plenty of genuinely far tiles.
    let positions: Vec<Point> = (0..1024)
        .map(|i| Point::new((i % 32) as f64 * 3.0, (i / 32) as f64 * 3.0))
        .collect();
    let ch = SinrChannel::new(params);
    let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&positions, &params, 16);
    assert!(
        engine.as_ref().is_some_and(|e| e.tree().num_levels() >= 5),
        "16 tiles per side should yield a 5-level pyramid"
    );
    let tx: Vec<usize> = (0..1024).step_by(5).collect();
    let ls: Vec<usize> = (0..1024).filter(|i| i % 5 != 0).collect();
    let mut rng = SmallRng::seed_from_u64(11);
    let exact = ch.resolve(&positions, &tx, &ls, &mut rng);
    let fast = ch.resolve_hierarchical(
        &positions,
        &tx,
        &ls,
        engine.as_mut(),
        &SerialExecutor,
        &ChannelPerturbation::neutral(),
        &mut SmallRng::seed_from_u64(11),
    );
    assert_eq!(exact, fast);
    let stats = engine.unwrap().stats();
    let settled = stats.fast_decisions() + stats.noise_floor_silences;
    assert!(
        settled > stats.exact_fallbacks(),
        "pruning should settle most listeners on a spread lattice: {stats:?}"
    );
    // Reconciliation invariant (acceptance criterion): every listener
    // decision lands in exactly one rung bucket.
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

/// Runs tasks in reverse index order: a legal schedule under the
/// `ChunkExecutor` contract that differs from `SerialExecutor`'s, so any
/// dependence of results on task order shows up as a mismatch.
struct ReverseExecutor;

impl ChunkExecutor for ReverseExecutor {
    fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in (0..num_tasks).rev() {
            task(i);
        }
    }
}

/// One round that drives every pass of the tree engine past its task
/// boundaries. A 40 × 40 lattice (every tenth node transmits) fills 100
/// of 4096 fine tiles, so the traverse-and-decide pass has more than one
/// [`HIER_TILE_TASK`]-tile task. A tight cluster of
/// 77 listeners sits in the far corner tile, with no transmitter within
/// [`HIER_NEAR_RING`] tiles and a noise floor low enough that the far cap
/// clears it: each of them exits the ladder at rung 3, so the fallback
/// pass gets two full [`LISTENER_BLOCK`] groups plus a partial one. A lone
/// transmitter three tiles from the cluster outshines the distant lattice,
/// so the exact scan must name it as the cluster's sender. A listener at
/// the origin puts the ring's clipping at the opposite corner too.
/// Receptions must equal the exact scan under both executors.
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
        let fast = ch.resolve_hierarchical(
            &positions,
            &tx,
            &ls,
            Some(&mut engine),
            executor,
            &ChannelPerturbation::neutral(),
            &mut SmallRng::seed_from_u64(5),
        );
        assert_eq!(exact, fast, "tree engine diverged from the exact scan");
        let stats = engine.stats();
        assert_eq!(stats.listeners_resolved(), ls.len() as u64, "{stats:?}");
        assert!(
            stats.no_near_winner_fallbacks >= cluster,
            "every cluster listener must take rung 3: {stats:?}"
        );
        let block = LISTENER_BLOCK as u64;
        assert!(
            stats.exact_fallbacks() > 2 * block && !stats.exact_fallbacks().is_multiple_of(block),
            "need two full fallback groups and a partial one: {stats:?}"
        );
    }
}

/// One round where a single fine tile holds more than a
/// [`LISTENER_BLOCK`] of listeners while every other listener tile holds
/// exactly one: the blocked near scan runs full [`NEAR_BLOCK`] blocks and
/// a padded partial one in the crowded tile and a padded block of one
/// lane everywhere else. A 12 × 12 lattice on a 12 × 12 tiling gives
/// one node per tile; 72 nodes crowd the tile of the lattice point
/// (50, 50), and every sixth of them transmits, so neighbouring lanes
/// hear different senders (a lane mix-up changes receptions). Receptions
/// must equal the exact scan under both executors, with one decision per
/// listener.
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
                per_tile[crowded] > LISTENER_BLOCK && !per_tile[crowded].is_multiple_of(NEAR_BLOCK),
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
        let fast = ch.resolve_hierarchical(
            &positions,
            &tx,
            &ls,
            Some(&mut engine),
            executor,
            &ChannelPerturbation::neutral(),
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(exact, fast, "tree engine diverged from the exact scan");
        let stats = engine.stats();
        assert_eq!(stats.listeners_resolved(), ls.len() as u64, "{stats:?}");
    }
}
