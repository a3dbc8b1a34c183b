//! Soundness of the far-field interference bounds, plus adversarial
//! deployments engineered to force the exact-fallback rung of the decision
//! ladder.
//!
//! The equivalence oracle (`tier_equivalence.rs`) proves the *end*
//! result is bit-exact; these tests prove the *means*: every cached tile
//! pair's gain interval genuinely brackets the exact per-pair gains (the
//! invariant the decision ladder's correctness argument rests on), and
//! when the bracket cannot separate Message from Silence the engine really
//! does fall back rather than guess.

use fading_channel::{
    pow_alpha, Channel, Engine, FarFieldEngine, Reception, Round, SinrChannel, SinrParams,
    NEAR_RING,
};
use fading_geom::Point;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn params_with(alpha: f64, beta: f64, noise: f64, power: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .beta(beta)
        .noise(noise)
        .power(power)
        .build()
        .expect("strategy stays in the valid range")
}

/// One round through the flat engine, or through the exact scan when
/// `engine` is `None`.
fn resolve_on(
    ch: &SinrChannel,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    engine: Option<&mut FarFieldEngine>,
    seed: u64,
) -> Vec<Reception> {
    let mut out = Vec::new();
    let engine = engine.map_or(Engine::Exact, Engine::FarField);
    let mut rng = SmallRng::seed_from_u64(seed);
    ch.resolve_round(
        &Round::new(positions, tx, ls),
        engine,
        &mut rng,
        &mut out,
        None,
    );
    out
}

/// Clustered deployments: a handful of dense clumps with wide gaps between
/// them, the geometry the tile bounds have to work hardest on.
fn arb_clustered_positions() -> impl Strategy<Value = Vec<Point>> {
    let cluster = (
        0.0..200.0f64,
        0.0..200.0f64,
        prop::collection::vec((0.0..2.0f64, 0.0..2.0f64), 1..12),
    );
    prop::collection::vec(cluster, 1..6).prop_map(|clusters| {
        clusters
            .into_iter()
            .flat_map(|(cx, cy, members)| {
                members
                    .into_iter()
                    .map(move |(dx, dy)| Point::new(cx + dx, cy + dy))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every occupied tile pair and every exponent, the cached
    /// `[g_lo, g_hi]` interval must bracket the exact gain of every member
    /// pair. This is the load-bearing invariant: if it ever failed, the
    /// decision ladder could emit a wrong-but-confident reception.
    #[test]
    fn pair_gain_bounds_bracket_exact_gains(
        positions in arb_clustered_positions(),
        alpha_idx in 0usize..4,
        power in 1.0..1e6f64,
        tiles_per_side in 2usize..9,
    ) {
        let alpha = [2.5, 3.0, 4.0, 6.0][alpha_idx];
        let params = params_with(alpha, 2.0, 1.0, power);
        let engine = FarFieldEngine::build_with_tiling(&positions, &params, tiles_per_side)
            .expect("finite positions must build");
        let tiles = engine.tiles();
        let num_tiles = tiles.num_tiles();
        for t in 0..num_tiles {
            for s in 0..num_tiles {
                let Some((g_lo, g_hi)) = engine.pair_gain_bounds(t, s) else {
                    continue;
                };
                prop_assert!(g_lo >= 0.0);
                prop_assert!(g_lo <= g_hi);
                for (v, pv) in positions.iter().enumerate() {
                    if tiles.tile_of(v) != t {
                        continue;
                    }
                    for (u, pu) in positions.iter().enumerate() {
                        if u == v || tiles.tile_of(u) != s {
                            continue;
                        }
                        let exact = power / pow_alpha(pv.distance_sq(*pu), alpha);
                        prop_assert!(
                            g_lo <= exact && exact <= g_hi,
                            "gain {exact} of pair ({v}, {u}) escapes bracket \
                             [{g_lo}, {g_hi}] of tiles ({t}, {s}) at alpha {alpha}"
                        );
                    }
                }
            }
        }
    }

    /// The lazily-aggregated far field for a listener's tile must bracket
    /// the exact interference sum over all far transmitters, checked
    /// end-to-end through a resolve: receptions match the exact path on
    /// clustered adversarial geometry.
    #[test]
    fn clustered_geometry_stays_exact(
        positions in arb_clustered_positions(),
        roles in prop::collection::vec(0u8..4, 60),
        alpha_idx in 0usize..4,
        beta in 1.0..4.0f64,
        power in 1.0..1e6f64,
        tiles_per_side in 2usize..9,
        seed in any::<u64>(),
    ) {
        let alpha = [2.5, 3.0, 4.0, 6.0][alpha_idx];
        let params = params_with(alpha, beta, 1.0, power);
        let ch = SinrChannel::new(params);
        let mut tx = Vec::new();
        let mut ls = Vec::new();
        for i in 0..positions.len() {
            match roles.get(i).copied().unwrap_or(1) % 4 {
                0 => tx.push(i),
                1 | 2 => ls.push(i),
                _ => {}
            }
        }
        let mut engine = FarFieldEngine::build_with_tiling(&positions, &params, tiles_per_side);
        let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(seed));
        let fast = resolve_on(&ch, &positions, &tx, &ls, engine.as_mut(), seed);
        prop_assert_eq!(exact, fast);
    }
}

/// Adversarial margin case: parameters tuned so the SINR decision sits
/// *exactly* on the `best_sig == beta * denom` boundary. No finite bracket
/// slack can separate the two outcomes, so the engine must take the exact
/// fallback — and still agree with `resolve` bit-for-bit.
///
/// Geometry (α = 4, P = 16, β = 2, noise = 1):
///   listener 0 at the origin, near transmitter 1 at (1, 1) ⇒
///   `sig = 16 / (1² + 1²)² = 4` exactly; four far transmitters coincident
///   at (2, 2) ⇒ each contributes `16 / (2² + 2²)² = 0.25`, summing to
///   exactly 1.0 (all powers of two, no rounding anywhere). Then
///   `denom = noise + I = 2.0` and `beta * denom = 4.0 = sig`: a decision
///   on the knife edge (`>=` succeeds, but no strict inequality holds), so
///   the widened bracket must straddle it and bail out.
#[test]
fn knife_edge_margin_forces_exact_fallback() {
    let params = params_with(4.0, 2.0, 1.0, 16.0);
    let ch = SinrChannel::new(params);

    let mut positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
    // Four coincident far transmitters whose interference sums to
    // exactly 1.0.
    for _ in 0..4 {
        positions.push(Point::new(2.0, 2.0));
    }
    // Pad the bounding box to [0, 8]² so an 8×8 tiling gives unit cells:
    // the near transmitter lands in tile (1, 1) (inside the near ring) and
    // the cluster in tile (2, 2) (genuinely far).
    positions.push(Point::new(8.0, 8.0));

    let tx: Vec<usize> = vec![1, 2, 3, 4, 5];
    let ls: Vec<usize> = vec![0];
    let mut engine = FarFieldEngine::build_with_tiling(&positions, &params, 8);

    // Sanity: the far cluster is genuinely outside the near ring.
    {
        let e = engine.as_ref().unwrap();
        let t0 = e.tiles().tile_of(0);
        let t2 = e.tiles().tile_of(2);
        assert!(
            e.tiles().chebyshev(t0, t2) > NEAR_RING,
            "test geometry regressed: far cluster fell inside the near ring"
        );
    }

    let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(7));
    let fast = resolve_on(&ch, &positions, &tx, &ls, engine.as_mut(), 7);
    assert_eq!(exact, fast);
    // The margin is exactly zero, so the bracket cannot settle it: the
    // decision must have come from the exact fallback rung.
    let stats = engine.unwrap().stats();
    assert_eq!(
        stats.exact_fallbacks(),
        1,
        "knife-edge listener should fall back to the exact scan: {stats:?}"
    );
    assert_eq!(
        stats.bracket_straddle_fallbacks, 1,
        "a zero-margin decision is precisely a bracket straddle: {stats:?}"
    );
    // And the decision itself sits on the boundary: `>=` admits it.
    assert_eq!(exact, vec![Reception::Message { from: 1 }]);
}

/// Far-only decode: the strongest signal lives *outside* the near ring, so
/// the near scan finds no candidate sender at all. The ladder has no
/// near-field winner to bracket and must fall back — and the fallback must
/// recover the far winner exactly.
#[test]
fn far_only_cluster_forces_fallback_and_decodes() {
    let params = params_with(3.0, 1.5, 0.1, 1e6);
    let ch = SinrChannel::new(params);

    // Listener alone in one corner; a single strong transmitter in the
    // opposite corner (far under any multi-tile layout).
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(30.0, 30.0),
        Point::new(15.0, 0.0),
    ];
    let tx = vec![1];
    let ls = vec![0];
    let mut engine = FarFieldEngine::build_with_tiling(&positions, &params, 8);
    {
        let e = engine.as_ref().unwrap();
        let t0 = e.tiles().tile_of(0);
        let t1 = e.tiles().tile_of(1);
        assert!(e.tiles().chebyshev(t0, t1) > NEAR_RING);
    }

    let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(21));
    let fast = resolve_on(&ch, &positions, &tx, &ls, engine.as_mut(), 21);
    assert_eq!(exact, fast);
    assert_eq!(
        exact,
        vec![Reception::Message { from: 1 }],
        "the far transmitter should decode: sig = 10⁶/(30√2)³ ≈ 13.1 ≫ β·noise"
    );
    let stats = engine.unwrap().stats();
    assert!(
        stats.exact_fallbacks() >= 1,
        "a decodable far-only sender cannot be settled by bounds alone: {stats:?}"
    );
    assert!(
        stats.no_near_winner_fallbacks >= 1,
        "with no near candidate the ladder must exit at rung 3: {stats:?}"
    );
}
