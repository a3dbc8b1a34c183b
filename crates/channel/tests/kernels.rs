//! Kernel-contract suite: the batched SoA kernels must be **bit-identical**
//! to the scalar hot path (DESIGN.md §15, "summation-order contract").
//!
//! Three families of properties:
//!
//! 1. `pow_alpha_batch` ≡ scalar `pow_alpha` element-wise — bit-exact for
//!    the integer-exponent fast paths, ≤ 1e-9 relative for the generic
//!    `powf` class (mirroring `pow_alpha_fast_paths_match_generic_powf`);
//!    in fact the batch is bit-exact for the generic class too, which the
//!    test pins.
//! 2. `PointsSoA` stays coherent with the canonical `Vec<Point>` through
//!    arbitrary churn (push / overwrite / rebuild), and `gather` preserves
//!    id order bit-for-bit.
//! 3. The batched scan (the public `resolve`) is bit-identical to a scalar
//!    reference fold written out here — including the first-strict-max
//!    tie-break, exercised with mirror-symmetric (equal-gain) transmitters.
//! 4. The blocked near kernel (`near_block`), carried across several
//!    spans, is bit-identical per lane to the per-listener near fold
//!    (sum in span order, winner = smallest slice index among the exact
//!    maxima) — full and padded blocks, and an exact tie whose
//!    later-positioned entry holds the smaller slice index.

use fading_channel::kernels::{
    distance_sq_batch, fold_scan, gain_batch, near_block, pow_alpha_batch, NearLanes, NEAR_BLOCK,
};
use fading_channel::{pow_alpha, Channel, Reception, SinrChannel, SinrParams};
use fading_geom::{Point, PointsSoA};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn params_with_alpha(alpha: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .beta(1.5)
        .noise(0.5)
        .power(1e4)
        .build()
        .expect("valid test params")
}

/// Distinct points on a jittered lattice (guaranteed non-coincident).
fn arb_positions(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..0.4f64, 0.0..0.4f64), min..=max).prop_map(|jitters| {
        let side = (jitters.len() as f64).sqrt().ceil() as usize;
        jitters
            .iter()
            .enumerate()
            .map(|(i, &(jx, jy))| Point::new((i % side) as f64 + jx, (i / side) as f64 + jy))
            .collect()
    })
}

/// The path-loss exponents the kernels monomorphize over: every fast-path
/// class plus a generic (`powf`) representative.
const ALPHAS: [f64; 5] = [2.0, 2.5, 3.0, 4.0, 6.0];

/// The subset valid at the channel level (`SinrParams` requires α > 2;
/// the α = 2 kernel class exists for raw-kernel consumers and benches).
const CHANNEL_ALPHAS: [f64; 4] = [2.5, 3.0, 4.0, 6.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Oracle: `pow_alpha_batch` agrees with the scalar `pow_alpha`
    /// element-wise across the full dynamic range of squared distances —
    /// bit-exact for every class (the batch runs the *same* arithmetic;
    /// for the generic class `α·0.5` is precomputed, which IEEE-754
    /// guarantees is exact, so `powf` sees identical arguments).
    #[test]
    fn pow_alpha_batch_matches_scalar_oracle(
        // Log-uniform d² over (1e-30, 1e12]: tiny and huge distances get
        // equal weight, like the scalar fast-path oracle.
        samples in prop::collection::vec((-30.0..12.0f64, 1.0..10.0f64), 1..64),
        alpha in 2.1..6.0f64,
    ) {
        let d_sq: Vec<f64> = samples.iter().map(|&(e, m)| m * 10f64.powf(e)).collect();
        let mut out = vec![0.0; d_sq.len()];
        // The drawn generic exponent, plus every fast-path class.
        for &a in ALPHAS.iter().chain(std::iter::once(&alpha)) {
            pow_alpha_batch(a, &d_sq, &mut out);
            for (i, &d) in d_sq.iter().enumerate() {
                let scalar = pow_alpha(d, a);
                // Bit-exact across all classes...
                prop_assert_eq!(
                    out[i].to_bits(), scalar.to_bits(),
                    "alpha={} d_sq={} batch={} scalar={}", a, d, out[i], scalar
                );
                // ...which trivially implies the documented ≤1e-9 relative
                // bound for the generic class.
                prop_assert!((out[i] - scalar).abs() <= 1e-9 * scalar.abs());
            }
        }
    }

    /// The fused gain batch is bit-identical to the canonical per-pair
    /// expression `P / pow_alpha(Point::distance_sq(u, v), α)`, and the
    /// distance batch to `Point::distance_sq`, for every exponent class.
    #[test]
    fn gain_and_distance_batches_match_point_arithmetic(
        positions in arb_positions(2, 32),
        (lvx, lvy) in (-5.0..45.0f64, -5.0..45.0f64),
        power in 1.0..1e6f64,
    ) {
        let v = Point::new(lvx, lvy);
        let soa = PointsSoA::from_points(&positions);
        let mut d_out = vec![0.0; positions.len()];
        let mut g_out = vec![0.0; positions.len()];
        distance_sq_batch(soa.xs(), soa.ys(), v.x, v.y, &mut d_out);
        for (i, p) in positions.iter().enumerate() {
            prop_assert_eq!(d_out[i].to_bits(), p.distance_sq(v).to_bits());
        }
        for &alpha in &ALPHAS {
            gain_batch(power, alpha, soa.xs(), soa.ys(), v.x, v.y, &mut g_out);
            for (i, p) in positions.iter().enumerate() {
                let want = power / pow_alpha(p.distance_sq(v), alpha);
                prop_assert_eq!(
                    g_out[i].to_bits(), want.to_bits(),
                    "alpha={} i={}", alpha, i
                );
            }
        }
    }

    /// SoA/AoS coherence under churn: an arbitrary interleaving of pushes,
    /// overwrites, gathers, and rebuilds leaves `PointsSoA` bit-coherent
    /// with the canonical `Vec<Point>` it mirrors (the engines' build-time
    /// mirror plus the per-round coordinate buckets reduce to exactly
    /// these operations).
    #[test]
    fn points_soa_stays_coherent_through_churn(
        seed_points in arb_positions(1, 16),
        ops in prop::collection::vec((0u8..4, 0usize..64, -10.0..10.0f64, -10.0..10.0f64), 0..48),
    ) {
        let mut aos: Vec<Point> = seed_points.clone();
        let mut soa = PointsSoA::from_points(&seed_points);
        for &(op, idx, x, y) in &ops {
            match op {
                0 => {
                    // Push a fresh point to both representations.
                    aos.push(Point::new(x, y));
                    soa.push(Point::new(x, y));
                }
                1 if !aos.is_empty() => {
                    // Overwrite an existing slot (churn repositions a node).
                    let i = idx % aos.len();
                    aos[i] = Point::new(x, y);
                    soa.set(i, Point::new(x, y));
                }
                2 if !aos.is_empty() => {
                    // Gather a rotated id permutation and check bit-order.
                    let ids: Vec<usize> =
                        (0..aos.len()).map(|i| (i + idx) % aos.len()).collect();
                    let mut gx = Vec::new();
                    let mut gy = Vec::new();
                    soa.gather(&ids, &mut gx, &mut gy);
                    for (k, &id) in ids.iter().enumerate() {
                        prop_assert_eq!(gx[k].to_bits(), aos[id].x.to_bits());
                        prop_assert_eq!(gy[k].to_bits(), aos[id].y.to_bits());
                    }
                }
                3 => {
                    // Rebuild from scratch (deployment reload).
                    soa = PointsSoA::from_points(&aos);
                }
                _ => {}
            }
            prop_assert!(soa.matches(&aos), "SoA diverged after op {:?}", op);
            prop_assert_eq!(soa.len(), aos.len());
        }
        // Full round-trip at the end: every coordinate bit-equal.
        for (i, p) in aos.iter().enumerate() {
            prop_assert_eq!(soa.point(i).x.to_bits(), p.x.to_bits());
            prop_assert_eq!(soa.point(i).y.to_bits(), p.y.to_bits());
        }
    }

    /// End-to-end scan equivalence: `resolve` (batched SoA kernels +
    /// slice-order fold) must agree with a scalar reference fold written
    /// out below, for every exponent class. This pins the winner and the
    /// accumulated total — any reassociation of the sum or slip of the
    /// first-strict-max rule shows up as a reception flip near the
    /// threshold.
    #[test]
    fn batched_resolve_matches_scalar_reference(
        positions in arb_positions(3, 24),
        tx_mask in prop::collection::vec(any::<bool>(), 24),
        alpha_idx in 0usize..CHANNEL_ALPHAS.len(),
    ) {
        let alpha = CHANNEL_ALPHAS[alpha_idx];
        let params = params_with_alpha(alpha);
        let ch = SinrChannel::new(params);
        let n = positions.len();
        let transmitters: Vec<usize> =
            (0..n).filter(|&i| tx_mask.get(i).copied().unwrap_or(false)).collect();
        let listeners: Vec<usize> =
            (0..n).filter(|&i| !tx_mask.get(i).copied().unwrap_or(false)).collect();

        let mut rng = SmallRng::seed_from_u64(1);
        let batched = ch.resolve(&positions, &transmitters, &listeners, &mut rng);

        // Scalar reference: the canonical fold, written out longhand.
        for (k, &v) in listeners.iter().enumerate() {
            let vp = positions[v];
            let mut total = 0.0;
            let mut best_sig = 0.0;
            let mut best_tx = None;
            for &u in &transmitters {
                let sig = params.power() / pow_alpha(positions[u].distance_sq(vp), alpha);
                total += sig;
                if sig > best_sig {
                    best_sig = sig;
                    best_tx = Some(u);
                }
            }
            let denom = params.noise() + (total - best_sig);
            let want = match best_tx {
                Some(u) if best_sig >= params.beta() * denom => Reception::Message { from: u },
                _ => Reception::Silence,
            };
            prop_assert_eq!(batched[k], want, "listener {} alpha={}", v, alpha);
        }
    }
}

/// The tie-break, deterministically: two transmitters mirror-symmetric
/// about the listener produce bit-equal gains; the canonical rule keeps
/// the *earlier slice index*, in both transmitter orderings.
#[test]
fn batched_scan_keeps_first_strict_max_on_exact_ties() {
    let params = params_with_alpha(3.0);
    let ch = SinrChannel::new(params);
    // Listener at the origin; transmitters at (d, 0) and (-d, 0) have
    // bit-identical squared distances, hence bit-identical gains.
    let positions = [
        Point::new(0.0, 0.0),
        Point::new(1.25, 0.0),
        Point::new(-1.25, 0.0),
    ];
    for tx in [[1usize, 2], [2usize, 1]] {
        let mut rng = SmallRng::seed_from_u64(0);
        let batched = ch.resolve(&positions, &tx, &[0], &mut rng);
        // With β = 1.5 > 1 and two equal signals the SINR is ~1, so the
        // decode fails in either order — but the *fold* still has a
        // well-defined winner. Check it directly through fold_scan on
        // hand-built gains.
        assert_eq!(
            batched,
            [Reception::Silence],
            "tie diverged for order {tx:?}"
        );
    }
    // fold_scan itself: equal gains keep the earlier index.
    let g = params.power() / pow_alpha(positions[1].distance_sq(positions[0]), 3.0);
    let fold = fold_scan(&[g, g]);
    assert_eq!(fold.best_idx, Some(0), "tie must keep the earlier index");
    let fold_rev = fold_scan(&[g * 0.5, g]);
    assert_eq!(fold_rev.best_idx, Some(1), "strict max must win");
}

/// One span of a tile-sorted transmitter layout: SoA coordinates plus
/// each entry's transmitter slice index.
struct Span {
    xs: Vec<f64>,
    ys: Vec<f64>,
    idx: Vec<u32>,
}

/// The per-listener near fold the blocked kernel replaces, written out
/// scalar: `(sum, best_sig, best slice index or u32::MAX)` over the spans
/// in order, the winner moving on a strict maximum or on an exact
/// positive tie with a smaller slice index.
fn near_fold_reference(power: f64, alpha: f64, spans: &[Span], v: Point) -> (f64, f64, u32) {
    let (mut sum, mut best, mut best_idx) = (0.0f64, 0.0f64, u32::MAX);
    for span in spans {
        for ((&x, &y), &i) in span.xs.iter().zip(&span.ys).zip(&span.idx) {
            let g = power / pow_alpha(Point::new(x, y).distance_sq(v), alpha);
            sum += g;
            if g > best {
                best = g;
                best_idx = i;
            } else if g == best && g > 0.0 && i < best_idx {
                best_idx = i;
            }
        }
    }
    (sum, best, best_idx)
}

/// Runs `listeners` through `near_block` in [`NEAR_BLOCK`] blocks (the
/// last one padded with copies of its first lane), carrying each block's
/// lanes across every span, and checks each real lane bit-for-bit
/// against [`near_fold_reference`].
fn assert_near_blocks_match_reference(power: f64, alpha: f64, spans: &[Span], listeners: &[Point]) {
    for block in listeners.chunks(NEAR_BLOCK) {
        let mut vx = [block[0].x; NEAR_BLOCK];
        let mut vy = [block[0].y; NEAR_BLOCK];
        for (j, v) in block.iter().enumerate() {
            vx[j] = v.x;
            vy[j] = v.y;
        }
        let mut lanes = NearLanes::default();
        for span in spans {
            near_block(
                power, alpha, &span.xs, &span.ys, &span.idx, &vx, &vy, &mut lanes,
            );
        }
        for (j, &v) in block.iter().enumerate() {
            let (sum, best, best_idx) = near_fold_reference(power, alpha, spans, v);
            assert_eq!(
                lanes.sum[j].to_bits(),
                sum.to_bits(),
                "alpha={alpha} lane {j} sum"
            );
            assert_eq!(
                lanes.best_sig[j].to_bits(),
                best.to_bits(),
                "alpha={alpha} lane {j} best_sig"
            );
            assert_eq!(lanes.best_idx[j], best_idx, "alpha={alpha} lane {j} winner");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Oracle for the blocked near kernel: arbitrary transmitters split
    /// into up to five spans (empty ones included) with shuffled slice
    /// indices (repeats included), and listener counts that leave full
    /// blocks, a padded partial block, or a single padded lane.
    #[test]
    fn near_block_lanes_match_the_per_listener_fold(
        txs in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64, 0u32..1000), 0..60),
        cuts in prop::collection::vec(0usize..60, 4),
        listeners in prop::collection::vec((-20.0..20.0f64, -20.0..20.0f64), 1..=2 * NEAR_BLOCK + 3),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(txs.len())).collect();
        cuts.sort_unstable();
        let bounds: Vec<usize> =
            std::iter::once(0).chain(cuts).chain(std::iter::once(txs.len())).collect();
        let spans: Vec<Span> = bounds
            .windows(2)
            .map(|w| Span {
                xs: txs[w[0]..w[1]].iter().map(|t| t.0).collect(),
                ys: txs[w[0]..w[1]].iter().map(|t| t.1).collect(),
                idx: txs[w[0]..w[1]].iter().map(|t| t.2).collect(),
            })
            .collect();
        let listeners: Vec<Point> = listeners.iter().map(|&(x, y)| Point::new(x, y)).collect();
        for &alpha in &ALPHAS {
            assert_near_blocks_match_reference(3.5, alpha, &spans, &listeners);
        }
    }
}

/// The tie-break across tiles of one row span: a listener at the origin
/// sees two mirror-symmetric transmitters — bit-equal gains — in two
/// different tiles of the span. Whichever holds the smaller slice index
/// wins, even when it comes later in the span; a padded block of three
/// listeners (the tie sits on lane 0) runs alongside.
#[test]
fn near_block_tie_across_tiles_goes_to_the_smaller_slice_index() {
    let v = Point::new(0.0, 0.0);
    let listeners = [v, Point::new(5.0, -3.0), Point::new(-7.5, 0.25)];
    let mut vx = [v.x; NEAR_BLOCK];
    let mut vy = [v.y; NEAR_BLOCK];
    for (j, p) in listeners.iter().enumerate() {
        vx[j] = p.x;
        vy[j] = p.y;
    }
    // An earlier tile's entry at (-2.5, 1), a later tile's at (2.5, 1),
    // plus a weaker entry; `idx` gives their slice indices.
    let span = |idx: [u32; 3]| Span {
        xs: vec![-2.5, 2.5, 9.0],
        ys: vec![1.0, 1.0, 4.0],
        idx: idx.to_vec(),
    };
    for &alpha in &ALPHAS {
        let gain = |x: f64, y: f64| 3.0 / pow_alpha(Point::new(x, y).distance_sq(v), alpha);
        assert_eq!(
            gain(-2.5, 1.0).to_bits(),
            gain(2.5, 1.0).to_bits(),
            "mirror gains tie"
        );
        // Later-positioned smaller index, then earlier-positioned.
        for (idx, why) in [
            ([7, 2, 0], "the later, smaller index wins"),
            ([2, 7, 0], "the earlier, smaller index keeps it"),
        ] {
            let spans = [span(idx)];
            let mut lanes = NearLanes::default();
            near_block(
                3.0,
                alpha,
                &spans[0].xs,
                &spans[0].ys,
                &spans[0].idx,
                &vx,
                &vy,
                &mut lanes,
            );
            assert_eq!(lanes.best_idx[0], 2, "alpha={alpha}: {why}");
            assert_near_blocks_match_reference(3.0, alpha, &spans, &listeners);
        }
    }
}
