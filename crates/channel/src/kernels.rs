//! Batched per-α SINR kernels over structure-of-arrays slices.
//!
//! Every engine tier bottoms out in the same per-pair expression:
//! `gain = P / pow_alpha(d²(u, v), α)`. The scalar
//! [`pow_alpha`](crate::pow_alpha) dispatches on `α` per call —
//! branch-predictable, but the branch (and the AoS
//! `Point` loads around it) keep the autovectorizer out of the loop. This
//! module hoists the dispatch *outside* the loop: [`AlphaClass::of`]
//! classifies the exponent once, and each batch entry point monomorphizes
//! its inner loop per class through the sealed [`AlphaKernel`] trait, so
//! the α = 2/3/4/6 fast paths compile to branch-free straight-line f64
//! arithmetic over contiguous slices.
//!
//! # The summation-order contract
//!
//! The batched paths are **bit-identical** to the scalar ones, not merely
//! close (DESIGN.md §15):
//!
//! * each element of a gain batch is computed by the *same expression* as
//!   the scalar path — same `dx = x_u − x_v` subtraction order, same
//!   `pow_alpha` fast-path arithmetic, same single division (for the
//!   generic class, `α·0.5` is computed once, but multiplying by 0.5 is
//!   exact in IEEE-754, so `powf` sees identical arguments);
//! * downstream consumers fold the gain scratch **in slice order**
//!   ([`fold_scan`]), reproducing the canonical `total += sig` /
//!   first-strict-max accumulation of the scalar scan add for add.
//!
//! No SIMD reassociation of the *fold* is attempted — a single listener's
//! `total += sig` chain is folded strictly in slice order. What *is*
//! vectorized are the block kernels — [`scan_block`] over
//! [`LISTENER_BLOCK`] listeners and all transmitters, [`near_block`] over
//! [`NEAR_BLOCK`] listeners and one near-ring span, its lanes carried
//! from span to span — which run *independent* listeners' fused
//! gain-plus-fold chains side by side: the SIMD lanes map to listeners,
//! never to positions within one listener's sum, so each lane reproduces
//! the canonical scalar accumulation add for add while the interleaving
//! hides the FP-add latency that makes a lone fold chain serial. The
//! `pow_alpha_batch` proptest oracle, the batched-vs-scalar scan
//! equivalence proptest and the near-block oracle in `tests/kernels.rs`
//! pin the contract across the full dynamic range.
//!
//! # Runtime AVX2 dispatch
//!
//! The crate builds at the portable baseline x86-64 target (SSE2). The
//! hot kernels additionally carry a `#[target_feature(enable = "avx2")]`
//! instantiation selected by cached runtime detection: per-lane `vaddpd` /
//! `vsubpd` / `vmulpd` / `vdivpd` / `vsqrtpd` are IEEE-754-exact at every
//! width, and the `fma` feature is deliberately left off (Rust never
//! contracts `a*b + c` into a fused multiply-add on its own), so the wide
//! path is bit-identical to the baseline one — the dispatch is pure
//! throughput policy. The win is real: the divider, which bottlenecks the
//! α = 3 hot path, roughly doubles its per-element throughput from xmm to
//! ymm (DESIGN.md §15 has the measured numbers).

mod private {
    /// Prevents downstream kernel implementations so the class set stays
    /// closed (the exactness argument enumerates it).
    pub trait Sealed {}
}

/// A path-loss exponent class: computes `d^α` from `d²` with the class's
/// fixed arithmetic. Sealed — the five implementations below mirror the
/// fast paths of the scalar [`pow_alpha`](crate::pow_alpha) exactly.
pub trait AlphaKernel: private::Sealed + Copy {
    /// `d^α` given the squared distance `d²`, bit-identical to the scalar
    /// [`pow_alpha`](crate::pow_alpha) fast path for this class.
    fn pow_alpha(self, d_sq: f64) -> f64;
}

/// `α = 2`: `d² ` itself.
#[derive(Debug, Clone, Copy)]
pub struct Alpha2;

/// `α = 3`: `d²·√d²`.
#[derive(Debug, Clone, Copy)]
pub struct Alpha3;

/// `α = 4`: `d²·d²`.
#[derive(Debug, Clone, Copy)]
pub struct Alpha4;

/// `α = 6`: `d²·d²·d²`.
#[derive(Debug, Clone, Copy)]
pub struct Alpha6;

/// Any other exponent: `(d²)^(α/2)` via `powf`, with `α·0.5` precomputed
/// (exact — a power-of-two scale only adjusts the exponent field).
#[derive(Debug, Clone, Copy)]
pub struct AlphaGeneric {
    half_alpha: f64,
}

impl private::Sealed for Alpha2 {}
impl private::Sealed for Alpha3 {}
impl private::Sealed for Alpha4 {}
impl private::Sealed for Alpha6 {}
impl private::Sealed for AlphaGeneric {}

impl AlphaKernel for Alpha2 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq
    }
}

impl AlphaKernel for Alpha3 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq * d_sq.sqrt()
    }
}

impl AlphaKernel for Alpha4 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq * d_sq
    }
}

impl AlphaKernel for Alpha6 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq * d_sq * d_sq
    }
}

impl AlphaKernel for AlphaGeneric {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq.powf(self.half_alpha)
    }
}

/// The exponent classes the batched kernels monomorphize over — the same
/// set the scalar [`pow_alpha`](crate::pow_alpha) special-cases, plus the
/// generic `powf` remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlphaClass {
    /// `α = 2`.
    Two,
    /// `α = 3`.
    Three,
    /// `α = 4`.
    Four,
    /// `α = 6`.
    Six,
    /// Any other exponent (generic `powf`).
    Generic,
}

impl AlphaClass {
    /// Classifies a path-loss exponent, mirroring the scalar
    /// [`pow_alpha`](crate::pow_alpha) dispatch exactly.
    #[must_use]
    pub fn of(alpha: f64) -> Self {
        if alpha == 2.0 {
            AlphaClass::Two
        } else if alpha == 3.0 {
            AlphaClass::Three
        } else if alpha == 4.0 {
            AlphaClass::Four
        } else if alpha == 6.0 {
            AlphaClass::Six
        } else {
            AlphaClass::Generic
        }
    }

    /// The stable label used in benchmark output and the scaling snapshot
    /// (`BENCH_scaling.json` kernel micro-probe).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AlphaClass::Two => "alpha2",
            AlphaClass::Three => "alpha3",
            AlphaClass::Four => "alpha4",
            AlphaClass::Six => "alpha6",
            AlphaClass::Generic => "generic",
        }
    }
}

/// The monomorphized `d^α` batch: `out[i] = pow_alpha(d_sq[i], α)`.
///
/// `#[inline(always)]` so the body is re-codegenned inside the
/// `#[target_feature(enable = "avx2")]` wrapper below — that is what lets
/// the autovectorizer use 256-bit lanes on the runtime-dispatched path.
#[inline(always)]
fn pow_alpha_batch_inner<K: AlphaKernel>(k: K, d_sq: &[f64], out: &mut [f64]) {
    for (o, &d) in out.iter_mut().zip(d_sq) {
        *o = k.pow_alpha(d);
    }
}

/// AVX2 instantiation of [`pow_alpha_batch_inner`]. Per-lane `vmulpd` /
/// `vsqrtpd` are IEEE-754-exact, and the `fma` feature is deliberately
/// *not* enabled (Rust never contracts `a*b + c` on its own, and we keep
/// it that way), so results stay bit-identical to the scalar path.
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // see the crate-root lint note
unsafe fn pow_alpha_batch_avx2<K: AlphaKernel>(k: K, d_sq: &[f64], out: &mut [f64]) {
    pow_alpha_batch_inner(k, d_sq, out);
}

/// Runtime-dispatched [`pow_alpha_batch_inner`]: picks the AVX2
/// instantiation when the CPU has it (detection is cached by `std`), the
/// baseline build otherwise. Both compute bit-identical results — the
/// dispatch is pure throughput policy.
#[inline]
#[allow(unsafe_code)] // detection-guarded call; see the crate-root lint note
fn pow_alpha_batch_with<K: AlphaKernel>(k: K, d_sq: &[f64], out: &mut [f64]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { pow_alpha_batch_avx2(k, d_sq, out) };
        return;
    }
    pow_alpha_batch_inner(k, d_sq, out);
}

/// Batched [`pow_alpha`](crate::pow_alpha): fills
/// `out[i] = pow_alpha(d_sq[i], alpha)` with one per-α monomorphized
/// pass. Bit-identical to calling the scalar function element-wise
/// (module docs, "summation-order contract").
///
/// # Panics
///
/// Panics if `out.len() != d_sq.len()`.
pub fn pow_alpha_batch(alpha: f64, d_sq: &[f64], out: &mut [f64]) {
    assert_eq!(d_sq.len(), out.len(), "input/output length mismatch");
    match AlphaClass::of(alpha) {
        AlphaClass::Two => pow_alpha_batch_with(Alpha2, d_sq, out),
        AlphaClass::Three => pow_alpha_batch_with(Alpha3, d_sq, out),
        AlphaClass::Four => pow_alpha_batch_with(Alpha4, d_sq, out),
        AlphaClass::Six => pow_alpha_batch_with(Alpha6, d_sq, out),
        AlphaClass::Generic => pow_alpha_batch_with(
            AlphaGeneric {
                half_alpha: alpha * 0.5,
            },
            d_sq,
            out,
        ),
    }
}

/// The monomorphized distance² batch: `out[i] = (xs[i]−vx)² + (ys[i]−vy)²`.
#[inline]
fn distance_sq_batch_inner(xs: &[f64], ys: &[f64], vx: f64, vy: f64, out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - vx;
        let dy = y - vy;
        *o = dx * dx + dy * dy;
    }
}

/// Batched squared distances from the point `(vx, vy)` to the SoA points
/// `(xs[i], ys[i])`: the same `dx·dx + dy·dy` expression as
/// `Point::distance_sq(p_i, v)` with the stored point on the left — the
/// orientation every scalar scan uses.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn distance_sq_batch(xs: &[f64], ys: &[f64], vx: f64, vy: f64, out: &mut [f64]) {
    assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    distance_sq_batch_inner(xs, ys, vx, vy, out);
}

/// The monomorphized fused gain batch (see [`pow_alpha_batch_inner`] for
/// why `#[inline(always)]`).
#[inline(always)]
fn gain_batch_inner<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - vx;
        let dy = y - vy;
        *o = power / k.pow_alpha(dx * dx + dy * dy);
    }
}

/// AVX2 instantiation of [`gain_batch_inner`] — bit-identical per lane
/// (no `fma`; see [`pow_alpha_batch_avx2`]).
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // mirrors gain_batch_inner
#[allow(unsafe_code)] // see the crate-root lint note
unsafe fn gain_batch_avx2<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    gain_batch_inner(k, power, xs, ys, vx, vy, out);
}

/// Runtime-dispatched [`gain_batch_inner`] (pure throughput policy; both
/// arms are bit-identical).
#[inline]
#[allow(unsafe_code)] // detection-guarded call; see the crate-root lint note
fn gain_batch_with<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { gain_batch_avx2(k, power, xs, ys, vx, vy, out) };
        return;
    }
    gain_batch_inner(k, power, xs, ys, vx, vy, out);
}

/// The fused hot-path batch: `out[i] = power / pow_alpha(d²_i, alpha)`
/// with `d²_i` the squared distance from `(vx, vy)` to `(xs[i], ys[i])`.
/// One branch-free monomorphized pass per exponent class; each element is
/// bit-identical to the scalar
/// `power / pow_alpha(Point::distance_sq(p_i, v), alpha)`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn gain_batch(
    power: f64,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    match AlphaClass::of(alpha) {
        AlphaClass::Two => gain_batch_with(Alpha2, power, xs, ys, vx, vy, out),
        AlphaClass::Three => gain_batch_with(Alpha3, power, xs, ys, vx, vy, out),
        AlphaClass::Four => gain_batch_with(Alpha4, power, xs, ys, vx, vy, out),
        AlphaClass::Six => gain_batch_with(Alpha6, power, xs, ys, vx, vy, out),
        AlphaClass::Generic => gain_batch_with(
            AlphaGeneric {
                half_alpha: alpha * 0.5,
            },
            power,
            xs,
            ys,
            vx,
            vy,
            out,
        ),
    }
}

/// Listeners per fused block scan ([`scan_block`]). The lanes are
/// independent `total +=` chains, so the block width trades FP-add
/// latency hiding against register pressure: the serial fold is
/// latency-bound at one add per ~4 cycles, and 32 lanes (8 ymm
/// accumulator pairs, spilling the index lanes to L1) measured fastest
/// and steadiest on the divider-bound α = 3 hot path — ~10% over 8
/// lanes, which already recovers most of the win (DESIGN.md §15).
pub const LISTENER_BLOCK: usize = 32;

/// The monomorphized fused block scan: one pass over the transmitters
/// computing, for each of [`LISTENER_BLOCK`] listeners at once, the gain
/// *and* its slice-order fold. Per listener lane the arithmetic — `dx`
/// orientation, `pow_alpha` fast path, division, `total += g`, and the
/// strict-max update — is the canonical scalar sequence, so each lane is
/// bit-identical to [`fold_scan`] over a [`gain_batch`]; the lanes only
/// interleave *between* listeners, never within one listener's chain.
#[inline(always)]
fn scan_block_inner<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; LISTENER_BLOCK],
    vy: &[f64; LISTENER_BLOCK],
) -> [ScanFold; LISTENER_BLOCK] {
    let mut total = [0.0f64; LISTENER_BLOCK];
    let mut best = [0.0f64; LISTENER_BLOCK];
    // -1 = no strict winner yet (mirrors fold_scan's None).
    let mut best_i = [-1i64; LISTENER_BLOCK];
    for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        for j in 0..LISTENER_BLOCK {
            let dx = x - vx[j];
            let dy = y - vy[j];
            let g = power / k.pow_alpha(dx * dx + dy * dy);
            total[j] += g;
            // Select form (not a branch) so the compiler can if-convert
            // and vectorize across the j lanes; semantics are identical
            // to fold_scan's `if g > best` (NaN compares false → keep).
            let better = g > best[j];
            best[j] = if better { g } else { best[j] };
            best_i[j] = if better { i as i64 } else { best_i[j] };
        }
    }
    std::array::from_fn(|j| ScanFold {
        total: total[j],
        best_sig: best[j],
        best_idx: usize::try_from(best_i[j]).ok(),
    })
}

/// AVX2 instantiation of [`scan_block_inner`] — bit-identical per lane
/// (no `fma`; see [`pow_alpha_batch_avx2`]). This is the variant that
/// makes the block scan pay off: with 256-bit lanes the eight listener
/// chains become two `vaddpd`/`vdivpd`/`vsqrtpd` streams, and the divider
/// (the real bottleneck) runs at its ymm throughput instead of xmm.
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // see the crate-root lint note
unsafe fn scan_block_avx2<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; LISTENER_BLOCK],
    vy: &[f64; LISTENER_BLOCK],
) -> [ScanFold; LISTENER_BLOCK] {
    scan_block_inner(k, power, xs, ys, vx, vy)
}

/// Runtime-dispatched [`scan_block_inner`] (pure throughput policy; both
/// arms are bit-identical).
#[inline]
#[allow(unsafe_code)] // detection-guarded call; see the crate-root lint note
fn scan_block_with<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; LISTENER_BLOCK],
    vy: &[f64; LISTENER_BLOCK],
) -> [ScanFold; LISTENER_BLOCK] {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { scan_block_avx2(k, power, xs, ys, vx, vy) };
    }
    scan_block_inner(k, power, xs, ys, vx, vy)
}

/// Fused multi-listener scan: folds [`LISTENER_BLOCK`] listeners against
/// the SoA transmitter slices in a single pass, returning each listener's
/// [`ScanFold`]. Bit-identical per listener to
/// `fold_scan(gain_batch(..))` — see `scan_block_with` — while hiding
/// the fold's FP-add latency behind the other lanes' work.
///
/// # Panics
///
/// Panics if `xs.len() != ys.len()`.
pub fn scan_block(
    power: f64,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; LISTENER_BLOCK],
    vy: &[f64; LISTENER_BLOCK],
) -> [ScanFold; LISTENER_BLOCK] {
    assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    match AlphaClass::of(alpha) {
        AlphaClass::Two => scan_block_with(Alpha2, power, xs, ys, vx, vy),
        AlphaClass::Three => scan_block_with(Alpha3, power, xs, ys, vx, vy),
        AlphaClass::Four => scan_block_with(Alpha4, power, xs, ys, vx, vy),
        AlphaClass::Six => scan_block_with(Alpha6, power, xs, ys, vx, vy),
        AlphaClass::Generic => scan_block_with(
            AlphaGeneric {
                half_alpha: alpha * 0.5,
            },
            power,
            xs,
            ys,
            vx,
            vy,
        ),
    }
}

/// Listener lanes per [`near_block`] call: the listeners of one fine
/// tile, so a tile's last block is padded. Narrower than
/// [`LISTENER_BLOCK`] because FKN tiles hold few listeners after the
/// first round: in full trials at n = 131072, 8 lanes compute 9% more
/// lane gains than there are listener–transmitter pairs, 32 lanes 44%,
/// at the same ~2.1 ns per lane gain (two ymm accumulators per array
/// already keep the divider busy).
pub const NEAR_BLOCK: usize = 8;

/// The running near-field fold of a [`near_block`] listener block, one
/// lane per listener, carried across the row spans of one near ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearLanes {
    /// Each lane's gain sum, accumulated in span order.
    pub sum: [f64; NEAR_BLOCK],
    /// Each lane's strongest gain so far (0.0 while none is positive).
    pub best_sig: [f64; NEAR_BLOCK],
    /// Each lane's winner: the smallest transmitter slice index among the
    /// entries attaining `best_sig` (positive gains only); `u32::MAX`
    /// while there is none.
    pub best_idx: [u32; NEAR_BLOCK],
}

impl Default for NearLanes {
    fn default() -> Self {
        NearLanes {
            sum: [0.0; NEAR_BLOCK],
            best_sig: [0.0; NEAR_BLOCK],
            best_idx: [u32::MAX; NEAR_BLOCK],
        }
    }
}

/// The monomorphized blocked near kernel: every transmitter of one span
/// against [`NEAR_BLOCK`] listener lanes. Per lane the arithmetic is
/// the per-listener near loop's — canonical gain expression, `sum += g`
/// in span order, and a winner that moves on a strict maximum or on an
/// exact tie with a smaller slice index — so carrying a lane over any
/// sequence of spans is bit-identical to that loop over their
/// concatenation.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the span, the lanes and the carry
fn near_block_inner<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    idx: &[u32],
    vx: &[f64; NEAR_BLOCK],
    vy: &[f64; NEAR_BLOCK],
    lanes: &mut NearLanes,
) {
    let mut sum = lanes.sum;
    let mut best = lanes.best_sig;
    // Lane-width (64-bit) winner indices, so the selects below vectorize
    // alongside the f64 compares; u32::MAX still sorts above every index.
    let mut best_i = lanes.best_idx.map(i64::from);
    for ((&x, &y), &i) in xs.iter().zip(ys).zip(idx) {
        let i = i64::from(i);
        for j in 0..NEAR_BLOCK {
            let dx = x - vx[j];
            let dy = y - vy[j];
            let g = power / k.pow_alpha(dx * dx + dy * dy);
            sum[j] += g;
            // Non-short-circuit select form, as in scan_block_inner (NaN
            // compares false → keep).
            let better = (g > best[j]) | ((g == best[j]) & (g > 0.0) & (i < best_i[j]));
            best[j] = if better { g } else { best[j] };
            best_i[j] = if better { i } else { best_i[j] };
        }
    }
    lanes.sum = sum;
    lanes.best_sig = best;
    lanes.best_idx = best_i.map(|i| i as u32);
}

/// AVX2 instantiation of [`near_block_inner`] — bit-identical per lane
/// (no `fma`; see [`pow_alpha_batch_avx2`]).
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // mirrors near_block_inner
#[allow(unsafe_code)] // see the crate-root lint note
unsafe fn near_block_avx2<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    idx: &[u32],
    vx: &[f64; NEAR_BLOCK],
    vy: &[f64; NEAR_BLOCK],
    lanes: &mut NearLanes,
) {
    near_block_inner(k, power, xs, ys, idx, vx, vy, lanes);
}

/// Runtime-dispatched [`near_block_inner`] (pure throughput policy; both
/// arms are bit-identical).
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors near_block_inner
#[allow(unsafe_code)] // detection-guarded call; see the crate-root lint note
fn near_block_with<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    idx: &[u32],
    vx: &[f64; NEAR_BLOCK],
    vy: &[f64; NEAR_BLOCK],
    lanes: &mut NearLanes,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { near_block_avx2(k, power, xs, ys, idx, vx, vy, lanes) };
        return;
    }
    near_block_inner(k, power, xs, ys, idx, vx, vy, lanes);
}

/// Blocked near-field scan: folds one span of transmitters — SoA
/// coordinates `xs`/`ys` and their slice indices `idx`, in any order —
/// into the running [`NearLanes`] of [`NEAR_BLOCK`] listeners at
/// `(vx[j], vy[j])`. Starting from `NearLanes::default()` and calling it
/// once per span gives each lane exactly the sum (in span order), the
/// strongest gain and the min-slice-index winner among its exact maxima
/// that a per-listener loop over the same spans computes. A block with
/// fewer listeners is padded with copies of a real lane, whose results
/// the caller ignores.
///
/// # Panics
///
/// Panics if `xs`, `ys` and `idx` differ in length.
#[allow(clippy::too_many_arguments)] // the span, the lanes and the carry
pub fn near_block(
    power: f64,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
    idx: &[u32],
    vx: &[f64; NEAR_BLOCK],
    vy: &[f64; NEAR_BLOCK],
    lanes: &mut NearLanes,
) {
    assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    assert_eq!(xs.len(), idx.len(), "one slice index per transmitter");
    match AlphaClass::of(alpha) {
        AlphaClass::Two => near_block_with(Alpha2, power, xs, ys, idx, vx, vy, lanes),
        AlphaClass::Three => near_block_with(Alpha3, power, xs, ys, idx, vx, vy, lanes),
        AlphaClass::Four => near_block_with(Alpha4, power, xs, ys, idx, vx, vy, lanes),
        AlphaClass::Six => near_block_with(Alpha6, power, xs, ys, idx, vx, vy, lanes),
        AlphaClass::Generic => near_block_with(
            AlphaGeneric {
                half_alpha: alpha * 0.5,
            },
            power,
            xs,
            ys,
            idx,
            vx,
            vy,
            lanes,
        ),
    }
}

/// Outcome of folding a gain scratch buffer in slice order (the canonical
/// accumulation of the scalar scan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanFold {
    /// Sum of all gains, accumulated in slice order.
    pub total: f64,
    /// The strongest single gain (0.0 when none is positive).
    pub best_sig: f64,
    /// The index of the first element attaining `best_sig` strictly, if
    /// any — ties keep the earlier index, exactly as the canonical fold.
    pub best_idx: Option<usize>,
}

/// Folds a gain scratch buffer in slice order: `total += g` plus the
/// first-strict-max winner rule, reproducing the canonical
/// scalar-scan accumulation add for add and compare for compare.
#[inline]
#[must_use]
pub fn fold_scan(gains: &[f64]) -> ScanFold {
    let mut total = 0.0;
    let mut best_sig = 0.0;
    let mut best_idx: Option<usize> = None;
    for (i, &g) in gains.iter().enumerate() {
        total += g;
        if g > best_sig {
            best_sig = g;
            best_idx = Some(i);
        }
    }
    ScanFold {
        total,
        best_sig,
        best_idx,
    }
}

/// Reusable per-round scratch for batched transmitter scans: the gathered
/// SoA transmitter coordinates plus the per-listener gain buffer.
#[derive(Debug, Default, Clone)]
pub struct ScanScratch {
    /// Gathered transmitter `x` coordinates, in transmitter-slice order.
    pub xs: Vec<f64>,
    /// Gathered transmitter `y` coordinates, in transmitter-slice order.
    pub ys: Vec<f64>,
    /// Per-listener gain buffer (resized by the batch entry points).
    pub gains: Vec<f64>,
}

impl ScanScratch {
    /// Fresh, empty scratch.
    #[must_use]
    pub fn new() -> Self {
        ScanScratch::default()
    }

    /// Gathers the coordinates of `ids` (indices into `points`) into the
    /// contiguous `xs`/`ys` slices, replacing their contents.
    pub fn gather(&mut self, points: &[fading_geom::Point], ids: &[usize]) {
        fading_geom::gather_points(points, ids, &mut self.xs, &mut self.ys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinr::pow_alpha;

    #[test]
    fn class_of_mirrors_scalar_dispatch() {
        assert_eq!(AlphaClass::of(2.0), AlphaClass::Two);
        assert_eq!(AlphaClass::of(3.0), AlphaClass::Three);
        assert_eq!(AlphaClass::of(4.0), AlphaClass::Four);
        assert_eq!(AlphaClass::of(6.0), AlphaClass::Six);
        assert_eq!(AlphaClass::of(2.5), AlphaClass::Generic);
        assert_eq!(AlphaClass::of(5.0), AlphaClass::Generic);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AlphaClass::Two.label(), "alpha2");
        assert_eq!(AlphaClass::Generic.label(), "generic");
    }

    #[test]
    fn pow_alpha_batch_is_bit_identical_to_scalar() {
        let d_sq: Vec<f64> = vec![0.0, 1e-300, 0.5, 1.0, 2.0, 123.456, 1e150, 1e300];
        let mut out = vec![0.0; d_sq.len()];
        for &alpha in &[2.0, 2.5, 3.0, 3.7, 4.0, 5.1, 6.0] {
            pow_alpha_batch(alpha, &d_sq, &mut out);
            for (i, &d) in d_sq.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    pow_alpha(d, alpha).to_bits(),
                    "alpha={alpha} d_sq={d}"
                );
            }
        }
    }

    #[test]
    fn gain_batch_is_bit_identical_to_scalar() {
        use fading_geom::Point;
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.5, -2.0),
            Point::new(-3.0, 4.0),
            Point::new(1e3, 1e-3),
        ];
        let v = Point::new(0.25, -0.75);
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let mut out = vec![0.0; pts.len()];
        for &alpha in &[2.0, 2.5, 3.0, 4.0, 6.0] {
            gain_batch(16.0, alpha, &xs, &ys, v.x, v.y, &mut out);
            for (i, p) in pts.iter().enumerate() {
                let want = 16.0 / pow_alpha(p.distance_sq(v), alpha);
                assert_eq!(out[i].to_bits(), want.to_bits(), "alpha={alpha} i={i}");
            }
        }
    }

    #[test]
    fn distance_sq_batch_matches_point_method() {
        use fading_geom::Point;
        let pts = [Point::new(3.0, 4.0), Point::new(-1.0, 2.5)];
        let v = Point::new(1.0, 1.0);
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let mut out = vec![0.0; 2];
        distance_sq_batch(&xs, &ys, v.x, v.y, &mut out);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(out[i].to_bits(), p.distance_sq(v).to_bits());
        }
    }

    #[test]
    fn fold_scan_first_strict_max_and_order() {
        // Ties keep the earlier index; zero gains never win.
        let f = fold_scan(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(f.best_idx, Some(1));
        assert_eq!(f.best_sig, 3.0);
        assert_eq!(f.total, 9.0);
        assert_eq!(fold_scan(&[]).best_idx, None);
        assert_eq!(fold_scan(&[0.0, 0.0]).best_idx, None);
        // Accumulation order is slice order: a permuted input may yield a
        // different total under IEEE-754, which is exactly why the contract
        // fixes the order. (These particular values are exact either way;
        // the proptests cover the interesting cases.)
        let g = fold_scan(&[2.0, 1.0, 3.0, 3.0]);
        assert_eq!(g.best_idx, Some(2));
    }

    #[test]
    fn scan_scratch_gathers_in_slice_order() {
        use fading_geom::Point;
        let pts = [Point::new(0.0, 5.0), Point::new(1.0, 6.0), Point::new(2.0, 7.0)];
        let mut s = ScanScratch::new();
        s.gather(&pts, &[2, 0, 1]);
        assert_eq!(s.xs, vec![2.0, 0.0, 1.0]);
        assert_eq!(s.ys, vec![7.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pow_alpha_batch_rejects_mismatched_lengths() {
        let mut out = vec![0.0; 2];
        pow_alpha_batch(3.0, &[1.0], &mut out);
    }

    #[test]
    fn scan_block_lanes_are_bit_identical_to_fold_scan() {
        // Deterministic LCG geometry: irregular magnitudes so the fold
        // order actually matters, plus a manufactured exact tie per lane
        // to exercise the first-strict-max rule inside the block kernel.
        let m = 97;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0
        };
        let xs: Vec<f64> = (0..m).map(|_| next()).collect();
        let ys: Vec<f64> = (0..m).map(|_| next()).collect();
        let mut vx = [0.0; LISTENER_BLOCK];
        let mut vy = [0.0; LISTENER_BLOCK];
        for j in 0..LISTENER_BLOCK {
            vx[j] = next();
            vy[j] = next();
        }
        // Mirror transmitter 70 across each listener's x-axis position so
        // some listener sees an exact gain tie (same distance twice).
        let mut xs_tied = xs.clone();
        let mut ys_tied = ys.clone();
        xs_tied[70] = 2.0 * vx[3] - xs[20];
        ys_tied[70] = ys[20];
        for &alpha in &[2.0, 2.5, 3.0, 4.0, 6.0] {
            for (txs, tys) in [(&xs, &ys), (&xs_tied, &ys_tied)] {
                let folds = scan_block(7.5, alpha, txs, tys, &vx, &vy);
                let mut gains = vec![0.0; m];
                for j in 0..LISTENER_BLOCK {
                    gain_batch(7.5, alpha, txs, tys, vx[j], vy[j], &mut gains);
                    let want = fold_scan(&gains);
                    assert_eq!(
                        folds[j].total.to_bits(),
                        want.total.to_bits(),
                        "alpha={alpha} lane={j} total"
                    );
                    assert_eq!(
                        folds[j].best_sig.to_bits(),
                        want.best_sig.to_bits(),
                        "alpha={alpha} lane={j} best_sig"
                    );
                    assert_eq!(folds[j].best_idx, want.best_idx, "alpha={alpha} lane={j} idx");
                }
            }
        }
    }

    #[test]
    fn scan_block_empty_slices_yield_empty_folds() {
        let folds = scan_block(1.0, 3.0, &[], &[], &[0.0; LISTENER_BLOCK], &[0.0; LISTENER_BLOCK]);
        for f in folds {
            assert_eq!(f.total, 0.0);
            assert_eq!(f.best_idx, None);
        }
    }
}
