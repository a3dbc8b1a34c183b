//! The hierarchical far-field engine: Barnes–Hut-style tile-tree resolve
//! with the same **decision-exactness** contract as [`FarFieldEngine`].
//!
//! # Why a hierarchy
//!
//! The flat engine precomputes gain bounds for every tile *pair*, which is
//! quadratic in tile count: capping the tables ([`MAX_TILES_PER_SIDE`])
//! keeps memory bounded but forces tile occupancy — and with it the exact
//! near-scan cost per listener — to grow linearly with `n`. The
//! [`TileTree`] removes the quadratic table: fine tiles stay small (near
//! scans stay O(occupancy)), and the far field is aggregated against
//! tree nodes chosen per listener tile by an opening criterion, touching
//! O(log n) nodes per traversal with **no** pairwise precompute.
//!
//! # The traversal
//!
//! Per round, transmitters are counting-sorted by fine tile into one flat
//! layout (coordinates and `(node, slice index)` entries, slice order
//! within a tile, per-tile offsets) and their counts propagated up the
//! tree (only nodes actually touched are visited). The near field of a
//! listener is its fine tile's [`HIER_NEAR_RING`]-Chebyshev neighbourhood
//! (5×5 tiles, clipped at the grid edge); in the tile-sorted layout each
//! of its rows is one contiguous span, so the exact near scan is one fused
//! gain batch per row. For each distinct listener tile the engine walks
//! the tree from the root:
//!
//! * nodes with no transmitters beneath them are skipped;
//! * nodes whose fine-tile span intersects the listener's near ring are
//!   descended (their mass may include near transmitters, which the exact
//!   near scan owns);
//! * far nodes are **accepted** when their certified distance bracket is
//!   tight — `d_max² ≤ [`HIER_ACCEPT_RATIO_SQ`] · d_min²` — contributing
//!   `mass × [P/d_max^α, P/d_min^α]` to the interference bracket (and the
//!   upper gain to the far cap); loose nodes are descended, bottoming out
//!   at fine tiles which are always accepted.
//!
//! Every transmitter therefore lands in exactly one accepted node or in
//! the near scan, and every accepted bracket is certified by the tree's
//! content bboxes — so the 5-rung decision ladder ([`decide_ladder`]) and
//! its exactness argument carry over verbatim from the flat engine. The
//! receptions are **bit-identical** to `resolve`/`resolve_perturbed` on
//! all inputs; `tests/hierarchical_equivalence.rs` is the oracle that
//! enforces it end to end, and `tests/hierarchical_bounds.rs` checks the
//! tree brackets themselves.
//!
//! # In-round parallelism
//!
//! A round runs three passes on a [`ChunkExecutor`], each split into
//! fixed-size tasks (independent of thread count). Every task reads only
//! round state fixed before its pass and writes only its own engine-owned
//! slot or its own listeners' receptions; slots are merged serially in
//! task-index order, so any executor scheduling produces byte-identical
//! results:
//!
//! 1. **Prepare.** The distinct listener tiles are collected serially in
//!    first-seen order; one traversal per tile then runs in tasks of
//!    `PREPARE_TILE_CHUNK` tiles. Each tile's aggregate comes from the
//!    same serial traversal whatever the thread count.
//! 2. **Decide.** Listeners are split into [`HIER_CHUNK`]-sized chunks;
//!    each listener gets the exact near scan plus its tile's far bracket
//!    through the ladder. A listener the ladder cannot settle is
//!    recorded as pending (its rung already counted) instead of being
//!    scanned on the spot. Per-chunk ladder counters are summed (u64
//!    addition — commutative).
//! 3. **Fallback.** The pending listeners, in listener order, are
//!    resolved by the canonical exact scan in groups of
//!    [`LISTENER_BLOCK`]: a full group runs the fused [`scan_block`]
//!    kernel, the one shorter trailing group the per-listener
//!    `scan_transmitters_soa`. Both are bit-identical to the exact
//!    channel, and group boundaries depend only on the pending list.
//!
//! Every per-round buffer — the tile-sorted layout, the pending list and
//! the task slots — is owned by the engine and reused across rounds, so
//! round memory stays O(|T| + listeners + tiles).

use std::sync::{Mutex, MutexGuard, PoisonError};

use fading_geom::{Point, PointsSoA, TileTree};

use crate::exec::ChunkExecutor;
use crate::farfield::{decide_ladder, DecisionInputs};
use crate::kernels::{gain_batch, scan_block, LISTENER_BLOCK};
use crate::sinr::{exact_reception, scan_transmitters_soa, ScanOutcome};
use crate::{
    pow_alpha, ChannelPerturbation, FarFieldStats, NodeId, Reception, SinrParams,
    FARFIELD_REL_SLACK,
};

/// Average number of nodes per *fine* tile the hierarchical engine aims
/// for. Matches the flat engine's occupancy target, but without the flat
/// engine's tile-count cap the occupancy actually stays at this value as
/// `n` grows.
pub const HIER_TARGET_TILE_OCCUPANCY: usize = 64;

/// Upper bound on fine tiles per side (memory is linear in tile count —
/// `512² = 262144` fine tiles ≈ a few MB of aggregates — so the cap is
/// far above [`MAX_TILES_PER_SIDE`](crate::MAX_TILES_PER_SIDE)).
pub const HIER_MAX_TILES_PER_SIDE: usize = 512;

/// Chebyshev fine-tile radius of the tree engine's near field: tiles
/// within this ring of the listener's tile are scanned exactly, and the
/// traversal excludes them from the far aggregate. Two rings (5×5 tiles)
/// rather than the flat engine's [`NEAR_RING`](crate::NEAR_RING) push the
/// nearest aggregated mass out to ≥ 2 tile widths, which tightens the far
/// bracket enough that most listeners are settled without the exact scan
/// even when a twentieth of the nodes transmit.
pub const HIER_NEAR_RING: usize = 2;

/// Opening criterion: a far tree node is accepted as one aggregate when
/// `d_max² ≤ ratio · d_min²` between the listener tile's and the node's
/// content bboxes (i.e. `d_max ≤ 1.5·d_min`), otherwise its children are
/// visited. Smaller = tighter brackets but deeper traversals; 2.25 keeps
/// the worst accepted gain ratio `(d_max/d_min)^α` comparable to the flat
/// engine's near-far tile pairs while still aggregating geometrically.
pub const HIER_ACCEPT_RATIO_SQ: f64 = 2.25;

/// Listeners per parallel decide chunk. Fixed (never derived from thread
/// count) so chunk boundaries — and thus all floating-point accumulation
/// orders — are identical under any executor.
pub const HIER_CHUNK: usize = 1024;

/// Listener tiles per parallel prepare task (fixed, like [`HIER_CHUNK`]).
const PREPARE_TILE_CHUNK: usize = 64;

/// One task's scratch and outputs for the round's parallel passes. The
/// engine keeps one slot per task index and reuses it across rounds;
/// task `i` of a pass locks only slot `i`.
#[derive(Debug, Default)]
struct TaskSlot {
    /// Prepare: the traversal stack of `(level, col, row)` nodes.
    stack: Vec<(usize, usize, usize)>,
    /// Prepare: `(lo, hi, cap)` per tile of this task, in tile order.
    far: Vec<(f64, f64, f64)>,
    /// Decide: near-scan gains. Fallback (slot 0 only): the exact-scan
    /// gains of the short trailing group.
    gains: Vec<f64>,
    /// Decide: positions in `listeners` this chunk left pending.
    pending: Vec<u32>,
    /// Decide: this chunk's ladder counters.
    stats: FarFieldStats,
}

/// Locks a mutex, recovering the guard if a task panicked while holding
/// it: every pass clears or overwrites the fields it reads before reading
/// them, so a slot or output a panicking task left half-written is still
/// valid input for the next use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Multi-resolution far-field engine over a [`TileTree`]. Built once per
/// deployment by
/// [`Channel::build_hierarchical_engine`](crate::Channel::build_hierarchical_engine);
/// see the [module docs](self) for the traversal and its exactness
/// argument.
#[derive(Debug)]
pub struct HierarchicalFarFieldEngine {
    tree: TileTree,
    n: usize,
    power: f64,
    alpha: f64,
    first: Point,
    last: Point,
    /// Live-node flags mirrored from the simulator's knockout/churn state.
    alive: Vec<bool>,
    /// Live members per fine tile.
    alive_per_tile: Vec<u32>,
    num_alive: usize,
    /// SoA mirror of the build positions, feeding the batched kernels
    /// (coherent with `positions` whenever `matches` holds).
    soa: PointsSoA,
    /// Per-round tile-sorted transmitter layout: fine tile `t` owns
    /// entries `tile_start[t]..tile_start[t + 1]` of `sorted_x`,
    /// `sorted_y` and `sorted_tx` (`(node, slice index)`), in slice order.
    /// Tiles are row-major, so a row of the near ring is one span.
    tile_start: Vec<u32>,
    sorted_x: Vec<f64>,
    sorted_y: Vec<f64>,
    sorted_tx: Vec<(u32, u32)>,
    /// Round-level gathered transmitter coordinates (slice order) for the
    /// exact fallback scans.
    tx_xs: Vec<f64>,
    tx_ys: Vec<f64>,
    /// Per-round transmitter count under each tree node, per level.
    tx_count: Vec<Vec<u32>>,
    /// Nodes touched this round, per level, for clearing `tx_count`.
    touched: Vec<Vec<u32>>,
    /// Per-listener-tile far aggregates of the current round; `far_stamp`
    /// marks the tiles the prepare pass computed.
    far_lo: Vec<f64>,
    far_hi: Vec<f64>,
    far_cap: Vec<f64>,
    far_stamp: Vec<u64>,
    stamp: u64,
    /// This round's distinct listener tiles, in first-seen order.
    listener_tiles: Vec<u32>,
    /// Positions in this round's `listeners` the decide pass left for the
    /// exact scan, in listener order.
    pending: Vec<u32>,
    /// Per-task slots of the parallel passes.
    slots: Vec<Mutex<TaskSlot>>,
    stats: FarFieldStats,
}

impl HierarchicalFarFieldEngine {
    /// Builds an engine for `positions` under `params`, with the default
    /// tiling ([`HIER_TARGET_TILE_OCCUPANCY`] nodes per fine tile, at most
    /// [`HIER_MAX_TILES_PER_SIDE`] fine tiles per side).
    ///
    /// Returns `None` for an empty deployment or non-finite coordinates
    /// (the exact paths define the semantics of such inputs).
    #[must_use]
    pub fn build(positions: &[Point], params: &SinrParams) -> Option<Self> {
        let tree = TileTree::with_target_occupancy(
            positions,
            HIER_TARGET_TILE_OCCUPANCY,
            HIER_MAX_TILES_PER_SIDE,
        )?;
        Self::from_tree(tree, positions, params)
    }

    /// Builds an engine over an explicit `tiles_per_side × tiles_per_side`
    /// fine grid. Exposed so tests can force multi-level tree layouts on
    /// small deployments; `build` is the production sizing.
    #[must_use]
    pub fn build_with_tiling(
        positions: &[Point],
        params: &SinrParams,
        tiles_per_side: usize,
    ) -> Option<Self> {
        let tree = TileTree::build(positions, tiles_per_side)?;
        Self::from_tree(tree, positions, params)
    }

    fn from_tree(tree: TileTree, positions: &[Point], params: &SinrParams) -> Option<Self> {
        if !positions.iter().all(|p| p.is_finite()) {
            return None;
        }
        let num_fine = tree.fine().num_tiles();
        let num_levels = tree.num_levels();
        let alive_per_tile = (0..num_fine).map(|t| tree.fine().count(t) as u32).collect();
        Some(HierarchicalFarFieldEngine {
            n: positions.len(),
            power: params.power(),
            alpha: params.alpha(),
            first: positions[0],
            last: positions[positions.len() - 1],
            alive: vec![true; positions.len()],
            alive_per_tile,
            num_alive: positions.len(),
            soa: PointsSoA::from_points(positions),
            tile_start: vec![0; num_fine + 1],
            sorted_x: Vec::new(),
            sorted_y: Vec::new(),
            sorted_tx: Vec::new(),
            tx_xs: Vec::new(),
            tx_ys: Vec::new(),
            tx_count: (0..num_levels)
                .map(|l| vec![0u32; tree.num_nodes(l)])
                .collect(),
            touched: vec![Vec::new(); num_levels],
            far_lo: vec![0.0; num_fine],
            far_hi: vec![0.0; num_fine],
            far_cap: vec![0.0; num_fine],
            far_stamp: vec![0; num_fine],
            stamp: 0,
            listener_tiles: Vec::new(),
            pending: Vec::new(),
            slots: Vec::new(),
            stats: FarFieldStats::default(),
            tree,
        })
    }

    /// Whether this engine was built over exactly these `positions` and
    /// SINR parameters (size, power, α, and a first/last position
    /// fingerprint — the same discipline as
    /// [`FarFieldEngine::matches`](crate::FarFieldEngine::matches)).
    #[must_use]
    pub fn matches(&self, positions: &[Point], params: &SinrParams) -> bool {
        self.n == positions.len()
            && self.power == params.power()
            && self.alpha == params.alpha()
            && positions.first() == Some(&self.first)
            && positions.last() == Some(&self.last)
    }

    /// Marks node `w` dead, decrementing its fine tile's live count.
    /// Idempotent.
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
            self.alive_per_tile[self.tree.fine().tile_of(w)] -= 1;
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
            self.alive_per_tile[self.tree.fine().tile_of(w)] += 1;
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

    /// Number of live nodes in fine tile `t`.
    #[must_use]
    pub fn active_in_tile(&self, t: usize) -> usize {
        self.alive_per_tile[t] as usize
    }

    /// The underlying tile tree.
    #[must_use]
    pub fn tree(&self) -> &TileTree {
        &self.tree
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

    /// The listener tile's near ring `(c0, c1, r0, r1)` in fine-tile
    /// coordinates (inclusive), clipped at the grid edge exactly like
    /// `TileIndex::neighborhood`.
    fn near_box(&self, lt: usize) -> (usize, usize, usize, usize) {
        let fine = self.tree.fine();
        let (ltc, ltr) = (lt % fine.cols(), lt / fine.cols());
        (
            ltc.saturating_sub(HIER_NEAR_RING),
            (ltc + HIER_NEAR_RING).min(fine.cols() - 1),
            ltr.saturating_sub(HIER_NEAR_RING),
            (ltr + HIER_NEAR_RING).min(fine.rows() - 1),
        )
    }

    /// One Barnes–Hut traversal: the far-field aggregate `(lo, hi, cap)`
    /// for listeners in fine tile `lt`, over this round's transmitter
    /// masses. `stack` is caller-provided scratch holding `(level, col,
    /// row)` node addresses, so no step divides to recover coordinates.
    fn traverse(&self, lt: usize, stack: &mut Vec<(usize, usize, usize)>) -> (f64, f64, f64) {
        let fine = self.tree.fine();
        let (fine_cols, fine_rows) = (fine.cols(), fine.rows());
        let (near_c0, near_c1, near_r0, near_r1) = self.near_box(lt);

        let p = self.power;
        let alpha = self.alpha;
        let (mut lo, mut hi, mut cap) = (0.0f64, 0.0f64, 0.0f64);
        stack.clear();
        stack.push((self.tree.num_levels() - 1, 0, 0));
        while let Some((l, c, r)) = stack.pop() {
            let idx = r * self.tree.level_cols(l) + c;
            let mass = self.tx_count[l][idx];
            if mass == 0 {
                continue;
            }
            // The node's fine-tile span, `[c·2^l, (c+1)·2^l)` clipped to
            // the grid, against the listener's near ring.
            let in_near = (c << l) <= near_c1
                && near_c0 < ((c + 1) << l).min(fine_cols)
                && (r << l) <= near_r1
                && near_r0 < ((r + 1) << l).min(fine_rows);
            if in_near {
                // Near fine tiles belong to the exact scan; coarser nodes
                // overlapping the ring are descended, since their mass
                // may include near transmitters.
                if l > 0 {
                    self.push_children(stack, l, c, r);
                }
                continue;
            }
            let Some((d_min_sq, d_max_sq)) = self.tree.distance_sq_bounds_to(lt, l, idx) else {
                unreachable!("listener tile and massive node are both non-empty")
            };
            if l > 0 && d_max_sq > HIER_ACCEPT_RATIO_SQ * d_min_sq {
                // Too wide an opening angle: refine. Fine tiles are always
                // accepted (the recursion's base case).
                self.push_children(stack, l, c, r);
                continue;
            }
            // Accept the aggregate. d_min² = 0 (touching boxes) makes the
            // upper gain infinite — rung 1 then falls back, which is
            // conservative, never wrong.
            let m = f64::from(mass);
            lo += m * (p / pow_alpha(d_max_sq, alpha));
            let g_hi = p / pow_alpha(d_min_sq, alpha);
            hi += m * g_hi;
            cap = cap.max(g_hi);
        }
        (lo, hi, cap)
    }

    /// Pushes the children of node `(l, c, r)` (1, 2 or 4 at grid edges)
    /// in row-major order, as `TileTree::children` lists them.
    fn push_children(&self, stack: &mut Vec<(usize, usize, usize)>, l: usize, c: usize, r: usize) {
        let c1 = (2 * c + 2).min(self.tree.level_cols(l - 1));
        let r1 = (2 * r + 2).min(self.tree.level_rows(l - 1));
        for rr in 2 * r..r1 {
            for cc in 2 * c..c1 {
                stack.push((l - 1, cc, rr));
            }
        }
    }

    /// One listener's ladder decision: exact near scan + the tile's far
    /// bracket. `None` means the exact scan is needed (that rung is
    /// already counted in `stats`). Read-only over the engine (runs
    /// concurrently across chunks); `stats` and `gains` are the calling
    /// task's.
    #[allow(clippy::too_many_arguments)] // the round's scalars, spelled out
    fn decide_listener(
        &self,
        v: NodeId,
        vp: Point,
        perturbation: Option<&ChannelPerturbation<'_>>,
        noise: f64,
        beta: f64,
        stats: &mut FarFieldStats,
        gains: &mut Vec<f64>,
    ) -> Option<Reception> {
        let lt = self.tree.fine().tile_of(v);
        debug_assert_eq!(
            self.far_stamp[lt], self.stamp,
            "prepare pass missed tile {lt}"
        );
        let far_lo = self.far_lo[lt];
        let far_hi = self.far_hi[lt];
        // Widened cap on any single far signal (covers bound rounding and
        // powf non-monotonicity; see FARFIELD_REL_SLACK).
        let far_cap = self.far_cap[lt] * (1.0 + FARFIELD_REL_SLACK);

        // Exact near-field scan: one fused gain batch per near-ring row
        // (a contiguous span of the tile-sorted layout; canonical per-pair
        // expression), folded with winner = minimal slice index among the
        // strict maxima — exactly the canonical fold's first-strict-max.
        let cols = self.tree.fine().cols();
        let (c0, c1, r0, r1) = self.near_box(lt);
        let mut near_sum = 0.0f64;
        let mut best_sig = 0.0f64;
        let mut best_tx: Option<NodeId> = None;
        let mut best_idx = u32::MAX;
        for r in r0..=r1 {
            let lo = self.tile_start[r * cols + c0] as usize;
            let hi = self.tile_start[r * cols + c1 + 1] as usize;
            if lo == hi {
                continue;
            }
            gains.resize(hi - lo, 0.0);
            gain_batch(
                self.power,
                self.alpha,
                &self.sorted_x[lo..hi],
                &self.sorted_y[lo..hi],
                vp.x,
                vp.y,
                gains,
            );
            for (&sig, &(u, idx)) in gains.iter().zip(&self.sorted_tx[lo..hi]) {
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

        decide_ladder(
            stats,
            DecisionInputs {
                near_sum,
                best_sig,
                best_tx,
                far_lo,
                far_hi,
                far_cap,
                noise,
                extra: perturbation.map(|pt| pt.extra_at(v)),
                beta,
            },
        )
    }

    /// Serial round setup: clears last round's masses (touched nodes
    /// only), counting-sorts this round's transmitters into the
    /// tile-sorted layout, propagates the counts up the tree and gathers
    /// the slice-order coordinates for the exact fallback.
    fn load_transmitters(&mut self, transmitters: &[NodeId]) {
        for l in 0..self.touched.len() {
            for &t in &self.touched[l] {
                self.tx_count[l][t as usize] = 0;
            }
            self.touched[l].clear();
        }
        let fine = self.tree.fine();
        for &u in transmitters {
            let t = fine.tile_of(u);
            if self.tx_count[0][t] == 0 {
                self.touched[0].push(t as u32);
            }
            self.tx_count[0][t] += 1;
        }
        // Counting sort: inclusive prefix sums, then a reverse scatter
        // that decrements each tile's end — stable, so every tile keeps
        // slice order, and `tile_start[t]` ends at tile t's first entry.
        let mut end = 0u32;
        for (slot, &count) in self.tile_start.iter_mut().zip(&self.tx_count[0]) {
            end += count;
            *slot = end;
        }
        self.tile_start[fine.num_tiles()] = end;
        self.sorted_x.resize(transmitters.len(), 0.0);
        self.sorted_y.resize(transmitters.len(), 0.0);
        self.sorted_tx.resize(transmitters.len(), (0, 0));
        for (idx, &u) in transmitters.iter().enumerate().rev() {
            let t = fine.tile_of(u);
            self.tile_start[t] -= 1;
            let k = self.tile_start[t] as usize;
            self.sorted_x[k] = self.soa.xs()[u];
            self.sorted_y[k] = self.soa.ys()[u];
            self.sorted_tx[k] = (u as u32, idx as u32);
        }
        self.soa
            .gather(transmitters, &mut self.tx_xs, &mut self.tx_ys);
        for l in 1..self.tree.num_levels() {
            let cols = self.tree.level_cols(l);
            let child_cols = self.tree.level_cols(l - 1);
            // Split the borrows: children (level l-1) feed parents
            // (level l) in both the count and touched arrays.
            let (lower_counts, upper_counts) = self.tx_count.split_at_mut(l);
            let child_counts = &lower_counts[l - 1];
            let parent_counts = &mut upper_counts[0];
            let (lower_touched, upper_touched) = self.touched.split_at_mut(l);
            let child_touched = &lower_touched[l - 1];
            let parent_touched = &mut upper_touched[0];
            for &c in child_touched {
                let c = c as usize;
                let parent = (c / child_cols / 2) * cols + (c % child_cols) / 2;
                if parent_counts[parent] == 0 {
                    parent_touched.push(parent as u32);
                }
                parent_counts[parent] += child_counts[c];
            }
        }
    }

    /// Resolves one round with the tree-aggregated fast path; reception
    /// semantics (and bits) are exactly those of
    /// [`SinrChannel::resolve`](crate::SinrChannel). `perturbation` must be
    /// `None` for a neutral perturbation, mirroring the dispatch in
    /// `SinrChannel::resolve_core`. The three passes run on `executor`;
    /// see the [module docs](self) for why scheduling cannot affect
    /// results.
    pub(crate) fn resolve_sinr(
        &mut self,
        params: &SinrParams,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: Option<&ChannelPerturbation<'_>>,
        executor: &dyn ChunkExecutor,
    ) -> Vec<Reception> {
        debug_assert!(self.matches(positions, params));
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
            return vec![Reception::Silence; listeners.len()];
        }

        self.load_transmitters(transmitters);
        self.stamp += 1;

        // Distinct listener tiles, serially in first-seen order (all
        // listeners of a tile share the aggregate).
        self.listener_tiles.clear();
        for &v in listeners {
            let lt = self.tree.fine().tile_of(v);
            if self.far_stamp[lt] != self.stamp {
                self.far_stamp[lt] = self.stamp;
                self.listener_tiles.push(lt as u32);
            }
        }
        let num_tile_tasks = self.listener_tiles.len().div_ceil(PREPARE_TILE_CHUNK);
        let num_chunks = listeners.len().div_ceil(HIER_CHUNK);
        let num_slots = num_tile_tasks.max(num_chunks);
        if self.slots.len() < num_slots {
            self.slots.resize_with(num_slots, Mutex::default);
        }

        // Pass 1 (prepare): one traversal per listener tile.
        {
            let this = &*self;
            executor.run(num_tile_tasks, &|task| {
                let mut slot = lock(&this.slots[task]);
                let TaskSlot { stack, far, .. } = &mut *slot;
                far.clear();
                let start = task * PREPARE_TILE_CHUNK;
                let end = (start + PREPARE_TILE_CHUNK).min(this.listener_tiles.len());
                for &lt in &this.listener_tiles[start..end] {
                    far.push(this.traverse(lt as usize, stack));
                }
            });
        }
        for (task, tiles) in self.listener_tiles.chunks(PREPARE_TILE_CHUNK).enumerate() {
            let slot = lock(&self.slots[task]);
            for (&lt, &(lo, hi, cap)) in tiles.iter().zip(&slot.far) {
                let lt = lt as usize;
                self.far_lo[lt] = lo;
                self.far_hi[lt] = hi;
                self.far_cap[lt] = cap;
            }
        }

        // Pass 2 (decide): fixed-size listener chunks through the ladder,
        // each copying its receptions into `out` under one lock.
        let out = Mutex::new(vec![Reception::Silence; listeners.len()]);
        {
            let this = &*self;
            executor.run(num_chunks, &|chunk| {
                let mut slot = lock(&this.slots[chunk]);
                let TaskSlot {
                    gains,
                    pending,
                    stats,
                    ..
                } = &mut *slot;
                pending.clear();
                *stats = FarFieldStats::default();
                let start = chunk * HIER_CHUNK;
                let end = (start + HIER_CHUNK).min(listeners.len());
                let mut rx = [Reception::Silence; HIER_CHUNK];
                for (i, &v) in listeners[start..end].iter().enumerate() {
                    let vp = positions[v];
                    match this.decide_listener(v, vp, perturbation, noise, beta, stats, gains) {
                        Some(r) => rx[i] = r,
                        None => pending.push((start + i) as u32),
                    }
                }
                lock(&out)[start..end].copy_from_slice(&rx[..end - start]);
            });
        }
        self.pending.clear();
        for slot in &self.slots[..num_chunks] {
            let slot = lock(slot);
            self.pending.extend_from_slice(&slot.pending);
            self.stats += slot.stats;
        }

        // Pass 3 (fallback): the pending listeners through the exact scan.
        self.resolve_pending(
            &out,
            positions,
            transmitters,
            listeners,
            perturbation,
            noise,
            beta,
            executor,
        );
        out.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes the canonical exact receptions of the pending listeners
    /// into `out`, one [`LISTENER_BLOCK`] group per task.
    #[allow(clippy::too_many_arguments)] // the round's inputs, spelled out
    fn resolve_pending(
        &self,
        out: &Mutex<Vec<Reception>>,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: Option<&ChannelPerturbation<'_>>,
        noise: f64,
        beta: f64,
        executor: &dyn ChunkExecutor,
    ) {
        let (p, alpha) = (self.power, self.alpha);
        let finish = |v: NodeId, outcome: ScanOutcome| {
            exact_reception(outcome, noise, perturbation.map(|pt| pt.extra_at(v)), beta)
        };
        let num_groups = self.pending.len().div_ceil(LISTENER_BLOCK);
        executor.run(num_groups, &|g| {
            let start = g * LISTENER_BLOCK;
            let group = &self.pending[start..(start + LISTENER_BLOCK).min(self.pending.len())];
            let mut rx = [Reception::Silence; LISTENER_BLOCK];
            if group.len() == LISTENER_BLOCK {
                let mut vx = [0.0; LISTENER_BLOCK];
                let mut vy = [0.0; LISTENER_BLOCK];
                for (j, &i) in group.iter().enumerate() {
                    let vp = positions[listeners[i as usize]];
                    vx[j] = vp.x;
                    vy[j] = vp.y;
                }
                let folds = scan_block(p, alpha, &self.tx_xs, &self.tx_ys, &vx, &vy);
                for ((r, &i), fold) in rx.iter_mut().zip(group).zip(folds) {
                    let v = listeners[i as usize];
                    debug_assert!(
                        transmitters.iter().all(|&u| u != v),
                        "a node cannot transmit and listen simultaneously"
                    );
                    let outcome = ScanOutcome {
                        total: fold.total,
                        best_sig: fold.best_sig,
                        best_tx: fold.best_idx.map(|k| transmitters[k]),
                    };
                    *r = finish(v, outcome);
                }
            } else {
                // The one short trailing group borrows slot 0's gain
                // buffer (no other task of this pass locks a slot).
                let mut slot = lock(&self.slots[0]);
                for (r, &i) in rx.iter_mut().zip(group) {
                    let v = listeners[i as usize];
                    let outcome = scan_transmitters_soa(
                        p,
                        alpha,
                        v,
                        positions[v],
                        transmitters,
                        &self.tx_xs,
                        &self.tx_ys,
                        &mut slot.gains,
                    );
                    *r = finish(v, outcome);
                }
            }
            let mut out = lock(out);
            for (&i, &r) in group.iter().zip(&rx) {
                out[i as usize] = r;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SerialExecutor;
    use crate::{Channel, SinrChannel};
    use rand::rngs::SmallRng;
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

    fn lattice(n_side: usize, spacing: f64) -> Vec<Point> {
        (0..n_side * n_side)
            .map(|i| Point::new((i % n_side) as f64 * spacing, (i / n_side) as f64 * spacing))
            .collect()
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let p = params();
        assert!(HierarchicalFarFieldEngine::build(&[], &p).is_none());
        let nan = vec![Point::new(f64::NAN, 0.0), Point::ORIGIN];
        assert!(HierarchicalFarFieldEngine::build(&nan, &p).is_none());
    }

    #[test]
    fn matches_is_a_fingerprint() {
        let p = params();
        let pos = lattice(8, 1.0);
        let engine = HierarchicalFarFieldEngine::build(&pos, &p).unwrap();
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
        let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&pos, &p, 4).unwrap();
        let t = engine.tree().fine().tile_of(0);
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
    fn resolve_matches_exact_on_a_lattice() {
        let p = params();
        let ch = SinrChannel::new(p);
        let pos = lattice(16, 1.5);
        // 8 tiles per side → a 4-level tree with real aggregation.
        let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&pos, &p, 8).unwrap();
        assert!(engine.tree().num_levels() >= 4);
        let transmitters: Vec<NodeId> = (0..pos.len()).step_by(7).collect();
        let listeners: Vec<NodeId> = (0..pos.len())
            .filter(|i| !transmitters.contains(i))
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let exact = ch.resolve(&pos, &transmitters, &listeners, &mut rng);
        let fast = engine.resolve_sinr(&p, &pos, &transmitters, &listeners, None, &SerialExecutor);
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
    fn consecutive_rounds_reset_the_masses() {
        let p = params();
        let ch = SinrChannel::new(p);
        let pos = lattice(12, 2.0);
        let mut engine = HierarchicalFarFieldEngine::build_with_tiling(&pos, &p, 6).unwrap();
        // Two rounds with disjoint transmitter sets: stale masses from
        // round 1 would corrupt round 2's brackets.
        for (seed, step) in [(1u64, 5usize), (2, 11)] {
            let transmitters: Vec<NodeId> = (0..pos.len()).step_by(step).collect();
            let listeners: Vec<NodeId> = (0..pos.len())
                .filter(|i| !transmitters.contains(i))
                .collect();
            let mut rng = SmallRng::seed_from_u64(seed);
            let exact = ch.resolve(&pos, &transmitters, &listeners, &mut rng);
            let fast =
                engine.resolve_sinr(&p, &pos, &transmitters, &listeners, None, &SerialExecutor);
            assert_eq!(exact, fast, "round with step {step}");
        }
        assert_eq!(engine.stats().rounds, 2);
    }

    #[test]
    fn empty_round_is_all_silence_and_counts_fast() {
        let p = params();
        let pos = lattice(4, 1.0);
        let mut engine = HierarchicalFarFieldEngine::build(&pos, &p).unwrap();
        let listeners: Vec<NodeId> = (0..pos.len()).collect();
        let rx = engine.resolve_sinr(&p, &pos, &[], &listeners, None, &SerialExecutor);
        assert!(rx.iter().all(|r| *r == Reception::Silence));
        assert_eq!(engine.stats().empty_round_silences, pos.len() as u64);
        assert_eq!(engine.stats().fast_decisions(), pos.len() as u64);
    }
}
