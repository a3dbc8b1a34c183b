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
//! layout (coordinates and slice indices, slice order within a tile,
//! per-tile offsets) and their counts propagated up the tree (only nodes
//! actually touched are visited). The near field of a listener is its fine
//! tile's [`HIER_NEAR_RING`]-Chebyshev neighbourhood (5×5 tiles, clipped
//! at the grid edge); in the tile-sorted layout each of its rows is one
//! contiguous span. For each listener tile the engine walks the tree from
//! the root:
//!
//! * only nodes with transmitters beneath them are ever pushed;
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
//! Listeners are counting-sorted by fine tile too, so each listener tile
//! owns one contiguous run of the sorted listener order. A round then runs
//! two passes on a [`ChunkExecutor`], each split into fixed-size tasks
//! (independent of thread count). Every task reads only round state fixed
//! before its pass and writes only its own engine-owned slot or its own
//! listeners' receptions; slots are merged serially in task-index order,
//! so any executor scheduling produces byte-identical results:
//!
//! 1. **Traverse and decide.** Each task takes [`HIER_TILE_TASK`]
//!    consecutive listener tiles. Per tile it traverses once, then runs
//!    the tile's listeners in [`NEAR_BLOCK`] lanes (the last block
//!    padded) through the blocked [`near_block`] kernel, one call per
//!    near-ring row, and each lane through the ladder. A listener the
//!    ladder cannot settle is recorded as pending (its rung already
//!    counted) instead of being scanned on the spot. Per-task ladder
//!    counters are summed (u64 addition — commutative).
//! 2. **Fallback.** The pending listeners, in sorted order, are resolved
//!    by the canonical exact scan in groups of [`LISTENER_BLOCK`]: a full
//!    group runs the fused [`scan_block`] kernel, the one shorter trailing
//!    group the per-listener `scan_transmitters_soa`. Both are
//!    bit-identical to the exact channel, and group boundaries depend only
//!    on the pending list.
//!
//! Every per-round buffer — the two tile-sorted layouts, the pending list
//! and the task slots — is owned by the engine and reused across rounds,
//! so round memory stays O(|T| + listeners + tiles).

use std::sync::{Mutex, MutexGuard, PoisonError};

use fading_geom::{Bbox, Point, PointsSoA, TileTree};

use crate::exec::ChunkExecutor;
use crate::farfield::{decide_ladder, DecisionInputs};
use crate::kernels::{near_block, scan_block, NearLanes, LISTENER_BLOCK, NEAR_BLOCK};
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
/// content bboxes (here `d_max ≤ 2·d_min`), otherwise its children are
/// visited. Smaller = tighter brackets (fewer exact fallbacks) but deeper
/// traversals. Set on the end-to-end benchmark's `mc_giant` workload
/// (full FKN trials at n = 131072, 2 resolve threads, 2-vCPU guest,
/// seeds 21–24, 15 s runs) from a sweep of {2.25, 3.0625, 4, 6.25}:
/// median 2.83, 3.22, 3.54 and 3.68 trials/s, seed-1 fallback fraction
/// 0.060, 0.063, 0.066 and 0.075. 4 is the fastest cell that keeps the
/// fallback fraction under 0.07; DESIGN.md §12.4 has the table.
pub const HIER_ACCEPT_RATIO_SQ: f64 = 4.0;

/// Listener tiles per task of the fused traverse-and-decide pass: at
/// [`HIER_TARGET_TILE_OCCUPANCY`] nodes per tile, about a thousand
/// listeners in a first round. Fixed (never derived from thread count) so
/// task boundaries — and thus all floating-point accumulation orders —
/// are identical under any executor.
pub const HIER_TILE_TASK: usize = 16;

/// One task's scratch and outputs for the round's parallel passes. The
/// engine keeps one slot per task index and reuses it across rounds;
/// task `i` of a pass locks only slot `i`.
#[derive(Debug, Default)]
struct TaskSlot {
    /// The traversal stack of `(level, col, row)` nodes.
    stack: Vec<(usize, usize, usize)>,
    /// Positions in `listeners` this task left pending.
    pending: Vec<u32>,
    /// This task's ladder counters.
    stats: FarFieldStats,
    /// Fallback (slot 0 only): the exact-scan gains of the short trailing
    /// group.
    gains: Vec<f64>,
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
    /// Every tree level's nodes in one flat array: level `l` holds
    /// `(col, row)` at `level_base[l] + row * level_cols[l] + col` of
    /// `node_box` and `mass` (level 0 = the fine tiles, at their own
    /// indices).
    level_base: Vec<usize>,
    level_cols: Vec<usize>,
    /// Each node's content bbox (meaningless for empty nodes, which never
    /// carry mass).
    node_box: Vec<Bbox>,
    /// Per-round transmitter count under each node.
    mass: Vec<u32>,
    /// Nodes touched this round, per level (level-local indices), for
    /// clearing `mass`.
    touched: Vec<Vec<u32>>,
    /// Per-round tile-sorted transmitter layout: fine tile `t` owns
    /// entries `tile_start[t]..tile_start[t + 1]` of `sorted_x`,
    /// `sorted_y` and `sorted_idx` (slice indices), in slice order.
    /// Tiles are row-major, so a row of the near ring is one span.
    tile_start: Vec<u32>,
    sorted_x: Vec<f64>,
    sorted_y: Vec<f64>,
    sorted_idx: Vec<u32>,
    /// Per-round tile-sorted listener order: fine tile `t` owns entries
    /// `lis_start[t]..lis_start[t + 1]` of `lis_order` (positions in
    /// `listeners`, in listener order within a tile).
    lis_start: Vec<u32>,
    lis_order: Vec<u32>,
    /// This round's non-empty listener tiles, in tile order.
    listener_tiles: Vec<u32>,
    /// Round-level gathered transmitter coordinates (slice order) for the
    /// exact fallback scans.
    tx_xs: Vec<f64>,
    tx_ys: Vec<f64>,
    /// Positions in this round's `listeners` the first pass left for the
    /// exact scan, in sorted listener order.
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
        let mut level_base = Vec::with_capacity(num_levels);
        let mut node_box = Vec::new();
        for l in 0..num_levels {
            level_base.push(node_box.len());
            node_box.extend((0..tree.num_nodes(l)).map(|i| {
                tree.node_bbox(l, i)
                    .unwrap_or(Bbox::new(Point::ORIGIN, Point::ORIGIN))
            }));
        }
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
            level_base,
            level_cols: (0..num_levels).map(|l| tree.level_cols(l)).collect(),
            mass: vec![0; node_box.len()],
            node_box,
            touched: vec![Vec::new(); num_levels],
            tile_start: vec![0; num_fine + 1],
            sorted_x: Vec::new(),
            sorted_y: Vec::new(),
            sorted_idx: Vec::new(),
            lis_start: vec![0; num_fine + 1],
            lis_order: Vec::new(),
            listener_tiles: Vec::new(),
            tx_xs: Vec::new(),
            tx_ys: Vec::new(),
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
    /// row)` node addresses, so no step divides to recover coordinates;
    /// only nodes with mass are pushed.
    fn traverse(&self, lt: usize, stack: &mut Vec<(usize, usize, usize)>) -> (f64, f64, f64) {
        let fine = self.tree.fine();
        let (fine_cols, fine_rows) = (fine.cols(), fine.rows());
        let (near_c0, near_c1, near_r0, near_r1) = self.near_box(lt);
        // The listener tile's content bbox (non-empty: it holds a
        // listener), against which every node's bracket is taken.
        let listener_box = self.node_box[lt];

        let p = self.power;
        let alpha = self.alpha;
        let (mut lo, mut hi, mut cap) = (0.0f64, 0.0f64, 0.0f64);
        let root = self.tree.num_levels() - 1;
        stack.clear();
        if self.mass[self.level_base[root]] > 0 {
            stack.push((root, 0, 0));
        }
        while let Some((l, c, r)) = stack.pop() {
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
            let idx = self.level_base[l] + r * self.level_cols[l] + c;
            let (d_min_sq, d_max_sq) = listener_box.distance_sq_bounds(&self.node_box[idx]);
            if l > 0 && d_max_sq > HIER_ACCEPT_RATIO_SQ * d_min_sq {
                // Too wide an opening angle: refine. Fine tiles are always
                // accepted (the recursion's base case).
                self.push_children(stack, l, c, r);
                continue;
            }
            // Accept the aggregate. d_min² = 0 (touching boxes) makes the
            // upper gain infinite — rung 1 then falls back, which is
            // conservative, never wrong.
            let m = f64::from(self.mass[idx]);
            lo += m * (p / pow_alpha(d_max_sq, alpha));
            let g_hi = p / pow_alpha(d_min_sq, alpha);
            hi += m * g_hi;
            cap = cap.max(g_hi);
        }
        (lo, hi, cap)
    }

    /// Pushes the children of node `(l, c, r)` that carry mass (of 1, 2
    /// or 4 at grid edges), in row-major order.
    fn push_children(&self, stack: &mut Vec<(usize, usize, usize)>, l: usize, c: usize, r: usize) {
        let cols = self.level_cols[l - 1];
        let base = self.level_base[l - 1];
        let c1 = (2 * c + 2).min(cols);
        let r1 = (2 * r + 2).min(self.tree.level_rows(l - 1));
        for rr in 2 * r..r1 {
            for cc in 2 * c..c1 {
                if self.mass[base + rr * cols + cc] > 0 {
                    stack.push((l - 1, cc, rr));
                }
            }
        }
    }

    /// Serial round setup: clears last round's masses (touched nodes
    /// only), counting-sorts this round's transmitters into the
    /// tile-sorted layout, propagates the counts up the tree and gathers
    /// the slice-order coordinates for the exact fallback.
    fn load_transmitters(&mut self, transmitters: &[NodeId]) {
        for (l, touched) in self.touched.iter_mut().enumerate() {
            let base = self.level_base[l];
            for &t in touched.iter() {
                self.mass[base + t as usize] = 0;
            }
            touched.clear();
        }
        let fine = self.tree.fine();
        for &u in transmitters {
            let t = fine.tile_of(u);
            if self.mass[t] == 0 {
                self.touched[0].push(t as u32);
            }
            self.mass[t] += 1;
        }
        // Counting sort: inclusive prefix sums, then a reverse scatter
        // that decrements each tile's end — stable, so every tile keeps
        // slice order, and `tile_start[t]` ends at tile t's first entry.
        let mut end = 0u32;
        for (slot, &count) in self.tile_start.iter_mut().zip(&self.mass) {
            end += count;
            *slot = end;
        }
        self.tile_start[fine.num_tiles()] = end;
        self.sorted_x.resize(transmitters.len(), 0.0);
        self.sorted_y.resize(transmitters.len(), 0.0);
        self.sorted_idx.resize(transmitters.len(), 0);
        for (idx, &u) in transmitters.iter().enumerate().rev() {
            let t = fine.tile_of(u);
            self.tile_start[t] -= 1;
            let k = self.tile_start[t] as usize;
            self.sorted_x[k] = self.soa.xs()[u];
            self.sorted_y[k] = self.soa.ys()[u];
            self.sorted_idx[k] = idx as u32;
        }
        self.soa
            .gather(transmitters, &mut self.tx_xs, &mut self.tx_ys);
        for l in 1..self.tree.num_levels() {
            let (cols, base) = (self.level_cols[l], self.level_base[l]);
            let (child_cols, child_base) = (self.level_cols[l - 1], self.level_base[l - 1]);
            // Split the borrow: children (level l-1) feed parents (level
            // l) in the touched lists.
            let (lower, upper) = self.touched.split_at_mut(l);
            for &c in &lower[l - 1] {
                let c = c as usize;
                let parent = (c / child_cols / 2) * cols + (c % child_cols) / 2;
                if self.mass[base + parent] == 0 {
                    upper[0].push(parent as u32);
                }
                self.mass[base + parent] += self.mass[child_base + c];
            }
        }
    }

    /// Serial round setup for the listeners: counting-sorts their
    /// positions in `listeners` by fine tile (stable, so listener order
    /// within a tile) and lists the non-empty tiles in tile order.
    fn sort_listeners(&mut self, listeners: &[NodeId]) {
        let fine = self.tree.fine();
        self.lis_start.fill(0);
        for &v in listeners {
            self.lis_start[fine.tile_of(v)] += 1;
        }
        self.listener_tiles.clear();
        let mut end = 0u32;
        for (t, slot) in self.lis_start.iter_mut().enumerate() {
            if *slot > 0 {
                self.listener_tiles.push(t as u32);
            }
            end += *slot;
            *slot = end;
        }
        self.lis_order.resize(listeners.len(), 0);
        for (i, &v) in listeners.iter().enumerate().rev() {
            let t = fine.tile_of(v);
            self.lis_start[t] -= 1;
            self.lis_order[self.lis_start[t] as usize] = i as u32;
        }
    }

    /// One task of the fused pass: traverses each of `tiles` once and
    /// decides all of its listeners — blocked exact near scan plus the
    /// tile's far bracket through the ladder. Returns the receptions in
    /// sorted listener order (from the first tile's first listener) and
    /// leaves the unsettled listeners in `slot.pending`.
    #[allow(clippy::too_many_arguments)] // the round's inputs, spelled out
    fn decide_tiles(
        &self,
        tiles: &[u32],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        perturbation: Option<&ChannelPerturbation<'_>>,
        noise: f64,
        beta: f64,
        slot: &mut TaskSlot,
    ) -> Vec<Reception> {
        let TaskSlot {
            stack,
            pending,
            stats,
            ..
        } = slot;
        let mut rx = Vec::new();
        pending.clear();
        *stats = FarFieldStats::default();
        let cols = self.tree.fine().cols();
        let (xs, ys) = (self.soa.xs(), self.soa.ys());
        for &lt in tiles {
            let lt = lt as usize;
            let (far_lo, far_hi, far_cap) = self.traverse(lt, stack);
            // Widened cap on any single far signal (covers bound rounding
            // and powf non-monotonicity; see FARFIELD_REL_SLACK).
            let far_cap = far_cap * (1.0 + FARFIELD_REL_SLACK);
            // The near ring's rows as contiguous spans of the tile-sorted
            // transmitter layout.
            let (c0, c1, r0, r1) = self.near_box(lt);
            let spans = (r0..=r1).map(|r| {
                (
                    self.tile_start[r * cols + c0] as usize,
                    self.tile_start[r * cols + c1 + 1] as usize,
                )
            });
            let members =
                &self.lis_order[self.lis_start[lt] as usize..self.lis_start[lt + 1] as usize];
            for block in members.chunks(NEAR_BLOCK) {
                // Padding lanes repeat the block's first listener.
                let first = listeners[block[0] as usize];
                let mut vx = [xs[first]; NEAR_BLOCK];
                let mut vy = [ys[first]; NEAR_BLOCK];
                for (j, &i) in block.iter().enumerate() {
                    let v = listeners[i as usize];
                    vx[j] = xs[v];
                    vy[j] = ys[v];
                }
                let mut lanes = NearLanes::default();
                for (lo, hi) in spans.clone().filter(|(lo, hi)| lo < hi) {
                    near_block(
                        self.power,
                        self.alpha,
                        &self.sorted_x[lo..hi],
                        &self.sorted_y[lo..hi],
                        &self.sorted_idx[lo..hi],
                        &vx,
                        &vy,
                        &mut lanes,
                    );
                }
                for (j, &i) in block.iter().enumerate() {
                    let v = listeners[i as usize];
                    let best = lanes.best_idx[j];
                    let decided = decide_ladder(
                        stats,
                        DecisionInputs {
                            near_sum: lanes.sum[j],
                            best_sig: lanes.best_sig[j],
                            best_tx: (best != u32::MAX).then(|| transmitters[best as usize]),
                            far_lo,
                            far_hi,
                            far_cap,
                            noise,
                            extra: perturbation.map(|pt| pt.extra_at(v)),
                            beta,
                        },
                    );
                    rx.push(decided.unwrap_or_else(|| {
                        pending.push(i);
                        Reception::Silence
                    }));
                }
            }
        }
        rx
    }

    /// Resolves one round with the tree-aggregated fast path; reception
    /// semantics (and bits) are exactly those of
    /// [`SinrChannel::resolve`](crate::SinrChannel). `perturbation` must be
    /// `None` for a neutral perturbation, mirroring the dispatch in
    /// `SinrChannel::resolve_core`. The two passes run on `executor`; see
    /// the [module docs](self) for why scheduling cannot affect results.
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
        self.sort_listeners(listeners);
        let num_tasks = self.listener_tiles.len().div_ceil(HIER_TILE_TASK);
        if self.slots.len() < num_tasks {
            self.slots.resize_with(num_tasks, Mutex::default);
        }

        // Pass 1 (traverse and decide): runs of listener tiles, each task
        // scattering its receptions into `out` under one lock.
        let out = Mutex::new(vec![Reception::Silence; listeners.len()]);
        {
            let this = &*self;
            executor.run(num_tasks, &|task| {
                let mut slot = lock(&this.slots[task]);
                let start = task * HIER_TILE_TASK;
                let end = (start + HIER_TILE_TASK).min(this.listener_tiles.len());
                let tiles = &this.listener_tiles[start..end];
                let rx = this.decide_tiles(
                    tiles,
                    transmitters,
                    listeners,
                    perturbation,
                    noise,
                    beta,
                    &mut slot,
                );
                let first = this.lis_start[tiles[0] as usize] as usize;
                let mut out = lock(&out);
                for (&r, &i) in rx.iter().zip(&this.lis_order[first..]) {
                    out[i as usize] = r;
                }
            });
        }
        self.pending.clear();
        for slot in &self.slots[..num_tasks] {
            let slot = lock(slot);
            self.pending.extend_from_slice(&slot.pending);
            self.stats += slot.stats;
        }

        // Pass 2 (fallback): the pending listeners through the exact scan.
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
