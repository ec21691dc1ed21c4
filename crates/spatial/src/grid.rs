//! Uniform-grid point index for circular range queries.
//!
//! Worker service areas are small relative to the data-set frame (range
//! 0.8–2 km inside a ≥100 km frame in the paper's settings, Table X), so
//! a uniform grid bucketing points by cell gives near-O(k) circular
//! queries without the constant factors of tree indexes.

use crate::{Aabb, Circle, Point};

/// A static point index over a fixed set of points.
///
/// Build once per batch with [`GridIndex::build`], then answer service-area
/// queries with [`GridIndex::query_circle`]. Point identity is the index
/// into the slice passed at build time, so callers can map results back to
/// tasks/workers without storing payloads in the index.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Aabb,
    /// Reciprocal of the effective cell size. Building and querying
    /// both map a coordinate to a cell as `(v - min) * inv_cell`, a
    /// monotone function, so a point inside a query's bounding box
    /// always lands in one of the cells the query visits.
    inv_cell: f64,
    cols: usize,
    rows: usize,
    /// CSR-style layout: `cell_start[c]..cell_start[c+1]` indexes into
    /// `entries` for cell `c`. Avoids a Vec-per-cell allocation storm.
    cell_start: Vec<u32>,
    entries: Vec<u32>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Builds an index over `points` with the given `cell_size` (km).
    ///
    /// `cell_size` should be on the order of the typical query radius;
    /// [`GridIndex::build_for_radius`] picks it automatically. Panics if
    /// `cell_size` is not strictly positive or any point is non-finite.
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be finite and > 0, got {cell_size}"
        );
        // Validation and bounds in one branch-free pass over the points
        // (`f64::min` would carry NaN handling the check makes moot).
        let first = points.first().copied().unwrap_or(Point::ORIGIN);
        let (mut lo, mut hi, mut finite) = (first, first, true);
        for p in points {
            finite &= p.is_finite();
            lo.x = if p.x < lo.x { p.x } else { lo.x };
            lo.y = if p.y < lo.y { p.y } else { lo.y };
            hi.x = if p.x > hi.x { p.x } else { hi.x };
            hi.y = if p.y > hi.y { p.y } else { hi.y };
        }
        if !finite {
            let i = points.iter().position(|p| !p.is_finite());
            let i = i.expect("a non-finite point exists");
            panic!("point #{i} is not finite: {:?}", points[i]);
        }
        let bounds = Aabb::new(lo, hi);
        // Grid dimensions, capped to keep memory proportional to the data.
        let max_cells_per_axis = ((points.len().max(1) as f64).sqrt() as usize * 4).max(1);
        let cols = ((bounds.width() / cell_size).ceil() as usize + 1).clamp(1, max_cells_per_axis);
        let rows = ((bounds.height() / cell_size).ceil() as usize + 1).clamp(1, max_cells_per_axis);
        // Recompute effective cell size from the clamped dimensions so the
        // whole frame is always covered.
        let eff_cell = (bounds.width() / cols as f64)
            .max(bounds.height() / rows as f64)
            .max(cell_size);

        // Each point's cell, resolved once for both counting-sort passes.
        let inv_cell = 1.0 / eff_cell;
        let (last_col, last_row) = ((cols - 1) as u32, (rows - 1) as u32);
        let cells: Vec<u32> = points
            .iter()
            .map(|p| {
                let cx = (((p.x - bounds.min.x) * inv_cell) as u32).min(last_col);
                let cy = (((p.y - bounds.min.y) * inv_cell) as u32).min(last_row);
                cy * cols as u32 + cx
            })
            .collect();
        let mut counts = vec![0u32; cols * rows + 1];
        for &c in &cells {
            counts[c as usize + 1] += 1;
        }
        let mut total = 0u32;
        for n in &mut counts {
            total += *n;
            *n = total;
        }
        let mut entries = vec![0u32; points.len()];
        let mut cursor = counts.clone();
        for (i, &c) in cells.iter().enumerate() {
            entries[cursor[c as usize] as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        GridIndex {
            bounds,
            inv_cell,
            cols,
            rows,
            cell_start: counts,
            entries,
            points: points.to_vec(),
        }
    }

    /// Builds an index sized for circular queries of roughly `radius` km.
    pub fn build_for_radius(points: &[Point], radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be finite and > 0, got {radius}"
        );
        Self::build(points, radius)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points, in build order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Collects the indices of all points inside `circle` into `out`
    /// (cleared first). Results are sorted ascending so downstream
    /// algorithms iterate tasks in a stable order.
    pub fn query_circle_into(&self, circle: &Circle, out: &mut Vec<usize>) {
        out.clear();
        let r_sq = circle.radius * circle.radius;
        self.for_each_candidate(circle, |idx| {
            if circle.center.distance_sq(&self.points[idx]) <= r_sq {
                out.push(idx);
            }
        });
        out.sort_unstable();
    }

    /// Calls `visit` with every indexed point in a cell that the
    /// bounding box of `circle` overlaps: a superset of the points
    /// inside it, in no particular order. For callers that apply their
    /// own exact predicate to each candidate.
    pub fn for_each_candidate(&self, circle: &Circle, mut visit: impl FnMut(usize)) {
        if self.points.is_empty() {
            return;
        }
        let bb = circle.bounding_box();
        if !bb.intersects(&self.bounds) {
            return;
        }
        let clamp_cell = |v: f64, max: usize| -> usize {
            if v <= 0.0 {
                0
            } else {
                (v as usize).min(max - 1)
            }
        };
        let cx0 = clamp_cell((bb.min.x - self.bounds.min.x) * self.inv_cell, self.cols);
        let cx1 = clamp_cell((bb.max.x - self.bounds.min.x) * self.inv_cell, self.cols);
        let cy0 = clamp_cell((bb.min.y - self.bounds.min.y) * self.inv_cell, self.rows);
        let cy1 = clamp_cell((bb.max.y - self.bounds.min.y) * self.inv_cell, self.rows);
        for cy in cy0..=cy1 {
            // Cells `cx0..=cx1` of one row are contiguous in the CSR
            // layout.
            let lo = self.cell_start[cy * self.cols + cx0] as usize;
            let hi = self.cell_start[cy * self.cols + cx1 + 1] as usize;
            for &idx in &self.entries[lo..hi] {
                visit(idx as usize);
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`query_circle_into`](Self::query_circle_into).
    pub fn query_circle(&self, circle: &Circle) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_circle_into(circle, &mut out);
        out
    }

    /// Index of the nearest point to `from`, or `None` if empty.
    /// Ties are broken toward the smaller index for determinism.
    pub fn nearest(&self, from: &Point) -> Option<usize> {
        // Expanding ring search over grid cells; falls back to a full scan
        // only when the ring has exhausted the grid.
        if self.points.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in self.points.iter().enumerate() {
            let d = from.distance_sq(p);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
        best.map(|(i, _)| i)
    }
}

/// A fixed rectangular grid over a frame, mapping points to shard ids.
///
/// Where [`GridIndex`] answers range queries over one point set, a
/// `GridPartition` is a pure *function* from locations to cells — the
/// spatial sharding key of the streaming pipeline: every arrival is
/// routed to the shard owning its cell, and one assignment engine runs
/// per shard. Points outside the frame are clamped to the border cells
/// so the partition is total.
///
/// # Examples
///
/// ```
/// use dpta_spatial::{Aabb, GridPartition, Point};
///
/// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 4, 4);
/// assert_eq!(part.n_shards(), 16);
/// assert_eq!(part.shard_of(&Point::new(10.0, 10.0)), 0);
/// assert_eq!(part.shard_of(&Point::new(99.0, 99.0)), 15);
/// // Out-of-frame points clamp to the nearest border cell.
/// assert_eq!(part.shard_of(&Point::new(-5.0, 1.0)), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPartition {
    frame: Aabb,
    cols: usize,
    rows: usize,
}

impl GridPartition {
    /// Builds a `cols × rows` partition of `frame`. Panics unless both
    /// dimensions are positive and the frame has positive extent.
    pub fn new(frame: Aabb, cols: usize, rows: usize) -> Self {
        assert!(
            cols > 0 && rows > 0,
            "partition needs cols > 0 and rows > 0"
        );
        assert!(
            frame.width() > 0.0 && frame.height() > 0.0,
            "partition frame must have positive extent"
        );
        GridPartition { frame, cols, rows }
    }

    /// Number of shards (`cols × rows`).
    pub fn n_shards(&self) -> usize {
        self.cols * self.rows
    }

    /// Columns of the partition.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows of the partition.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The partitioned frame.
    pub fn frame(&self) -> &Aabb {
        &self.frame
    }

    /// The shard owning `p`: row-major cell index, clamped to the frame.
    pub fn shard_of(&self, p: &Point) -> usize {
        assert!(p.is_finite(), "cannot shard a non-finite point: {p:?}");
        let fx = (p.x - self.frame.min.x) / self.frame.width();
        let fy = (p.y - self.frame.min.y) / self.frame.height();
        let cx = ((fx * self.cols as f64) as isize).clamp(0, self.cols as isize - 1) as usize;
        let cy = ((fy * self.rows as f64) as isize).clamp(0, self.rows as isize - 1) as usize;
        cy * self.cols + cx
    }

    /// Whether a disc of radius `r` around `p` can only contain points
    /// mapping to `p`'s own cell — i.e. whether an entity at `p` with
    /// service radius `r` can never interact across a shard boundary.
    /// Sharded and unsharded runs agree exactly on inputs where this
    /// holds for every worker (the shard-disjointness precondition of
    /// the streaming pipeline).
    ///
    /// Equivalent to [`halo_shards`](Self::halo_shards) returning an
    /// empty set (and implemented as exactly that, so the two can never
    /// disagree): a cell's upper edge belongs to the *next* cell (so an
    /// interior disc must stay strictly below it), its lower edge
    /// belongs to the cell itself, and frame-edge cells absorb
    /// everything beyond the frame through clamping (so their outward
    /// side is unconstrained).
    pub fn is_interior(&self, p: &Point, r: f64) -> bool {
        self.halo_shards(p, r).is_empty()
    }

    /// Column index of coordinate `x`, clamped like
    /// [`shard_of`](Self::shard_of).
    fn col_of(&self, x: f64) -> usize {
        let fx = (x - self.frame.min.x) / self.frame.width();
        ((fx * self.cols as f64) as isize).clamp(0, self.cols as isize - 1) as usize
    }

    /// Row index of coordinate `y`, clamped like
    /// [`shard_of`](Self::shard_of).
    fn row_of(&self, y: f64) -> usize {
        let fy = (y - self.frame.min.y) / self.frame.height();
        ((fy * self.rows as f64) as isize).clamp(0, self.rows as isize - 1) as usize
    }

    /// Whether the closed disc `(p, r)` contains at least one point the
    /// partition maps to cell `(ncx, ncy)` — respecting the half-open
    /// cell semantics of [`shard_of`](Self::shard_of): a cell owns its
    /// lower edges, its upper edges belong to the next cell, and
    /// frame-edge cells own everything beyond the frame (clamping).
    fn disc_reaches_cell(&self, p: &Point, r: f64, ncx: usize, ncy: usize) -> bool {
        let cell_w = self.frame.width() / self.cols as f64;
        let cell_h = self.frame.height() / self.rows as f64;
        let lo_x = if ncx == 0 {
            f64::NEG_INFINITY
        } else {
            self.frame.min.x + ncx as f64 * cell_w
        };
        let hi_x = if ncx + 1 == self.cols {
            f64::INFINITY
        } else {
            self.frame.min.x + (ncx + 1) as f64 * cell_w
        };
        let lo_y = if ncy == 0 {
            f64::NEG_INFINITY
        } else {
            self.frame.min.y + ncy as f64 * cell_h
        };
        let hi_y = if ncy + 1 == self.rows {
            f64::INFINITY
        } else {
            self.frame.min.y + (ncy + 1) as f64 * cell_h
        };
        // Gap from p to the cell's owned region along each axis, and
        // whether the nearest point sits on an *excluded* upper edge
        // (which the next cell owns).
        let (dx, x_open) = if p.x < lo_x {
            (lo_x - p.x, false)
        } else if p.x >= hi_x {
            (p.x - hi_x, true)
        } else {
            (0.0, false)
        };
        let (dy, y_open) = if p.y < lo_y {
            (lo_y - p.y, false)
        } else if p.y >= hi_y {
            (p.y - hi_y, true)
        } else {
            (0.0, false)
        };
        let d2 = dx * dx + dy * dy;
        let r2 = r * r;
        // Strictly closer than r: the disc contains interior points of
        // the owned region. Exactly r away: only the single nearest
        // point touches, which counts only if the region owns it.
        d2 < r2 || (d2 == r2 && !x_open && !y_open)
    }

    /// The shards *other than `p`'s own* whose territory the closed
    /// disc of radius `r` around `p` reaches — the shards that must
    /// receive `p` as a halo member for cross-shard pairs to be seen.
    /// Ascending; empty exactly when [`is_interior`](Self::is_interior)
    /// holds.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_spatial::{Aabb, GridPartition, Point};
    ///
    /// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 2);
    /// // A worker near the centre of cell 0 stays inside it…
    /// assert!(part.halo_shards(&Point::new(2.5, 2.5), 1.0).is_empty());
    /// // …but with a disc crossing x = 5 he reaches shard 1 too,
    /// let halo = part.halo_shards(&Point::new(4.5, 2.5), 1.0);
    /// assert_eq!(halo, vec![1]);
    /// // and at a cell corner one disc can reach three foreign shards.
    /// assert_eq!(part.halo_shards(&Point::new(4.9, 4.9), 1.0), vec![1, 2, 3]);
    /// ```
    pub fn halo_shards(&self, p: &Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_reach_shard(p, r, |s| out.push(s));
        out.remove(0); // the home shard
        out
    }

    /// Calls `f` with `p`'s own shard, then with every shard
    /// [`halo_shards`](Self::halo_shards) lists, in its order, without
    /// allocating.
    pub fn for_each_reach_shard(&self, p: &Point, r: f64, mut f: impl FnMut(usize)) {
        assert!(r.is_finite() && r >= 0.0, "radius must be finite and >= 0");
        let home = self.shard_of(p);
        f(home);
        // One cell of slack around the disc's span: `disc_reaches_cell`
        // is the exact authority, the range only has to cover it.
        let cx0 = self.col_of(p.x - r).saturating_sub(1);
        let cx1 = (self.col_of(p.x + r) + 1).min(self.cols - 1);
        let cy0 = self.row_of(p.y - r).saturating_sub(1);
        let cy1 = (self.row_of(p.y + r) + 1).min(self.rows - 1);
        for ncy in cy0..=cy1 {
            for ncx in cx0..=cx1 {
                let s = ncy * self.cols + ncx;
                if s != home && self.disc_reaches_cell(p, r, ncx, ncy) {
                    f(s);
                }
            }
        }
    }

    /// The full set of shards the closed disc `(p, r)` reaches — `p`'s
    /// own shard plus [`halo_shards`](Self::halo_shards), ascending.
    /// This is the shard membership of a worker in the streaming
    /// pipeline's halo mode.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_spatial::{Aabb, GridPartition, Point};
    ///
    /// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
    /// assert_eq!(part.reach_shards(&Point::new(2.5, 5.0), 1.0), vec![0]);
    /// assert_eq!(part.reach_shards(&Point::new(4.5, 5.0), 1.0), vec![0, 1]);
    /// ```
    pub fn reach_shards(&self, p: &Point, r: f64) -> Vec<usize> {
        let mut out = self.halo_shards(p, r);
        let home = self.shard_of(p);
        let pos = out.partition_point(|&s| s < home);
        out.insert(pos, home);
        out
    }

    /// Classifies a set of discs (worker service areas) against every
    /// shard: for each shard, the indices of the *foreign* discs whose
    /// reach crosses into it — the halo members that shard must import
    /// so no feasible cross-boundary pair is dropped. Indices ascend
    /// within each shard.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_spatial::{Aabb, Circle, GridPartition, Point};
    ///
    /// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
    /// let discs = [
    ///     Circle::new(Point::new(2.0, 5.0), 1.0), // interior to shard 0
    ///     Circle::new(Point::new(4.8, 5.0), 1.0), // shard 0, crosses into 1
    ///     Circle::new(Point::new(5.2, 5.0), 1.0), // shard 1, crosses into 0
    /// ];
    /// let halo = part.halo_members(&discs);
    /// assert_eq!(halo[0], vec![2]); // shard 0 imports disc 2
    /// assert_eq!(halo[1], vec![1]); // shard 1 imports disc 1
    /// ```
    pub fn halo_members(&self, discs: &[Circle]) -> Vec<Vec<usize>> {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.n_shards()];
        for (i, d) in discs.iter().enumerate() {
            for s in self.halo_shards(&d.center, d.radius) {
                members[s].push(i);
            }
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute_force(points: &[Point], circle: &Circle) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| circle.contains(p))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = GridIndex::build(&[], 1.0);
        assert!(idx.is_empty());
        assert!(idx
            .query_circle(&Circle::new(Point::ORIGIN, 10.0))
            .is_empty());
        assert_eq!(idx.nearest(&Point::ORIGIN), None);
    }

    #[test]
    fn single_point() {
        let idx = GridIndex::build(&[Point::new(5.0, 5.0)], 1.0);
        assert_eq!(
            idx.query_circle(&Circle::new(Point::new(5.2, 5.0), 0.5)),
            vec![0]
        );
        assert!(idx
            .query_circle(&Circle::new(Point::new(9.0, 9.0), 0.5))
            .is_empty());
        assert_eq!(idx.nearest(&Point::ORIGIN), Some(0));
    }

    #[test]
    fn identical_points_all_returned() {
        let pts = vec![Point::new(1.0, 1.0); 7];
        let idx = GridIndex::build(&pts, 0.5);
        let res = idx.query_circle(&Circle::new(Point::new(1.0, 1.0), 0.1));
        assert_eq!(res, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        let mut rng = StdRng::seed_from_u64(42);
        let points: Vec<Point> = (0..2000)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let idx = GridIndex::build_for_radius(&points, 1.4);
        for _ in 0..50 {
            let c = Circle::new(
                Point::new(rng.gen_range(-5.0..105.0), rng.gen_range(-5.0..105.0)),
                rng.gen_range(0.1..8.0),
            );
            assert_eq!(idx.query_circle(&c), brute_force(&points, &c));
        }
    }

    #[test]
    fn query_outside_bounds_is_empty() {
        let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let idx = GridIndex::build(&points, 1.0);
        assert!(idx
            .query_circle(&Circle::new(Point::new(100.0, 100.0), 2.0))
            .is_empty());
    }

    #[test]
    fn reusing_buffer_clears_previous_results() {
        let points = vec![Point::new(0.0, 0.0), Point::new(10.0, 10.0)];
        let idx = GridIndex::build(&points, 1.0);
        let mut buf = Vec::new();
        idx.query_circle_into(&Circle::new(Point::ORIGIN, 1.0), &mut buf);
        assert_eq!(buf, vec![0]);
        idx.query_circle_into(&Circle::new(Point::new(10.0, 10.0), 1.0), &mut buf);
        assert_eq!(buf, vec![1]);
    }

    #[test]
    fn nearest_breaks_ties_to_lower_index() {
        let points = vec![Point::new(1.0, 0.0), Point::new(-1.0, 0.0)];
        let idx = GridIndex::build(&points, 1.0);
        assert_eq!(idx.nearest(&Point::ORIGIN), Some(0));
    }

    #[test]
    fn partition_is_total_and_row_major() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 3);
        assert_eq!(part.n_shards(), 6);
        assert_eq!(part.cols(), 2);
        assert_eq!(part.rows(), 3);
        assert_eq!(part.shard_of(&Point::new(1.0, 1.0)), 0);
        assert_eq!(part.shard_of(&Point::new(6.0, 1.0)), 1);
        assert_eq!(part.shard_of(&Point::new(1.0, 4.0)), 2);
        assert_eq!(part.shard_of(&Point::new(9.9, 9.9)), 5);
        // Boundary and out-of-frame points clamp.
        assert_eq!(part.shard_of(&Point::new(10.0, 10.0)), 5);
        assert_eq!(part.shard_of(&Point::new(-3.0, 50.0)), 4);
    }

    #[test]
    fn partition_interior_test_respects_radius() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 2);
        // Cell (0,0) spans [0,5)×[0,5); its centre is interior for r < 2.5.
        assert!(part.is_interior(&Point::new(2.5, 2.5), 2.0));
        assert!(!part.is_interior(&Point::new(2.5, 2.5), 3.0));
        assert!(!part.is_interior(&Point::new(4.9, 2.5), 0.5));
        // A disc *touching* the upper edge reaches the boundary point,
        // which maps to the neighbouring cell (shard_of's half-open
        // cells) and is inside the closed service area — not interior.
        assert!(!part.is_interior(&Point::new(2.5, 2.5), 2.5));
        // Frame-edge cells absorb everything beyond the frame by
        // clamping, so their outward side is unconstrained…
        assert!(part.is_interior(&Point::new(9.0, 9.0), 3.0));
        // …but their inward side still is.
        assert!(!part.is_interior(&Point::new(9.0, 2.5), 5.0));
    }

    #[test]
    #[should_panic(expected = "cols > 0")]
    fn degenerate_partition_panics() {
        let _ = GridPartition::new(Aabb::from_extents(0.0, 0.0, 1.0, 1.0), 0, 1);
    }

    #[test]
    fn halo_shards_cover_boundary_crossings() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 2);
        // Interior disc: no halo.
        assert!(part.halo_shards(&Point::new(2.5, 2.5), 1.0).is_empty());
        // Crossing x = 5 only.
        assert_eq!(part.halo_shards(&Point::new(4.5, 2.5), 1.0), vec![1]);
        // Crossing y = 5 only, from above.
        assert_eq!(part.halo_shards(&Point::new(2.5, 5.4), 1.0), vec![0]);
        // Near the centre corner: reaches all three foreign cells.
        assert_eq!(part.halo_shards(&Point::new(4.8, 4.8), 1.0), vec![1, 2, 3]);
        // Near the corner but too far from the diagonal cell: the
        // axis-aligned neighbours only (corner (5,5) is √2·0.4 ≈ 0.57
        // away, beyond r = 0.5; the edges are 0.4 away).
        assert_eq!(part.halo_shards(&Point::new(4.6, 4.6), 0.5), vec![1, 2]);
        // Out-of-frame points clamp to border cells and can still halo.
        assert_eq!(part.halo_shards(&Point::new(-3.0, 2.0), 1.0), vec![]);
        assert_eq!(part.halo_shards(&Point::new(-0.5, 4.9), 1.0), vec![2]);
    }

    #[test]
    fn halo_edge_ownership_matches_shard_of() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        // Touching the upper edge exactly: the boundary point x = 5
        // belongs to shard 1, so the disc reaches it.
        assert_eq!(part.halo_shards(&Point::new(4.0, 5.0), 1.0), vec![1]);
        // Touching the lower edge exactly from the right cell: x = 5
        // belongs to the right cell itself, so nothing is crossed.
        assert!(part.halo_shards(&Point::new(6.0, 5.0), 1.0).is_empty());
        // A zero-radius disc on the boundary stays in its own shard.
        assert!(part.halo_shards(&Point::new(5.0, 5.0), 0.0).is_empty());
    }

    #[test]
    fn reach_shards_is_home_plus_halo_ascending() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 3, 1);
        let p = Point::new(3.4, 5.0); // shard 1 owns [10/3, 20/3)
        assert_eq!(part.shard_of(&p), 1);
        let reach = part.reach_shards(&p, 0.2);
        assert_eq!(reach, vec![0, 1]);
        assert!(reach.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(part.reach_shards(&Point::new(5.0, 5.0), 0.1), vec![1]);
    }

    #[test]
    fn halo_members_classifies_foreign_discs_per_shard() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 2);
        let discs = [
            Circle::new(Point::new(2.5, 2.5), 1.0), // interior, shard 0
            Circle::new(Point::new(4.8, 2.5), 1.0), // shard 0 → halo of 1
            Circle::new(Point::new(4.8, 4.8), 1.0), // shard 0 → halo of 1, 2, 3
            Circle::new(Point::new(7.5, 7.5), 8.0), // shard 3 → halo of all
        ];
        let halo = part.halo_members(&discs);
        assert_eq!(halo[0], vec![3]);
        assert_eq!(halo[1], vec![1, 2, 3]);
        assert_eq!(halo[2], vec![2, 3]);
        assert_eq!(halo[3], vec![2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn partition_shard_is_stable_and_in_range(
            x in -20.0f64..120.0, y in -20.0f64..120.0,
            cols in 1usize..8, rows in 1usize..8,
        ) {
            let part = GridPartition::new(
                Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
            let s = part.shard_of(&Point::new(x, y));
            prop_assert!(s < part.n_shards());
            prop_assert_eq!(s, part.shard_of(&Point::new(x, y)));
        }

        #[test]
        fn reach_shards_cover_every_disc_point(
            x in -20.0f64..120.0, y in -20.0f64..120.0, r in 0.0f64..30.0,
            cols in 1usize..6, rows in 1usize..6,
        ) {
            let part = GridPartition::new(
                Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
            let p = Point::new(x, y);
            let reach = part.reach_shards(&p, r);
            prop_assert!(reach.contains(&part.shard_of(&p)));
            prop_assert!(reach.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(part.is_interior(&p, r), reach.len() == 1);
            // Soundness: every point of the closed disc (sampled on
            // rings out to just inside the boundary — the exact-touch
            // cases are pinned by the deterministic unit tests, and a
            // float-rounded sample must not poke past the disc) maps
            // to a reported shard.
            for ring in 0..4 {
                let rr = r * (ring as f64 + 1.0) / 4.0 * (1.0 - 1e-9);
                for k in 0..16 {
                    let a = k as f64 * std::f64::consts::TAU / 16.0;
                    let q = Point::new(p.x + rr * a.cos(), p.y + rr * a.sin());
                    prop_assert!(
                        reach.contains(&part.shard_of(&q)),
                        "disc point {:?} maps to shard {} outside {:?}",
                        q, part.shard_of(&q), reach
                    );
                }
            }
        }

        #[test]
        fn grid_equals_brute_force(
            pts in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0), 0..200),
            qx in -10.0f64..60.0, qy in -10.0f64..60.0, r in 0.01f64..10.0,
            cell in 0.1f64..5.0,
        ) {
            let points: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let idx = GridIndex::build(&points, cell);
            let c = Circle::new(Point::new(qx, qy), r);
            prop_assert_eq!(idx.query_circle(&c), brute_force(&points, &c));
        }
    }
}
