//! Incremental instance maintenance: [`DeltaInstance`] carries the
//! spatial index and reach sets `R_j` across stream windows, applying
//! arrivals, TTL expiries, retirements and service returns as *diffs*
//! — O(affected cells) per entity instead of the O(m + n + pairs)
//! scratch rebuild of [`Instance::from_locations`].
//!
//! ## Exactness
//!
//! The reach predicate is pure geometry —
//! `distance_sq(task, worker) <= radius²` — independent of any index
//! structure, so an incrementally maintained reach set is bit-identical
//! to a scratch rebuild's. Budgets are not maintained at all: the
//! emitted instance is *keyed*, drawing `ε⁽ᵘ⁾_{i,j}` from one
//! [`SeededBudgets`] source by the pair's logical `(task id, worker
//! id)` — the same value whichever window, shard or rebuild asks.
//! Entity *order* is preserved because live entities are kept in
//! insertion order and the stream's pending/pool vectors are
//! append-plus-retain: the emitted [`Instance`] lists tasks and workers
//! in exactly the order `from_locations` would see them, which keeps
//! every index-based engine tie-break unchanged.
//! [`DeltaInstance::instance`] therefore emits an `Instance` equal to
//! the reference constructor's on the same entities — pinned by the
//! `incremental_properties` proptest suite in `dpta-stream`.
//!
//! `Instance::from_locations` remains the reference constructor; a
//! full rebuild is forced only when a caller constructs a fresh
//! `DeltaInstance` (e.g. on snapshot restore), never mid-stream.

use crate::model::{Instance, Task, Worker};
use dpta_dp::{FastMap, SeededBudgets};
use dpta_spatial::Point;

/// A dynamic spatial hash: points bucketed by fixed-size cell, with
/// O(1) insert/remove and disc queries visiting only overlapping cells
/// (clamped to the occupied bounding box, so oversized radii cannot
/// scan an unbounded range). Cells are keyed through the deterministic
/// [`FastMap`] — a disc query probes O(cells-in-box) buckets, and at
/// streaming rates the SipHash of the default hasher was the single
/// largest cost of the insert/remove path.
#[derive(Debug, Clone)]
struct CellGrid {
    cell: f64,
    map: FastMap<(i64, i64), Vec<u32>>,
    /// Recycled per-cell vectors from emptied cells; keeps the map
    /// sized to the *live* set (a long stream otherwise accumulates one
    /// dead entry per cell ever occupied, and probes stop fitting in
    /// cache) without paying an allocation each time a cell refills.
    pool: Vec<Vec<u32>>,
    /// Occupied cell bounds (min_x, min_y, max_x, max_y); `None` while
    /// empty. Never shrinks — only used to clamp query ranges.
    bounds: Option<(i64, i64, i64, i64)>,
}

impl CellGrid {
    fn new(cell: f64) -> Self {
        CellGrid {
            cell,
            map: FastMap::default(),
            pool: Vec::new(),
            bounds: None,
        }
    }

    #[inline]
    fn cell_of(&self, p: &Point) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    fn insert(&mut self, slot: u32, p: &Point) {
        let c = self.cell_of(p);
        let pool = &mut self.pool;
        self.map
            .entry(c)
            .or_insert_with(|| pool.pop().unwrap_or_default())
            .push(slot);
        self.bounds = Some(match self.bounds {
            None => (c.0, c.1, c.0, c.1),
            Some((x0, y0, x1, y1)) => (x0.min(c.0), y0.min(c.1), x1.max(c.0), y1.max(c.1)),
        });
    }

    fn remove(&mut self, slot: u32, p: &Point) {
        let c = self.cell_of(p);
        if let Some(v) = self.map.get_mut(&c) {
            if let Some(k) = v.iter().position(|&s| s == slot) {
                v.swap_remove(k);
                if v.is_empty() {
                    if let Some(vec) = self.map.remove(&c) {
                        self.pool.push(vec);
                    }
                }
            }
        }
    }

    /// Appends every slot in a cell overlapping the disc's bounding box
    /// to `out` (unfiltered — the caller applies the exact predicate).
    fn candidates_into(&self, center: &Point, radius: f64, out: &mut Vec<u32>) {
        let Some((bx0, by0, bx1, by1)) = self.bounds else {
            return;
        };
        let cx0 = (((center.x - radius) / self.cell).floor() as i64).clamp(bx0, bx1);
        let cx1 = (((center.x + radius) / self.cell).floor() as i64).clamp(bx0, bx1);
        let cy0 = (((center.y - radius) / self.cell).floor() as i64).clamp(by0, by1);
        let cy1 = (((center.y + radius) / self.cell).floor() as i64).clamp(by0, by1);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                if let Some(v) = self.map.get(&(cx, cy)) {
                    out.extend_from_slice(v);
                }
            }
        }
    }
}

/// The task arena, struct-of-arrays: one slot index addresses the same
/// row of every column. Hot loops (grid candidate filtering, emission)
/// touch only the columns they need — the distance predicate streams
/// through `rows` without dragging keys along, and the layout is what
/// lets 10⁵-entity windows stay cache-resident.
#[derive(Debug, Clone, Default)]
struct TaskArena {
    keys: Vec<u64>,
    rows: Vec<Task>,
}

/// The worker arena, struct-of-arrays. `reach[s]` holds the live task
/// slots inside worker slot `s`'s service area, ascending.
#[derive(Debug, Clone, Default)]
struct WorkerArena {
    keys: Vec<u64>,
    rows: Vec<Worker>,
    reach: Vec<Vec<u32>>,
}

/// An incrementally maintained PA-TA instance.
///
/// Insert and remove single tasks and workers by a caller-chosen
/// stable key (the stream's logical entity id); call
/// [`instance`](DeltaInstance::instance) to emit the current state as
/// a regular [`Instance`], bit-identical to what
/// [`Instance::from_locations`] would build from the same entities in
/// the same order (see the module docs for the exactness argument).
///
/// Slots are allocated monotonically and never reused, so live-entity
/// order always equals insertion order — a returning worker gets a
/// fresh slot at the end, exactly mirroring a stream pool re-push.
///
/// # Examples
///
/// ```
/// use dpta_core::model::{DeltaInstance, Task, Worker};
/// use dpta_dp::SeededBudgets;
/// use dpta_spatial::Point;
///
/// let budgets = SeededBudgets::new(42, 0, (0.5, 1.75), 7);
/// let mut delta = DeltaInstance::new(budgets);
/// delta.insert_worker(7, Worker::new(Point::new(0.0, 0.0), 2.0));
/// delta.insert_task(1, Task::new(Point::new(1.0, 0.0), 4.5));
/// delta.insert_task(2, Task::new(Point::new(9.0, 0.0), 4.5));
/// let inst = delta.instance();
/// assert_eq!(inst.n_tasks(), 2);
/// assert_eq!(inst.reach(0), &[0]); // only task 1 is in range
/// // Budgets are drawn from the logical ids (task 1, worker 7).
/// assert_eq!(inst.epsilon(0, 0, 0), Some(budgets.epsilon(1, 7, 0)));
/// assert!(delta.remove_task(2));
/// assert_eq!(delta.feasible_pairs(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaInstance {
    /// The budget source every emitted instance draws from.
    budgets: SeededBudgets,
    tasks: TaskArena,
    workers: WorkerArena,
    /// Live task slots, ascending (slots are monotone, so this is also
    /// insertion order).
    live_tasks: Vec<u32>,
    /// Live worker slots, ascending.
    live_workers: Vec<u32>,
    task_index: FastMap<u64, u32>,
    worker_index: FastMap<u64, u32>,
    /// Spatial hash over live task locations; `None` until the first
    /// worker fixes the cell size.
    task_grid: Option<CellGrid>,
    /// Spatial hash over live worker locations (reverse queries: which
    /// workers cover an arriving task).
    worker_grid: Option<CellGrid>,
    /// Max radius ever seen among inserted workers (never shrinks —
    /// a conservative reverse-query radius).
    max_radius: f64,
    /// Running count of feasible pairs, for O(1) emptiness checks.
    pairs: usize,
    /// Scratch buffer for grid candidates.
    scratch: Vec<u32>,
    /// Recycled reach vectors from removed workers.
    reach_pool: Vec<Vec<u32>>,
}

impl DeltaInstance {
    /// An empty delta instance whose emissions draw budgets from
    /// `budgets`, keyed by the entities' insert keys.
    pub fn new(budgets: SeededBudgets) -> Self {
        DeltaInstance {
            budgets,
            tasks: TaskArena::default(),
            workers: WorkerArena::default(),
            live_tasks: Vec::new(),
            live_workers: Vec::new(),
            task_index: FastMap::default(),
            worker_index: FastMap::default(),
            task_grid: None,
            worker_grid: None,
            max_radius: 0.0,
            pairs: 0,
            scratch: Vec::new(),
            reach_pool: Vec::new(),
        }
    }

    /// Number of live tasks.
    pub fn n_tasks(&self) -> usize {
        self.live_tasks.len()
    }

    /// Number of live workers.
    pub fn n_workers(&self) -> usize {
        self.live_workers.len()
    }

    /// Current number of feasible (task, worker) pairs — maintained
    /// incrementally, so this is O(1): the zero-feasible early-out of
    /// the halo reconciliation loop reads it per pass.
    pub fn feasible_pairs(&self) -> usize {
        self.pairs
    }

    /// Whether a task with this key is live.
    pub fn contains_task(&self, key: u64) -> bool {
        self.task_index.contains_key(&key)
    }

    /// Whether a worker with this key is live.
    pub fn contains_worker(&self, key: u64) -> bool {
        self.worker_index.contains_key(&key)
    }

    /// Live task keys in instance (insertion) order.
    pub fn task_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.live_tasks.iter().map(|&s| self.tasks.keys[s as usize])
    }

    /// Live worker keys in instance (insertion) order.
    pub fn worker_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.live_workers
            .iter()
            .map(|&s| self.workers.keys[s as usize])
    }

    /// Ensures both grids exist, sizing cells from `radius_hint` when
    /// they are first needed, and back-fills live tasks into the task
    /// grid.
    fn ensure_grids(&mut self, radius_hint: f64) {
        if self.task_grid.is_some() {
            return;
        }
        // Cell = one disc diameter: a radius-`r` query box spans at
        // most 2×2 cells, and candidate lists stay short at constant
        // density. (Cell size only affects which supersets the exact
        // distance predicate filters — never the result.)
        let cell = (2.0 * radius_hint).max(1e-6);
        let mut tg = CellGrid::new(cell);
        for &s in &self.live_tasks {
            let p = self.tasks.rows[s as usize].location;
            tg.insert(s, &p);
        }
        self.task_grid = Some(tg);
        self.worker_grid = Some(CellGrid::new(cell));
    }

    /// Inserts a task under `key`. Panics if the key is already live.
    pub fn insert_task(&mut self, key: u64, task: Task) {
        assert!(
            self.task_index
                .insert(key, self.tasks.keys.len() as u32)
                .is_none(),
            "task key {key} is already live"
        );
        let slot = self.tasks.keys.len() as u32;
        let loc = task.location;
        self.tasks.keys.push(key);
        self.tasks.rows.push(task);
        self.live_tasks.push(slot);
        if let Some(tg) = &mut self.task_grid {
            tg.insert(slot, &loc);
        }
        // Reverse query: every live worker whose disc covers the task.
        let mut cands = std::mem::take(&mut self.scratch);
        cands.clear();
        if let Some(wg) = &self.worker_grid {
            wg.candidates_into(&loc, self.max_radius, &mut cands);
        }
        cands.sort_unstable();
        for &ws in &cands {
            let w = &self.workers.rows[ws as usize];
            let r_sq = w.radius * w.radius;
            if w.location.distance_sq(&loc) <= r_sq {
                let reach = &mut self.workers.reach[ws as usize];
                // New slot is the largest: reach stays ascending.
                debug_assert!(reach.last().is_none_or(|&t| t < slot));
                reach.push(slot);
                self.pairs += 1;
            }
        }
        self.scratch = cands;
    }

    /// Inserts a worker under `key`, resolving his reach set against
    /// the live tasks. Panics if the key is already live.
    pub fn insert_worker(&mut self, key: u64, worker: Worker) {
        assert!(
            self.worker_index
                .insert(key, self.workers.keys.len() as u32)
                .is_none(),
            "worker key {key} is already live"
        );
        self.ensure_grids(worker.radius);
        let slot = self.workers.keys.len() as u32;
        let loc = worker.location;
        let r_sq = worker.radius * worker.radius;

        let mut cands = std::mem::take(&mut self.scratch);
        cands.clear();
        self.task_grid
            .as_ref()
            .expect("grids ensured")
            .candidates_into(&loc, worker.radius, &mut cands);
        cands.sort_unstable();
        let mut reach = self.reach_pool.pop().unwrap_or_default();
        for &ts in &cands {
            if loc.distance_sq(&self.tasks.rows[ts as usize].location) <= r_sq {
                reach.push(ts);
            }
        }
        self.scratch = cands;
        self.pairs += reach.len();
        self.max_radius = self.max_radius.max(worker.radius);
        self.worker_grid
            .as_mut()
            .expect("grids ensured")
            .insert(slot, &loc);
        self.workers.keys.push(key);
        self.workers.rows.push(worker);
        self.workers.reach.push(reach);
        self.live_workers.push(slot);
    }

    /// Removes the task with this key from the instance and from every
    /// covering worker's reach set. Returns whether it was live (a
    /// missing key is a no-op, so callers can mirror idempotent
    /// retain-style sweeps).
    pub fn remove_task(&mut self, key: u64) -> bool {
        let Some(slot) = self.task_index.remove(&key) else {
            return false;
        };
        let loc = self.tasks.rows[slot as usize].location;
        let k = self
            .live_tasks
            .binary_search(&slot)
            .expect("live slot listed");
        self.live_tasks.remove(k);
        if let Some(tg) = &mut self.task_grid {
            tg.remove(slot, &loc);
        }
        let mut cands = std::mem::take(&mut self.scratch);
        cands.clear();
        if let Some(wg) = &self.worker_grid {
            wg.candidates_into(&loc, self.max_radius, &mut cands);
        }
        for &ws in &cands {
            let reach = &mut self.workers.reach[ws as usize];
            if let Ok(k) = reach.binary_search(&slot) {
                reach.remove(k);
                self.pairs -= 1;
            }
        }
        self.scratch = cands;
        true
    }

    /// Removes the worker with this key together with his reach set.
    /// Returns whether he was live (a missing key is a no-op).
    pub fn remove_worker(&mut self, key: u64) -> bool {
        let Some(slot) = self.worker_index.remove(&key) else {
            return false;
        };
        let s = slot as usize;
        let mut reach = std::mem::take(&mut self.workers.reach[s]);
        self.pairs -= reach.len();
        if reach.capacity() > 0 {
            reach.clear();
            self.reach_pool.push(reach);
        }
        let loc = self.workers.rows[s].location;
        let k = self
            .live_workers
            .binary_search(&slot)
            .expect("live slot listed");
        self.live_workers.remove(k);
        if let Some(wg) = &mut self.worker_grid {
            wg.remove(slot, &loc);
        }
        true
    }

    /// Emits the current state as a keyed [`Instance`]: live entities
    /// in insertion order, reach sets translated from slots to compact
    /// indices, budgets drawn from the source by the entities' keys.
    /// The result is bit-identical to [`Instance::from_keyed_locations`]
    /// over the same entities and keys in the same order — O(live +
    /// pairs) with no re-hashing and no grid rebuild.
    pub fn instance(&self) -> Instance {
        let tasks: Vec<Task> = self
            .live_tasks
            .iter()
            .map(|&s| self.tasks.rows[s as usize])
            .collect();
        let workers: Vec<Worker> = self
            .live_workers
            .iter()
            .map(|&s| self.workers.rows[s as usize])
            .collect();
        // Slot → compact index over the live span only (slots are
        // monotone, so ranks preserve ascending order inside each reach
        // set, and the table never outgrows the live window even though
        // slot numbers themselves grow for the stream's lifetime).
        let base = self.live_tasks.first().map_or(0, |&s| s as usize);
        let span = self.live_tasks.last().map_or(0, |&s| s as usize + 1 - base);
        let mut rank = vec![u32::MAX; span];
        for (i, &s) in self.live_tasks.iter().enumerate() {
            rank[s as usize - base] = i as u32;
        }
        let reach = self
            .live_workers
            .iter()
            .map(|&ws| {
                self.workers.reach[ws as usize]
                    .iter()
                    .map(|&ts| rank[ts as usize - base] as usize)
                    .collect()
            })
            .collect();
        Instance::from_parts(
            tasks,
            workers,
            reach,
            self.budgets,
            self.task_keys().collect(),
            self.worker_keys().collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpta_spatial::Point;

    /// Key-dependent draws, so misaligned budgets are caught.
    fn source() -> SeededBudgets {
        SeededBudgets::new(7, 0, (0.2, 1.0), 3)
    }

    /// Asserts the delta's emission equals the scratch rebuild over
    /// the same entities in the same order.
    fn assert_matches_scratch(delta: &DeltaInstance) {
        let tasks: Vec<(u64, Task)> = delta
            .task_keys()
            .zip(delta.instance().tasks().iter().copied())
            .collect();
        let workers: Vec<(u64, Worker)> = delta
            .worker_keys()
            .zip(delta.instance().workers().iter().copied())
            .collect();
        let reference = Instance::from_locations(
            tasks.iter().map(|&(_, t)| t).collect(),
            workers.iter().map(|&(_, w)| w).collect(),
            |i, j| source().vector(tasks[i].0, workers[j].0),
        );
        let got = delta.instance();
        assert_eq!(got.n_tasks(), reference.n_tasks());
        assert_eq!(got.n_workers(), reference.n_workers());
        assert_eq!(got.feasible_pairs(), reference.feasible_pairs());
        assert_eq!(delta.feasible_pairs(), reference.feasible_pairs());
        for j in 0..reference.n_workers() {
            assert_eq!(got.reach(j), reference.reach(j), "worker {j}");
            for &i in reference.reach(j) {
                assert_eq!(got.budget(i, j), reference.budget(i, j));
                assert_eq!(
                    got.distance(i, j).to_bits(),
                    reference.distance(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn tasks_before_any_worker_are_indexed_lazily() {
        let mut d = DeltaInstance::new(source());
        d.insert_task(0, Task::new(Point::new(1.0, 1.0), 4.5));
        d.insert_task(1, Task::new(Point::new(3.0, 1.0), 4.5));
        assert_eq!(d.feasible_pairs(), 0);
        d.insert_worker(0, Worker::new(Point::new(0.0, 1.0), 3.5));
        assert_eq!(d.feasible_pairs(), 2);
        assert_matches_scratch(&d);
    }

    #[test]
    fn inserts_and_removes_track_reach_exactly() {
        let mut d = DeltaInstance::new(source());
        d.insert_worker(0, Worker::new(Point::new(0.0, 0.0), 3.0));
        d.insert_worker(1, Worker::new(Point::new(10.0, 0.0), 3.0));
        d.insert_task(0, Task::new(Point::new(1.0, 0.0), 1.0));
        d.insert_task(1, Task::new(Point::new(9.0, 0.0), 1.0));
        d.insert_task(2, Task::new(Point::new(5.0, 0.0), 1.0));
        assert_matches_scratch(&d);
        assert!(d.remove_task(0));
        assert!(!d.remove_task(0), "second removal is a no-op");
        assert_matches_scratch(&d);
        assert!(d.remove_worker(1));
        assert_matches_scratch(&d);
        // Re-insert the worker key (service return): fresh slot at the
        // end, exactly like a pool re-push.
        d.insert_worker(1, Worker::new(Point::new(6.0, 0.0), 3.0));
        d.insert_task(3, Task::new(Point::new(6.5, 0.0), 1.0));
        assert_matches_scratch(&d);
        assert_eq!(d.worker_keys().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn boundary_task_is_in_reach() {
        let mut d = DeltaInstance::new(source());
        d.insert_worker(0, Worker::new(Point::new(0.0, 0.0), 2.0));
        d.insert_task(0, Task::new(Point::new(2.0, 0.0), 1.0));
        assert_eq!(d.feasible_pairs(), 1); // d == r counts (A_j closed)
        assert_matches_scratch(&d);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn duplicate_task_key_panics() {
        let mut d = DeltaInstance::new(source());
        d.insert_task(3, Task::new(Point::ORIGIN, 1.0));
        d.insert_task(3, Task::new(Point::ORIGIN, 1.0));
    }

    #[test]
    fn empty_emission() {
        let d = DeltaInstance::new(source());
        let inst = d.instance();
        assert_eq!(inst.n_tasks(), 0);
        assert_eq!(inst.n_workers(), 0);
    }

    #[test]
    fn wide_radius_after_small_cell_still_exact() {
        let mut d = DeltaInstance::new(source());
        // First worker fixes a small cell; a later disc spans many.
        d.insert_worker(0, Worker::new(Point::new(0.0, 0.0), 0.5));
        for k in 0..20u64 {
            d.insert_task(k, Task::new(Point::new(k as f64, 0.0), 1.0));
        }
        d.insert_worker(1, Worker::new(Point::new(10.0, 0.0), 50.0));
        assert_matches_scratch(&d);
        d.insert_task(99, Task::new(Point::new(-4.0, 3.0), 1.0));
        assert_matches_scratch(&d);
    }
}
