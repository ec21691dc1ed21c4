//! A PA-TA problem instance: tasks, workers, distances, service-area
//! reach sets `R_j`, and privacy budget vectors `ε_{i,j}`.
//!
//! A *keyed* instance draws every budget on demand from a
//! [`SeededBudgets`] source and each entity's logical id; a *table*
//! instance stores what a caller's closure returned, for budgets no
//! generator expresses (the paper's worked examples). Engines read
//! both through [`Instance::epsilon`].

use crate::model::{Task, Worker};
use dpta_dp::{BudgetVector, SeededBudgets};
use dpta_spatial::{Circle, DistanceMatrix, GridIndex};
use std::borrow::Cow;

/// How pair distances are stored.
///
/// Geometric instances (the normal case) derive `d_{i,j}` from the
/// entity locations on demand — O(m+n) memory instead of the O(m·n)
/// dense matrix, which matters at the paper's 1000×3000 batch sizes.
/// Table-based instances (the paper's worked examples) carry the dense
/// matrix they were built from.
#[derive(Debug, Clone)]
enum DistanceStore {
    Geometric,
    Dense(DistanceMatrix),
}

/// Where the budget vectors `ε_{i,j}` come from.
#[derive(Debug, Clone)]
enum BudgetStore {
    /// Slot `u` of pair `(i, j)` is
    /// `source.epsilon(task_keys[i], worker_keys[j], u)`.
    Keyed {
        source: SeededBudgets,
        task_keys: Vec<u64>,
        worker_keys: Vec<u64>,
    },
    /// `table[j][k]` is the vector for task `reach.row(j)[k]`.
    Table(Vec<Vec<BudgetVector>>),
}

/// The reach sets `R_j` in compressed rows: worker `j`'s tasks are
/// `tasks[start[j]..start[j + 1]]`, ascending. One allocation for all
/// rows, however many workers the instance holds.
#[derive(Debug, Clone)]
struct Reach {
    start: Vec<usize>,
    tasks: Vec<usize>,
}

impl Reach {
    #[inline]
    fn row(&self, worker: usize) -> &[usize] {
        &self.tasks[self.start[worker]..self.start[worker + 1]]
    }

    /// Groups `(worker, task)` pairs by worker with a stable counting
    /// sort, so rows keep the pairs' task order.
    fn from_pairs(n_workers: usize, pairs: &[(usize, usize)]) -> Self {
        let mut start = vec![0usize; n_workers + 1];
        for &(j, _) in pairs {
            start[j + 1] += 1;
        }
        for j in 0..n_workers {
            start[j + 1] += start[j];
        }
        // Fill each row through its start as a cursor, which leaves
        // `start[j]` at row `j`'s end; shifting by one restores it.
        let mut tasks = vec![0usize; pairs.len()];
        for &(j, i) in pairs {
            tasks[start[j]] = i;
            start[j] += 1;
        }
        start.copy_within(0..n_workers, 1);
        start[0] = 0;
        Reach { start, tasks }
    }
}

/// One batch's worth of the PA-TA problem (Definition 5).
///
/// Holds the real (secret) distances — the algorithms only consult them
/// through the worker-side code paths, never through the server board —
/// together with the public structure: who can reach what, and which
/// budget vector each feasible pair owns.
#[derive(Debug, Clone)]
pub struct Instance {
    tasks: Vec<Task>,
    workers: Vec<Worker>,
    store: DistanceStore,
    /// `reach.row(j)` = the paper's `R_j`: task indices within `r_j`
    /// of worker `j`, ascending.
    reach: Reach,
    budgets: BudgetStore,
}

/// `R_j = {i : d_{i,j} <= r_j}` for every worker, resolved with a
/// uniform grid index over the worker locations sized by the widest
/// disc: one candidate query per task, then each candidate's own
/// radius test, O(m + n + candidate pairs) instead of O(m·n). Tasks are
/// visited in ascending order, so every row comes out ascending. The
/// test is `distance_sq(worker, task) <= r_j²` whichever side is
/// indexed (`distance_sq` is exactly symmetric), so the sets do not
/// depend on the index.
fn reach_from_locations(tasks: &[Task], workers: &[Worker]) -> Reach {
    let mut pairs = Vec::new();
    if tasks.is_empty() || workers.is_empty() {
        return Reach::from_pairs(workers.len(), &[]);
    }
    let worker_locs: Vec<_> = workers.iter().map(|w| w.location).collect();
    // Radii are finite (checked by `Worker::new`), so a plain compare
    // stands in for `f64::max`.
    let max_radius = workers
        .iter()
        .fold(1e-6, |m, w| if w.radius > m { w.radius } else { m });
    let index = GridIndex::build_for_radius(&worker_locs, max_radius);
    for (i, t) in tasks.iter().enumerate() {
        index.for_each_candidate(&Circle::new(t.location, max_radius), |j| {
            let w = &workers[j];
            if w.location.distance_sq(&t.location) <= w.radius * w.radius {
                pairs.push((j, i));
            }
        });
    }
    Reach::from_pairs(workers.len(), &pairs)
}

/// The explicit budget table of `reach`: `budget_of(i, j)` for every
/// feasible pair, in reach order.
fn budget_table(
    reach: &Reach,
    mut budget_of: impl FnMut(usize, usize) -> BudgetVector,
) -> BudgetStore {
    BudgetStore::Table(
        (0..reach.start.len() - 1)
            .map(|j| reach.row(j).iter().map(|&i| budget_of(i, j)).collect())
            .collect(),
    )
}

impl Instance {
    /// Builds an instance from entity locations; distances are Euclidean
    /// and `R_j = {i : d_{i,j} <= r_j}`. Service areas are resolved with
    /// a uniform grid index over the worker locations, so construction
    /// is O(m + n + candidate pairs) instead of O(m·n). `budget_of(i, j)`
    /// supplies the budget vector for each feasible pair, stored as an
    /// explicit table.
    pub fn from_locations(
        tasks: Vec<Task>,
        workers: Vec<Worker>,
        budget_of: impl FnMut(usize, usize) -> BudgetVector,
    ) -> Self {
        let reach = reach_from_locations(&tasks, &workers);
        let budgets = budget_table(&reach, budget_of);
        Instance {
            tasks,
            workers,
            store: DistanceStore::Geometric,
            reach,
            budgets,
        }
    }

    /// Like [`from_locations`](Instance::from_locations), but budgets
    /// are drawn on demand from `source` by each entity's logical id
    /// (`task_keys[i]`, `worker_keys[j]`); nothing is stored per pair.
    pub fn from_keyed_locations(
        tasks: Vec<Task>,
        workers: Vec<Worker>,
        source: SeededBudgets,
        task_keys: Vec<u64>,
        worker_keys: Vec<u64>,
    ) -> Self {
        assert_eq!(task_keys.len(), tasks.len(), "one key per task");
        assert_eq!(worker_keys.len(), workers.len(), "one key per worker");
        let reach = reach_from_locations(&tasks, &workers);
        Instance {
            tasks,
            workers,
            store: DistanceStore::Geometric,
            reach,
            budgets: BudgetStore::Keyed {
                source,
                task_keys,
                worker_keys,
            },
        }
    }

    /// Builds an instance from an explicit distance matrix (rows =
    /// tasks, columns = workers) — used to replay the paper's worked
    /// examples, whose inputs are distance tables rather than geometry.
    pub fn from_distance_matrix(
        tasks: Vec<Task>,
        workers: Vec<Worker>,
        dist: DistanceMatrix,
        budget_of: impl FnMut(usize, usize) -> BudgetVector,
    ) -> Self {
        assert_eq!(dist.tasks(), tasks.len(), "distance matrix rows != tasks");
        assert_eq!(
            dist.workers(),
            workers.len(),
            "distance matrix cols != workers"
        );
        let mut pairs = Vec::new();
        for (j, w) in workers.iter().enumerate() {
            for i in 0..tasks.len() {
                if dist.get(i, j) <= w.radius {
                    pairs.push((j, i));
                }
            }
        }
        let reach = Reach::from_pairs(workers.len(), &pairs);
        let budgets = budget_table(&reach, budget_of);
        Instance {
            tasks,
            workers,
            store: DistanceStore::Dense(dist),
            reach,
            budgets,
        }
    }

    /// The tasks of this instance.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The workers of this instance.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Number of tasks `m`.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of workers `n`.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The real distance `d_{i,j}` (secret worker-side knowledge).
    #[inline]
    pub fn distance(&self, task: usize, worker: usize) -> f64 {
        match &self.store {
            DistanceStore::Geometric => self.tasks[task]
                .location
                .distance(&self.workers[worker].location),
            DistanceStore::Dense(m) => m.get(task, worker),
        }
    }

    /// The task value `v_i`.
    #[inline]
    pub fn task_value(&self, task: usize) -> f64 {
        self.tasks[task].value
    }

    /// The paper's `R_j`: tasks inside worker `j`'s service area,
    /// ascending by task index.
    pub fn reach(&self, worker: usize) -> &[usize] {
        self.reach.row(worker)
    }

    /// Whether task `i` is inside worker `j`'s service area.
    pub fn in_reach(&self, task: usize, worker: usize) -> bool {
        self.reach.row(worker).binary_search(&task).is_ok()
    }

    /// The budget `ε⁽ᵘ⁾_{i,j}` of the pair's `slot`-th release; `None`
    /// when the task is outside the worker's service area or the
    /// pair's vector has no such slot. The engines' one budget read:
    /// it allocates nothing, whether the budget is drawn or tabled.
    #[inline]
    pub fn epsilon(&self, task: usize, worker: usize, slot: usize) -> Option<f64> {
        let k = self.reach.row(worker).binary_search(&task).ok()?;
        match &self.budgets {
            BudgetStore::Keyed {
                source,
                task_keys,
                worker_keys,
            } => (slot < source.group_size())
                .then(|| source.epsilon(task_keys[task], worker_keys[worker], slot)),
            BudgetStore::Table(table) => table[worker][k].slots().get(slot).copied(),
        }
    }

    /// The whole budget vector `ε_{i,j}` for a feasible pair (borrowed
    /// from a table, drawn for a keyed instance); `None` when the task
    /// is outside the worker's service area.
    pub fn budget(&self, task: usize, worker: usize) -> Option<Cow<'_, BudgetVector>> {
        let k = self.reach.row(worker).binary_search(&task).ok()?;
        Some(match &self.budgets {
            BudgetStore::Keyed {
                source,
                task_keys,
                worker_keys,
            } => Cow::Owned(source.vector(task_keys[task], worker_keys[worker])),
            BudgetStore::Table(table) => Cow::Borrowed(&table[worker][k]),
        })
    }

    /// Drops the workers whose reach set `R_j` is empty (they can
    /// neither publish nor be assigned) and returns the instance over
    /// the rest with their old positions, ascending. Kept workers keep
    /// their relative order, reach rows, budgets and distances, and task
    /// indices do not move, so index tie-breaks resolve as before. One
    /// O(n) pass over the reach rows, no second grid query; without an
    /// empty row `self` comes back as it is.
    pub fn drop_idle_workers(self) -> (Instance, Vec<usize>) {
        let start = &self.reach.start;
        let kept: Vec<usize> = (0..self.workers.len())
            .filter(|&j| start[j] < start[j + 1])
            .collect();
        if kept.len() == self.workers.len() {
            return (self, kept);
        }
        let Instance {
            tasks,
            workers,
            store,
            reach,
            budgets,
        } = self;
        // Empty rows own no entries of `reach.tasks`, so each kept row
        // keeps its slice; only the row starts shift.
        let mut start = Vec::with_capacity(kept.len() + 1);
        start.push(0);
        start.extend(kept.iter().map(|&j| reach.start[j + 1]));
        let store = match store {
            DistanceStore::Geometric => DistanceStore::Geometric,
            DistanceStore::Dense(m) => {
                let rows: Vec<Vec<f64>> = (0..m.tasks())
                    .map(|i| kept.iter().map(|&j| m.get(i, j)).collect())
                    .collect();
                let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                DistanceStore::Dense(DistanceMatrix::from_rows(&rows))
            }
        };
        let budgets = match budgets {
            BudgetStore::Keyed {
                source,
                task_keys,
                worker_keys,
            } => BudgetStore::Keyed {
                source,
                task_keys,
                worker_keys: kept.iter().map(|&j| worker_keys[j]).collect(),
            },
            // Empty rows are empty vectors; dropping them keeps the rest.
            BudgetStore::Table(mut table) => {
                table.retain(|row| !row.is_empty());
                BudgetStore::Table(table)
            }
        };
        let inst = Instance {
            tasks,
            workers: kept.iter().map(|&j| workers[j]).collect(),
            store,
            reach: Reach {
                start,
                tasks: reach.tasks,
            },
            budgets,
        };
        (inst, kept)
    }

    /// Total number of feasible (task, worker) pairs.
    pub fn feasible_pairs(&self) -> usize {
        self.reach.tasks.len()
    }

    /// Average number of tasks per worker service area — the data-set
    /// density statistic the paper uses to explain PGT's behaviour
    /// (Section VII-D.2).
    pub fn mean_tasks_in_range(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.feasible_pairs() as f64 / self.workers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpta_spatial::Point;
    use proptest::prelude::*;

    fn budget(_i: usize, _j: usize) -> BudgetVector {
        BudgetVector::new(vec![1.0, 1.0])
    }

    #[test]
    fn reach_from_locations() {
        let tasks = vec![
            Task::new(Point::new(0.0, 0.0), 1.0),
            Task::new(Point::new(5.0, 0.0), 1.0),
        ];
        let workers = vec![
            Worker::new(Point::new(0.0, 1.0), 2.0), // reaches t0 only
            Worker::new(Point::new(2.5, 0.0), 3.0), // reaches both
        ];
        let inst = Instance::from_locations(tasks, workers, budget);
        assert_eq!(inst.reach(0), &[0]);
        assert_eq!(inst.reach(1), &[0, 1]);
        assert!(inst.in_reach(0, 0));
        assert!(!inst.in_reach(1, 0));
        assert!(inst.budget(1, 0).is_none());
        assert!(inst.budget(1, 1).is_some());
        assert_eq!(inst.feasible_pairs(), 3);
        assert!((inst.mean_tasks_in_range() - 1.5).abs() < 1e-12);
        // Geometric distances come straight from the locations.
        assert!((inst.distance(1, 1) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn paper_table_iii_reach_matches_table_iv_pairs() {
        // Table III distances with service areas 15, 15, 10 must produce
        // exactly the seven matchable pairs of Table IV.
        let dist = DistanceMatrix::from_rows(&[
            &[12.2, 5.0, 9.43],
            &[3.61, 10.44, 18.25],
            &[17.12, 12.21, 7.28],
        ]);
        let tasks = vec![
            Task::new(Point::ORIGIN, 12.4),
            Task::new(Point::ORIGIN, 11.0),
            Task::new(Point::ORIGIN, 13.0),
        ];
        let workers = vec![
            Worker::new(Point::ORIGIN, 15.0),
            Worker::new(Point::ORIGIN, 15.0),
            Worker::new(Point::ORIGIN, 10.0),
        ];
        let inst = Instance::from_distance_matrix(tasks, workers, dist, budget);
        assert_eq!(inst.reach(0), &[0, 1]); // w1: t1, t2
        assert_eq!(inst.reach(1), &[0, 1, 2]); // w2: all
        assert_eq!(inst.reach(2), &[0, 2]); // w3: t1, t3
        assert_eq!(inst.feasible_pairs(), 7);
    }

    #[test]
    fn dropping_idle_workers_from_a_table_instance() {
        let dist = DistanceMatrix::from_rows(&[&[1.0, 9.0, 2.0], &[8.0, 9.0, 3.0]]);
        let tasks = vec![Task::new(Point::ORIGIN, 5.0), Task::new(Point::ORIGIN, 6.0)];
        let workers = vec![
            Worker::new(Point::ORIGIN, 1.5), // reaches t0
            Worker::new(Point::ORIGIN, 1.0), // idle
            Worker::new(Point::ORIGIN, 5.0), // reaches both
        ];
        let budget_of = |i: usize, j: usize| BudgetVector::new(vec![(1 + i + 10 * j) as f64]);
        let inst = Instance::from_distance_matrix(tasks, workers, dist, budget_of);
        let (inst, kept) = inst.drop_idle_workers();
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(inst.reach(0), &[0]);
        assert_eq!(inst.reach(1), &[0, 1]);
        assert_eq!(inst.distance(1, 1), 3.0);
        assert_eq!(inst.epsilon(1, 1, 0), Some(22.0));
        assert_eq!(inst.epsilon(0, 0, 0), Some(1.0));
    }

    #[test]
    fn boundary_task_is_in_reach() {
        let dist = DistanceMatrix::from_rows(&[&[2.0]]);
        let inst = Instance::from_distance_matrix(
            vec![Task::new(Point::ORIGIN, 1.0)],
            vec![Worker::new(Point::ORIGIN, 2.0)],
            dist,
            budget,
        );
        assert!(inst.in_reach(0, 0)); // d == r counts (A_j is closed)
    }

    #[test]
    #[should_panic(expected = "distance matrix rows")]
    fn mismatched_matrix_panics() {
        let dist = DistanceMatrix::from_rows(&[&[1.0]]);
        let _ = Instance::from_distance_matrix(
            vec![],
            vec![Worker::new(Point::ORIGIN, 1.0)],
            dist,
            budget,
        );
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_locations(vec![], vec![], budget);
        assert_eq!(inst.n_tasks(), 0);
        assert_eq!(inst.n_workers(), 0);
        assert_eq!(inst.mean_tasks_in_range(), 0.0);
    }

    #[test]
    fn empty_keyed_instance() {
        let keyed = keyed(vec![], vec![]);
        assert_eq!(keyed.n_tasks(), 0);
        assert_eq!(keyed.n_workers(), 0);
        let no_tasks = keyed_at(&[], &[(0.0, 0.0, 1.0)]);
        assert_eq!(no_tasks.reach(0), &[] as &[usize]);
    }

    /// Key-dependent draws, so misaligned budgets are caught.
    fn source() -> SeededBudgets {
        SeededBudgets::new(7, 0, (0.2, 1.0), 3)
    }

    /// A keyed instance whose keys are the entity indices.
    fn keyed(tasks: Vec<Task>, workers: Vec<Worker>) -> Instance {
        let task_keys = (0..tasks.len() as u64).collect();
        let worker_keys = (0..workers.len() as u64).collect();
        Instance::from_keyed_locations(tasks, workers, source(), task_keys, worker_keys)
    }

    fn keyed_at(task_pts: &[(f64, f64)], worker_pts: &[(f64, f64, f64)]) -> Instance {
        keyed(
            task_pts
                .iter()
                .map(|&(x, y)| Task::new(Point::new(x, y), 1.0))
                .collect(),
            worker_pts
                .iter()
                .map(|&(x, y, r)| Worker::new(Point::new(x, y), r))
                .collect(),
        )
    }

    /// The O(m·n) reference: every task whose squared distance to the
    /// worker is within the worker's own squared radius.
    fn brute_force_reach(inst: &Instance, j: usize) -> Vec<usize> {
        let w = &inst.workers()[j];
        inst.tasks()
            .iter()
            .enumerate()
            .filter(|(_, t)| w.location.distance_sq(&t.location) <= w.radius * w.radius)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn geometric_boundary_task_is_in_reach() {
        let inst = keyed_at(&[(2.0, 0.0)], &[(0.0, 0.0, 2.0)]);
        assert_eq!(inst.feasible_pairs(), 1); // d == r counts (A_j closed)
        assert_eq!(inst.budget(0, 0).unwrap().slots().len(), 3);
    }

    #[test]
    fn wide_radius_after_small_cell_still_exact() {
        // A small disc next to one spanning the whole frame: the index
        // is sized by the wide one, the small one keeps its own radius.
        let mut task_pts: Vec<(f64, f64)> = (0..20).map(|k| (k as f64, 0.0)).collect();
        task_pts.push((-4.0, 3.0));
        let inst = keyed_at(&task_pts, &[(0.0, 0.0, 0.5), (10.0, 0.0, 50.0)]);
        assert_eq!(inst.reach(0), &[0]);
        assert_eq!(inst.reach(1), &(0..21).collect::<Vec<_>>()[..]);
        for j in 0..2 {
            assert_eq!(inst.reach(j), &brute_force_reach(&inst, j)[..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn grid_backed_reach_equals_brute_force(
            task_pts in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 0..40),
            worker_pts in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0, 0.2f64..5.0), 1..25),
        ) {
            let tasks: Vec<Task> = task_pts
                .iter()
                .map(|&(x, y)| Task::new(Point::new(x, y), 1.0))
                .collect();
            let workers: Vec<Worker> = worker_pts
                .iter()
                .map(|&(x, y, r)| Worker::new(Point::new(x, y), r))
                .collect();
            let inst = Instance::from_locations(tasks.clone(), workers.clone(), budget);
            for (j, w) in workers.iter().enumerate() {
                let brute: Vec<usize> = tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.location.distance_sq(&w.location) <= w.radius * w.radius)
                    .map(|(i, _)| i)
                    .collect();
                prop_assert_eq!(inst.reach(j), &brute[..], "worker {}", j);
            }
        }

        // Mixed radii with an optional disc wider than the frame, both
        // m < n and m > n, half-unit lattice points so exact `d == r`
        // ties occur (3-4-5 triangles included), and repeated points so
        // tasks and workers coincide.
        #[test]
        fn keyed_reach_equals_brute_force(
            task_pts in proptest::collection::vec((0u8..24, 0u8..24), 0..40),
            worker_pts in proptest::collection::vec((0u8..24, 0u8..24, 0u8..6), 1..40),
            wide in (proptest::bool::ANY, 0u8..24, 0u8..24),
        ) {
            let half = |v: u8| f64::from(v) * 0.5;
            let tasks: Vec<(f64, f64)> = task_pts.iter().map(|&(x, y)| (half(x), half(y))).collect();
            let mut workers: Vec<(f64, f64, f64)> = worker_pts
                .iter()
                .map(|&(x, y, r)| (half(x), half(y), half(r)))
                .collect();
            if let (true, x, y) = wide {
                workers.push((half(x), half(y), 40.0));
            }
            let inst = keyed_at(&tasks, &workers);
            for j in 0..inst.n_workers() {
                prop_assert_eq!(inst.reach(j), &brute_force_reach(&inst, j)[..], "worker {}", j);
            }
        }

        // Clustered tasks and workers scattered over a wider frame, so
        // some draws leave workers with empty reach sets and some none.
        #[test]
        fn dropping_idle_workers_keeps_every_reaching_row(
            task_pts in proptest::collection::vec((0u8..16, 0u8..16), 0..30),
            worker_pts in proptest::collection::vec((0u8..48, 0u8..48, 0u8..8), 0..40),
        ) {
            let half = |v: u8| f64::from(v) * 0.5;
            let tasks: Vec<(f64, f64)> = task_pts.iter().map(|&(x, y)| (half(x), half(y))).collect();
            let workers: Vec<(f64, f64, f64)> = worker_pts
                .iter()
                .map(|&(x, y, r)| (half(x), half(y), half(r)))
                .collect();
            let full = keyed_at(&tasks, &workers);
            let (kept_inst, kept) = keyed_at(&tasks, &workers).drop_idle_workers();
            let reaching: Vec<usize> =
                (0..full.n_workers()).filter(|&j| !full.reach(j).is_empty()).collect();
            prop_assert_eq!(&kept, &reaching);
            prop_assert_eq!(kept_inst.n_workers(), kept.len());
            prop_assert_eq!(kept_inst.n_tasks(), full.n_tasks());
            prop_assert_eq!(kept_inst.feasible_pairs(), full.feasible_pairs());
            for (k, &j) in kept.iter().enumerate() {
                prop_assert_eq!(kept_inst.workers()[k], full.workers()[j]);
                prop_assert_eq!(kept_inst.reach(k), full.reach(j));
                for &i in full.reach(j) {
                    prop_assert_eq!(kept_inst.distance(i, k).to_bits(), full.distance(i, j).to_bits());
                    for u in 0..=source().group_size() {
                        prop_assert_eq!(
                            kept_inst.epsilon(i, k, u).map(f64::to_bits),
                            full.epsilon(i, j, u).map(f64::to_bits)
                        );
                    }
                }
            }
            if reaching.len() == full.n_workers() {
                // Nothing dropped: the very same instance comes back.
                let ptr = full.workers().as_ptr();
                let (same, kept) = full.drop_idle_workers();
                prop_assert_eq!(same.workers().as_ptr(), ptr);
                prop_assert_eq!(kept, (0..same.n_workers()).collect::<Vec<_>>());
            }
        }

        #[test]
        fn geometric_distance_matches_dense_matrix(
            task_pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..10),
            worker_pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..10),
        ) {
            let tasks: Vec<Task> = task_pts
                .iter()
                .map(|&(x, y)| Task::new(Point::new(x, y), 1.0))
                .collect();
            let workers: Vec<Worker> = worker_pts
                .iter()
                .map(|&(x, y)| Worker::new(Point::new(x, y), 100.0))
                .collect();
            let dense = DistanceMatrix::compute(
                &tasks.iter().map(|t| t.location).collect::<Vec<_>>(),
                &workers.iter().map(|w| w.location).collect::<Vec<_>>(),
            );
            let geo = Instance::from_locations(tasks.clone(), workers.clone(), budget);
            let tab = Instance::from_distance_matrix(tasks, workers, dense, budget);
            for i in 0..geo.n_tasks() {
                for j in 0..geo.n_workers() {
                    prop_assert!((geo.distance(i, j) - tab.distance(i, j)).abs() < 1e-12);
                }
            }
        }
    }
}
