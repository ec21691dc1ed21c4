//! Scenario = one Table X parameter assignment turned into runnable
//! [`Instance`] batches.

use crate::batching::{batch_orders, TaxiGroups, TAXI_GROUPS};
use crate::chengdu::ChengduSim;
use crate::synthetic::{normal_points, uniform_points};
use dpta_core::{Instance, Task, Worker};
use dpta_dp::SeededBudgets;
use dpta_spatial::Point;
use serde::{Deserialize, Serialize};

/// The three data sets of Section VII-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Ride-hailing simulator standing in for the Didi Chengdu trace.
    Chengdu,
    /// 2-D normal, variance 150.
    Normal,
    /// 2-D uniform in a 100×100 plane.
    Uniform,
}

impl Dataset {
    /// All three data sets.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Chengdu, Dataset::Normal, Dataset::Uniform]
    }

    /// Lower-case name as used in the paper's figure captions.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Chengdu => "chengdu",
            Dataset::Normal => "normal",
            Dataset::Uniform => "uniform",
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How task values `v_i` are assigned (the paper's conclusion lists
/// value models beyond a constant as future work: "the task value is
/// related to task itself, travel distance and privacy cost").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ValueModel {
    /// Every task is worth the scenario's `task_value` — the paper's
    /// evaluation setting (Table X sweeps this constant).
    Constant,
    /// Ride-hailing pricing: `v = base + per_km · trip_length`, using
    /// the order's pickup→drop-off distance. Only the chengdu simulator
    /// carries trips; the synthetic data sets fall back to `base`.
    PerTripKm {
        /// Flag-fall component.
        base: f64,
        /// Per-kilometre component.
        per_km: f64,
    },
}

impl ValueModel {
    /// Decodes the trip length (km) back out of a task value priced by
    /// this model — the inverse of the `PerTripKm` pricing formula,
    /// clamped at zero. [`Constant`](ValueModel::Constant) values carry
    /// no trip, so the decode is zero.
    ///
    /// The streaming layer's service-duration model rides on this: a
    /// matched worker's time-in-service is derived from the trip length
    /// its task's value encodes, without the stream having to carry
    /// drop-off locations.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_workloads::ValueModel;
    ///
    /// let pricing = ValueModel::PerTripKm { base: 2.0, per_km: 0.8 };
    /// assert!((pricing.trip_km(6.0) - 5.0).abs() < 1e-12);
    /// assert_eq!(pricing.trip_km(1.0), 0.0); // below flag-fall: clamped
    /// assert_eq!(ValueModel::Constant.trip_km(4.5), 0.0);
    /// ```
    pub fn trip_km(&self, value: f64) -> f64 {
        match *self {
            ValueModel::Constant => 0.0,
            ValueModel::PerTripKm { base, per_km } => {
                if per_km > 0.0 {
                    ((value - base) / per_km).max(0.0)
                } else {
                    0.0
                }
            }
        }
    }
}

/// One experimental configuration (Table X). Defaults are the bold
/// values: worker-task ratio 2, task value 4.5, worker range 1.4,
/// privacy budget range [0.5, 1.75], budget group size 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Which data set to generate.
    pub dataset: Dataset,
    /// Worker-task ratio `pwt = |S_W| / |S_T|`.
    pub worker_task_ratio: f64,
    /// Task value `v_i` (uniform across tasks, as swept in Figures 5/6).
    pub task_value: f64,
    /// Value model (see [`ValueModel`]).
    pub value_model: ValueModel,
    /// Worker range `r_j` in km (uniform across workers).
    pub worker_range: f64,
    /// Privacy budget draw range.
    pub budget_range: (f64, f64),
    /// Privacy budget group size `Z`.
    pub budget_group_size: usize,
    /// Tasks per batch (paper: at most 1000).
    pub batch_size: usize,
    /// Number of batches to generate.
    pub n_batches: usize,
    /// Data-set seed.
    pub seed: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            dataset: Dataset::Chengdu,
            worker_task_ratio: 2.0,
            task_value: 4.5,
            value_model: ValueModel::Constant,
            worker_range: 1.4,
            budget_range: (0.5, 1.75),
            budget_group_size: 7,
            batch_size: 1000,
            n_batches: 3,
            seed: 42,
        }
    }
}

impl Scenario {
    /// A scenario for `dataset` with every other knob at its Table X
    /// default.
    pub fn for_dataset(dataset: Dataset) -> Self {
        Scenario {
            dataset,
            ..Scenario::default()
        }
    }

    /// Workers per batch.
    pub fn workers_per_batch(&self) -> usize {
        ((self.batch_size as f64) * self.worker_task_ratio)
            .round()
            .max(1.0) as usize
    }

    /// Generates the batches as ready-to-run instances.
    pub fn batches(&self) -> Vec<Instance> {
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(self.n_batches > 0, "n_batches must be positive");
        assert!(
            self.worker_task_ratio > 0.0 && self.worker_task_ratio.is_finite(),
            "worker-task ratio must be positive"
        );
        match self.dataset {
            Dataset::Chengdu => self.chengdu_batches(),
            Dataset::Normal | Dataset::Uniform => self.synthetic_batches(),
        }
    }

    /// chengdu: a day of simulated orders batched by timestamp, served
    /// by ten circularly-reused taxi groups (Section VII-B).
    fn chengdu_batches(&self) -> Vec<Instance> {
        let sim = ChengduSim::new(self.seed);
        let orders = sim.orders(self.batch_size * self.n_batches);
        let group_size = self.workers_per_batch();
        let fleet = sim.taxis(group_size * TAXI_GROUPS);
        let groups = TaxiGroups::new(&fleet, group_size);
        batch_orders(&orders, self.batch_size)
            .into_iter()
            .enumerate()
            .map(|(b, batch)| {
                let tasks: Vec<Task> = batch
                    .iter()
                    .map(|o| {
                        let value = match self.value_model {
                            ValueModel::Constant => self.task_value,
                            ValueModel::PerTripKm { base, per_km } => {
                                base + per_km * o.pickup.distance(&o.dropoff)
                            }
                        };
                        Task::new(o.pickup, value)
                    })
                    .collect();
                let workers: Vec<Worker> = groups
                    .for_batch(b)
                    .iter()
                    .map(|t| Worker::new(t.location, self.worker_range))
                    .collect();
                self.instance(b, tasks, workers)
            })
            .collect()
    }

    /// uniform / normal: fresh point sets per batch from the same
    /// distribution (the paper draws one large point set and splits it,
    /// which is statistically identical for i.i.d. points).
    fn synthetic_batches(&self) -> Vec<Instance> {
        (0..self.n_batches)
            .map(|b| {
                let seed = self.seed ^ ((b as u64 + 1) * 0x9E37_79B9);
                let n_t = self.batch_size;
                let n_w = self.workers_per_batch();
                let (task_pts, worker_pts): (Vec<Point>, Vec<Point>) = match self.dataset {
                    Dataset::Uniform => (
                        uniform_points(seed, n_t),
                        uniform_points(seed ^ 0xFACE, n_w),
                    ),
                    Dataset::Normal => {
                        (normal_points(seed, n_t), normal_points(seed ^ 0xFACE, n_w))
                    }
                    Dataset::Chengdu => unreachable!(),
                };
                let base_value = match self.value_model {
                    ValueModel::Constant => self.task_value,
                    // Synthetic points carry no trips; use the flag-fall.
                    ValueModel::PerTripKm { base, .. } => base,
                };
                let tasks = task_pts
                    .into_iter()
                    .map(|p| Task::new(p, base_value))
                    .collect();
                let workers = worker_pts
                    .into_iter()
                    .map(|p| Worker::new(p, self.worker_range))
                    .collect();
                self.instance(b, tasks, workers)
            })
            .collect()
    }

    /// One batch's instance, its budgets keyed by `(seed, batch)` and
    /// the entities' indices within the batch.
    fn instance(&self, batch: usize, tasks: Vec<Task>, workers: Vec<Worker>) -> Instance {
        let source = SeededBudgets::new(
            self.seed,
            batch as u64,
            self.budget_range,
            self.budget_group_size,
        );
        let task_keys = (0..tasks.len() as u64).collect();
        let worker_keys = (0..workers.len() as u64).collect();
        Instance::from_keyed_locations(tasks, workers, source, task_keys, worker_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dataset: Dataset) -> Scenario {
        Scenario {
            dataset,
            batch_size: 200,
            n_batches: 2,
            ..Scenario::default()
        }
    }

    #[test]
    fn batches_have_requested_shape() {
        for ds in Dataset::all() {
            let sc = small(ds);
            let batches = sc.batches();
            assert_eq!(batches.len(), 2, "{ds}");
            for inst in &batches {
                assert_eq!(inst.n_tasks(), 200, "{ds}");
                assert_eq!(inst.n_workers(), 400, "{ds}");
                assert!(inst.tasks().iter().all(|t| t.value == 4.5));
                assert!(inst.workers().iter().all(|w| w.radius == 1.4));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in Dataset::all() {
            let a = small(ds).batches();
            let b = small(ds).batches();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.n_tasks(), y.n_tasks());
                assert_eq!(x.tasks()[0].location, y.tasks()[0].location, "{ds}");
                assert_eq!(x.workers()[3].location, y.workers()[3].location, "{ds}");
            }
        }
    }

    #[test]
    fn feasible_pairs_have_budget_vectors_of_group_size() {
        let sc = Scenario {
            budget_group_size: 7,
            ..small(Dataset::Uniform)
        };
        let inst = &sc.batches()[0];
        let mut checked = 0;
        for j in 0..inst.n_workers() {
            for &i in inst.reach(j) {
                let b = inst.budget(i, j).unwrap();
                assert_eq!(b.len(), 7);
                for &e in b.slots() {
                    assert!((0.5..1.75).contains(&e));
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "expected at least one feasible pair");
    }

    #[test]
    fn chengdu_is_sparser_than_normal_within_service_areas() {
        // The paper's Section VII-D.2 narrative: a worker in chengdu can
        // propose to fewer tasks than in normal for the same range. This
        // is the load-bearing calibration of the simulator.
        let chengdu = small(Dataset::Chengdu).batches();
        let normal = small(Dataset::Normal).batches();
        let density = |batches: &[Instance]| {
            batches.iter().map(|b| b.mean_tasks_in_range()).sum::<f64>() / batches.len() as f64
        };
        let dc = density(&chengdu);
        let dn = density(&normal);
        assert!(
            dc < dn,
            "chengdu density {dc} must be below normal density {dn}"
        );
        assert!(dn > 0.0, "normal dataset must have some reachable tasks");
    }

    #[test]
    fn worker_ratio_scales_worker_count() {
        let sc = Scenario {
            worker_task_ratio: 1.5,
            ..small(Dataset::Uniform)
        };
        assert_eq!(sc.workers_per_batch(), 300);
        let inst = &sc.batches()[0];
        assert_eq!(inst.n_workers(), 300);
    }

    #[test]
    fn per_trip_value_model_scales_with_trip_length() {
        let sc = Scenario {
            value_model: ValueModel::PerTripKm {
                base: 2.0,
                per_km: 0.8,
            },
            ..small(Dataset::Chengdu)
        };
        let inst = &sc.batches()[0];
        let values: Vec<f64> = inst.tasks().iter().map(|t| t.value).collect();
        // Values vary with trips and never drop below the flag-fall.
        assert!(values.iter().all(|&v| v >= 2.0));
        let spread = values.iter().cloned().fold(f64::MIN, f64::max)
            - values.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread > 0.5,
            "trip pricing must spread values, got {spread}"
        );
        // Synthetic fallback: every value equals the flag-fall.
        let sc = Scenario {
            value_model: ValueModel::PerTripKm {
                base: 2.0,
                per_km: 0.8,
            },
            ..small(Dataset::Uniform)
        };
        assert!(sc.batches()[0].tasks().iter().all(|t| t.value == 2.0));
    }

    #[test]
    fn worker_range_controls_reach() {
        let narrow = Scenario {
            worker_range: 0.8,
            ..small(Dataset::Normal)
        };
        let wide = Scenario {
            worker_range: 2.0,
            ..small(Dataset::Normal)
        };
        let dn = narrow.batches()[0].mean_tasks_in_range();
        let dw = wide.batches()[0].mean_tasks_in_range();
        assert!(dw > dn, "wider range must reach more tasks ({dn} vs {dw})");
    }
}
