//! The four seeded workloads: their arrival streams, session
//! configurations and the exact properties their outputs must have.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    ArrivalEvent, ArrivalModel, ArrivalStream, ServiceModel, StreamConfig, StreamScenario,
    TaskArrival, TaskFate, WindowPolicy, WorkerArrival,
};
use dpta_workloads::{Dataset, Scenario};

/// Grid pitch between neighbouring sweep sites; a worker's disc of
/// radius [`RADIUS`] never reaches a neighbouring site.
const SPACING: f64 = 4.0;
const RADIUS: f64 = 1.0;
/// Sweep window width: one site arrives per second, so a window holds
/// about this many sites at every scale.
const SWEEP_WINDOW: f64 = 120.0;
/// City window width.
const CITY_WINDOW: f64 = 60.0;

/// Which session the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `StreamSession`.
    Flat,
    /// A `ShardedSession` under the boundary-halo protocol on a 4×4 grid.
    Halo,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepFlat,
    SweepHalo,
    CityPuce,
    SweepDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepFlat,
        Workload::SweepHalo,
        Workload::CityPuce,
        Workload::SweepDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepFlat => "sweep-flat",
            Workload::SweepHalo => "sweep-halo",
            Workload::CityPuce => "city-puce",
            Workload::SweepDurable => "sweep-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mode(self) -> Mode {
        match self {
            Workload::SweepHalo => Mode::Halo,
            _ => Mode::Flat,
        }
    }

    pub fn method(self) -> Method {
        match self {
            Workload::CityPuce => Method::Puce,
            _ => Method::Grd,
        }
    }

    /// Task sites of the sweep workloads.
    pub fn sweep_sites(self) -> Option<usize> {
        match self {
            Workload::SweepFlat => Some(1_000_000),
            Workload::SweepHalo => Some(300_000),
            Workload::SweepDurable => Some(100_000),
            Workload::CityPuce => None,
        }
    }

    pub fn window_width(self) -> f64 {
        match self {
            Workload::CityPuce => CITY_WINDOW,
            _ => SWEEP_WINDOW,
        }
    }

    /// Windows between two checkpoints. `sweep-durable` checkpoints
    /// about 20 times per drain and continues on the restored session;
    /// every other workload makes its checkpoint round trips once, at
    /// an early window, where history is still small (see
    /// [`Workload::probe_round_trips`]).
    pub fn checkpoint_every(self) -> usize {
        match self {
            Workload::SweepDurable => 42,
            _ => PROBE_WINDOW,
        }
    }

    /// Checkpoint round trips made back to back at each checkpoint.
    pub fn probe_round_trips(self) -> usize {
        match self {
            Workload::SweepDurable => 1,
            Workload::CityPuce => 3,
            _ => 8,
        }
    }

    /// Whether checkpoints recur for the whole drain or happen once.
    pub fn checkpoints_recur(self) -> bool {
        self == Workload::SweepDurable
    }

    pub fn stream(self, seed: u64) -> ArrivalStream {
        match self.sweep_sites() {
            Some(n) => sweep_stream(n, seed),
            None => city_stream(seed),
        }
    }

    pub fn config(self, seed: u64) -> StreamConfig {
        match self {
            Workload::CityPuce => StreamConfig {
                policy: WindowPolicy::ByTime { width: CITY_WINDOW },
                service: ServiceModel::Jittered {
                    secs: 600.0,
                    frac: 0.5,
                },
                worker_capacity: CITY_CAPACITY,
                ..StreamConfig::for_scenario(&Scenario {
                    seed,
                    ..city_scenario().scenario
                })
            },
            _ => StreamConfig {
                policy: WindowPolicy::ByTime {
                    width: SWEEP_WINDOW,
                },
                ..StreamConfig::default()
            },
        }
    }

    /// The halo workload's 4×4 partition over the sweep's occupied
    /// square; `None` for flat workloads.
    pub fn partition(self) -> Option<GridPartition> {
        let n = self.sweep_sites().filter(|_| self.mode() == Mode::Halo)?;
        let extent = side(n) as f64 * SPACING;
        Some(GridPartition::new(
            Aabb::from_extents(0.0, 0.0, extent, extent),
            4,
            4,
        ))
    }
}

/// Window index of the single checkpoint point on workloads that do not
/// checkpoint throughout.
const PROBE_WINDOW: usize = 10;

/// Side length (in sites) of the square occupied by `n` sites.
fn side(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which of the five sites of group `group` is the orphan task.
fn orphan_slot(seed: u64, group: usize) -> usize {
    (splitmix64(seed ^ splitmix64(group as u64)) % 5) as usize
}

/// Whether sweep site `k` is an orphan task (no co-sited worker).
fn is_orphan(seed: u64, k: usize) -> bool {
    k % 5 == orphan_slot(seed, k / 5)
}

/// The constant-density sweep of `crates/bench/benches/scale_sweep.rs`
/// with a seeded orphan: per site `k` a task arrives at `t = k` half a
/// radius from a co-sited worker, except on one site of every five
/// (chosen by the seed), whose task has no worker in reach.
fn sweep_stream(n: usize, seed: u64) -> ArrivalStream {
    assert_eq!(n % 5, 0, "sweep site count must be a multiple of five");
    let side = side(n);
    let mut events = Vec::with_capacity(2 * n);
    for k in 0..n {
        let x = (k % side) as f64 * SPACING;
        let y = (k / side) as f64 * SPACING;
        let t = k as f64;
        if !is_orphan(seed, k) {
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k as u32,
                time: t,
                worker: Worker::new(Point::new(x, y), RADIUS),
            }));
        }
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k as u32,
            time: t,
            task: Task::new(Point::new(x + 0.5 * RADIUS, y), 4.5),
        }));
    }
    ArrivalStream::new(events)
}

/// The Chengdu-like city: 20 k tasks and 40 k workers, half of the
/// fleet on duty at `t = 0`; tasks and late workers arrive Poisson at
/// one per second.
fn city_scenario() -> StreamScenario {
    StreamScenario {
        scenario: Scenario {
            batch_size: 1000,
            n_batches: 20,
            seed: CITY_LAYOUT_SEED,
            ..Scenario::for_dataset(Dataset::Chengdu)
        },
        task_model: ArrivalModel::Poisson { rate: 1.0 },
        worker_model: ArrivalModel::Poisson { rate: 1.0 },
        initial_worker_fraction: 0.5,
    }
}

/// Lifetime privacy budget per city worker. Under it about one worker
/// in twelve retires, and warm PUCE drives run under the remaining-
/// budget guard (`drive_capped`), so the ledger and the capped engine
/// path both do work.
const CITY_CAPACITY: f64 = 40.0;

/// The simulator seed of the city's layout. The layout (hotspots,
/// pickups, taxi positions) stays fixed across benchmark seeds: it
/// sets how much work a window is, and a different city per seed would
/// spread the timings by the city, not by the code.
const CITY_LAYOUT_SEED: u64 = 42;

/// The city stream for `seed`: the fixed layout, with task and
/// late-worker arrival times drawn from `seed` (the budget vectors and
/// the engine's noise follow `seed` through the configuration).
fn city_stream(seed: u64) -> ArrivalStream {
    let sc = city_scenario();
    let base = sc.stream();
    let n_late = base
        .events()
        .iter()
        .filter(|e| matches!(e, ArrivalEvent::Worker(w) if w.time > 0.0))
        .count();
    let n_initial = base.n_workers() - n_late;
    let task_times = sc.task_model.times(seed ^ 0x7A5C, base.n_tasks());
    let late_times = sc.worker_model.times(seed ^ 0x3D1F, n_late);
    let events = base
        .events()
        .iter()
        .map(|&e| match e {
            ArrivalEvent::Task(t) => ArrivalEvent::Task(TaskArrival {
                time: task_times[t.id as usize],
                ..t
            }),
            ArrivalEvent::Worker(w) if (w.id as usize) >= n_initial => {
                ArrivalEvent::Worker(WorkerArrival {
                    time: late_times[w.id as usize - n_initial],
                    ..w
                })
            }
            worker => worker,
        })
        .collect();
    ArrivalStream::new(events)
}

/// Checks the sweep's exact structure on a task-fate map: every paired
/// site's task went to its co-sited worker, every orphan expired or is
/// still pending. Returns a description of the first violation.
pub fn check_sweep_fates<'a>(
    n: usize,
    seed: u64,
    fates: impl Iterator<Item = (&'a u32, &'a TaskFate)>,
) -> Result<(), String> {
    let mut seen = 0usize;
    for (&id, fate) in fates {
        seen += 1;
        let orphan = is_orphan(seed, id as usize);
        let ok = match fate {
            TaskFate::Assigned { worker, .. } => !orphan && *worker == id,
            TaskFate::Expired { .. } | TaskFate::Pending => orphan,
        };
        if !ok {
            return Err(format!(
                "sweep task {id} (orphan: {orphan}) ended as {fate:?}"
            ));
        }
    }
    if seen != n {
        return Err(format!("sweep has {seen} task fates, expected {n}"));
    }
    Ok(())
}
