//! Property tests of the adaptive windowing controller
//! ([`WindowPolicy::Adaptive`]):
//!
//! * **progress** — windowing always terminates with every arrival
//!   covered exactly once (no zero-width window livelock), for random
//!   streams, random controller knobs and adversarial burst ties;
//! * **degeneracy** — under constant Paced load with a slack target
//!   and an unreachable burst threshold, the adaptive run is
//!   *bit-identical* to the equivalent static `ByTime` policy (same
//!   windows, same assignments, same spend);
//! * **shard equivalence** — on shard-disjoint input, flat, drop-pairs
//!   and halo execution of the same adaptive configuration agree bit
//!   for bit: one controller windows the merged global stream in all
//!   three modes, and the merged per-shard feedback reproduces the
//!   flat run's feedback exactly.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, run_sharded_halo, AdaptivePolicy, ArrivalEvent, ArrivalModel, ArrivalStream,
    StreamConfig, StreamDriver, TaskArrival, TaskFate, WindowPolicy, WorkerArrival,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn random_stream(tasks: &[(f64, f64, f64)], workers: &[(f64, f64, f64, f64)]) -> ArrivalStream {
    let mut events = Vec::new();
    for (id, &(x, y, t)) in tasks.iter().enumerate() {
        events.push(ArrivalEvent::Task(TaskArrival {
            id: id as u32,
            time: t,
            task: Task::new(Point::new(x, y), 4.5),
        }));
    }
    for (id, &(x, y, r, t)) in workers.iter().enumerate() {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: id as u32,
            time: t,
            worker: Worker::new(Point::new(x, y), r),
        }));
    }
    ArrivalStream::new(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Adaptive windowing always makes progress: the driver terminates,
    // conservation holds, and the window count stays under the bound
    // implied by "every window consumes an event or advances time by
    // at least `min_width`". Task times are drawn from a *coarse* grid
    // (multiples of 10 s) so many arrivals tie exactly — the regime
    // where a zero-width burst cut could livelock if membership were
    // keyed on time instead of the consuming cursor.
    #[test]
    fn adaptive_windowing_always_makes_progress(
        task_slots in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0u32..60), 1..40),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 3.0f64..20.0, 0.0f64..400.0), 1..8),
        min_width in 5.0f64..50.0,
        base_mult in 1usize..8,
        burst_tasks in 1usize..6,
        target_p95 in 10.0f64..500.0,
    ) {
        let tasks: Vec<(f64, f64, f64)> = task_slots
            .iter()
            .map(|&(x, y, slot)| (x, y, slot as f64 * 10.0))
            .collect();
        let stream = random_stream(&tasks, &workers);
        let base_width = min_width * base_mult as f64;
        let policy = AdaptivePolicy {
            base_width,
            min_width,
            max_width: base_width * 4.0,
            burst_tasks,
            target_p95,
        };
        let cfg = StreamConfig {
            policy: WindowPolicy::Adaptive(policy),
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
        report.assert_conservation();
        prop_assert_eq!(report.task_arrivals, stream.n_tasks());
        // Progress bound: every window either consumed >= 1 event or
        // advanced time by >= min_width over the stream horizon.
        let bound = stream.events().len()
            + (stream.horizon() / min_width).ceil() as usize
            + 2;
        prop_assert!(
            report.windows.len() <= bound,
            "{} windows exceeds the progress bound {}",
            report.windows.len(),
            bound
        );
        // Windows tile the timeline: starts are non-decreasing and each
        // window starts where the previous one ended.
        for w in report.windows.windows(2) {
            prop_assert!(w[1].start == w[0].end && w[1].end >= w[1].start);
        }
    }

    // With a slack latency target and an unreachable burst threshold,
    // constant Paced load never triggers the controller, and the
    // adaptive run must be *bit-identical* to `ByTime { base_width }`.
    #[test]
    fn adaptive_degenerates_to_by_time_under_paced_load(
        n_tasks in 5usize..40,
        rate_denom in 2u32..20,
        base_width in 1usize..8,
    ) {
        let base_width = base_width as f64 * 50.0;
        let rate = 1.0 / rate_denom as f64;
        let times = ArrivalModel::Paced { rate }.times(0, n_tasks);
        let mut events: Vec<ArrivalEvent> = times
            .iter()
            .enumerate()
            .map(|(k, &t)| {
                ArrivalEvent::Task(TaskArrival {
                    id: k as u32,
                    time: t,
                    task: Task::new(Point::new((k % 7) as f64, (k % 5) as f64), 4.5),
                })
            })
            .collect();
        // A pool big enough that the run is never starved.
        for k in 0..n_tasks as u32 {
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k,
                time: 0.0,
                worker: Worker::new(Point::new((k % 7) as f64, (k % 5) as f64 + 0.3), 2.0),
            }));
        }
        let stream = ArrivalStream::new(events);
        let adaptive = StreamConfig {
            policy: WindowPolicy::Adaptive(AdaptivePolicy {
                base_width,
                min_width: base_width / 4.0,
                max_width: base_width * 4.0,
                burst_tasks: n_tasks + 1,   // unreachable
                target_p95: base_width * 2.0, // slack: ages never overshoot
            }),
            ..StreamConfig::default()
        };
        let fixed = StreamConfig {
            policy: WindowPolicy::ByTime { width: base_width },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Grd] {
            let engine = method.engine(&adaptive.params);
            let a = StreamDriver::new(engine.as_ref(), adaptive.clone()).run(&stream);
            let b = StreamDriver::new(engine.as_ref(), fixed.clone()).run(&stream);
            prop_assert_eq!(
                a.without_timing(),
                b.without_timing(),
                "{}: adaptive at a constant base width must equal the static policy",
                method
            );
        }
    }
}

/// A shard-disjoint clustered stream with bursty task arrivals: one
/// cluster per cell, worker discs interior to their cells.
fn disjoint_clustered_stream(part: &GridPartition, seed: u64) -> ArrivalStream {
    let frame = part.frame();
    let cell_w = frame.width() / part.cols() as f64;
    let cell_h = frame.height() / part.rows() as f64;
    let per_cell = 8;
    let times = ArrivalModel::Bursty {
        base_rate: 0.02,
        burst_rate: 0.3,
        period: 400.0,
        burst_fraction: 0.3,
    }
    .times(seed, per_cell * part.n_shards());
    let mut events = Vec::new();
    let (mut task_id, mut worker_id) = (0u32, 0u32);
    for cy in 0..part.rows() {
        for cx in 0..part.cols() {
            let centre = Point::new(
                frame.min.x + (cx as f64 + 0.5) * cell_w,
                frame.min.y + (cy as f64 + 0.5) * cell_h,
            );
            let radius = 0.2 * cell_w.min(cell_h);
            for k in 0..4u32 {
                let spread = 0.1 * cell_w.min(cell_h);
                let angle = k as f64 * 2.1;
                events.push(ArrivalEvent::Worker(WorkerArrival {
                    id: worker_id,
                    time: if k < 3 { 0.0 } else { 60.0 },
                    worker: Worker::new(
                        Point::new(
                            centre.x + spread * angle.cos(),
                            centre.y + spread * angle.sin(),
                        ),
                        radius,
                    ),
                }));
                worker_id += 1;
            }
            for k in 0..per_cell {
                let spread = 0.08 * cell_w.min(cell_h);
                let angle = k as f64 * 1.3 + 0.5;
                events.push(ArrivalEvent::Task(TaskArrival {
                    id: task_id,
                    time: times[task_id as usize],
                    task: Task::new(
                        Point::new(
                            centre.x + spread * angle.cos(),
                            centre.y + spread * angle.sin(),
                        ),
                        4.5,
                    ),
                }));
                task_id += 1;
            }
        }
    }
    ArrivalStream::new(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // On shard-disjoint input, flat, drop-pairs and halo execution of
    // the same adaptive configuration are bit-for-bit identical:
    // windows, fates, utility and per-worker spend all agree, because
    // every mode windows the merged global stream with one controller
    // and the merged shard feedback equals the flat feedback.
    #[test]
    fn adaptive_sharding_is_bit_for_bit_on_disjoint_input(
        seed in 0u64..1000,
        cols in 1usize..4,
        rows in 1usize..3,
        burst_tasks in 3usize..12,
    ) {
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
        let stream = disjoint_clustered_stream(&part, seed);
        prop_assume!(stream.is_shard_disjoint(&part));
        let cfg = StreamConfig {
            policy: WindowPolicy::Adaptive(AdaptivePolicy {
                base_width: 300.0,
                min_width: 50.0,
                max_width: 1200.0,
                burst_tasks,
                target_p95: 150.0,
            }),
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            for (label, sharded) in [
                ("drop-pairs", run_sharded(engine.as_ref(), &stream, &cfg, &part)),
                ("halo", run_sharded_halo(engine.as_ref(), &stream, &cfg, &part)),
            ] {
                prop_assert_eq!(sharded.matched(), flat.matched(), "{}/{}", method, label);
                prop_assert!(
                    (sharded.total_utility() - flat.total_utility()).abs() < 1e-9,
                    "{}/{}: utility {} vs {}",
                    method, label, sharded.total_utility(), flat.total_utility()
                );
                prop_assert!(
                    (sharded.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
                    "{}/{}", method, label
                );
                // Fates merge back to the flat fate map exactly.
                let mut merged: Vec<(u32, TaskFate)> = sharded
                    .shards
                    .iter()
                    .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
                    .collect();
                merged.sort_by_key(|&(id, _)| id);
                let flat_fates: Vec<(u32, TaskFate)> =
                    flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
                prop_assert_eq!(merged, flat_fates, "{}/{}: fates diverged", method, label);
                // Per-worker spend merges back exactly (bit-for-bit).
                let mut merged_spend: BTreeMap<u32, f64> = BTreeMap::new();
                for s in &sharded.shards {
                    for (&w, &eps) in &s.spend_by_worker {
                        *merged_spend.entry(w).or_insert(0.0) += eps;
                    }
                }
                for (w, eps) in &flat.spend_by_worker {
                    let got = merged_spend.get(w).copied().unwrap_or(0.0);
                    prop_assert_eq!(
                        got.to_bits(),
                        eps.to_bits(),
                        "{}/{}: worker {} spend {} vs {}",
                        method, label, w, got, eps
                    );
                }
                // Every shard's windows tile the same global cut
                // sequence the flat run used.
                for s in sharded.shards.iter().filter(|s| !s.windows.is_empty()) {
                    let flat_cuts: Vec<(f64, f64)> =
                        flat.windows.iter().map(|w| (w.start, w.end)).collect();
                    let shard_cuts: Vec<(f64, f64)> =
                        s.windows.iter().map(|w| (w.start, w.end)).collect();
                    prop_assert_eq!(&shard_cuts, &flat_cuts, "{}/{}", method, label);
                }
            }
        }
    }
}
