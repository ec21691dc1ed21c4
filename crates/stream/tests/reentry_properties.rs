//! Property tests of worker re-entry ([`ServiceModel`]):
//!
//! * **mode agreement** — on shard-disjoint input, flat, drop-pairs and
//!   halo execution agree bit-for-bit (fates, matched counts, window
//!   cuts) and to float tolerance on per-worker lifetime spend, with a
//!   service model enabled — re-entry must not break the equivalence
//!   gates the serve-and-leave pipeline pins;
//! * **replay determinism** — the same seed replays a re-entry run
//!   identically, service cycles included;
//! * **budget exactness** — a returned worker's cumulative spend is
//!   continuous across service cycles: under a finite `worker_capacity`
//!   the per-worker lifetime spend never overshoots, no matter how many
//!   times the worker cycles through the pool (flat and halo driving);
//! * **degeneration** — a service duration beyond the stream horizon
//!   reproduces serve-and-leave (`ServiceModel::Never`) exactly on
//!   fates, spend and window cuts: nobody ever returns, so the two
//!   pipelines must walk the same path.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, run_sharded_halo, AdaptivePolicy, ArrivalEvent, ArrivalStream, ServiceModel,
    ShardedReport, StreamConfig, StreamDriver, StreamReport, TaskArrival, TaskFate, WindowPolicy,
    WorkerArrival,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A shard-disjoint clustered stream over `part`: workers sit near
/// their cell centre with service discs interior to the cell, tasks
/// jitter around the same centre, arrival times drawn by proptest.
fn disjoint_stream(
    part: &GridPartition,
    worker_times: &[f64],
    task_times: &[f64],
) -> ArrivalStream {
    let frame = part.frame();
    let cell_w = frame.width() / part.cols() as f64;
    let cell_h = frame.height() / part.rows() as f64;
    let mut events = Vec::new();
    let (mut task_id, mut worker_id) = (0u32, 0u32);
    let n_cells = part.n_shards();
    for (k, &t) in worker_times.iter().enumerate() {
        let cell = k % n_cells;
        let (cx, cy) = (cell % part.cols(), cell / part.cols());
        let centre = Point::new(
            frame.min.x + (cx as f64 + 0.5) * cell_w,
            frame.min.y + (cy as f64 + 0.5) * cell_h,
        );
        let spread = 0.1 * cell_w.min(cell_h);
        let angle = k as f64 * 2.39996; // golden-angle scatter
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: worker_id,
            time: t,
            worker: Worker::new(
                Point::new(
                    centre.x + spread * angle.cos(),
                    centre.y + spread * angle.sin(),
                ),
                0.25 * cell_w.min(cell_h),
            ),
        }));
        worker_id += 1;
    }
    for (k, &t) in task_times.iter().enumerate() {
        let cell = k % n_cells;
        let (cx, cy) = (cell % part.cols(), cell / part.cols());
        let centre = Point::new(
            frame.min.x + (cx as f64 + 0.5) * cell_w,
            frame.min.y + (cy as f64 + 0.5) * cell_h,
        );
        let spread = 0.08 * cell_w.min(cell_h);
        let angle = k as f64 * 1.7 + 0.3;
        events.push(ArrivalEvent::Task(TaskArrival {
            id: task_id,
            time: t,
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
    ArrivalStream::new(events)
}

fn merged_fates(report: &ShardedReport) -> Vec<(u32, TaskFate)> {
    let mut fates: Vec<(u32, TaskFate)> = report
        .shards
        .iter()
        .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
        .collect();
    fates.sort_by_key(|&(id, _)| id);
    fates
}

fn merged_spend(report: &ShardedReport) -> BTreeMap<u32, f64> {
    report
        .shards
        .iter()
        .flat_map(|s| s.spend_by_worker.iter().map(|(&w, &e)| (w, e)))
        .collect()
}

fn cuts(report: &StreamReport) -> Vec<(f64, f64)> {
    report.windows.iter().map(|w| (w.start, w.end)).collect()
}

/// Flat window cuts, replicated per shard: on disjoint input every
/// populated shard must have stepped exactly the flat window sequence.
fn assert_sharded_cuts_match(flat: &StreamReport, sharded: &ShardedReport) {
    for s in &sharded.shards {
        if s.windows.is_empty() {
            continue; // empty cells never drive
        }
        assert_eq!(
            cuts(flat),
            cuts(s),
            "shard window cuts diverged from the flat run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The headline gate: with a service model enabled, flat,
    // drop-pairs and halo driving agree on shard-disjoint input —
    // fates bit-for-bit, spend to float tolerance, window cuts
    // identical — and the whole run replays deterministically.
    #[test]
    fn reentry_modes_agree_bitwise_on_disjoint_input(
        worker_times in proptest::collection::vec(0.0f64..200.0, 4..10),
        task_times in proptest::collection::vec(0.0f64..900.0, 8..24),
        service_secs in 30.0f64..400.0,
        adaptive in proptest::bool::ANY,
    ) {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
        let stream = disjoint_stream(&part, &worker_times, &task_times);
        prop_assert!(stream.is_shard_disjoint(&part));
        let policy = if adaptive {
            WindowPolicy::Adaptive(AdaptivePolicy {
                base_width: 150.0,
                min_width: 30.0,
                max_width: 600.0,
                burst_tasks: 6,
                target_p95: 120.0,
            })
        } else {
            WindowPolicy::ByTime { width: 150.0 }
        };
        let cfg = StreamConfig {
            policy,
            task_ttl: 4,
            service: ServiceModel::Fixed { secs: service_secs },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            flat.assert_conservation();
            let replay = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            prop_assert_eq!(
                flat.without_timing(), replay.without_timing(),
                "{}: re-entry broke replay determinism", method
            );

            let dropped = run_sharded(engine.as_ref(), &stream, &cfg, &part);
            let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
            let flat_fates: Vec<(u32, TaskFate)> =
                flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
            prop_assert_eq!(&merged_fates(&dropped), &flat_fates, "{}: drop-pairs fates", method);
            prop_assert_eq!(&merged_fates(&halo), &flat_fates, "{}: halo fates", method);
            assert_sharded_cuts_match(&flat, &halo);
            for (label, spend) in [("drop-pairs", merged_spend(&dropped)), ("halo", merged_spend(&halo))] {
                prop_assert_eq!(
                    spend.keys().collect::<Vec<_>>(),
                    flat.spend_by_worker.keys().collect::<Vec<_>>(),
                    "{}: {} charged workers", method, label
                );
                for (w, eps) in &spend {
                    prop_assert_eq!(
                        eps.to_bits(),
                        flat.spend_by_worker[w].to_bits(),
                        "{}: {} worker {} spend {} vs flat {}",
                        method, label, w, eps, flat.spend_by_worker[w]
                    );
                }
            }
            // Re-entry totals agree too: a cycle completed in the flat
            // run completes in every sharded run.
            let dropped_returns: usize = dropped.shards.iter().map(StreamReport::returns).sum();
            let halo_returns: usize = halo.shards.iter().map(StreamReport::returns).sum();
            prop_assert_eq!(dropped_returns, flat.returns(), "{}: drop-pairs returns", method);
            prop_assert_eq!(halo_returns, flat.returns(), "{}: halo returns", method);
        }
    }

    // Budget exactness across cycles: under a finite capacity no
    // worker's lifetime spend ever overshoots, however many times he
    // returns to the pool — flat and halo driving alike — and his
    // spend is one continuous account (never reset by a cycle).
    #[test]
    fn spend_never_overshoots_capacity_across_cycles(
        worker_times in proptest::collection::vec(0.0f64..100.0, 3..8),
        task_times in proptest::collection::vec(0.0f64..1200.0, 10..30),
        capacity in 0.8f64..4.0,
        service_secs in 20.0f64..200.0,
    ) {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
        let stream = disjoint_stream(&part, &worker_times, &task_times);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 120.0 },
            task_ttl: 4,
            worker_capacity: capacity,
            service: ServiceModel::Fixed { secs: service_secs },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pdce, Method::Pgt] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            for (&w, &spent) in &flat.spend_by_worker {
                prop_assert!(
                    spent <= capacity + 1e-9,
                    "{}: worker {} spent {} over cap {} across cycles",
                    method, w, spent, capacity
                );
            }
            let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
            for (w, spent) in merged_spend(&halo) {
                prop_assert!(
                    spent <= capacity + 1e-9,
                    "{}: halo worker {} spent {} over cap {}",
                    method, w, spent, capacity
                );
            }
        }
    }

    // `ServiceModel::Never` is exactly the serve-and-leave pipeline: a
    // service duration past the horizon (nobody ever returns) must
    // walk the same path — fates, per-worker spend, window cuts.
    #[test]
    fn parked_service_degenerates_to_serve_and_leave(
        worker_times in proptest::collection::vec(0.0f64..150.0, 3..8),
        task_times in proptest::collection::vec(0.0f64..700.0, 6..18),
    ) {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 1);
        let stream = disjoint_stream(&part, &worker_times, &task_times);
        let base = StreamConfig {
            policy: WindowPolicy::ByTime { width: 100.0 },
            ..StreamConfig::default()
        };
        let parked_cfg = StreamConfig {
            service: ServiceModel::Fixed { secs: 1e9 },
            ..base.clone()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&base.params);
            let never = StreamDriver::new(engine.as_ref(), base.clone()).run(&stream);
            let parked = StreamDriver::new(engine.as_ref(), parked_cfg.clone()).run(&stream);
            prop_assert_eq!(&never.fates, &parked.fates, "{}", method);
            prop_assert_eq!(&never.spend_by_worker, &parked.spend_by_worker, "{}", method);
            prop_assert_eq!(cuts(&never), cuts(&parked), "{}", method);
            prop_assert_eq!(parked.returns(), 0, "{}", method);
        }
    }
}

/// Re-entry strictly raises fleet utilization on a worker-scarce
/// stream: the same fleet serves more tasks when it recycles. This is
/// the deterministic core of the `stream --reentry` gate. Geometry is
/// tight (pickup legs ≪ task value) so every engine family matches
/// whenever a worker is free.
#[test]
fn reentry_raises_utilization_when_workers_are_scarce() {
    let mut events = Vec::new();
    for k in 0..3u32 {
        let a = k as f64 * 2.39996;
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: k,
            time: 0.0,
            worker: Worker::new(Point::new(50.0 + 1.5 * a.cos(), 50.0 + 1.5 * a.sin()), 8.0),
        }));
    }
    for k in 0..18u32 {
        let a = k as f64 * 1.7 + 0.3;
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k,
            time: 10.0 + 100.0 * k as f64,
            task: Task::new(Point::new(50.0 + 1.2 * a.cos(), 50.0 + 1.2 * a.sin()), 4.5),
        }));
    }
    let stream = ArrivalStream::new(events);
    let base = StreamConfig {
        policy: WindowPolicy::ByTime { width: 120.0 },
        task_ttl: 4,
        ..StreamConfig::default()
    };
    for method in [Method::Puce, Method::Pgt, Method::Grd] {
        let engine = method.engine(&base.params);
        let never = StreamDriver::new(engine.as_ref(), base.clone()).run(&stream);
        let reentry = StreamDriver::new(
            engine.as_ref(),
            StreamConfig {
                service: ServiceModel::Fixed { secs: 90.0 },
                ..base.clone()
            },
        )
        .run(&stream);
        reentry.assert_conservation();
        assert!(
            reentry.utilization() > never.utilization(),
            "{method}: reentry utilization {} must beat serve-and-leave {}",
            reentry.utilization(),
            never.utilization()
        );
        assert!(reentry.returns() > 0, "{method}: nobody cycled");
    }
}
