//! Property tests of the halo coordinator's incremental reruns:
//! driving the protocol with component-restricted reconciliation
//! re-drives ([`StreamConfig::halo_full_rerun`] `= false`, the default)
//! reproduces the full-rerun reference *bit for bit* in everything
//! observable: task fates, per-worker privacy spend, per-window
//! matched/expired/carried counts, utility, distance and ε totals.
//! Only effort counters (rounds, publications, drive time) may differ
//! — that is the point of the optimisation.
//!
//! This is the acceptance gate for the component-locality argument in
//! `crates/stream/src/halo.rs`: engine interactions flow only along
//! feasibility edges and noise/budgets are keyed by logical ids, so
//! skipping undisturbed components must be observationally
//! undetectable. It runs the full engine spread — greedy,
//! conflict-elimination, game-theoretic and the one-shot Geo-I
//! location baseline — because each stresses a different part of the
//! argument (proposal order, budget slots, best-response rounds,
//! reach-dependent location ε).

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded_halo, ArrivalEvent, ArrivalStream, StreamConfig, TaskArrival, WindowPolicy,
    WorkerArrival,
};
use proptest::prelude::*;

/// A random stream over the frame with worker radii large enough that
/// many discs cross cell boundaries — the regime where reconciliation
/// reruns actually happen.
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_reconciliation_matches_full_reruns_bit_for_bit(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..900.0), 4..24),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 3.0f64..25.0, 0.0f64..600.0), 3..12),
        cols in 2usize..4, rows in 2usize..4,
    ) {
        let stream = random_stream(&tasks, &workers);
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
        let base = StreamConfig {
            policy: WindowPolicy::ByTime { width: 300.0 },
            ..StreamConfig::default()
        };
        let full_cfg = StreamConfig { halo_full_rerun: true, ..base.clone() };

        for method in [Method::Grd, Method::Uce, Method::Puce, Method::Pgt, Method::GeoI] {
            let engine = method.engine(&base.params);
            let incremental = run_sharded_halo(engine.as_ref(), &stream, &base, &part);
            let full = run_sharded_halo(engine.as_ref(), &stream, &full_cfg, &part);

            prop_assert_eq!(incremental.shards.len(), full.shards.len());
            for (k, (inc, refr)) in incremental.shards.iter().zip(&full.shards).enumerate() {
                prop_assert_eq!(&inc.fates, &refr.fates, "{} shard {}: fates", method, k);
                prop_assert_eq!(
                    &inc.spend_by_worker, &refr.spend_by_worker,
                    "{} shard {}: spend", method, k
                );
                prop_assert_eq!(inc.windows.len(), refr.windows.len());
                for (a, b) in inc.windows.iter().zip(&refr.windows) {
                    prop_assert_eq!(a.matched, b.matched, "{}", method);
                    prop_assert_eq!(a.expired, b.expired, "{}", method);
                    prop_assert_eq!(a.carried_out, b.carried_out, "{}", method);
                    prop_assert_eq!(a.tasks_arrived, b.tasks_arrived, "{}", method);
                    prop_assert_eq!(a.carried_in, b.carried_in, "{}", method);
                    prop_assert_eq!(a.workers_available, b.workers_available, "{}", method);
                    prop_assert_eq!(a.workers_departed, b.workers_departed, "{}", method);
                    prop_assert_eq!(a.workers_retired, b.workers_retired, "{}", method);
                    prop_assert_eq!(a.workers_returned, b.workers_returned, "{}", method);
                    prop_assert_eq!(
                        a.utility.to_bits(), b.utility.to_bits(),
                        "{}: window {} utility {} vs {}", method, a.index, a.utility, b.utility
                    );
                    prop_assert_eq!(
                        a.distance.to_bits(), b.distance.to_bits(),
                        "{}: window {} distance", method, a.index
                    );
                    prop_assert_eq!(
                        a.epsilon_spent.to_bits(), b.epsilon_spent.to_bits(),
                        "{}: window {} ε {} vs {}",
                        method, a.index, a.epsilon_spent, b.epsilon_spent
                    );
                }
            }
        }
    }
}

/// Deterministic witness that the incremental path actually *does
/// less*: on a stream whose shards hold several feasibility components
/// (a contended junction cluster plus isolated interior clusters),
/// reconciliation re-drives must republish strictly fewer releases
/// than full reruns while reproducing the same matches. Guards the
/// suite above against vacuity — if the planner degraded to always
/// re-driving everything, the bit-for-bit property would still pass.
#[test]
fn incremental_mode_rederives_strictly_less() {
    // Contended cluster around the 2x2 junction: every worker's disc
    // covers all four cells, so every claim is contested.
    let tasks: Vec<(f64, f64, f64)> = (0..40)
        .map(|i| {
            (
                40.0 + (i % 8) as f64 * 2.6,
                41.0 + (i / 8) as f64 * 4.4,
                20.0 * i as f64,
            )
        })
        .collect();
    let workers: Vec<(f64, f64, f64, f64)> = (0..16)
        .map(|j| {
            (
                46.0 + (j % 4) as f64 * 2.5,
                46.5 + (j / 4) as f64 * 2.4,
                15.0,
                40.0 * j as f64,
            )
        })
        .collect();
    // Plus an interior cluster per cell: its discs stay inside the
    // cell, forming components untouched by junction contention.
    let mut tasks = tasks;
    let mut workers = workers;
    for (c, &(cx, cy)) in [(20.0, 20.0), (80.0, 20.0), (20.0, 80.0), (80.0, 80.0)]
        .iter()
        .enumerate()
    {
        for i in 0..5 {
            tasks.push((cx + i as f64 * 1.5, cy, 25.0 * i as f64 + c as f64));
        }
        workers.push((cx + 3.0, cy + 2.0, 6.0, 30.0 + c as f64));
        workers.push((cx - 3.0, cy - 2.0, 6.0, 350.0 + c as f64));
    }
    let stream = random_stream(&tasks, &workers);
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
    let base = StreamConfig {
        policy: WindowPolicy::ByTime { width: 300.0 },
        ..StreamConfig::default()
    };
    let full_cfg = StreamConfig {
        halo_full_rerun: true,
        ..base.clone()
    };
    for method in [Method::Grd, Method::Puce] {
        let engine = method.engine(&base.params);
        let inc = run_sharded_halo(engine.as_ref(), &stream, &base, &part);
        let full = run_sharded_halo(engine.as_ref(), &stream, &full_cfg, &part);
        let pubs_inc: usize = inc
            .shards
            .iter()
            .flat_map(|s| s.windows.iter())
            .map(|w| w.publications)
            .sum();
        let pubs_full: usize = full
            .shards
            .iter()
            .flat_map(|s| s.windows.iter())
            .map(|w| w.publications)
            .sum();
        assert_eq!(inc.matched(), full.matched(), "{method}");
        assert!(
            pubs_inc <= pubs_full,
            "{method}: incremental republished more ({pubs_inc} > {pubs_full})"
        );
        if method == Method::Puce {
            assert!(
                pubs_inc < pubs_full,
                "{method}: incremental mode re-derived as much as full reruns \
                 ({pubs_inc}) — component skipping is not engaging"
            );
        }
    }
}
