//! Budget-economics properties of the streaming pipeline: the
//! sliding-window ledger against its acceptance gates.
//!
//! * **W = ∞ ≡ lifetime** — a `Windowed` ledger with an infinite
//!   protection window is *bit-identical* to lifetime accounting
//!   (fates, window cuts, per-worker spend), across flat, drop-pairs
//!   and halo execution. An infinite window never reclaims and is not
//!   renewable, so retirement fires at exactly the lifetime points.
//! * **capped trailing spend** — under the warm-engine remaining-budget
//!   guard, no worker's charges inside any trailing protection window
//!   exceed his capacity (observed through the versioned snapshot's
//!   serialized ledger at every event boundary).
//! * **determinism** — windowed runs with pacing, admission control and
//!   service jitter all enabled replay bit-for-bit in the seed.
//! * **snapshot round-trip** — a session carrying a windowed ledger,
//!   pacing state and a deferred-task queue serializes through JSON
//!   byte-identically and resumes bit-for-bit.
//! * **jitter degenerates cleanly** — `ServiceModel::Jittered` with a
//!   zero jitter fraction is bit-identical to `ServiceModel::Fixed`.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, run_sharded_halo, AdmissionConfig, ArrivalEvent, ArrivalStream, LedgerMode,
    PacingConfig, ServiceModel, SessionSnapshot, StreamConfig, StreamDriver, StreamSession,
    TaskArrival, TaskFate, WindowPolicy, WorkerArrival,
};
use proptest::prelude::*;
use serde::Value;
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

fn cfg_with(ledger: LedgerMode, capacity: f64) -> StreamConfig {
    StreamConfig {
        policy: WindowPolicy::ByTime { width: 300.0 },
        worker_capacity: capacity,
        service: ServiceModel::Fixed { secs: 240.0 },
        ledger,
        ..StreamConfig::default()
    }
}

/// Sorted `(task id, fate)` pairs plus per-worker spend of a sharded
/// run — the cross-mode comparison view.
type MergedView = (Vec<(u32, TaskFate)>, Vec<(u32, f64)>);

/// Merged fate/spend view of a sharded run, for exact cross-mode
/// comparison.
fn merged(report: &dpta_stream::ShardedReport) -> MergedView {
    let mut fates: Vec<(u32, TaskFate)> = report
        .shards
        .iter()
        .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
        .collect();
    fates.sort_by_key(|&(id, _)| id);
    let mut spend: BTreeMap<u32, f64> = BTreeMap::new();
    for s in &report.shards {
        for (&w, &e) in &s.spend_by_worker {
            *spend.entry(w).or_insert(0.0) += e;
        }
    }
    (fates, spend.into_iter().collect())
}

/// Recursively collects every `(spent, capacity)` pair in a parsed
/// snapshot — each is one serialized ledger account.
fn account_rows(v: &Value, out: &mut Vec<(f64, f64)>) {
    match v {
        Value::Object(fields) => {
            if let (Some(Value::Number(s)), Some(Value::Number(c))) =
                (v.get("spent"), v.get("capacity"))
            {
                out.push((*s, *c));
            }
            for (_, child) in fields {
                account_rows(child, out);
            }
        }
        Value::Array(items) => {
            for child in items {
                account_rows(child, out);
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn infinite_window_is_bit_identical_to_lifetime(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1500.0), 6..26),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 4.0f64..25.0, 0.0f64..900.0), 3..12),
        cap_sel in 0u8..3,
    ) {
        let stream = random_stream(&tasks, &workers);
        let capacity = [f64::INFINITY, 2.0, 1.0][cap_sel as usize];
        let life = cfg_with(LedgerMode::Lifetime, capacity);
        let winf = cfg_with(
            LedgerMode::Windowed { window_secs: f64::INFINITY }, capacity);
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&life.params);
            // Flat: the whole report — fates, window cuts, per-window
            // and per-worker spend — must agree bit for bit.
            let a = StreamDriver::new(engine.as_ref(), life.clone()).run(&stream);
            let b = StreamDriver::new(engine.as_ref(), winf.clone()).run(&stream);
            prop_assert_eq!(
                a.without_timing(), b.without_timing(), "{} flat", method);
            // Drop-pairs sharding.
            let a = run_sharded(engine.as_ref(), &stream, &life, &part);
            let b = run_sharded(engine.as_ref(), &stream, &winf, &part);
            prop_assert_eq!(merged(&a), merged(&b), "{} drop-pairs", method);
            // Boundary-halo sharding.
            let a = run_sharded_halo(engine.as_ref(), &stream, &life, &part);
            let b = run_sharded_halo(engine.as_ref(), &stream, &winf, &part);
            prop_assert_eq!(merged(&a), merged(&b), "{} halo", method);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn guarded_trailing_spend_never_exceeds_capacity(
        tasks in proptest::collection::vec(
            (0.0f64..60.0, 0.0f64..60.0, 0.0f64..2400.0), 10..30),
        workers in proptest::collection::vec(
            (0.0f64..60.0, 0.0f64..60.0, 6.0f64..30.0, 0.0f64..300.0), 2..6),
    ) {
        let stream = random_stream(&tasks, &workers);
        let cfg = cfg_with(LedgerMode::Windowed { window_secs: 900.0 }, 1.5);
        let engine = Method::Puce.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
        for e in stream.events() {
            session.push(*e);
            // The serialized ledger is the observable: every account's
            // `spent` is exactly its charge mass inside the trailing
            // protection window, and the warm-engine guard must have
            // kept it within capacity.
            let snap = serde_json::from_str(&session.snapshot().to_json())
                .expect("snapshot JSON parses");
            let mut rows = Vec::new();
            account_rows(&snap, &mut rows);
            for (spent, capacity) in rows {
                prop_assert!(
                    spent <= capacity + 1e-9,
                    "trailing-window spend {spent} exceeds capacity {capacity}"
                );
            }
        }
        session.close().assert_conservation();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn windowed_runs_replay_bit_identically(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1800.0), 8..24),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 5.0f64..25.0, 0.0f64..600.0), 3..8),
    ) {
        let stream = random_stream(&tasks, &workers);
        // Every new knob at once: sliding window, pacing, admission
        // control and stochastic service jitter.
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 300.0 },
            worker_capacity: 1.5,
            service: ServiceModel::Jittered { secs: 240.0, frac: 0.4 },
            ledger: LedgerMode::Windowed { window_secs: 900.0 },
            pacing: Some(PacingConfig { horizon_windows: 3 }),
            admission: Some(AdmissionConfig { epsilon_per_task: 0.5 }),
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let a = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let b = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            a.assert_conservation();
            prop_assert_eq!(
                a.without_timing(), b.without_timing(), "{} replay", method);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn windowed_snapshot_round_trips_and_resumes_bit_for_bit(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1800.0), 8..24),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 5.0f64..25.0, 0.0f64..600.0), 3..8),
        split_frac in 0.2f64..0.8,
    ) {
        let stream = random_stream(&tasks, &workers);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 300.0 },
            worker_capacity: 1.5,
            service: ServiceModel::Jittered { secs: 240.0, frac: 0.4 },
            ledger: LedgerMode::Windowed { window_secs: 900.0 },
            pacing: Some(PacingConfig { horizon_windows: 3 }),
            admission: Some(AdmissionConfig { epsilon_per_task: 0.5 }),
            ..StreamConfig::default()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let events = stream.events();
        let split = ((events.len() as f64) * split_frac) as usize;

        let baseline = {
            let mut s = StreamSession::new(engine.as_ref(), cfg.clone());
            for e in events { s.push(*e); }
            let report = s.close();
            (report, s.poll_outcomes())
        };

        let mut s = StreamSession::new(engine.as_ref(), cfg.clone());
        for e in &events[..split] { s.push(*e); }
        if split > 0 { s.advance_to(events[split - 1].time()); }
        let json = s.snapshot().to_json();
        drop(s);
        // Byte-stable round trip: parse and re-serialize.
        let parsed = SessionSnapshot::from_json(&json).expect("snapshot parses");
        prop_assert_eq!(parsed.to_json(), json.clone());
        // Restore and drain: bit-for-bit with the uninterrupted run.
        let mut s = StreamSession::restore(engine.as_ref(), cfg.clone(), &parsed)
            .expect("snapshot restores");
        for e in &events[split..] { s.push(*e); }
        let resumed = s.close();
        prop_assert_eq!(
            resumed.without_timing(), baseline.0.without_timing());
        prop_assert_eq!(s.poll_outcomes(), baseline.1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn zero_jitter_is_bit_identical_to_fixed_service(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1500.0), 6..20),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 5.0f64..25.0, 0.0f64..600.0), 3..8),
    ) {
        let stream = random_stream(&tasks, &workers);
        let fixed = StreamConfig {
            service: ServiceModel::Fixed { secs: 240.0 },
            ..StreamConfig::default()
        };
        let jittered = StreamConfig {
            service: ServiceModel::Jittered { secs: 240.0, frac: 0.0 },
            ..fixed.clone()
        };
        for method in [Method::Puce, Method::Grd] {
            let engine = method.engine(&fixed.params);
            let a = StreamDriver::new(engine.as_ref(), fixed.clone()).run(&stream);
            let b = StreamDriver::new(engine.as_ref(), jittered.clone()).run(&stream);
            prop_assert_eq!(
                a.without_timing(), b.without_timing(), "{} zero jitter", method);
        }
    }
}

/// Non-zero jitter actually moves return times: on a stream where a
/// recycled worker exists, the jittered run's outcome log differs from
/// the fixed run's somewhere, while both still conserve tasks. This is
/// deterministic in the seed (pinned by the replay property above), so
/// one hand-built witness is enough — a property test would have to
/// exclude streams with no returns at all.
#[test]
fn nonzero_jitter_shifts_return_times_deterministically() {
    let mut events = Vec::new();
    // One worker, three tasks spaced so the worker cycles through
    // service twice — return times are on the outcome log.
    events.push(ArrivalEvent::Worker(WorkerArrival {
        id: 0,
        time: 0.0,
        worker: Worker::new(Point::new(50.0, 50.0), 10.0),
    }));
    for k in 0..3u32 {
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k,
            time: 30.0 + 600.0 * f64::from(k),
            task: Task::new(Point::new(52.0, 50.0), 4.5),
        }));
    }
    let stream = ArrivalStream::new(events);
    let fixed = StreamConfig {
        service: ServiceModel::Fixed { secs: 240.0 },
        ..StreamConfig::default()
    };
    let jittered = StreamConfig {
        service: ServiceModel::Jittered {
            secs: 240.0,
            frac: 0.5,
        },
        ..fixed.clone()
    };
    let engine = Method::Grd.engine(&fixed.params);
    let run = |cfg: &StreamConfig| {
        let mut s = StreamSession::new(engine.as_ref(), cfg.clone());
        for e in stream.events() {
            s.push(*e);
        }
        let report = s.close();
        report.assert_conservation();
        (report, s.poll_outcomes())
    };
    let (_, fixed_outcomes) = run(&fixed);
    let (_, jittered_outcomes) = run(&jittered);
    // Replays are bit-identical…
    assert_eq!(jittered_outcomes, run(&jittered).1);
    // …but the jittered schedule differs from the fixed one.
    assert_ne!(fixed_outcomes, jittered_outcomes);
}
