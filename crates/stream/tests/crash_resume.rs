//! Crash-injection determinism: a session snapshotted at a window
//! boundary, dropped, serialized through JSON, restored in a fresh
//! process-alike, and drained must be **bit-for-bit identical** to the
//! run that never stopped — same fates, same window cuts, same
//! per-worker spend, same outcome log. The suite sweeps the full
//! execution matrix the pipeline ships:
//!
//! * flat [`StreamSession`], drop-pairs [`ShardedSession`] and the
//!   boundary-halo coordinator;
//! * `ByTime`, `ByCount` and `Adaptive` window policies (the adaptive
//!   controller's PID trajectory rides in the snapshot);
//! * serve-and-leave, fixed-duration and travel-time service models;
//! * plain and private engines, infinite and finite lifetime capacity
//!   (finite capacity exercises the accountant-capped halo path).
//!
//! Alongside the crash harness: snapshot → restore → snapshot is
//! *byte*-identical in every mode, a committed golden fixture pins the
//! flat session's wire format, and restoring under a changed
//! configuration is rejected with a typed error naming the offending
//! field.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::AdaptivePolicy;
use dpta_stream::{
    ArrivalEvent, ArrivalStream, Outcome, ServiceModel, SessionSnapshot, ShardStrategy,
    ShardedReport, ShardedSession, ShardedSnapshot, SnapshotError, StreamConfig, StreamReport,
    StreamSession, TaskArrival, WindowPolicy, WorkerArrival,
};
use dpta_workloads::ValueModel;
use proptest::prelude::*;

// ── Stream and configuration matrix ─────────────────────────────────

/// A random stream over a 100×100 frame, sorted by arrival time.
fn random_stream(tasks: &[(f64, f64, f64)], workers: &[(f64, f64, f64, f64)]) -> ArrivalStream {
    let mut events = Vec::new();
    for (id, &(x, y, t)) in tasks.iter().enumerate() {
        events.push(ArrivalEvent::Task(TaskArrival {
            id: id as u32,
            time: t,
            task: Task::new(Point::new(x, y), 30.0),
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

fn policies() -> [WindowPolicy; 3] {
    [
        WindowPolicy::ByTime { width: 300.0 },
        WindowPolicy::ByCount { tasks: 5 },
        WindowPolicy::Adaptive(AdaptivePolicy {
            base_width: 300.0,
            min_width: 75.0,
            max_width: 1200.0,
            burst_tasks: 8,
            target_p95: 120.0,
        }),
    ]
}

fn services() -> [ServiceModel; 3] {
    [
        ServiceModel::Never,
        ServiceModel::Fixed { secs: 350.0 },
        ServiceModel::PerTripKm {
            value_model: ValueModel::PerTripKm {
                base: 2.0,
                per_km: 0.8,
            },
            secs_per_km: 45.0,
        },
    ]
}

fn cfg_for(policy: WindowPolicy, service: ServiceModel, capacity: f64) -> StreamConfig {
    StreamConfig {
        policy,
        service,
        worker_capacity: capacity,
        task_ttl: 2,
        ..StreamConfig::default()
    }
}

// ── Drain helpers: uninterrupted vs crash-and-resume ────────────────

/// Push everything, close, and drain the outcome log — the baseline
/// run that never stops.
fn run_flat(
    engine: &dyn dpta_core::AssignmentEngine,
    cfg: &StreamConfig,
    events: &[ArrivalEvent],
) -> (StreamReport, Vec<Outcome>) {
    let mut s = StreamSession::new(engine, cfg.clone());
    for &e in events {
        s.push(e);
    }
    let report = s.close();
    (report, s.poll_outcomes())
}

/// Push a prefix, advance the watermark to the crash point (driving
/// every window that closes before it), snapshot, serialize through
/// JSON, drop the session, restore, push the rest, close. When
/// `poll_pre` the outcomes delivered before the crash are drained
/// first (the snapshot's residual queue is empty); otherwise they ride
/// across the restart inside the snapshot.
fn run_flat_interrupted(
    engine: &dyn dpta_core::AssignmentEngine,
    cfg: &StreamConfig,
    events: &[ArrivalEvent],
    split: usize,
    poll_pre: bool,
) -> (StreamReport, Vec<Outcome>) {
    let mut s = StreamSession::new(engine, cfg.clone());
    for &e in &events[..split] {
        s.push(e);
    }
    if split > 0 {
        s.advance_to(events[split - 1].time());
    }
    let mut delivered = if poll_pre {
        s.poll_outcomes()
    } else {
        Vec::new()
    };

    let json = s.snapshot().to_json();
    drop(s);

    let snap = SessionSnapshot::from_json(&json).expect("snapshot JSON round-trips");
    let mut s = StreamSession::restore(engine, cfg.clone(), &snap).expect("restore succeeds");
    for &e in &events[split..] {
        s.push(e);
    }
    let report = s.close();
    delivered.extend(s.poll_outcomes());
    (report, delivered)
}

/// The sharded analogues of the two flat drains.
fn run_sharded_session(
    engine: &dyn dpta_core::AssignmentEngine,
    cfg: &StreamConfig,
    partition: &GridPartition,
    strategy: ShardStrategy,
    events: &[ArrivalEvent],
) -> ShardedReport {
    let mut s = ShardedSession::new(engine, cfg.clone(), partition, strategy);
    for &e in events {
        s.push(e);
    }
    s.close()
}

/// The sharded session driven live: the watermark advances to every
/// event's timestamp before the event is pushed.
fn run_sharded_streaming(
    engine: &dyn dpta_core::AssignmentEngine,
    cfg: &StreamConfig,
    partition: &GridPartition,
    strategy: ShardStrategy,
    events: &[ArrivalEvent],
) -> ShardedReport {
    let mut s = ShardedSession::new(engine, cfg.clone(), partition, strategy);
    for &e in events {
        s.advance_to(e.time());
        s.push(e);
    }
    s.close()
}

fn run_sharded_interrupted(
    engine: &dyn dpta_core::AssignmentEngine,
    cfg: &StreamConfig,
    partition: &GridPartition,
    strategy: ShardStrategy,
    events: &[ArrivalEvent],
    split: usize,
) -> ShardedReport {
    let mut s = ShardedSession::new(engine, cfg.clone(), partition, strategy);
    for &e in &events[..split] {
        s.push(e);
    }
    if split > 0 {
        s.advance_to(events[split - 1].time());
    }
    let json = s.snapshot().to_json();
    drop(s);

    let snap = ShardedSnapshot::from_json(&json).expect("snapshot JSON round-trips");
    let mut s = ShardedSession::restore(engine, cfg.clone(), partition, strategy, &snap)
        .expect("restore succeeds");
    for &e in &events[split..] {
        s.push(e);
    }
    s.close()
}

// ── The crash harness proper ────────────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Flat sessions: crash-and-resume is invisible across every
    // window policy, service model, both engine families, and finite
    // as well as infinite lifetime capacity.
    #[test]
    fn flat_resume_is_bit_identical(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1500.0), 4..20),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 5.0f64..40.0, 0.0f64..900.0), 3..10),
        split_frac in 0.0f64..1.1,
        engine_pick in 0usize..2,
        service_pick in 0usize..3,
        finite_capacity in any::<bool>(),
        poll_pre in any::<bool>(),
    ) {
        let stream = random_stream(&tasks, &workers);
        let events = stream.events();
        let split = (((events.len() as f64) * split_frac) as usize).min(events.len());
        let method = [Method::Grd, Method::Puce][engine_pick];
        let service = services()[service_pick];
        let capacity = if finite_capacity { 2.5 } else { f64::INFINITY };

        for policy in policies() {
            let cfg = cfg_for(policy, service, capacity);
            let engine = method.engine(&cfg.params);
            let (base_report, base_outcomes) = run_flat(engine.as_ref(), &cfg, events);
            let (res_report, res_outcomes) =
                run_flat_interrupted(engine.as_ref(), &cfg, events, split, poll_pre);

            prop_assert_eq!(
                res_report.without_timing(), base_report.without_timing(),
                "report diverged after resume under {:?}", policy);
            prop_assert_eq!(
                res_outcomes, base_outcomes,
                "outcome log diverged after resume under {:?}", policy);
        }
    }

    // Sharded sessions: crash-and-resume is invisible for drop-pairs
    // and halo strategies under every window policy, advancing the
    // watermark before every push changes nothing, and the pushed
    // session reproduces the batch runner of the same strategy.
    #[test]
    fn sharded_resume_is_bit_identical(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1200.0), 4..16),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 4.0f64..30.0, 0.0f64..800.0), 3..8),
        split_frac in 0.0f64..1.1,
        engine_pick in 0usize..2,
        cols in 1usize..3,
        rows in 1usize..3,
    ) {
        let stream = random_stream(&tasks, &workers);
        let events = stream.events();
        let split = (((events.len() as f64) * split_frac) as usize).min(events.len());
        let method = [Method::Grd, Method::Puce][engine_pick];
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);

        for strategy in [ShardStrategy::DropPairs, ShardStrategy::Halo] {
            for policy in policies() {
                let cfg = cfg_for(policy, ServiceModel::Never, f64::INFINITY);
                let engine = method.engine(&cfg.params);
                let base = run_sharded_session(
                    engine.as_ref(), &cfg, &part, strategy, events);
                let resumed = run_sharded_interrupted(
                    engine.as_ref(), &cfg, &part, strategy, events, split);
                prop_assert_eq!(
                    resumed.without_timing(), base.without_timing(),
                    "sharded report diverged after resume: {:?} {:?}", strategy, policy);
                let streamed = run_sharded_streaming(
                    engine.as_ref(), &cfg, &part, strategy, events);
                prop_assert_eq!(
                    streamed.without_timing(), base.without_timing(),
                    "streaming session diverged from its drain: {:?} {:?}", strategy, policy);

                let batch = match strategy {
                    ShardStrategy::DropPairs =>
                        dpta_stream::run_sharded(engine.as_ref(), &stream, &cfg, &part),
                    ShardStrategy::Halo =>
                        dpta_stream::run_sharded_halo(engine.as_ref(), &stream, &cfg, &part),
                };
                prop_assert_eq!(
                    base.without_timing(), batch.without_timing(),
                    "pushed session diverged from batch runner: {:?} {:?}", strategy, policy);
            }
        }
    }

    // Snapshot stability: `restore(snapshot(s))` then `snapshot()`
    // again is *byte*-identical JSON, for every policy and execution
    // mode. A snapshot loses nothing.
    #[test]
    fn snapshot_roundtrip_is_byte_identical(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1200.0), 3..14),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 4.0f64..30.0, 0.0f64..800.0), 2..8),
        split_frac in 0.0f64..1.1,
        service_pick in 0usize..3,
    ) {
        let stream = random_stream(&tasks, &workers);
        let events = stream.events();
        let split = (((events.len() as f64) * split_frac) as usize).min(events.len());
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);

        for policy in policies() {
            let cfg = cfg_for(policy, services()[service_pick], f64::INFINITY);
            let engine = Method::Puce.engine(&cfg.params);

            // Flat.
            let mut s = StreamSession::new(engine.as_ref(), cfg.clone());
            for &e in &events[..split] {
                s.push(e);
            }
            if split > 0 {
                s.advance_to(events[split - 1].time());
            }
            let first = s.snapshot().to_json();
            let restored = StreamSession::restore(
                engine.as_ref(), cfg.clone(),
                &SessionSnapshot::from_json(&first).expect("parses"),
            ).expect("restores");
            prop_assert_eq!(&restored.snapshot().to_json(), &first,
                "flat snapshot not byte-stable under {:?}", policy);

            // Sharded, both strategies.
            for strategy in [ShardStrategy::DropPairs, ShardStrategy::Halo] {
                let mut s = ShardedSession::new(
                    engine.as_ref(), cfg.clone(), &part, strategy);
                for &e in &events[..split] {
                    s.push(e);
                }
                if split > 0 {
                    s.advance_to(events[split - 1].time());
                }
                let first = s.snapshot().to_json();
                let restored = ShardedSession::restore(
                    engine.as_ref(), cfg.clone(), &part, strategy,
                    &ShardedSnapshot::from_json(&first).expect("parses"),
                ).expect("restores");
                prop_assert_eq!(&restored.snapshot().to_json(), &first,
                    "sharded snapshot not byte-stable: {:?} {:?}", strategy, policy);
            }
        }
    }
}

// ── Typed rejection of incompatible restores ────────────────────────

fn fixture_events() -> Vec<ArrivalEvent> {
    let tasks = [
        (12.0, 18.0, 40.0),
        (55.0, 61.0, 130.0),
        (77.0, 20.0, 300.0),
        (30.0, 82.0, 520.0),
        (64.0, 44.0, 700.0),
        (18.0, 55.0, 940.0),
    ];
    let workers = [
        (20.0, 25.0, 30.0, 10.0),
        (60.0, 58.0, 35.0, 90.0),
        (70.0, 30.0, 28.0, 410.0),
        (25.0, 70.0, 32.0, 650.0),
    ];
    random_stream(&tasks, &workers).events().to_vec()
}

fn fixture_cfg() -> StreamConfig {
    cfg_for(
        WindowPolicy::ByTime { width: 300.0 },
        ServiceModel::Fixed { secs: 350.0 },
        2.5,
    )
}

/// A mid-run snapshot of the fixture scenario: first four events
/// pushed, watermark at the fourth arrival.
fn fixture_snapshot() -> SessionSnapshot {
    let cfg = fixture_cfg();
    let engine = Method::Puce.engine(&cfg.params);
    let events = fixture_events();
    let mut s = StreamSession::new(engine.as_ref(), cfg.clone());
    for &e in &events[..4] {
        s.push(e);
    }
    s.advance_to(events[3].time());
    s.snapshot()
}

#[test]
fn restore_rejects_changed_config_with_the_offending_field() {
    let cfg = fixture_cfg();
    let engine = Method::Puce.engine(&cfg.params);
    let snap = fixture_snapshot();

    let cases: [(StreamConfig, &str); 5] = [
        (
            StreamConfig {
                worker_capacity: 3.0,
                ..cfg.clone()
            },
            "worker_capacity",
        ),
        (
            StreamConfig {
                policy: WindowPolicy::ByCount { tasks: 5 },
                ..cfg.clone()
            },
            "policy",
        ),
        (
            StreamConfig {
                service: ServiceModel::Never,
                ..cfg.clone()
            },
            "service",
        ),
        (
            StreamConfig {
                task_ttl: 9,
                ..cfg.clone()
            },
            "task_ttl",
        ),
        (
            StreamConfig {
                budget_group_size: 3,
                ..cfg.clone()
            },
            "budget_group_size",
        ),
    ];
    for (bad_cfg, field) in cases {
        let err = StreamSession::restore(engine.as_ref(), bad_cfg, &snap)
            .err()
            .expect("changed config must be rejected");
        assert_eq!(err, SnapshotError::ConfigMismatch { field });
    }

    // A different engine is a config mismatch too.
    let other = Method::Grd.engine(&cfg.params);
    let err = StreamSession::restore(other.as_ref(), cfg.clone(), &snap)
        .err()
        .expect("changed engine must be rejected");
    assert_eq!(err, SnapshotError::ConfigMismatch { field: "engine" });

    // Matching everything restores fine.
    assert!(StreamSession::restore(engine.as_ref(), cfg, &snap).is_ok());
}

#[test]
fn restore_rejects_foreign_version_and_garbage() {
    let snap = fixture_snapshot();
    let json = snap.to_json();

    // A snapshot written under a future format version.
    let current = format!("\"version\": {}", dpta_stream::SNAPSHOT_VERSION);
    let tampered = json.replacen(&current, "\"version\": 99", 1);
    assert_eq!(
        SessionSnapshot::from_json(&tampered).err(),
        Some(SnapshotError::VersionMismatch {
            found: 99,
            expected: dpta_stream::SNAPSHOT_VERSION,
        })
    );

    // Garbage bytes and schema violations are Malformed, not panics.
    assert!(matches!(
        SessionSnapshot::from_json("not json at all"),
        Err(SnapshotError::Malformed(_))
    ));
    assert!(matches!(
        SessionSnapshot::from_json("{\"version\": 2}"),
        Err(SnapshotError::Malformed(_))
    ));
}

#[test]
fn sharded_restore_rejects_changed_strategy_and_partition() {
    let cfg = cfg_for(
        WindowPolicy::ByTime { width: 300.0 },
        ServiceModel::Never,
        f64::INFINITY,
    );
    let engine = Method::Puce.engine(&cfg.params);
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
    let events = fixture_events();

    let mut s = ShardedSession::new(
        engine.as_ref(),
        cfg.clone(),
        &part,
        ShardStrategy::DropPairs,
    );
    for &e in &events[..4] {
        s.push(e);
    }
    s.advance_to(events[3].time());
    let snap = s.snapshot();

    let err = ShardedSession::restore(
        engine.as_ref(),
        cfg.clone(),
        &part,
        ShardStrategy::Halo,
        &snap,
    )
    .err()
    .expect("changed strategy must be rejected");
    assert_eq!(err, SnapshotError::ConfigMismatch { field: "strategy" });

    let bigger = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 3, 2);
    let err = ShardedSession::restore(
        engine.as_ref(),
        cfg.clone(),
        &bigger,
        ShardStrategy::DropPairs,
        &snap,
    )
    .err()
    .expect("changed partition must be rejected");
    assert_eq!(err, SnapshotError::ConfigMismatch { field: "partition" });

    let err = ShardedSession::restore(
        engine.as_ref(),
        StreamConfig {
            worker_capacity: 1.0,
            ..cfg.clone()
        },
        &part,
        ShardStrategy::DropPairs,
        &snap,
    )
    .err()
    .expect("changed config must be rejected");
    assert_eq!(
        err,
        SnapshotError::ConfigMismatch {
            field: "worker_capacity"
        }
    );

    assert!(
        ShardedSession::restore(engine.as_ref(), cfg, &part, ShardStrategy::DropPairs, &snap)
            .is_ok()
    );
}

// ── Golden fixture: the committed wire format stays restorable ──────

/// The committed fixture (`tests/fixtures/session_snapshot_v2.json`,
/// named for the v2 format that introduced the tagged ledger section,
/// deferred queue and pacing state; the flat layout is unchanged in v3)
/// was written by [`fixture_snapshot`]. It must keep
/// parsing, keep matching a freshly-taken snapshot byte for byte (the
/// format is stable), and keep draining to the pinned outcomes.
#[test]
fn golden_fixture_restores_and_drains_to_pinned_outcomes() {
    let text = include_str!("fixtures/session_snapshot_v2.json");
    let snap = SessionSnapshot::from_json(text).expect("golden fixture parses");
    assert_eq!(snap.version(), dpta_stream::SNAPSHOT_VERSION);
    assert_eq!(snap.engine(), "PUCE");

    // Byte-stable: today's code still writes exactly the committed
    // bytes for the same session state. Any diff here is a format
    // change and requires a version bump plus a new fixture.
    assert_eq!(fixture_snapshot().to_json().trim_end(), text.trim_end());

    // Restore and drain; the finished run must match both the pinned
    // aggregates and a from-scratch uninterrupted run.
    let cfg = fixture_cfg();
    let engine = Method::Puce.engine(&cfg.params);
    let events = fixture_events();
    let mut s =
        StreamSession::restore(engine.as_ref(), cfg.clone(), &snap).expect("fixture restores");
    for &e in &events[4..] {
        s.push(e);
    }
    let report = s.close();
    let (baseline, _) = run_flat(engine.as_ref(), &cfg, &events);
    assert_eq!(report.without_timing(), baseline.without_timing());

    let (matched, expired, pending) = report.assert_conservation();
    assert_eq!(
        (matched, expired, pending),
        pinned_fixture_fates(),
        "fixture drain diverged from the pinned outcome"
    );
}

/// The (matched, expired, pending) triple the fixture scenario drains
/// to — pinned when the fixture was committed.
fn pinned_fixture_fates() -> (usize, usize, usize) {
    (5, 0, 1)
}

/// Regenerates the committed fixture after an intentional format bump
/// (`cargo test -p dpta-stream --test crash_resume -- --ignored
/// regen_fixture --nocapture`); update [`pinned_fixture_fates`] from
/// the printed triple and bump [`dpta_stream::SNAPSHOT_VERSION`].
#[test]
#[ignore]
fn regen_fixture() {
    let json = fixture_snapshot().to_json();
    std::fs::write(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/session_snapshot_v2.json"
        ),
        &json,
    )
    .unwrap();
    let cfg = fixture_cfg();
    let engine = Method::Puce.engine(&cfg.params);
    let (report, _) = run_flat(engine.as_ref(), &cfg, &fixture_events());
    println!("fixture fates = {:?}", report.assert_conservation());
}
