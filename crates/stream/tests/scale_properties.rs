//! Properties of the million-entity scaling layer (PR 8): id-keyed
//! hash state, struct-of-arrays window building and sharded execution
//! must all be *invisible* — pure speedups with no observable
//! behaviour change.
//!
//! * **cross-path agreement** — the pipeline (`FastMap`/`FastSet`
//!   state keyed by logical id, arena-backed window builds) agrees
//!   with itself on random streams across all three window policies
//!   and all three execution shapes (flat, drop-pairs sharded, halo
//!   sharded): task fates bit for bit, per-worker privacy spend bit
//!   for bit (every mode charges through one ledger-ordered path),
//!   window cut sequences, and the typed outcome log. The oracle is
//!   the set of cross-path equivalences: drain ≡ push-session,
//!   flat ≡ sharded on shard-disjoint input, repeat ≡ first run.
//! * **sharded drive determinism** — sharded execution is
//!   byte-identical however a session's windows are driven (all at
//!   close, or in whatever batches each `advance_to` makes ready) and
//!   across repeated runs, including on an adversarially skewed
//!   hotspot-cell stream.
//! * **wire-format stability** — the committed session snapshot
//!   fixture still parses and round-trips byte-identically, and
//!   snapshots key everything by *logical* id: no insertion order
//!   (of hash maps or dense indices) may leak into the wire format,
//!   pinned by a session whose insertion order disagrees with id
//!   order.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, run_sharded_halo, AdaptivePolicy, ArrivalEvent, ArrivalStream, Outcome,
    SessionSnapshot, ShardStrategy, ShardedReport, ShardedSession, StreamConfig, StreamDriver,
    StreamSession, TaskArrival, TaskFate, WindowPolicy, WorkerArrival,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The frame every stream in this suite lives on, partitioned 2×2.
const FRAME: f64 = 100.0;
const CELL: f64 = FRAME / 2.0;

fn partition() -> GridPartition {
    GridPartition::new(Aabb::from_extents(0.0, 0.0, FRAME, FRAME), 2, 2)
}

/// Maps a `(cell, fx, fy)` triple into the cell's interior so that a
/// disc of radius ≤ 10 around the point stays strictly inside the
/// cell: positions land in `[15, 35]` of each 50-unit cell axis. Every
/// stream built this way is shard-disjoint by construction, which is
/// what lets the sharded runs be compared bit for bit against flat.
fn interior(cell: usize, fx: f64, fy: f64) -> Point {
    let cx = (cell % 2) as f64 * CELL;
    let cy = (cell / 2) as f64 * CELL;
    Point::new(cx + 15.0 + 20.0 * fx, cy + 15.0 + 20.0 * fy)
}

/// A shard-disjoint stream from raw proptest tuples: tasks are
/// `(cell, fx, fy, t)`, workers `(cell, fx, fy, r, t)` with r ≤ 10.
fn clustered_stream(
    tasks: &[(usize, f64, f64, f64)],
    workers: &[(usize, f64, f64, f64, f64)],
) -> ArrivalStream {
    let mut events = Vec::new();
    for (id, &(cell, fx, fy, t)) in tasks.iter().enumerate() {
        events.push(ArrivalEvent::Task(TaskArrival {
            id: id as u32,
            time: t,
            task: Task::new(interior(cell, fx, fy), 4.5),
        }));
    }
    for (id, &(cell, fx, fy, r, t)) in workers.iter().enumerate() {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: id as u32,
            time: t,
            worker: Worker::new(interior(cell, fx, fy), r),
        }));
    }
    ArrivalStream::new(events)
}

/// The three window policies of the streaming layer.
fn policies() -> [WindowPolicy; 3] {
    [
        WindowPolicy::ByTime { width: 200.0 },
        WindowPolicy::ByCount { tasks: 5 },
        WindowPolicy::Adaptive(AdaptivePolicy::default()),
    ]
}

/// Drives `stream` through the push-session interface with the
/// watermark advanced to every event time (so windows are driven
/// mid-stream, not only at close), returning the report and the full
/// typed outcome log.
fn run_push_session(
    engine: &dyn dpta_core::AssignmentEngine,
    cfg: &StreamConfig,
    stream: &ArrivalStream,
) -> (dpta_stream::StreamReport, Vec<Outcome>) {
    let mut session = StreamSession::new(engine, cfg.clone());
    let mut outcomes = Vec::new();
    for e in stream.events() {
        session.advance_to(e.time());
        session.push(*e);
        outcomes.extend(session.poll_outcomes());
    }
    let report = session.close();
    outcomes.extend(session.poll_outcomes());
    (report, outcomes)
}

/// Merges per-shard fates into one id-keyed map (ids are globally
/// unique, so shards never collide).
fn merge_fates(sharded: &ShardedReport) -> BTreeMap<u32, TaskFate> {
    sharded
        .shards
        .iter()
        .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
        .collect()
}

/// Merges per-shard privacy spend into one id-keyed map.
fn merge_spend(sharded: &ShardedReport) -> BTreeMap<u32, f64> {
    let mut out: BTreeMap<u32, f64> = BTreeMap::new();
    for s in &sharded.shards {
        for (&id, &eps) in &s.spend_by_worker {
            *out.entry(id).or_insert(0.0) += eps;
        }
    }
    out
}

/// Asserts two spend maps agree bit for bit per worker (same key sets).
fn assert_spend_exact(a: &BTreeMap<u32, f64>, b: &BTreeMap<u32, f64>, what: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: charged worker sets differ"
    );
    for (id, &eps) in a {
        let other = b[id];
        assert_eq!(
            eps.to_bits(),
            other.to_bits(),
            "{what}: worker {id} spend {eps} vs {other}"
        );
    }
}

/// Rebuilds the final fate of every task from the outcome log alone.
fn fates_from_outcomes(outcomes: &[Outcome], n_tasks: usize) -> BTreeMap<u32, TaskFate> {
    let mut fates: BTreeMap<u32, TaskFate> = (0..n_tasks as u32)
        .map(|id| (id, TaskFate::Pending))
        .collect();
    for o in outcomes {
        match *o {
            Outcome::Assigned {
                task,
                worker,
                window,
                latency,
            } => {
                fates.insert(
                    task,
                    TaskFate::Assigned {
                        window,
                        worker,
                        latency,
                    },
                );
            }
            Outcome::Expired { task, window } => {
                fates.insert(task, TaskFate::Expired { window });
            }
            _ => {}
        }
    }
    fates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The tentpole agreement property: on random shard-disjoint
    // streams, under every window policy, the pipeline's
    // flat drain, push-session, drop-pairs sharded and halo sharded
    // runs all agree on everything observable — fates bit for bit,
    // spend bit for bit, window cuts, and the outcome log.
    #[test]
    fn interned_pipeline_agrees_across_paths_and_policies(
        tasks in proptest::collection::vec(
            (0usize..4, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..900.0), 4..24),
        raw_workers in proptest::collection::vec(
            ((0usize..4, 0.0f64..1.0, 0.0f64..1.0), (1.0f64..10.0, 0.0f64..600.0)), 3..12),
    ) {
        let workers: Vec<(usize, f64, f64, f64, f64)> = raw_workers
            .iter()
            .map(|&((cell, fx, fy), (r, t))| (cell, fx, fy, r, t))
            .collect();
        let stream = clustered_stream(&tasks, &workers);
        let part = partition();
        prop_assert!(stream.is_shard_disjoint(&part));
        for policy in policies() {
            let cfg = StreamConfig { policy, ..StreamConfig::default() };
            for method in [Method::Grd, Method::Puce] {
                let engine = method.engine(&cfg.params);

                // Drain twice: repeat runs are identical.
                let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
                let again = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
                prop_assert_eq!(
                    flat.without_timing(), again.without_timing(),
                    "{}/{:?}: repeated drains diverged", method, policy
                );

                // Push-session with mid-stream watermark advances:
                // same fates, same spend (exactly), same window cut
                // sequence — and an outcome log that replays to the
                // same fates.
                let (pushed, outcomes) =
                    run_push_session(engine.as_ref(), &cfg, &stream);
                prop_assert_eq!(
                    flat.without_timing(), pushed.without_timing(),
                    "{}/{:?}: push-session diverged from drain", method, policy
                );
                let (pushed2, outcomes2) =
                    run_push_session(engine.as_ref(), &cfg, &stream);
                prop_assert_eq!(pushed.without_timing(), pushed2.without_timing());
                prop_assert_eq!(
                    &outcomes, &outcomes2,
                    "{}/{:?}: outcome log is not deterministic", method, policy
                );
                prop_assert_eq!(
                    fates_from_outcomes(&outcomes, tasks.len()),
                    flat.fates.clone(),
                    "{}/{:?}: outcome log disagrees with the fates", method, policy
                );

                // Halo sharding windows globally, so it must reproduce
                // the flat run under every policy on disjoint input.
                let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
                prop_assert_eq!(
                    merge_fates(&halo), flat.fates.clone(),
                    "{}/{:?}: halo fates diverged", method, policy
                );
                assert_spend_exact(
                    &merge_spend(&halo), &flat.spend_by_worker,
                    &format!("{method}/{policy:?} halo"),
                );

                // Drop-pairs steps every cell through its share of the
                // unsharded run's windows, so it is exact under every
                // policy on disjoint input.
                let dropped = run_sharded(engine.as_ref(), &stream, &cfg, &part);
                prop_assert_eq!(
                    merge_fates(&dropped), flat.fates.clone(),
                    "{}/{:?}: drop-pairs fates diverged", method, policy
                );
                assert_spend_exact(
                    &merge_spend(&dropped), &flat.spend_by_worker,
                    &format!("{method}/{policy:?} drop-pairs"),
                );
                // Window cuts line up shard by shard: every driven
                // shard walks the same (start, end) grid as flat.
                for (k, shard) in dropped.shards.iter().enumerate() {
                    if shard.task_arrivals + shard.worker_arrivals == 0 {
                        continue;
                    }
                    prop_assert_eq!(
                        shard.windows.len(), flat.windows.len(),
                        "{}/{:?}: shard {} window count", method, policy, k
                    );
                    for (a, b) in shard.windows.iter().zip(&flat.windows) {
                        prop_assert_eq!(a.index, b.index);
                        prop_assert_eq!(a.start.to_bits(), b.start.to_bits());
                        prop_assert_eq!(a.end.to_bits(), b.end.to_bits());
                        prop_assert_eq!(a.cut, b.cut, "{}: shard {}", method, k);
                    }
                }
            }
        }
    }
}

// ── Sharded drive determinism ───────────────────────────────────────

/// An adversarially skewed stream: ~90 % of all entities crowd into
/// one hotspot cell, the rest sprinkle over the other 15 cells of a
/// 4×4 partition — one cell holds nearly every drive's work while
/// most windows leave the other cells empty or nearly so.
fn hotspot_stream() -> ArrivalStream {
    let mut events = Vec::new();
    for k in 0..200u32 {
        // 90 % hotspot (cell at origin), 10 % elsewhere.
        let (cx, cy) = if k % 10 != 9 {
            (0.0, 0.0)
        } else {
            let cell = 1 + (k as usize / 10) % 15;
            ((cell % 4) as f64 * 25.0, (cell / 4) as f64 * 25.0)
        };
        let x = cx + 4.0 + (k % 8) as f64 * 2.0;
        let y = cy + 4.0 + (k % 5) as f64 * 3.0;
        let t = k as f64 * 3.0;
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: k,
            time: t,
            worker: Worker::new(Point::new(x, y), 3.0),
        }));
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k,
            time: t,
            task: Task::new(Point::new(x + 1.0, y), 4.5),
        }));
    }
    ArrivalStream::new(events)
}

/// Sharded drop-pairs execution must be byte-identical however the
/// windows are driven — all at once at close, or in batches of
/// whatever windows each `advance_to` makes ready — and across
/// repeated runs, on the hotspot-skewed stream. The comparison is on the full debug rendering of the timing-stripped
/// report, so any bit difference in any float anywhere fails.
#[test]
fn sharded_reports_are_identical_across_drive_batches_and_runs() {
    let stream = hotspot_stream();
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 4, 4);
    let cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width: 60.0 },
        ..StreamConfig::default()
    };
    let engine = Method::Puce.engine(&cfg.params);
    let batch = || run_sharded(engine.as_ref(), &stream, &cfg, &part).without_timing();
    let advanced = || {
        let mut session = ShardedSession::new(
            engine.as_ref(),
            cfg.clone(),
            &part,
            ShardStrategy::DropPairs,
        );
        for (i, &e) in stream.events().iter().enumerate() {
            session.push(e);
            if i % 50 == 49 {
                session.advance_to(e.time());
            }
        }
        session.close().without_timing()
    };
    let reference = format!("{:?}", batch());
    assert!(batch().matched() > 0, "hotspot stream matched nothing");
    for rep in 0..2 {
        assert_eq!(format!("{:?}", batch()), reference, "batch rep {rep}");
        assert_eq!(format!("{:?}", advanced()), reference, "session rep {rep}");
    }
}

// ── Snapshot wire format under id-keyed state ───────────────────────

/// The committed fixture still parses and round-trips byte for byte:
/// the id-keyed structures behind the snapshot (hash maps, the release
/// dedup's dense worker indices) serialize sorted by logical id, so
/// any insertion order leaking into the wire format would show up here
/// as a re-serialization diff.
#[test]
fn committed_fixture_round_trips_byte_identically() {
    let text = include_str!("fixtures/session_snapshot_v2.json");
    let snap = SessionSnapshot::from_json(text).expect("committed fixture parses");
    assert_eq!(snap.version(), dpta_stream::SNAPSHOT_VERSION);
    assert_eq!(snap.to_json().trim_end(), text.trim_end());
}

/// Snapshots are keyed by logical id even when insertion order
/// disagrees with id order: a session fed descending ids must
/// serialize ascending-id wire state (if insertion order leaked, the
/// order would be descending), restore cleanly, keep rejecting the
/// original duplicate ids, and round-trip byte-identically.
#[test]
fn snapshot_keys_by_logical_id_not_intern_symbol() {
    let cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width: 100.0 },
        ..StreamConfig::default()
    };
    let engine = Method::Grd.engine(&cfg.params);
    let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
    // Ids arrive in descending order: insertion ranks (0, 1, 2, …) are
    // the *reverse* of id order.
    for (k, id) in [9u32, 4, 2].into_iter().enumerate() {
        session.push(ArrivalEvent::Worker(WorkerArrival {
            id,
            time: k as f64,
            worker: Worker::new(Point::new(5.0 * k as f64, 5.0), 2.0),
        }));
        session.push(ArrivalEvent::Task(TaskArrival {
            id,
            time: k as f64,
            task: Task::new(Point::new(5.0 * k as f64 + 1.0, 5.0), 4.5),
        }));
    }
    let snap = session.snapshot();
    let json = snap.to_json();

    // The wire format lists logical ids ascending — insertion rank
    // must not shape the serialization.
    let tasks_at = json.find("\"task_ids\"").expect("task_ids serialized");
    let tail = &json[tasks_at..];
    let list_end = tail.find(']').expect("task id list closes");
    let flat: String = tail[..list_end]
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    assert!(
        flat.ends_with("[2,4,9"),
        "task ids must serialize ascending by logical id, got: {flat}"
    );

    // Round-trip: parse → re-serialize is byte-identical.
    let reparsed = SessionSnapshot::from_json(&json).expect("snapshot parses");
    assert_eq!(reparsed.to_json(), json);

    // Restore: the rebuilt session still knows all three logical ids
    // (duplicate pushes panic) and drains exactly like the original.
    let mut restored =
        StreamSession::restore(engine.as_ref(), cfg.clone(), &reparsed).expect("snapshot restores");
    let report = session.close();
    let restored_report = restored.close();
    assert_eq!(report.without_timing(), restored_report.without_timing());
}
