//! The streaming pipeline, end to end: a day of bursty arrivals pushed
//! through the event-driven `StreamSession` API, three engines racing
//! the same stream, worker re-entry recycling the fleet, budget
//! depletion retiring it, the sharded mode agreeing exactly with the
//! unsharded run on shard-disjoint input, and the boundary-halo
//! protocol recovering the cross-shard pairs drop-pairs sharding
//! loses.
//!
//! ```sh
//! cargo run -p dpta --example streaming
//! ```

use dpta::prelude::*;
use dpta::spatial::Aabb;
use dpta::stream::{ArrivalEvent, TaskArrival, WorkerArrival};

fn main() {
    // ── 1. A streamed Table X workload ────────────────────────────────
    // 2×80 tasks arrive in rush-hour bursts; 80 % of the fleet is on
    // duty from t = 0, stragglers trickle in Poisson.
    let arrivals = StreamScenario {
        scenario: Scenario {
            batch_size: 80,
            n_batches: 2,
            ..Scenario::for_dataset(Dataset::Normal)
        },
        task_model: ArrivalModel::Bursty {
            base_rate: 0.05,
            burst_rate: 0.5,
            period: 600.0,
            burst_fraction: 0.25,
        },
        worker_model: ArrivalModel::Poisson { rate: 0.02 },
        initial_worker_fraction: 0.8,
    }
    .stream();
    println!(
        "arrival stream: {} tasks, {} workers over {:.0} s\n",
        arrivals.n_tasks(),
        arrivals.n_workers(),
        arrivals.horizon()
    );

    // ── 2. The session API: push events, advance time, poll outcomes ──
    // This is the production-dispatch shape: events are fed one at a
    // time, `advance_to` declares the event-time watermark, and every
    // decision (assignment, expiry, retirement, worker return) is
    // emitted as a typed outcome as soon as its window settles.
    // Sessions panic on a configuration `validate` rejects; calling it
    // first turns that into a typed error naming the field.
    let cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width: 300.0 },
        ..StreamConfig::default()
    };
    cfg.validate().expect("valid streaming configuration");
    for method in [Method::Puce, Method::Pgt, Method::Grd] {
        let engine = method.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
        let mut live_assignments = 0usize;
        for e in arrivals.events() {
            session.advance_to(e.time()); // everything before `e` is final
            session.push(*e);
            live_assignments += session
                .poll_outcomes()
                .iter()
                .filter(|o| matches!(o, Outcome::Assigned { .. }))
                .count();
        }
        let report = session.close(); // drains the trailing windows
        live_assignments += session
            .poll_outcomes()
            .iter()
            .filter(|o| matches!(o, Outcome::Assigned { .. }))
            .count();
        let (matched, expired, pending) = report.assert_conservation();
        println!("{}", report.render());
        assert_eq!(matched + expired + pending, arrivals.n_tasks());
        assert_eq!(live_assignments, matched, "the outcome log saw every match");
    }

    // ── 3. Worker re-entry: the fleet recycles ────────────────────────
    // A ServiceModel holds matched workers out for a service duration
    // and returns them — same logical id, continuous lifetime budget —
    // so a scarce fleet serves more of the stream than serve-and-leave
    // (ServiceModel::Never, the default) can.
    let engine = Method::Puce.engine(&cfg.params);
    let never = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&arrivals);
    let recycled_cfg = StreamConfig {
        service: ServiceModel::Fixed { secs: 240.0 },
        ..cfg.clone()
    };
    let recycled = StreamDriver::new(engine.as_ref(), recycled_cfg).run(&arrivals);
    println!(
        "PUCE with 240 s services: {} matched over {} completed cycles \
         (serve-and-leave matched {})\n",
        recycled.matched(),
        recycled.returns(),
        never.matched(),
    );
    assert!(recycled.matched() >= never.matched());

    // ── 4. Budget depletion: a fleet that burns out ───────────────────
    let tight = StreamConfig {
        worker_capacity: 1.0, // one-ish release per worker lifetime
        ..cfg.clone()
    };
    let engine = Method::Pdce.engine(&tight.params);
    let report = StreamDriver::new(engine.as_ref(), tight).run(&arrivals);
    let retired: usize = report.windows.iter().map(|w| w.workers_retired).sum();
    println!(
        "with lifetime capacity ε = 1.0, {} workers retired exhausted\n",
        retired
    );

    // ── 5. Sharded execution: exact on shard-disjoint input ───────────
    // Four clusters, one per cell of a 2×2 grid; service discs interior
    // to their cells, so no pair ever crosses a boundary.
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
    let mut events = Vec::new();
    let mut ids = 0u32;
    for (cx, cy) in [(25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0)] {
        for k in 0..8u32 {
            let a = k as f64;
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: ids + k,
                time: 0.0,
                worker: Worker::new(Point::new(cx + a.cos() * 3.0, cy + a.sin() * 3.0), 8.0),
            }));
            events.push(ArrivalEvent::Task(TaskArrival {
                id: ids + k,
                time: 20.0 + 40.0 * a,
                task: Task::new(Point::new(cx + a.sin() * 4.0, cy - a.cos() * 4.0), 4.5),
            }));
        }
        ids += 8;
    }
    let disjoint = ArrivalStream::new(events);
    assert!(disjoint.is_shard_disjoint(&part));

    let engine = Method::Puce.engine(&cfg.params);
    let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&disjoint);
    let sharded = run_sharded(engine.as_ref(), &disjoint, &cfg, &part);
    println!("{}", sharded.render());
    assert_eq!(sharded.matched(), flat.matched());
    assert!((sharded.total_utility() - flat.total_utility()).abs() < 1e-9);
    println!(
        "sharded == unsharded: {} matched, utility {:.2} — exact ✓\n",
        flat.matched(),
        flat.total_utility()
    );

    // ── 6. The boundary halo: cross-shard pairs recovered ─────────────
    // Move every cluster onto the x = 50 boundary: workers left of it,
    // their only reachable tasks right of it. Drop-pairs sharding loses
    // every pair; the halo protocol routes the boundary workers into
    // the neighbouring shard's windows and a deterministic
    // reconciliation keeps each worker assigned at most once.
    let mut events = Vec::new();
    for k in 0..8u32 {
        let y = 10.0 + 10.0 * k as f64;
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: k,
            time: 0.0,
            worker: Worker::new(Point::new(49.0, y), 3.0),
        }));
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k,
            time: 20.0 + 40.0 * k as f64,
            task: Task::new(Point::new(51.0, y), 4.5),
        }));
    }
    let crossing = ArrivalStream::new(events);
    assert!(!crossing.is_shard_disjoint(&part));
    let dropped = run_sharded(engine.as_ref(), &crossing, &cfg, &part);
    let halo = run_sharded_halo(engine.as_ref(), &crossing, &cfg, &part);
    println!(
        "crossing stream: drop-pairs matched {} (utility {:.2}) | halo matched {} \
         (utility {:.2}) — cross-shard pairs recovered ✓\n",
        dropped.matched(),
        dropped.total_utility(),
        halo.matched(),
        halo.total_utility()
    );
    assert!(halo.matched() > dropped.matched());

    // ── 7. Durable sessions: snapshot, crash, restore, resume ─────────
    // A session snapshotted at a window boundary serializes to a
    // versioned JSON document. Drop the session (the "crash"), restore
    // from the bytes, push the rest of the stream — the drained run is
    // bit-for-bit identical to one that never stopped: same fates, same
    // window cuts, same privacy spend (each release charged exactly
    // once, even across the restart), same outcome log.
    let baseline = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&arrivals);

    let events = arrivals.events();
    let split = events.len() / 2;
    let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
    for e in &events[..split] {
        session.push(*e);
    }
    session.advance_to(events[split - 1].time());
    let json = session.snapshot().to_json(); // → durable storage
    drop(session); // the crash

    let snapshot = SessionSnapshot::from_json(&json).expect("snapshot parses");
    let mut session =
        StreamSession::restore(engine.as_ref(), cfg.clone(), &snapshot).expect("config matches");
    for e in &events[split..] {
        session.push(*e);
    }
    let resumed = session.close();
    assert_eq!(resumed.without_timing(), baseline.without_timing());
    println!(
        "resumed after a crash at event {split}/{}: {} matched, spend ε {:.3} — \
         bit-for-bit with the uninterrupted run ✓",
        events.len(),
        resumed.matched(),
        resumed.total_epsilon(),
    );

    // Restoring under a different configuration is refused with a typed
    // error naming the first offending field — a changed config would
    // silently diverge rather than fail.
    let tightened = StreamConfig {
        worker_capacity: 1.0,
        ..cfg.clone()
    };
    let err = StreamSession::restore(engine.as_ref(), tightened, &snapshot)
        .err()
        .expect("changed config must be rejected");
    assert_eq!(
        err,
        SnapshotError::ConfigMismatch {
            field: "worker_capacity"
        }
    );
    println!("restore under a changed config: rejected ({err}) ✓");
}
