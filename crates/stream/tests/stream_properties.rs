//! Pipeline-level properties of the streaming subsystem:
//!
//! * **determinism** — the same seed produces identical window
//!   boundaries, assignments and fates, for every engine family;
//! * **conservation** — every task arrival is assigned, expired, or
//!   pending at stream end, exactly once;
//! * **shard equivalence** — on shard-disjoint input, sharded and
//!   unsharded execution agree on matches, utility and budget spend,
//!   private engines included (noise and budgets are keyed by logical
//!   ids, so a shard sees exactly the draws of the unsharded run);
//! * **window formation** — static-policy cuts equal an oracle computed
//!   from event timestamps alone, however pushes and watermark advances
//!   interleave;
//! * **idle fleet** — workers that reach no task change nothing: a small
//!   city beside a far-away idle fleet reproduces, for every method,
//!   flat and halo, the outcomes recorded before such workers were
//!   left out of window instances.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, run_sharded_halo, ArrivalEvent, ArrivalModel, ArrivalStream, PacingConfig,
    ServiceModel, StreamConfig, StreamDriver, StreamReport, StreamScenario, StreamSession,
    TaskArrival, TaskFate, WindowPolicy, WindowReport, WorkerArrival,
};
use dpta_workloads::{Dataset, Scenario};
use proptest::prelude::*;

fn scenario_stream(dataset: Dataset, batch_size: usize) -> ArrivalStream {
    StreamScenario {
        scenario: Scenario {
            dataset,
            batch_size,
            n_batches: 2,
            ..Scenario::default()
        },
        task_model: ArrivalModel::Bursty {
            base_rate: 0.05,
            burst_rate: 0.5,
            period: 600.0,
            burst_fraction: 0.25,
        },
        worker_model: ArrivalModel::Poisson { rate: 0.02 },
        initial_worker_fraction: 0.7,
    }
    .stream()
}

fn cfg(width: f64) -> StreamConfig {
    StreamConfig {
        policy: WindowPolicy::ByTime { width },
        ..StreamConfig::default()
    }
}

/// A synthetic stream whose workers' service discs are interior to the
/// cells of `part`: clusters at each cell centre, radii below the
/// margin. Tasks arrive bursty; some workers join late.
fn disjoint_clustered_stream(part: &GridPartition) -> ArrivalStream {
    let frame = part.frame();
    let (cols, rows) = (part.cols(), part.rows());
    let cell_w = frame.width() / cols as f64;
    let cell_h = frame.height() / rows as f64;
    let mut events = Vec::new();
    let mut task_id = 0u32;
    let mut worker_id = 0u32;
    for cy in 0..rows {
        for cx in 0..cols {
            let centre = Point::new(
                frame.min.x + (cx as f64 + 0.5) * cell_w,
                frame.min.y + (cy as f64 + 0.5) * cell_h,
            );
            let radius = 0.2 * cell_w.min(cell_h);
            for k in 0..4u32 {
                let jitter = 0.1 * cell_w.min(cell_h) * (k as f64 / 4.0 - 0.4);
                events.push(ArrivalEvent::Worker(WorkerArrival {
                    id: worker_id,
                    time: if k < 3 { 0.0 } else { 40.0 },
                    worker: Worker::new(Point::new(centre.x + jitter, centre.y - jitter), radius),
                }));
                worker_id += 1;
            }
            for k in 0..6u32 {
                let dx = 0.15 * cell_w * ((k % 3) as f64 / 3.0 - 0.3);
                let dy = 0.15 * cell_h * ((k / 3) as f64 / 2.0 - 0.2);
                events.push(ArrivalEvent::Task(TaskArrival {
                    id: task_id,
                    time: 5.0 + 17.0 * k as f64 + (cx + cy) as f64,
                    task: Task::new(Point::new(centre.x + dx, centre.y + dy), 4.5),
                }));
                task_id += 1;
            }
        }
    }
    ArrivalStream::new(events)
}

#[test]
fn same_seed_same_run_for_every_engine_family() {
    let stream = scenario_stream(Dataset::Uniform, 60);
    let cfg = cfg(300.0);
    for method in [Method::Puce, Method::Pgt, Method::Grd, Method::GeoI] {
        let engine = method.engine(&cfg.params);
        let a = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        let b = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        assert_eq!(
            a.without_timing(),
            b.without_timing(),
            "{method}: replay must be bit-identical"
        );
        // Window boundaries are data-determined, not timing-determined.
        for (wa, wb) in a.windows.iter().zip(&b.windows) {
            assert_eq!((wa.start, wa.end), (wb.start, wb.end));
        }
    }
}

#[test]
fn conservation_holds_across_methods_and_datasets() {
    for dataset in [Dataset::Uniform, Dataset::Normal] {
        let stream = scenario_stream(dataset, 50);
        let cfg = cfg(240.0);
        for method in [Method::Puce, Method::Pdce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let (matched, expired, pending) = report.assert_conservation();
            assert_eq!(
                matched + expired + pending,
                stream.n_tasks(),
                "{method} on {dataset}"
            );
            // Fate ids must be exactly the arrival ids.
            assert_eq!(report.fates.len(), stream.n_tasks());
            assert!(report
                .fates
                .keys()
                .all(|&id| (id as usize) < stream.n_tasks()));
        }
    }
}

#[test]
fn matched_fates_point_at_real_workers_and_windows() {
    let stream = scenario_stream(Dataset::Uniform, 60);
    let cfg = cfg(300.0);
    let engine = Method::Puce.engine(&cfg.params);
    let report = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
    let n_windows = report.windows.len();
    for fate in report.fates.values() {
        match *fate {
            TaskFate::Assigned {
                window,
                worker,
                latency,
            } => {
                assert!(window < n_windows);
                assert!((worker as usize) < stream.n_workers());
                assert!(latency >= 0.0, "latency {latency} negative");
            }
            TaskFate::Expired { window } => assert!(window < n_windows),
            TaskFate::Pending => {}
        }
    }
}

#[test]
fn sharded_equals_unsharded_for_private_and_plain_engines() {
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 3, 2);
    let stream = disjoint_clustered_stream(&part);
    assert!(stream.is_shard_disjoint(&part));
    // ≥ 3 engine methods, covering the CE, game and one-shot families,
    // plus the fresh-board charging cases: Geo-I's whole-location
    // releases, and PUCE re-publishing on a fresh board every window.
    let cases = [
        (Method::Puce, true),
        (Method::Pgt, true),
        (Method::Uce, true),
        (Method::Grd, true),
        (Method::GeoI, true),
        (Method::Puce, false),
    ];
    for (method, carry_releases) in cases {
        let cfg = StreamConfig {
            carry_releases,
            ..cfg(60.0)
        };
        let engine = method.engine(&cfg.params);
        // Every message below names the case, not just the method.
        let method = format!("{method} carry_releases={carry_releases}");
        let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        if engine.accounts_privacy() {
            assert!(flat.total_epsilon() > 0.0, "{method}: no release charged");
        }
        let sharded = run_sharded(engine.as_ref(), &stream, &cfg, &part);
        assert_eq!(sharded.matched(), flat.matched(), "{method}");
        assert!(
            (sharded.total_utility() - flat.total_utility()).abs() < 1e-9,
            "{method}: sharded {} vs flat {}",
            sharded.total_utility(),
            flat.total_utility()
        );
        assert!(
            (sharded.total_distance() - flat.total_distance()).abs() < 1e-9,
            "{method}"
        );
        assert!(
            (sharded.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
            "{method}"
        );
        // Per-shard fates must partition the flat run's fate map.
        let mut shard_fates: Vec<(u32, TaskFate)> = sharded
            .shards
            .iter()
            .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
            .collect();
        shard_fates.sort_by_key(|&(id, _)| id);
        let flat_fates: Vec<(u32, TaskFate)> = flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
        assert_eq!(shard_fates, flat_fates, "{method}");

        // The halo protocol degrades to drop-pairs on disjoint input:
        // same fates, same totals, same per-worker lifetime spend.
        let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
        assert_eq!(halo.matched(), flat.matched(), "halo {method}");
        assert!(
            (halo.total_utility() - flat.total_utility()).abs() < 1e-9,
            "halo {method}"
        );
        assert!(
            (halo.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
            "halo {method}"
        );
        let mut halo_fates: Vec<(u32, TaskFate)> = halo
            .shards
            .iter()
            .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
            .collect();
        halo_fates.sort_by_key(|&(id, _)| id);
        assert_eq!(halo_fates, flat_fates, "halo {method}");
        let halo_spend: std::collections::BTreeMap<u32, f64> = halo
            .shards
            .iter()
            .flat_map(|s| s.spend_by_worker.iter().map(|(&w, &e)| (w, e)))
            .collect();
        assert_eq!(
            halo_spend.keys().collect::<Vec<_>>(),
            flat.spend_by_worker.keys().collect::<Vec<_>>(),
            "halo {method}: charged workers"
        );
        for (w, eps) in &halo_spend {
            assert_eq!(
                eps.to_bits(),
                flat.spend_by_worker[w].to_bits(),
                "halo {method}: worker {w} spend {eps} vs {}",
                flat.spend_by_worker[w]
            );
        }
    }
}

#[test]
fn count_windows_also_conserve() {
    let stream = scenario_stream(Dataset::Uniform, 50);
    let cfg = StreamConfig {
        policy: WindowPolicy::ByCount { tasks: 25 },
        ..StreamConfig::default()
    };
    let engine = Method::Pdce.engine(&cfg.params);
    let report = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
    report.assert_conservation();
    assert!(report.windows.len() >= 3, "100 tasks / 25 per window");
    for w in &report.windows {
        assert!(w.tasks_arrived <= 25);
    }
}

#[test]
fn budget_depletion_eventually_retires_the_fleet() {
    // Tight lifetime capacity with surplus workers: every conflict
    // loser has already published (PDCE publishes on every proposal),
    // so losing means burnout and retirement.
    let mut events = Vec::new();
    for k in 0..8u32 {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: k,
            time: 0.0,
            worker: Worker::new(Point::new(0.1 * k as f64, 0.0), 3.0),
        }));
    }
    for k in 0..8u32 {
        // Four tasks in window 0, four more afterwards.
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k,
            time: 10.0 + 20.0 * k as f64,
            task: Task::new(Point::new(0.1 * k as f64, 1.0), 4.5),
        }));
    }
    let stream = ArrivalStream::new(events);
    let cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width: 80.0 },
        // Room for exactly one publication (ε ∈ [0.5, 1.75) under
        // Table X budgets): after it, the remaining budget is below the
        // cheapest possible release and the hard cap retires the
        // worker. Losers publish without winning, so they burn out.
        worker_capacity: 1.0,
        ..StreamConfig::default()
    };
    let engine = Method::Pdce.engine(&cfg.params);
    let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
    report.assert_conservation();
    let retired: usize = report.windows.iter().map(|w| w.workers_retired).sum();
    assert!(retired > 0, "tight capacity must retire someone");
    // The hard-cap guarantee: no worker's lifetime spend exceeds the
    // capacity, ever — not even inside his final window.
    for (&w, &spent) in &report.spend_by_worker {
        assert!(
            spent <= cfg.worker_capacity + 1e-9,
            "worker {w} spent {spent} over the hard cap"
        );
    }
    // Against an unconstrained fleet, depletion can only cost matches.
    let loose_cfg = StreamConfig {
        worker_capacity: f64::INFINITY,
        ..cfg
    };
    let loose = StreamDriver::new(engine.as_ref(), loose_cfg).run(&stream);
    let loose_retired: usize = loose.windows.iter().map(|w| w.workers_retired).sum();
    assert_eq!(loose_retired, 0, "infinite capacity never retires");
    assert!(
        report.matched() <= loose.matched(),
        "depleted fleet cannot match more ({} vs {})",
        report.matched(),
        loose.matched()
    );
}

// ── Idle fleet ──────────────────────────────────────────────────────

/// A small city around the junction of a 2×2 partition of
/// `[0, 200]²` — discs cross cell boundaries, and task bursts move
/// between two districts so workers idle between them — beside 200
/// workers in the far corner whose discs reach no task. The first
/// window's tasks arrive before any city worker, so it drives over
/// the idle fleet alone.
fn idle_fleet_stream() -> ArrivalStream {
    // A fixed pseudo-random unit draw per (salt, k).
    let unit = |salt: u64, k: u64| {
        let mut x = (salt << 32 ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut events = Vec::new();
    for k in 0..24u64 {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: k as u32,
            time: 70.0 + 40.0 * (k % 6) as f64,
            worker: Worker::new(
                Point::new(85.0 + 30.0 * unit(1, k), 85.0 + 30.0 * unit(2, k)),
                4.0 + 6.0 * unit(3, k),
            ),
        }));
    }
    for k in 0..200u64 {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: 24 + k as u32,
            time: if k < 150 { 0.0 } else { 200.0 },
            worker: Worker::new(
                Point::new(175.0 + 20.0 * unit(4, k), 175.0 + 20.0 * unit(5, k)),
                1.0 + 2.0 * unit(6, k),
            ),
        }));
    }
    for k in 0..60u64 {
        // Bursts alternate between the west and east districts.
        let east = (k / 10) % 2 == 1;
        let x0 = if east { 100.0 } else { 85.0 };
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k as u32,
            time: 5.0 + 9.5 * k as f64,
            task: Task::new(
                Point::new(x0 + 15.0 * unit(7, k), 85.0 + 30.0 * unit(8, k)),
                4.5,
            ),
        }));
    }
    ArrivalStream::new(events)
}

/// One run's pinned outcomes: (matched, total utility bits, total ε
/// bits, publications, rounds, Σ `workers_throttled`,
/// Σ `workers_available`).
type Outcomes = (usize, u64, u64, usize, usize, usize, usize);

/// The idle-fleet outcomes per method, flat then halo 2×2, recorded
/// while every pooled worker still entered every window's instance.
#[rustfmt::skip]
const IDLE_FLEET_GOLDEN: [(Method, [Outcomes; 2]); 12] = [
    (Method::Puce, [(31, 0x40419687faf72534, 0x4046da7d30f00024, 48, 20, 2, 2006), (31, 0x40419687faf72534, 0x4046da7d30f00025, 48, 56, 2, 2104)]),
    (Method::PuceNppcf, [(31, 0x40419687faf72534, 0x4046da7d30f00024, 48, 20, 2, 2006), (31, 0x40419687faf72534, 0x4046da7d30f00025, 48, 56, 2, 2104)]),
    (Method::Pdce, [(39, 0xc04bf2a64bac9f3d, 0x405911e3c90d6ed9, 93, 19, 38, 1977), (40, 0xc0418620966b359d, 0x405845eacc34988e, 96, 61, 34, 2044)]),
    (Method::PdceNppcf, [(38, 0xc04de976d3820e96, 0x4059c9196ac3004d, 94, 21, 38, 1970), (39, 0xc041ce21fecc2ad8, 0x405960b281c5efdd, 99, 64, 41, 2047)]),
    (Method::Pgt, [(31, 0x4039e6c43a2eaa6e, 0x4041c0bda530480d, 35, 20, 0, 2005), (31, 0x4039e6c43a2eaa6e, 0x4041c0bda530480c, 35, 57, 0, 2101)]),
    (Method::Uce, [(41, 0x4050c664a3d027cf, 0x4052758561761abb, 71, 21, 16, 1996), (40, 0x40513fec02fb310c, 0x405256f457b1bb12, 74, 63, 15, 2088)]),
    (Method::Dce, [(38, 0x40335e6abbfdf6b1, 0x4059829bf8bdf77b, 94, 21, 43, 1978), (39, 0x40396d1cbfe20bf1, 0x4058c9fbc222df76, 100, 67, 36, 2042)]),
    (Method::Gt, [(41, 0x4051729de80e93b1, 0x404b818e067c6217, 52, 19, 7, 1996), (41, 0x40520bb40d5d6841, 0x404cc5db30ee1680, 59, 63, 6, 2084)]),
    (Method::Grd, [(42, 0x4052d0edbda8cdf9, 0x0, 0, 10, 0, 1996), (42, 0x4052d0edbda8cdf8, 0x0, 0, 36, 0, 2086)]),
    (Method::Optimal, [(42, 0x405237d79859f968, 0x0, 0, 10, 0, 1996), (42, 0x4052d0edbda8cdf8, 0x0, 0, 36, 0, 2086)]),
    (Method::GeoI, [(27, 0x40390877e50cbbe7, 0x405d539897ba6538, 119, 10, 0, 1990), (26, 0x4037722319ef2810, 0x405e85027f8b5e93, 130, 35, 0, 2056)]),
    (Method::ObfuscatedOptimal, [(25, 0xc0291883a631e93b, 0x40601c9c308c4475, 168, 10, 0, 1971), (25, 0xc002f40832aa01c8, 0x40601c9c308c4476, 168, 35, 0, 2037)]),
];

/// Pins every method, flat and halo, on the idle-fleet stream under a
/// finite cap with pacing and re-entry: leaving workers that reach no
/// task out of window instances (the Hungarian baselines included,
/// which solve over the instance's full width) must not move a single
/// outcome, and throttling and availability still count the whole pool.
#[test]
fn idle_fleet_matches_golden_outcomes() {
    let stream = idle_fleet_stream();
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 200.0, 200.0), 2, 2);
    let cfg = StreamConfig {
        worker_capacity: 5.0,
        service: ServiceModel::Fixed { secs: 100.0 },
        pacing: Some(PacingConfig { horizon_windows: 4 }),
        ..cfg(60.0)
    };
    for (method, [flat_golden, halo_golden]) in IDLE_FLEET_GOLDEN {
        let engine = method.engine(&cfg.params);
        let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        flat.assert_conservation();
        let got = outcomes(
            flat.windows.iter(),
            flat.matched(),
            flat.total_utility(),
            flat.total_epsilon(),
        );
        assert_eq!(got, flat_golden, "{method} flat");
        let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
        let got = outcomes(
            halo.shards.iter().flat_map(|s| s.windows.iter()),
            halo.matched(),
            halo.total_utility(),
            halo.total_epsilon(),
        );
        assert_eq!(got, halo_golden, "{method} halo");
    }
}

/// A run's [`Outcomes`] from its totals and window reports.
fn outcomes<'a>(
    windows: impl Iterator<Item = &'a WindowReport>,
    matched: usize,
    utility: f64,
    epsilon: f64,
) -> Outcomes {
    let (mut pubs, mut rounds, mut throttled, mut available) = (0, 0, 0, 0);
    for w in windows {
        pubs += w.publications;
        rounds += w.rounds;
        throttled += w.workers_throttled;
        available += w.workers_available;
    }
    let (utility, epsilon) = (utility.to_bits(), epsilon.to_bits());
    (
        matched, utility, epsilon, pubs, rounds, throttled, available,
    )
}

// ── Window formation against a timestamp-only oracle ────────────────

/// `(index, start, end, tasks_arrived)` of every window a static policy
/// cuts from `events` (in stream order), computed from timestamps alone.
fn oracle_windows(policy: WindowPolicy, events: &[ArrivalEvent]) -> Vec<(usize, f64, f64, usize)> {
    let Some(span) = events.last().map(ArrivalEvent::time) else {
        return Vec::new();
    };
    match policy {
        // An event falls in window ⌊t/width⌋, boundaries are k·width,
        // and trailing windows run up to the last event.
        WindowPolicy::ByTime { width } => {
            let n = (span / width) as usize + 1;
            let mut tasks = vec![0usize; n];
            for e in events {
                if let ArrivalEvent::Task(t) = e {
                    tasks[(t.time / width) as usize] += 1;
                }
            }
            (0..n)
                .map(|k| (k, k as f64 * width, (k + 1) as f64 * width, tasks[k]))
                .collect()
        }
        // The n-th task closes its window at its own timestamp; every
        // later event in stream order, ties included, falls to the next
        // window. Leftovers close one last window at the span.
        WindowPolicy::ByCount { tasks: per } => {
            let mut out = Vec::new();
            let (mut start, mut tasks, mut left) = (0.0, 0usize, 0usize);
            for e in events {
                left += 1;
                if let ArrivalEvent::Task(t) = e {
                    tasks += 1;
                    if tasks == per {
                        out.push((out.len(), start, t.time, per));
                        (start, tasks, left) = (t.time, 0, 0);
                    }
                }
            }
            if left > 0 {
                out.push((out.len(), start, span, tasks));
            }
            out
        }
        WindowPolicy::Adaptive(_) => unreachable!("adaptive cuts depend on feedback"),
    }
}

fn cuts(report: &StreamReport) -> Vec<(usize, f64, f64, usize)> {
    report
        .windows
        .iter()
        .map(|w| (w.index, w.start, w.end, w.tasks_arrived))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Timestamps are quarter seconds and widths half seconds, so every
    // boundary and ⌊t/width⌋ is exact in floating point — and ties
    // between events (and with boundaries) are common.
    #[test]
    fn static_window_cuts_match_a_timestamp_oracle(
        task_quarters in proptest::collection::vec(0u32..2000, 1..40),
        worker_quarters in proptest::collection::vec(0u32..2000, 0..10),
        half_width in 1u32..120,
        per_window in 1usize..6,
    ) {
        let at = Point::new(0.0, 0.0);
        let mut events = Vec::new();
        for (id, &q) in task_quarters.iter().enumerate() {
            events.push(ArrivalEvent::Task(TaskArrival {
                id: id as u32,
                time: q as f64 * 0.25,
                task: Task::new(at, 4.5),
            }));
        }
        for (id, &q) in worker_quarters.iter().enumerate() {
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: id as u32,
                time: q as f64 * 0.25,
                worker: Worker::new(at, 1.0),
            }));
        }
        let stream = ArrivalStream::new(events);
        for policy in [
            WindowPolicy::ByTime { width: half_width as f64 * 0.5 },
            WindowPolicy::ByCount { tasks: per_window },
        ] {
            let want = oracle_windows(policy, stream.events());
            let cfg = StreamConfig { policy, ..StreamConfig::default() };
            let engine = Method::Grd.engine(&cfg.params);

            let mut drained = StreamSession::new(engine.as_ref(), cfg.clone());
            for &e in stream.events() {
                drained.push(e);
            }
            prop_assert_eq!(
                cuts(&drained.close()),
                want.clone(),
                "push* → close under {:?}",
                policy
            );

            let mut live = StreamSession::new(engine.as_ref(), cfg);
            for &e in stream.events() {
                live.advance_to(e.time());
                live.push(e);
            }
            prop_assert_eq!(
                cuts(&live.close()),
                want,
                "advance_to before every push under {:?}",
                policy
            );
        }
    }
}
