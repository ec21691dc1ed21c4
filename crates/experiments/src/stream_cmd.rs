//! The `stream` subcommand: drives the online pipeline end-to-end.
//!
//! Runs each requested method over one multi-window arrival stream
//! generated from a Table X scenario (per-window and cumulative
//! utility/latency reporting), then replays a shard-disjoint clustered
//! stream both unsharded and sharded by a spatial grid, checking that
//! the two agree exactly — the correctness witness of the sharded
//! execution mode. With `--halo` it additionally gates the halo
//! protocol's determinism (bit-for-bit fates against the unsharded run
//! on the disjoint witness) and reports the utility it recovers over
//! drop-pairs sharding on a boundary-heavy crossing stream.

use dpta_core::{AssignmentEngine, Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, run_sharded_halo, AdaptivePolicy, ArrivalEvent, ArrivalModel, ArrivalStream,
    LedgerMode, Outcome, PacingConfig, ServiceModel, SessionSnapshot, StreamConfig, StreamDriver,
    StreamReport, StreamScenario, StreamSession, TaskArrival, TaskFate, WindowPolicy,
    WorkerArrival,
};
use dpta_workloads::{Dataset, Scenario};

/// Options of the `stream` subcommand.
#[derive(Debug, Clone)]
pub struct StreamArgs {
    /// Methods to drive (default: PUCE, PGT, GRD).
    pub methods: Vec<Method>,
    /// Dataset feeding the scenario stream.
    pub dataset: Dataset,
    /// Batch-size scale relative to the paper's 1000-task batches.
    pub scale: f64,
    /// Scenario batches flattened into the stream.
    pub batches: usize,
    /// Window policy.
    pub policy: WindowPolicy,
    /// Master seed.
    pub seed: u64,
    /// Task time-to-live in windows.
    pub ttl: usize,
    /// Lifetime worker budget capacity (ε).
    pub capacity: f64,
    /// Shard grid (cols, rows) for the equivalence check.
    pub shards: (usize, usize),
    /// Run the boundary-halo analysis: determinism gate on the
    /// disjoint witness plus recovered-utility reporting on a
    /// crossing stream.
    pub halo: bool,
    /// Run the adaptive-windowing comparison: adaptive policy vs a
    /// 3-point static width sweep on the bursty arrival model,
    /// reporting p95 latency, utility and early/widened/narrowed
    /// window counts — gated on adaptive strictly beating the best
    /// static p95 at utility within 5 %.
    pub adaptive: bool,
    /// Run the worker re-entry comparison: serve-and-leave
    /// (`ServiceModel::Never`) vs a fixed service duration on a
    /// worker-scarce stream, with per-cycle utilization columns —
    /// gated on re-entry strictly raising fleet utilization
    /// (matches per worker arrival).
    pub reentry: bool,
    /// Run the durable-session smoke: snapshot every method's session
    /// mid-stream, serialize through JSON, restore, drain — gated on
    /// the resumed run matching the uninterrupted run bit for bit
    /// (fates, window cuts, spend and outcome log).
    pub resume: bool,
    /// Run the budget-economics comparison: lifetime accounting vs a
    /// sliding-window ledger (with the pacing controller on) on a
    /// long-horizon worker-scarce stream — gated on the windowed
    /// ledger sustaining strictly higher steady-state matches per
    /// worker than lifetime accounting for every budget-spending
    /// method.
    pub pacing: bool,
    /// Run the entity-scale sweep smoke: drain the constant-density
    /// sweep stream at 10³ and 10⁴ entities and gate the growth
    /// exponent between the two scales at sub-quadratic — the CLI
    /// counterpart of `bench_gate --scale-sweep`, cheap enough for a
    /// CI smoke step.
    pub scale_sweep: bool,
}

impl Default for StreamArgs {
    fn default() -> Self {
        StreamArgs {
            methods: vec![Method::Puce, Method::Pgt, Method::Grd],
            dataset: Dataset::Normal,
            scale: 0.1,
            batches: 2,
            policy: WindowPolicy::ByTime { width: 600.0 },
            seed: 42,
            ttl: 3,
            capacity: f64::INFINITY,
            shards: (2, 2),
            halo: false,
            adaptive: false,
            reentry: false,
            resume: false,
            pacing: false,
            scale_sweep: false,
        }
    }
}

impl StreamArgs {
    /// The Table X scenario the main stream is generated from.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            dataset: self.dataset,
            batch_size: ((1000.0 * self.scale).round() as usize).max(20),
            n_batches: self.batches,
            seed: self.seed,
            ..Scenario::default()
        }
    }

    /// The driver configuration: CLI knobs layered over the scenario's
    /// seed and budget settings (see [`StreamConfig::for_scenario`]).
    /// [`run`] panics on one that [`StreamConfig::validate`] rejects.
    pub fn config(&self, scenario: &Scenario) -> StreamConfig {
        StreamConfig {
            policy: self.policy,
            task_ttl: self.ttl,
            worker_capacity: self.capacity,
            ..StreamConfig::for_scenario(scenario)
        }
    }
}

/// A shard-disjoint clustered stream: one cluster per cell of `part`,
/// worker discs interior to their cells, bursty task arrivals. Sharded
/// and unsharded execution must agree exactly on it.
fn disjoint_stream(part: &GridPartition, per_cell: usize, seed: u64) -> ArrivalStream {
    let frame = part.frame();
    let cell_w = frame.width() / part.cols() as f64;
    let cell_h = frame.height() / part.rows() as f64;
    let times = ArrivalModel::Bursty {
        base_rate: 0.02,
        burst_rate: 0.2,
        period: 900.0,
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
            let n_workers = per_cell.div_ceil(2).max(1);
            for k in 0..n_workers {
                let spread = 0.12 * cell_w.min(cell_h);
                let angle = k as f64 * 2.4;
                events.push(ArrivalEvent::Worker(WorkerArrival {
                    id: worker_id,
                    time: 0.0,
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
                let spread = 0.1 * cell_w.min(cell_h);
                let angle = k as f64 * 1.7 + 0.3;
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

/// A stream whose utility lives on the cell boundaries: every interior
/// boundary of `part` hosts lines of worker/task pairs straddling it
/// (the worker left/below, his only reachable task on the far side),
/// plus one interior pair per cell. Drop-pairs sharding can match only
/// the interior pairs; the halo protocol can recover the rest.
fn crossing_stream(part: &GridPartition) -> ArrivalStream {
    let frame = *part.frame();
    let cell_w = frame.width() / part.cols() as f64;
    let cell_h = frame.height() / part.rows() as f64;
    let mut events = Vec::new();
    let (mut task_id, mut worker_id) = (0u32, 0u32);
    let mut pair = |wloc: Point, tloc: Point, radius: f64| {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: worker_id,
            time: 0.0,
            worker: Worker::new(wloc, radius),
        }));
        events.push(ArrivalEvent::Task(TaskArrival {
            id: task_id,
            time: 30.0 + 45.0 * task_id as f64,
            task: Task::new(tloc, 4.5),
        }));
        task_id += 1;
        worker_id += 1;
    };
    // One interior pair per cell: the baseline drop-pairs can match.
    // Distances stay well under a unit so utilities are comfortably
    // positive even after privacy costs and noise.
    for cy in 0..part.rows() {
        for cx in 0..part.cols() {
            let centre = Point::new(
                frame.min.x + (cx as f64 + 0.5) * cell_w,
                frame.min.y + (cy as f64 + 0.5) * cell_h,
            );
            let r = 0.1 * cell_w.min(cell_h);
            pair(
                centre,
                Point::new(centre.x + (0.5 * r).min(0.8), centre.y),
                r,
            );
        }
    }
    // Cross-only pairs straddling every interior boundary, spaced far
    // enough apart that each task is reachable by its worker alone.
    let margin = (0.01 * cell_w.min(cell_h)).min(0.5);
    let radius = 4.0 * margin;
    for c in 1..part.cols() {
        let x_b = frame.min.x + c as f64 * cell_w;
        for row in 0..4 {
            let y = frame.min.y + (row as f64 + 0.5) * frame.height() / 4.0;
            pair(
                Point::new(x_b - margin, y),
                Point::new(x_b + margin, y),
                radius,
            );
        }
    }
    for r in 1..part.rows() {
        let y_b = frame.min.y + r as f64 * cell_h;
        for col in 0..4 {
            let x = frame.min.x + (col as f64 + 0.5) * frame.width() / 4.0;
            pair(
                Point::new(x, y_b - margin),
                Point::new(x, y_b + margin),
                radius,
            );
        }
    }
    ArrivalStream::new(events)
}

/// The bursty rush-hour stream of the `--adaptive` comparison and the
/// `figs1` streaming sweep — the same arrival process the drain
/// benches run, at the subcommand's scale: long off-peak lulls at
/// 0.05 tasks/s punctuated by 0.5 tasks/s bursts every 600 s, workers
/// trickling in Poisson behind an 80 % on-duty fleet.
pub(crate) fn bursty_stream(scenario: &Scenario) -> ArrivalStream {
    StreamScenario {
        scenario: *scenario,
        task_model: ArrivalModel::Bursty {
            base_rate: 0.05,
            burst_rate: 0.5,
            period: 600.0,
            burst_fraction: 0.25,
        },
        worker_model: ArrivalModel::Poisson { rate: 0.02 },
        initial_worker_fraction: 0.8,
    }
    .stream()
}

/// A worker-scarce stream for the `--reentry` comparison: the full
/// fleet is on duty at `t = 0` but covers only 40 % of the paced task
/// load, so serve-and-leave runs out of workers and re-entry's
/// recycled cycles are what carries the tail of the stream.
fn scarce_stream(scenario: &Scenario) -> ArrivalStream {
    StreamScenario {
        scenario: Scenario {
            worker_task_ratio: 0.4,
            // Double the service radius: the re-entry comparison is
            // about fleet *availability*, so reachability must not be
            // the binding constraint.
            worker_range: 2.0 * scenario.worker_range,
            ..*scenario
        },
        task_model: ArrivalModel::Paced { rate: 0.05 },
        worker_model: ArrivalModel::Poisson { rate: 0.02 },
        initial_worker_fraction: 1.0,
    }
    .stream()
}

/// The long-horizon scarce stream of the `--pacing` comparison: the
/// fleet is on duty from `t = 0` but covers a fraction of the paced
/// task load, services recycle workers, and the horizon spans many
/// windows — long enough that lifetime accounting exhausts and retires
/// the fleet mid-stream while a sliding-window ledger keeps serving.
fn pacing_stream(scenario: &Scenario) -> ArrivalStream {
    StreamScenario {
        scenario: Scenario {
            worker_task_ratio: 0.4,
            worker_range: 2.0 * scenario.worker_range,
            n_batches: scenario.n_batches.max(4),
            ..*scenario
        },
        task_model: ArrivalModel::Paced { rate: 0.05 },
        worker_model: ArrivalModel::Poisson { rate: 0.01 },
        initial_worker_fraction: 1.0,
    }
    .stream()
}

/// Matches per worker arrival over the second half of the run's
/// windows — the steady-state rate the `--pacing` gate compares, after
/// lifetime accounting has had time to exhaust the fleet.
fn steady_state_rate(report: &StreamReport) -> f64 {
    let tail = &report.windows[report.windows.len() / 2..];
    let matched: usize = tail.iter().map(|w| w.matched).sum();
    matched as f64 / report.worker_arrivals.max(1) as f64
}

/// The `--pacing` analysis: lifetime accounting vs a sliding-window
/// ledger (protection window = 3 window widths, pacing controller on)
/// under a tight per-worker capacity on the long-horizon scarce
/// stream. The gate demands what renewable budgets exist for: strictly
/// higher steady-state matches per worker than lifetime accounting,
/// for every method that actually spends privacy budget (non-private
/// baselines are noted and skipped; at least one method must be
/// gated). Returns `false` when any gated method misses it.
fn run_pacing_section(methods: &[Method], base: &StreamConfig, scenario: &Scenario) -> bool {
    let stream = pacing_stream(scenario);
    let width = 300.0;
    let protection = 3.0 * width;
    let lifetime_cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width },
        worker_capacity: 1.5,
        service: ServiceModel::Fixed { secs: 240.0 },
        ledger: LedgerMode::Lifetime,
        ..base.clone()
    };
    let windowed_cfg = StreamConfig {
        ledger: LedgerMode::Windowed {
            window_secs: protection,
        },
        pacing: Some(PacingConfig { horizon_windows: 3 }),
        ..lifetime_cfg.clone()
    };
    println!(
        "
budget economics: lifetime vs sliding-window ledger (scarce fleet: {} tasks,          {} workers over {:.0} s; capacity ε = 1.5, protection window {:.0} s,          pacing horizon 3 windows):",
        stream.n_tasks(),
        stream.n_workers(),
        stream.horizon(),
        protection,
    );
    println!(
        "  {:<10} {:<10} {:>6} {:>5} {:>8} {:>9} {:>9} {:>12}",
        "method", "ledger", "match", "exp", "retired", "throttled", "spend ε", "steady m/W"
    );
    let mut ok = true;
    let mut gated = 0usize;
    for &method in methods {
        let engine = method.engine(&base.params);
        let (lifetime, _) = drive_session(engine.as_ref(), &lifetime_cfg, &stream);
        lifetime.assert_conservation();
        if lifetime.total_epsilon() == 0.0 {
            println!(
                "  {:<10} spends no privacy budget — renewable accounting cannot help; skipped",
                method.name()
            );
            continue;
        }
        let (windowed, _) = drive_session(engine.as_ref(), &windowed_cfg, &stream);
        windowed.assert_conservation();
        gated += 1;
        let retired: usize = lifetime.windows.iter().map(|w| w.workers_retired).sum();
        println!(
            "  {:<10} {:<10} {:>6} {:>5} {:>8} {:>9} {:>9.2} {:>12.3}",
            method.name(),
            "lifetime",
            lifetime.matched(),
            lifetime.expired(),
            retired,
            lifetime.throttled(),
            lifetime.total_epsilon(),
            steady_state_rate(&lifetime),
        );
        let improves = steady_state_rate(&windowed) > steady_state_rate(&lifetime);
        ok &= improves;
        println!(
            "  {:<10} {:<10} {:>6} {:>5} {:>8} {:>9} {:>9.2} {:>12.3}{}",
            "",
            "windowed",
            windowed.matched(),
            windowed.expired(),
            windowed
                .windows
                .iter()
                .map(|w| w.workers_retired)
                .sum::<usize>(),
            windowed.throttled(),
            windowed.total_epsilon(),
            steady_state_rate(&windowed),
            if improves {
                ""
            } else {
                "  — STEADY-STATE GATE FAILED"
            },
        );
    }
    if gated == 0 {
        println!("  no budget-spending method selected — the pacing gate is vacuous: FAILED");
        ok = false;
    }
    ok
}

/// Drains `stream` through the push-based session API, returning the
/// aggregate report plus the full typed outcome log (the per-cycle
/// columns of the re-entry table are counted off the `Returned`
/// outcomes).
fn drive_session(
    engine: &dyn AssignmentEngine,
    cfg: &StreamConfig,
    stream: &ArrivalStream,
) -> (StreamReport, Vec<Outcome>) {
    let mut session = StreamSession::new(engine, cfg.clone());
    for e in stream.events() {
        session.push(*e);
    }
    let report = session.close();
    let outcomes = session.poll_outcomes();
    (report, outcomes)
}

/// The `--reentry` analysis: serve-and-leave vs a fixed service
/// duration on the worker-scarce stream, per method. The gate demands
/// what re-entry exists for: strictly higher fleet utilization
/// (matches per worker arrival) than `ServiceModel::Never` on the same
/// arrivals. Returns `false` when any method misses it.
fn run_reentry_section(methods: &[Method], base: &StreamConfig, scenario: &Scenario) -> bool {
    let stream = scarce_stream(scenario);
    let service = ServiceModel::Fixed { secs: 240.0 };
    println!(
        "\nworker re-entry vs serve-and-leave (scarce fleet: {} tasks, {} workers \
         over {:.0} s; fixed 240 s service):",
        stream.n_tasks(),
        stream.n_workers(),
        stream.horizon(),
    );
    println!(
        "  {:<10} {:<14} {:>6} {:>5} {:>8} {:>8} {:>12}",
        "method", "service", "match", "exp", "util/W", "returns", "cycles 1/2/3+"
    );
    let mut ok = true;
    for &method in methods {
        let engine = method.engine(&base.params);
        let never_cfg = StreamConfig {
            service: ServiceModel::Never,
            ..base.clone()
        };
        let (never, _) = drive_session(engine.as_ref(), &never_cfg, &stream);
        never.assert_conservation();
        let reentry_cfg = StreamConfig {
            service,
            ..base.clone()
        };
        let (reentry, outcomes) = drive_session(engine.as_ref(), &reentry_cfg, &stream);
        reentry.assert_conservation();
        let (mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize);
        for o in &outcomes {
            if let Outcome::Returned { cycle, .. } = o {
                match cycle {
                    1 => c1 += 1,
                    2 => c2 += 1,
                    _ => c3 += 1,
                }
            }
        }
        println!(
            "  {:<10} {:<14} {:>6} {:>5} {:>8.3} {:>8} {:>12}",
            method.name(),
            "never",
            never.matched(),
            never.expired(),
            never.utilization(),
            never.returns(),
            "-",
        );
        let improves = reentry.utilization() > never.utilization();
        ok &= improves;
        println!(
            "  {:<10} {:<14} {:>6} {:>5} {:>8.3} {:>8} {:>12}{}",
            "",
            "fixed 240 s",
            reentry.matched(),
            reentry.expired(),
            reentry.utilization(),
            reentry.returns(),
            format!("{c1}/{c2}/{c3}"),
            if improves {
                ""
            } else {
                "  — UTILIZATION GATE FAILED"
            },
        );
    }
    ok
}

/// The `--resume` smoke: for each method, the stream is cut at its
/// midpoint, the session snapshotted there, serialized through JSON,
/// dropped and restored, and the tail drained — the resumed run must
/// match the uninterrupted run bit for bit (reports with timing zeroed,
/// plus the full typed outcome log). Returns `false` on any divergence.
fn run_resume_section(methods: &[Method], cfg: &StreamConfig, stream: &ArrivalStream) -> bool {
    let events = stream.events();
    let split = events.len() / 2;
    println!(
        "\ndurable-session smoke (snapshot at event {split}/{}, JSON round-trip, restore, drain):",
        events.len()
    );
    let mut ok = true;
    for &method in methods {
        let engine = method.engine(&cfg.params);
        let (baseline, base_outcomes) = drive_session(engine.as_ref(), cfg, stream);

        let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
        for e in &events[..split] {
            session.push(*e);
        }
        if split > 0 {
            session.advance_to(events[split - 1].time());
        }
        let snapshot = session.snapshot();
        let json = snapshot.to_json();
        drop(session);
        let parsed = match SessionSnapshot::from_json(&json) {
            Ok(s) => s,
            Err(e) => {
                println!("  {:<10} snapshot did not round-trip: {e}", method.name());
                ok = false;
                continue;
            }
        };
        let mut session = match StreamSession::restore(engine.as_ref(), cfg.clone(), &parsed) {
            Ok(s) => s,
            Err(e) => {
                println!("  {:<10} restore failed: {e}", method.name());
                ok = false;
                continue;
            }
        };
        for e in &events[split..] {
            session.push(*e);
        }
        let resumed = session.close();
        let resumed_outcomes = session.poll_outcomes();

        let identical = resumed.without_timing() == baseline.without_timing()
            && resumed_outcomes == base_outcomes;
        ok &= identical;
        println!(
            "  {:<10} {:>5} matched, {} windows, {:.0} B snapshot | {}",
            method.name(),
            resumed.matched(),
            resumed.windows.len(),
            json.len(),
            if identical {
                "BIT-FOR-BIT (fates, cuts, spend, outcomes)"
            } else {
                "DIVERGED FROM UNINTERRUPTED RUN"
            },
        );
    }
    ok
}

/// One row of the adaptive comparison table.
fn adaptive_row(label: &str, report: &StreamReport) {
    println!(
        "  {:<12} {:>8.0} {:>8.0} {:>10.2} {:>6} {:>4} {:>6} {:>5} {:>7}",
        label,
        report.p95_latency(),
        report.mean_latency(),
        report.total_utility(),
        report.matched(),
        report.expired(),
        report.windows_cut_early(),
        report.windows_widened(),
        report.windows_narrowed(),
    );
}

/// The `--adaptive` analysis: for each method, a 3-point static
/// `ByTime` width sweep vs the adaptive controller on the bursty
/// stream. The gate demands the paper-style dominance the controller
/// exists for: strictly lower p95 matching latency than the *best*
/// static width (lowest sweep p95), at total utility within 5 % of
/// that same run. Returns `false` when any method misses it.
fn run_adaptive_section(methods: &[Method], base: &StreamConfig, stream: &ArrivalStream) -> bool {
    let widths = [150.0, 300.0, 600.0];
    let policy = AdaptivePolicy::default();
    println!(
        "\nadaptive windowing vs static widths (bursty arrivals: {} tasks, {} workers \
         over {:.0} s; adaptive base {:.0} s in [{:.0}, {:.0}], burst cut {} tasks, \
         target p95 {:.0} s):",
        stream.n_tasks(),
        stream.n_workers(),
        stream.horizon(),
        policy.base_width,
        policy.min_width,
        policy.max_width,
        policy.burst_tasks,
        policy.target_p95,
    );
    let mut ok = true;
    for &method in methods {
        let engine = method.engine(&base.params);
        println!(
            "  {:<12} {:>8} {:>8} {:>10} {:>6} {:>4} {:>6} {:>5} {:>7}",
            method.name(),
            "p95(s)",
            "mean(s)",
            "utility",
            "match",
            "exp",
            "early",
            "wide",
            "narrow"
        );
        let mut static_runs: Vec<(f64, StreamReport)> = Vec::new();
        for &w in &widths {
            let cfg = StreamConfig {
                policy: WindowPolicy::ByTime { width: w },
                ..base.clone()
            };
            let report = StreamDriver::new(engine.as_ref(), cfg).run(stream);
            report.assert_conservation();
            adaptive_row(&format!("time{w:.0}s"), &report);
            static_runs.push((w, report));
        }
        let cfg = StreamConfig {
            policy: WindowPolicy::Adaptive(policy),
            ..base.clone()
        };
        let adaptive = StreamDriver::new(engine.as_ref(), cfg).run(stream);
        adaptive.assert_conservation();
        adaptive_row("adaptive", &adaptive);
        let (best_width, best) = static_runs
            .iter()
            .min_by(|a, b| a.1.p95_latency().total_cmp(&b.1.p95_latency()))
            .map(|(w, r)| (*w, r))
            .expect("non-empty sweep");
        let latency_wins = adaptive.p95_latency() < best.p95_latency();
        let utility_holds = adaptive.total_utility() >= 0.95 * best.total_utility();
        ok &= latency_wins && utility_holds;
        println!(
            "  -> best static: {best_width:.0} s (p95 {:.0} s, utility {:.2}); adaptive {} \
             p95 and {} utility within 5 %{}",
            best.p95_latency(),
            best.total_utility(),
            if latency_wins { "beats" } else { "MISSES" },
            if utility_holds { "holds" } else { "LOSES" },
            if latency_wins && utility_holds {
                ""
            } else {
                " — GATE FAILED"
            },
        );
    }
    ok
}

/// Merged `(task id, fate)` view of a sharded run, for exact
/// comparison against the unsharded fate map.
fn merged_fates(report: &dpta_stream::ShardedReport) -> Vec<(u32, TaskFate)> {
    let mut fates: Vec<(u32, TaskFate)> = report
        .shards
        .iter()
        .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
        .collect();
    fates.sort_by_key(|&(id, _)| id);
    fates
}

/// The `--halo` analysis: (1) determinism gate — on the shard-disjoint
/// witness the halo run must reproduce the unsharded run fate for
/// fate; (2) recovered utility — on a boundary-crossing stream the
/// halo must strictly beat drop-pairs sharding. Returns `false` when
/// either gate fails.
fn halo_section(
    methods: &[Method],
    cfg: &StreamConfig,
    part: &GridPartition,
    disjoint: &ArrivalStream,
) -> bool {
    let mut ok = true;

    println!("\nhalo determinism gate (disjoint witness):");
    for &method in methods {
        let engine = method.engine(&cfg.params);
        let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(disjoint);
        let halo = run_sharded_halo(engine.as_ref(), disjoint, cfg, part);
        let flat_fates: Vec<(u32, TaskFate)> = flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
        let agree = merged_fates(&halo) == flat_fates
            && (halo.total_utility() - flat.total_utility()).abs() < 1e-9;
        ok &= agree;
        println!(
            "  {:<10} {} matched, utility {:>10.2} | {}",
            method.name(),
            halo.matched(),
            halo.total_utility(),
            if agree {
                "EXACT (fates bit-for-bit)"
            } else {
                "DIVERGED"
            },
        );
    }

    let crossing = crossing_stream(part);
    println!(
        "\nhalo recovery on a crossing stream ({} tasks, {} workers, \
         pairs straddling every interior boundary):",
        crossing.n_tasks(),
        crossing.n_workers()
    );
    println!("  method     unsharded-u     drop-u       halo-u   recovered");
    for &method in methods {
        let engine = method.engine(&cfg.params);
        let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&crossing);
        let dropped = run_sharded(engine.as_ref(), &crossing, cfg, part);
        let halo = run_sharded_halo(engine.as_ref(), &crossing, cfg, part);
        let lost = flat.total_utility() - dropped.total_utility();
        let recovered = if lost > 1e-12 {
            (halo.total_utility() - dropped.total_utility()) / lost
        } else {
            1.0
        };
        // Strict improvement is only demanded when drop-pairs actually
        // lost utility; when nothing was lost, matching it is enough.
        let improves = if lost > 1e-12 {
            halo.total_utility() > dropped.total_utility()
        } else {
            halo.total_utility() >= dropped.total_utility() - 1e-9
        };
        ok &= improves;
        println!(
            "  {:<10} {:>11.2} {:>10.2} {:>12.2}   {:>6.1}% {}",
            method.name(),
            flat.total_utility(),
            dropped.total_utility(),
            halo.total_utility(),
            100.0 * recovered,
            if improves { "" } else { "— NO IMPROVEMENT" },
        );
    }
    ok
}

/// Constant-density stream for the `--scale-sweep` smoke, mirroring
/// the `scale_sweep` bench's construction: `n` task sites on a √n × √n
/// grid with 4-unit pitch, a radius-1 worker co-sited with every task
/// except each fifth site (an orphan that expires), one arrival per
/// second. Matching structure is exact at every scale — 4n/5 matched,
/// n/5 expired-or-pending — and the per-window live set is
/// scale-independent, so drain time should grow ~linearly in `n`.
fn scale_sweep_stream(n: usize) -> ArrivalStream {
    const SPACING: f64 = 4.0;
    const RADIUS: f64 = 1.0;
    let side = (n as f64).sqrt().ceil() as usize;
    let mut events = Vec::with_capacity(2 * n);
    for k in 0..n {
        let x = (k % side) as f64 * SPACING;
        let y = (k / side) as f64 * SPACING;
        let t = k as f64;
        if k % 5 != 4 {
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

/// The `--scale-sweep` smoke: drains the constant-density stream at
/// 10³ and 10⁴ entities (best of a few repeats at the small scale to
/// tame timer noise), fits the growth exponent α between the two
/// scales (`t ∝ n^α`), and gates it at `max_exponent` — any
/// accidental O(n²) path (full-ledger scans per window, dead-slot
/// rebuilds, quadratic buffer drains) pushes α toward 2 and fails the
/// run. The bench-grade version of this gate (`bench_gate
/// --scale-sweep`, 10³ → 10⁵ with criterion medians) owns the
/// committed trajectory; this section is its cheap CI smoke.
fn run_scale_sweep_section(cfg: &StreamConfig, max_exponent: f64) -> bool {
    let sweep_cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width: 120.0 },
        ..cfg.clone()
    };
    let engine = Method::Grd.engine(&sweep_cfg.params);

    println!("scale sweep: constant-density drain, 10^3 -> 10^4 entities");
    let mut timings = Vec::new();
    for (n, repeats) in [(1_000usize, 3u32), (10_000, 2)] {
        let stream = scale_sweep_stream(n);
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let start = std::time::Instant::now();
            let report = StreamDriver::new(engine.as_ref(), sweep_cfg.clone()).run(&stream);
            best = best.min(start.elapsed().as_secs_f64());
            let (matched, expired, pending) = report.assert_conservation();
            assert_eq!(
                (matched, expired + pending),
                (n - n / 5, n / 5),
                "sweep stream lost its exact matching structure at n={n}"
            );
        }
        println!(
            "  n={n:<6} drain {:>9.2} ms (best of {repeats})",
            best * 1e3
        );
        timings.push((n as f64, best));
    }
    let (n1, t1) = timings[0];
    let (n2, t2) = timings[1];
    let alpha = (t2 / t1).ln() / (n2 / n1).ln();
    let ok = alpha <= max_exponent;
    println!(
        "  growth exponent n^{alpha:.2} (gate n^{max_exponent:.2}) {}",
        if ok {
            "— OK"
        } else {
            "— SUPER-LINEAR DRIFT"
        },
    );
    ok
}

/// Runs the subcommand. Returns `false` if the sharded/unsharded
/// equivalence check failed (the caller turns that into a non-zero
/// exit).
pub fn run(args: &StreamArgs) -> bool {
    let scenario = args.scenario();
    let cfg = args.config(&scenario);
    let stream = StreamScenario::new(scenario).stream();
    println!(
        "arrival stream: {} tasks, {} workers over {:.0} s ({} dataset, scale {})\n",
        stream.n_tasks(),
        stream.n_workers(),
        stream.horizon(),
        args.dataset,
        args.scale,
    );

    let mut all_match = true;
    for &method in &args.methods {
        let engine = method.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        report.assert_conservation();
        println!("{}", report.render());
    }

    if args.resume {
        all_match &= run_resume_section(&args.methods, &cfg, &stream);
    }

    if args.adaptive {
        all_match &= run_adaptive_section(&args.methods, &cfg, &bursty_stream(&scenario));
    }

    if args.reentry {
        all_match &= run_reentry_section(&args.methods, &cfg, &scenario);
    }

    if args.pacing {
        all_match &= run_pacing_section(&args.methods, &cfg, &scenario);
    }

    if args.scale_sweep {
        all_match &= run_scale_sweep_section(&cfg, 1.8);
        println!();
    }

    // Sharded-vs-unsharded witness on shard-disjoint input: every
    // sharded mode steps the unsharded run's windows, whatever the
    // policy, so the two must agree fate for fate.
    let (cols, rows) = args.shards;
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
    let per_cell = (stream.n_tasks() / part.n_shards()).clamp(10, 200);
    let disjoint = disjoint_stream(&part, per_cell, args.seed);
    assert!(disjoint.is_shard_disjoint(&part));
    println!(
        "shard check: {} tasks, {} workers across a {}×{} grid",
        disjoint.n_tasks(),
        disjoint.n_workers(),
        cols,
        rows
    );
    for &method in &args.methods {
        let engine = method.engine(&cfg.params);
        let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&disjoint);
        let sharded = run_sharded(engine.as_ref(), &disjoint, &cfg, &part);
        let flat_fates: Vec<(u32, TaskFate)> = flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
        let agree = merged_fates(&sharded) == flat_fates
            && (sharded.total_utility() - flat.total_utility()).abs() < 1e-9;
        all_match &= agree;
        println!(
            "  {:<10} unsharded {:>4} matched (utility {:>10.2}) | sharded {:>4} \
             (utility {:>10.2}) | {} · critical path {:.2} ms vs flat {:.2} ms",
            method.name(),
            flat.matched(),
            flat.total_utility(),
            sharded.matched(),
            sharded.total_utility(),
            if agree { "EXACT" } else { "MISMATCH" },
            sharded.critical_path().as_secs_f64() * 1e3,
            flat.drive_time().as_secs_f64() * 1e3,
        );
    }

    if args.halo {
        all_match &= halo_section(&args.methods, &cfg, &part, &disjoint);
    }
    all_match
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_generator_is_disjoint_and_deterministic() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 3, 2);
        let a = disjoint_stream(&part, 12, 7);
        assert!(a.is_shard_disjoint(&part));
        assert_eq!(a.n_tasks(), 72);
        assert_eq!(a, disjoint_stream(&part, 12, 7));
    }

    #[test]
    fn subcommand_runs_three_methods_and_shard_check_passes() {
        let args = StreamArgs {
            scale: 0.03, // 30-task batches: fast but multi-window
            policy: WindowPolicy::ByTime { width: 120.0 },
            ..StreamArgs::default()
        };
        assert!(args.methods.len() >= 3);
        assert!(run(&args), "sharded run must match unsharded exactly");
    }

    #[test]
    fn halo_gates_pass_and_recovery_is_strict() {
        // --halo adds two gates: bit-for-bit determinism on the
        // disjoint witness, and strictly-higher utility than drop-pairs
        // on the crossing stream. Both must hold for all three default
        // methods (two private, one plain).
        let args = StreamArgs {
            scale: 0.03,
            policy: WindowPolicy::ByTime { width: 120.0 },
            halo: true,
            ..StreamArgs::default()
        };
        assert!(run(&args), "halo determinism or recovery gate failed");
    }

    #[test]
    fn crossing_stream_is_cross_only_beyond_interior_pairs() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 3, 2);
        let s = crossing_stream(&part);
        assert!(!s.is_shard_disjoint(&part));
        // One interior pair per cell + 4 pairs per interior boundary.
        let boundaries = (part.cols() - 1) + (part.rows() - 1);
        assert_eq!(s.n_tasks(), part.n_shards() + 4 * boundaries);
        assert_eq!(s.n_workers(), s.n_tasks());
        assert_eq!(s, crossing_stream(&part));
    }

    #[test]
    fn reentry_gate_beats_serve_and_leave() {
        // Pins the ISSUE 5 acceptance claim at the CI smoke scale: with
        // a fixed service duration enabled, fleet utilization strictly
        // exceeds serve-and-leave for all three default methods on the
        // scarce stream.
        let scenario = Scenario {
            dataset: Dataset::Normal,
            batch_size: 30,
            n_batches: 2,
            seed: 42,
            ..Scenario::default()
        };
        let cfg = StreamArgs::default().config(&scenario);
        assert!(
            run_reentry_section(&[Method::Puce, Method::Pgt, Method::Grd], &cfg, &scenario),
            "the re-entry utilization gate must hold at the default scenario"
        );
    }

    #[test]
    fn pacing_gate_windowed_beats_lifetime() {
        // Pins the PR 9 acceptance claim at the CI smoke scale: under a
        // tight lifetime capacity the sliding-window ledger sustains
        // strictly higher steady-state matches per worker than lifetime
        // accounting for every budget-spending method (the non-private
        // baseline is skipped with a note).
        let scenario = Scenario {
            dataset: Dataset::Normal,
            batch_size: 30,
            n_batches: 2,
            seed: 42,
            ..Scenario::default()
        };
        let cfg = StreamArgs::default().config(&scenario);
        assert!(
            run_pacing_section(&[Method::Puce, Method::Pgt, Method::Grd], &cfg, &scenario),
            "the windowed-ledger steady-state gate must hold at the default scenario"
        );
    }

    #[test]
    fn resume_smoke_is_bit_for_bit_across_policies() {
        // Pins the PR 7 acceptance claim at the CI smoke scale: the
        // mid-stream snapshot/restore drain matches the uninterrupted
        // run bit for bit for every default method, under both a static
        // and the adaptive window policy.
        for policy in [
            WindowPolicy::ByTime { width: 120.0 },
            WindowPolicy::Adaptive(AdaptivePolicy::default()),
        ] {
            let args = StreamArgs {
                scale: 0.03,
                policy,
                resume: true,
                ..StreamArgs::default()
            };
            assert!(run(&args), "durable-session smoke failed under {policy:?}");
        }
    }

    #[test]
    fn count_policy_passes_the_shard_gate_directly() {
        // Count windows are cut once off the merged global stream, as
        // the unsharded run cuts them, so the witness gate runs them
        // as they are and sharded execution must agree with unsharded
        // bit for bit.
        let args = StreamArgs {
            scale: 0.03,
            policy: WindowPolicy::ByCount { tasks: 20 },
            methods: vec![Method::Puce, Method::Grd],
            ..StreamArgs::default()
        };
        assert!(run(&args));
    }

    #[test]
    fn adaptive_policy_passes_the_shard_gate_directly() {
        // Adaptive windows are formed off the merged global stream, so
        // the witness gate runs them without coercion and sharded
        // execution must agree with unsharded bit for bit.
        let args = StreamArgs {
            scale: 0.03,
            policy: WindowPolicy::Adaptive(AdaptivePolicy::default()),
            methods: vec![Method::Puce, Method::Grd],
            ..StreamArgs::default()
        };
        assert!(run(&args));
    }

    #[test]
    fn adaptive_gate_beats_best_static_p95_at_comparable_utility() {
        // Pins the ISSUE 4 acceptance claim at the CI smoke scale: on
        // the bursty arrival model the adaptive controller reports
        // strictly lower p95 matching latency than the best static
        // width of the 3-point sweep, at utility within 5 %, for all
        // three default methods.
        let scenario = Scenario {
            dataset: Dataset::Normal,
            batch_size: 50,
            n_batches: 2,
            seed: 42,
            ..Scenario::default()
        };
        let cfg = StreamArgs::default().config(&scenario);
        let stream = bursty_stream(&scenario);
        assert!(
            run_adaptive_section(&[Method::Puce, Method::Pgt, Method::Grd], &cfg, &stream),
            "the adaptive windowing gate must hold at the default scenario"
        );
    }
}
