//! Sharded execution: one engine run per spatial grid cell.
//!
//! Task assignment is spatially local — a worker only ever interacts
//! with tasks inside his service disc — so a stream whose workers'
//! discs never cross cell boundaries decomposes *exactly*: running one
//! driver per [`GridPartition`] cell on scoped threads produces, pair
//! for pair, the run the single-threaded driver would have produced,
//! at a wall-clock cost of the slowest shard instead of the sum.
//!
//! When discs do cross boundaries, the [`ShardStrategy`] decides what
//! happens: [`DropPairs`](ShardStrategy::DropPairs) never considers
//! cross-cell pairs (exact only on shard-disjoint input), while
//! [`Halo`](ShardStrategy::Halo) extends each shard with the foreign
//! workers whose service discs reach into its cell and reconciles the
//! shards' competing claims deterministically — near-exact on general
//! input, bit-for-bit equal to the unsharded run on disjoint input.
//! The protocol is documented in `ARCHITECTURE.md` ("Sharding & the
//! halo protocol").

use crate::driver::{StreamConfig, StreamDriver};
use crate::event::{ArrivalEvent, ArrivalStream};
use crate::halo::{one_cell, HaloCore, HaloSnapshot};
use crate::lifecycle::StepSignals;
use crate::metrics::{ShardedReport, StreamReport};
use crate::session::{Outcome, StreamSession};
use crate::snapshot::{ShardedModeSnapshot, ShardedSnapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::window::{FormerSnapshot, Window, WindowFormer, WindowPolicy};
use dpta_core::AssignmentEngine;
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The warning drop-pairs sharding attaches to every shard report when
/// it runs under a count policy: count windows close on shard-local
/// arrivals, so the sharded windows cannot align with an unsharded run
/// (or across shards). The `stream` subcommand's witness gate coerces
/// such runs to time windows and, under `--strict`, turns the coercion
/// into a hard error.
pub const COUNT_WINDOW_SHARD_WARNING: &str =
    "count windows close on shard-local arrivals: sharded windows do not align \
     with an unsharded run (use a time or adaptive policy for exact agreement)";

/// How sharded execution treats feasible pairs that cross cell
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Route every entity to the cell owning its location and run the
    /// shards fully independently: cross-boundary pairs are silently
    /// dropped. Exact only on
    /// [shard-disjoint](ArrivalStream::is_shard_disjoint) input; the
    /// cheapest mode, and the baseline the halo protocol's recovered
    /// utility is measured against.
    #[default]
    DropPairs,
    /// The boundary-halo protocol: each shard's windows additionally
    /// include the foreign workers whose service discs reach into its
    /// cell ([`GridPartition::halo_shards`]), shards propose matches
    /// over interior ∪ halo, and a deterministic reconciliation pass
    /// resolves competing claims on shared workers (id-keyed,
    /// home-shard priority) so no worker is ever assigned twice and
    /// every release is charged exactly once. Bit-for-bit equal to the
    /// unsharded run on shard-disjoint input, near-exact in general.
    Halo,
}

/// Runs `stream` sharded by `partition` under the
/// [`DropPairs`](ShardStrategy::DropPairs) strategy: one independent
/// driver per cell, each on its own scoped thread sharing the one
/// `engine`. Cross-boundary pairs are never formed — use
/// [`run_sharded_halo`] (or [`run_sharded_with`]) when the workload is
/// not shard-disjoint; the halo protocol and its guarantees are
/// documented in `ARCHITECTURE.md` ("Sharding & the halo protocol").
///
/// Every shard is forced onto the same window sequence: the global
/// stream horizon is injected into each shard's configuration, so
/// [`WindowPolicy::ByTime`](crate::WindowPolicy::ByTime) windows line
/// up across shards (and with an
/// unsharded run of the same configuration). With a time policy and a
/// [shard-disjoint](ArrivalStream::is_shard_disjoint) stream, the
/// merged totals equal the unsharded run's exactly — asserted by the
/// crate's equivalence tests.
///
/// # Examples
///
/// ```
/// use dpta_core::Method;
/// use dpta_spatial::{Aabb, GridPartition};
/// use dpta_stream::{run_sharded, StreamConfig, StreamDriver, StreamScenario, WindowPolicy};
/// use dpta_workloads::{Dataset, Scenario};
///
/// let stream = StreamScenario::new(Scenario {
///     batch_size: 30,
///     n_batches: 2,
///     worker_range: 1.0,
///     ..Scenario::for_dataset(Dataset::Uniform)
/// })
/// .stream();
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 60.0 },
///     ..StreamConfig::default()
/// };
/// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
/// let engine = Method::Grd.engine(&cfg.params);
/// let sharded = run_sharded(engine.as_ref(), &stream, &cfg, &part);
/// assert_eq!(sharded.shards.len(), 4);
/// let direct: usize = sharded.shards.iter().map(|s| s.task_arrivals).sum();
/// assert_eq!(direct, stream.n_tasks());
/// ```
pub fn run_sharded(
    engine: &dyn AssignmentEngine,
    stream: &ArrivalStream,
    cfg: &StreamConfig,
    partition: &GridPartition,
) -> ShardedReport {
    run_sharded_with(engine, stream, cfg, partition, ShardStrategy::DropPairs)
}

/// Runs `stream` sharded by `partition` under the boundary-halo
/// protocol ([`ShardStrategy::Halo`]): cross-boundary pairs are
/// recovered by replicating boundary workers into every cell their
/// service disc reaches and reconciling the shards' claims
/// deterministically. See [`run_sharded_with`] and the "Sharding & the
/// halo protocol" section of `ARCHITECTURE.md`.
///
/// # Examples
///
/// ```
/// use dpta_core::{Method, Task, Worker};
/// use dpta_spatial::{Aabb, GridPartition, Point};
/// use dpta_stream::{
///     run_sharded, run_sharded_halo, ArrivalEvent, ArrivalStream, StreamConfig, TaskArrival,
///     WindowPolicy, WorkerArrival,
/// };
///
/// // One worker left of x = 5, one task right of it: the only feasible
/// // pair crosses the shard boundary.
/// let stream = ArrivalStream::new(vec![
///     ArrivalEvent::Worker(WorkerArrival {
///         id: 0,
///         time: 0.0,
///         worker: Worker::new(Point::new(4.5, 5.0), 2.0),
///     }),
///     ArrivalEvent::Task(TaskArrival {
///         id: 0,
///         time: 1.0,
///         task: Task::new(Point::new(5.5, 5.0), 4.5),
///     }),
/// ]);
/// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 10.0 },
///     ..StreamConfig::default()
/// };
/// let engine = Method::Grd.engine(&cfg.params);
/// // Drop-pairs sharding loses the pair; the halo recovers it.
/// assert_eq!(run_sharded(engine.as_ref(), &stream, &cfg, &part).matched(), 0);
/// assert_eq!(run_sharded_halo(engine.as_ref(), &stream, &cfg, &part).matched(), 1);
/// ```
pub fn run_sharded_halo(
    engine: &dyn AssignmentEngine,
    stream: &ArrivalStream,
    cfg: &StreamConfig,
    partition: &GridPartition,
) -> ShardedReport {
    run_sharded_with(engine, stream, cfg, partition, ShardStrategy::Halo)
}

/// Runs `stream` sharded by `partition` under an explicit
/// [`ShardStrategy`]. [`run_sharded`] and [`run_sharded_halo`] are the
/// two named conveniences.
pub fn run_sharded_with(
    engine: &dyn AssignmentEngine,
    stream: &ArrivalStream,
    cfg: &StreamConfig,
    partition: &GridPartition,
    strategy: ShardStrategy,
) -> ShardedReport {
    run_sharded_pooled(engine, stream, cfg, partition, strategy, None)
}

/// [`run_sharded_with`] with an explicit worker-pool size.
///
/// `pool` bounds the number of OS threads executing shard jobs
/// (`None` = one per available core). The report is **byte-identical
/// for every pool size**: each shard's run is a deterministic function
/// of its sub-stream alone, and results land in a slot fixed by shard
/// index, so neither the thread that ran a shard nor the order shards
/// finished is observable — pinned across pool sizes 1/2/8 by the
/// scale-properties suite. The knob only applies to static-policy
/// [`DropPairs`](ShardStrategy::DropPairs) runs; adaptive drop-pairs
/// and the halo protocol window globally and coordinate shards
/// sequentially, so they drain a [`ShardedSession`] (`push* → close`)
/// and ignore it.
pub fn run_sharded_pooled(
    engine: &dyn AssignmentEngine,
    stream: &ArrivalStream,
    cfg: &StreamConfig,
    partition: &GridPartition,
    strategy: ShardStrategy,
    pool: Option<usize>,
) -> ShardedReport {
    if strategy == ShardStrategy::DropPairs && !matches!(cfg.policy, WindowPolicy::Adaptive(_)) {
        return run_drop_pairs(engine, stream, cfg, partition, pool);
    }
    let mut session = ShardedSession::new(engine, cfg.clone(), partition, strategy);
    for &e in stream.events() {
        session.push(e);
    }
    session.close()
}

/// The independent-drivers implementation behind static-policy
/// [`ShardStrategy::DropPairs`]: a deterministic work-stealing pool.
///
/// Populated shards become jobs in one shared queue, ordered largest
/// first (longest-processing-time): under static striping one hotspot
/// cell landing late in a thread's stripe serializes the whole run,
/// while here every idle thread steals the next-heaviest remaining
/// shard, so the makespan approaches the max(shard, total/threads)
/// lower bound on skewed input. Determinism is by construction, not by
/// scheduling: each shard's report is a pure function of its sub-stream
/// and the shared configuration, and reports land in `slots[k]` keyed
/// by shard index — which thread ran a shard, and in which order shards
/// finished, is unobservable in the merged output.
fn run_drop_pairs(
    engine: &dyn AssignmentEngine,
    stream: &ArrivalStream,
    cfg: &StreamConfig,
    partition: &GridPartition,
    pool: Option<usize>,
) -> ShardedReport {
    let horizon = cfg.horizon.unwrap_or_else(|| stream.horizon());
    let shard_cfg = StreamConfig {
        horizon: Some(horizon),
        ..cfg.clone()
    };
    let sub_streams = stream.shard(partition);

    // Empty cells cost nothing: no job, no drive, an empty report.
    // Heaviest shards first (ties broken by shard index, so the queue
    // order itself is deterministic).
    let mut jobs: Vec<usize> = sub_streams
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.events().is_empty())
        .map(|(k, _)| k)
        .collect();
    jobs.sort_by_key(|&k| (std::cmp::Reverse(sub_streams[k].events().len()), k));
    let threads = jobs.len().min(
        pool.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(8)
        })
        .max(1),
    );

    let mut slots: Vec<Option<StreamReport>> = sub_streams
        .iter()
        .map(|_| {
            Some(StreamReport {
                engine: engine.name().to_string(),
                ..StreamReport::default()
            })
        })
        .collect();
    if threads > 0 {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let driven: Vec<(usize, StreamReport)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let jobs = &jobs;
                    let next = &next;
                    let sub_streams = &sub_streams;
                    let shard_cfg = &shard_cfg;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(&k) = jobs.get(i) else { break };
                            let driver = StreamDriver::new(engine, shard_cfg.clone());
                            out.push((k, driver.run(&sub_streams[k])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        for (k, report) in driven {
            slots[k] = Some(report);
        }
    }
    let mut shards: Vec<StreamReport> = slots.into_iter().map(|s| s.expect("shard ran")).collect();
    warn_count_windows(&cfg.policy, &mut shards);
    ShardedReport { shards }
}

/// Count windows close on shard-local arrivals and silently misalign
/// across shards: attaches [`COUNT_WINDOW_SHARD_WARNING`] to every
/// populated shard's report of a multi-shard count-policy run.
fn warn_count_windows(policy: &WindowPolicy, shards: &mut [StreamReport]) {
    if matches!(policy, WindowPolicy::ByCount { .. }) && shards.len() > 1 {
        for s in shards
            .iter_mut()
            .filter(|s| s.task_arrivals > 0 || s.worker_arrivals > 0)
        {
            s.warnings.push(COUNT_WINDOW_SHARD_WARNING.to_string());
        }
    }
}

/// Shard `k`'s view of a globally-formed window: the same span, holding
/// only the tasks and workers whose locations the cell owns. Relative
/// event order is preserved.
fn project_window(window: &Window, partition: &GridPartition, k: usize) -> Window {
    Window {
        index: window.index,
        start: window.start,
        end: window.end,
        tasks: window
            .tasks
            .iter()
            .filter(|t| partition.shard_of(&t.task.location) == k)
            .copied()
            .collect(),
        workers: window
            .workers
            .iter()
            .filter(|w| partition.shard_of(&w.worker.location) == k)
            .copied()
            .collect(),
    }
}

/// The push-based counterpart of [`run_sharded_with`]: one durable
/// session over a spatial partition, fed events one at a time.
///
/// `push(event)` routes by the entity's location, `advance_to(t)`
/// declares the global event-time watermark, `poll_outcomes()` drains
/// the typed [`Outcome`] log of every shard, and `close()` settles the
/// per-shard [`ShardedReport`]. [`run_sharded_with`] is exactly
/// `push* → close` over this session for the halo protocol and for
/// adaptive drop-pairs, and draining a pre-built stream reproduces its
/// work-stealing static drop-pairs runner bit for bit (the crash-resume
/// suite pins this). Like [`StreamSession`](crate::StreamSession), a
/// mid-run session can be captured with [`snapshot`](Self::snapshot)
/// and reopened with [`restore`](Self::restore). The execution mode
/// follows strategy and policy: independent per-shard sessions for
/// static drop-pairs policies; otherwise one global window former whose
/// windows the window stepper drives — one one-cell stepper per shard
/// on the shard's projection of each window for adaptive drop-pairs,
/// one stepper over the whole partition for [`ShardStrategy::Halo`].
///
/// # Examples
///
/// ```
/// use dpta_core::Method;
/// use dpta_spatial::{Aabb, GridPartition};
/// use dpta_stream::{
///     run_sharded, ShardStrategy, ShardedSession, StreamConfig, StreamScenario, WindowPolicy,
/// };
/// use dpta_workloads::{Dataset, Scenario};
///
/// let stream = StreamScenario::new(Scenario {
///     batch_size: 30,
///     n_batches: 2,
///     worker_range: 1.0,
///     ..Scenario::for_dataset(Dataset::Uniform)
/// })
/// .stream();
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 60.0 },
///     ..StreamConfig::default()
/// };
/// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
/// let engine = Method::Grd.engine(&cfg.params);
///
/// let mut session = ShardedSession::new(engine.as_ref(), cfg.clone(), &part, ShardStrategy::DropPairs);
/// for &event in stream.events() {
///     session.push(event);
/// }
/// let pushed = session.close();
/// let batch = run_sharded(engine.as_ref(), &stream, &cfg, &part);
/// assert_eq!(pushed.matched(), batch.matched());
/// ```
pub struct ShardedSession<'e, 'p> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    partition: &'p GridPartition,
    strategy: ShardStrategy,
    watermark: f64,
    task_ids: BTreeSet<u32>,
    worker_ids: BTreeSet<u32>,
    /// `None` once closed.
    mode: Option<Mode<'e>>,
    /// Outcomes the close emitted, pollable after it.
    residual: Vec<Outcome>,
}

/// The sharded execution modes.
enum Mode<'e> {
    /// Static drop-pairs policies: fully independent per-shard
    /// sessions, the global span injected at close (the work-stealing
    /// runner's horizon injection).
    PerShard {
        shards: Vec<StreamSession<'e>>,
        /// Events routed to each shard so far — only shards that
        /// received input are horizon-extended and watermarked (empty
        /// cells must close to empty reports, exactly like the
        /// work-stealing runner's undriven slots).
        received: Vec<usize>,
        max_event_time: f64,
    },
    /// One global former cuts every window, fed the merged signals of
    /// its steppers (see [`core_partitions`]).
    Global {
        former: WindowFormer,
        cores: Vec<HaloCore<'e>>,
    },
}

impl<'e> Mode<'e> {
    /// A global-former mode restored from its windower and steppers.
    fn global(
        engine: &'e dyn AssignmentEngine,
        cfg: &StreamConfig,
        strategy: ShardStrategy,
        partition: &GridPartition,
        windower: &FormerSnapshot,
        cores: &[HaloSnapshot],
    ) -> Result<Self, SnapshotError> {
        let parts = core_partitions(strategy, partition).into_iter();
        Ok(Mode::Global {
            former: WindowFormer::from_snapshot(cfg.policy, cfg.horizon, windower)?,
            cores: parts
                .zip(cores)
                .map(|(part, c)| HaloCore::from_snapshot(engine, cfg.clone(), part, c))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The partitions of a global-former session's steppers: the whole
/// partition under the halo protocol, one cell per shard under adaptive
/// drop-pairs, whose shard `k` steps the windows' projection onto cell
/// `k` ([`project_window`]).
fn core_partitions(strategy: ShardStrategy, partition: &GridPartition) -> Vec<GridPartition> {
    match strategy {
        ShardStrategy::Halo => vec![*partition],
        ShardStrategy::DropPairs => vec![one_cell(); partition.n_shards()],
    }
}

/// Whether `strategy` under `policy` runs independent per-shard
/// sessions: static drop-pairs policies do, everything else windows
/// globally.
fn per_shard(strategy: ShardStrategy, policy: &WindowPolicy) -> bool {
    strategy == ShardStrategy::DropPairs && !matches!(policy, WindowPolicy::Adaptive(_))
}

/// Per-shard sessions never see the user's horizon directly: the
/// work-stealing runner injects the *global* span into populated shards
/// only, so the wrapper strips the horizon at construction and injects
/// it via [`StreamSession::extend_horizon`] at close.
fn per_shard_config(cfg: &StreamConfig) -> StreamConfig {
    StreamConfig {
        horizon: None,
        ..cfg.clone()
    }
}

impl<'e, 'p> ShardedSession<'e, 'p> {
    /// Opens a sharded session for `engine` under `cfg`, partitioned by
    /// `partition` under `strategy`. Panics on degenerate configuration
    /// (the same invariants as
    /// [`StreamSession::new`](crate::StreamSession::new)).
    pub fn new(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &'p GridPartition,
        strategy: ShardStrategy,
    ) -> Self {
        assert!(cfg.task_ttl >= 1, "task_ttl must be at least 1");
        assert!(cfg.budget_group_size >= 1, "budget group must be non-empty");
        assert!(
            cfg.worker_capacity > 0.0,
            "worker_capacity must be positive"
        );
        cfg.service.validate();
        let n = partition.n_shards();
        let mode = if per_shard(strategy, &cfg.policy) {
            Mode::PerShard {
                shards: (0..n)
                    .map(|_| StreamSession::new(engine, per_shard_config(&cfg)))
                    .collect(),
                received: vec![0; n],
                max_event_time: 0.0,
            }
        } else {
            Mode::Global {
                former: WindowFormer::new(cfg.policy, cfg.horizon),
                cores: core_partitions(strategy, partition)
                    .into_iter()
                    .map(|part| HaloCore::new(engine, cfg.clone(), part))
                    .collect(),
            }
        };
        ShardedSession {
            engine,
            cfg,
            partition,
            strategy,
            watermark: 0.0,
            task_ids: BTreeSet::new(),
            worker_ids: BTreeSet::new(),
            mode: Some(mode),
            residual: Vec::new(),
        }
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The current global event-time watermark.
    pub fn now(&self) -> f64 {
        self.watermark
    }

    /// Feeds one arrival event, routed to the shard owning its
    /// location. Panics under the same invariants as
    /// [`StreamSession::push`](crate::StreamSession::push) — ids are
    /// unique per entity kind *globally*, across shards.
    pub fn push(&mut self, event: ArrivalEvent) {
        let t = event.time();
        assert!(
            t.is_finite() && t >= 0.0,
            "arrival time must be finite and >= 0, got {t}"
        );
        assert!(
            t >= self.watermark,
            "late arrival: event at t = {t} is below the watermark {} \
             (its window may already be driven)",
            self.watermark
        );
        let fresh = match &event {
            ArrivalEvent::Task(a) => self.task_ids.insert(a.id),
            ArrivalEvent::Worker(a) => self.worker_ids.insert(a.id),
        };
        assert!(fresh, "arrival ids must be unique per entity kind");
        let partition = self.partition;
        match self.mode.as_mut().expect("push on a closed session") {
            Mode::PerShard {
                shards,
                received,
                max_event_time,
            } => {
                *max_event_time = max_event_time.max(t);
                let loc = match &event {
                    ArrivalEvent::Task(a) => a.task.location,
                    ArrivalEvent::Worker(a) => a.worker.location,
                };
                let k = partition.shard_of(&loc);
                shards[k].push(event);
                received[k] += 1;
            }
            Mode::Global { former, .. } => former.push(event),
        }
    }

    /// Advances the global watermark to `t` (monotone; lower values are
    /// no-ops) and drives every window that closes before it, in every
    /// shard.
    pub fn advance_to(&mut self, t: f64) {
        assert!(self.mode.is_some(), "advance_to on a closed session");
        assert!(
            t.is_finite() && t >= 0.0,
            "watermark must be finite, got {t}"
        );
        if t <= self.watermark {
            return;
        }
        self.watermark = t;
        let (partition, strategy) = (self.partition, self.strategy);
        match self.mode.as_mut().expect("mode present") {
            Mode::PerShard {
                shards, received, ..
            } => {
                for (k, s) in shards.iter_mut().enumerate() {
                    if received[k] > 0 {
                        s.advance_to(t);
                    }
                }
            }
            Mode::Global { former, cores } => {
                former.advance(t);
                drive_global(former, cores, partition, strategy, false);
            }
        }
    }

    /// Drains the typed outcome log accumulated since the last poll:
    /// the halo stepper's log, or every shard's in shard order.
    pub fn poll_outcomes(&mut self) -> Vec<Outcome> {
        match self.mode.as_mut() {
            None => std::mem::take(&mut self.residual),
            Some(Mode::PerShard { shards, .. }) => {
                shards.iter_mut().flat_map(|s| s.poll_outcomes()).collect()
            }
            Some(Mode::Global { cores, .. }) => {
                cores.iter_mut().flat_map(|c| c.drain_outcomes()).collect()
            }
        }
    }

    /// Drives every remaining window in every shard (trailing empties
    /// included) and settles the per-shard reports. Outcomes emitted
    /// while closing stay pollable. Panics if called twice.
    pub fn close(&mut self) -> ShardedReport {
        let mode = self.mode.take().expect("close on a closed session");
        match mode {
            Mode::PerShard {
                mut shards,
                received,
                max_event_time,
            } => {
                // The work-stealing runner's horizon injection: every
                // populated shard is forced onto the window grid of the
                // *global* span, so windows line up across shards.
                let inject = self
                    .cfg
                    .horizon
                    .unwrap_or_else(|| max_event_time.max(self.watermark));
                let mut reports = Vec::with_capacity(shards.len());
                for (k, s) in shards.iter_mut().enumerate() {
                    if received[k] > 0 {
                        s.extend_horizon(inject);
                    }
                    reports.push(s.close());
                    self.residual.extend(s.poll_outcomes());
                }
                warn_count_windows(&self.cfg.policy, &mut reports);
                ShardedReport { shards: reports }
            }
            Mode::Global {
                mut former,
                mut cores,
            } => {
                drive_global(&mut former, &mut cores, self.partition, self.strategy, true);
                let mut shards = Vec::with_capacity(self.partition.n_shards());
                for mut core in cores {
                    self.residual.extend(core.drain_outcomes());
                    shards.extend(core.finish().shards);
                }
                ShardedReport { shards }
            }
        }
    }

    /// Captures the sharded session's full state — every shard's
    /// windower and pipeline state, or the window steppers' global
    /// protocol state — as a versioned [`ShardedSnapshot`]. Panics on a
    /// closed session.
    ///
    /// Unlike a [`StreamSession`] snapshot, it leaves the unpolled
    /// outcome log out, so that a session nobody polls does not write
    /// its whole history into every snapshot: poll before taking one. A
    /// restored session's log starts empty.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let mode = self.mode.as_ref().expect("snapshot on a closed session");
        let unlogged = |mut core: HaloSnapshot| {
            core.outcomes.clear();
            core
        };
        let mode_snap = match mode {
            Mode::PerShard {
                shards,
                max_event_time,
                ..
            } => ShardedModeSnapshot::PerShard {
                shards: shards
                    .iter()
                    .map(|s| {
                        let mut snap = s.snapshot();
                        snap.core = unlogged(snap.core);
                        snap
                    })
                    .collect(),
                max_event_time: *max_event_time,
            },
            Mode::Global { former, cores } => {
                let windower = former.snapshot();
                let mut cores = cores.iter().map(|c| unlogged(c.snapshot()));
                match self.strategy {
                    ShardStrategy::Halo => ShardedModeSnapshot::Halo {
                        windower,
                        core: cores.next().expect("a halo session has one stepper"),
                    },
                    ShardStrategy::DropPairs => ShardedModeSnapshot::Lockstep {
                        windower,
                        cores: cores.collect(),
                    },
                }
            }
        };
        ShardedSnapshot {
            version: SNAPSHOT_VERSION,
            engine: self.engine.name().to_string(),
            config: self.cfg.clone(),
            strategy: self.strategy,
            n_shards: self.partition.n_shards(),
            watermark: self.watermark,
            task_ids: self.task_ids.clone(),
            worker_ids: self.worker_ids.clone(),
            mode: mode_snap,
        }
    }

    /// Reopens a sharded session from a snapshot taken by
    /// [`ShardedSession::snapshot`]. Engine, configuration, strategy
    /// and partition shard count must all match what the snapshot was
    /// taken under — mismatches are rejected with the same typed errors
    /// as [`StreamSession::restore`](crate::StreamSession::restore),
    /// with `"strategy"` and `"partition"` as additional
    /// [`SnapshotError::ConfigMismatch`] fields.
    pub fn restore(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &'p GridPartition,
        strategy: ShardStrategy,
        snapshot: &ShardedSnapshot,
    ) -> Result<Self, SnapshotError> {
        snapshot.validate(engine.name(), &cfg, partition.n_shards(), strategy)?;
        let n = partition.n_shards();
        let bad_len = |what: &str| {
            Err(SnapshotError::Malformed(format!(
                "sharded snapshot's {what} does not cover every shard of the partition"
            )))
        };
        let per_shard = per_shard(strategy, &cfg.policy);
        let mode = match (&snapshot.mode, strategy) {
            (
                ShardedModeSnapshot::PerShard {
                    shards,
                    max_event_time,
                },
                _,
            ) if per_shard => {
                if shards.len() != n {
                    return bad_len("per-shard session list");
                }
                let received = shards.iter().map(|s| s.n_tasks + s.n_workers).collect();
                let sessions = shards
                    .iter()
                    .map(|s| StreamSession::restore(engine, per_shard_config(&cfg), s))
                    .collect::<Result<Vec<_>, _>>()?;
                Mode::PerShard {
                    shards: sessions,
                    received,
                    max_event_time: *max_event_time,
                }
            }
            (ShardedModeSnapshot::Lockstep { windower, cores }, ShardStrategy::DropPairs)
                if !per_shard =>
            {
                if cores.len() != n {
                    return bad_len("stepper list");
                }
                Mode::global(engine, &cfg, strategy, partition, windower, cores)?
            }
            (ShardedModeSnapshot::Halo { windower, core }, ShardStrategy::Halo) => {
                let cores = std::slice::from_ref(core);
                Mode::global(engine, &cfg, strategy, partition, windower, cores)?
            }
            _ => {
                return Err(SnapshotError::Malformed(
                    "snapshot execution mode does not match the strategy/policy mode".to_string(),
                ))
            }
        };
        Ok(ShardedSession {
            engine,
            cfg,
            partition,
            strategy,
            watermark: snapshot.watermark,
            task_ids: snapshot.task_ids.clone(),
            worker_ids: snapshot.worker_ids.clone(),
            mode: Some(mode),
            residual: Vec::new(),
        })
    }
}

/// The global drive loop shared by `advance_to` and `close`: step every
/// ready window through every stepper — projected onto its cell under
/// adaptive drop-pairs — and feed the merged signals back, so the cut
/// sequence equals the unsharded run's on shard-disjoint input bit for
/// bit.
fn drive_global(
    former: &mut WindowFormer,
    cores: &mut [HaloCore],
    partition: &GridPartition,
    strategy: ShardStrategy,
    drain: bool,
) {
    former.drive(drain, |window, cut| {
        let signals: Vec<StepSignals> = cores
            .iter_mut()
            .enumerate()
            .map(|(k, core)| match strategy {
                ShardStrategy::Halo => core.step_window(window, cut),
                ShardStrategy::DropPairs => {
                    core.step_window(&project_window(window, partition, k), cut)
                }
            })
            .collect();
        StepSignals::merge(&signals)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrivalEvent, TaskArrival, WorkerArrival};
    use crate::window::WindowPolicy;
    use dpta_core::{Method, Task, Worker};
    use dpta_spatial::{Aabb, Point};

    /// Two clusters, one per cell of a 2×1 partition, discs interior.
    fn disjoint_stream() -> ArrivalStream {
        let mut events = Vec::new();
        for (k, cx) in [2.5f64, 7.5].into_iter().enumerate() {
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k as u32,
                time: 0.0,
                worker: Worker::new(Point::new(cx, 5.0), 1.0),
            }));
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k as u32,
                time: 3.0 + k as f64,
                task: Task::new(Point::new(cx + 0.5, 5.0), 4.5),
            }));
        }
        ArrivalStream::new(events)
    }

    #[test]
    fn sharded_totals_match_unsharded_on_disjoint_input() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let stream = disjoint_stream();
        assert!(stream.is_shard_disjoint(&part));
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 5.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let sharded = run_sharded(engine.as_ref(), &stream, &cfg, &part);
            assert_eq!(sharded.matched(), flat.matched(), "{method}");
            assert!(
                (sharded.total_utility() - flat.total_utility()).abs() < 1e-9,
                "{method}: {} vs {}",
                sharded.total_utility(),
                flat.total_utility()
            );
            assert!(
                (sharded.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
                "{method}"
            );
        }
    }

    #[test]
    fn halo_matches_flat_exactly_on_disjoint_input() {
        // On shard-disjoint input no worker has a halo, so the halo
        // coordinator must reproduce the unsharded run fate for fate —
        // private engines included.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let stream = disjoint_stream();
        assert!(stream.is_shard_disjoint(&part));
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 5.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
            assert_eq!(halo.matched(), flat.matched(), "{method}");
            assert!(
                (halo.total_utility() - flat.total_utility()).abs() < 1e-9,
                "{method}"
            );
            assert!(
                (halo.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
                "{method}"
            );
            let mut halo_fates: Vec<(u32, crate::TaskFate)> = halo
                .shards
                .iter()
                .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
                .collect();
            halo_fates.sort_by_key(|&(id, _)| id);
            let flat_fates: Vec<(u32, crate::TaskFate)> =
                flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
            assert_eq!(halo_fates, flat_fates, "{method}: fates must be identical");
        }
    }

    #[test]
    fn halo_recovers_cross_boundary_pairs_dropped_by_default_sharding() {
        // Workers sit left of x = 5, their only reachable tasks right
        // of it: drop-pairs sharding matches nothing, the halo protocol
        // matches everything.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let mut events = Vec::new();
        for k in 0..3u32 {
            let y = 2.0 + 2.0 * k as f64;
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k,
                time: 0.0,
                worker: Worker::new(Point::new(4.6, y), 1.0),
            }));
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k,
                time: 1.0 + k as f64,
                task: Task::new(Point::new(5.2, y), 4.5),
            }));
        }
        let stream = ArrivalStream::new(events);
        assert!(!stream.is_shard_disjoint(&part));
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let dropped = run_sharded(engine.as_ref(), &stream, &cfg, &part);
            let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
            assert_eq!(
                dropped.matched(),
                0,
                "{method}: drop-pairs loses everything"
            );
            // Here every feasible pair crosses the boundary, so the
            // halo recovers exactly what the unsharded run matches —
            // which is everything the (noisy) engine accepts.
            assert_eq!(
                halo.matched(),
                flat.matched(),
                "{method}: the halo must recover the unsharded matching"
            );
            assert!(flat.matched() > 0, "{method}: nothing matched at all");
            assert!(
                (halo.total_utility() - flat.total_utility()).abs() < 1e-9,
                "{method}"
            );
            assert!(halo.total_utility() > dropped.total_utility(), "{method}");
            // Every shard's report still conserves its own tasks.
            for s in &halo.shards {
                s.assert_conservation();
            }
        }
    }

    #[test]
    fn halo_reconciliation_gives_contested_workers_to_their_home_shard() {
        // One worker on the boundary reachable-by both cells' tasks;
        // both shards propose him. Home-shard priority must win, the
        // loser's task must carry over (and expire under its TTL), and
        // the worker must be assigned exactly once.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let events = vec![
            ArrivalEvent::Worker(WorkerArrival {
                id: 0,
                time: 0.0,
                worker: Worker::new(Point::new(4.8, 5.0), 1.0),
            }),
            // Home-cell task (left of x = 5).
            ArrivalEvent::Task(TaskArrival {
                id: 0,
                time: 1.0,
                task: Task::new(Point::new(4.2, 5.0), 4.5),
            }),
            // Foreign-cell task (right of x = 5), same distance class.
            ArrivalEvent::Task(TaskArrival {
                id: 1,
                time: 1.0,
                task: Task::new(Point::new(5.4, 5.0), 4.5),
            }),
        ];
        let stream = ArrivalStream::new(events);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            task_ttl: 1,
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
        assert_eq!(halo.matched(), 1, "one worker serves exactly one task");
        // The home shard (0) won the contested worker.
        assert_eq!(halo.shards[0].matched(), 1);
        assert_eq!(halo.shards[1].matched(), 0);
        assert!(matches!(
            halo.shards[0].fates[&0],
            crate::TaskFate::Assigned { worker: 0, .. }
        ));
        assert!(matches!(
            halo.shards[1].fates[&1],
            crate::TaskFate::Expired { .. }
        ));
    }

    #[test]
    fn halo_resolves_mutual_loss_cycles_even_beside_clean_commits() {
        // Shards 0 and 1 each claim both boundary workers: worker 0
        // (home 1) and worker 1 (home 0) go to their home shards and
        // each shard loses one claim — a mutual-loss cycle with no
        // clean candidate. Shard 2 holds an unrelated interior pair
        // that commits cleanly with no losers in the same pass.
        // Regression: reconciliation must not treat that loser-free
        // clean pass as "window done" and abandon the cycle — both
        // boundary workers must still end up matched.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 30.0, 10.0), 3, 1);
        let mut events = vec![
            ArrivalEvent::Worker(WorkerArrival {
                id: 0,
                time: 0.0,
                worker: Worker::new(Point::new(10.5, 5.0), 3.0), // home shard 1
            }),
            ArrivalEvent::Worker(WorkerArrival {
                id: 1,
                time: 0.0,
                worker: Worker::new(Point::new(9.5, 5.0), 3.0), // home shard 0
            }),
            ArrivalEvent::Worker(WorkerArrival {
                id: 2,
                time: 0.0,
                worker: Worker::new(Point::new(25.0, 5.0), 1.0), // interior, shard 2
            }),
            ArrivalEvent::Task(TaskArrival {
                id: 4,
                time: 1.0,
                task: Task::new(Point::new(25.5, 5.0), 4.5), // shard 2
            }),
        ];
        // Two tasks per boundary shard, all reachable by both boundary
        // workers, so each shard's engine claims both workers.
        for (id, x) in [(0u32, 9.0), (1, 9.8), (2, 10.2), (3, 11.0)] {
            events.push(ArrivalEvent::Task(TaskArrival {
                id,
                time: 1.0,
                task: Task::new(Point::new(x, 5.0), 4.5),
            }));
        }
        let stream = ArrivalStream::new(events);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let dropped = run_sharded(engine.as_ref(), &stream, &cfg, &part);
        let halo = run_sharded_halo(engine.as_ref(), &stream, &cfg, &part);
        // Drop-pairs: one worker per boundary shard plus the interior
        // pair. The halo must do no worse.
        assert_eq!(dropped.matched(), 3);
        assert_eq!(
            halo.matched(),
            3,
            "the mutual-loss cycle was abandoned mid-reconciliation"
        );
        assert!(halo.total_utility() + 1e-9 >= dropped.total_utility());
        // Every worker served exactly one task.
        let mut served: Vec<u32> = halo
            .shards
            .iter()
            .flat_map(|s| s.fates.values())
            .filter_map(|f| match f {
                crate::TaskFate::Assigned { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        served.sort_unstable();
        assert_eq!(served, vec![0, 1, 2]);
    }

    #[test]
    fn sharded_outcome_logs_match_the_flat_session_on_disjoint_input() {
        // Every sharded mode polls the flat session's outcomes, in
        // another order: sorted, the logs are equal.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let stream = disjoint_stream();
        assert!(stream.is_shard_disjoint(&part));
        let adaptive = WindowPolicy::Adaptive(crate::AdaptivePolicy {
            base_width: 5.0,
            min_width: 1.0,
            max_width: 20.0,
            burst_tasks: 2,
            target_p95: 4.0,
        });
        let sorted = |mut log: Vec<Outcome>| {
            let mut keyed: Vec<String> = log.drain(..).map(|o| format!("{o:?}")).collect();
            keyed.sort();
            keyed
        };
        for (method, policy) in [Method::Puce, Method::Grd]
            .into_iter()
            .flat_map(|m| [(m, WindowPolicy::ByTime { width: 5.0 }), (m, adaptive)])
        {
            let cfg = StreamConfig {
                policy,
                service: crate::ServiceModel::Fixed { secs: 2.0 },
                ..StreamConfig::default()
            };
            let engine = method.engine(&cfg.params);
            let mut flat = StreamSession::new(engine.as_ref(), cfg.clone());
            let mut polled = Vec::new();
            for &e in stream.events() {
                flat.advance_to(e.time());
                flat.push(e);
                polled.extend(flat.poll_outcomes());
            }
            flat.close();
            polled.extend(flat.poll_outcomes());
            assert!(polled.len() >= 4, "{method}: {polled:?}");
            let want = sorted(polled);
            for strategy in [ShardStrategy::Halo, ShardStrategy::DropPairs] {
                let mut sharded =
                    ShardedSession::new(engine.as_ref(), cfg.clone(), &part, strategy);
                let mut polled = Vec::new();
                for &e in stream.events() {
                    sharded.advance_to(e.time());
                    sharded.push(e);
                    polled.extend(sharded.poll_outcomes());
                }
                sharded.close();
                polled.extend(sharded.poll_outcomes());
                assert_eq!(sorted(polled), want, "{method} {strategy:?} {policy:?}");
            }
        }
    }

    #[test]
    fn empty_cells_produce_empty_reports() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 3, 3);
        let stream = disjoint_stream();
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 5.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let sharded = run_sharded(engine.as_ref(), &stream, &cfg, &part);
        assert_eq!(sharded.shards.len(), 9);
        let populated = sharded
            .shards
            .iter()
            .filter(|s| s.task_arrivals > 0)
            .count();
        assert_eq!(populated, 2);
    }
}
