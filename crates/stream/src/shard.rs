//! Sharded execution: one engine run per spatial grid cell.
//!
//! Task assignment is spatially local — a worker only ever interacts
//! with tasks inside his service disc — so a stream whose workers'
//! discs never cross cell boundaries decomposes *exactly*: one window
//! former cuts the unsharded run's windows, one window stepper drives
//! each cell's share of every window on the calling thread, and the
//! result is, pair for pair, the run the flat session would have
//! produced.
//!
//! When discs do cross boundaries, the [`ShardStrategy`] decides what
//! happens: [`DropPairs`](ShardStrategy::DropPairs) lists every worker
//! in its home cell only and never considers cross-cell pairs (exact
//! only on shard-disjoint input), while [`Halo`](ShardStrategy::Halo)
//! extends each shard with the foreign workers whose service discs
//! reach into its cell and reconciles the shards' competing claims
//! deterministically — near-exact on general input, bit-for-bit equal
//! to the unsharded run on disjoint input. The protocol is documented
//! in `ARCHITECTURE.md` ("Sharding & the halo protocol").

use crate::driver::StreamConfig;
use crate::event::{ArrivalEvent, ArrivalStream};
use crate::halo::HaloCore;
use crate::metrics::ShardedReport;
use crate::session::Outcome;
use crate::snapshot::{ShardedSnapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::window::WindowFormer;
use dpta_core::AssignmentEngine;
use dpta_dp::FastSet;
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};

/// How sharded execution treats feasible pairs that cross cell
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Route every entity to the cell owning its location: a worker is
    /// matched only to tasks of its home cell, so cross-boundary pairs
    /// are silently dropped. Admission control, budgets and the
    /// adaptive controller still count the whole session. Exact only on
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
/// [`DropPairs`](ShardStrategy::DropPairs) strategy: every window, the
/// one `engine` drives each cell's tasks against the workers homed in
/// that cell. Cross-boundary pairs are never formed — use
/// [`run_sharded_halo`] (or [`run_sharded_with`]) when the workload is
/// not shard-disjoint; the halo protocol and its guarantees are
/// documented in `ARCHITECTURE.md` ("Sharding & the halo protocol").
///
/// Every shard steps the same window sequence — the unsharded run's,
/// cut once over the whole stream — and admission control counts the
/// whole pool, so with a
/// [shard-disjoint](ArrivalStream::is_shard_disjoint) stream the
/// merged totals equal the unsharded run's exactly under every window
/// policy, asserted by the crate's equivalence tests.
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
/// [`ShardStrategy`]: the stream's events into a [`ShardedSession`],
/// then `close`. [`run_sharded`] and [`run_sharded_halo`] are the two
/// named conveniences.
pub fn run_sharded_with(
    engine: &dyn AssignmentEngine,
    stream: &ArrivalStream,
    cfg: &StreamConfig,
    partition: &GridPartition,
    strategy: ShardStrategy,
) -> ShardedReport {
    let mut session = ShardedSession::new(engine, cfg.clone(), partition, strategy);
    session.load(stream);
    session.close()
}

/// The push-based counterpart of [`run_sharded_with`]: one durable
/// session over a spatial partition, fed events one at a time. It is
/// the only session type: a flat
/// [`StreamSession`](crate::StreamSession) is this session over one
/// cell.
///
/// `push(event)` buffers the event in the session's one window former,
/// `advance_to(t)` declares the global event-time watermark and drives
/// every window that closes before it, `poll_outcomes()` drains the
/// typed [`Outcome`] log, window by window, and `close()` settles the
/// per-shard [`ShardedReport`]. [`run_sharded_with`] drains a built
/// stream through this session. A mid-run session can be captured with
/// [`snapshot`](Self::snapshot) and reopened with
/// [`restore`](Self::restore).
///
/// Every session is one window former plus one window stepper over its
/// partition, stepped on the calling thread. The strategy picks the
/// stepper's worker membership: every cell a worker's disc reaches
/// under [`ShardStrategy::Halo`], its home cell only under drop-pairs,
/// where no two shards ever claim one worker and every window settles
/// in one pass.
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
    /// Arrival ids seen so far, per entity kind: the uniqueness check
    /// is one hash probe however many entities the stream has carried.
    task_ids: FastSet<u32>,
    worker_ids: FastSet<u32>,
    former: WindowFormer,
    /// The window stepper; `None` once closed.
    core: Option<HaloCore<'e>>,
    /// Outcomes the close emitted, pollable after it, in the stepper's
    /// per-window chunks.
    residual: Vec<Vec<Outcome>>,
}

impl<'e, 'p> ShardedSession<'e, 'p> {
    /// Opens a sharded session for `engine` under `cfg`, partitioned by
    /// `partition` under `strategy`. Panics with the [`ConfigError`] of
    /// any configuration [`StreamConfig::validate`] rejects.
    ///
    /// [`ConfigError`]: crate::ConfigError
    pub fn new(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &'p GridPartition,
        strategy: ShardStrategy,
    ) -> Self {
        cfg.assert_runnable();
        let core = HaloCore::new(engine, cfg.clone(), *partition, strategy);
        ShardedSession {
            engine,
            former: WindowFormer::new(cfg.policy),
            cfg,
            partition,
            strategy,
            task_ids: FastSet::default(),
            worker_ids: FastSet::default(),
            core: Some(core),
            residual: Vec::new(),
        }
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The current global event-time watermark.
    pub fn now(&self) -> f64 {
        self.former.watermark
    }

    /// Feeds one arrival event; its shard is the cell owning its
    /// location. Panics on a non-finite or negative timestamp, a
    /// timestamp below the watermark (its window may already be
    /// closed), a duplicate id within an entity kind — ids are unique
    /// *globally*, across shards — or a closed session: the same
    /// invariants [`ArrivalStream::new`] enforces, checked
    /// incrementally.
    pub fn push(&mut self, event: ArrivalEvent) {
        assert!(self.core.is_some(), "push on a closed session");
        let t = event.time();
        assert!(
            t.is_finite() && t >= 0.0,
            "arrival time must be finite and >= 0, got {t}"
        );
        assert!(
            t >= self.former.watermark,
            "late arrival: event at t = {t} is below the watermark {} \
             (its window may already be driven)",
            self.former.watermark
        );
        let fresh = match &event {
            ArrivalEvent::Task(a) => self.task_ids.insert(a.id),
            ArrivalEvent::Worker(a) => self.worker_ids.insert(a.id),
        };
        assert!(fresh, "arrival ids must be unique per entity kind");
        self.former.push(event);
    }

    /// Hands a built stream to a session nothing has been pushed to. A
    /// built stream already holds what `push` checks (stream order,
    /// valid times, ids unique per kind), and the drain loops that call
    /// this close the session before a later push could repeat an id,
    /// so the former takes it whole and the id sets stay empty.
    pub(crate) fn load(&mut self, stream: &ArrivalStream) {
        self.former.load(stream);
    }

    /// Advances the global watermark to `t` (monotone; lower values are
    /// no-ops) and drives every window that closes before it, in every
    /// shard.
    pub fn advance_to(&mut self, t: f64) {
        let core = self.core.as_mut().expect("advance_to on a closed session");
        assert!(
            t.is_finite() && t >= 0.0,
            "watermark must be finite, got {t}"
        );
        if t <= self.former.watermark {
            return;
        }
        self.former.advance(t);
        self.former
            .drive(false, |window, cut| core.step_window(window, cut));
    }

    /// Drains the typed outcome log accumulated since the last poll, in
    /// window order.
    pub fn poll_outcomes(&mut self) -> Vec<Outcome> {
        match self.core.as_mut() {
            None => std::mem::take(&mut self.residual).concat(),
            Some(core) => core.drain_outcomes().collect(),
        }
    }

    /// Drives every remaining window in every shard (trailing empties
    /// included) and settles the per-shard reports. Outcomes emitted
    /// while closing stay pollable. Panics if called twice.
    pub fn close(&mut self) -> ShardedReport {
        let mut core = self.core.take().expect("close on a closed session");
        self.former
            .drive(true, |window, cut| core.step_window(window, cut));
        self.residual = core.take_outcomes();
        core.finish()
    }

    /// Captures the sharded session's full state — the window former,
    /// the stepper and the seen ids — as a versioned
    /// [`ShardedSnapshot`]. Panics on a closed session.
    ///
    /// Unlike a [`StreamSession`](crate::StreamSession) snapshot, it
    /// leaves the unpolled outcome log out, so that a session nobody
    /// polls does not write its whole history into every snapshot: poll
    /// before taking one. A restored session's log starts empty.
    pub fn snapshot(&self) -> ShardedSnapshot {
        self.snapshot_with(false)
    }

    /// [`snapshot`](Self::snapshot), with the stepper's unpolled
    /// outcome log inside when `log` is set.
    pub(crate) fn snapshot_with(&self, log: bool) -> ShardedSnapshot {
        let core = self.core.as_ref().expect("snapshot on a closed session");
        let ascending = |ids: &FastSet<u32>| {
            let mut ids: Vec<u32> = ids.iter().copied().collect();
            ids.sort_unstable();
            ids
        };
        ShardedSnapshot {
            version: SNAPSHOT_VERSION,
            engine: self.engine.name().to_string(),
            config: self.cfg.clone(),
            strategy: self.strategy,
            n_shards: self.partition.n_shards(),
            windower: self.former.snapshot(),
            core: core.snapshot(log),
            task_ids: ascending(&self.task_ids),
            worker_ids: ascending(&self.worker_ids),
        }
    }

    /// Reopens a sharded session from a snapshot taken by
    /// [`ShardedSession::snapshot`]. Engine, configuration, strategy
    /// and partition shard count must all match what the snapshot was
    /// taken under: a different snapshot format version is rejected as
    /// [`SnapshotError::VersionMismatch`], and any differing engine,
    /// configuration field (policy, capacity, service model, ...),
    /// strategy or shard count as [`SnapshotError::ConfigMismatch`]
    /// naming the first one (`"engine"`, the field's name,
    /// `"strategy"`, `"partition"`). Everything derivable is
    /// reconstructed: budget generators from the seed, and each
    /// window's instances from the restored pool/pending order. Panics,
    /// as [`new`](Self::new) does, on a configuration
    /// [`StreamConfig::validate`] rejects.
    pub fn restore(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &'p GridPartition,
        strategy: ShardStrategy,
        snapshot: &ShardedSnapshot,
    ) -> Result<Self, SnapshotError> {
        cfg.assert_runnable();
        snapshot.validate(engine.name(), &cfg, partition.n_shards(), strategy)?;
        let core =
            HaloCore::from_snapshot(engine, cfg.clone(), *partition, strategy, &snapshot.core)?;
        Ok(ShardedSession {
            engine,
            former: WindowFormer::from_snapshot(cfg.policy, &snapshot.windower)?,
            cfg,
            partition,
            strategy,
            task_ids: snapshot.task_ids.iter().copied().collect(),
            worker_ids: snapshot.worker_ids.iter().copied().collect(),
            core: Some(core),
            residual: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::StreamDriver;
    use crate::event::{ArrivalEvent, TaskArrival, WorkerArrival};
    use crate::session::StreamSession;
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
