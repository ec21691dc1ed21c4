//! Sharded execution: one engine run per spatial grid cell.
//!
//! Task assignment is spatially local — a worker only ever interacts
//! with tasks inside his service disc — so a stream whose workers'
//! discs never cross cell boundaries decomposes *exactly*: one global
//! window former cuts the unsharded run's windows, each cell steps its
//! share of every window, and the merged result is, pair for pair, the
//! run the single-threaded driver would have produced. When no
//! adaptive controller waits on the cells' merged feedback, the cells
//! step their shares in parallel, at a wall-clock cost of the slowest
//! cell instead of the sum.
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

use crate::driver::StreamConfig;
use crate::event::{ArrivalEvent, ArrivalStream};
use crate::halo::{fan_out, one_cell, HaloCore};
use crate::lifecycle::StepSignals;
use crate::metrics::{ShardedReport, WindowCutDecision};
use crate::session::Outcome;
use crate::snapshot::{ShardedSnapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::window::{Window, WindowFormer};
use dpta_core::AssignmentEngine;
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How sharded execution treats feasible pairs that cross cell
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Route every entity to the cell owning its location and step the
    /// cells independently: cross-boundary pairs are silently dropped.
    /// Exact only on
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
/// [`DropPairs`](ShardStrategy::DropPairs) strategy: one stepper per
/// cell, sharing the one `engine`, drives the cell's share of every
/// window. Cross-boundary pairs are never formed — use
/// [`run_sharded_halo`] (or [`run_sharded_with`]) when the workload is
/// not shard-disjoint; the halo protocol and its guarantees are
/// documented in `ARCHITECTURE.md` ("Sharding & the halo protocol").
///
/// Every shard steps the same window sequence — the unsharded run's,
/// cut once over the whole stream — so with a
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
    // A built stream already holds what `push` checks (stream order,
    // valid times, ids unique per kind), and the session closes before
    // any later push could repeat an id, so the former takes it whole.
    session.former.load(stream);
    session.close()
}

/// The push-based counterpart of [`run_sharded_with`]: one durable
/// session over a spatial partition, fed events one at a time.
///
/// `push(event)` buffers the event in the session's one window former,
/// `advance_to(t)` declares the global event-time watermark and drives
/// every window that closes before it, `poll_outcomes()` drains the
/// typed [`Outcome`] log of every shard, and `close()` settles the
/// per-shard [`ShardedReport`]. [`run_sharded_with`] drains a built
/// stream through this session. Like
/// [`StreamSession`](crate::StreamSession), a mid-run session can be
/// captured with [`snapshot`](Self::snapshot) and reopened with
/// [`restore`](Self::restore).
///
/// Every window goes through the window stepper: one stepper over the
/// whole partition under [`ShardStrategy::Halo`], one one-cell stepper
/// per shard under drop-pairs, each fed its cell's share of the window.
/// Drop-pairs cells are independent, so under a static policy they step
/// every window a call makes ready in parallel; under an adaptive
/// policy they step window by window, since the controller reads their
/// merged feedback before the next cut.
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
    task_ids: BTreeSet<u32>,
    worker_ids: BTreeSet<u32>,
    former: WindowFormer,
    /// The window steppers (see [`core_partitions`]); `None` once
    /// closed.
    cores: Option<Vec<HaloCore<'e>>>,
    /// Outcomes the close emitted, pollable after it, in the steppers'
    /// per-window chunks.
    residual: Vec<Vec<Outcome>>,
}

/// The partitions of a sharded session's steppers: the whole partition
/// under the halo protocol, one cell per shard under drop-pairs, whose
/// stepper `k` steps the windows' share of cell `k` ([`split_window`]).
fn core_partitions(strategy: ShardStrategy, partition: &GridPartition) -> Vec<GridPartition> {
    match strategy {
        ShardStrategy::Halo => vec![*partition],
        ShardStrategy::DropPairs => vec![one_cell(); partition.n_shards()],
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
        let cores = core_partitions(strategy, partition)
            .into_iter()
            .map(|part| HaloCore::new(engine, cfg.clone(), part))
            .collect();
        ShardedSession {
            engine,
            former: WindowFormer::new(cfg.policy, cfg.horizon),
            cfg,
            partition,
            strategy,
            task_ids: BTreeSet::new(),
            worker_ids: BTreeSet::new(),
            cores: Some(cores),
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
    /// location. Panics under the same invariants as
    /// [`StreamSession::push`](crate::StreamSession::push) — ids are
    /// unique per entity kind *globally*, across shards.
    pub fn push(&mut self, event: ArrivalEvent) {
        assert!(self.cores.is_some(), "push on a closed session");
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

    /// Advances the global watermark to `t` (monotone; lower values are
    /// no-ops) and drives every window that closes before it, in every
    /// shard.
    pub fn advance_to(&mut self, t: f64) {
        let cores = self.cores.as_mut().expect("advance_to on a closed session");
        assert!(
            t.is_finite() && t >= 0.0,
            "watermark must be finite, got {t}"
        );
        if t <= self.former.watermark {
            return;
        }
        self.former.advance(t);
        drive(&mut self.former, cores, self.partition, false);
    }

    /// Drains the typed outcome log accumulated since the last poll,
    /// stepper by stepper.
    pub fn poll_outcomes(&mut self) -> Vec<Outcome> {
        match self.cores.as_mut() {
            None => std::mem::take(&mut self.residual).concat(),
            Some(cores) => cores.iter_mut().flat_map(|c| c.drain_outcomes()).collect(),
        }
    }

    /// Drives every remaining window in every shard (trailing empties
    /// included) and settles the per-shard reports. Outcomes emitted
    /// while closing stay pollable. Panics if called twice.
    pub fn close(&mut self) -> ShardedReport {
        let mut cores = self.cores.take().expect("close on a closed session");
        drive(&mut self.former, &mut cores, self.partition, true);
        // Settling builds each stepper's id-ordered report maps, and the
        // steppers are independent: they settle on the fan-out pool.
        let settled = fan_out(cores, |mut core| (core.take_outcomes(), core.finish()));
        let mut shards = Vec::with_capacity(self.partition.n_shards());
        for (outcomes, report) in settled {
            self.residual.extend(outcomes);
            shards.extend(report.shards);
        }
        ShardedReport { shards }
    }

    /// Captures the sharded session's full state — the window former
    /// and every stepper — as a versioned [`ShardedSnapshot`]. Panics
    /// on a closed session.
    ///
    /// Unlike a [`StreamSession`](crate::StreamSession) snapshot, it
    /// leaves the unpolled outcome log out, so that a session nobody
    /// polls does not write its whole history into every snapshot: poll
    /// before taking one. A restored session's log starts empty.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let cores = self.cores.as_ref().expect("snapshot on a closed session");
        let unlogged = |core: &HaloCore| {
            let mut snap = core.snapshot();
            snap.outcomes.clear();
            snap
        };
        ShardedSnapshot {
            version: SNAPSHOT_VERSION,
            engine: self.engine.name().to_string(),
            config: self.cfg.clone(),
            strategy: self.strategy,
            n_shards: self.partition.n_shards(),
            task_ids: self.task_ids.clone(),
            worker_ids: self.worker_ids.clone(),
            windower: self.former.snapshot(),
            cores: cores.iter().map(unlogged).collect(),
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
        let parts = core_partitions(strategy, partition);
        if snapshot.cores.len() != parts.len() {
            return Err(SnapshotError::Malformed(format!(
                "sharded snapshot holds {} steppers, its strategy runs {}",
                snapshot.cores.len(),
                parts.len()
            )));
        }
        let cores = parts.into_iter().zip(&snapshot.cores);
        let cores = cores
            .map(|(part, c)| HaloCore::from_snapshot(engine, cfg.clone(), part, c))
            .collect::<Result<_, _>>()?;
        Ok(ShardedSession {
            engine,
            former: WindowFormer::from_snapshot(cfg.policy, cfg.horizon, &snapshot.windower)?,
            cfg,
            partition,
            strategy,
            task_ids: snapshot.task_ids.clone(),
            worker_ids: snapshot.worker_ids.clone(),
            cores: Some(cores),
            residual: Vec::new(),
        })
    }
}

/// The drive loop shared by `advance_to` and `close`: steps every
/// ready window through every stepper, so the cut sequence equals the
/// unsharded run's on shard-disjoint input bit for bit.
///
/// One stepper (the halo protocol, or a one-cell partition) steps each
/// window whole. Drop-pairs steppers step their cell's share of it:
/// window by window under an adaptive policy, whose controller reads
/// their merged feedback before the next cut; otherwise the former cuts
/// every ready window first and the steppers, independent of each
/// other, go through their shares on one bounded pool, heaviest share
/// first.
fn drive(
    former: &mut WindowFormer,
    cores: &mut [HaloCore],
    partition: &GridPartition,
    drain: bool,
) {
    if let [core] = cores {
        former.drive(drain, |window, cut| {
            StepSignals::merge(&[core.step_window(window, cut)])
        });
    } else if former.adaptive() {
        former.drive(drain, |window, cut| {
            let shares = split_window(window, partition);
            let signals: Vec<StepSignals> = cores
                .iter_mut()
                .zip(shares)
                .map(|(core, share)| core.step_window(&share, cut))
                .collect();
            StepSignals::merge(&signals)
        });
    } else {
        let mut shares: Vec<Vec<(Window, WindowCutDecision)>> =
            cores.iter().map(|_| Vec::new()).collect();
        while let Some(window) = former.next_ready(drain) {
            let cut = former.last_decision;
            for (k, share) in split_window(&window, partition).into_iter().enumerate() {
                shares[k].push((share, cut));
            }
        }
        let weight = |share: &[(Window, WindowCutDecision)]| {
            share
                .iter()
                .map(|(w, _)| w.tasks.len() + w.workers.len())
                .sum::<usize>()
        };
        // A call that makes no window ready starts no thread.
        let mut jobs: Vec<_> = cores.iter_mut().zip(shares).collect();
        jobs.retain(|(_, share)| !share.is_empty());
        jobs.sort_by_key(|(_, share)| std::cmp::Reverse(weight(share)));
        fan_out(jobs, |(core, share)| {
            for (window, cut) in &share {
                core.step_window(window, *cut);
            }
        });
    }
}

/// Every cell's share of a globally cut window, in one pass: the same
/// span, holding only the tasks and workers whose locations the cell
/// owns, in their window order.
fn split_window(window: &Window, partition: &GridPartition) -> Vec<Window> {
    let mut shares: Vec<Window> = (0..partition.n_shards())
        .map(|_| Window {
            index: window.index,
            start: window.start,
            end: window.end,
            tasks: Vec::new(),
            workers: Vec::new(),
        })
        .collect();
    for t in &window.tasks {
        shares[partition.shard_of(&t.task.location)].tasks.push(*t);
    }
    for w in &window.workers {
        shares[partition.shard_of(&w.worker.location)]
            .workers
            .push(*w);
    }
    shares
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
