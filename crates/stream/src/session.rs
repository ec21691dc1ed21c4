//! The push-based session API — the primary interface of the online
//! pipeline — plus worker re-entry.
//!
//! [`StreamDriver::run`](crate::StreamDriver::run) is batch-shaped: it
//! consumes a pre-built [`ArrivalStream`](crate::ArrivalStream) and
//! drains it to completion. A production dispatch loop is not like
//! that — events arrive one at a time, time advances, and the caller
//! wants to *see* what the pipeline decided. [`StreamSession`] is that
//! interface:
//!
//! * [`push`](StreamSession::push) — feed one arrival event;
//! * [`advance_to`](StreamSession::advance_to) — declare the event-time
//!   watermark; every window that closes before it is formed and
//!   driven;
//! * [`poll_outcomes`](StreamSession::poll_outcomes) — drain the typed
//!   [`Outcome`] log (assignments, expiries, retirements, service
//!   departures, **worker returns**);
//! * [`close`](StreamSession::close) — drive the remaining windows and
//!   settle the aggregate [`StreamReport`](crate::StreamReport).
//!
//! `StreamSession` is a [`ShardedSession`] over one cell: it holds no
//! state of its own and only delegates, except that its snapshots
//! carry the unpolled outcome log. `StreamDriver::run` and the sharded
//! runners hand a built stream to the one session and close it. Every
//! session cuts its windows with one window former and steps them
//! through the one window stepper (`HaloCore`), so every driving mode
//! shares one set of window/budget/fate semantics.
//!
//! # Worker re-entry
//!
//! A [`ServiceModel`] gives matched workers a *service duration*:
//! instead of departing for good (`ServiceModel::Never`, the
//! serve-and-leave default), a matched worker is held in an in-service
//! set and re-enters the pool at his completion time — with the same
//! logical id, so lifetime budgets ([`Ledger`](dpta_dp::Ledger)), hard
//! caps and replay determinism all carry across service cycles.
//! Durations are pure functions of the match (pickup distance, task
//! value), never wall-clock time, so re-entry preserves bit-for-bit
//! replay and the flat/drop-pairs/halo equivalence gates.

use crate::driver::StreamConfig;
use crate::event::ArrivalEvent;
use crate::halo::one_cell;
use crate::metrics::StreamReport;
use crate::shard::{ShardStrategy, ShardedSession};
use crate::snapshot::{SessionSnapshot, SnapshotError};
use dpta_core::{AssignmentEngine, Board};
use dpta_dp::FastMap;
use dpta_spatial::GridPartition;
use dpta_workloads::ValueModel;
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// How long a matched worker is held in service before re-entering the
/// pool.
///
/// Durations are deterministic functions of the match — pickup distance
/// and task value — never wall-clock time, so enabling re-entry keeps
/// every replay and sharding gate bit-for-bit. `Never` reproduces the
/// pre-session serve-and-leave pipeline exactly.
///
/// # Examples
///
/// ```
/// use dpta_stream::ServiceModel;
/// use dpta_workloads::ValueModel;
///
/// assert_eq!(ServiceModel::Never.duration(2.0, 4.5), None);
/// assert_eq!(ServiceModel::Fixed { secs: 300.0 }.duration(2.0, 4.5), Some(300.0));
/// // Trip-length service: pickup leg + the trip the task value encodes
/// // (value = base + per_km · trip ⇒ trip = 5 km here), at 90 s/km.
/// let model = ServiceModel::PerTripKm {
///     value_model: ValueModel::PerTripKm { base: 2.0, per_km: 0.8 },
///     secs_per_km: 90.0,
/// };
/// assert_eq!(model.duration(1.0, 6.0), Some(90.0 * 6.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ServiceModel {
    /// Serve-and-leave: a matched worker departs for good. This is the
    /// pre-re-entry pipeline, bit for bit.
    #[default]
    Never,
    /// Every service takes the same fixed duration (seconds).
    Fixed {
        /// Service duration in seconds (positive, finite).
        secs: f64,
    },
    /// Travel-time service: `secs_per_km × (pickup distance + trip
    /// length)`, where the trip length is decoded from the task's value
    /// via [`ValueModel::trip_km`] — the Chengdu simulator's trips ride
    /// along on `ValueModel::PerTripKm` pricing, and constant-value
    /// tasks contribute only the pickup leg.
    PerTripKm {
        /// The pricing model the task values were generated under.
        value_model: ValueModel,
        /// Travel seconds per kilometre (positive, finite).
        secs_per_km: f64,
    },
    /// Fixed mean duration with deterministic multiplicative jitter: a
    /// match's service time is `secs · m` where the multiplier
    /// `m ∈ [1 − frac, 1 + frac]` is hashed from the run seed and the
    /// matched pair's *logical* ids. Same seed, same pair → same draw,
    /// in every window, shard and replay — stochastic-looking service
    /// times that keep the bit-for-bit gates intact (pinned by the
    /// replay-determinism test).
    Jittered {
        /// Mean service duration in seconds (positive, finite).
        secs: f64,
        /// Jitter half-width as a fraction of `secs`, in `[0, 1)`.
        /// Zero degenerates to [`ServiceModel::Fixed`].
        frac: f64,
    },
}

impl ServiceModel {
    /// The service duration of one match, or `None` when matched
    /// workers depart for good. `pickup_km` is the worker→task
    /// distance, `task_value` the matched task's value.
    pub fn duration(&self, pickup_km: f64, task_value: f64) -> Option<f64> {
        match *self {
            ServiceModel::Never => None,
            ServiceModel::Fixed { secs } => Some(secs),
            ServiceModel::PerTripKm {
                value_model,
                secs_per_km,
            } => Some(secs_per_km * (pickup_km + value_model.trip_km(task_value))),
            // The unkeyed view reports the mean; the pipeline draws via
            // `duration_keyed`.
            ServiceModel::Jittered { secs, .. } => Some(secs),
        }
    }

    /// The service duration of one *specific* match, keyed by the
    /// pair's logical ids and the run seed — the call the window
    /// stepper makes. Deterministic: the same (seed, worker, task)
    /// always draws the same duration, so replays and sharded runs
    /// agree bit for bit. Non-jittered variants ignore the key and
    /// defer to [`duration`](ServiceModel::duration).
    pub fn duration_keyed(
        &self,
        pickup_km: f64,
        task_value: f64,
        worker: u32,
        task: u32,
        seed: u64,
    ) -> Option<f64> {
        match *self {
            ServiceModel::Jittered { secs, frac } => {
                if frac == 0.0 {
                    return Some(secs);
                }
                let unit = jitter_unit(seed, worker, task);
                Some(secs * (1.0 + frac * (2.0 * unit - 1.0)))
            }
            _ => self.duration(pickup_km, task_value),
        }
    }

    /// Why the model is degenerate, if it is: a non-positive or
    /// non-finite duration or rate, or a jitter fraction outside
    /// `[0, 1)`.
    pub(crate) fn check(&self) -> Result<(), String> {
        match *self {
            ServiceModel::Fixed { secs } | ServiceModel::Jittered { secs, .. }
                if !(secs > 0.0 && secs.is_finite()) =>
            {
                Err(format!(
                    "service duration must be positive and finite, got {secs}"
                ))
            }
            ServiceModel::PerTripKm { secs_per_km, .. }
                if !(secs_per_km > 0.0 && secs_per_km.is_finite()) =>
            {
                Err(format!(
                    "secs_per_km must be positive and finite, got {secs_per_km}"
                ))
            }
            ServiceModel::Jittered { frac, .. } if !(0.0..1.0).contains(&frac) => {
                Err(format!("jitter fraction must lie in [0, 1), got {frac}"))
            }
            _ => Ok(()),
        }
    }
}

/// A uniform draw in `[0, 1)` hashed from `(seed, worker, task)` — the
/// service-jitter analog of the budget/noise derivations: a pure
/// function of logical ids, never of window indices or wall clocks.
fn jitter_unit(seed: u64, worker: u32, task: u32) -> f64 {
    // splitmix64 finalizer over the salted key; the salt keeps the
    // stream independent of the budget and noise derivations that hash
    // the same ids.
    const SALT: u64 = 0x9e2a_57f3_11c8_46d1;
    let mut x = seed ^ SALT ^ ((worker as u64) << 32) ^ (task as u64).rotate_left(17);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One typed event of the session's outcome log, drained via
/// [`StreamSession::poll_outcomes`]. Everything the per-window reports
/// aggregate is emitted here first, as it happens.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// A task was matched to a worker.
    Assigned {
        /// Logical task id.
        task: u32,
        /// Logical worker id.
        worker: u32,
        /// Window in which the match happened.
        window: usize,
        /// Seconds from task arrival to the matching window's close.
        latency: f64,
    },
    /// A task was dropped unserved (time-to-live exhausted).
    Expired {
        /// Logical task id.
        task: u32,
        /// Window after which the task was dropped.
        window: usize,
    },
    /// A worker's lifetime privacy budget ran out; he left the system.
    Retired {
        /// Logical worker id.
        worker: u32,
        /// Window at whose close the retirement fired.
        window: usize,
    },
    /// A matched worker left the pool to serve.
    EnteredService {
        /// Logical worker id.
        worker: u32,
        /// Window in which the match happened.
        window: usize,
        /// When the worker re-enters the pool, or `None` under
        /// [`ServiceModel::Never`] (departs for good).
        returns_at: Option<f64>,
    },
    /// A worker completed a service cycle and re-entered the pool.
    Returned {
        /// Logical worker id.
        worker: u32,
        /// Window that re-admitted the worker.
        window: usize,
        /// Completion time (seconds) at which the worker came free.
        at: f64,
        /// Completed service cycles so far (1 on the first return).
        cycle: usize,
    },
    /// Admission control held a task out of the window: the pool's
    /// aggregate remaining budget could not have served the backlog, so
    /// the task waits (burning no time-to-live) and is admitted into a
    /// later window once budget frees up. Emitted once, at the first
    /// deferral; re-deferrals of an already-waiting task are silent.
    Deferred {
        /// Logical task id.
        task: u32,
        /// Window that declined the admission.
        window: usize,
    },
}

/// The protocol state carried between windows for warm-start engines:
/// a drive's board and the id lists (pending and pool order) of the
/// tasks and workers it was driven over.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CarriedBoard {
    pub(crate) board: Board,
    pub(crate) task_ids: Vec<u32>,
    pub(crate) worker_ids: Vec<u32>,
}

impl CarriedBoard {
    /// Transplants the carried board onto a drive over `task_ids` ×
    /// `worker_ids` with [`Board::carry`]. Both lists must be
    /// subsequences of the lifecycle's order, as the carried lists are
    /// (see [`carry_map`]).
    pub(crate) fn carry(&self, task_ids: &[u32], worker_ids: &[u32]) -> Board {
        let task_to_new = carry_map(&self.task_ids, task_ids);
        let worker_to_new = carry_map(&self.worker_ids, worker_ids);
        self.board.carry(
            task_ids.len(),
            worker_ids.len(),
            |t_old| task_to_new[t_old].map(|t| t as usize),
            |j_old| worker_to_new[j_old].map(|j| j as usize),
        )
    }
}

/// Maps a carried board's old indices to this window's, for
/// [`Board::carry`]: `old` and `new` are the id lists (pool or pending
/// order) of the carried and the current drive.
///
/// Both lists are subsequences of the lifecycle's order at their
/// window. Settling only removes entries and admission only appends,
/// and a drive lists only the entities its instance holds: a worker
/// that reaches no pending task is left out, as is anything outside a
/// halo shard. So the survivors of `old` keep their relative order in
/// `new`, but ids `old` lacks can sit among them: a worker idle last
/// window between two carried ones, and everything pooled, admitted or
/// back from service since at the tail. One two-pointer walk maps each
/// survivor it meets in step. An id it misses either left for good or
/// sits past the walk's position — every earlier position of `new`
/// already holds a matched id — so a lookup over the rest of `new`
/// resolves it. Old lists with ids that are idle now, such as a
/// snapshot written before idle workers were dropped, map those ids to
/// nothing.
fn carry_map(old: &[u32], new: &[u32]) -> Vec<Option<u32>> {
    let mut map = vec![None; old.len()];
    let mut missed = Vec::new();
    let mut next = 0usize;
    for (k, &id) in old.iter().enumerate() {
        if new.get(next) == Some(&id) {
            map[k] = Some(next as u32);
            next += 1;
        } else {
            missed.push(k);
        }
    }
    if !missed.is_empty() && next < new.len() {
        let tail: FastMap<u32, u32> = (next..new.len()).map(|at| (new[at], at as u32)).collect();
        for k in missed {
            map[k] = tail.get(&old[k]).copied();
        }
    }
    map
}

/// The push-based streaming interface: feed arrival events, advance
/// the event-time watermark, poll typed [`Outcome`]s, close for the
/// aggregate report. It is a [`ShardedSession`] over one cell, under
/// drop-pairs. [`StreamDriver::run`](crate::StreamDriver::run) hands
/// it a pre-built stream whole and closes it.
///
/// # Watermark contract
///
/// [`advance_to(t)`](StreamSession::advance_to) declares that every
/// event strictly before `t` has been pushed; pushing an event whose
/// timestamp lies below the watermark afterwards panics (the window it
/// belonged to may already be driven). This is the standard
/// out-of-orderness bound of streaming systems: events may be pushed
/// in any order ahead of the watermark, and the session sorts them
/// into windows exactly as [`ArrivalStream`](crate::ArrivalStream)
/// construction would.
///
/// # Examples
///
/// ```
/// use dpta_core::{Method, Task, Worker};
/// use dpta_spatial::Point;
/// use dpta_stream::{
///     ArrivalEvent, Outcome, StreamConfig, StreamSession, TaskArrival, WindowPolicy,
///     WorkerArrival,
/// };
///
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 60.0 },
///     ..StreamConfig::default()
/// };
/// let engine = Method::Grd.engine(&cfg.params);
/// let mut session = StreamSession::new(engine.as_ref(), cfg);
/// session.push(ArrivalEvent::Worker(WorkerArrival {
///     id: 0,
///     time: 0.0,
///     worker: Worker::new(Point::new(0.0, 0.0), 2.0),
/// }));
/// session.push(ArrivalEvent::Task(TaskArrival {
///     id: 0,
///     time: 10.0,
///     task: Task::new(Point::new(0.5, 0.0), 4.5),
/// }));
/// // Nothing is driven until the watermark passes a window boundary.
/// session.advance_to(59.0);
/// assert!(session.poll_outcomes().is_empty());
/// session.advance_to(61.0);
/// let outcomes = session.poll_outcomes();
/// assert!(matches!(outcomes[0], Outcome::Assigned { task: 0, worker: 0, .. }));
/// let report = session.close();
/// assert_eq!(report.matched(), 1);
/// ```
pub struct StreamSession<'e>(pub(crate) ShardedSession<'e, 'static>);

/// The partition of every flat session: one cell.
static ONE_CELL: LazyLock<GridPartition> = LazyLock::new(one_cell);

impl<'e> StreamSession<'e> {
    /// Opens a session for `engine` under `cfg`. Panics with the
    /// [`ConfigError`](crate::ConfigError) of any configuration
    /// [`StreamConfig::validate`] rejects.
    pub fn new(engine: &'e dyn AssignmentEngine, cfg: StreamConfig) -> Self {
        StreamSession(ShardedSession::new(
            engine,
            cfg,
            &ONE_CELL,
            ShardStrategy::DropPairs,
        ))
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &StreamConfig {
        self.0.config()
    }

    /// The current event-time watermark.
    pub fn now(&self) -> f64 {
        self.0.now()
    }

    /// Feeds one arrival event. Panics on a non-finite or negative
    /// timestamp, a timestamp below the watermark (its window may
    /// already be closed), a duplicate id within an entity kind, or a
    /// closed session — the same invariants
    /// [`ArrivalStream::new`](crate::ArrivalStream::new) enforces,
    /// checked incrementally.
    pub fn push(&mut self, event: ArrivalEvent) {
        self.0.push(event);
    }

    /// Advances the watermark to `t` (monotone; lower values are
    /// no-ops) and drives every window that closes before it. Outcomes
    /// accumulate for [`poll_outcomes`](Self::poll_outcomes).
    pub fn advance_to(&mut self, t: f64) {
        self.0.advance_to(t);
    }

    /// Drains the typed outcome log accumulated since the last poll.
    pub fn poll_outcomes(&mut self) -> Vec<Outcome> {
        self.0.poll_outcomes()
    }

    /// Drives every remaining window (trailing empties included, up to
    /// the later of the last event and the watermark), settles the
    /// final fates and returns the aggregate report. Outcomes emitted while closing stay pollable.
    /// Panics if called twice.
    pub fn close(&mut self) -> StreamReport {
        let report = self.0.close().shards.pop();
        report.expect("a one-cell run reports one shard")
    }

    /// Captures the session's full state — buffered events, watermark,
    /// adaptive-controller trajectory, pool/pending/in-service sets,
    /// the lifetime-budget ledger with its dedup set, carried protocol
    /// boards, fates, per-window reports and the unpolled outcome log —
    /// as a versioned, stable [`SessionSnapshot`]. Restoring it with
    /// [`StreamSession::restore`] and draining reproduces the
    /// uninterrupted run bit for bit, outcome log included. Panics on a
    /// closed session.
    pub fn snapshot(&self) -> SessionSnapshot {
        self.0.snapshot_with(true)
    }

    /// Reopens a session from a snapshot taken by
    /// [`StreamSession::snapshot`], with the typed errors of
    /// [`ShardedSession::restore`] over one cell: a snapshot of a
    /// drop-pairs session over more cells is a `"partition"` mismatch,
    /// one of a halo session a `"strategy"` mismatch. Panics, as
    /// [`new`](Self::new) does, on a configuration
    /// [`StreamConfig::validate`] rejects.
    pub fn restore(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        snapshot: &SessionSnapshot,
    ) -> Result<Self, SnapshotError> {
        let strategy = ShardStrategy::DropPairs;
        ShardedSession::restore(engine, cfg, &ONE_CELL, strategy, snapshot).map(StreamSession)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::StreamDriver;
    use crate::event::{ArrivalStream, TaskArrival, WorkerArrival};
    use crate::metrics::TaskFate;
    use crate::window::{AdaptivePolicy, WindowPolicy};
    use dpta_core::{Method, Task, Worker};
    use dpta_spatial::Point;

    #[test]
    fn carry_map_finds_a_survivor_after_an_interleaved_idle_worker() {
        // Worker 2 was idle last window and reaches a task now.
        let map = carry_map(&[1, 3, 4], &[1, 2, 3, 4]);
        assert_eq!(map, vec![Some(0), Some(2), Some(3)]);
    }

    #[test]
    fn carry_map_finds_a_reentered_worker_at_the_tail() {
        // Worker 5 left to serve, came back behind the arrivals since,
        // and worker 7 is new.
        let map = carry_map(&[5, 1, 2], &[1, 2, 7, 5]);
        assert_eq!(map, vec![Some(3), Some(0), Some(1)]);
    }

    #[test]
    fn carry_map_drops_idle_columns_of_an_old_list() {
        // An old list that still holds workers idle now (2 and 4), as a
        // snapshot written before idle workers were dropped does.
        let map = carry_map(&[1, 2, 3, 4], &[1, 3, 6]);
        assert_eq!(map, vec![Some(0), None, Some(1), None]);
    }

    fn task(id: u32, time: f64, x: f64) -> ArrivalEvent {
        ArrivalEvent::Task(TaskArrival {
            id,
            time,
            task: Task::new(Point::new(x, 0.5), 4.5),
        })
    }

    fn worker(id: u32, time: f64, x: f64, r: f64) -> ArrivalEvent {
        ArrivalEvent::Worker(WorkerArrival {
            id,
            time,
            worker: Worker::new(Point::new(x, 0.0), r),
        })
    }

    fn busy_stream() -> ArrivalStream {
        let mut events = Vec::new();
        for k in 0..5u32 {
            events.push(worker(k, 7.0 * k as f64, k as f64, 2.5));
        }
        for k in 0..12u32 {
            events.push(task(k, 5.0 + 23.0 * k as f64, (k % 5) as f64));
        }
        ArrivalStream::new(events)
    }

    /// Pushing a stream's events and closing must reproduce
    /// `StreamDriver::run` exactly, for every policy family.
    #[test]
    fn session_drain_equals_driver_run_across_policies() {
        let stream = busy_stream();
        for policy in [
            WindowPolicy::ByTime { width: 60.0 },
            WindowPolicy::ByCount { tasks: 4 },
            WindowPolicy::Adaptive(AdaptivePolicy {
                base_width: 60.0,
                min_width: 10.0,
                max_width: 240.0,
                burst_tasks: 3,
                target_p95: 45.0,
            }),
        ] {
            let cfg = StreamConfig {
                policy,
                ..StreamConfig::default()
            };
            for method in [Method::Puce, Method::Grd] {
                let engine = method.engine(&cfg.params);
                let direct = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
                let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
                for e in stream.events() {
                    session.push(*e);
                }
                let pushed = session.close();
                assert_eq!(
                    direct.without_timing(),
                    pushed.without_timing(),
                    "{method} under {policy:?}"
                );
            }
        }
    }

    /// Interleaving pushes with watermark advances must not change the
    /// run: windows close identically whether events are drained in one
    /// go or as time passes.
    #[test]
    fn incremental_advance_matches_one_shot_close() {
        let stream = busy_stream();
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 45.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let direct = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);

        let mut session = StreamSession::new(engine.as_ref(), cfg);
        let mut outcomes = Vec::new();
        for e in stream.events() {
            // Watermark trails the event times: everything before this
            // arrival is final.
            session.advance_to(e.time());
            session.push(*e);
            outcomes.extend(session.poll_outcomes());
        }
        let report = session.close();
        outcomes.extend(session.poll_outcomes());
        assert_eq!(direct.without_timing(), report.without_timing());
        let assigned = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Assigned { .. }))
            .count();
        assert_eq!(assigned, report.matched());
        let expired = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Expired { .. }))
            .count();
        assert_eq!(expired, report.expired());
    }

    #[test]
    fn by_time_boundaries_stay_on_the_k_width_grid() {
        // Regression: a width with no exact binary representation must
        // not drift off the `k·width` grid — accumulated addition did,
        // which split boundary-timed events differently across shards.
        let stream = busy_stream();
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 0.7 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        assert_eq!(report.windows.len(), (stream.horizon() / 0.7) as usize + 1);
        for w in &report.windows {
            let k = w.index as f64;
            assert_eq!(
                (w.start, w.end),
                (k * 0.7, (k + 1.0) * 0.7),
                "window {}",
                w.index
            );
        }
    }

    #[test]
    #[should_panic(expected = "widen the window")]
    fn degenerate_widths_fail_fast() {
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 1e-6 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        session.push(task(0, 100_000.0, 0.0));
        let _ = session.close();
    }

    #[test]
    #[should_panic(expected = "late arrival")]
    fn late_pushes_panic() {
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        session.advance_to(100.0);
        session.push(task(0, 50.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "unique per entity kind")]
    fn duplicate_ids_panic() {
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        session.push(task(3, 1.0, 0.0));
        session.push(task(3, 2.0, 0.0));
    }

    #[test]
    fn untouched_session_closes_to_an_empty_report() {
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        let report = session.close();
        assert!(report.windows.is_empty());
        assert_eq!(report.task_arrivals, 0);
    }

    #[test]
    fn out_of_order_pushes_ahead_of_the_watermark_are_sorted() {
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 50.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
        // Pushed out of order; the stream constructor would sort them.
        session.push(task(1, 80.0, 1.0));
        session.push(worker(0, 0.0, 1.0, 2.0));
        session.push(task(0, 10.0, 1.0));
        let pushed = session.close();
        let stream = ArrivalStream::new(vec![
            worker(0, 0.0, 1.0, 2.0),
            task(0, 10.0, 1.0),
            task(1, 80.0, 1.0),
        ]);
        let direct = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
        assert_eq!(direct.without_timing(), pushed.without_timing());
    }

    #[test]
    fn reentry_recycles_the_worker_with_the_same_id() {
        // One worker, three reachable tasks spread over time: under
        // serve-and-leave only the first is served; with a short fixed
        // service the same worker (same id) returns and serves all.
        let events: Vec<ArrivalEvent> = vec![
            worker(7, 0.0, 0.0, 3.0),
            task(0, 10.0, 0.5),
            task(1, 130.0, 0.6),
            task(2, 250.0, 0.4),
        ];
        let stream = ArrivalStream::new(events);
        let base = StreamConfig {
            policy: WindowPolicy::ByTime { width: 60.0 },
            task_ttl: 10,
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&base.params);

        let never = StreamDriver::new(engine.as_ref(), base.clone()).run(&stream);
        assert_eq!(never.matched(), 1, "serve-and-leave serves once");
        assert_eq!(never.returns(), 0);

        let cfg = StreamConfig {
            service: ServiceModel::Fixed { secs: 30.0 },
            ..base
        };
        let reentry = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        reentry.assert_conservation();
        assert_eq!(reentry.matched(), 3, "the recycled worker serves all");
        assert_eq!(reentry.returns(), 2, "two completed cycles re-admitted");
        for fate in reentry.fates.values() {
            assert!(
                matches!(fate, TaskFate::Assigned { worker: 7, .. }),
                "every match must carry the same logical worker id"
            );
        }
        // The outcome log narrates the cycles.
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        for e in stream.events() {
            session.push(*e);
        }
        let _ = session.close();
        let outcomes = session.poll_outcomes();
        let cycles: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Returned {
                    worker: 7, cycle, ..
                } => Some(*cycle),
                _ => None,
            })
            .collect();
        assert_eq!(cycles, vec![1, 2]);
    }

    #[test]
    fn huge_service_durations_degenerate_to_serve_and_leave() {
        // A duration beyond the stream horizon means nobody ever
        // returns: fates, spend and window cuts must equal the
        // serve-and-leave run's exactly.
        let stream = busy_stream();
        let base = StreamConfig {
            policy: WindowPolicy::ByTime { width: 60.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&base.params);
            let never = StreamDriver::new(engine.as_ref(), base.clone()).run(&stream);
            let parked = StreamDriver::new(
                engine.as_ref(),
                StreamConfig {
                    service: ServiceModel::Fixed { secs: 1e9 },
                    ..base.clone()
                },
            )
            .run(&stream);
            assert_eq!(never.fates, parked.fates, "{method}");
            assert_eq!(never.spend_by_worker, parked.spend_by_worker, "{method}");
            let cuts = |r: &StreamReport| {
                r.windows
                    .iter()
                    .map(|w| (w.start, w.end, w.cut))
                    .collect::<Vec<_>>()
            };
            assert_eq!(cuts(&never), cuts(&parked), "{method}");
            assert_eq!(parked.returns(), 0, "{method}");
        }
    }

    #[test]
    fn per_trip_service_durations_scale_with_the_task_value() {
        let value_model = ValueModel::PerTripKm {
            base: 2.0,
            per_km: 0.8,
        };
        let service = ServiceModel::PerTripKm {
            value_model,
            secs_per_km: 60.0,
        };
        // A 6-value task encodes a 5 km trip; with a 1 km pickup leg the
        // service runs 6 km at 60 s/km.
        assert_eq!(service.duration(1.0, 6.0), Some(360.0));
        // Constant-value tasks carry no trip: pickup leg only.
        let service = ServiceModel::PerTripKm {
            value_model: ValueModel::Constant,
            secs_per_km: 60.0,
        };
        assert_eq!(service.duration(2.0, 4.5), Some(120.0));
    }

    #[test]
    #[should_panic(expected = "min <= base <= max")]
    fn inverted_adaptive_widths_panic() {
        let cfg = StreamConfig {
            policy: WindowPolicy::Adaptive(AdaptivePolicy {
                base_width: 1.0,
                ..AdaptivePolicy::default()
            }),
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let _ = StreamSession::new(engine.as_ref(), cfg);
    }

    #[test]
    #[should_panic(expected = "service duration must be positive")]
    fn degenerate_service_durations_panic() {
        let cfg = StreamConfig {
            service: ServiceModel::Fixed { secs: 0.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let _ = StreamSession::new(engine.as_ref(), cfg);
    }
}
