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
//! `StreamDriver::run` and the sharded runners are thin `push* → close`
//! drain loops over this session or a
//! [`ShardedSession`](crate::ShardedSession). Every stepper cuts its
//! windows with the one [`WindowFormer`] and moves workers and tasks
//! through the one [`Lifecycle`], so every driving mode shares one set
//! of window/budget/fate semantics.
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

use crate::driver::{
    charge_novel, keyed_instance, IdStableNoise, PendingTask, ReleaseDedup, StreamConfig,
};
use crate::event::{ArrivalEvent, WorkerArrival};
use crate::lifecycle::{InService, Lifecycle, PaceState, StepSignals};
use crate::metrics::{StreamReport, TaskFate, WindowCutDecision, WindowReport};
use crate::snapshot::{SessionSnapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::window::{Window, WindowFormer};
use dpta_core::metrics::measure;
use dpta_core::{AssignmentEngine, Board};
use dpta_dp::{FastMap, Interner, Ledger, SeededNoise};
use dpta_workloads::ValueModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

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
    /// pair's logical ids and the run seed — the call the session
    /// stepper and halo coordinator make. Deterministic: the same
    /// (seed, worker, task) always draws the same duration, so replays
    /// and sharded runs agree bit for bit. Non-jittered variants
    /// ignore the key and defer to [`duration`](ServiceModel::duration).
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

    pub(crate) fn validate(&self) {
        match *self {
            ServiceModel::Never => {}
            ServiceModel::Fixed { secs } => assert!(
                secs > 0.0 && secs.is_finite(),
                "service duration must be positive and finite, got {secs}"
            ),
            ServiceModel::PerTripKm { secs_per_km, .. } => assert!(
                secs_per_km > 0.0 && secs_per_km.is_finite(),
                "secs_per_km must be positive and finite, got {secs_per_km}"
            ),
            ServiceModel::Jittered { secs, frac } => {
                assert!(
                    secs > 0.0 && secs.is_finite(),
                    "service duration must be positive and finite, got {secs}"
                );
                assert!(
                    (0.0..1.0).contains(&frac),
                    "jitter fraction must lie in [0, 1), got {frac}"
                );
            }
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

/// The mutable state of one driven stream: the shared [`Lifecycle`]
/// plus the flat stepper's own carried protocol state and fate/outcome
/// records, stepped one window at a time.
/// [`StreamSession`] wraps it behind the push API;
/// [`StreamDriver::run`](crate::StreamDriver::run) drains it over a
/// whole stream; lockstep drop-pairs execution steps one core per shard
/// so a single adaptive controller can window every shard identically.
pub(crate) struct SessionCore<'e> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    warm: bool,
    life: Lifecycle,
    carried: Option<CarriedBoard>,
    charged: ReleaseDedup,
    /// Task id → fate, hash-interned for O(1) per-settlement updates;
    /// every observable artefact (report, snapshot) re-sorts by id.
    fates: FastMap<u32, TaskFate>,
    /// Worker id → lifetime spend, same interned representation.
    spend_by_worker: FastMap<u32, f64>,
    reports: Vec<WindowReport>,
    outcomes: VecDeque<Outcome>,
}

/// The serializable state of a [`SessionCore`] at a window boundary.
///
/// Everything not here is reconstructed on restore: `warm` is a pure
/// function of the configuration and engine, and budgets are drawn from
/// a keyed source re-derived from the seed. Each window's instance is
/// built from the restored pool and pending order, which *is* the
/// order a live session would have reached (pool/pending only append
/// and retain), so a restored session drives bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CoreSnapshot {
    pub(crate) pool: Vec<WorkerArrival>,
    pub(crate) pending: Vec<PendingTask>,
    pub(crate) deferred: VecDeque<PendingTask>,
    pub(crate) in_service: VecDeque<InService>,
    pub(crate) cycles: BTreeMap<u32, usize>,
    pub(crate) ledger: Ledger,
    pub(crate) pace: BTreeMap<u32, PaceState>,
    pub(crate) carried: Option<CarriedBoard>,
    pub(crate) charged: ReleaseDedup,
    pub(crate) fates: BTreeMap<u32, TaskFate>,
    pub(crate) spend_by_worker: BTreeMap<u32, f64>,
    pub(crate) reports: Vec<WindowReport>,
    pub(crate) outcomes: VecDeque<Outcome>,
}

impl<'e> SessionCore<'e> {
    /// A fresh session core for `engine` under `cfg`.
    pub(crate) fn new(engine: &'e dyn AssignmentEngine, cfg: StreamConfig) -> Self {
        cfg.service.validate();
        let warm = cfg.carry_releases && engine.supports_warm_start();
        let life = Lifecycle::new(&cfg, warm);
        SessionCore {
            engine,
            cfg,
            warm,
            life,
            carried: None,
            charged: ReleaseDedup::default(),
            fates: FastMap::default(),
            spend_by_worker: FastMap::default(),
            reports: Vec::new(),
            outcomes: VecDeque::new(),
        }
    }

    /// Drains the outcome log accumulated since the last drain.
    pub(crate) fn drain_outcomes(&mut self) -> Vec<Outcome> {
        self.outcomes.drain(..).collect()
    }

    /// Captures the core's window-boundary state for a session
    /// snapshot.
    pub(crate) fn snapshot(&self) -> CoreSnapshot {
        let life = &self.life;
        CoreSnapshot {
            pool: life.pool.clone(),
            pending: life.pending.clone(),
            deferred: life.deferred.clone(),
            in_service: life.in_service.clone(),
            cycles: life.cycles.clone(),
            ledger: life.ledger.clone(),
            pace: life.pace.clone(),
            carried: self.carried.clone(),
            charged: self.charged.clone(),
            fates: self.fates.iter().map(|(&id, f)| (id, *f)).collect(),
            spend_by_worker: self
                .spend_by_worker
                .iter()
                .map(|(&id, &e)| (id, e))
                .collect(),
            reports: self.reports.clone(),
            outcomes: self.outcomes.clone(),
        }
    }

    /// Rebuilds a core mid-stream from a snapshot. The pool and pending
    /// set come back in the live session's order, so the next window's
    /// instance is bit-identical to the uninterrupted run's.
    pub(crate) fn from_snapshot(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        snap: &CoreSnapshot,
    ) -> Self {
        let mut core = SessionCore::new(engine, cfg);
        let life = &mut core.life;
        life.pool = snap.pool.clone();
        life.pending = snap.pending.clone();
        life.deferred = snap.deferred.clone();
        life.in_service = snap.in_service.clone();
        life.cycles = snap.cycles.clone();
        life.ledger = snap.ledger.clone();
        life.pace = snap.pace.clone();
        life.rebuild_handles();
        core.carried = snap.carried.clone();
        core.charged = snap.charged.clone();
        core.fates = snap.fates.iter().map(|(&id, f)| (id, *f)).collect();
        core.spend_by_worker = snap
            .spend_by_worker
            .iter()
            .map(|(&id, &e)| (id, e))
            .collect();
        core.reports = snap.reports.clone();
        core.outcomes = snap.outcomes.clone();
        core
    }

    /// Settles remaining fates and assembles the aggregate report.
    pub(crate) fn finish(mut self, task_arrivals: usize, worker_arrivals: usize) -> StreamReport {
        // Tasks still held by admission control never entered a window,
        // but they arrived — the conservation law covers them as
        // pending.
        for p in self.life.pending.iter().chain(&self.life.deferred) {
            self.fates.insert(p.arrival.id, TaskFate::Pending);
        }
        StreamReport {
            engine: self.engine.name().to_string(),
            windows: self.reports,
            fates: self.fates.into_iter().collect(),
            task_arrivals,
            worker_arrivals,
            spend_by_worker: self.spend_by_worker.into_iter().collect(),
            warnings: Vec::new(),
        }
    }

    /// One window: open it through the lifecycle, drive the engine over
    /// the instance of the pending set and pool, charge, settle. Returns the window's
    /// stream-observable signals for the adaptive controller.
    pub(crate) fn step(&mut self, window: &Window, cut: WindowCutDecision) -> StepSignals {
        let warm = self.warm;
        let opened = self.life.open(&self.cfg, window);
        for s in &opened.returned {
            self.outcomes.push_back(Outcome::Returned {
                worker: s.worker.id,
                window: window.index,
                at: s.return_time,
                cycle: s.cycle,
            });
        }
        for t in &opened.deferred {
            self.outcomes.push_back(Outcome::Deferred {
                task: t.id,
                window: window.index,
            });
        }
        let (pool, pending) = (&self.life.pool, &self.life.pending);
        let carried = &mut self.carried;
        let (charged, fates) = (&mut self.charged, &mut self.fates);
        let spend_by_worker = &mut self.spend_by_worker;

        let mut report = WindowReport {
            index: window.index,
            start: window.start,
            end: window.end,
            tasks_arrived: window.tasks.len(),
            carried_in: opened.carried_in + opened.readmitted,
            workers_available: pool.len(),
            matched: 0,
            expired: 0,
            carried_out: 0,
            utility: 0.0,
            distance: 0.0,
            epsilon_spent: 0.0,
            publications: 0,
            rounds: 0,
            drive_time: std::time::Duration::ZERO,
            workers_retired: 0,
            workers_departed: 0,
            workers_returned: opened.returned.len(),
            workers_throttled: 0,
            tasks_deferred: opened.deferred.len(),
            cut,
        };

        // (pending index, pool index, worker id) of every match.
        let mut matched_tasks: Vec<(usize, usize, u32)> = Vec::new();
        if !pending.is_empty() && !pool.is_empty() {
            let task_ids: Vec<u32> = pending.iter().map(|p| p.arrival.id).collect();
            // The window's instance in pending/pool order, budgets drawn
            // from the logical ids, over the workers that reach a task:
            // column `j` is the pooled worker at `kept[j]`.
            let (inst, kept) =
                keyed_instance(pending.iter(), pool.iter(), self.cfg.budget_source())
                    .drop_idle_workers();
            let worker_ids: Vec<u32> = kept.iter().map(|&j| pool[j].id).collect();
            let noise = IdStableNoise {
                base: SeededNoise::new(self.cfg.params.seed),
                task_ids: &task_ids,
                worker_ids: &worker_ids,
            };

            let board = match carried.take() {
                Some(prev) if warm => prev.carry(&task_ids, &worker_ids),
                _ => Board::new(inst.n_tasks(), inst.n_workers()),
            };
            let pre_pubs = board.publications();
            let pre_cols = board.column_publications().to_vec();

            // With a finite lifetime capacity, warm drives run under
            // the engine-level remaining-budget hook: every proposal
            // whose ε would overshoot the worker's remaining lifetime
            // budget is skipped, so the cap is exact rather than
            // retire-at-window-close. (Fresh-board drives re-publish
            // already-charged releases the hook cannot distinguish from
            // novel spend, so they keep the window-close semantics.)
            // Throttling is counted over the whole pool, idle workers
            // included.
            let life = &self.life;
            let guard: Option<Vec<f64>> = life.capped.then(|| {
                report.workers_throttled = pool
                    .iter()
                    .filter(|w| life.pace_cap(&self.cfg, w.id).is_some())
                    .count();
                kept.iter()
                    .map(|&j| {
                        life.pace_cap(&self.cfg, pool[j].id)
                            .unwrap_or_else(|| life.ledger.remaining_at(life.handles[j]))
                    })
                    .collect()
            });

            // dpta-lint: allow(no-wall-clock) -- drive_time is observability-only; no windowing or matching decision reads it
            let start = Instant::now();
            let outcome = if self.engine.supports_warm_start() {
                match &guard {
                    Some(g) => self.engine.resume_capped(&inst, board, &noise, g),
                    None => self.engine.resume(&inst, board, &noise),
                }
            } else {
                // One-shot engines require (and here always get) a
                // fresh board.
                let mut board = board;
                self.engine.assign(&inst, &mut board, &noise)
            };
            report.drive_time = start.elapsed();

            // One charge path, shared with the halo coordinator (see
            // `charge_novel`): each worker's novel releases, summed in
            // ledger order through the id-keyed dedup, so each release
            // is charged once per lifetime and flat and sharded runs sum
            // spend in the same order.
            let life = &mut self.life;
            charge_novel(
                &outcome.board,
                &pre_cols,
                &worker_ids,
                &task_ids,
                charged,
                |j, novel| {
                    life.charge(kept[j], novel);
                    report.epsilon_spent += novel;
                    *spend_by_worker.entry(worker_ids[j]).or_insert(0.0) += novel;
                },
            );
            let m = measure(
                &inst,
                &outcome,
                self.cfg.params.alpha,
                self.cfg.params.beta,
                self.engine.accounts_privacy(),
            );
            report.matched = m.matched;
            report.utility = m.total_utility;
            report.distance = m.total_distance;
            report.rounds = outcome.rounds;
            report.publications = outcome.board.publications() - pre_pubs;

            for (i, j) in outcome.assignment.pairs() {
                let worker_id = worker_ids[j];
                let latency = window.end - self.life.pending[i].arrival.time;
                fates.insert(
                    task_ids[i],
                    TaskFate::Assigned {
                        window: window.index,
                        worker: worker_id,
                        latency,
                    },
                );
                self.outcomes.push_back(Outcome::Assigned {
                    task: task_ids[i],
                    worker: worker_id,
                    window: window.index,
                    latency,
                });
                matched_tasks.push((i, kept[j], worker_id));
            }

            if warm {
                *carried = Some(CarriedBoard {
                    board: outcome.board,
                    task_ids,
                    worker_ids,
                });
            }
        }

        // Settle the pool: matched workers depart to serve — for good
        // under `ServiceModel::Never`, into the in-service set
        // otherwise — and exhausted workers retire.
        let mut departed = vec![false; self.life.pool.len()];
        for &(i, j, wid) in &matched_tasks {
            departed[j] = true;
            let returns_at = self.life.depart(&self.cfg, window.end, i, j);
            self.outcomes.push_back(Outcome::EnteredService {
                worker: wid,
                window: window.index,
                returns_at,
            });
        }
        report.workers_departed = matched_tasks.len();
        let retired = self.life.retire(&self.cfg, departed);
        report.workers_retired = retired.len();
        for &id in &retired {
            self.outcomes.push_back(Outcome::Retired {
                worker: id as u32,
                window: window.index,
            });
        }

        // Settle the tasks: matched leave, survivors age, the too-old
        // expire.
        let mut matched_mask = vec![false; self.life.pending.len()];
        for &(i, _, _) in &matched_tasks {
            matched_mask[i] = true;
        }
        for p in self.life.expire(&matched_mask) {
            self.fates.insert(
                p.arrival.id,
                TaskFate::Expired {
                    window: window.index,
                },
            );
            self.outcomes.push_back(Outcome::Expired {
                task: p.arrival.id,
                window: window.index,
            });
            report.expired += 1;
        }
        report.carried_out = self.life.pending.len();
        self.reports.push(report);
        self.life.close(&self.cfg, opened.ages)
    }
}

/// The push-based streaming interface: feed arrival events, advance
/// the event-time watermark, poll typed [`Outcome`]s, close for the
/// aggregate report. [`StreamDriver::run`](crate::StreamDriver::run)
/// is exactly `push* → close` over a pre-built stream.
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
pub struct StreamSession<'e> {
    core: Option<SessionCore<'e>>,
    former: WindowFormer,
    residual: VecDeque<Outcome>,
    n_tasks: usize,
    n_workers: usize,
    /// Arrival ids seen so far, interned to dense symbols — the
    /// uniqueness check is one hash probe however many entities the
    /// stream has carried.
    task_ids: Interner,
    worker_ids: Interner,
}

impl<'e> StreamSession<'e> {
    /// Opens a session for `engine` under `cfg`. Panics on degenerate
    /// configuration (zero TTL, empty budget group, non-positive
    /// capacity or window knobs).
    pub fn new(engine: &'e dyn AssignmentEngine, cfg: StreamConfig) -> Self {
        assert!(cfg.task_ttl >= 1, "task_ttl must be at least 1");
        assert!(cfg.budget_group_size >= 1, "budget group must be non-empty");
        assert!(
            cfg.worker_capacity > 0.0,
            "worker_capacity must be positive"
        );
        let former = WindowFormer::new(cfg.policy, cfg.horizon);
        StreamSession {
            core: Some(SessionCore::new(engine, cfg)),
            former,
            residual: VecDeque::new(),
            n_tasks: 0,
            n_workers: 0,
            task_ids: Interner::new(),
            worker_ids: Interner::new(),
        }
    }

    /// The configuration this session runs under. Panics once closed.
    pub fn config(&self) -> &StreamConfig {
        &self.core.as_ref().expect("session closed").cfg
    }

    /// The current event-time watermark.
    pub fn now(&self) -> f64 {
        self.former.watermark
    }

    /// Pre-sizes the windower's event buffer for `additional` more
    /// pushes. Purely an allocation hint: a drain over a pre-built
    /// stream knows its length up front, and reserving once spares the
    /// buffer its ~log n doubling copies on the way to 10⁵⁺ buffered
    /// events.
    pub fn reserve(&mut self, additional: usize) {
        self.former.buffer.reserve(additional);
    }

    /// Feeds one arrival event. Panics on a non-finite or negative
    /// timestamp, a timestamp below the watermark (its window may
    /// already be closed), a duplicate id within an entity kind, or a
    /// closed session — the same invariants
    /// [`ArrivalStream::new`](crate::ArrivalStream::new) enforces,
    /// checked incrementally.
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
            ArrivalEvent::Task(a) => {
                self.n_tasks += 1;
                let seen = self.task_ids.len();
                self.task_ids.intern(u64::from(a.id)) as usize == seen
            }
            ArrivalEvent::Worker(a) => {
                self.n_workers += 1;
                let seen = self.worker_ids.len();
                self.worker_ids.intern(u64::from(a.id)) as usize == seen
            }
        };
        assert!(fresh, "arrival ids must be unique per entity kind");
        self.former.push(event);
    }

    /// Advances the watermark to `t` (monotone; lower values are
    /// no-ops) and drives every window that closes before it. Outcomes
    /// accumulate for [`poll_outcomes`](Self::poll_outcomes).
    pub fn advance_to(&mut self, t: f64) {
        assert!(self.core.is_some(), "advance_to on a closed session");
        assert!(
            t.is_finite() && t >= 0.0,
            "watermark must be finite, got {t}"
        );
        if t <= self.former.watermark {
            return;
        }
        self.former.advance(t);
        self.drive_ready(false);
    }

    /// Drains the typed outcome log accumulated since the last poll.
    pub fn poll_outcomes(&mut self) -> Vec<Outcome> {
        let mut out: Vec<Outcome> = self.residual.drain(..).collect();
        if let Some(core) = self.core.as_mut() {
            out.extend(core.drain_outcomes());
        }
        out
    }

    /// Drives every remaining window (trailing empties included, up to
    /// the configured horizon), settles the final fates and returns the
    /// aggregate report. Outcomes emitted while closing stay pollable.
    /// Panics if called twice.
    pub fn close(&mut self) -> StreamReport {
        assert!(self.core.is_some(), "close on a closed session");
        self.drive_ready(true);
        let mut core = self.core.take().expect("core present");
        self.residual.extend(core.drain_outcomes());
        core.finish(self.n_tasks, self.n_workers)
    }

    /// Captures the session's full state — buffered events, watermark,
    /// adaptive-controller trajectory, pool/pending/in-service sets,
    /// the lifetime-budget ledger with its dedup set, carried protocol
    /// boards, fates and per-window reports — as a versioned, stable
    /// [`SessionSnapshot`]. Restoring it with
    /// [`StreamSession::restore`] and draining reproduces the
    /// uninterrupted run bit for bit. Panics on a closed session.
    pub fn snapshot(&self) -> SessionSnapshot {
        let core = self.core.as_ref().expect("snapshot on a closed session");
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            engine: core.engine.name().to_string(),
            config: core.cfg.clone(),
            windower: self.former.snapshot(),
            core: core.snapshot(),
            residual: self.residual.clone(),
            n_tasks: self.n_tasks,
            n_workers: self.n_workers,
            task_ids: self.task_ids.ids().iter().map(|&id| id as u32).collect(),
            worker_ids: self.worker_ids.ids().iter().map(|&id| id as u32).collect(),
        }
    }

    /// Reopens a session from a snapshot taken by
    /// [`StreamSession::snapshot`]. The caller supplies the engine and
    /// configuration; both must match what the snapshot was taken
    /// under — a different snapshot format version is rejected as
    /// [`SnapshotError::VersionMismatch`], and any differing
    /// configuration field (engine, policy, capacity, service model,
    /// ...) as [`SnapshotError::ConfigMismatch`] naming the field.
    /// Everything derivable is reconstructed: budget generators from
    /// the seed, and each window's instance from the restored
    /// pool/pending order.
    pub fn restore(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        snapshot: &SessionSnapshot,
    ) -> Result<Self, SnapshotError> {
        snapshot.validate(engine.name(), &cfg)?;
        let former = WindowFormer::from_snapshot(cfg.policy, cfg.horizon, &snapshot.windower)?;
        let core = SessionCore::from_snapshot(engine, cfg, &snapshot.core);
        Ok(StreamSession {
            core: Some(core),
            former,
            residual: snapshot.residual.clone(),
            n_tasks: snapshot.n_tasks,
            n_workers: snapshot.n_workers,
            task_ids: snapshot.task_ids.iter().map(|&id| u64::from(id)).collect(),
            worker_ids: snapshot
                .worker_ids
                .iter()
                .map(|&id| u64::from(id))
                .collect(),
        })
    }

    /// Extends the covered span to at least `t` — the sharded wrapper
    /// injects the *global* span before closing so every shard forms
    /// the same trailing windows, exactly like the work-stealing
    /// runner's horizon injection.
    pub(crate) fn extend_horizon(&mut self, t: f64) {
        let h = self.former.horizon.unwrap_or(0.0).max(t);
        self.former.horizon = Some(h);
        self.former.any_input = true;
    }

    fn drive_ready(&mut self, drain: bool) {
        let core = self.core.as_mut().expect("core present");
        self.former
            .drive(drain, |w, cut| StepSignals::merge(&[core.step(w, cut)]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::StreamDriver;
    use crate::event::{ArrivalStream, TaskArrival};
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
