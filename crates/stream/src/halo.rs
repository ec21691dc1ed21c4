//! The window stepper: one drive over a window's tasks and workers,
//! cell by cell, and the boundary-halo protocol that reconciles cells.
//!
//! Every execution mode steps a window through one [`HaloCore`], on
//! the calling thread. A flat [`StreamSession`](crate::StreamSession)
//! runs it over a one-cell partition ([`one_cell`]); a sharded session
//! runs it over the whole partition, where the session's
//! [`ShardStrategy`] picks each worker's cells. Under
//! [`DropPairs`](ShardStrategy::DropPairs) a worker belongs to its home
//! cell only, as on one cell: no claim can conflict, and the first pass
//! commits every claim, so the drive is the paper's batch assignment
//! over each cell's share of the window, and pairs that cross cell
//! boundaries are never formed. Under [`Halo`](ShardStrategy::Halo)
//! the protocol below recovers them:
//!
//! 1. **Halo membership.** Each window, every shard's instance holds
//!    its own tasks plus every worker — interior *or foreign* — whose
//!    service disc reaches into its cell
//!    ([`GridPartition::reach_shards`]). Tasks are never replicated
//!    (each lives in exactly the cell owning its location), so every
//!    feasible pair, cross-boundary or not, is seen by exactly one
//!    shard: the task's. A worker's cells are resolved when it is
//!    pooled (locations are immutable) and kept beside the pool. Each
//!    window lists every shard's pending tasks and reaching workers as
//!    positions in the lifecycle's pending and pool order, and each
//!    pass builds the shard's keyed instance from those lists minus
//!    what earlier passes committed. The order is the lifecycle's, so a
//!    shard instance lists its entities exactly as the unsharded one
//!    does.
//! 2. **Propose.** Shards drive the engine over interior ∪ halo and
//!    *propose* their matches. A worker reaching `k` cells can be
//!    claimed by up to `k` shards.
//! 3. **Reconcile.** Competing claims on a worker are resolved by a
//!    deterministic priority rule: the worker's *home* shard (the cell
//!    owning his location) wins; a foreign-only worker goes to the
//!    lowest claiming shard id. A winning claim is *committed* only
//!    when it is clean — neither the winning shard nor the worker's
//!    home shard lost a conflict in the same pass (a losing shard
//!    reruns, and its rerun may claim differently); when every
//!    candidate is entangled in mutual-loss cycles, the smallest worker
//!    id is forced through. Committed claims are final; shards that
//!    lost a committed worker rerun over their remaining entities, and
//!    the loop repeats until no claim is rejected. Every pass commits
//!    at least one worker, so the loop terminates within `|pool|`
//!    passes. A shard's first-pass commits land in the engine's pair
//!    order, the order an unsharded drive of the cell measures them
//!    in; commits of later passes land in worker-id order.
//! 4. **Reruns.** A flagged shard re-drives the engine over all it
//!    has left: the instance of its pending and pool positions minus
//!    what earlier passes committed, on the pre-window board carried
//!    onto those entities. A rerun whose instance has no feasible pair
//!    is a guaranteed no-op and is skipped. Each shard carries one
//!    board into the next window, that of its last drive.
//! 5. **Charge once.** Per-pair releases are deterministic functions
//!    of `(worker id, task id, slot)`, so a rerun re-derives
//!    bit-identical publications. A global release dedup
//!    ([`ReleaseDedup`]) admits each *novel* release into the window's
//!    pending spend, which the cap guard of later drives subtracts;
//!    after reconciliation each worker's pending spend is charged to
//!    the [`Ledger`] exactly once. Whole-location releases (the Geo-I baseline) are the one
//!    exception: their ε is the mean over the worker's reach set, so a
//!    rerun over fewer reachable tasks publishes a *genuinely new*
//!    noisy location — real additional leakage, reserved and charged
//!    as such. One-shot location engines therefore pay per
//!    reconciliation rerun; that is the honest price, not a dedup
//!    miss.
//!
//! On shard-disjoint input no worker has a halo, no claim ever
//! conflicts, and the run settles in one pass per window — matching the
//! unsharded run assignment for assignment, fate for fate. On general
//! input the protocol is near-exact: the only utility left unrecovered
//! is what reconciliation rejects in the final pass of a window.
//! `ARCHITECTURE.md` ("Sharding & the halo protocol", "Window
//! instances & halo reruns") documents the guarantees and their
//! limits.
//!
//! [`ReleaseDedup`]: crate::driver::ReleaseDedup

use crate::driver::{charge_novel, IdStableNoise, PendingTask, ReleaseDedup, StreamConfig};
use crate::event::WorkerArrival;
use crate::lifecycle::{Buckets, InService, Lifecycle, PaceState};
use crate::metrics::{
    ShardedReport, StreamReport, TaskFate, WindowCutDecision, WindowFeedback, WindowReport,
};
use crate::session::{CarriedBoard, Outcome};
use crate::shard::ShardStrategy;
use crate::snapshot::SnapshotError;
use crate::window::Window;
use dpta_core::{AssignmentEngine, Board, Instance, RunOutcome};
use dpta_dp::{FastMap, Ledger, SeededBudgets, SeededNoise};
use dpta_spatial::{Aabb, GridPartition};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// The partition of flat sessions: one cell, the home and only reach
/// of every worker, wherever it is.
pub(crate) fn one_cell() -> GridPartition {
    GridPartition::new(Aabb::from_extents(0.0, 0.0, 1.0, 1.0), 1, 1)
}

/// A shard's task fates in settle order. A task settles once, so the
/// log is a map from task id: it encodes as one, keys in settle order,
/// and becomes the report's id-ordered map at finish.
#[derive(Debug, Clone, Default)]
pub(crate) struct FateLog(Vec<(u32, TaskFate)>);

impl Serialize for FateLog {
    fn serialize_value(&self) -> Value {
        let fields = self
            .0
            .iter()
            .map(|(id, f)| (id.to_string(), f.serialize_value()));
        Value::Object(fields.collect())
    }
}

impl Deserialize for FateLog {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let Value::Object(fields) = v else {
            return Err(serde::Error::expected("fate object", v));
        };
        let fate = |(k, f): &(String, Value)| {
            let id = k
                .parse()
                .map_err(|_| serde::Error(format!("unparseable task id {k:?}")))?;
            Ok((id, TaskFate::deserialize_value(f)?))
        };
        fields
            .iter()
            .map(fate)
            .collect::<Result<_, _>>()
            .map(FateLog)
    }
}

/// A shard's entities for one drive, in lifecycle order: their
/// positions in the pending list and pool, which claims, commits and
/// settlement resolve through, and their logical ids, which noise,
/// charging and the carried board key on.
struct ShardEntities {
    task_at: Vec<usize>,
    worker_at: Vec<usize>,
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
}

/// One shard's engine run inside one reconciliation pass.
struct ShardRun {
    ents: ShardEntities,
    outcome: RunOutcome,
    /// Publications already on the board before the drive (carried
    /// history), subtracted from the reported publication count.
    pre_pubs: usize,
    /// The board's per-column publication counts before the drive: the
    /// charge path skips columns that did not grow.
    pre_cols: Vec<u32>,
}

/// A shard's proposed match: the pair's pending and pool positions,
/// and the worker's column in the shard's last run, whose board prices
/// the commit's privacy cost.
#[derive(Debug, Clone, Copy)]
struct Claim {
    task_at: usize,
    worker_at: usize,
    col: usize,
}

/// The window stepper's cross-window state, stepped one window at a
/// time by a session's window former. [`HaloCore::snapshot`] /
/// [`HaloCore::from_snapshot`] make a mid-run stepper durable — the
/// whole protocol state (the [`Lifecycle`], release dedup, carried
/// boards, outcome log) lives here, and the per-worker cells are
/// rebuilt from the pool.
pub(crate) struct HaloCore<'e> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    warm: bool,
    // Per-shard report state.
    shard_windows: Vec<Vec<WindowReport>>,
    shard_fates: Vec<FateLog>,
    shard_workers: Vec<usize>,
    /// Worker id → lifetime spend, per home shard; hashed for O(1)
    /// updates, id-ordered in every report and snapshot.
    shard_spend: Vec<FastMap<u32, f64>>,
    /// Global pipeline state — one pool, one pending list, one ledger,
    /// one in-service set.
    life: Lifecycle,
    charged: ReleaseDedup,
    carried: Vec<Option<CarriedBoard>>,
    /// The outcome log, one chunk per window: a log nobody polls grows
    /// by small allocations, never by copying itself into a buffer
    /// twice its size.
    outcomes: Vec<Vec<Outcome>>,
}

impl<'e> HaloCore<'e> {
    /// A fresh stepper for `engine` under `cfg` over the cells of
    /// `partition`, whose workers belong to the cells `strategy` gives
    /// them.
    pub(crate) fn new(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: GridPartition,
        strategy: ShardStrategy,
    ) -> Self {
        let n_shards = partition.n_shards();
        let warm = cfg.carry_releases && engine.supports_warm_start();
        let life = Lifecycle::new(&cfg, warm, partition, strategy);
        HaloCore {
            engine,
            cfg,
            warm,
            shard_windows: vec![Vec::new(); n_shards],
            shard_fates: vec![FateLog::default(); n_shards],
            shard_workers: vec![0; n_shards],
            shard_spend: vec![FastMap::default(); n_shards],
            life,
            charged: ReleaseDedup::default(),
            carried: (0..n_shards).map(|_| None).collect(),
            outcomes: Vec::new(),
        }
    }

    /// Drains the outcome log accumulated since the last drain.
    pub(crate) fn drain_outcomes(&mut self) -> impl Iterator<Item = Outcome> + '_ {
        self.outcomes.drain(..).flatten()
    }

    /// Takes the outcome log accumulated since the last drain as it is
    /// kept, one chunk per window, without copying it.
    pub(crate) fn take_outcomes(&mut self) -> Vec<Vec<Outcome>> {
        std::mem::take(&mut self.outcomes)
    }

    /// One window: admit, propose, reconcile, settle. Returns the
    /// window's feedback for the adaptive controller.
    pub(crate) fn step_window(
        &mut self,
        window: &Window,
        cut: WindowCutDecision,
    ) -> WindowFeedback {
        let HaloCore {
            engine,
            cfg,
            warm,
            shard_windows,
            shard_fates,
            shard_workers,
            shard_spend,
            life,
            charged,
            carried,
            outcomes: log,
        } = self;
        let mut outcomes = Vec::new();
        let engine: &dyn AssignmentEngine = *engine;
        let cfg: &StreamConfig = cfg;
        let (warm, capped) = (*warm, life.capped);
        let n_shards = carried.len();
        let partition = life.partition;
        let opened = life.open(cfg, window);
        let mut reports: Vec<WindowReport> = (0..n_shards)
            .map(|_| WindowReport {
                index: window.index,
                start: window.start,
                end: window.end,
                cut,
                ..WindowReport::default()
            })
            .collect();
        // Returned workers, then the window's arrivals, are the tail of
        // the pool.
        let returned_from = life.pool.len() - window.workers.len() - opened.returned.len();
        for (j, s) in (returned_from..).zip(&opened.returned) {
            reports[life.cells.home(j)].workers_returned += 1;
            outcomes.push(Outcome::Returned {
                worker: s.worker.id,
                window: window.index,
                at: s.return_time,
                cycle: s.cycle,
            });
        }
        for j in returned_from + opened.returned.len()..life.pool.len() {
            shard_workers[life.cells.home(j)] += 1;
        }
        // The window's task arrivals: the admitted ones close the
        // pending set, the rest were deferred.
        let admitted = &life.pending_home[opened.carried_in + opened.readmitted..];
        for &home in admitted {
            reports[home as usize].tasks_arrived += 1;
        }
        for t in &opened.deferred {
            let home = partition.shard_of(&t.task.location);
            reports[home].tasks_arrived += 1;
            reports[home].tasks_deferred += 1;
            outcomes.push(Outcome::Deferred {
                task: t.id,
                window: window.index,
            });
        }

        // Each shard's entities as ascending positions in the lifecycle
        // order: the pending tasks homed in its cell and every pooled
        // worker whose disc reaches it. Pool and pending are frozen for
        // the reconciliation loop; a pass filters out what was
        // committed.
        let mut homed = vec![0; n_shards];
        for &home in &life.pending_home {
            homed[home as usize] += 1;
        }
        let mut shard_pending = Buckets::default();
        shard_pending.reset(homed.into_iter());
        for (i, &home) in life.pending_home.iter().enumerate() {
            shard_pending.put(home, i);
        }
        let mut shard_pool = Buckets::default();
        life.cells.bucket(n_shards, &mut shard_pool);
        // Carried-over tasks and readmitted deferrals lead the pending
        // order, ahead of this window's admissions.
        let carried_in = opened.carried_in + opened.readmitted;
        for (k, r) in reports.iter_mut().enumerate() {
            r.carried_in = shard_pending
                .of(k)
                .partition_point(|&i| (i as usize) < carried_in);
            r.workers_available = shard_pool.of(k).len();
        }

        // Budget pacing caps, computed once from the pre-window ledger
        // so every reconciliation pass reads the same caps: (pool
        // position, cap) of every throttled worker, ascending.
        let throttled: Vec<(usize, f64)> = if life.paces(cfg) {
            let pool = life.pool.iter().enumerate();
            pool.filter_map(|(j, w)| Some((j, life.pace_cap(cfg, w.id)?)))
                .collect()
        } else {
            Vec::new()
        };
        for &(j, _) in &throttled {
            reports[life.cells.home(j)].workers_throttled += 1;
        }

        // ── Propose / reconcile loop ──────────────────────────────────
        // Committed tasks and workers, by pending and pool position.
        let mut matched_mask = vec![false; life.pending.len()];
        let mut taken = vec![false; life.pool.len()];
        let budgets = cfg.budget_source();
        // (pending, pool) positions of every committed pair, in commit
        // order.
        let mut committed: Vec<(usize, usize)> = Vec::new();
        // The window's novel spend per pool position, pending until the
        // window settles, and the positions with any, in the order they
        // got it.
        let mut spend = vec![0.0; life.pool.len()];
        let mut spent_at: Vec<usize> = Vec::new();
        let mut needs_run = vec![true; n_shards];
        let mut claims: Vec<Vec<Claim>> = vec![Vec::new(); n_shards];
        // Each shard's last run this window: every live claim of the
        // shard comes from it.
        let mut last_run: Vec<Option<ShardRun>> = (0..n_shards).map(|_| None).collect();
        let pool_size = life.pool.len();
        let mut passes = 0usize;

        loop {
            passes += 1;
            assert!(
                passes <= pool_size + 2,
                "halo reconciliation failed to converge in {passes} passes"
            );
            let rerun = passes > 1;

            // (a) Run every flagged shard over its remaining entities,
            // in ascending shard id: finite caps gate on the ledger net
            // of the window's pending spend, and the dedup set admits
            // releases in drive order.
            for k in 0..n_shards {
                if !std::mem::take(&mut needs_run[k]) {
                    continue;
                }
                claims[k].clear();
                // Nothing is committed before the first pass.
                let (tasks_left, workers_left);
                let (task_at, worker_at) = if rerun {
                    tasks_left = remaining(shard_pending.of(k), &matched_mask);
                    workers_left = remaining(shard_pool.of(k), &taken);
                    (&tasks_left[..], &workers_left[..])
                } else {
                    (shard_pending.of(k), shard_pool.of(k))
                };
                if task_at.is_empty() || worker_at.is_empty() {
                    continue;
                }
                let (ents, inst) = ShardEntities::build(life, task_at, worker_at, budgets);
                if rerun && inst.feasible_pairs() == 0 {
                    // Losing a boundary worker often leaves a shard
                    // whose remaining tasks nobody can reach. Driving
                    // that instance is a guaranteed no-op — engines
                    // publish and claim only over feasible pairs — so
                    // skip it. Never taken on first-pass runs: those
                    // mirror the unsharded drive bit for bit, and
                    // location engines (Geo-I) may legitimately publish
                    // there.
                    continue;
                }
                // The shard's pre-window board, carried onto its
                // entities.
                let board = match &carried[k] {
                    Some(prev) if warm => prev.carry(&ents.task_ids, &ents.worker_ids),
                    _ => Board::new(inst.n_tasks(), inst.n_workers()),
                };
                // A shard none of whose workers reaches another cell can
                // lose no claim, so it never reruns this window: its
                // pre-window board is done with. Freeing it before the
                // drive lets the drive's board reuse its memory.
                if ents.worker_at.iter().all(|&j| life.cells.home_only(j)) {
                    carried[k] = None;
                }
                let guard = capped.then(|| cap_guard(life, &spend, &throttled, &ents.worker_at));
                let (run, dt) = drive(engine, cfg, ents, &inst, board, guard);
                account_run(&run, charged, &mut spend, &mut spent_at, &mut reports[k]);
                finish_run(k, run, dt, &mut reports, &mut claims, &mut last_run);
            }

            // (b) Resolve claims by pool position. Each claimed
            // worker's candidate winner is the home shard when it claims
            // him, else the lowest claiming shard id. Losers of any
            // conflict must rerun, and a rerunning shard's claims are
            // provisional — so a commit is *clean* only when neither the
            // winning shard nor the worker's home shard lost a conflict
            // this pass. Committing only clean candidates protects the
            // drop-pairs baseline: a shard never loses a worker to a
            // claim that a rerun would have withdrawn. When every
            // candidate is entangled (mutual-loss cycles), the smallest
            // worker id is forced through so each pass still commits at
            // least one worker and the loop terminates.
            // Every claim as (pool position, shard, claim index),
            // grouped by worker; the lowest claiming shard leads each
            // group.
            let mut by_worker: Vec<(usize, usize, usize)> = Vec::new();
            for (k, shard_claims) in claims.iter().enumerate() {
                let listed = shard_claims.iter().enumerate();
                by_worker.extend(listed.map(|(c, cl)| (cl.worker_at, k, c)));
            }
            if by_worker.is_empty() {
                break;
            }
            by_worker.sort_unstable();
            let groups = || by_worker.chunk_by(|a, b| a.0 == b.0);
            let winner = |group: &[(usize, usize, usize)]| {
                let home = life.cells.home(group[0].0);
                *group.iter().find(|g| g.1 == home).unwrap_or(&group[0])
            };
            let mut lost = vec![false; n_shards];
            for group in groups() {
                let (_, k, _) = winner(group);
                group.iter().for_each(|g| lost[g.1] |= g.1 != k);
            }
            let clean = |&(j, k, _): &(usize, usize, usize)| !lost[k] && !lost[life.cells.home(j)];
            let mut commits: Vec<(usize, usize)> = groups()
                .map(winner)
                .filter(clean)
                .map(|(_, k, c)| (k, c))
                .collect();
            if commits.is_empty() {
                let forced = groups()
                    .map(winner)
                    .min_by_key(|&(j, _, _)| life.pool[j].id);
                let (_, k, c) = forced.expect("a claim is pending");
                commits.push((k, c));
            }
            // First-pass commits go in shard and claim order; later
            // passes commit each shard's in worker-id order.
            if rerun {
                commits.sort_unstable_by_key(|&(k, c)| (k, life.pool[claims[k][c].worker_at].id));
            } else {
                commits.sort_unstable();
            }

            // (c) Apply commits: the pair is final, the task completes,
            // the worker departs to serve.
            for &(k, c) in &commits {
                let claim = claims[k][c];
                let task = &life.pending[claim.task_at];
                let worker = &life.pool[claim.worker_at];
                let d = task.arrival.task.location.distance(&worker.worker.location);
                let privacy_cost = if engine.accounts_privacy() {
                    let run = last_run[k].as_ref().expect("a claiming shard has driven");
                    cfg.params.beta * run.outcome.board.spent_total(claim.col)
                } else {
                    0.0
                };
                let r = &mut reports[k];
                r.matched += 1;
                r.utility += task.arrival.task.value - cfg.params.alpha * d - privacy_cost;
                r.distance += d;
                let latency = window.end - task.arrival.time;
                shard_fates[k].0.push((
                    task.arrival.id,
                    TaskFate::Assigned {
                        window: window.index,
                        worker: worker.id,
                        latency,
                    },
                ));
                outcomes.push(Outcome::Assigned {
                    task: task.arrival.id,
                    worker: worker.id,
                    window: window.index,
                    latency,
                });
                matched_mask[claim.task_at] = true;
                taken[claim.worker_at] = true;
                committed.push((claim.task_at, claim.worker_at));
            }
            // Every other claim on a committed worker lost: its shard
            // reruns.
            for group in groups().filter(|group| taken[group[0].0]) {
                let (_, k, _) = winner(group);
                group.iter().for_each(|g| needs_run[g.1] |= g.1 != k);
            }
            for shard_claims in &mut claims {
                shard_claims.retain(|c| !taken[c.worker_at]);
            }
            // The window is reconciled only when no claim is left
            // pending: a pass can commit clean candidates and flag
            // nobody while a mutual-loss cycle is still outstanding —
            // those claims persist, and the next pass (with the clean
            // candidates gone) resolves them via the forced-progress
            // path. Breaking on "nothing flagged" here would silently
            // abandon them.
            if !needs_run.contains(&true) && claims.iter().all(Vec::is_empty) {
                break;
            }
        }

        // ── Settle the window ─────────────────────────────────────────
        // Charge this window's pending spend — exactly once per worker,
        // summed in the order it was reserved — then depart matched
        // workers and retire exhausted ones.
        for j in spent_at {
            let eps = spend[j];
            life.charge(j, eps);
            let by_worker = &mut shard_spend[life.cells.home(j)];
            *by_worker.entry(life.pool[j].id).or_insert(0.0) += eps;
        }
        for &(i, j) in &committed {
            reports[life.cells.home(j)].workers_departed += 1;
            let returns_at = life.depart(cfg, window.end, i, j);
            outcomes.push(Outcome::EnteredService {
                worker: life.pool[j].id,
                window: window.index,
                returns_at,
            });
        }
        // The committed workers are the departed ones.
        for (id, home) in life.retire(cfg, taken) {
            reports[home].workers_retired += 1;
            outcomes.push(Outcome::Retired {
                worker: id as u32,
                window: window.index,
            });
        }

        // Carry each shard's last drive into the next window.
        if warm {
            for (k, run) in last_run.into_iter().enumerate() {
                if let Some(run) = run {
                    carried[k] = Some(CarriedBoard {
                        board: run.outcome.board,
                        task_ids: run.ents.task_ids,
                        worker_ids: run.ents.worker_ids,
                    });
                }
            }
        }

        for p in life.expire(&matched_mask) {
            let home = task_home(&partition, &p);
            let fate = TaskFate::Expired {
                window: window.index,
            };
            shard_fates[home].0.push((p.arrival.id, fate));
            reports[home].expired += 1;
            outcomes.push(Outcome::Expired {
                task: p.arrival.id,
                window: window.index,
            });
        }
        for (k, mut report) in reports.into_iter().enumerate() {
            report.carried_out = shard_pending.of(k).len() - report.matched - report.expired;
            shard_windows[k].push(report);
        }
        if !outcomes.is_empty() {
            log.push(outcomes);
        }
        life.close(cfg, &opened.ages)
    }

    /// Settles the remaining pending fates and assembles the per-shard
    /// reports.
    pub(crate) fn finish(mut self) -> ShardedReport {
        let partition = self.life.partition;
        for p in self.life.pending.iter().chain(&self.life.deferred) {
            let home = task_home(&partition, p);
            self.shard_fates[home]
                .0
                .push((p.arrival.id, TaskFate::Pending));
        }
        let engine_name = self.engine.name().to_string();
        ShardedReport {
            shards: (0..self.shard_windows.len())
                .map(|k| StreamReport {
                    engine: engine_name.clone(),
                    task_arrivals: self.shard_windows[k].iter().map(|w| w.tasks_arrived).sum(),
                    windows: std::mem::take(&mut self.shard_windows[k]),
                    fates: std::mem::take(&mut self.shard_fates[k].0)
                        .into_iter()
                        .collect(),
                    worker_arrivals: self.shard_workers[k],
                    spend_by_worker: std::mem::take(&mut self.shard_spend[k])
                        .into_iter()
                        .collect(),
                })
                .collect(),
        }
    }

    /// Captures the stepper's window-boundary state, with the unpolled
    /// outcome log when `log` is set. The workers' cells are *not* here
    /// — they are a pure function of the partition and the serialized
    /// pool, rebuilt on restore.
    pub(crate) fn snapshot(&self, log: bool) -> HaloSnapshot {
        let life = &self.life;
        HaloSnapshot {
            shard_windows: self.shard_windows.clone(),
            shard_fates: self.shard_fates.clone(),
            shard_workers: self.shard_workers.clone(),
            shard_spend: self.shard_spend.iter().map(spend_map).collect(),
            pool: life.pool.clone(),
            pending: life.pending.clone(),
            deferred: life.deferred.clone(),
            in_service: life.in_service.clone(),
            cycles: life.cycles.clone(),
            ledger: life.ledger.clone(),
            pace: life.pace.clone(),
            charged: self.charged.clone(),
            carried: self.carried.clone(),
            outcomes: if log {
                self.outcomes.concat()
            } else {
                Vec::new()
            },
        }
    }

    /// Rebuilds a stepper mid-stream from a snapshot. Each window's
    /// shard instances are built from the restored pool and pending
    /// order, which equals the live stepper's, so a restored stepper
    /// drives bit-identically.
    pub(crate) fn from_snapshot(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: GridPartition,
        strategy: ShardStrategy,
        snap: &HaloSnapshot,
    ) -> Result<Self, SnapshotError> {
        let n_shards = partition.n_shards();
        let per_shard = [
            snap.shard_windows.len(),
            snap.shard_fates.len(),
            snap.shard_workers.len(),
            snap.shard_spend.len(),
            snap.carried.len(),
        ];
        if per_shard.iter().any(|&n| n != n_shards) {
            return Err(SnapshotError::Malformed(format!(
                "snapshot holds per-shard state for {} shards, partition has {n_shards}",
                per_shard[0]
            )));
        }
        let sorted = snap
            .in_service
            .iter()
            .zip(snap.in_service.iter().skip(1))
            .all(|(a, b)| (a.return_time, a.worker.id) <= (b.return_time, b.worker.id));
        if !sorted {
            return Err(SnapshotError::Malformed(
                "in-service set is not in (completion time, id) order".to_string(),
            ));
        }
        let mut core = HaloCore::new(engine, cfg, partition, strategy);
        core.shard_windows = snap.shard_windows.clone();
        core.shard_fates = snap.shard_fates.clone();
        core.shard_workers = snap.shard_workers.clone();
        core.shard_spend = snap.shard_spend.iter().map(spend_map).collect();
        let life = &mut core.life;
        life.pool = snap.pool.clone();
        life.pending = snap.pending.clone();
        life.deferred = snap.deferred.clone();
        life.in_service = snap.in_service.clone();
        life.cycles = snap.cycles.clone();
        life.ledger = snap.ledger.clone();
        life.pace = snap.pace.clone();
        life.rebuild();
        core.charged = snap.charged.clone();
        core.carried = snap.carried.clone();
        core.outcomes = vec![snap.outcomes.clone()];
        Ok(core)
    }
}

/// The serializable window-boundary state of a [`HaloCore`]: per-shard
/// report accumulators plus the global protocol state and, when taken
/// with it, the unpolled outcome log. The workers' cells are
/// deliberately absent — they are re-derived on restore from the
/// partition (see [`HaloCore::from_snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct HaloSnapshot {
    pub(crate) shard_windows: Vec<Vec<WindowReport>>,
    pub(crate) shard_fates: Vec<FateLog>,
    pub(crate) shard_workers: Vec<usize>,
    pub(crate) shard_spend: Vec<BTreeMap<u32, f64>>,
    pub(crate) pool: Vec<WorkerArrival>,
    pub(crate) pending: Vec<PendingTask>,
    pub(crate) deferred: VecDeque<PendingTask>,
    pub(crate) in_service: VecDeque<InService>,
    pub(crate) cycles: BTreeMap<u32, usize>,
    pub(crate) ledger: Ledger,
    pub(crate) pace: BTreeMap<u32, PaceState>,
    pub(crate) charged: ReleaseDedup,
    pub(crate) carried: Vec<Option<CarriedBoard>>,
    pub(crate) outcomes: Vec<Outcome>,
}

/// A worker id → spend map, copied into another map type.
fn spend_map<'a, M: FromIterator<(u32, f64)>>(
    spend: impl IntoIterator<Item = (&'a u32, &'a f64)>,
) -> M {
    spend.into_iter().map(|(&id, &eps)| (id, eps)).collect()
}

/// The positions in `list` not yet flagged in `done`, in order.
fn remaining(list: &[u32], done: &[bool]) -> Vec<u32> {
    let mut left = Vec::with_capacity(list.len());
    left.extend(list.iter().copied().filter(|&at| !done[at as usize]));
    left
}

/// Home shard of a pending task.
fn task_home(partition: &GridPartition, p: &PendingTask) -> usize {
    partition.shard_of(&p.arrival.task.location)
}

impl ShardEntities {
    /// Builds the keyed instance of the pending tasks at `task_at` and
    /// the pooled workers at `worker_at`, in that order, and lists them
    /// with their ids. Budgets are drawn from the logical ids. Workers
    /// that reach none of the tasks are dropped from both the instance
    /// and the lists.
    fn build(
        life: &Lifecycle,
        task_at: &[u32],
        worker_at: &[u32],
        budgets: SeededBudgets,
    ) -> (Self, Instance) {
        let tasks = task_at.iter().map(|&i| &life.pending[i as usize]);
        let workers = worker_at.iter().map(|&j| &life.pool[j as usize]);
        let inst = Instance::from_keyed_locations(
            tasks.clone().map(|p| p.arrival.task).collect(),
            workers.clone().map(|w| w.worker).collect(),
            budgets,
            tasks.clone().map(|p| u64::from(p.arrival.id)).collect(),
            workers.map(|w| u64::from(w.id)).collect(),
        );
        let (inst, kept) = inst.drop_idle_workers();
        let worker_at: Vec<usize> = kept.iter().map(|&k| worker_at[k] as usize).collect();
        let ents = ShardEntities {
            task_ids: tasks.map(|p| p.arrival.id).collect(),
            worker_ids: worker_at.iter().map(|&j| life.pool[j].id).collect(),
            task_at: task_at.iter().map(|&i| i as usize).collect(),
            worker_at,
        };
        (ents, inst)
    }
}

/// The remaining-budget guard of a capped drive over the pooled
/// workers at `worker_at`: each worker's remaining budget net of the
/// window's pending `spend`, within its pacing cap when `throttled`
/// (pool position, cap) lists one.
///
/// On a *rerun* this is deliberately conservative: the shard's own
/// earlier pass already reserved the releases it published, and the
/// engine counts their bit-identical re-derivations as novel board
/// spend again, so a worker near his cap may publish less than the
/// ideal continuation would. The alternative — refunding the shard's
/// own reservations — could let a rerun that takes a different proposal
/// path overshoot the lifetime cap, which is the one thing the hard cap
/// must never do. Conservative, deterministic under-publishing in the
/// (rare) rerun case is the chosen trade.
fn cap_guard(
    life: &Lifecycle,
    spend: &[f64],
    throttled: &[(usize, f64)],
    worker_at: &[usize],
) -> Vec<f64> {
    let guard = |j: usize| {
        let left = (life.ledger.remaining_at(life.handles[j]) - spend[j]).max(0.0);
        match throttled.binary_search_by_key(&j, |t| t.0) {
            Ok(at) => left.min(throttled[at].1),
            Err(_) => left,
        }
    };
    worker_at.iter().map(|&j| guard(j)).collect()
}

/// Drives one shard run over `ents` from `board`, the shard's
/// pre-window board carried onto them: warm engines resume (capped when
/// a remaining-budget `guard` is set), one-shot engines assign from
/// their fresh board.
fn drive(
    engine: &dyn AssignmentEngine,
    cfg: &StreamConfig,
    ents: ShardEntities,
    inst: &Instance,
    board: Board,
    guard: Option<Vec<f64>>,
) -> (ShardRun, Duration) {
    let pre_pubs = board.publications();
    let pre_cols = board.column_publications().to_vec();
    let noise = IdStableNoise {
        base: SeededNoise::new(cfg.params.seed),
        task_ids: &ents.task_ids,
        worker_ids: &ents.worker_ids,
    };
    // dpta-lint: allow(no-wall-clock) -- drive_time is observability-only; no windowing or matching decision reads it
    let start = Instant::now();
    let outcome = if engine.supports_warm_start() {
        match &guard {
            Some(g) => engine.resume_capped(inst, board, &noise, g),
            None => engine.resume(inst, board, &noise),
        }
    } else {
        let mut board = board;
        engine.assign(inst, &mut board, &noise)
    };
    let dt = start.elapsed();
    let run = ShardRun {
        ents,
        outcome,
        pre_pubs,
        pre_cols,
    };
    (run, dt)
}

/// Reserves the run's *novel* releases: adds them to the window's
/// pending spend by pool position, charged to the ledger when the
/// window settles. Reruns and carried history re-derive bit-identical
/// releases, which the global dedup filters out, so each release is
/// charged at most once over the stream's lifetime.
fn account_run(
    run: &ShardRun,
    charged: &mut ReleaseDedup,
    spend: &mut [f64],
    spent_at: &mut Vec<usize>,
    report: &mut WindowReport,
) {
    let ents = &run.ents;
    charge_novel(
        &run.outcome.board,
        &run.pre_cols,
        &ents.worker_ids,
        &ents.task_ids,
        charged,
        |j, novel| {
            let at = ents.worker_at[j];
            if spend[at] == 0.0 {
                spent_at.push(at);
            }
            spend[at] += novel;
            report.epsilon_spent += novel;
        },
    );
}

/// Records a finished run: claims, rounds, publications and wall time.
/// The run becomes the shard's last, replacing all its earlier claims.
fn finish_run(
    k: usize,
    run: ShardRun,
    dt: Duration,
    reports: &mut [WindowReport],
    claims: &mut [Vec<Claim>],
    last_run: &mut [Option<ShardRun>],
) {
    reports[k].rounds += run.outcome.rounds;
    reports[k].drive_time += dt;
    reports[k].publications += run.outcome.board.publications() - run.pre_pubs;
    claims[k] = run
        .outcome
        .assignment
        .pairs()
        .map(|(i, j)| Claim {
            task_at: run.ents.task_at[i],
            worker_at: run.ents.worker_at[j],
            col: j,
        })
        .collect();
    last_run[k] = Some(run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrivalEvent, ArrivalStream, TaskArrival};
    use crate::lifecycle::Buckets;
    use crate::window::{WindowFormer, WindowPolicy};
    use dpta_core::{Method, Task, Worker};
    use dpta_spatial::Point;

    /// Each cell's workers as the partition resolves them from scratch.
    fn reaching(partition: &GridPartition, pool: &[WorkerArrival], k: usize) -> Vec<u32> {
        let reach = |w: &WorkerArrival| partition.reach_shards(&w.worker.location, w.worker.radius);
        (0..pool.len() as u32)
            .filter(|&j| reach(&pool[j as usize]).contains(&k))
            .collect()
    }

    /// The stepper's cells hold exactly the pooled workers, each under
    /// every cell its disc reaches, after a drain in which workers
    /// retired and departed for good — and a restored stepper rebuilds
    /// the same cells from its pool.
    #[test]
    fn cells_hold_exactly_the_pooled_workers() {
        let partition = GridPartition::new(Aabb::from_extents(0.0, 0.0, 20.0, 20.0), 2, 2);
        let mut events = Vec::new();
        for k in 0..80u32 {
            let at = Point::new(0.7 + (k * 7 % 19) as f64, 0.9 + (k * 11 % 19) as f64);
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k,
                time: 2.0 * k as f64,
                worker: Worker::new(at, 1.0 + (k % 4) as f64),
            }));
            if k % 3 != 0 {
                events.push(ArrivalEvent::Task(TaskArrival {
                    id: k,
                    time: 2.0 * k as f64 + 1.0,
                    task: Task::new(Point::new(at.x + 0.5, at.y), 4.5),
                }));
            }
        }
        let stream = ArrivalStream::new(events);
        // Serve-and-leave, and a capacity most publishing workers exhaust.
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 20.0 },
            worker_capacity: 1.0,
            ..StreamConfig::default()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let mut core = HaloCore::new(engine.as_ref(), cfg.clone(), partition, ShardStrategy::Halo);
        let mut former = WindowFormer::new(cfg.policy);
        for &e in stream.events() {
            former.push(e);
        }
        former.advance(120.0);
        former.drive(false, |w, cut| core.step_window(w, cut));
        let outcomes: Vec<Outcome> = core.drain_outcomes().collect();
        let left_for_good = |o: &&Outcome| {
            matches!(
                o,
                Outcome::EnteredService {
                    returns_at: None,
                    ..
                }
            )
        };
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, Outcome::Retired { .. })));
        assert!(outcomes.iter().filter(left_for_good).count() > 0);

        let check = |core: &HaloCore| {
            let (cells, pool) = (&core.life.cells, &core.life.pool);
            let mut buckets = Buckets::default();
            cells.bucket(partition.n_shards(), &mut buckets);
            for k in 0..partition.n_shards() {
                let want = reaching(&partition, pool, k);
                assert_eq!(buckets.of(k), want, "cell {k}");
                assert_eq!(cells.count(k), want.len(), "cell {k}");
            }
            for (j, w) in pool.iter().enumerate() {
                let reach = partition.reach_shards(&w.worker.location, w.worker.radius);
                assert_eq!(cells.home(j), partition.shard_of(&w.worker.location));
                assert_eq!(cells.home_only(j), reach.len() == 1);
            }
        };
        assert!(!core.life.pool.is_empty());
        check(&core);
        let snap = core.snapshot(true);
        let restored =
            HaloCore::from_snapshot(engine.as_ref(), cfg, partition, ShardStrategy::Halo, &snap);
        check(&restored.expect("a fresh snapshot restores"));
    }
}
