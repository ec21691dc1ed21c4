//! The boundary-halo protocol: cross-shard routing for sharded
//! streaming without dropped pairs.
//!
//! Drop-pairs sharding ([`ShardStrategy::DropPairs`]) is exact only
//! when every worker's service disc stays inside its grid cell. Real
//! spatial workloads are not like that — demand concentrates exactly
//! where cells meet — so this module implements the recovery protocol:
//!
//! 1. **Halo membership.** Each window, every shard's instance holds
//!    its own tasks plus every worker — interior *or foreign* — whose
//!    service disc reaches into its cell
//!    ([`GridPartition::reach_shards`]). Tasks are never replicated
//!    (each lives in exactly the cell owning its location), so every
//!    feasible pair, cross-boundary or not, is seen by exactly one
//!    shard: the task's. Membership is resolved once per worker —
//!    locations are immutable. Each window lists every shard's
//!    pending tasks and reaching workers as positions in the
//!    lifecycle's pending and pool order, and each pass builds the
//!    shard's keyed instance from those lists minus what earlier
//!    passes committed. The order is the lifecycle's, so a shard
//!    instance lists its entities exactly as the unsharded one does.
//! 2. **Propose.** Shards drive the engine over interior ∪ halo and
//!    *propose* their matches. A worker reaching `k` cells can be
//!    claimed by up to `k` shards.
//! 3. **Reconcile.** Competing claims on a worker are resolved by a
//!    deterministic, id-keyed priority rule: the worker's *home* shard
//!    (the cell owning his location) wins; a foreign-only worker goes
//!    to the lowest claiming shard id. A winning claim is *committed*
//!    only when it is clean — neither the winning shard nor the
//!    worker's home shard lost a conflict in the same pass (a losing
//!    shard reruns, and its rerun may claim differently); when every
//!    candidate is entangled in mutual-loss cycles, the smallest
//!    worker id is forced through. Committed claims are final; shards
//!    that lost a committed worker rerun over their remaining
//!    entities, and the loop repeats until no claim is rejected. Every
//!    pass commits at least one worker, so the loop terminates within
//!    `|pool|` passes.
//! 4. **Reruns.** A flagged shard re-drives the engine over all it
//!    has left: the instance of its pending and pool positions minus
//!    what earlier passes committed, on the pre-window board carried
//!    onto those entities. A rerun whose instance has no feasible pair
//!    is a guaranteed no-op and is skipped. Each shard carries one
//!    board into the next window, that of its last drive.
//! 5. **Charge once.** Per-pair releases are deterministic functions
//!    of `(worker id, task id, slot)`, so a rerun re-derives
//!    bit-identical publications. A global release dedup
//!    ([`ReleaseDedup`]) keys a
//!    [`Ledger::reserve`](dpta_dp::Ledger::reserve) for
//!    each *novel* release; after reconciliation the window's
//!    reservations are committed exactly once per worker
//!    ([`Ledger::commit`](dpta_dp::Ledger::commit)).
//!    Whole-location releases (the Geo-I baseline) are the one
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
//! [`ShardStrategy::DropPairs`]: crate::ShardStrategy::DropPairs
//! [`ReleaseDedup`]: crate::driver::ReleaseDedup

use crate::driver::{
    charge_novel, keyed_instance, IdStableNoise, PendingTask, ReleaseDedup, StreamConfig,
};
use crate::event::WorkerArrival;
use crate::lifecycle::{InService, Lifecycle, PaceState, StepSignals};
use crate::metrics::{ShardedReport, StreamReport, TaskFate, WindowCutDecision, WindowReport};
use crate::session::CarriedBoard;
use crate::snapshot::SnapshotError;
use crate::window::Window;
use dpta_core::{AssignmentEngine, Board, Instance, RunOutcome};
use dpta_dp::{FastMap, Ledger, SeededBudgets, SeededNoise};
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

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

/// The inputs of one shard run, assembled before the (possibly
/// parallel) drive.
struct PreparedRun {
    shard: usize,
    ents: ShardEntities,
    inst: Instance,
    board: Board,
    pre_pubs: usize,
    pre_cols: Vec<u32>,
    /// Remaining lifetime budget per worker (finite caps only).
    guard: Option<Vec<f64>>,
}

/// A worker's shard membership, resolved once on arrival (locations
/// are immutable): the cell owning his location and every cell his
/// service disc reaches.
struct Membership {
    home: usize,
    reach: Vec<usize>,
}

impl Membership {
    fn of(partition: &GridPartition, w: &WorkerArrival) -> Self {
        Membership {
            home: partition.shard_of(&w.worker.location),
            reach: partition.reach_shards(&w.worker.location, w.worker.radius),
        }
    }
}

/// Resolves a pooled worker's membership on first sight. Returns his
/// home shard.
fn pool_worker(
    partition: &GridPartition,
    member: &mut FastMap<u32, Membership>,
    w: &WorkerArrival,
) -> usize {
    member
        .entry(w.id)
        .or_insert_with(|| Membership::of(partition, w))
        .home
}

/// The halo coordinator's cross-window state, stepped one globally
/// formed window at a time by the sharded session's window former.
/// [`HaloCore::snapshot`] / [`HaloCore::from_snapshot`] make a mid-run
/// coordinator durable — a restored shard re-enters reconciliation
/// coherently because the whole protocol state (the shared
/// [`Lifecycle`], release dedup, carried boards) lives here,
/// while the per-worker membership is deterministically rebuilt from
/// it.
pub(crate) struct HaloCore<'e> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    warm: bool,
    // Per-shard report state.
    shard_windows: Vec<Vec<WindowReport>>,
    shard_fates: Vec<BTreeMap<u32, TaskFate>>,
    shard_tasks: Vec<usize>,
    shard_workers: Vec<usize>,
    shard_spend: Vec<BTreeMap<u32, f64>>,
    /// Global pipeline state — one pool, one pending list, one ledger,
    /// one in-service set, run by the same rules as the flat stepper.
    life: Lifecycle,
    charged: ReleaseDedup,
    carried: Vec<Option<CarriedBoard>>,
    member: FastMap<u32, Membership>,
    /// Bound of the per-pass drive pool, read once here: the query
    /// reads cgroup files and costs more than a small window's drive.
    threads: usize,
}

impl<'e> HaloCore<'e> {
    /// A fresh coordinator for `engine` under `cfg` over `n_shards`
    /// cells.
    pub(crate) fn new(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        n_shards: usize,
    ) -> Self {
        let warm = cfg.carry_releases && engine.supports_warm_start();
        let life = Lifecycle::new(&cfg, warm);
        HaloCore {
            engine,
            cfg,
            warm,
            shard_windows: vec![Vec::new(); n_shards],
            shard_fates: vec![BTreeMap::new(); n_shards],
            shard_tasks: vec![0; n_shards],
            shard_workers: vec![0; n_shards],
            shard_spend: vec![BTreeMap::new(); n_shards],
            life,
            charged: ReleaseDedup::default(),
            carried: (0..n_shards).map(|_| None).collect(),
            member: FastMap::default(),
            threads: std::thread::available_parallelism().map_or(8, std::num::NonZeroUsize::get),
        }
    }

    /// One globally-formed window: admit, propose, reconcile, settle.
    /// Returns the window's stream-observable signals for the adaptive
    /// controller.
    pub(crate) fn step_window(
        &mut self,
        partition: &GridPartition,
        window: &Window,
        cut: WindowCutDecision,
    ) -> StepSignals {
        let HaloCore {
            engine,
            cfg,
            warm,
            shard_windows,
            shard_fates,
            shard_tasks,
            shard_workers,
            shard_spend,
            life,
            charged,
            carried,
            member,
            threads,
        } = self;
        let engine: &dyn AssignmentEngine = *engine;
        let cfg: &StreamConfig = cfg;
        let (warm, capped) = (*warm, life.capped);
        let n_shards = carried.len();
        let opened = life.open(cfg, window);
        let mut returned_by_home = vec![0usize; n_shards];
        for s in &opened.returned {
            returned_by_home[pool_worker(partition, member, &s.worker)] += 1;
        }
        for w in &window.workers {
            shard_workers[pool_worker(partition, member, w)] += 1;
        }
        let mut arrived_by_shard = vec![0usize; n_shards];
        for arrival in &window.tasks {
            let home = partition.shard_of(&arrival.task.location);
            shard_tasks[home] += 1;
            arrived_by_shard[home] += 1;
        }
        let mut deferred_by_shard = vec![0usize; n_shards];
        for t in &opened.deferred {
            deferred_by_shard[partition.shard_of(&t.task.location)] += 1;
        }

        // Each shard's entities as ascending positions in the lifecycle
        // order: the pending tasks homed in its cell and every pooled
        // worker whose disc reaches it. Pool and pending are frozen for
        // the reconciliation loop; a pass filters out what was
        // committed.
        let mut shard_pending: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (i, p) in life.pending.iter().enumerate() {
            shard_pending[task_home_of(partition, p)].push(i);
        }
        let mut shard_pool: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (j, w) in life.pool.iter().enumerate() {
            for &k in &member[&w.id].reach {
                shard_pool[k].push(j);
            }
        }
        let carried_in = opened.carried_in + opened.readmitted;

        let mut reports: Vec<WindowReport> = (0..n_shards)
            .map(|k| WindowReport {
                index: window.index,
                start: window.start,
                end: window.end,
                tasks_arrived: arrived_by_shard[k],
                // Carried-over tasks and readmitted deferrals lead the
                // pending order, ahead of this window's admissions.
                carried_in: shard_pending[k].partition_point(|&i| i < carried_in),
                workers_available: shard_pool[k].len(),
                matched: 0,
                expired: 0,
                carried_out: 0,
                utility: 0.0,
                distance: 0.0,
                epsilon_spent: 0.0,
                publications: 0,
                rounds: 0,
                drive_time: Duration::ZERO,
                workers_retired: 0,
                workers_departed: 0,
                workers_returned: returned_by_home[k],
                workers_throttled: 0,
                tasks_deferred: deferred_by_shard[k],
                cut,
            })
            .collect();

        // Budget pacing caps, computed once from the pre-window ledger
        // so every reconciliation pass reads the same caps.
        let pace_caps: BTreeMap<u32, f64> = life
            .pool
            .iter()
            .filter_map(|w| Some((w.id, life.pace_cap(cfg, w.id)?)))
            .collect();
        for &wid in pace_caps.keys() {
            reports[member[&wid].home].workers_throttled += 1;
        }

        // ── Propose / reconcile loop ──────────────────────────────────
        // Committed tasks and workers, by pending and pool position.
        let mut matched_mask = vec![false; life.pending.len()];
        let mut taken = vec![false; life.pool.len()];
        let budgets = cfg.budget_source();
        // Committed worker id → (pending, pool) position of the pair.
        let mut committed: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        // Reserved worker id → (pool position, window spend).
        let mut window_spend: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
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

            // (a) Run every flagged shard over its remaining entities.
            let flagged_now: Vec<usize> = (0..n_shards).filter(|&k| needs_run[k]).collect();
            let mut prepared: Vec<PreparedRun> = Vec::new();
            for &k in &flagged_now {
                needs_run[k] = false;
                claims[k].clear();
                let task_at: Vec<usize> = shard_pending[k]
                    .iter()
                    .copied()
                    .filter(|&i| !matched_mask[i])
                    .collect();
                let worker_at: Vec<usize> = shard_pool[k]
                    .iter()
                    .copied()
                    .filter(|&j| !taken[j])
                    .collect();
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
                let p = prepare_run(
                    k,
                    ents,
                    inst,
                    &carried[k],
                    warm,
                    capped.then_some(&life.ledger),
                    &pace_caps,
                );
                if capped {
                    // Finite caps gate on the live accountant
                    // (reservations included), so capped shard runs
                    // execute sequentially in ascending shard id.
                    let (run, dt) = drive_prepared(engine, cfg, p);
                    account_run(
                        &run,
                        charged,
                        &mut life.ledger,
                        &mut window_spend,
                        &mut reports[k],
                    );
                    finish_run(k, run, dt, &mut reports, &mut claims, &mut last_run);
                } else {
                    prepared.push(p);
                }
            }
            if !prepared.is_empty() {
                // Uncapped: inputs were fixed above, so the drives can
                // fan out over a bounded thread pool without changing
                // the result. Charge accounting stays sequential in
                // ascending shard order so the dedup set is
                // deterministic.
                let mut driven = drive_parallel(engine, cfg, prepared, *threads);
                driven.sort_by_key(|&(k, _, _)| k);
                for (k, run, dt) in driven {
                    account_run(
                        &run,
                        charged,
                        &mut life.ledger,
                        &mut window_spend,
                        &mut reports[k],
                    );
                    finish_run(k, run, dt, &mut reports, &mut claims, &mut last_run);
                }
            }

            // (b) Resolve claims: group by worker, pick winners.
            let mut by_worker: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (k, shard_claims) in claims.iter().enumerate() {
                for c in shard_claims {
                    by_worker
                        .entry(life.pool[c.worker_at].id)
                        .or_default()
                        .push(k);
                }
            }
            if by_worker.is_empty() {
                break;
            }

            // Candidate winner per claimed worker: the home shard when
            // it claims him (id-keyed priority), else the lowest
            // claiming shard id. Losers of any conflict must rerun, and
            // a rerunning shard's claims are provisional — so a commit
            // is *clean* only when neither the winning shard nor the
            // worker's home shard lost a conflict this pass. Committing
            // only clean candidates protects the drop-pairs baseline:
            // a shard never loses a worker to a claim that a rerun
            // would have withdrawn. When every candidate is entangled
            // (mutual-loss cycles), the smallest worker id is forced
            // through so each pass still commits at least one worker
            // and the loop terminates.
            let cands: Vec<(u32, usize, Vec<usize>)> = by_worker
                .iter()
                .map(|(&w, ks)| {
                    let home = member[&w].home;
                    let winner = if ks.contains(&home) { home } else { ks[0] };
                    let losers = ks.iter().copied().filter(|&k| k != winner).collect();
                    (w, winner, losers)
                })
                .collect();
            let contested: BTreeSet<usize> = cands
                .iter()
                .flat_map(|(_, _, losers)| losers.iter().copied())
                .collect();
            let clean: Vec<&(u32, usize, Vec<usize>)> = cands
                .iter()
                .filter(|(w, winner, _)| {
                    !contested.contains(winner) && !contested.contains(&member[w].home)
                })
                .collect();
            let to_commit: Vec<&(u32, usize, Vec<usize>)> = if clean.is_empty() {
                vec![&cands[0]] // forced progress: smallest worker id
            } else {
                clean
            };
            let mut winners: Vec<(u32, usize)> = Vec::new();
            let mut flagged: BTreeSet<usize> = BTreeSet::new();
            for (w, winner, losers) in to_commit {
                winners.push((*w, *winner));
                flagged.extend(losers.iter().copied());
            }

            // (c) Apply commits: the pair is final, the task completes,
            // the worker departs to serve.
            for &(w, k) in &winners {
                let claim = claims[k]
                    .iter()
                    .find(|c| life.pool[c.worker_at].id == w)
                    .copied()
                    .expect("winner shard holds a claim on the worker");
                let task = &life.pending[claim.task_at];
                let worker = &life.pool[claim.worker_at];
                let d = task.arrival.task.location.distance(&worker.worker.location);
                let privacy_cost = if engine.accounts_privacy() {
                    let run = last_run[k].as_ref().expect("a claiming shard has driven");
                    cfg.params.beta * run.outcome.board.spent_total(claim.col)
                } else {
                    0.0
                };
                reports[k].matched += 1;
                reports[k].utility += task.arrival.task.value - cfg.params.alpha * d - privacy_cost;
                reports[k].distance += d;
                shard_fates[k].insert(
                    task.arrival.id,
                    TaskFate::Assigned {
                        window: window.index,
                        worker: w,
                        latency: window.end - task.arrival.time,
                    },
                );
                matched_mask[claim.task_at] = true;
                taken[claim.worker_at] = true;
                committed.insert(w, (claim.task_at, claim.worker_at));
                claims[k].retain(|c| c.worker_at != claim.worker_at);
            }
            // The window is reconciled only when no claim is left
            // pending: a pass can commit clean candidates and flag
            // nobody while a mutual-loss cycle is still outstanding —
            // those claims persist, and the next pass (with the clean
            // candidates gone) resolves them via the forced-progress
            // path. Breaking on "nothing flagged" here would silently
            // abandon them.
            if flagged.is_empty() && claims.iter().all(Vec::is_empty) {
                break;
            }
            for &k in &flagged {
                needs_run[k] = true;
            }
        }

        // ── Settle the window ─────────────────────────────────────────
        // Commit this window's reservations — exactly once per worker —
        // then depart matched workers and retire exhausted ones.
        for (&wid, &(at, eps)) in &window_spend {
            life.commit(at);
            *shard_spend[member[&wid].home].entry(wid).or_insert(0.0) += eps;
        }
        let mut departed = vec![false; life.pool.len()];
        for (&w, &(task_at, worker_at)) in &committed {
            reports[member[&w].home].workers_departed += 1;
            departed[worker_at] = true;
            life.depart(cfg, window.end, task_at, worker_at);
        }
        // Home shards come off the membership cache — every tracked
        // worker was admitted through it, pooled or serving alike.
        for id in life.retire(cfg, departed) {
            reports[member[&(id as u32)].home].workers_retired += 1;
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
            let home = task_home_of(partition, &p);
            shard_fates[home].insert(
                p.arrival.id,
                TaskFate::Expired {
                    window: window.index,
                },
            );
            reports[home].expired += 1;
        }
        for p in &life.pending {
            reports[task_home_of(partition, p)].carried_out += 1;
        }
        for (k, report) in reports.into_iter().enumerate() {
            shard_windows[k].push(report);
        }
        life.close(cfg, opened.ages)
    }

    /// Settles the remaining pending fates and assembles the per-shard
    /// reports.
    pub(crate) fn finish(mut self, partition: &GridPartition) -> ShardedReport {
        for p in self.life.pending.iter().chain(&self.life.deferred) {
            self.shard_fates[task_home_of(partition, p)].insert(p.arrival.id, TaskFate::Pending);
        }
        let engine_name = self.engine.name().to_string();
        ShardedReport {
            shards: (0..self.shard_windows.len())
                .map(|k| StreamReport {
                    engine: engine_name.clone(),
                    windows: std::mem::take(&mut self.shard_windows[k]),
                    fates: std::mem::take(&mut self.shard_fates[k]),
                    task_arrivals: self.shard_tasks[k],
                    worker_arrivals: self.shard_workers[k],
                    spend_by_worker: std::mem::take(&mut self.shard_spend[k]),
                    warnings: Vec::new(),
                })
                .collect(),
        }
    }

    /// Captures the coordinator's window-boundary state. The membership
    /// cache is *not* here — it is a pure function of the partition and
    /// the serialized pool and in-service sets, rebuilt on restore.
    pub(crate) fn snapshot(&self) -> HaloSnapshot {
        let life = &self.life;
        HaloSnapshot {
            shard_windows: self.shard_windows.clone(),
            shard_fates: self.shard_fates.clone(),
            shard_tasks: self.shard_tasks.clone(),
            shard_workers: self.shard_workers.clone(),
            shard_spend: self.shard_spend.clone(),
            pool: life.pool.clone(),
            pending: life.pending.clone(),
            deferred: life.deferred.clone(),
            in_service: life.in_service.clone(),
            cycles: life.cycles.clone(),
            ledger: life.ledger.clone(),
            pace: life.pace.clone(),
            charged: self.charged.clone(),
            carried: self.carried.clone(),
        }
    }

    /// Rebuilds a coordinator mid-stream from a snapshot. Membership is
    /// re-resolved from the partition for every tracked worker (pooled
    /// or serving — locations are immutable, so the result is
    /// identical). Each window's shard instances are built from the
    /// restored pool and pending order, which equals the live
    /// coordinator's, so a restored coordinator drives bit-identically.
    pub(crate) fn from_snapshot(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &GridPartition,
        snap: &HaloSnapshot,
    ) -> Result<Self, SnapshotError> {
        let n_shards = partition.n_shards();
        let per_shard = [
            snap.shard_windows.len(),
            snap.shard_fates.len(),
            snap.shard_tasks.len(),
            snap.shard_workers.len(),
            snap.shard_spend.len(),
            snap.carried.len(),
        ];
        if per_shard.iter().any(|&n| n != n_shards) {
            return Err(SnapshotError::Malformed(format!(
                "halo snapshot holds per-shard state for {} shards, partition has {n_shards}",
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
                "halo in-service set is not in (completion time, id) order".to_string(),
            ));
        }
        let mut core = HaloCore::new(engine, cfg, n_shards);
        core.shard_windows = snap.shard_windows.clone();
        core.shard_fates = snap.shard_fates.clone();
        core.shard_tasks = snap.shard_tasks.clone();
        core.shard_workers = snap.shard_workers.clone();
        core.shard_spend = snap.shard_spend.clone();
        let life = &mut core.life;
        life.pool = snap.pool.clone();
        life.pending = snap.pending.clone();
        life.deferred = snap.deferred.clone();
        life.in_service = snap.in_service.clone();
        life.cycles = snap.cycles.clone();
        life.ledger = snap.ledger.clone();
        life.pace = snap.pace.clone();
        life.rebuild_handles();
        core.charged = snap.charged.clone();
        core.carried = snap.carried.clone();
        // Serving workers are out of the pool, but settle still consults
        // their membership (home attribution, retirement mid-service).
        for w in snap
            .pool
            .iter()
            .chain(snap.in_service.iter().map(|s| &s.worker))
        {
            pool_worker(partition, &mut core.member, w);
        }
        Ok(core)
    }
}

/// The serializable window-boundary state of a [`HaloCore`]: per-shard
/// report accumulators plus the global protocol state. Worker
/// membership is deliberately absent — it is re-derived on restore
/// from the partition (see [`HaloCore::from_snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct HaloSnapshot {
    pub(crate) shard_windows: Vec<Vec<WindowReport>>,
    pub(crate) shard_fates: Vec<BTreeMap<u32, TaskFate>>,
    pub(crate) shard_tasks: Vec<usize>,
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
}

/// Home shard of a pending task.
fn task_home_of(partition: &GridPartition, p: &PendingTask) -> usize {
    partition.shard_of(&p.arrival.task.location)
}

impl ShardEntities {
    /// Lists the pending tasks at `task_at` and the pooled workers at
    /// `worker_at` with their ids, and builds their keyed instance in
    /// the same order.
    fn build(
        life: &Lifecycle,
        task_at: Vec<usize>,
        worker_at: Vec<usize>,
        budgets: SeededBudgets,
    ) -> (Self, Instance) {
        let tasks = task_at.iter().map(|&i| &life.pending[i]);
        let workers = worker_at.iter().map(|&j| &life.pool[j]);
        let inst = keyed_instance(tasks.clone(), workers.clone(), budgets);
        let ents = ShardEntities {
            task_ids: tasks.map(|p| p.arrival.id).collect(),
            worker_ids: workers.map(|w| w.id).collect(),
            task_at,
            worker_at,
        };
        (ents, inst)
    }
}

/// Prepares shard `k`'s drive over `ents`, carrying protocol state
/// from the shard's pre-window board onto its entities.
fn prepare_run(
    k: usize,
    ents: ShardEntities,
    inst: Instance,
    carried: &Option<CarriedBoard>,
    warm: bool,
    guard_from: Option<&Ledger>,
    pace_caps: &BTreeMap<u32, f64>,
) -> PreparedRun {
    let board = match carried {
        Some(prev) if warm => prev.carry(&ents.task_ids, &ents.worker_ids),
        _ => Board::new(inst.n_tasks(), inst.n_workers()),
    };
    let pre_pubs = board.publications();
    let pre_cols = board.column_publications().to_vec();
    // The cap guard reads the live accountant, reservations included.
    // On a *rerun* this is deliberately conservative: the shard's own
    // earlier pass already reserved the releases it published, and the
    // engine counts their bit-identical re-derivations as novel board
    // spend again, so a worker near his cap may publish less than the
    // ideal continuation would. The alternative — refunding the
    // shard's own reservations — could let a rerun that takes a
    // different proposal path overshoot the lifetime cap, which is the
    // one thing the hard cap must never do. Conservative, deterministic
    // under-publishing in the (rare) rerun case is the chosen trade.
    let guard = guard_from.map(|acc| {
        ents.worker_ids
            .iter()
            .map(|&id| {
                let g = acc.remaining(u64::from(id));
                // Pacing cap, when the lifecycle throttled the worker
                // for this window.
                pace_caps.get(&id).map_or(g, |&c| g.min(c))
            })
            .collect()
    });
    PreparedRun {
        shard: k,
        ents,
        inst,
        board,
        pre_pubs,
        pre_cols,
        guard,
    }
}

/// Drives one prepared shard run: warm engines resume (capped when a
/// guard is set), one-shot engines assign from their fresh board.
fn drive_prepared(
    engine: &dyn AssignmentEngine,
    cfg: &StreamConfig,
    p: PreparedRun,
) -> (ShardRun, Duration) {
    let noise = IdStableNoise {
        base: SeededNoise::new(cfg.params.seed),
        task_ids: &p.ents.task_ids,
        worker_ids: &p.ents.worker_ids,
    };
    // dpta-lint: allow(no-wall-clock) -- drive_time is observability-only; no windowing or matching decision reads it
    let start = Instant::now();
    let outcome = if engine.supports_warm_start() {
        match &p.guard {
            Some(g) => engine.resume_capped(&p.inst, p.board, &noise, g),
            None => engine.resume(&p.inst, p.board, &noise),
        }
    } else {
        let mut board = p.board;
        engine.assign(&p.inst, &mut board, &noise)
    };
    let dt = start.elapsed();
    (
        ShardRun {
            ents: p.ents,
            outcome,
            pre_pubs: p.pre_pubs,
            pre_cols: p.pre_cols,
        },
        dt,
    )
}

/// Fans a pass's prepared runs over a scoped-thread pool of at most
/// `max_threads` and returns `(shard, run, wall time)` tuples in
/// completion order.
fn drive_parallel(
    engine: &dyn AssignmentEngine,
    cfg: &StreamConfig,
    prepared: Vec<PreparedRun>,
    max_threads: usize,
) -> Vec<(usize, ShardRun, Duration)> {
    let threads = prepared.len().min(max_threads);
    if threads <= 1 {
        return prepared
            .into_iter()
            .map(|p| {
                let k = p.shard;
                let (run, dt) = drive_prepared(engine, cfg, p);
                (k, run, dt)
            })
            .collect();
    }
    let mut buckets: Vec<Vec<PreparedRun>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, p) in prepared.into_iter().enumerate() {
        buckets[i % threads].push(p);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|p| {
                            let k = p.shard;
                            let (run, dt) = drive_prepared(engine, cfg, p);
                            (k, run, dt)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("halo shard thread panicked"))
            .collect()
    })
}

/// Reserves the run's *novel* releases against the lifetime accountant.
/// Reruns and carried history re-derive bit-identical releases, which
/// the global dedup filters out, so each release is charged at most
/// once over the stream's lifetime.
fn account_run(
    run: &ShardRun,
    charged: &mut ReleaseDedup,
    ledger: &mut Ledger,
    window_spend: &mut BTreeMap<u32, (usize, f64)>,
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
            let wid = ents.worker_ids[j];
            ledger.reserve(u64::from(wid), novel);
            report.epsilon_spent += novel;
            window_spend
                .entry(wid)
                .or_insert((ents.worker_at[j], 0.0))
                .1 += novel;
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
