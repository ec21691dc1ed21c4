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
//! 4. **Incremental reruns.** Engine interactions flow only along
//!    feasibility-graph edges, and noise/budgets are keyed by logical
//!    ids — so a rerun over the remaining entities can differ from the
//!    previous pass only inside the connected components that lost an
//!    entity. The coordinator therefore tracks the components of each
//!    shard's last full drive ([`PairComponents`]) and, on a
//!    reconciliation pass, re-drives *only the dirty components*: the
//!    undisturbed components keep their previous claims, spend and
//!    board columns, which are bit-identical to what a full rerun
//!    would re-derive. A shard none of whose remaining entities sit in
//!    a dirty component skips the drive entirely — the zero-feasible
//!    early-out (the built instance has no feasible pair) is the
//!    trivial case. The next window's carried board is
//!    stitched per entity from the last drive that covered it; the
//!    stitch is exact because a worker's whole release history lives
//!    inside his own component. Full reruns are kept in two cases:
//!    under a finite hard cap (the budget guard reads the live
//!    accountant, whose reservations move between passes, so a rerun
//!    is guard-sensitive beyond its own components) and under
//!    [`StreamConfig::halo_full_rerun`] (the reference semantics the
//!    incremental property suite compares against).
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
//! instances & incremental reruns") documents the guarantees and their
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
use crate::snapshot::SnapshotError;
use crate::window::Window;
use dpta_core::board::LOCATION_RELEASE;
use dpta_core::{AssignmentEngine, Board, Instance, RunOutcome};
use dpta_dp::{FastMap, Ledger, SeededBudgets, SeededNoise};
use dpta_matching::repair::PairComponents;
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Protocol state a shard carries across windows (warm-start engines).
///
/// After an incremental window this is a *stitched* view: the base
/// full drive plus every component-restricted re-drive, later sources
/// overriding earlier ones per entity. [`carry_board`] flattens the
/// stack onto the next window's board; the result is bit-identical to
/// carrying a monolithic full-rerun board because an entity's release
/// history never leaves its own feasibility component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Carried {
    sources: Vec<CarrySource>,
}

/// One board in the carried stack, keyed by the logical ids it was
/// built over.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CarrySource {
    board: Board,
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
}

/// One shard's engine run inside one reconciliation pass.
struct ShardRun {
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
    outcome: RunOutcome,
    /// Publications already on the board before the drive (carried
    /// history), subtracted from the reported publication count.
    pre_pubs: usize,
    /// The board's per-column publication counts before the drive: the
    /// charge path skips columns that did not grow.
    pre_cols: Vec<u32>,
    /// Feasibility components of the driven instance, resolved to a
    /// root per entity id. Computed for full drives on the incremental
    /// path; `None` for sub-drives (which inherit the base's roots)
    /// and for full-rerun / capped runs (which never consult them).
    roots: Option<RunRoots>,
}

/// Component roots of one driven instance, by logical id.
struct RunRoots {
    task_root: FastMap<u32, u32>,
    worker_root: FastMap<u32, u32>,
}

/// A shard's reconciliation state for the current window.
#[derive(Default)]
struct ShardPassState {
    /// The last *full* drive of this window.
    base: Option<ShardRun>,
    /// Component-restricted re-drives since `base`, in pass order.
    subs: Vec<ShardRun>,
    /// Roots (of `base`'s components) that lost an entity since the
    /// shard last drove. Cleared whenever the shard drives or proves a
    /// skip.
    dirty: BTreeSet<u32>,
    /// Latest board spend per driven worker id — what the commit step
    /// prices privacy cost from, regardless of which (full or sub) run
    /// last covered the worker.
    spent: FastMap<u32, f64>,
}

/// A shard's proposed match, by logical id.
#[derive(Debug, Clone, Copy)]
struct Claim {
    task: u32,
    worker: u32,
}

/// The inputs of one shard run, assembled before the (possibly
/// parallel) drive.
struct PreparedRun {
    shard: usize,
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
    inst: Instance,
    board: Board,
    pre_pubs: usize,
    pre_cols: Vec<u32>,
    /// Remaining lifetime budget per worker (finite caps only).
    guard: Option<Vec<f64>>,
    /// Component roots of `inst` (incremental full drives only).
    roots: Option<RunRoots>,
}

/// What component analysis concludes about a flagged shard's rerun.
enum IncrementalPlan {
    /// No remaining entity shares a component with a removed one (or
    /// the dirty side has only tasks / only workers, which cannot form
    /// a pair): the rerun is a proven no-op. Keep the previous run —
    /// claims, spend, board — minus the departed workers' claims.
    Keep,
    /// Re-drive exactly the listed entities — the remaining members of
    /// every dirty component, in instance order.
    Redrive {
        task_ids: Vec<u32>,
        worker_ids: Vec<u32>,
    },
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
/// [`Lifecycle`], release dedup, carried board stacks) lives here,
/// while the per-worker membership is deterministically rebuilt from
/// it.
pub(crate) struct HaloCore<'e> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    warm: bool,
    incremental: bool,
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
    carried: Vec<Option<Carried>>,
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
        // Component-restricted reruns are sound only when a rerun's
        // inputs beyond the instance itself are pass-invariant: a
        // finite hard cap reads the live accountant (reservations move
        // between passes), so capped reruns stay full.
        // `halo_full_rerun` is the debugging / reference override.
        let incremental = !life.capped && !cfg.halo_full_rerun;
        HaloCore {
            engine,
            cfg,
            warm,
            incremental,
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
            incremental,
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
        let (warm, incremental, capped) = (*warm, *incremental, life.capped);
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

        // Per-window id → index maps, for resolving claims.
        let pend_at: FastMap<u32, usize> = life
            .pending
            .iter()
            .enumerate()
            .map(|(i, p)| (p.arrival.id, i))
            .collect();
        let pool_at: FastMap<u32, usize> = life
            .pool
            .iter()
            .enumerate()
            .map(|(j, w)| (w.id, j))
            .collect();

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
        // Committed worker → pending index of the task he serves.
        let mut committed: BTreeMap<u32, usize> = BTreeMap::new();
        let mut window_spend: BTreeMap<u32, f64> = BTreeMap::new();
        let mut needs_run = vec![true; n_shards];
        let mut claims: Vec<Vec<Claim>> = vec![Vec::new(); n_shards];
        let mut states: Vec<ShardPassState> =
            (0..n_shards).map(|_| ShardPassState::default()).collect();
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
            let mut sub_driven: Vec<(usize, ShardRun, Duration)> = Vec::new();
            for &k in &flagged_now {
                needs_run[k] = false;
                let shard = ShardInstance::build(
                    shard_pending[k]
                        .iter()
                        .filter(|&&i| !matched_mask[i])
                        .map(|&i| &life.pending[i]),
                    shard_pool[k]
                        .iter()
                        .filter(|&&j| !taken[j])
                        .map(|&j| &life.pool[j]),
                    budgets,
                );
                if shard.inst.n_tasks() == 0 || shard.inst.n_workers() == 0 {
                    claims[k].clear();
                    continue;
                }
                if rerun && shard.inst.feasible_pairs() == 0 {
                    // Losing a boundary worker often leaves a shard
                    // whose remaining tasks nobody can reach. Driving
                    // that instance is a guaranteed no-op — engines
                    // publish and claim only over feasible pairs — so
                    // skip it; the trivial case of the component skip
                    // below. Never taken on first-pass runs: those
                    // mirror the unsharded drive bit for bit, and
                    // location engines (Geo-I) may legitimately publish
                    // there.
                    claims[k].clear();
                    continue;
                }
                if rerun && incremental {
                    match plan_incremental(&states[k], &shard.task_ids, &shard.worker_ids) {
                        Some(IncrementalPlan::Keep) => {
                            // Proven no-op: every remaining entity sits
                            // in an undisturbed component, so a full
                            // rerun would reproduce the previous run
                            // exactly. Keep it; only the departed
                            // workers' claims are withdrawn.
                            claims[k].retain(|c| !committed.contains_key(&c.worker));
                            states[k].dirty.clear();
                            continue;
                        }
                        Some(IncrementalPlan::Redrive {
                            task_ids,
                            worker_ids,
                        }) => {
                            // Exactly the dirty components' remaining
                            // entities, in instance order. Only reached
                            // on uncapped runs, so no guard.
                            let sub = ShardInstance::build(
                                task_ids.iter().map(|id| &life.pending[pend_at[id]]),
                                worker_ids.iter().map(|id| &life.pool[pool_at[id]]),
                                budgets,
                            );
                            let p = prepare_run(k, sub, &carried[k], warm, None, &pace_caps, false);
                            let (run, dt) = drive_prepared(engine, cfg, p);
                            sub_driven.push((k, run, dt));
                            continue;
                        }
                        None => {}
                    }
                }
                claims[k].clear();
                let p = prepare_run(
                    k,
                    shard,
                    &carried[k],
                    warm,
                    capped.then_some(&life.ledger),
                    &pace_caps,
                    incremental,
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
                    finish_run(k, run, dt, &mut reports, &mut claims, &mut states);
                } else {
                    prepared.push(p);
                }
            }
            if !prepared.is_empty() || !sub_driven.is_empty() {
                // Uncapped: inputs were fixed above, so the full drives
                // can fan out over a bounded thread pool without
                // changing the result; sub-drives already ran inline.
                // Charge accounting stays sequential in ascending shard
                // order so the dedup set is deterministic.
                let mut driven: Vec<(usize, ShardRun, Duration, bool)> =
                    drive_parallel(engine, cfg, prepared, *threads)
                        .into_iter()
                        .map(|(k, run, dt)| (k, run, dt, false))
                        .collect();
                driven.extend(
                    sub_driven
                        .into_iter()
                        .map(|(k, run, dt)| (k, run, dt, true)),
                );
                driven.sort_by_key(|&(k, _, _, _)| k);
                for (k, run, dt, is_sub) in driven {
                    account_run(
                        &run,
                        charged,
                        &mut life.ledger,
                        &mut window_spend,
                        &mut reports[k],
                    );
                    if is_sub {
                        finish_sub_run(
                            k,
                            run,
                            dt,
                            &mut reports,
                            &mut claims,
                            &mut states,
                            &committed,
                        );
                    } else {
                        finish_run(k, run, dt, &mut reports, &mut claims, &mut states);
                    }
                }
            }

            // (b) Resolve claims: group by worker, pick winners.
            let mut by_worker: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (k, shard_claims) in claims.iter().enumerate() {
                for c in shard_claims {
                    by_worker.entry(c.worker).or_default().push(k);
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
                    .find(|c| c.worker == w)
                    .copied()
                    .expect("winner shard holds a claim on the worker");
                let task_at = pend_at[&claim.task];
                let task = &life.pending[task_at];
                let worker_at = pool_at[&w];
                let worker = &life.pool[worker_at];
                let d = task.arrival.task.location.distance(&worker.worker.location);
                let privacy_cost = if engine.accounts_privacy() {
                    cfg.params.beta
                        * states[k]
                            .spent
                            .get(&w)
                            .copied()
                            .expect("claimed worker was driven")
                } else {
                    0.0
                };
                reports[k].matched += 1;
                reports[k].utility += task.arrival.task.value - cfg.params.alpha * d - privacy_cost;
                reports[k].distance += d;
                shard_fates[k].insert(
                    claim.task,
                    TaskFate::Assigned {
                        window: window.index,
                        worker: w,
                        latency: window.end - task.arrival.time,
                    },
                );
                matched_mask[task_at] = true;
                taken[worker_at] = true;
                committed.insert(w, task_at);
                claims[k].retain(|c| c.worker != w);
                // The committed pair leaves every shard that sees it,
                // and its components become dirty: any shard later
                // flagged re-drives exactly the components that lost an
                // entity.
                if incremental {
                    if let Some(roots) = states[k].base.as_ref().and_then(|b| b.roots.as_ref()) {
                        if let Some(&r) = roots.task_root.get(&claim.task) {
                            states[k].dirty.insert(r);
                        }
                    }
                    for &k2 in &member[&w].reach {
                        if let Some(roots) = states[k2].base.as_ref().and_then(|b| b.roots.as_ref())
                        {
                            if let Some(&r) = roots.worker_root.get(&w) {
                                states[k2].dirty.insert(r);
                            }
                        }
                    }
                }
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
        for (&wid, &eps) in &window_spend {
            life.commit(pool_at[&wid]);
            *shard_spend[member[&wid].home].entry(wid).or_insert(0.0) += eps;
        }
        let mut departed = vec![false; life.pool.len()];
        for (&w, &task_at) in &committed {
            reports[member[&w].home].workers_departed += 1;
            departed[pool_at[&w]] = true;
            life.depart(cfg, window.end, task_at, pool_at[&w]);
        }
        // Home shards come off the membership cache — every tracked
        // worker was admitted through it, pooled or serving alike.
        for id in life.retire(cfg, departed) {
            reports[member[&(id as u32)].home].workers_retired += 1;
        }

        // Carry each shard's last drives into the next window: the base
        // full run plus its component re-drives, later sources owning
        // the entities they cover.
        if warm {
            for (k, st) in states.iter_mut().enumerate() {
                if let Some(base) = st.base.take() {
                    let mut sources = Vec::with_capacity(1 + st.subs.len());
                    sources.push(CarrySource {
                        board: base.outcome.board,
                        task_ids: base.task_ids,
                        worker_ids: base.worker_ids,
                    });
                    sources.extend(st.subs.drain(..).map(|sub| CarrySource {
                        board: sub.outcome.board,
                        task_ids: sub.task_ids,
                        worker_ids: sub.worker_ids,
                    }));
                    carried[k] = Some(Carried { sources });
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
    pub(crate) carried: Vec<Option<Carried>>,
}

/// Home shard of a pending task.
fn task_home_of(partition: &GridPartition, p: &PendingTask) -> usize {
    partition.shard_of(&p.arrival.task.location)
}

/// Decides how much of a flagged shard's rerun is actually needed.
///
/// Every remaining entity of the shard was present in its last full
/// drive (instances only shrink within a window), so each resolves to
/// a component root there. Entities in undisturbed components keep
/// their previous outcome bit for bit — engine interactions flow only
/// along feasibility edges and noise/budgets are id-keyed — so only
/// the dirty components need re-driving. Returns `None` when the shard
/// has no component information (no full drive yet), forcing a full
/// drive.
fn plan_incremental(
    st: &ShardPassState,
    shard_task_ids: &[u32],
    shard_worker_ids: &[u32],
) -> Option<IncrementalPlan> {
    let roots = st.base.as_ref()?.roots.as_ref()?;
    let mut task_ids: Vec<u32> = Vec::new();
    let mut worker_ids: Vec<u32> = Vec::new();
    for &id in shard_task_ids {
        match roots.task_root.get(&id) {
            Some(r) if st.dirty.contains(r) => task_ids.push(id),
            Some(_) => {}
            None => return None,
        }
    }
    for &id in shard_worker_ids {
        match roots.worker_root.get(&id) {
            Some(r) if st.dirty.contains(r) => worker_ids.push(id),
            Some(_) => {}
            None => return None,
        }
    }
    // A dirty side without a counterpart cannot form a feasible pair
    // (components are edge-closed), so its re-drive is a no-op too.
    if task_ids.is_empty() || worker_ids.is_empty() {
        Some(IncrementalPlan::Keep)
    } else {
        Some(IncrementalPlan::Redrive {
            task_ids,
            worker_ids,
        })
    }
}

/// Resolves the feasibility components of a driven instance to a root
/// per entity id.
fn compute_roots(inst: &Instance, task_ids: &[u32], worker_ids: &[u32]) -> RunRoots {
    let mut comp = PairComponents::new(inst.n_tasks(), inst.n_workers());
    for j in 0..inst.n_workers() {
        for &i in inst.reach(j) {
            comp.join(i, j);
        }
    }
    RunRoots {
        task_root: task_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, comp.find_task(i)))
            .collect(),
        worker_root: worker_ids
            .iter()
            .enumerate()
            .map(|(j, &id)| (id, comp.find_worker(j)))
            .collect(),
    }
}

/// Transplants the carried protocol state onto a fresh board for the
/// given id lists, flattening the carried stack: the *last* source
/// covering an entity owns its columns. With a single source this is
/// exactly [`Board::carry`]; with re-drive sources the stitch is still
/// bit-identical to carrying a monolithic full-rerun board, because a
/// worker's release history never crosses his feasibility component
/// (geometry is immutable, so a carried pair's edge persists) and
/// ledger iteration is ascending in task index either way.
fn carry_board(
    carried: &Option<Carried>,
    warm: bool,
    task_ids: &[u32],
    worker_ids: &[u32],
    n_tasks: usize,
    n_workers: usize,
) -> Board {
    let Some(prev) = carried else {
        return Board::new(n_tasks, n_workers);
    };
    if !warm {
        return Board::new(n_tasks, n_workers);
    }
    let task_to_new: FastMap<u32, usize> = task_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let worker_to_new: FastMap<u32, usize> = worker_ids
        .iter()
        .enumerate()
        .map(|(j, &id)| (id, j))
        .collect();
    let mut task_owner: FastMap<u32, usize> = FastMap::default();
    let mut worker_owner: FastMap<u32, usize> = FastMap::default();
    for (s, src) in prev.sources.iter().enumerate() {
        for &id in &src.task_ids {
            task_owner.insert(id, s);
        }
        for &id in &src.worker_ids {
            worker_owner.insert(id, s);
        }
    }
    let mut next = Board::new(n_tasks, n_workers);
    for (s, src) in prev.sources.iter().enumerate() {
        for (j_old, &wid) in src.worker_ids.iter().enumerate() {
            if worker_owner[&wid] != s {
                continue;
            }
            let Some(&j_new) = worker_to_new.get(&wid) else {
                continue;
            };
            for t in src.board.ledger(j_old).tasks() {
                if t == LOCATION_RELEASE {
                    continue;
                }
                let t_old = t as usize;
                let Some(&t_new) = task_to_new.get(&src.task_ids[t_old]) else {
                    continue;
                };
                if let Some(set) = src.board.releases(t_old, j_old) {
                    for r in set.releases() {
                        next.publish(t_new, j_new, r.value, r.epsilon);
                    }
                }
            }
        }
    }
    for (s, src) in prev.sources.iter().enumerate() {
        for (t_old, w) in src.board.alloc().iter().enumerate() {
            let Some(j_old) = *w else {
                continue;
            };
            if task_owner[&src.task_ids[t_old]] != s {
                continue;
            }
            if let (Some(&t_new), Some(&j_new)) = (
                task_to_new.get(&src.task_ids[t_old]),
                worker_to_new.get(&src.worker_ids[j_old]),
            ) {
                next.set_winner(t_new, Some(j_new));
            }
        }
    }
    next
}

/// A shard's entities for one drive, by logical id, with their keyed
/// instance in the same order.
struct ShardInstance {
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
    inst: Instance,
}

impl ShardInstance {
    fn build<'a>(
        tasks: impl Iterator<Item = &'a PendingTask> + Clone,
        workers: impl Iterator<Item = &'a WorkerArrival> + Clone,
        budgets: SeededBudgets,
    ) -> Self {
        ShardInstance {
            task_ids: tasks.clone().map(|p| p.arrival.id).collect(),
            worker_ids: workers.clone().map(|w| w.id).collect(),
            inst: keyed_instance(tasks, workers, budgets),
        }
    }
}

/// Prepares shard `k`'s drive over `shard`, carrying protocol state
/// from the pre-window board restricted to its entities. A full run
/// tracks components on the incremental path; a component re-drive
/// inherits its base's and passes `track_components = false`.
fn prepare_run(
    k: usize,
    shard: ShardInstance,
    carried: &Option<Carried>,
    warm: bool,
    guard_from: Option<&Ledger>,
    pace_caps: &BTreeMap<u32, f64>,
    track_components: bool,
) -> PreparedRun {
    let ShardInstance {
        task_ids,
        worker_ids,
        inst,
    } = shard;
    let roots = track_components.then(|| compute_roots(&inst, &task_ids, &worker_ids));
    let board = carry_board(
        carried,
        warm,
        &task_ids,
        &worker_ids,
        inst.n_tasks(),
        inst.n_workers(),
    );
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
        worker_ids
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
        task_ids,
        worker_ids,
        inst,
        board,
        pre_pubs,
        pre_cols,
        guard,
        roots,
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
        task_ids: &p.task_ids,
        worker_ids: &p.worker_ids,
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
            task_ids: p.task_ids,
            worker_ids: p.worker_ids,
            outcome,
            pre_pubs: p.pre_pubs,
            pre_cols: p.pre_cols,
            roots: p.roots,
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
    window_spend: &mut BTreeMap<u32, f64>,
    report: &mut WindowReport,
) {
    charge_novel(
        &run.outcome.board,
        &run.pre_cols,
        &run.worker_ids,
        &run.task_ids,
        charged,
        |j, novel| {
            let wid = run.worker_ids[j];
            ledger.reserve(u64::from(wid), novel);
            report.epsilon_spent += novel;
            *window_spend.entry(wid).or_insert(0.0) += novel;
        },
    );
}

/// Records a finished full run: claims, rounds, publications, wall
/// time, per-worker spend, and the component baseline for later
/// incremental passes.
fn finish_run(
    k: usize,
    run: ShardRun,
    dt: Duration,
    reports: &mut [WindowReport],
    claims: &mut [Vec<Claim>],
    states: &mut [ShardPassState],
) {
    reports[k].rounds += run.outcome.rounds;
    reports[k].drive_time += dt;
    reports[k].publications += run.outcome.board.publications() - run.pre_pubs;
    claims[k] = run
        .outcome
        .assignment
        .pairs()
        .map(|(i, j)| Claim {
            task: run.task_ids[i],
            worker: run.worker_ids[j],
        })
        .collect();
    let st = &mut states[k];
    for (j, &wid) in run.worker_ids.iter().enumerate() {
        st.spent.insert(wid, run.outcome.board.spent_total(j));
    }
    st.subs.clear();
    st.dirty.clear();
    st.base = Some(run);
}

/// Records a finished component re-drive: stats and spend like a full
/// run, but claims *merge* — the re-driven components' claims replace
/// only their own tasks' previous claims, everything undisturbed (and
/// not departed) stays.
fn finish_sub_run(
    k: usize,
    run: ShardRun,
    dt: Duration,
    reports: &mut [WindowReport],
    claims: &mut [Vec<Claim>],
    states: &mut [ShardPassState],
    committed: &BTreeMap<u32, usize>,
) {
    reports[k].rounds += run.outcome.rounds;
    reports[k].drive_time += dt;
    reports[k].publications += run.outcome.board.publications() - run.pre_pubs;
    let redriven: BTreeSet<u32> = run.task_ids.iter().copied().collect();
    claims[k].retain(|c| !redriven.contains(&c.task) && !committed.contains_key(&c.worker));
    let fresh: Vec<Claim> = run
        .outcome
        .assignment
        .pairs()
        .map(|(i, j)| Claim {
            task: run.task_ids[i],
            worker: run.worker_ids[j],
        })
        .collect();
    claims[k].extend(fresh);
    let st = &mut states[k];
    for (j, &wid) in run.worker_ids.iter().enumerate() {
        st.spent.insert(wid, run.outcome.board.spent_total(j));
    }
    st.dirty.clear();
    st.subs.push(run);
}
