//! The worker/task lifecycle of the window stepper.
//!
//! One window of the paper's dynamic setting: workers arrive or come
//! back from service, tasks are admitted (or held back by admission
//! control), the engine matches, matched workers leave to serve,
//! exhausted workers retire, and unserved tasks age until their
//! time-to-live runs out. [`Lifecycle`] owns the state those rules act
//! on — pool, pending set, admission queue, in-service set, service
//! cycle counts, the budget ledger and the pacing forecast — and holds
//! the only copy of each rule.
//!
//! The window stepper ([`HaloCore`](crate::halo::HaloCore)) calls it
//! for every execution mode: flat sessions on one cell, drop-pairs and
//! the halo protocol on the whole partition. It returns plain data
//! (returned workers, admitted and deferred tasks, departures, retired
//! ids, expired tasks), which the stepper copies into its window
//! reports and outcome log. Each window's instances are built from the
//! pool and pending order kept here, so instance shape agrees across
//! flat, drop-pairs and halo execution.

use crate::driver::{PendingTask, StreamConfig};
use crate::event::{TaskArrival, WorkerArrival};
use crate::metrics::{percentile, WindowFeedback};
use crate::shard::ShardStrategy;
use crate::window::{Window, WindowPolicy};
use dpta_dp::{AccountId, Ledger};
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// One worker held out of the pool while serving a match.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct InService {
    pub(crate) return_time: f64,
    /// Completed service cycles once this one ends (1 on the first).
    pub(crate) cycle: usize,
    pub(crate) worker: WorkerArrival,
}

/// Per-worker budget-pacing state: the trailing per-window spend
/// estimate the throttle compares against the worker's remaining
/// budget. An exponential moving average (α = ½) keeps the forecast
/// responsive to bursts while damping one-window spikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PaceState {
    /// Ledger spend at the last window close (the delta baseline).
    pub(crate) last_spent: f64,
    /// Trailing per-window spend estimate, ε per window.
    pub(crate) ema: f64,
}

/// What [`Lifecycle::open`] changed. Admitted tasks are the tail of
/// the pending set, `pending[carried_in..]`; the first `readmitted` of
/// them are earlier deferrals, the rest fresh arrivals.
pub(crate) struct Opened {
    /// Workers back from service, pooled ahead of the window's
    /// arrivals in (completion time, id) order.
    pub(crate) returned: Vec<InService>,
    /// Tasks pending before this window's admissions.
    pub(crate) carried_in: usize,
    /// Earlier deferrals admitted this window.
    pub(crate) readmitted: usize,
    /// Fresh arrivals admission control held back this window.
    pub(crate) deferred: Vec<TaskArrival>,
    /// Waiting ages at window close of every pending task; only the
    /// adaptive controller reads them, so static policies get none.
    pub(crate) ages: Vec<f64>,
}

/// Every pooled worker's cells of the partition, kept beside the pool:
/// its home cell (the one owning its location) and, under the halo
/// protocol, every other cell its service disc reaches. Most discs stay
/// inside their home cell, so a worker holds just its home; the few
/// that reach farther are listed aside, their other cells in one shared
/// list. Membership costs no allocation per worker, and an entry leaves
/// with its worker.
#[derive(Default)]
pub(crate) struct Cells {
    /// Each worker's home cell, [`FARTHER`] set when its disc reaches
    /// other cells too.
    home: Vec<u32>,
    /// `(pool position, start, end)` of every flagged worker, ascending
    /// by position: its other cells are `other[start..end]`, ascending.
    farther: Vec<(u32, u32, u32)>,
    /// Only grows; the cells of flagged workers that left are dropped
    /// once they outnumber the live ones.
    other: Vec<u32>,
    /// Listed workers reaching each cell.
    count: Vec<usize>,
}

/// The flag on [`Cells::home`] entries of workers that reach farther.
const FARTHER: u32 = 1 << 31;

impl Cells {
    /// Lists `w` under its cells: the home cell alone under drop-pairs,
    /// every cell its disc reaches under the halo protocol.
    fn push(&mut self, partition: &GridPartition, strategy: ShardStrategy, w: &WorkerArrival) {
        let (at, r) = (&w.worker.location, w.worker.radius);
        let start = self.other.len();
        let home = match strategy {
            ShardStrategy::DropPairs => partition.shard_of(at) as u32,
            ShardStrategy::Halo => {
                let mut home = None;
                partition.for_each_reach_shard(at, r, |k| match home {
                    None => home = Some(k as u32),
                    Some(_) => self.other.push(k as u32),
                });
                home.expect("a disc reaches its own cell")
            }
        };
        self.count.resize(partition.n_shards(), 0);
        for &k in std::iter::once(&home).chain(&self.other[start..]) {
            self.count[k as usize] += 1;
        }
        if self.other.len() > start {
            let j = self.home.len() as u32;
            self.farther
                .push((j, start as u32, self.other.len() as u32));
            self.home.push(home | FARTHER);
        } else {
            self.home.push(home);
        }
    }

    /// The home cell of the worker at pool position `j`.
    pub(crate) fn home(&self, j: usize) -> usize {
        (self.home[j] & !FARTHER) as usize
    }

    /// Whether the worker at pool position `j` reaches no cell but its
    /// home.
    pub(crate) fn home_only(&self, j: usize) -> bool {
        self.home[j] & FARTHER == 0
    }

    /// How many listed workers reach cell `k`.
    pub(crate) fn count(&self, k: usize) -> usize {
        self.count.get(k).copied().unwrap_or(0)
    }

    /// Lists every worker's pool position under each cell it reaches.
    pub(crate) fn bucket(&self, n_cells: usize, out: &mut Buckets) {
        out.reset((0..n_cells).map(|k| self.count(k)));
        let (at, next) = (&mut out.at[..], &mut out.next[..]);
        let mut put = |k: u32, j: usize| {
            at[next[k as usize]] = j as u32;
            next[k as usize] += 1;
        };
        let mut farther = self.farther.iter();
        for (j, &h) in self.home.iter().enumerate() {
            put(h & !FARTHER, j);
            if h & FARTHER != 0 {
                let &(_, start, end) = farther.next().expect("a flagged worker is listed");
                for &k in &self.other[start as usize..end as usize] {
                    put(k, j);
                }
            }
        }
    }

    /// Drops the workers flagged in `leaving` (by pool position).
    fn retain(&mut self, leaving: &[bool]) {
        let (mut kept, mut read, mut write, mut live) = (0, 0, 0, 0);
        for (j, &leaves) in leaving.iter().enumerate() {
            let h = self.home[j];
            let span = (h & FARTHER != 0).then(|| {
                read += 1;
                self.farther[read - 1]
            });
            if leaves {
                self.count[(h & !FARTHER) as usize] -= 1;
                if let Some((_, start, end)) = span {
                    for &k in &self.other[start as usize..end as usize] {
                        self.count[k as usize] -= 1;
                    }
                }
                continue;
            }
            self.home[kept] = h;
            if let Some((_, start, end)) = span {
                self.farther[write] = (kept as u32, start, end);
                write += 1;
                live += (end - start) as usize;
            }
            kept += 1;
        }
        self.home.truncate(kept);
        self.farther.truncate(write);
        if self.other.len() > 2 * live + 64 {
            let mut other = Vec::with_capacity(2 * live);
            for span in &mut self.farther {
                let start = other.len() as u32;
                other.extend_from_slice(&self.other[span.1 as usize..span.2 as usize]);
                (span.1, span.2) = (start, other.len() as u32);
            }
            self.other = other;
        }
    }
}

/// Positions grouped by cell, ascending within each cell: cell `k`'s
/// are `at[start[k]..start[k + 1]]`. Refilled every window.
#[derive(Default)]
pub(crate) struct Buckets {
    at: Vec<u32>,
    start: Vec<usize>,
    /// Fill cursor per cell.
    next: Vec<usize>,
}

impl Buckets {
    /// Empties the buckets, sized for the given count per cell.
    pub(crate) fn reset(&mut self, counts: impl Iterator<Item = usize>) {
        self.start.clear();
        self.start.push(0);
        let mut total = 0;
        for n in counts {
            total += n;
            self.start.push(total);
        }
        self.next.clear();
        self.next
            .extend_from_slice(&self.start[..self.start.len() - 1]);
        self.at.clear();
        self.at.resize(total, 0);
    }

    /// Appends position `at` to cell `k`'s bucket.
    pub(crate) fn put(&mut self, k: u32, at: usize) {
        let next = &mut self.next[k as usize];
        self.at[*next] = at as u32;
        *next += 1;
    }

    /// Cell `k`'s positions.
    pub(crate) fn of(&self, k: usize) -> &[u32] {
        &self.at[self.start[k]..self.start[k + 1]]
    }
}

/// The live state of a driven stream and the rules that move entities
/// through it, one window at a time (see the module docs).
pub(crate) struct Lifecycle {
    pub(crate) pool: Vec<WorkerArrival>,
    /// Each pooled worker's ledger handle, beside `pool`. A handle stays
    /// valid while its worker is pooled: accounts are forgotten or
    /// drained only as their workers leave the pool (at the settle that
    /// also drops them here). Rebuilt on restore.
    pub(crate) handles: Vec<AccountId>,
    /// Each pooled worker's cells, beside `pool`; rebuilt on restore.
    /// A worker serving a match has none: its cells are resolved again
    /// when it returns.
    pub(crate) cells: Cells,
    pub(crate) partition: GridPartition,
    /// Which cells a worker belongs to (see [`Cells`]).
    strategy: ShardStrategy,
    /// Pool positions charged this window (see [`retire`](Self::retire)).
    charged: Vec<usize>,
    /// Pool position of the first worker pooled this window: workers
    /// returned from service, then fresh registrations.
    fresh_from: usize,
    pub(crate) pending: Vec<PendingTask>,
    /// Each pending task's home cell (the one owning its location),
    /// beside `pending`; rebuilt on restore.
    pub(crate) pending_home: Vec<u32>,
    /// Tasks held back by admission control: arrived, not yet admitted
    /// into any window, burning no TTL. FIFO — the oldest deferral is
    /// readmitted first once budget frees up.
    pub(crate) deferred: VecDeque<PendingTask>,
    /// Kept sorted by (completion time, id), so re-entry order is a
    /// pure function of the run.
    pub(crate) in_service: VecDeque<InService>,
    pub(crate) cycles: BTreeMap<u32, usize>,
    pub(crate) ledger: Ledger,
    /// Per-worker pacing state, maintained only under
    /// [`StreamConfig::pacing`].
    pub(crate) pace: BTreeMap<u32, PaceState>,
    /// Warm drives under a finite lifetime capacity: the engine-level
    /// remaining-budget guard is on, so spend never overshoots the cap
    /// and pacing can throttle it.
    pub(crate) capped: bool,
}

impl Lifecycle {
    /// An empty lifecycle under `cfg` over the cells of `partition`,
    /// whose workers belong to the cells `strategy` gives them; `warm`
    /// says whether the engine resumes from carried boards.
    pub(crate) fn new(
        cfg: &StreamConfig,
        warm: bool,
        partition: GridPartition,
        strategy: ShardStrategy,
    ) -> Self {
        Lifecycle {
            pool: Vec::new(),
            handles: Vec::new(),
            cells: Cells::default(),
            partition,
            strategy,
            charged: Vec::new(),
            fresh_from: 0,
            pending: Vec::new(),
            pending_home: Vec::new(),
            deferred: VecDeque::new(),
            in_service: VecDeque::new(),
            cycles: BTreeMap::new(),
            ledger: cfg.ledger.state(),
            pace: BTreeMap::new(),
            capped: warm && cfg.worker_capacity.is_finite(),
        }
    }

    /// Re-resolves every pooled worker's ledger handle — the one cache
    /// a restored lifecycle must rebuild from its pool and ledger.
    pub(crate) fn rebuild_handles(&mut self) {
        self.handles = self.pool.iter().map(|w| self.handle(w.id)).collect();
    }

    /// Re-resolves every pooled worker's ledger handle and cells and
    /// every pending task's home: the caches a restored lifecycle
    /// rebuilds from its pool, pending set and ledger.
    pub(crate) fn rebuild(&mut self) {
        self.rebuild_handles();
        self.cells = Cells::default();
        for w in &self.pool {
            self.cells.push(&self.partition, self.strategy, w);
        }
        let homes = self.pending.iter().map(|p| self.home_of(p));
        self.pending_home = homes.collect();
    }

    fn home_of(&self, p: &PendingTask) -> u32 {
        self.partition.shard_of(&p.arrival.task.location) as u32
    }

    /// Appends `p` to the pending set, its home cell beside it.
    fn admit(&mut self, p: PendingTask) {
        self.pending_home.push(self.home_of(&p));
        self.pending.push(p);
    }

    fn handle(&self, id: u32) -> AccountId {
        self.ledger
            .resolve(u64::from(id))
            .expect("pooled worker is registered")
    }

    /// Opens `window`: advances the ledger clock, re-admits returned
    /// workers, pools the window's worker arrivals and admits its task
    /// arrivals.
    pub(crate) fn open(&mut self, cfg: &StreamConfig, window: &Window) -> Opened {
        // Under sliding-window accounting this reclaims every charge
        // that has aged out of the protection window. Window starts are
        // global across flat, drop-pairs and halo execution, so every
        // driving mode reclaims at identical instants.
        self.ledger.advance_time(window.start);
        self.charged.clear();
        self.fresh_from = self.pool.len();
        let mut returned = Vec::new();
        while self
            .in_service
            .front()
            .is_some_and(|s| s.return_time < window.end)
        {
            let s = self.in_service.pop_front().expect("front exists");
            self.pool_worker(s.worker);
            returned.push(s);
        }
        for w in &window.workers {
            self.ledger.register(u64::from(w.id), cfg.worker_capacity);
            self.pool_worker(*w);
        }
        let carried_in = self.pending.len();
        let fresh = window.tasks.iter().map(|&arrival| PendingTask {
            arrival,
            ttl: cfg.task_ttl,
        });
        let mut readmitted = 0usize;
        let mut deferred = Vec::new();
        match cfg.admission {
            // Every arrival is admitted on the spot.
            None => fresh.for_each(|p| self.admit(p)),
            // The window admits only as many tasks as the pool's
            // aggregate remaining budget could plausibly serve; the
            // excess waits outside the window (no TTL burned), oldest
            // deferral first.
            Some(ac) => {
                let mut aggregate = 0.0f64;
                for &h in &self.handles {
                    aggregate += self.ledger.remaining_at(h);
                }
                let serveable = if aggregate.is_finite() {
                    (aggregate / ac.epsilon_per_task) as usize
                } else {
                    usize::MAX
                };
                let mut allowed = serveable.saturating_sub(carried_in);
                let waiting: Vec<PendingTask> = self.deferred.drain(..).collect();
                let n_waiting = waiting.len();
                for (k, p) in waiting.into_iter().chain(fresh).enumerate() {
                    if allowed > 0 {
                        allowed -= 1;
                        if k < n_waiting {
                            readmitted += 1;
                        }
                        self.admit(p);
                    } else {
                        if k >= n_waiting {
                            deferred.push(p.arrival);
                        }
                        self.deferred.push_back(p);
                    }
                }
            }
        }
        // How long every task present has waited at window close —
        // matched or not, it is the age the window width controls.
        let ages = if matches!(cfg.policy, WindowPolicy::Adaptive(_)) {
            self.pending
                .iter()
                .map(|p| window.end - p.arrival.time)
                .collect()
        } else {
            Vec::new()
        };
        Opened {
            returned,
            carried_in,
            readmitted,
            deferred,
            ages,
        }
    }

    /// Appends a registered worker to the pool, its handle and cells
    /// beside it.
    fn pool_worker(&mut self, w: WorkerArrival) {
        self.pool.push(w);
        self.handles.push(self.handle(w.id));
        self.cells.push(&self.partition, self.strategy, &w);
    }

    /// Whether pacing can throttle anyone: capped runs under
    /// [`StreamConfig::pacing`].
    pub(crate) fn paces(&self, cfg: &StreamConfig) -> bool {
        self.capped && cfg.pacing.is_some()
    }

    /// The pacing throttle on a worker's remaining-budget guard: when
    /// his trailing burn rate would exhaust his remaining budget within
    /// the forecast horizon, an even slice of it, stretching the budget
    /// across the horizon. `None` leaves the guard alone; only capped
    /// runs under [`StreamConfig::pacing`] ever throttle.
    pub(crate) fn pace_cap(&self, cfg: &StreamConfig, id: u32) -> Option<f64> {
        let p = cfg.pacing.filter(|_| self.capped)?;
        let st = self.pace.get(&id)?;
        let remaining = self.ledger.remaining(u64::from(id));
        let horizon = p.horizon_windows as f64;
        (st.ema > 0.0 && remaining > 0.0 && st.ema * horizon > remaining)
            .then(|| remaining / horizon)
    }

    /// Sends the worker at `pool[worker_at]`, matched to the task at
    /// `pending[task_at]`, off to serve: into the in-service set until
    /// his completion time, or — under `ServiceModel::Never` — out of
    /// the ledger for good. Returns the completion time, if any. The
    /// pool itself is settled by [`retire`](Self::retire).
    pub(crate) fn depart(
        &mut self,
        cfg: &StreamConfig,
        window_end: f64,
        task_at: usize,
        worker_at: usize,
    ) -> Option<f64> {
        let task = self.pending[task_at].arrival;
        let worker = self.pool[worker_at];
        let pickup = task.task.location.distance(&worker.worker.location);
        let Some(d) = cfg.service.duration_keyed(
            pickup,
            task.task.value,
            worker.id,
            task.id,
            cfg.params.seed,
        ) else {
            self.ledger.forget(u64::from(worker.id));
            return None;
        };
        // Re-entry keeps the ledger entry: lifetime budgets span
        // service cycles.
        let return_time = window_end + d;
        let cycle = self.cycles.entry(worker.id).or_insert(0);
        *cycle += 1;
        let entry = InService {
            return_time,
            cycle: *cycle,
            worker,
        };
        let pos = self
            .in_service
            .partition_point(|s| (s.return_time, s.worker.id) < (return_time, worker.id));
        self.in_service.insert(pos, entry);
        Some(return_time)
    }

    /// Charges `epsilon` to the pooled worker at `pool[at]` and lists
    /// that worker as a retirement candidate. Callers skip zero
    /// charges, which change no ledger state.
    pub(crate) fn charge(&mut self, at: usize, epsilon: f64) {
        self.ledger.charge_at(self.handles[at], epsilon);
        self.charged.push(at);
    }

    /// Retires exhausted workers and settles the pool: the workers
    /// flagged in `departed` (a mask indexed by pool position) and the
    /// retired ones leave it. Returns the retired ids with their home
    /// cells, ascending by id — pooled or in service alike.
    ///
    /// Both retirement rules read a worker's budget, and a pooled
    /// worker's budget moves only when the worker is charged or
    /// (re)registered. Every other worker was checked at an earlier
    /// close and passed, so only three groups are candidates: workers
    /// charged this window ([`charge`](Self::charge)), workers
    /// registered this window, and workers back from service this
    /// window — a worker charged in the window they departed skipped
    /// the hard-cap check then, so it happens when they re-enter. The
    /// ledger drain keeps its own set of touched accounts, which also
    /// covers workers who exhausted their budget on the match that sent
    /// them out.
    pub(crate) fn retire(&mut self, cfg: &StreamConfig, departed: Vec<bool>) -> Vec<(u64, usize)> {
        debug_assert_eq!(departed.len(), self.pool.len());
        // Sliding-window (renewable) accounting never retires: an
        // exhausted worker idles — the remaining-budget guard stops his
        // releases — until old charges age out of the protection
        // window. An infinite protection window is not renewable, so
        // `Windowed { window_secs: ∞ }` retires exactly like lifetime
        // accounting.
        let mut leaving = departed;
        if self.ledger.renewable() {
            self.settle_pool(&leaving);
            return Vec::new();
        }
        let drained = self.ledger.drain_exhausted();
        let mut retired = Vec::with_capacity(drained.len());
        let candidates = self
            .charged
            .iter()
            .copied()
            .chain(self.fresh_from..self.pool.len());
        for at in candidates {
            if leaving[at] {
                continue;
            }
            let id = u64::from(self.pool[at].id);
            if drained.binary_search(&id).is_ok() {
                leaving[at] = true;
                retired.push((id, self.cells.home(at)));
            } else if self.capped
                && self.ledger.remaining_at(self.handles[at]) + 1e-12 < cfg.budget_range.0
            {
                // The hard cap never overshoots, so spend rarely reaches
                // the capacity exactly; instead a worker is effectively
                // exhausted once their remaining budget cannot cover even
                // the cheapest possible release (the draw range's lower
                // bound).
                self.ledger.forget(id);
                retired.push((id, self.cells.home(at)));
                leaving[at] = true;
            }
        }
        // An in-service worker can exhaust his budget at the very match
        // that sent him out: he finishes the trip he is on but retires
        // instead of returning.
        if !drained.is_empty() {
            let partition = &self.partition;
            self.in_service.retain(|s| {
                let id = u64::from(s.worker.id);
                let exhausted = drained.binary_search(&id).is_ok();
                if exhausted {
                    retired.push((id, partition.shard_of(&s.worker.worker.location)));
                }
                !exhausted
            });
        }
        debug_assert_eq!(
            retired
                .iter()
                .filter(|r| drained.binary_search(&r.0).is_ok())
                .count(),
            drained.len(),
            "a drained worker was neither a candidate nor in service"
        );
        retired.sort_unstable_by_key(|r| r.0);
        self.settle_pool(&leaving);
        retired
    }

    /// Drops the workers flagged in `leaving` (by pool position) from
    /// the pool and their handles and cells beside it.
    fn settle_pool(&mut self, leaving: &[bool]) {
        self.cells.retain(leaving);
        let mut at = 0;
        self.pool.retain(|_| {
            at += 1;
            !leaving[at - 1]
        });
        at = 0;
        self.handles.retain(|_| {
            at += 1;
            !leaving[at - 1]
        });
    }

    /// Settles the pending set: tasks flagged in `matched` (indexed by
    /// pending position) leave, survivors age by one window, and the
    /// ones whose time-to-live ran out are removed and returned.
    pub(crate) fn expire(&mut self, matched: &[bool]) -> Vec<PendingTask> {
        let mut expired = Vec::new();
        let mut kept = 0usize;
        for (at, &hit) in matched.iter().enumerate() {
            let mut p = self.pending[at];
            if hit {
                continue;
            }
            p.ttl -= 1;
            if p.ttl == 0 {
                expired.push(p);
                continue;
            }
            self.pending[kept] = p;
            self.pending_home[kept] = self.pending_home[at];
            kept += 1;
        }
        self.pending.truncate(kept);
        self.pending_home.truncate(kept);
        expired
    }

    /// Closes the window: refreshes the pacing forecast from its
    /// realized spend and returns the adaptive controller's feedback,
    /// from the `ages` of every task present in the window (matched,
    /// expired and carried alike).
    pub(crate) fn close(&mut self, cfg: &StreamConfig, ages: &[f64]) -> WindowFeedback {
        // EMA over the per-window spend delta, clamped at zero: window-
        // `W` reclamation can shrink recorded spend, which is not
        // negative burn.
        if cfg.pacing.is_some() {
            let tracked = self.ledger.tracked();
            for &id in tracked {
                let spent = self.ledger.spent(id);
                let st = self.pace.entry(id as u32).or_insert(PaceState {
                    last_spent: 0.0,
                    ema: 0.0,
                });
                let burned = (spent - st.last_spent).max(0.0);
                st.ema = 0.5 * st.ema + 0.5 * burned;
                st.last_spent = spent;
            }
            self.pace
                .retain(|&id, _| tracked.binary_search(&u64::from(id)).is_ok());
        }
        WindowFeedback {
            p95_age: percentile(ages, 0.95),
            backlog: self.pending.len(),
            pool: self.pool.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::LedgerMode;
    use crate::event::TaskArrival;
    use crate::halo::one_cell;
    use crate::session::ServiceModel;
    use dpta_core::{Task, Worker};
    use dpta_spatial::Point;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeSet;

    const WIDTH: f64 = 60.0;

    /// Matched workers serve 90 s, so they are back two windows later.
    fn config(capacity: f64, ledger: LedgerMode) -> StreamConfig {
        StreamConfig {
            policy: WindowPolicy::ByTime { width: WIDTH },
            worker_capacity: capacity,
            ledger,
            service: ServiceModel::Fixed { secs: 90.0 },
            ..StreamConfig::default()
        }
    }

    fn worker(id: u32, time: f64) -> WorkerArrival {
        WorkerArrival {
            id,
            time,
            worker: Worker::new(Point::new(0.0, 0.0), 1.0),
        }
    }

    /// Window `index` with the given worker arrivals; window 0 also
    /// brings the one task every departure below is matched to.
    fn window(index: usize, workers: Vec<WorkerArrival>) -> Window {
        let start = index as f64 * WIDTH;
        let tasks = if index == 0 {
            vec![TaskArrival {
                id: 0,
                time: 0.0,
                task: Task::new(Point::new(0.5, 0.0), 4.5),
            }]
        } else {
            Vec::new()
        };
        Window {
            index,
            start,
            end: start + WIDTH,
            tasks,
            workers,
        }
    }

    /// The ids of [`Lifecycle::retire`]'s result.
    fn ids(retired: Vec<(u64, usize)>) -> Vec<u64> {
        retired.into_iter().map(|(id, _)| id).collect()
    }

    /// The retirement rules applied to the whole pool and the whole
    /// ledger — what [`Lifecycle::retire`] must return.
    fn full_scan(life: &Lifecycle, cfg: &StreamConfig, departed: &[bool]) -> Vec<u64> {
        if life.ledger.renewable() {
            return Vec::new();
        }
        let mut out: BTreeSet<u64> = life
            .ledger
            .tracked()
            .iter()
            .copied()
            .filter(|&id| life.ledger.is_exhausted(id))
            .collect();
        if life.capped {
            for (at, w) in life.pool.iter().enumerate() {
                let id = u64::from(w.id);
                if !departed[at]
                    && !out.contains(&id)
                    && life.ledger.remaining(id) + 1e-12 < cfg.budget_range.0
                {
                    out.insert(id);
                }
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn returned_worker_below_the_floor_retires_in_the_return_window() {
        let cfg = config(3.0, LedgerMode::Lifetime);
        let mut life = Lifecycle::new(&cfg, true, one_cell(), ShardStrategy::DropPairs);
        life.open(&cfg, &window(0, vec![worker(7, 0.0)]));
        // The last match leaves less than the cheapest release, but the
        // worker departs to serve, so the hard cap skips them this window.
        life.charge(0, 3.0 - cfg.budget_range.0 / 2.0);
        assert_eq!(life.depart(&cfg, WIDTH, 0, 0), Some(WIDTH + 90.0));
        assert!(life.retire(&cfg, vec![true]).is_empty());
        life.open(&cfg, &window(1, Vec::new()));
        assert!(life.retire(&cfg, Vec::new()).is_empty(), "still serving");
        let opened = life.open(&cfg, &window(2, Vec::new()));
        assert_eq!(opened.returned.len(), 1);
        assert_eq!(ids(life.retire(&cfg, vec![false])), vec![7]);
        assert!(life.pool.is_empty() && life.handles.is_empty());
    }

    #[test]
    fn capacity_below_the_floor_retires_every_worker_at_the_first_close() {
        let cfg = config(0.25, LedgerMode::Lifetime);
        assert!(cfg.worker_capacity < cfg.budget_range.0);
        let mut life = Lifecycle::new(&cfg, true, one_cell(), ShardStrategy::DropPairs);
        let arrivals = (1..=3).map(|id| worker(id, 1.0)).collect();
        life.open(&cfg, &window(0, arrivals));
        assert_eq!(ids(life.retire(&cfg, vec![false; 3])), vec![1, 2, 3]);
        assert!(life.pool.is_empty());
        // The same through a session: nobody can afford a release, and
        // each worker retires at the close of their arrival window.
        let engine = dpta_core::Method::Puce.engine(&cfg.params);
        let mut session = crate::StreamSession::new(engine.as_ref(), cfg);
        for (k, id) in [(0.0, 1), (70.0, 2), (130.0, 3)] {
            session.push(crate::ArrivalEvent::Worker(worker(id, k)));
        }
        session.push(crate::ArrivalEvent::Task(TaskArrival {
            id: 0,
            time: 5.0,
            task: Task::new(Point::new(0.5, 0.0), 4.5),
        }));
        let _ = session.close();
        let retired: Vec<(u32, usize)> = session
            .poll_outcomes()
            .into_iter()
            .filter_map(|o| match o {
                crate::Outcome::Retired { worker, window } => Some((worker, window)),
                _ => None,
            })
            .collect();
        assert_eq!(retired, vec![(1, 0), (2, 1), (3, 2)]);
    }

    /// A worker registered with a capacity the ledger already counts as
    /// spent retires at the first close whether or not the hard cap is
    /// on: the drain sees every registration.
    #[test]
    fn registrations_reach_the_drain_uncapped() {
        let cfg = config(1e-13, LedgerMode::Lifetime);
        let mut life = Lifecycle::new(&cfg, false, one_cell(), ShardStrategy::DropPairs);
        life.open(&cfg, &window(0, vec![worker(4, 0.0), worker(9, 0.0)]));
        assert_eq!(ids(life.retire(&cfg, vec![false; 2])), vec![4, 9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Candidate-only retirement equals the full-pool, full-ledger
        // scan under any schedule of arrivals (with capacities above,
        // below and at the floor), re-registrations, charges,
        // departures, returns and snapshot round trips, in every
        // ledger mode.
        #[test]
        fn retirement_equals_the_full_scan(
            mode in 0u8..4,
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..5, 0..4),
                    proptest::collection::vec((0usize..64, 0.0f64..2.5), 0..6),
                    proptest::collection::vec(0usize..64, 0..3),
                    proptest::bool::ANY,
                ),
                1..14,
            ),
        ) {
            let (ledger, warm) = match mode {
                0 => (LedgerMode::Lifetime, true),
                1 => (LedgerMode::Lifetime, false),
                2 => (LedgerMode::Windowed { window_secs: 150.0 }, true),
                _ => (LedgerMode::Windowed { window_secs: f64::INFINITY }, true),
            };
            let cfg = config(3.0, ledger);
            let lo = cfg.budget_range.0;
            let mut life = Lifecycle::new(&cfg, warm, one_cell(), ShardStrategy::DropPairs);
            let mut next_id = 0u32;
            for (index, (kinds, charges, departs, round_trip)) in steps.into_iter().enumerate() {
                let arrivals: Vec<WorkerArrival> = kinds
                    .iter()
                    .map(|_| {
                        next_id += 1;
                        worker(next_id, index as f64 * WIDTH)
                    })
                    .collect();
                life.open(&cfg, &window(index, arrivals.clone()));
                for (w, &kind) in arrivals.iter().zip(&kinds) {
                    let capacity = match kind {
                        0 => 1e-13,
                        1 => 0.5 * lo,
                        2 => 1.5 * lo,
                        3 => 0.75,
                        _ => 3.0,
                    };
                    life.ledger.register(u64::from(w.id), capacity);
                }
                let n = life.pool.len();
                if n > 0 {
                    for &(slot, eps) in &charges {
                        if eps > 0.0 {
                            life.charge(slot % n, eps);
                        }
                    }
                }
                let mut departed = vec![false; n];
                for &slot in departs.iter().filter(|_| n > 0) {
                    let at = slot % n;
                    if !departed[at] {
                        departed[at] = true;
                        life.depart(&cfg, index as f64 * WIDTH + WIDTH, 0, at);
                    }
                }
                let want = full_scan(&life, &cfg, &departed);
                let want_pool: Vec<u32> = life
                    .pool
                    .iter()
                    .enumerate()
                    .filter(|&(at, w)| !departed[at] && want.binary_search(&u64::from(w.id)).is_err())
                    .map(|(_, w)| w.id)
                    .collect();
                let got = ids(life.retire(&cfg, departed));
                prop_assert_eq!(got, want);
                prop_assert_eq!(life.pool.iter().map(|w| w.id).collect::<Vec<_>>(), want_pool);
                for (w, &h) in life.pool.iter().zip(&life.handles) {
                    prop_assert_eq!(life.ledger.resolve(u64::from(w.id)), Some(h));
                }
                if round_trip {
                    let value = life.ledger.serialize_value();
                    life.ledger = Ledger::deserialize_value(&value).expect("round trip");
                    life.rebuild_handles();
                }
            }
        }
    }
}
