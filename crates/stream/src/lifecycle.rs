//! The worker/task lifecycle every window stepper shares.
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
//! The flat stepper ([`SessionCore`](crate::session::SessionCore)) and
//! the halo coordinator ([`HaloCore`](crate::halo::HaloCore)) both call
//! it. It returns plain data (returned workers, admitted and deferred
//! tasks, departures, retired ids, expired tasks) and each caller copies
//! that into its own bookkeeping: one maintained instance, a window
//! report and an outcome log for the flat stepper; per-shard instances
//! and per-home-shard counters for the halo. Because both run the same
//! code, pool and pending order — and so instance shape — agree across
//! flat, drop-pairs and halo execution.

use crate::driver::{PendingTask, StreamConfig};
use crate::event::{TaskArrival, WorkerArrival};
use crate::metrics::{percentile, WindowFeedback};
use crate::window::{Window, WindowPolicy};
use dpta_dp::{BudgetLedger, LedgerState};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// One window's stream-observable signals, handed back to the adaptive
/// window controller after the window settles. Lockstep drop-pairs
/// execution merges one per shard into a single global
/// [`WindowFeedback`], which is what keeps adaptive cuts identical
/// across flat, drop-pairs and halo execution.
pub(crate) struct StepSignals {
    /// Seconds from arrival to window close of every task present in
    /// the window (matched, expired and carried alike).
    pub(crate) ages: Vec<f64>,
    /// Unserved tasks carried out of the window.
    pub(crate) backlog: usize,
    /// Workers on duty after the window settled.
    pub(crate) pool: usize,
}

impl StepSignals {
    /// Merges per-shard signals into the global controller feedback.
    /// The percentile sorts, so shard order never affects the merge —
    /// concatenating shard age vectors reproduces the flat run's
    /// feedback exactly on shard-disjoint input.
    pub(crate) fn merge(signals: &[StepSignals]) -> WindowFeedback {
        let ages: Vec<f64> = signals
            .iter()
            .flat_map(|s| s.ages.iter().copied())
            .collect();
        WindowFeedback {
            p95_age: percentile(&ages, 0.95),
            backlog: signals.iter().map(|s| s.backlog).sum(),
            pool: signals.iter().map(|s| s.pool).sum(),
        }
    }
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

/// The live state of a driven stream and the rules that move entities
/// through it, one window at a time (see the module docs).
pub(crate) struct Lifecycle {
    pub(crate) pool: Vec<WorkerArrival>,
    pub(crate) pending: Vec<PendingTask>,
    /// Tasks held back by admission control: arrived, not yet admitted
    /// into any window, burning no TTL. FIFO — the oldest deferral is
    /// readmitted first once budget frees up.
    pub(crate) deferred: VecDeque<PendingTask>,
    /// Kept sorted by (completion time, id), so re-entry order is a
    /// pure function of the run.
    pub(crate) in_service: VecDeque<InService>,
    pub(crate) cycles: BTreeMap<u32, usize>,
    pub(crate) ledger: LedgerState,
    /// Per-worker pacing state, maintained only under
    /// [`StreamConfig::pacing`].
    pub(crate) pace: BTreeMap<u32, PaceState>,
    /// Warm drives under a finite lifetime capacity: the engine-level
    /// remaining-budget guard is on, so spend never overshoots the cap
    /// and pacing can throttle it.
    pub(crate) capped: bool,
}

impl Lifecycle {
    /// An empty lifecycle under `cfg`; `warm` says whether the engine
    /// resumes from carried boards.
    pub(crate) fn new(cfg: &StreamConfig, warm: bool) -> Self {
        Lifecycle {
            pool: Vec::new(),
            pending: Vec::new(),
            deferred: VecDeque::new(),
            in_service: VecDeque::new(),
            cycles: BTreeMap::new(),
            ledger: cfg.ledger.state(),
            pace: BTreeMap::new(),
            capped: warm && cfg.worker_capacity.is_finite(),
        }
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
        let mut returned = Vec::new();
        while self
            .in_service
            .front()
            .is_some_and(|s| s.return_time < window.end)
        {
            let s = self.in_service.pop_front().expect("front exists");
            self.pool.push(s.worker);
            returned.push(s);
        }
        for w in &window.workers {
            self.ledger.register(u64::from(w.id), cfg.worker_capacity);
            self.pool.push(*w);
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
            None => self.pending.extend(fresh),
            // The window admits only as many tasks as the pool's
            // aggregate remaining budget could plausibly serve; the
            // excess waits outside the window (no TTL burned), oldest
            // deferral first.
            Some(ac) => {
                let mut aggregate = 0.0f64;
                for w in &self.pool {
                    aggregate += self.ledger.remaining(u64::from(w.id));
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
                        self.pending.push(p);
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

    /// Retires exhausted workers and settles the pool: departed and
    /// retired workers leave it. Returns the retired ids, ascending —
    /// pooled or in service alike.
    pub(crate) fn retire(
        &mut self,
        cfg: &StreamConfig,
        departed: impl Fn(u32) -> bool,
    ) -> BTreeSet<u64> {
        // Sliding-window (renewable) accounting never retires: an
        // exhausted worker idles — the remaining-budget guard stops his
        // releases — until old charges age out of the protection
        // window. An infinite protection window is not renewable, so
        // `Windowed { window_secs: ∞ }` retires exactly like lifetime
        // accounting.
        let renewable = self.ledger.renewable();
        let mut retired: BTreeSet<u64> = if renewable {
            BTreeSet::new()
        } else {
            self.ledger.drain_exhausted().into_iter().collect()
        };
        if !renewable && self.capped {
            // The hard cap never overshoots, so spend rarely reaches
            // the capacity exactly; instead a worker is effectively
            // exhausted once his remaining budget cannot cover even the
            // cheapest possible release (the draw range's lower bound).
            for w in &self.pool {
                let id = u64::from(w.id);
                if !departed(w.id)
                    && !retired.contains(&id)
                    && self.ledger.remaining(id) + 1e-12 < cfg.budget_range.0
                {
                    self.ledger.forget(id);
                    retired.insert(id);
                }
            }
        }
        // An in-service worker can exhaust his budget at the very match
        // that sent him out: he finishes the trip he is on but retires
        // instead of returning.
        if !retired.is_empty() {
            self.in_service
                .retain(|s| !retired.contains(&u64::from(s.worker.id)));
        }
        self.pool
            .retain(|w| !departed(w.id) && !retired.contains(&u64::from(w.id)));
        retired
    }

    /// Settles the pending set: tasks flagged in `matched` (indexed by
    /// pending position) leave, survivors age by one window, and the
    /// ones whose time-to-live ran out are removed and returned.
    pub(crate) fn expire(&mut self, matched: &[bool]) -> Vec<PendingTask> {
        let mut expired = Vec::new();
        let mut at = 0usize;
        self.pending.retain_mut(|p| {
            let hit = matched[at];
            at += 1;
            if hit {
                return false;
            }
            p.ttl -= 1;
            if p.ttl == 0 {
                expired.push(*p);
                return false;
            }
            true
        });
        expired
    }

    /// Closes the window: refreshes the pacing forecast from its
    /// realized spend and returns its signals for the adaptive
    /// controller.
    pub(crate) fn close(&mut self, cfg: &StreamConfig, ages: Vec<f64>) -> StepSignals {
        // EMA over the per-window spend delta, clamped at zero: window-
        // `W` reclamation can shrink recorded spend, which is not
        // negative burn.
        if cfg.pacing.is_some() {
            let tracked = self.ledger.tracked_ids();
            for &id in &tracked {
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
        StepSignals {
            ages,
            backlog: self.pending.len(),
            pool: self.pool.len(),
        }
    }
}
