//! The online driver: replays an arrival stream window by window
//! through any [`AssignmentEngine`].
//!
//! Since the session redesign this module is a *drain loop*:
//! [`StreamDriver::run`] opens a push-based
//! [`StreamSession`](crate::StreamSession), hands it the pre-built
//! stream and closes it. All pipeline semantics — windowing, warm
//! starts, lifetime accounting, task TTL, worker re-entry — live in
//! the window stepper (`crate::halo`); this module keeps the
//! configuration type and the id-stable noise/budget plumbing it
//! uses.
//!
//! Each window becomes a PA-TA [`Instance`](dpta_core::Instance) of
//! the tasks waiting and the workers on duty; the engine drives it;
//! matched tasks complete, unmatched tasks carry over until their
//! time-to-live runs out, and a [`Ledger`](dpta_dp::Ledger) charges
//! every worker's *lifetime* privacy budget, retiring workers the moment
//! it is exhausted. Engines that support warm starts resume from the
//! carried protocol state (releases, consumed budget slots) per the
//! [warm-start contract](AssignmentEngine#warm-start-contract);
//! one-shot engines get a fresh board every window. Matched workers
//! serve for a [`ServiceModel`](crate::ServiceModel) duration and
//! re-enter the pool — or depart for good under the default
//! `ServiceModel::Never`.
//!
//! Determinism: budgets and noise are keyed by the stream's *logical*
//! ids, not per-window indices, so the same seed reproduces the same
//! run bit for bit — and a spatially disjoint shard sees exactly the
//! draws it would see inside the unsharded run.

use crate::event::{ArrivalStream, TaskArrival};
use crate::metrics::StreamReport;
use crate::session::{ServiceModel, StreamSession};
use crate::window::WindowPolicy;
use dpta_core::{AssignmentEngine, RunParams};
use dpta_dp::{NoiseSource, SeededBudgets, SeededNoise};
use dpta_workloads::Scenario;
use serde::{Deserialize, Serialize};

/// Dedup of releases already charged to the lifetime accountant.
/// Fresh-board engines re-publish bit-identical releases for pairs
/// still pending from earlier windows (noise and budgets are
/// id-keyed), which reveals nothing new and therefore must not be
/// charged twice. The window stepper keys the same dedup across
/// shards, reconciliation passes and *service cycles* (a returned
/// worker's re-publications are bit-identical too), so a release is
/// charged once no matter how many runs re-derive it.
///
/// Logically this is the set of charged
/// `(worker id, task id, slot, ε-bits)` keys, but the representation
/// exploits two structural invariants of the pipeline instead of
/// storing (and tree-searching) full keys:
///
/// * release sets only append, and every charging sweep enumerates a
///   pair's releases `0..len` — so the charged slots of a pair are
///   always a contiguous prefix, and a per-pair *count* is the whole
///   set;
/// * the ε published at `(worker, task, slot)` is a pure function of
///   those ids (id-keyed noise and budget vectors), so the ε-bits
///   component of the logical key is redundant for pair releases and
///   only whole-location (Geo-I) releases need their bits deduped.
///
/// Workers are interned to dense indices on first charge, making the
/// hot-path cost one small hash probe per charged column (worker id)
/// and one per pair (task id) instead of a `BTreeSet` descent per
/// release over wide tuple keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReleaseDedup {
    /// Worker id → dense index into `workers` (the dedup's interning
    /// table, one deterministic [`dpta_dp::FastMap`] probe per charge).
    index: dpta_dp::FastMap<u32, u32>,
    workers: Vec<WorkerCharges>,
}

/// One worker's charged releases: a contiguous-slot count per task and
/// the distinct whole-location ε bit patterns.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerCharges {
    /// Task id → number of slots already charged (slots `0..count`).
    pairs: dpta_dp::FastMap<u32, u32>,
    /// Whole-location release spends already charged, by exact bits.
    /// Practically 0 or 1 entries (Geo-I publishes one location per
    /// worker lifetime), so a linear scan beats any keyed structure.
    locations: Vec<u64>,
}

impl ReleaseDedup {
    /// The charged releases of worker `wid`, interned on first use.
    pub(crate) fn worker(&mut self, wid: u32) -> &mut WorkerCharges {
        let next = self.workers.len() as u32;
        let idx = *self.index.entry(wid).or_insert(next);
        if idx == next {
            self.workers.push(WorkerCharges::default());
        }
        &mut self.workers[idx as usize]
    }
}

impl WorkerCharges {
    /// Charges slots `0..slots` of the worker's pair with task `tid`
    /// and returns the first slot that was not charged before: slots
    /// from there up to `slots` are novel (none if it is `slots` or
    /// more). Release sets only append, so the charged slots stay a
    /// contiguous prefix.
    pub(crate) fn charge_slots(&mut self, tid: u32, slots: usize) -> usize {
        let count = self.pairs.entry(tid).or_insert(0);
        let first = *count as usize;
        if slots > first {
            *count = slots as u32;
        }
        first
    }

    /// Charges a whole-location (Geo-I) release of `spend_bits` total
    /// ε; returns whether that exact spend was novel.
    pub(crate) fn charge_location(&mut self, spend_bits: u64) -> bool {
        if self.locations.contains(&spend_bits) {
            return false;
        }
        self.locations.push(spend_bits);
        true
    }
}

// Canonical snapshot form: workers sorted by id, each with its pair
// counts sorted by task id and its location bits in charge order. The
// interning order of `index` is unobservable (lookups go through the
// map), so re-interning in sorted order on restore is behaviourally
// identical — and two dedups with the same charges always serialize to
// the same bytes, which the snapshot byte-identity gate relies on.
impl Serialize for ReleaseDedup {
    fn serialize_value(&self) -> serde::Value {
        let mut ids: Vec<u32> = self.index.keys().copied().collect();
        ids.sort_unstable();
        let workers: Vec<serde::Value> = ids
            .iter()
            .map(|wid| {
                let w = &self.workers[self.index[wid] as usize];
                let mut pairs: Vec<(u32, u32)> =
                    w.pairs.iter().map(|(tid, count)| (*tid, *count)).collect();
                pairs.sort_unstable();
                serde::Value::Object(vec![
                    ("id".to_string(), wid.serialize_value()),
                    ("pairs".to_string(), pairs.serialize_value()),
                    ("locations".to_string(), w.locations.serialize_value()),
                ])
            })
            .collect();
        serde::Value::Array(workers)
    }
}

impl Deserialize for ReleaseDedup {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Array(items) = v else {
            return Err(serde::Error::expected("ReleaseDedup array", v));
        };
        let mut dedup = ReleaseDedup::default();
        for item in items {
            let id = item
                .get("id")
                .ok_or_else(|| serde::Error("ReleaseDedup entry missing id".to_string()))?;
            let wid = u32::deserialize_value(id)?;
            if dedup.index.contains_key(&wid) {
                return Err(serde::Error(format!(
                    "ReleaseDedup has duplicate worker id {wid}"
                )));
            }
            let pairs = item
                .get("pairs")
                .ok_or_else(|| serde::Error("ReleaseDedup entry missing pairs".to_string()))?;
            let locations = item
                .get("locations")
                .ok_or_else(|| serde::Error("ReleaseDedup entry missing locations".to_string()))?;
            let charges = dedup.worker(wid);
            for (tid, count) in Vec::<(u32, u32)>::deserialize_value(pairs)? {
                if charges.pairs.insert(tid, count).is_some() {
                    return Err(serde::Error(format!(
                        "ReleaseDedup worker {wid} has duplicate task id {tid}"
                    )));
                }
            }
            charges.locations = Vec::<u64>::deserialize_value(locations)?;
        }
        Ok(dedup)
    }
}

/// Configuration of one stream run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// How arrivals are grouped into batches.
    pub policy: WindowPolicy,
    /// Algorithm parameters (seed, α, β, accounting, fallback).
    pub params: RunParams,
    /// Privacy budget draw range for per-pair budget vectors (Table X).
    /// A wrapped scenario's budget settings do not propagate through
    /// [`StreamScenario`](crate::StreamScenario); use
    /// [`StreamConfig::for_scenario`] to inherit them.
    pub budget_range: (f64, f64),
    /// Budget vector group size `Z` (Table X); see
    /// [`StreamConfig::for_scenario`] for scenario inheritance.
    pub budget_group_size: usize,
    /// Lifetime privacy budget per worker; once cumulative published
    /// spend reaches it the worker is retired. `f64::INFINITY` never
    /// retires anyone.
    ///
    /// For warm-start engines with [`carry_releases`] on (the default),
    /// a finite capacity is a *hard* cap: the driver hands the engine a
    /// remaining-budget guard
    /// ([`AssignmentEngine::resume_capped`](dpta_core::AssignmentEngine::resume_capped)),
    /// so proposals whose ε would overshoot the worker's remaining
    /// lifetime budget are skipped mid-window and the recorded spend
    /// never exceeds the capacity. Because a capped worker stops just
    /// short rather than overshooting, retirement fires once his
    /// remaining budget drops below the cheapest possible release
    /// ([`budget_range`](StreamConfig::budget_range)`.0`) — he could
    /// never publish again. Fresh-board drives (one-shot engines, or
    /// `carry_releases = false`) re-publish already-charged releases
    /// the guard cannot tell apart from novel spend, so there the
    /// capacity stays a retirement threshold checked at window close
    /// and the final window may overshoot.
    ///
    /// The cap follows the worker's logical id across
    /// [`ServiceModel`](crate::ServiceModel) re-entry: a returned
    /// worker resumes with exactly the remaining budget he left with.
    ///
    /// [`carry_releases`]: StreamConfig::carry_releases
    pub worker_capacity: f64,
    /// Windows a task participates in before it expires (≥ 1).
    pub task_ttl: usize,
    /// Carry release history across windows for warm-start engines.
    /// One-shot engines always start fresh regardless.
    pub carry_releases: bool,
    /// How long matched workers serve before re-entering the pool.
    /// [`ServiceModel::Never`](crate::ServiceModel::Never) (the
    /// default) is serve-and-leave: the pre-session pipeline, bit for
    /// bit.
    pub service: ServiceModel,
    /// How per-worker budget spend is accounted over time.
    /// [`LedgerMode::Lifetime`] (the default) is the paper's model:
    /// spend accumulates forever and exhausted workers retire.
    /// [`LedgerMode::Windowed`] reclaims spend older than the
    /// protection window, making workers renewable — they idle while
    /// exhausted instead of retiring, and resume publishing once old
    /// charges age out.
    pub ledger: LedgerMode,
    /// Budget pacing: forecast each worker's per-window burn rate from
    /// the trailing ledger and throttle expensive releases when the
    /// rate would exhaust them within the forecast horizon. Only
    /// active when the engine-level remaining-budget guard is — a
    /// warm-start engine with [`carry_releases`] on and a finite
    /// [`worker_capacity`]. `None` (the default) never throttles.
    ///
    /// [`carry_releases`]: StreamConfig::carry_releases
    /// [`worker_capacity`]: StreamConfig::worker_capacity
    pub pacing: Option<PacingConfig>,
    /// Admission control: when the pool's aggregate remaining budget
    /// cannot serve the backlog, defer excess task admissions into
    /// later windows instead of burning TTL on unmatchable tasks.
    /// Deferred tasks spend no TTL and surface as
    /// [`Outcome::Deferred`](crate::Outcome::Deferred). `None` (the
    /// default) admits everything on arrival.
    pub admission: Option<AdmissionConfig>,
}

/// Budget accounting regime for a stream run: the paper's monotone
/// lifetime depletion, or the sliding-window model of Qiu & Yi
/// (arXiv:2209.01387) where spend older than the protection window is
/// reclaimed and workers become renewable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LedgerMode {
    /// Cumulative lifetime accounting — spend never comes back and
    /// exhausted workers retire forever (the pre-ledger pipeline, bit
    /// for bit).
    Lifetime,
    /// Sliding-window accounting with protection window `window_secs`:
    /// a charge stamped at time `t` is reclaimed once the ledger clock
    /// passes `t + window_secs`. Exhausted workers idle instead of
    /// retiring. Must be positive; an infinite width is accepted and
    /// is bit-identical to [`LedgerMode::Lifetime`] (proptest-pinned).
    Windowed {
        /// Protection window width in stream seconds.
        window_secs: f64,
    },
}

impl LedgerMode {
    /// Builds the matching ledger state, ready to account a stream.
    pub fn state(self) -> dpta_dp::Ledger {
        match self {
            LedgerMode::Lifetime => dpta_dp::Ledger::lifetime(),
            LedgerMode::Windowed { window_secs } => dpta_dp::Ledger::windowed(window_secs),
        }
    }
}

/// Budget-pacing controller settings; see
/// [`StreamConfig::pacing`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacingConfig {
    /// Forecast horizon in windows: a worker whose trailing per-window
    /// burn rate would exhaust their remaining budget within this many
    /// windows has their per-window guard capped to `remaining /
    /// horizon_windows`, stretching the budget across the horizon
    /// (until window-`W` reclamation catches up). Must be ≥ 1.
    pub horizon_windows: usize,
}

/// Admission-control settings; see [`StreamConfig::admission`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Estimated budget cost of serving one task — the divisor turning
    /// the pool's aggregate remaining budget into a serveable-backlog
    /// estimate. Must be finite and positive.
    pub epsilon_per_task: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            policy: WindowPolicy::ByTime { width: 600.0 },
            params: RunParams::default(),
            budget_range: (0.5, 1.75),
            budget_group_size: 7,
            worker_capacity: f64::INFINITY,
            task_ttl: 3,
            carry_releases: true,
            service: ServiceModel::Never,
            ledger: LedgerMode::Lifetime,
            pacing: None,
            admission: None,
        }
    }
}

impl StreamConfig {
    /// A configuration inheriting `scenario`'s seed and privacy-budget
    /// settings (draw range, group size `Z`), every other knob at its
    /// default.
    ///
    /// The driver draws budget vectors itself, keyed by logical pair —
    /// a [`StreamScenario`](crate::StreamScenario) contributes only
    /// locations, values and radii, so the wrapped scenario's budget
    /// fields do **not** ride along on the stream. Build the config
    /// with this constructor when a scenario sweeps them.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_stream::StreamConfig;
    /// use dpta_workloads::Scenario;
    ///
    /// let scenario = Scenario {
    ///     budget_range: (1.0, 3.0),
    ///     budget_group_size: 5,
    ///     seed: 7,
    ///     ..Scenario::default()
    /// };
    /// let cfg = StreamConfig::for_scenario(&scenario);
    /// assert_eq!(cfg.budget_range, (1.0, 3.0));
    /// assert_eq!(cfg.budget_group_size, 5);
    /// assert_eq!(cfg.params.seed, 7);
    /// ```
    pub fn for_scenario(scenario: &Scenario) -> StreamConfig {
        StreamConfig {
            params: RunParams::with_seed(scenario.seed),
            budget_range: scenario.budget_range,
            budget_group_size: scenario.budget_group_size,
            ..StreamConfig::default()
        }
    }

    /// The stream's budget source: every pair's `ε_{i,j}` is drawn from
    /// the logical `(task id, worker id)`, salted off the noise seed.
    pub(crate) fn budget_source(&self) -> SeededBudgets {
        SeededBudgets::new(
            self.params.seed ^ 0x5712_EA11,
            0,
            self.budget_range,
            self.budget_group_size,
        )
    }

    /// Panics with the [`ConfigError`] [`validate`](Self::validate)
    /// returns, if any: every session and driver constructor, and both
    /// `restore`s, call this before they touch the configuration.
    pub(crate) fn assert_runnable(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Validates every knob, returning the offending field on failure —
    /// the one check of the configuration's invariants. Sessions and
    /// drivers panic with its error; call it first to get the typed
    /// [`ConfigError`] instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_stream::{StreamConfig, WindowPolicy};
    ///
    /// let cfg = StreamConfig {
    ///     policy: WindowPolicy::ByTime { width: 300.0 },
    ///     worker_capacity: 2.5,
    ///     task_ttl: 4,
    ///     ..StreamConfig::default()
    /// };
    /// assert_eq!(cfg.validate(), Ok(()));
    ///
    /// let err = StreamConfig {
    ///     policy: WindowPolicy::ByTime { width: 0.0 },
    ///     ..cfg
    /// }
    /// .validate()
    /// .unwrap_err();
    /// assert_eq!(err.field, "policy");
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn err(field: &'static str, message: String) -> Result<(), ConfigError> {
            Err(ConfigError { field, message })
        }
        match self.policy {
            WindowPolicy::ByTime { width } => {
                if !(width > 0.0 && width.is_finite()) {
                    return err(
                        "policy",
                        format!("window width must be positive and finite, got {width}"),
                    );
                }
            }
            WindowPolicy::ByCount { tasks } => {
                if tasks == 0 {
                    return err("policy", "count threshold must be positive".to_string());
                }
            }
            WindowPolicy::Adaptive(p) => {
                if !(p.min_width > 0.0 && p.min_width.is_finite()) {
                    return err(
                        "policy",
                        format!("min_width must be positive and finite, got {}", p.min_width),
                    );
                }
                if !(p.min_width <= p.base_width && p.base_width <= p.max_width) {
                    return err(
                        "policy",
                        format!(
                            "widths must satisfy min <= base <= max, got {} / {} / {}",
                            p.min_width, p.base_width, p.max_width
                        ),
                    );
                }
                if !p.max_width.is_finite() {
                    return err("policy", "max_width must be finite".to_string());
                }
                if p.burst_tasks == 0 {
                    return err("policy", "burst_tasks must be at least 1".to_string());
                }
                if !(p.target_p95 > 0.0 && p.target_p95.is_finite()) {
                    return err(
                        "policy",
                        format!(
                            "target_p95 must be positive and finite, got {}",
                            p.target_p95
                        ),
                    );
                }
            }
        }
        let (lo, hi) = self.budget_range;
        if !(lo > 0.0 && lo <= hi && hi.is_finite()) {
            return err(
                "budget_range",
                format!("budget range must satisfy 0 < low <= high < inf, got ({lo}, {hi})"),
            );
        }
        if self.budget_group_size == 0 {
            return err(
                "budget_group_size",
                "budget group must be non-empty".to_string(),
            );
        }
        if self.worker_capacity.is_nan() || self.worker_capacity <= 0.0 {
            return err(
                "worker_capacity",
                format!(
                    "worker_capacity must be positive, got {}",
                    self.worker_capacity
                ),
            );
        }
        if self.task_ttl == 0 {
            return err("task_ttl", "task_ttl must be at least 1".to_string());
        }
        if let Err(message) = self.service.check() {
            return Err(ConfigError {
                field: "service",
                message,
            });
        }
        if let LedgerMode::Windowed { window_secs } = self.ledger {
            if window_secs.is_nan() || window_secs <= 0.0 {
                return err(
                    "ledger",
                    format!("protection window must be positive, got {window_secs}"),
                );
            }
        }
        if let Some(p) = self.pacing {
            if p.horizon_windows == 0 {
                return err(
                    "pacing",
                    "pacing horizon must be at least 1 window".to_string(),
                );
            }
        }
        if let Some(a) = self.admission {
            if !(a.epsilon_per_task > 0.0 && a.epsilon_per_task.is_finite()) {
                return err(
                    "admission",
                    format!(
                        "epsilon_per_task must be positive and finite, got {}",
                        a.epsilon_per_task
                    ),
                );
            }
        }
        Ok(())
    }
}

/// A configuration [`StreamConfig::validate`] rejects: the offending
/// [`StreamConfig`] field (matching the snapshot layer's
/// `ConfigMismatch { field }` names) and a human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// The `StreamConfig` field that failed validation.
    pub field: &'static str,
    /// Why it was rejected.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid StreamConfig.{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Charges every worker column of a driven `board` with its *novel*
/// releases — the one charge path of the pipeline: every drive of the
/// window stepper (fresh or warm board, with or without re-entry, on
/// one cell or many) charges through it. `charge(j, novel)` is called
/// for each column `j` whose novel spend is positive, ascending in `j`,
/// with that column's releases summed in ledger order — tasks ascending
/// by instance index, the whole-location release last — so flat and
/// sharded runs accumulate per-worker spend bit for bit. Novel means
/// the release was not yet in `charged`; re-derivations of
/// already-charged releases (fresh-board re-publications, reruns,
/// carried history, returned workers) sum to zero. Whole-location
/// releases (Geo-I) are charged once per distinct total spend.
///
/// `pre` holds the board's [`column_publications`] when the drive
/// started. A column whose count did not grow holds only carried
/// releases; each was charged when it was first published, and the
/// dedup outlives snapshots, so the column's novel spend is exactly
/// 0.0 and it is skipped without a look. Charging is therefore
/// proportional to the columns the drive published on.
///
/// [`column_publications`]: dpta_core::Board::column_publications
pub(crate) fn charge_novel(
    board: &dpta_core::Board,
    pre: &[u32],
    worker_ids: &[u32],
    task_ids: &[u32],
    charged: &mut ReleaseDedup,
    mut charge: impl FnMut(usize, f64),
) {
    use dpta_core::board::LOCATION_RELEASE;
    let grown = board.column_publications().iter().zip(pre);
    for (j, _) in grown.enumerate().filter(|(_, (now, was))| now > was) {
        let worker = charged.worker(worker_ids[j]);
        let mut novel = 0.0;
        for t in board.ledger(j).tasks() {
            if t == LOCATION_RELEASE {
                continue;
            }
            if let Some(set) = board.releases(t as usize, j) {
                let releases = set.releases();
                let first = worker.charge_slots(task_ids[t as usize], releases.len());
                for rel in releases.iter().skip(first) {
                    novel += rel.epsilon;
                }
            }
        }
        let loc = board.ledger(j).spent_on(LOCATION_RELEASE);
        if loc > 0.0 && worker.charge_location(loc.to_bits()) {
            novel += loc;
        }
        if novel > 0.0 {
            charge(j, novel);
        }
    }
}

/// Noise keyed by logical ids: per-window instance indices are
/// translated to the stream's stable ids before hashing, so a pair's
/// draws do not depend on which window (or shard) it is evaluated in.
pub(crate) struct IdStableNoise<'a> {
    pub(crate) base: SeededNoise,
    pub(crate) task_ids: &'a [u32],
    pub(crate) worker_ids: &'a [u32],
}

impl NoiseSource for IdStableNoise<'_> {
    fn noise(&self, task: u32, worker: u32, slot: u32, epsilon: f64) -> f64 {
        // Sentinel keys outside the instance (e.g. the Geo-I engine's
        // whole-location releases keyed by `LOCATION_RELEASE`) pass
        // through untranslated.
        let t = self.task_ids.get(task as usize).copied().unwrap_or(task);
        let w = self
            .worker_ids
            .get(worker as usize)
            .copied()
            .unwrap_or(worker);
        self.base.noise(t, w, slot, epsilon)
    }
}

/// A task waiting to be served.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct PendingTask {
    pub(crate) arrival: TaskArrival,
    /// Windows of participation left before expiry.
    pub(crate) ttl: usize,
}

/// Drives an arrival stream through one assignment engine.
///
/// The driver borrows the engine — engines are immutable `Send + Sync`
/// config holders, so one boxed engine can serve many drivers.
///
/// This is the batch-shaped convenience over the push-based
/// [`StreamSession`](crate::StreamSession): [`run`](StreamDriver::run)
/// is exactly "push every event, close". Programs that need the
/// event-at-a-time interface (or the typed
/// [`Outcome`](crate::Outcome) log) open the session directly.
///
/// # Examples
///
/// ```
/// use dpta_core::Method;
/// use dpta_stream::{StreamConfig, StreamDriver, StreamScenario, WindowPolicy};
/// use dpta_workloads::{Dataset, Scenario};
///
/// let stream = StreamScenario::new(Scenario {
///     batch_size: 30,
///     n_batches: 2,
///     ..Scenario::for_dataset(Dataset::Uniform)
/// })
/// .stream();
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 60.0 },
///     ..StreamConfig::default()
/// };
/// let engine = Method::Puce.engine(&cfg.params);
/// let report = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
/// report.assert_conservation();
/// assert!(report.windows.len() > 1);
/// assert!(report.matched() > 0);
/// ```
pub struct StreamDriver<'e> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
}

impl<'e> StreamDriver<'e> {
    /// Creates a driver for `engine` under `cfg`. Panics with the
    /// [`ConfigError`] of any configuration
    /// [`StreamConfig::validate`] rejects.
    pub fn new(engine: &'e dyn AssignmentEngine, cfg: StreamConfig) -> Self {
        cfg.assert_runnable();
        StreamDriver { engine, cfg }
    }

    /// The configuration this driver runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Replays the whole stream and returns the aggregate report — a
    /// thin drain loop over [`StreamSession`](crate::StreamSession):
    /// hand it the built stream, close. The session runs the
    /// adaptive-window feedback loop internally, so one shape drives
    /// all three policies.
    pub fn run(&self, stream: &ArrivalStream) -> StreamReport {
        let mut session = StreamSession::new(self.engine, self.cfg.clone());
        session.0.load(stream);
        session.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrivalEvent, WorkerArrival};
    use crate::metrics::TaskFate;
    use crate::shard::{ShardStrategy, ShardedSession};
    use crate::window::AdaptivePolicy;
    use dpta_core::{Method, Task, Worker};
    use dpta_spatial::{Aabb, GridPartition, Point};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny_stream() -> ArrivalStream {
        let mut events = Vec::new();
        for k in 0..4u32 {
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k,
                time: 0.0,
                worker: Worker::new(Point::new(k as f64, 0.0), 2.0),
            }));
        }
        for k in 0..6u32 {
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k,
                time: 10.0 + 20.0 * k as f64,
                task: Task::new(Point::new((k % 4) as f64, 0.5), 4.5),
            }));
        }
        ArrivalStream::new(events)
    }

    /// Pushes `events` into a session, advances its watermark to `t`
    /// (so its windows cover at least `[0, t]`) and closes it.
    fn run_to(
        engine: &dyn AssignmentEngine,
        cfg: StreamConfig,
        events: Vec<ArrivalEvent>,
        t: f64,
    ) -> StreamReport {
        let mut session = StreamSession::new(engine, cfg);
        for e in events {
            session.push(e);
        }
        session.advance_to(t);
        session.close()
    }

    fn tiny_cfg() -> StreamConfig {
        StreamConfig {
            policy: WindowPolicy::ByTime { width: 50.0 },
            ..StreamConfig::default()
        }
    }

    #[test]
    fn drives_multiple_windows_and_conserves_tasks() {
        let cfg = tiny_cfg();
        let engine = Method::Puce.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg).run(&tiny_stream());
        assert_eq!(report.windows.len(), 3); // horizon 110 s / 50 s
        report.assert_conservation();
        assert!(report.matched() > 0, "PUCE should match something");
        assert_eq!(report.task_arrivals, 6);
        assert_eq!(report.worker_arrivals, 4);
    }

    #[test]
    fn one_shot_engines_run_fresh_each_window() {
        let cfg = tiny_cfg();
        let engine = Method::Grd.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg).run(&tiny_stream());
        report.assert_conservation();
        assert!(report.matched() > 0);
    }

    #[test]
    fn ttl_expires_unserveable_tasks() {
        // One worker far away from every task: nothing can match, so
        // every task must expire after exactly `task_ttl` windows.
        let events = vec![
            ArrivalEvent::Worker(WorkerArrival {
                id: 0,
                time: 0.0,
                worker: Worker::new(Point::new(500.0, 500.0), 1.0),
            }),
            ArrivalEvent::Task(TaskArrival {
                id: 0,
                time: 5.0,
                task: Task::new(Point::new(0.0, 0.0), 4.5),
            }),
        ];
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            task_ttl: 2,
            ..StreamConfig::default()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let report = run_to(engine.as_ref(), cfg, events, 100.0);
        report.assert_conservation();
        assert_eq!(report.matched(), 0);
        assert_eq!(report.expired(), 1);
        // Arrived in window 0, participates in windows 0 and 1, expires
        // at the close of window 1.
        assert_eq!(report.fates[&0], TaskFate::Expired { window: 1 });
    }

    #[test]
    fn capacity_retires_workers() {
        // A worker whose lifetime budget cannot cover even the cheapest
        // release (hard cap: no publication ever) must retire at his
        // first window close — and, being capped, must never publish.
        let mut events = vec![ArrivalEvent::Worker(WorkerArrival {
            id: 0,
            time: 0.0,
            worker: Worker::new(Point::new(0.0, 0.0), 5.0),
        })];
        for k in 0..6u32 {
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k,
                time: 1.0 + k as f64 * 30.0,
                task: Task::new(Point::new(4.9, 0.0), 0.1), // low value: proposals fail
            }));
        }
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 30.0 },
            worker_capacity: 0.25, // below one minimum-budget release
            task_ttl: 1,
            ..StreamConfig::default()
        };
        // PDCE publishes regardless of value (distance objective).
        let engine = Method::Pdce.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg).run(&ArrivalStream::new(events));
        report.assert_conservation();
        assert_eq!(
            report.total_epsilon(),
            0.0,
            "the hard cap must block every release"
        );
        let retired: usize = report.windows.iter().map(|w| w.workers_retired).sum();
        let departed: usize = report.windows.iter().map(|w| w.workers_departed).sum();
        assert_eq!(
            retired + departed,
            1,
            "the worker must leave by retirement or by serving a match"
        );
        if departed == 0 {
            // Once retired, later windows see an empty pool.
            let last = report.windows.last().unwrap();
            assert_eq!(last.workers_available, 0);
        }
    }

    #[test]
    fn identical_republication_is_charged_once() {
        // A Geo-I worker re-publishes the *same* location release every
        // window while a worthless task keeps him unmatched. The repeat
        // is bit-identical (id-keyed noise), reveals nothing new, and
        // must be charged to the lifetime accountant exactly once.
        let events = vec![
            ArrivalEvent::Worker(WorkerArrival {
                id: 0,
                time: 0.0,
                worker: Worker::new(Point::new(0.0, 0.0), 2.0),
            }),
            ArrivalEvent::Task(TaskArrival {
                id: 0,
                time: 5.0,
                // Zero value: the greedy stage never takes the edge, so
                // the task stays pending and the worker stays unmatched.
                task: Task::new(Point::new(1.0, 0.0), 0.0),
            }),
        ];
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            task_ttl: 10,
            ..StreamConfig::default()
        };
        let engine = Method::GeoI.engine(&cfg.params);
        let report = run_to(engine.as_ref(), cfg, events, 49.0);
        report.assert_conservation();
        assert_eq!(report.matched(), 0);
        assert!(report.windows.len() >= 5);
        let first = report.windows[0].epsilon_spent;
        assert!(first > 0.0, "the location release must be charged");
        // Every later window re-publishes the identical release: the
        // publication shows up, the charge does not.
        for w in &report.windows[1..] {
            assert_eq!(w.epsilon_spent, 0.0, "window {} re-charged", w.index);
            assert!(w.publications > 0, "window {} did not republish", w.index);
        }
        assert!((report.total_epsilon() - first).abs() < 1e-12);
    }

    #[test]
    fn same_seed_reproduces_the_run() {
        let cfg = tiny_cfg();
        let engine = Method::Pgt.engine(&cfg.params);
        let a = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&tiny_stream());
        let b = StreamDriver::new(engine.as_ref(), cfg).run(&tiny_stream());
        assert_eq!(a.without_timing(), b.without_timing());
    }

    #[test]
    fn carry_can_be_disabled() {
        let cfg = StreamConfig {
            carry_releases: false,
            ..tiny_cfg()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg).run(&tiny_stream());
        report.assert_conservation();
    }

    /// One configuration per `validate` rule, each breaking only that
    /// rule, with the field it names.
    fn broken_configs() -> Vec<(&'static str, StreamConfig)> {
        let with = |f: fn(&mut StreamConfig)| {
            let mut cfg = StreamConfig::default();
            f(&mut cfg);
            cfg
        };
        let adaptive = |f: fn(&mut AdaptivePolicy)| {
            let mut p = AdaptivePolicy::default();
            f(&mut p);
            StreamConfig {
                policy: WindowPolicy::Adaptive(p),
                ..StreamConfig::default()
            }
        };
        vec![
            (
                "policy",
                with(|c| c.policy = WindowPolicy::ByTime { width: 0.0 }),
            ),
            (
                "policy",
                with(|c| {
                    c.policy = WindowPolicy::ByTime {
                        width: f64::INFINITY,
                    }
                }),
            ),
            (
                "policy",
                with(|c| c.policy = WindowPolicy::ByCount { tasks: 0 }),
            ),
            ("policy", adaptive(|p| p.min_width = 0.0)),
            ("policy", adaptive(|p| p.base_width = 1.0)),
            ("policy", adaptive(|p| p.max_width = f64::INFINITY)),
            ("policy", adaptive(|p| p.burst_tasks = 0)),
            ("policy", adaptive(|p| p.target_p95 = f64::NAN)),
            ("budget_range", with(|c| c.budget_range = (0.0, 1.0))),
            ("budget_range", with(|c| c.budget_range = (2.0, 1.0))),
            (
                "budget_range",
                with(|c| c.budget_range = (0.5, f64::INFINITY)),
            ),
            ("budget_group_size", with(|c| c.budget_group_size = 0)),
            ("worker_capacity", with(|c| c.worker_capacity = 0.0)),
            ("worker_capacity", with(|c| c.worker_capacity = f64::NAN)),
            ("task_ttl", with(|c| c.task_ttl = 0)),
            (
                "service",
                with(|c| c.service = ServiceModel::Fixed { secs: 0.0 }),
            ),
            (
                "ledger",
                with(|c| c.ledger = LedgerMode::Windowed { window_secs: 0.0 }),
            ),
            (
                "pacing",
                with(|c| c.pacing = Some(PacingConfig { horizon_windows: 0 })),
            ),
            (
                "admission",
                with(|c| {
                    c.admission = Some(AdmissionConfig {
                        epsilon_per_task: -1.0,
                    })
                }),
            ),
        ]
    }

    /// Asserts that `construct` panics with a message naming `field`.
    fn assert_panics_naming(field: &str, name: &str, construct: impl FnOnce()) {
        let Err(payload) = catch_unwind(AssertUnwindSafe(construct)) else {
            panic!("{name} accepted a broken {field}");
        };
        let message = match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        };
        assert!(
            message.contains(field),
            "{name} panicked without naming {field}: {message}"
        );
    }

    #[test]
    fn every_session_constructor_rejects_what_validate_rejects() {
        let engine = Method::Grd.engine(&RunParams::default());
        let engine = engine.as_ref();
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 2);
        let halo = ShardStrategy::Halo;
        let flat_snap = StreamSession::new(engine, StreamConfig::default()).snapshot();
        let halo_snap =
            ShardedSession::new(engine, StreamConfig::default(), &part, halo).snapshot();
        for (field, cfg) in broken_configs() {
            let err = cfg.validate().expect_err(field);
            assert_eq!(err.field, field, "{err}");
            let cfg = || cfg.clone();
            assert_panics_naming(field, "StreamSession::new", || {
                StreamSession::new(engine, cfg());
            });
            assert_panics_naming(field, "ShardedSession::new", || {
                ShardedSession::new(engine, cfg(), &part, halo);
            });
            assert_panics_naming(field, "StreamDriver::new", || {
                StreamDriver::new(engine, cfg());
            });
            assert_panics_naming(field, "StreamSession::restore", || {
                let _ = StreamSession::restore(engine, cfg(), &flat_snap);
            });
            assert_panics_naming(field, "ShardedSession::restore", || {
                let _ = ShardedSession::restore(engine, cfg(), &part, halo, &halo_snap);
            });
        }
    }
}
