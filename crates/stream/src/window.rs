//! Windowing: turning the arrival log into a sequence of batches.
//!
//! The paper batches "at most 1000 orders ... by timestamp"
//! (Section VII-B); a [`WindowPolicy`] generalises that into the two
//! standard streaming triggers — a fixed time width or a task-count
//! threshold — plus an *adaptive* latency-targeting controller
//! ([`WindowPolicy::Adaptive`]). One incremental former,
//! [`WindowFormer`], cuts the windows for every driving mode: flat
//! sessions, drop-pairs and the halo protocol.
//!
//! Static cuts are pure functions of the event timestamps; the
//! adaptive policy is a *feedback loop* — the stepper hands realized
//! backlog/latency back to the controller after every window, and the
//! controller decides where the next cut lands. Everything it consumes
//! is deterministic replay state (never wall-clock time), so adaptive
//! runs stay bit-for-bit reproducible and the sharded/halo equivalence
//! gates keep holding.

use crate::event::{ArrivalEvent, ArrivalStream, TaskArrival, WorkerArrival};
use crate::metrics::{WindowCutDecision, WindowFeedback};
use crate::snapshot::SnapshotError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// When a window closes.
///
/// # Examples
///
/// ```
/// use dpta_core::{Method, Task};
/// use dpta_spatial::Point;
/// use dpta_stream::{ArrivalEvent, StreamConfig, StreamSession, TaskArrival, WindowPolicy};
///
/// // Six tasks, one every 10 s; the tasks that land in each window.
/// let tasks_per_window = |policy| {
///     let cfg = StreamConfig { policy, ..StreamConfig::default() };
///     let engine = Method::Grd.engine(&cfg.params);
///     let mut session = StreamSession::new(engine.as_ref(), cfg);
///     for k in 0..6 {
///         session.push(ArrivalEvent::Task(TaskArrival {
///             id: k,
///             time: k as f64 * 10.0,
///             task: Task::new(Point::new(0.0, 0.0), 1.0),
///         }));
///     }
///     let report = session.close();
///     report.windows.iter().map(|w| w.tasks_arrived).collect::<Vec<_>>()
/// };
/// // Time windows of 25 s: [0,25) holds 3 arrivals, [25,50) two, [50,75) one.
/// assert_eq!(tasks_per_window(WindowPolicy::ByTime { width: 25.0 }), vec![3, 2, 1]);
/// // Count windows of 4 tasks close as soon as the threshold fills.
/// assert_eq!(tasks_per_window(WindowPolicy::ByCount { tasks: 4 }), vec![4, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// Fixed-width time windows `[k·width, (k+1)·width)` anchored at
    /// `t = 0`. Boundaries are global, so every shard of a partitioned
    /// stream forms the *same* windows — the property the sharded mode
    /// relies on for exact agreement with unsharded execution.
    ByTime {
        /// Window width in seconds.
        width: f64,
    },
    /// A window closes as soon as it holds `tasks` task arrivals (the
    /// paper's "at most 1000 orders" trigger). Boundaries depend on the
    /// events, so sharded runs form different windows than unsharded
    /// ones; use [`WindowPolicy::ByTime`] when the two must agree.
    ByCount {
        /// Task arrivals per window.
        tasks: usize,
    },
    /// Latency-targeting adaptive windows: a damped PID controller
    /// starts from [`AdaptivePolicy::base_width`], closes a window
    /// early when within-window task arrivals hit the burst threshold
    /// (and the pool can absorb them), narrows under latency
    /// overshoots in proportion to how far observed waiting ages
    /// exceed the p95 target, widens under pool starvation, and steers
    /// back toward the base width once the backlog clears. Driven by
    /// each window's realized feedback. Sharded and halo execution
    /// window the *merged global* stream with one shared controller, so
    /// all three driving modes form identical windows.
    Adaptive(AdaptivePolicy),
}

// Hand-written externally-tagged representation: the `Adaptive` variant
// is a newtype, which the derive does not cover. Struct variants use
// the derive's `{"Variant": {fields...}}` shape so the three encodings
// stay uniform in snapshot files.
impl Serialize for WindowPolicy {
    fn serialize_value(&self) -> serde::Value {
        let (tag, body) = match self {
            WindowPolicy::ByTime { width } => (
                "ByTime",
                serde::Value::Object(vec![("width".to_string(), width.serialize_value())]),
            ),
            WindowPolicy::ByCount { tasks } => (
                "ByCount",
                serde::Value::Object(vec![("tasks".to_string(), tasks.serialize_value())]),
            ),
            WindowPolicy::Adaptive(p) => ("Adaptive", p.serialize_value()),
        };
        serde::Value::Object(vec![(tag.to_string(), body)])
    }
}

impl Deserialize for WindowPolicy {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(fields) = v else {
            return Err(serde::Error::expected("WindowPolicy object", v));
        };
        if fields.len() != 1 {
            return Err(serde::Error::expected("single-variant WindowPolicy", v));
        }
        let (tag, body) = &fields[0];
        match tag.as_str() {
            "ByTime" => {
                let width = body
                    .get("width")
                    .ok_or_else(|| serde::Error("ByTime missing width".to_string()))?;
                Ok(WindowPolicy::ByTime {
                    width: f64::deserialize_value(width)?,
                })
            }
            "ByCount" => {
                let tasks = body
                    .get("tasks")
                    .ok_or_else(|| serde::Error("ByCount missing tasks".to_string()))?;
                Ok(WindowPolicy::ByCount {
                    tasks: usize::deserialize_value(tasks)?,
                })
            }
            "Adaptive" => Ok(WindowPolicy::Adaptive(AdaptivePolicy::deserialize_value(
                body,
            )?)),
            other => Err(serde::Error(format!(
                "unknown WindowPolicy variant {other:?}"
            ))),
        }
    }
}

/// Tuning knobs of [`WindowPolicy::Adaptive`].
///
/// The controller trades assignment utility against matching latency:
/// wide windows batch more options per assignment round (better
/// matchings, longer task lifetimes under a window-counted TTL), short
/// windows bound how long an arrival waits for its first matching
/// attempt. Widths always stay inside `[min_width, max_width]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicy {
    /// Width the controller starts from (and reports as
    /// [`WindowCutDecision::Scheduled`] when running at it).
    pub base_width: f64,
    /// Floor when narrowing under a latency overshoot.
    pub min_width: f64,
    /// Ceiling when widening under pool starvation.
    pub max_width: f64,
    /// Close the forming window early once it holds this many task
    /// arrivals — unless the last feedback said the pool was starved
    /// (cutting early with nobody to match just burns task TTL).
    pub burst_tasks: usize,
    /// Target p95 of task waiting age at window close, seconds. The
    /// controller narrows the width while observations overshoot it,
    /// in proportion to the size of the overshoot.
    pub target_p95: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            base_width: 600.0,
            min_width: 75.0,
            max_width: 2400.0,
            burst_tasks: 20,
            target_p95: 240.0,
        }
    }
}

impl AdaptivePolicy {
    fn validate(&self) {
        assert!(
            self.min_width > 0.0 && self.min_width.is_finite(),
            "min_width must be positive and finite, got {}",
            self.min_width
        );
        assert!(
            self.min_width <= self.base_width && self.base_width <= self.max_width,
            "widths must satisfy min <= base <= max, got {} / {} / {}",
            self.min_width,
            self.base_width,
            self.max_width
        );
        assert!(self.max_width.is_finite(), "max_width must be finite");
        assert!(self.burst_tasks >= 1, "burst_tasks must be at least 1");
        assert!(
            self.target_p95 > 0.0 && self.target_p95.is_finite(),
            "target_p95 must be positive and finite, got {}",
            self.target_p95
        );
    }
}

/// One closed window: its nominal time span and the arrivals in it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Window {
    /// Window sequence number, from zero.
    pub(crate) index: usize,
    /// Nominal start time (inclusive).
    pub(crate) start: f64,
    /// Nominal end time (exclusive for [`WindowPolicy::ByTime`],
    /// the closing arrival's timestamp for [`WindowPolicy::ByCount`]).
    pub(crate) end: f64,
    /// Task arrivals of this window, in stream order.
    pub(crate) tasks: Vec<TaskArrival>,
    /// Worker arrivals of this window, in stream order.
    pub(crate) workers: Vec<WorkerArrival>,
}

/// Hard ceiling on generated windows: a width far below the stream's
/// time scale would otherwise materialise millions of empty windows
/// (and drive each of them) before anyone notices the mistake.
pub const MAX_WINDOWS: usize = 1 << 20;

/// Proportional gain of the width controller.
const KP: f64 = 0.5;
/// Integral gain: accumulated error keeps pushing while a condition
/// persists, so a sustained overshoot still reaches the floor (and a
/// sustained starvation the ceiling) even though single steps are
/// gentler than the old halve/double rule.
const KI: f64 = 0.25;
/// Derivative gain: damps the response when the error is already
/// shrinking, so the width does not slosh between the starvation and
/// overshoot regimes on bursty streams.
const KD: f64 = 0.125;
/// Anti-windup clamp on the accumulated error (in doublings).
const INTEGRAL_CLAMP: f64 = 2.0;

/// The adaptive controller's mutable half: current width, the last
/// feedback's starvation flag (which gates the burst cut), and the
/// damped-PID state driving width updates, stepped by the
/// [`WindowFormer`].
///
/// The control variable is `log2(width)`: each update multiplies the
/// width by `2^u`, where `u` is the clamped PID response to an error
/// signal measured in doublings. Calm feedback at the base width
/// produces an error of exactly `0.0`, so a never-perturbed controller
/// reproduces the `ByTime` sequence bit for bit — the degeneration
/// gates depend on that.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveController {
    pub(crate) policy: AdaptivePolicy,
    pub(crate) width: f64,
    pub(crate) starved: bool,
    /// Accumulated clamped error — the I term's memory.
    integral: f64,
    /// Previous error — the D term's memory.
    prev_error: f64,
}

/// The serializable mutable state of an [`AdaptiveController`]: every
/// field that is not a pure function of the policy. Snapshots capture
/// this so a restored controller resumes the PID trajectory bit for
/// bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ControllerState {
    pub(crate) width: f64,
    pub(crate) starved: bool,
    pub(crate) integral: f64,
    pub(crate) prev_error: f64,
}

impl AdaptiveController {
    pub(crate) fn new(policy: AdaptivePolicy) -> Self {
        policy.validate();
        AdaptiveController {
            policy,
            width: policy.base_width,
            starved: false,
            integral: 0.0,
            prev_error: 0.0,
        }
    }

    /// The controller's mutable state, for session snapshots.
    pub(crate) fn state(&self) -> ControllerState {
        ControllerState {
            width: self.width,
            starved: self.starved,
            integral: self.integral,
            prev_error: self.prev_error,
        }
    }

    /// Rebuilds a controller mid-trajectory from a snapshotted state.
    pub(crate) fn from_state(policy: AdaptivePolicy, state: ControllerState) -> Self {
        let mut c = AdaptiveController::new(policy);
        c.width = state.width.clamp(policy.min_width, policy.max_width);
        c.starved = state.starved;
        c.integral = state.integral;
        c.prev_error = state.prev_error;
        c
    }

    /// Applies one round of feedback. Starvation wins over the latency
    /// target: with no workers to match, narrow windows cannot reduce
    /// matched latency — they only burn task TTL — so the controller
    /// widens to accumulate arriving workers (error `+1`). Otherwise a
    /// waiting-age overshoot narrows in proportion to its size (error
    /// `-log2(p95/target)`, at most one halving per step). Calm
    /// feedback with tasks still in flight freezes the controller — a
    /// calm narrow width keeps their latency low for free, so giving
    /// width back would only re-trade latency for cost. Only once the
    /// backlog clears does the width steer back toward the base (a
    /// bit-exact no-op when it already sits there): nobody is waiting,
    /// so the relaxation is free.
    pub(crate) fn observe(&mut self, fb: &WindowFeedback) {
        self.starved = fb.backlog > fb.pool && fb.backlog > 0;
        let error = if self.starved {
            1.0
        } else if fb.p95_age > self.policy.target_p95 {
            (-(fb.p95_age / self.policy.target_p95).log2()).clamp(-1.0, 0.0)
        } else if fb.backlog == 0 {
            (self.policy.base_width / self.width)
                .log2()
                .clamp(-1.0, 1.0)
        } else {
            // Calm with work in flight: hold the width and the PID
            // memory exactly as they are.
            return;
        };
        self.apply(error);
    }

    /// The burst-cut width adjustment: the count trigger firing before
    /// the time trigger is direct evidence the width is too wide for
    /// the current arrival rate, so the cut feeds a full-halving error
    /// into the controller. Without it, every burst's tail waits out
    /// one more full-width window before the latency feedback lands.
    pub(crate) fn burst_narrow(&mut self) {
        self.apply(-1.0);
    }

    /// One damped PID step over the log-width control variable.
    fn apply(&mut self, error: f64) {
        let derivative = error - self.prev_error;
        self.prev_error = error;
        self.integral = (self.integral + error).clamp(-INTEGRAL_CLAMP, INTEGRAL_CLAMP);
        let u = (KP * error + KI * self.integral + KD * derivative).clamp(-1.0, 1.0);
        self.width = (self.width * u.exp2()).clamp(self.policy.min_width, self.policy.max_width);
    }

    /// The decision label for a window of the current width.
    pub(crate) fn width_decision(&self) -> WindowCutDecision {
        if self.width < self.policy.base_width {
            WindowCutDecision::Narrowed
        } else if self.width > self.policy.base_width {
            WindowCutDecision::Widened
        } else {
            WindowCutDecision::Scheduled
        }
    }
}

/// The serializable state of a [`WindowFormer`]: the buffered events
/// still waiting for their window, the watermark/grid cursors, and the
/// adaptive controller's PID state. The policy and configured horizon
/// are *not* here — they are reconstructed from the restore-time
/// [`StreamConfig`], which a snapshot validates against field by field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FormerSnapshot {
    pub(crate) buffer: VecDeque<ArrivalEvent>,
    pub(crate) watermark: f64,
    pub(crate) next_start: f64,
    pub(crate) index: usize,
    pub(crate) controller: Option<ControllerState>,
    pub(crate) last_decision: WindowCutDecision,
    pub(crate) max_event_time: f64,
    pub(crate) any_input: bool,
}

/// The window former: buffers pushed events in stream order and cuts
/// them into [`Window`]s as the watermark passes their close — or, in
/// drain mode, until every event is consumed and the span is covered
/// (trailing empty windows included). For [`WindowPolicy::Adaptive`]
/// the caller feeds each driven window's signals back through
/// [`observe`](WindowFormer::observe) before asking for the next cut.
/// Every driving mode windows through it, so cuts depend only on the
/// events and the feedback, never on how the caller interleaves pushes
/// and watermark advances.
pub(crate) struct WindowFormer {
    policy: WindowPolicy,
    /// Buffered events, sorted by `(time, workers-before-tasks, id)` —
    /// the [`ArrivalStream`](crate::ArrivalStream) order.
    pub(crate) buffer: VecDeque<ArrivalEvent>,
    pub(crate) watermark: f64,
    next_start: f64,
    index: usize,
    controller: Option<AdaptiveController>,
    last_decision: WindowCutDecision,
    /// Highest event timestamp seen.
    max_event_time: f64,
    /// Explicit horizon from the configuration.
    pub(crate) horizon: Option<f64>,
    /// Anything observed at all (events, an advanced watermark, or an
    /// explicit horizon): an untouched session closes to zero windows.
    pub(crate) any_input: bool,
}

impl WindowFormer {
    pub(crate) fn new(policy: WindowPolicy, horizon: Option<f64>) -> Self {
        let controller = match policy {
            WindowPolicy::Adaptive(p) => Some(AdaptiveController::new(p)),
            WindowPolicy::ByTime { width } => {
                assert!(
                    width > 0.0 && width.is_finite(),
                    "window width must be positive, got {width}"
                );
                None
            }
            WindowPolicy::ByCount { tasks } => {
                assert!(tasks > 0, "count threshold must be positive");
                None
            }
        };
        WindowFormer {
            policy,
            buffer: VecDeque::new(),
            watermark: 0.0,
            next_start: 0.0,
            index: 0,
            controller,
            last_decision: WindowCutDecision::Scheduled,
            max_event_time: 0.0,
            horizon,
            any_input: horizon.is_some(),
        }
    }

    /// Captures the windower's state for a session snapshot.
    pub(crate) fn snapshot(&self) -> FormerSnapshot {
        FormerSnapshot {
            buffer: self.buffer.clone(),
            watermark: self.watermark,
            next_start: self.next_start,
            index: self.index,
            controller: self.controller.as_ref().map(AdaptiveController::state),
            last_decision: self.last_decision,
            max_event_time: self.max_event_time,
            any_input: self.any_input,
        }
    }

    /// Rebuilds a windower mid-stream from a snapshot, under the
    /// restore-time policy and horizon (already validated to match the
    /// snapshotted configuration).
    pub(crate) fn from_snapshot(
        policy: WindowPolicy,
        horizon: Option<f64>,
        snap: &FormerSnapshot,
    ) -> Result<Self, SnapshotError> {
        let mut w = WindowFormer::new(policy, horizon);
        w.controller = match (&policy, &snap.controller) {
            (WindowPolicy::Adaptive(p), Some(state)) => {
                Some(AdaptiveController::from_state(*p, *state))
            }
            (WindowPolicy::Adaptive(_), None) => {
                return Err(SnapshotError::Malformed(
                    "adaptive policy but no controller state in snapshot".to_string(),
                ))
            }
            (_, Some(_)) => {
                return Err(SnapshotError::Malformed(
                    "controller state in snapshot under a static policy".to_string(),
                ))
            }
            (_, None) => None,
        };
        let sorted = snap
            .buffer
            .iter()
            .zip(snap.buffer.iter().skip(1))
            .all(|(a, b)| (a.time(), a.kind_rank(), a.id()) <= (b.time(), b.kind_rank(), b.id()));
        if !sorted {
            return Err(SnapshotError::Malformed(
                "windower buffer is not in stream order".to_string(),
            ));
        }
        w.buffer = snap.buffer.clone();
        w.watermark = snap.watermark;
        w.next_start = snap.next_start;
        w.index = snap.index;
        w.last_decision = snap.last_decision;
        w.max_event_time = snap.max_event_time;
        w.any_input = snap.any_input || w.any_input;
        Ok(w)
    }

    pub(crate) fn observe(&mut self, fb: &WindowFeedback) {
        if let Some(c) = self.controller.as_mut() {
            c.observe(fb);
        }
    }

    /// Moves the watermark up to `t` (callers keep it monotone).
    pub(crate) fn advance(&mut self, t: f64) {
        self.watermark = t;
        self.any_input = true;
    }

    /// Steps every ready window (see [`next_ready`](Self::next_ready))
    /// through `step`, feeding the feedback it returns to the adaptive
    /// controller before the next cut.
    pub(crate) fn drive(
        &mut self,
        drain: bool,
        mut step: impl FnMut(&Window, WindowCutDecision) -> WindowFeedback,
    ) {
        while let Some(window) = self.next_ready(drain) {
            let fb = step(&window, self.last_decision);
            self.observe(&fb);
        }
    }

    pub(crate) fn push(&mut self, event: ArrivalEvent) {
        self.any_input = true;
        self.max_event_time = self.max_event_time.max(event.time());
        // Insertion keeps the stream sort order; pushes are usually
        // near the tail, so walk back from the end.
        let key = |e: &ArrivalEvent| (e.time(), e.kind_rank(), e.id());
        let k = key(&event);
        let mut pos = self.buffer.len();
        while pos > 0 && key(&self.buffer[pos - 1]) > k {
            pos -= 1;
        }
        self.buffer.insert(pos, event);
    }

    /// Appends a built stream, whose events are already in stream
    /// order, to a former nothing has been pushed to.
    pub(crate) fn load(&mut self, stream: &ArrivalStream) {
        debug_assert!(self.buffer.is_empty(), "load into a fed former");
        self.buffer.extend(stream.events());
        self.any_input |= !stream.events().is_empty();
        self.max_event_time = self.max_event_time.max(stream.horizon());
    }

    /// Last instant the window sequence must cover once closing.
    pub(crate) fn span(&self) -> f64 {
        self.max_event_time
            .max(self.horizon.unwrap_or(0.0))
            .max(self.watermark)
    }

    /// The next window that is certainly complete: bounded by the
    /// watermark in streaming mode, by the span in drain mode.
    fn next_ready(&mut self, drain: bool) -> Option<Window> {
        if !self.any_input {
            return None;
        }
        assert!(
            self.index <= MAX_WINDOWS,
            "windowing generated more than {MAX_WINDOWS} windows — widen the window"
        );
        match self.policy {
            WindowPolicy::ByTime { width } => self.next_by_time(width, drain),
            WindowPolicy::ByCount { tasks } => self.next_by_count(tasks, drain),
            WindowPolicy::Adaptive(_) => self.next_adaptive(drain),
        }
    }

    fn take_window(&mut self, start: f64, end: f64, upto: usize) -> Window {
        let n_tasks = self
            .buffer
            .iter()
            .take(upto)
            .filter(|e| matches!(e, ArrivalEvent::Task(_)))
            .count();
        let mut window = Window {
            index: self.index,
            start,
            end,
            tasks: Vec::with_capacity(n_tasks),
            workers: Vec::with_capacity(upto - n_tasks),
        };
        for e in self.buffer.drain(..upto) {
            match e {
                ArrivalEvent::Task(t) => window.tasks.push(t),
                ArrivalEvent::Worker(w) => window.workers.push(w),
            }
        }
        self.index += 1;
        self.next_start = end;
        window
    }

    fn next_by_time(&mut self, width: f64, drain: bool) -> Option<Window> {
        // Boundaries are `k·width`, never accumulated addition: for
        // widths with no exact binary representation an accumulated
        // `end + width` drifts off the grid after a few windows, and
        // boundary-timed events would then land in windows their
        // timestamps alone do not predict.
        let start = self.index as f64 * width;
        let end = (self.index + 1) as f64 * width;
        // Fail fast on degenerate widths instead of grinding through
        // 2^20 driven windows before the index backstop fires.
        let covered = if drain { self.span() } else { self.watermark };
        assert!(
            covered / width < MAX_WINDOWS as f64,
            "width {width} s over a {covered} s span would generate more than \
             {MAX_WINDOWS} windows — widen the window"
        );
        if drain {
            if self.buffer.is_empty() && start > self.span() {
                return None;
            }
        } else if end > self.watermark {
            return None;
        }
        let upto = self.buffer.partition_point(|e| e.time() < end);
        self.last_decision = WindowCutDecision::Scheduled;
        Some(self.take_window(start, end, upto))
    }

    fn next_by_count(&mut self, tasks: usize, drain: bool) -> Option<Window> {
        // The n-th buffered task closes the window at its timestamp;
        // everything after it in stream order (ties included) falls to
        // the next window.
        let mut seen = 0usize;
        let mut cut: Option<(usize, f64)> = None;
        for (k, e) in self.buffer.iter().enumerate() {
            if let ArrivalEvent::Task(t) = e {
                seen += 1;
                if seen == tasks {
                    cut = Some((k, t.time));
                    break;
                }
            }
        }
        self.last_decision = WindowCutDecision::Scheduled;
        match cut {
            // Streaming mode can only cut strictly below the watermark:
            // a still-unpushed event could tie with the closing task.
            Some((k, t)) if drain || t < self.watermark => {
                Some(self.take_window(self.next_start, t, k + 1))
            }
            _ if drain && !self.buffer.is_empty() => {
                // Final partial window: everything left, closed at the
                // covered span.
                let end = self.span().max(self.next_start);
                let upto = self.buffer.len();
                Some(self.take_window(self.next_start, end, upto))
            }
            _ => None,
        }
    }

    fn next_adaptive(&mut self, drain: bool) -> Option<Window> {
        let controller = self.controller.as_ref().expect("adaptive former");
        let start = self.next_start;
        let sched_end = start + controller.width;
        let complete = drain || sched_end <= self.watermark;
        if drain && self.buffer.is_empty() && start > self.span() {
            return None;
        }
        // Scan for a burst cut among events that are certainly final:
        // all of them when the scheduled end is covered, only those
        // strictly below the watermark otherwise.
        let limit = if complete {
            sched_end
        } else {
            self.watermark.min(sched_end)
        };
        let mut cut: Option<(usize, f64)> = None;
        if !controller.starved {
            let mut seen = 0usize;
            for (k, e) in self.buffer.iter().enumerate() {
                if e.time() >= limit {
                    break;
                }
                if let ArrivalEvent::Task(t) = e {
                    seen += 1;
                    if seen == controller.policy.burst_tasks {
                        cut = Some((k, t.time));
                        break;
                    }
                }
            }
        }
        match cut {
            Some((k, t)) => {
                // ByCount-style cut: the closing task's time is the
                // boundary, and the cut also narrows the width through
                // the controller — the count trigger firing first is
                // direct evidence the width is too wide for the
                // current arrival rate.
                let c = self.controller.as_mut().expect("adaptive former");
                c.burst_narrow();
                self.last_decision = WindowCutDecision::Burst;
                Some(self.take_window(start, t, k + 1))
            }
            None if complete => {
                let decision = controller.width_decision();
                let upto = self.buffer.partition_point(|e| e.time() < sched_end);
                self.last_decision = decision;
                Some(self.take_window(start, sched_end, upto))
            }
            None => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpta_core::{Task, Worker};
    use dpta_spatial::Point;

    fn task(id: u32, time: f64) -> ArrivalEvent {
        ArrivalEvent::Task(TaskArrival {
            id,
            time,
            task: Task::new(Point::new(0.0, 0.0), 1.0),
        })
    }

    fn worker(id: u32, time: f64) -> ArrivalEvent {
        ArrivalEvent::Worker(WorkerArrival {
            id,
            time,
            worker: Worker::new(Point::new(0.0, 0.0), 1.0),
        })
    }

    /// A former holding `events`, ready to drain.
    fn former(policy: WindowPolicy, events: &[ArrivalEvent], horizon: Option<f64>) -> WindowFormer {
        let mut former = WindowFormer::new(policy, horizon);
        for &e in events {
            former.push(e);
        }
        former
    }

    /// Every window of a drain that feeds no feedback back.
    fn drain_windows(
        policy: WindowPolicy,
        events: &[ArrivalEvent],
        horizon: Option<f64>,
    ) -> Vec<Window> {
        let mut former = former(policy, events, horizon);
        std::iter::from_fn(|| former.next_ready(true)).collect()
    }

    fn tiny_adaptive() -> AdaptivePolicy {
        AdaptivePolicy {
            base_width: 10.0,
            min_width: 2.5,
            max_width: 40.0,
            burst_tasks: 3,
            target_p95: 8.0,
        }
    }

    #[test]
    fn time_windows_include_interior_empties() {
        let w = drain_windows(
            WindowPolicy::ByTime { width: 10.0 },
            &[task(0, 5.0), task(1, 35.0)],
            None,
        );
        assert_eq!(w.len(), 4); // [0,10) [10,20) [20,30) [30,40)
        assert_eq!(w[0].tasks.len(), 1);
        assert!(w[1].tasks.is_empty() && w[2].tasks.is_empty());
        assert_eq!(w[3].tasks.len(), 1);
        assert_eq!(w[3].start, 30.0);
        assert_eq!(w[3].end, 40.0);
    }

    #[test]
    fn time_windows_extend_to_the_passed_horizon() {
        let w = drain_windows(
            WindowPolicy::ByTime { width: 10.0 },
            &[task(0, 5.0)],
            Some(45.0),
        );
        assert_eq!(w.len(), 5);
        assert!(w[4].tasks.is_empty());
    }

    #[test]
    fn count_windows_keep_same_instant_workers_with_their_task() {
        // Worker 1 arrives at the same instant as the closing task and
        // sorts before it, so it lands in the first window.
        let events = [
            worker(0, 0.0),
            task(0, 1.0),
            task(1, 2.0),
            worker(1, 2.0),
            task(2, 3.0),
        ];
        let w = drain_windows(WindowPolicy::ByCount { tasks: 2 }, &events, None);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].tasks.len(), 2);
        assert_eq!(w[0].workers.len(), 2);
        assert_eq!(w[0].end, 2.0);
        assert_eq!(w[1].tasks.len(), 1);
        assert_eq!(w[1].index, 1);
    }

    #[test]
    #[should_panic(expected = "widen the window")]
    fn absurdly_narrow_windows_panic() {
        let _ = drain_windows(
            WindowPolicy::ByTime { width: 1e-6 },
            &[task(0, 100_000.0)],
            None,
        );
    }

    #[test]
    fn empty_stream_yields_no_windows() {
        for policy in [
            WindowPolicy::ByTime { width: 5.0 },
            WindowPolicy::ByCount { tasks: 3 },
            WindowPolicy::Adaptive(tiny_adaptive()),
        ] {
            assert!(drain_windows(policy, &[], None).is_empty(), "{policy:?}");
        }
    }

    #[test]
    fn adaptive_without_feedback_matches_by_time_at_base_width() {
        let events = [task(0, 5.0), task(1, 35.0), worker(0, 12.0)];
        let fixed = drain_windows(WindowPolicy::ByTime { width: 10.0 }, &events, Some(45.0));
        let policy = WindowPolicy::Adaptive(AdaptivePolicy {
            burst_tasks: 100,
            target_p95: 1e6,
            ..tiny_adaptive()
        });
        let mut former = former(policy, &events, Some(45.0));
        let mut got = Vec::new();
        while let Some(w) = former.next_ready(true) {
            assert_eq!(former.last_decision, WindowCutDecision::Scheduled);
            former.observe(&WindowFeedback {
                p95_age: 3.0,
                backlog: 0,
                pool: 5,
            });
            got.push(w);
        }
        assert_eq!(got, fixed);
    }

    #[test]
    fn adaptive_burst_cut_closes_on_the_threshold_task() {
        // Four tasks inside the first nominal window; threshold 3 cuts
        // at the third task's timestamp, ByCount style.
        let events = [task(0, 1.0), task(1, 2.0), task(2, 3.0), task(3, 4.0)];
        let mut former = former(WindowPolicy::Adaptive(tiny_adaptive()), &events, None);
        let w = former.next_ready(true).unwrap();
        assert_eq!(former.last_decision, WindowCutDecision::Burst);
        assert_eq!((w.start, w.end), (0.0, 3.0));
        assert_eq!(w.tasks.len(), 3);
        former.observe(&WindowFeedback {
            p95_age: 1.0,
            backlog: 0,
            pool: 5,
        });
        let w = former.next_ready(true).unwrap();
        assert_eq!(w.start, 3.0);
        assert_eq!(w.tasks.len(), 1, "the fourth task falls to the next window");
    }

    #[test]
    fn starvation_widens_and_suppresses_the_burst_cut() {
        let events = [
            task(0, 1.0),
            task(1, 12.0),
            task(2, 13.0),
            task(3, 14.0),
            task(4, 15.0),
        ];
        let mut former = former(WindowPolicy::Adaptive(tiny_adaptive()), &events, None);
        let w = former.next_ready(true).unwrap();
        assert_eq!((w.start, w.end), (0.0, 10.0));
        // Starved: backlog outnumbers the pool → the controller widens
        // past the base and the next window must NOT burst-cut despite
        // holding 4 tasks (threshold is 3).
        former.observe(&WindowFeedback {
            p95_age: 9.0,
            backlog: 1,
            pool: 0,
        });
        let w = former.next_ready(true).unwrap();
        assert_eq!(former.last_decision, WindowCutDecision::Widened);
        assert_eq!(w.start, 10.0);
        assert!(
            w.end - w.start > 10.0,
            "starvation must widen past the base width, got {}",
            w.end - w.start
        );
        assert_eq!(w.tasks.len(), 4);
    }

    #[test]
    fn latency_overshoot_narrows_down_to_the_floor() {
        let mut former = former(
            WindowPolicy::Adaptive(tiny_adaptive()),
            &[task(0, 1.0)],
            Some(400.0),
        );
        // 4× the target: a full-halving error every round.
        let overshoot = WindowFeedback {
            p95_age: 32.0,
            backlog: 0,
            pool: 5,
        };
        let w = former.next_ready(true).unwrap();
        assert_eq!((w.start, w.end), (0.0, 10.0));
        // Sustained overshoot: widths fall monotonically (the integral
        // term keeps pushing) until the floor pins them.
        let mut prev = w.end - w.start;
        for round in 0..8 {
            former.observe(&overshoot);
            let w = former.next_ready(true).unwrap();
            assert_eq!(former.last_decision, WindowCutDecision::Narrowed);
            let width = w.end - w.start;
            assert!(
                width <= prev,
                "round {round}: sustained overshoot widened {prev} -> {width}"
            );
            prev = width;
        }
        // Floor reached: 2.5 s is the minimum width.
        assert_eq!(prev, 2.5);
    }

    #[test]
    fn adaptive_covers_the_span_and_terminates() {
        let events = [task(0, 0.0), task(1, 0.0), task(2, 0.0)];
        let mut former = former(WindowPolicy::Adaptive(tiny_adaptive()), &events, Some(25.0));
        let mut seq = Vec::new();
        while let Some(w) = former.next_ready(true) {
            seq.push((w.start, w.end, former.last_decision));
        }
        // A zero-width burst window at t = 0 still consumes its events
        // and the sequence still reaches the horizon.
        assert_eq!(seq[0], (0.0, 0.0, WindowCutDecision::Burst));
        assert!(seq.last().unwrap().1 >= 25.0);
        assert!(seq.len() < 10, "must not livelock at the zero-width cut");
    }

    #[test]
    #[should_panic(expected = "min <= base <= max")]
    fn inverted_adaptive_widths_panic() {
        let _ = WindowFormer::new(
            WindowPolicy::Adaptive(AdaptivePolicy {
                base_width: 1.0,
                ..tiny_adaptive()
            }),
            None,
        );
    }
}
