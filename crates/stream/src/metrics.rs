//! Stream-level reporting: per-window measures, task fates, and the
//! aggregate throughput/latency/utility view of a whole run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Why a window closed when it did — the visible half of the adaptive
/// feedback loop ([`WindowPolicy::Adaptive`](crate::WindowPolicy)).
///
/// Static policies always report [`Scheduled`](WindowCutDecision);
/// adaptive windows record the controller's decision so a run's report
/// shows where windows were cut early (burst backlog) or ran at a
/// widened/narrowed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WindowCutDecision {
    /// The window ran at its policy's nominal width (static policies
    /// always; adaptive windows whose width sat at the base width).
    #[default]
    Scheduled,
    /// Adaptive: the window closed early because within-window task
    /// arrivals hit the burst threshold while the pool could absorb
    /// them.
    Burst,
    /// Adaptive: the window ran at a narrowed width (observed task
    /// waiting ages above the latency target).
    Narrowed,
    /// Adaptive: the window ran at a widened width (starved worker
    /// pool — backlog exceeded the on-duty pool).
    Widened,
}

impl WindowCutDecision {
    /// One-letter marker for the per-window table (`S`/`B`/`N`/`W`).
    pub fn marker(&self) -> char {
        match self {
            WindowCutDecision::Scheduled => 'S',
            WindowCutDecision::Burst => 'B',
            WindowCutDecision::Narrowed => 'N',
            WindowCutDecision::Widened => 'W',
        }
    }
}

/// What the driver feeds back to the adaptive window controller after
/// each window — observed stream state only (task waiting ages,
/// backlog, pool size), all deterministic functions of the seeded run,
/// never wall-clock time. That is what keeps adaptive cuts replayable
/// bit for bit across flat, sharded and halo execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFeedback {
    /// p95 of seconds-from-arrival-to-window-close over every task
    /// present in the window (matched, expired or carried alike).
    pub p95_age: f64,
    /// Unserved tasks carried out of the window.
    pub backlog: usize,
    /// Workers still on duty after the window settled.
    pub pool: usize,
}

/// Nearest-rank percentile of `values` (q in `[0, 1]`); zero when
/// empty. Sorts a copy, so input order never matters — the property
/// the sharded feedback merge relies on.
///
/// # Examples
///
/// ```
/// use dpta_stream::percentile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.5), 2.0);
/// assert_eq!(percentile(&xs, 0.95), 4.0);
/// assert_eq!(percentile(&[], 0.95), 0.0);
/// ```
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile wants q in [0,1]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What ultimately happened to one task arrival.
///
/// The conservation law of the pipeline: every arrival ends in exactly
/// one of these states, checked by
/// [`StreamReport::assert_conservation`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskFate {
    /// Matched to a worker in the given window.
    Assigned {
        /// Window in which the match happened.
        window: usize,
        /// Logical id of the winning worker.
        worker: u32,
        /// Seconds from arrival to the close of the matching window.
        latency: f64,
    },
    /// Dropped unserved after exhausting its time-to-live.
    Expired {
        /// Window after which the task was dropped.
        window: usize,
    },
    /// Still waiting when the stream ended.
    Pending,
}

/// Measures of one driven window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowReport {
    /// Window sequence number.
    pub index: usize,
    /// Nominal window start, seconds.
    pub start: f64,
    /// Nominal window end, seconds.
    pub end: f64,
    /// Task arrivals this window: the admitted ones and those deferred
    /// on arrival (counted once, in their arrival window, however late
    /// they are admitted).
    pub tasks_arrived: usize,
    /// Unserved tasks carried in from earlier windows.
    pub carried_in: usize,
    /// Workers on duty when the window was driven.
    pub workers_available: usize,
    /// Matches made.
    pub matched: usize,
    /// Tasks dropped at window close (time-to-live exhausted).
    pub expired: usize,
    /// Unserved tasks carried to the next window.
    pub carried_out: usize,
    /// Sum of matched-pair utilities (Section VII-C accounting).
    pub utility: f64,
    /// Sum of matched-pair real travel distances.
    pub distance: f64,
    /// Privacy budget published during this window.
    pub epsilon_spent: f64,
    /// Obfuscated-distance publications during this window.
    pub publications: usize,
    /// Protocol rounds the engine ran.
    pub rounds: usize,
    /// Wall time of the engine drive (windowing excluded).
    pub drive_time: Duration,
    /// Workers retired at window close (lifetime budget exhausted).
    pub workers_retired: usize,
    /// Workers departed at window close (matched, now serving).
    pub workers_departed: usize,
    /// Workers who completed a service cycle and re-entered the pool
    /// during this window ([`ServiceModel`](crate::ServiceModel) re-entry;
    /// always zero under `ServiceModel::Never`).
    pub workers_returned: usize,
    /// Workers whose remaining-budget guard was capped by the pacing
    /// controller this window (burn rate would have exhausted them
    /// within the forecast horizon). Zero unless
    /// [`StreamConfig::pacing`](crate::StreamConfig::pacing) is set.
    pub workers_throttled: usize,
    /// Fresh task arrivals held out of the window by admission control
    /// (first-time deferrals only). Zero unless
    /// [`StreamConfig::admission`](crate::StreamConfig::admission) is
    /// set.
    pub tasks_deferred: usize,
    /// Why the window closed when it did (adaptive windowing).
    pub cut: WindowCutDecision,
}

// Hand-written because `Duration` has no shim serde impl: `drive_time`
// round-trips as `{"secs": u64, "nanos": u32}`, everything else exactly
// as the derive would emit it.
impl Serialize for WindowReport {
    fn serialize_value(&self) -> serde::Value {
        let drive_time = serde::Value::Object(vec![
            (
                "secs".to_string(),
                self.drive_time.as_secs().serialize_value(),
            ),
            (
                "nanos".to_string(),
                self.drive_time.subsec_nanos().serialize_value(),
            ),
        ]);
        serde::Value::Object(vec![
            ("index".to_string(), self.index.serialize_value()),
            ("start".to_string(), self.start.serialize_value()),
            ("end".to_string(), self.end.serialize_value()),
            (
                "tasks_arrived".to_string(),
                self.tasks_arrived.serialize_value(),
            ),
            ("carried_in".to_string(), self.carried_in.serialize_value()),
            (
                "workers_available".to_string(),
                self.workers_available.serialize_value(),
            ),
            ("matched".to_string(), self.matched.serialize_value()),
            ("expired".to_string(), self.expired.serialize_value()),
            (
                "carried_out".to_string(),
                self.carried_out.serialize_value(),
            ),
            ("utility".to_string(), self.utility.serialize_value()),
            ("distance".to_string(), self.distance.serialize_value()),
            (
                "epsilon_spent".to_string(),
                self.epsilon_spent.serialize_value(),
            ),
            (
                "publications".to_string(),
                self.publications.serialize_value(),
            ),
            ("rounds".to_string(), self.rounds.serialize_value()),
            ("drive_time".to_string(), drive_time),
            (
                "workers_retired".to_string(),
                self.workers_retired.serialize_value(),
            ),
            (
                "workers_departed".to_string(),
                self.workers_departed.serialize_value(),
            ),
            (
                "workers_returned".to_string(),
                self.workers_returned.serialize_value(),
            ),
            (
                "workers_throttled".to_string(),
                self.workers_throttled.serialize_value(),
            ),
            (
                "tasks_deferred".to_string(),
                self.tasks_deferred.serialize_value(),
            ),
            ("cut".to_string(), self.cut.serialize_value()),
        ])
    }
}

impl Deserialize for WindowReport {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<'v>(v: &'v serde::Value, name: &str) -> Result<&'v serde::Value, serde::Error> {
            v.get(name)
                .ok_or_else(|| serde::Error(format!("WindowReport missing field {name:?}")))
        }
        let dt = field(v, "drive_time")?;
        let drive_time = Duration::new(
            u64::deserialize_value(field(dt, "secs")?)?,
            u32::deserialize_value(field(dt, "nanos")?)?,
        );
        Ok(WindowReport {
            index: usize::deserialize_value(field(v, "index")?)?,
            start: f64::deserialize_value(field(v, "start")?)?,
            end: f64::deserialize_value(field(v, "end")?)?,
            tasks_arrived: usize::deserialize_value(field(v, "tasks_arrived")?)?,
            carried_in: usize::deserialize_value(field(v, "carried_in")?)?,
            workers_available: usize::deserialize_value(field(v, "workers_available")?)?,
            matched: usize::deserialize_value(field(v, "matched")?)?,
            expired: usize::deserialize_value(field(v, "expired")?)?,
            carried_out: usize::deserialize_value(field(v, "carried_out")?)?,
            utility: f64::deserialize_value(field(v, "utility")?)?,
            distance: f64::deserialize_value(field(v, "distance")?)?,
            epsilon_spent: f64::deserialize_value(field(v, "epsilon_spent")?)?,
            publications: usize::deserialize_value(field(v, "publications")?)?,
            rounds: usize::deserialize_value(field(v, "rounds")?)?,
            drive_time,
            workers_retired: usize::deserialize_value(field(v, "workers_retired")?)?,
            workers_departed: usize::deserialize_value(field(v, "workers_departed")?)?,
            workers_returned: usize::deserialize_value(field(v, "workers_returned")?)?,
            workers_throttled: usize::deserialize_value(field(v, "workers_throttled")?)?,
            tasks_deferred: usize::deserialize_value(field(v, "tasks_deferred")?)?,
            cut: WindowCutDecision::deserialize_value(field(v, "cut")?)?,
        })
    }
}

/// The aggregate outcome of one stream run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamReport {
    /// Engine display name (paper legend style).
    pub engine: String,
    /// Per-window measures, in window order.
    pub windows: Vec<WindowReport>,
    /// Final fate of every task arrival, keyed by logical task id.
    pub fates: BTreeMap<u32, TaskFate>,
    /// Task arrivals observed: the sum of the windows'
    /// [`tasks_arrived`](WindowReport::tasks_arrived).
    pub task_arrivals: usize,
    /// Worker arrivals observed.
    pub worker_arrivals: usize,
    /// Lifetime privacy budget charged per worker id (entries only for
    /// workers with non-zero committed spend). Under a finite
    /// `worker_capacity` with warm-start carry this never exceeds the
    /// capacity — the hard-cap guarantee the property tests pin.
    pub spend_by_worker: BTreeMap<u32, f64>,
}

impl StreamReport {
    /// Tasks matched across all windows.
    pub fn matched(&self) -> usize {
        self.windows.iter().map(|w| w.matched).sum()
    }

    /// Tasks dropped unserved.
    pub fn expired(&self) -> usize {
        self.windows.iter().map(|w| w.expired).sum()
    }

    /// Tasks still waiting at stream end.
    pub fn pending(&self) -> usize {
        self.fates
            .values()
            .filter(|f| matches!(f, TaskFate::Pending))
            .count()
    }

    /// Total utility over all matches.
    pub fn total_utility(&self) -> f64 {
        self.windows.iter().map(|w| w.utility).sum()
    }

    /// Total real travel distance over all matches.
    pub fn total_distance(&self) -> f64 {
        self.windows.iter().map(|w| w.distance).sum()
    }

    /// Total privacy budget published.
    pub fn total_epsilon(&self) -> f64 {
        self.windows.iter().map(|w| w.epsilon_spent).sum()
    }

    /// Total engine wall time (the drain time of the stream).
    pub fn drive_time(&self) -> Duration {
        self.windows.iter().map(|w| w.drive_time).sum()
    }

    /// Matches per second of engine time; zero when nothing ran.
    pub fn throughput(&self) -> f64 {
        let secs = self.drive_time().as_secs_f64();
        if secs > 0.0 {
            self.matched() as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean utility per match; zero when nothing matched.
    pub fn avg_utility(&self) -> f64 {
        let m = self.matched();
        if m > 0 {
            self.total_utility() / m as f64
        } else {
            0.0
        }
    }

    /// Mean seconds from task arrival to the close of its matching
    /// window; zero when nothing matched.
    pub fn mean_latency(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for f in self.fates.values() {
            if let TaskFate::Assigned { latency, .. } = f {
                sum += latency;
                n += 1;
            }
        }
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }

    /// p95 of seconds from task arrival to the close of the matching
    /// window, over matched tasks; zero when nothing matched. The
    /// headline number the adaptive windowing controller targets.
    pub fn p95_latency(&self) -> f64 {
        let latencies: Vec<f64> = self
            .fates
            .values()
            .filter_map(|f| match f {
                TaskFate::Assigned { latency, .. } => Some(*latency),
                _ => None,
            })
            .collect();
        percentile(&latencies, 0.95)
    }

    /// Windows closed early by the adaptive burst trigger.
    pub fn windows_cut_early(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| w.cut == WindowCutDecision::Burst)
            .count()
    }

    /// Windows run at a widened width (starved-pool adaptation).
    pub fn windows_widened(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| w.cut == WindowCutDecision::Widened)
            .count()
    }

    /// Windows run at a narrowed width (latency-target adaptation).
    pub fn windows_narrowed(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| w.cut == WindowCutDecision::Narrowed)
            .count()
    }

    /// Completed service cycles: workers who returned to the pool after
    /// serving a match. Zero under `ServiceModel::Never`
    /// (serve-and-leave).
    pub fn returns(&self) -> usize {
        self.windows.iter().map(|w| w.workers_returned).sum()
    }

    /// Worker-window throttle events applied by the budget-pacing
    /// controller. Zero unless
    /// [`StreamConfig::pacing`](crate::StreamConfig::pacing) is set.
    pub fn throttled(&self) -> usize {
        self.windows.iter().map(|w| w.workers_throttled).sum()
    }

    /// First-time task deferrals applied by admission control. Zero
    /// unless [`StreamConfig::admission`](crate::StreamConfig::admission)
    /// is set.
    pub fn deferred(&self) -> usize {
        self.windows.iter().map(|w| w.tasks_deferred).sum()
    }

    /// Matches per worker arrival — the fleet-utilization measure the
    /// `stream --reentry` gate compares across service models (worker
    /// re-entry recycles the fleet, so utilization can exceed what
    /// serve-and-leave reaches with the same arrivals). Zero when no
    /// workers arrived.
    pub fn utilization(&self) -> f64 {
        if self.worker_arrivals > 0 {
            self.matched() as f64 / self.worker_arrivals as f64
        } else {
            0.0
        }
    }

    /// Asserts the pipeline's conservation law: every task arrival has
    /// exactly one fate, and the per-window counters agree with the
    /// fate map. Returns `(matched, expired, pending)`.
    pub fn assert_conservation(&self) -> (usize, usize, usize) {
        assert_eq!(
            self.fates.len(),
            self.task_arrivals,
            "every task arrival must have exactly one fate"
        );
        let mut by_fate = (0usize, 0usize, 0usize);
        for f in self.fates.values() {
            match f {
                TaskFate::Assigned { .. } => by_fate.0 += 1,
                TaskFate::Expired { .. } => by_fate.1 += 1,
                TaskFate::Pending => by_fate.2 += 1,
            }
        }
        assert_eq!(by_fate.0, self.matched(), "fate map vs window matches");
        assert_eq!(by_fate.1, self.expired(), "fate map vs window expiries");
        assert_eq!(
            by_fate.0 + by_fate.1 + by_fate.2,
            self.task_arrivals,
            "assigned + expired + pending must cover every arrival"
        );
        by_fate
    }

    /// A copy with every wall-clock timing zeroed — the semantic view
    /// of the run. Two runs with the same seed must agree on this view
    /// exactly (engine wall time is the only thing allowed to vary).
    pub fn without_timing(&self) -> StreamReport {
        let mut r = self.clone();
        for w in &mut r.windows {
            w.drive_time = Duration::ZERO;
        }
        r
    }

    /// Renders the per-window table and the aggregate line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {} windows, {} tasks, {} workers\n",
            self.engine,
            self.windows.len(),
            self.task_arrivals,
            self.worker_arrivals
        ));
        out.push_str(
            "  win cut      span(s)  arr  carry  pool  match  exp  ret  util/match   eps  drive(ms)\n",
        );
        for w in &self.windows {
            let per_match = if w.matched > 0 {
                w.utility / w.matched as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:>3}  {}  {:>6.0}-{:<6.0} {:>4} {:>6} {:>5} {:>6} {:>4} {:>4} {:>11.3} {:>5.1} {:>10.2}\n",
                w.index,
                w.cut.marker(),
                w.start,
                w.end,
                w.tasks_arrived,
                w.carried_in,
                w.workers_available,
                w.matched,
                w.expired,
                w.workers_returned,
                per_match,
                w.epsilon_spent,
                w.drive_time.as_secs_f64() * 1e3,
            ));
        }
        out.push_str(&format!(
            "  total: {} matched / {} expired / {} pending · utility {:.2} \
             (avg {:.3}) · latency mean {:.0} s / p95 {:.0} s · {:.0} matches/s\n",
            self.matched(),
            self.expired(),
            self.pending(),
            self.total_utility(),
            self.avg_utility(),
            self.mean_latency(),
            self.p95_latency(),
            self.throughput(),
        ));
        out
    }
}

/// The outcome of a sharded run: per-shard reports plus merged totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardedReport {
    /// One report per shard, in shard-id order (empty shards included).
    pub shards: Vec<StreamReport>,
}

impl ShardedReport {
    /// Tasks matched across all shards.
    pub fn matched(&self) -> usize {
        self.shards.iter().map(StreamReport::matched).sum()
    }

    /// Total utility across all shards.
    pub fn total_utility(&self) -> f64 {
        self.shards.iter().map(StreamReport::total_utility).sum()
    }

    /// Total travel distance across all shards.
    pub fn total_distance(&self) -> f64 {
        self.shards.iter().map(StreamReport::total_distance).sum()
    }

    /// Total privacy budget published across all shards.
    pub fn total_epsilon(&self) -> f64 {
        self.shards.iter().map(StreamReport::total_epsilon).sum()
    }

    /// Drive time of the slowest shard: the largest per-shard sum of
    /// engine drive time. Shards step on one thread, so it bounds what
    /// running shards in parallel could save, not a measured drain.
    pub fn critical_path(&self) -> Duration {
        self.shards
            .iter()
            .map(StreamReport::drive_time)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Summed engine time across shards (the sequential-equivalent cost).
    pub fn total_drive_time(&self) -> Duration {
        self.shards.iter().map(StreamReport::drive_time).sum()
    }

    /// A copy with every shard's wall-clock timing zeroed — the
    /// semantic view of the sharded run (see
    /// [`StreamReport::without_timing`]).
    pub fn without_timing(&self) -> ShardedReport {
        ShardedReport {
            shards: self
                .shards
                .iter()
                .map(StreamReport::without_timing)
                .collect(),
        }
    }

    /// Renders the shard summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sharded × {}: {} matched · utility {:.2} · critical path {:.2} ms \
             (sum {:.2} ms)\n",
            self.shards.len(),
            self.matched(),
            self.total_utility(),
            self.critical_path().as_secs_f64() * 1e3,
            self.total_drive_time().as_secs_f64() * 1e3,
        ));
        for (k, s) in self.shards.iter().enumerate() {
            if s.task_arrivals == 0 && s.worker_arrivals == 0 {
                continue;
            }
            out.push_str(&format!(
                "  shard {:>2}: {} tasks, {} workers → {} matched, utility {:.2}\n",
                k,
                s.task_arrivals,
                s.worker_arrivals,
                s.matched(),
                s.total_utility(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(matched: usize, expired: usize, utility: f64) -> WindowReport {
        WindowReport {
            index: 0,
            start: 0.0,
            end: 1.0,
            tasks_arrived: matched + expired,
            carried_in: 0,
            workers_available: 3,
            matched,
            expired,
            carried_out: 0,
            utility,
            distance: 1.0,
            epsilon_spent: 0.5,
            publications: 2,
            rounds: 1,
            drive_time: Duration::from_millis(2),
            workers_retired: 0,
            workers_departed: matched,
            workers_returned: 0,
            workers_throttled: 0,
            tasks_deferred: 0,
            cut: WindowCutDecision::Scheduled,
        }
    }

    #[test]
    fn report_aggregates_windows_and_checks_conservation() {
        let mut fates = BTreeMap::new();
        fates.insert(
            0,
            TaskFate::Assigned {
                window: 0,
                worker: 9,
                latency: 30.0,
            },
        );
        fates.insert(1, TaskFate::Expired { window: 1 });
        fates.insert(2, TaskFate::Pending);
        let r = StreamReport {
            engine: "PUCE".into(),
            windows: vec![window(1, 0, 2.5), window(0, 1, 0.0)],
            fates,
            task_arrivals: 3,
            worker_arrivals: 2,
            spend_by_worker: BTreeMap::new(),
        };
        assert_eq!(r.assert_conservation(), (1, 1, 1));
        assert_eq!(r.matched(), 1);
        assert_eq!(r.expired(), 1);
        assert_eq!(r.pending(), 1);
        assert!((r.total_utility() - 2.5).abs() < 1e-12);
        assert!((r.avg_utility() - 2.5).abs() < 1e-12);
        assert!((r.mean_latency() - 30.0).abs() < 1e-12);
        assert!(r.throughput() > 0.0);
        let text = r.render();
        assert!(text.contains("PUCE"));
        assert!(text.contains("1 matched / 1 expired / 1 pending"));
    }

    #[test]
    #[should_panic(expected = "exactly one fate")]
    fn missing_fate_fails_conservation() {
        let r = StreamReport {
            engine: "GRD".into(),
            windows: Vec::new(),
            fates: BTreeMap::new(),
            task_arrivals: 1,
            worker_arrivals: 0,
            spend_by_worker: BTreeMap::new(),
        };
        r.assert_conservation();
    }

    #[test]
    fn sharded_report_merges_totals() {
        let one = StreamReport {
            engine: "GRD".into(),
            windows: vec![window(2, 0, 4.0)],
            fates: BTreeMap::new(),
            task_arrivals: 2,
            worker_arrivals: 2,
            spend_by_worker: BTreeMap::new(),
        };
        let merged = ShardedReport {
            shards: vec![one.clone(), StreamReport::default(), one],
        };
        assert_eq!(merged.matched(), 4);
        assert!((merged.total_utility() - 8.0).abs() < 1e-12);
        assert!(merged.critical_path() >= Duration::from_millis(2));
        assert!(merged.total_drive_time() >= merged.critical_path());
        assert!(merged.render().contains("sharded × 3"));
    }
}
