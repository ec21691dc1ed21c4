//! Timestamped arrival events and the time-ordered arrival stream.
//!
//! The batch experiments replay pre-built instances; the streaming
//! pipeline instead starts from *events*: workers coming on duty and
//! tasks being requested, each stamped with a release time. An
//! [`ArrivalStream`] is the canonical, sorted event log every
//! downstream stage (windowing, driving, sharding) consumes.

use dpta_core::{Task, Worker};
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};

/// A task arriving at `time` with a stable logical id.
///
/// Ids are the stream's identity space: budget vectors, noise draws and
/// fate accounting are keyed by id, not by per-window instance index,
/// so a task keeps its privacy state while it is carried across
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskArrival {
    /// Stable logical task id, unique among the stream's tasks.
    pub id: u32,
    /// Arrival time in seconds from stream start.
    pub time: f64,
    /// The task itself (location + value).
    pub task: Task,
}

/// A worker coming on duty at `time` with a stable logical id.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerArrival {
    /// Stable logical worker id, unique among the stream's workers.
    pub id: u32,
    /// Arrival time in seconds from stream start.
    pub time: f64,
    /// The worker itself (location + service radius).
    pub worker: Worker,
}

/// One event of the arrival log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalEvent {
    /// A worker comes on duty.
    Worker(WorkerArrival),
    /// A task is requested.
    Task(TaskArrival),
}

// Hand-written externally-tagged representation — `{"Worker": {...}}` /
// `{"Task": {...}}`, matching what the derive would emit if it
// supported newtype variants. Session snapshots persist the windower's
// buffered events through these.
impl Serialize for ArrivalEvent {
    fn serialize_value(&self) -> serde::Value {
        let (tag, body) = match self {
            ArrivalEvent::Worker(w) => ("Worker", w.serialize_value()),
            ArrivalEvent::Task(t) => ("Task", t.serialize_value()),
        };
        serde::Value::Object(vec![(tag.to_string(), body)])
    }
}

impl Deserialize for ArrivalEvent {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Object(fields) if fields.len() == 1 => {
                let (tag, body) = &fields[0];
                match tag.as_str() {
                    "Worker" => Ok(ArrivalEvent::Worker(WorkerArrival::deserialize_value(
                        body,
                    )?)),
                    "Task" => Ok(ArrivalEvent::Task(TaskArrival::deserialize_value(body)?)),
                    other => Err(serde::Error(format!(
                        "unknown ArrivalEvent variant {other:?}"
                    ))),
                }
            }
            other => Err(serde::Error::expected("ArrivalEvent object", other)),
        }
    }
}

impl ArrivalEvent {
    /// The event's timestamp.
    pub fn time(&self) -> f64 {
        match self {
            ArrivalEvent::Worker(w) => w.time,
            ArrivalEvent::Task(t) => t.time,
        }
    }

    /// Sort rank at equal timestamps: workers before tasks, so a worker
    /// arriving at the same instant as a task can serve it.
    pub(crate) fn kind_rank(&self) -> u8 {
        match self {
            ArrivalEvent::Worker(_) => 0,
            ArrivalEvent::Task(_) => 1,
        }
    }

    pub(crate) fn id(&self) -> u32 {
        match self {
            ArrivalEvent::Worker(w) => w.id,
            ArrivalEvent::Task(t) => t.id,
        }
    }
}

/// A validated, time-ordered arrival log.
///
/// Construction sorts events by `(time, workers-before-tasks, id)` and
/// enforces the invariants the pipeline depends on: finite non-negative
/// timestamps and unique ids per entity kind.
///
/// # Examples
///
/// ```
/// use dpta_core::{Task, Worker};
/// use dpta_spatial::Point;
/// use dpta_stream::{ArrivalEvent, ArrivalStream, TaskArrival, WorkerArrival};
///
/// let stream = ArrivalStream::new(vec![
///     ArrivalEvent::Task(TaskArrival {
///         id: 0,
///         time: 60.0,
///         task: Task::new(Point::new(1.0, 1.0), 4.5),
///     }),
///     ArrivalEvent::Worker(WorkerArrival {
///         id: 0,
///         time: 0.0,
///         worker: Worker::new(Point::new(0.0, 0.0), 2.0),
///     }),
/// ]);
/// assert_eq!(stream.n_tasks(), 1);
/// assert_eq!(stream.n_workers(), 1);
/// assert_eq!(stream.events()[0].time(), 0.0); // sorted on construction
/// assert_eq!(stream.horizon(), 60.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalStream {
    events: Vec<ArrivalEvent>,
}

impl ArrivalStream {
    /// Builds a stream from events in any order. Panics on non-finite
    /// or negative timestamps and on duplicate ids within a kind.
    pub fn new(mut events: Vec<ArrivalEvent>) -> Self {
        for e in &events {
            let t = e.time();
            assert!(
                t.is_finite() && t >= 0.0,
                "arrival time must be finite and >= 0, got {t}"
            );
        }
        events.sort_by(|a, b| {
            a.time()
                .total_cmp(&b.time())
                .then(a.kind_rank().cmp(&b.kind_rank()))
                .then(a.id().cmp(&b.id()))
        });
        let mut task_ids: Vec<u32> = Vec::new();
        let mut worker_ids: Vec<u32> = Vec::new();
        for e in &events {
            match e {
                ArrivalEvent::Task(t) => task_ids.push(t.id),
                ArrivalEvent::Worker(w) => worker_ids.push(w.id),
            }
        }
        for ids in [&mut task_ids, &mut worker_ids] {
            ids.sort_unstable();
            assert!(
                ids.windows(2).all(|w| w[0] != w[1]),
                "arrival ids must be unique per entity kind"
            );
        }
        ArrivalStream { events }
    }

    /// The events, ascending by `(time, workers-first, id)`.
    pub fn events(&self) -> &[ArrivalEvent] {
        &self.events
    }

    /// Number of task arrivals.
    pub fn n_tasks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ArrivalEvent::Task(_)))
            .count()
    }

    /// Number of worker arrivals.
    pub fn n_workers(&self) -> usize {
        self.events.len() - self.n_tasks()
    }

    /// Timestamp of the last event (zero for an empty stream).
    pub fn horizon(&self) -> f64 {
        self.events.last().map_or(0.0, ArrivalEvent::time)
    }

    /// Whether every worker's service disc lies strictly inside its
    /// shard cell — the precondition under which sharded and unsharded
    /// execution agree exactly (no feasible pair ever crosses a shard
    /// boundary).
    pub fn is_shard_disjoint(&self, partition: &GridPartition) -> bool {
        self.events.iter().all(|e| match e {
            ArrivalEvent::Worker(w) => partition.is_interior(&w.worker.location, w.worker.radius),
            ArrivalEvent::Task(_) => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpta_spatial::{Aabb, Point};

    fn task(id: u32, time: f64, x: f64) -> ArrivalEvent {
        ArrivalEvent::Task(TaskArrival {
            id,
            time,
            task: Task::new(Point::new(x, 0.0), 1.0),
        })
    }

    fn worker(id: u32, time: f64, x: f64, r: f64) -> ArrivalEvent {
        ArrivalEvent::Worker(WorkerArrival {
            id,
            time,
            worker: Worker::new(Point::new(x, 0.0), r),
        })
    }

    #[test]
    fn stream_sorts_workers_before_tasks_at_ties() {
        let s = ArrivalStream::new(vec![task(0, 5.0, 0.0), worker(0, 5.0, 0.0, 1.0)]);
        assert!(matches!(s.events()[0], ArrivalEvent::Worker(_)));
        assert!(matches!(s.events()[1], ArrivalEvent::Task(_)));
    }

    #[test]
    fn ids_may_repeat_across_kinds_but_not_within() {
        let s = ArrivalStream::new(vec![task(3, 1.0, 0.0), worker(3, 2.0, 0.0, 1.0)]);
        assert_eq!(s.n_tasks(), 1);
        assert_eq!(s.n_workers(), 1);
    }

    #[test]
    #[should_panic(expected = "unique per entity kind")]
    fn duplicate_task_ids_panic() {
        let _ = ArrivalStream::new(vec![task(1, 0.0, 0.0), task(1, 1.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "arrival time")]
    fn negative_time_panics() {
        let _ = ArrivalStream::new(vec![task(0, -1.0, 0.0)]);
    }

    #[test]
    fn sharding_partitions_events_and_checks_disjointness() {
        let part = GridPartition::new(Aabb::from_extents(0.0, -5.0, 10.0, 5.0), 2, 1);
        let s = ArrivalStream::new(vec![
            worker(0, 0.0, 2.5, 1.0), // interior of left cell
            worker(1, 0.0, 7.5, 1.0), // interior of right cell
            task(0, 1.0, 2.0),
            task(1, 2.0, 8.0),
        ]);
        let homes: Vec<usize> = s
            .events()
            .iter()
            .map(|e| match e {
                ArrivalEvent::Worker(w) => part.shard_of(&w.worker.location),
                ArrivalEvent::Task(t) => part.shard_of(&t.task.location),
            })
            .collect();
        assert_eq!(homes, vec![0, 1, 0, 1]);
        assert!(s.is_shard_disjoint(&part));
        // A worker whose disc crosses the x = 5 boundary breaks it.
        let crossing = ArrivalStream::new(vec![worker(2, 0.0, 4.9, 1.0)]);
        assert!(!crossing.is_shard_disjoint(&part));
    }
}
