//! Durable sessions: versioned snapshot/restore of streaming state.
//!
//! A [`ShardedSnapshot`] — [`SessionSnapshot`] is its name for a flat
//! [`StreamSession`](crate::StreamSession) — captures everything a
//! session needs to resume after a process restart *bit for bit*: the
//! windower (buffered events, watermark, grid cursors, the adaptive
//! controller's PID trajectory), the pool / pending / in-service sets,
//! the lifetime-budget ledger with its release-dedup set, carried
//! warm-start boards, fates and per-window reports. Pure-function state
//! is deliberately *not* serialized — the keyed budget source is
//! re-derived from the seed, and each window's instance is built from
//! the live pool/pending order — so the format stays small and stable.
//!
//! # Versioning rules
//!
//! Snapshots carry [`SNAPSHOT_VERSION`]. The version is bumped on any
//! change that alters the meaning or encoding of an existing field.
//! `from_json` parses the whole snapshot before it compares versions:
//! a snapshot that parses but carries another version is rejected with
//! [`SnapshotError::VersionMismatch`] rather than guessed at, and an
//! older snapshot whose layout no longer parses is
//! [`SnapshotError::Malformed`]. Adding a *new* field with a
//! restore-time default does not bump the version. A committed golden
//! fixture pins the flat session's wire format. (v2 replaced the bare
//! accountant section with a tagged [`Ledger`](dpta_dp::Ledger) section
//! — lifetime or sliding-window — and added the deferred-task queue and
//! pacing state; v3 gave the halo coordinator's in-service entries and
//! state the service-cycle counts the flat session already carried, now
//! that both run one lifecycle; v4 made the release-dedup set
//! authoritative for every flat session — a v3 warm serve-and-leave
//! session charged by board spend delta and left it empty, so restoring
//! one would double-charge its carried releases; v5 dropped the
//! configuration's `halo_full_rerun` field and made each halo shard
//! carry one board where it carried a stack of them; v6 gave every
//! session the one window stepper's state — a flat session writes it as
//! a one-cell stepper, inline at its top level, with the unpolled
//! outcome log inside and no separate residual log, and adaptive
//! drop-pairs writes one one-cell stepper per shard; v7 gave static
//! drop-pairs the same shape as adaptive drop-pairs — one global
//! windower and one one-cell stepper per shard, as plain fields of the
//! sharded snapshot — and dropped the ledger rows' `reserved` field; v8
//! made flat and sharded sessions write one snapshot type: every
//! snapshot names its strategy and shard count, a lone stepper (flat or
//! halo) sits inline at the top level and drop-pairs' several steppers
//! in a `cores` list, and the unused arrival counts are gone; v9 gave
//! drop-pairs one stepper over the whole partition, like the halo
//! protocol, so every snapshot writes its one stepper inline and the
//! `cores` list is gone — a flat snapshot changed only in its version;
//! v10 dropped the configuration's `horizon` field and the stepper's
//! per-shard task-arrival counts, which the per-window reports already
//! sum to.)
//!
//! # Exactly-once across restart
//!
//! Snapshots are taken at window boundaries, where every privacy
//! charge of the preceding window has already been committed to the
//! serialized [`Ledger`](dpta_dp::Ledger)
//! and recorded in the serialized release-dedup set. A restored
//! session therefore re-charges nothing: re-derived publications of
//! already-charged releases are filtered by the dedup exactly as they
//! are in an uninterrupted run, so each release is charged once per
//! worker lifetime *across restarts*, and total spend is bit-identical
//! to the run that never stopped.

use crate::driver::StreamConfig;
use crate::halo::HaloSnapshot;
use crate::shard::ShardStrategy;
use crate::window::FormerSnapshot;
use serde::{Deserialize, Serialize, Value};

/// Current snapshot format version, embedded in every snapshot.
pub const SNAPSHOT_VERSION: u32 = 10;

/// The full serializable state of a session at a window boundary,
/// produced by [`ShardedSession::snapshot`] (or
/// [`StreamSession::snapshot`]) and consumed by the matching `restore`.
///
/// The session's one window stepper writes its fields at the top level
/// of the encoded object, between the windower and the id lists, so the
/// encoding nests no deeper than the stepper state needs. A flat
/// session's snapshot carries its unpolled
/// outcome log; a [`ShardedSession`] leaves it out, so that a session
/// nobody polls does not write its whole history into every snapshot.
///
/// [`ShardedSession`]: crate::ShardedSession
/// [`ShardedSession::snapshot`]: crate::ShardedSession::snapshot
/// [`StreamSession::snapshot`]: crate::StreamSession::snapshot
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    pub(crate) version: u32,
    pub(crate) engine: String,
    pub(crate) config: StreamConfig,
    pub(crate) strategy: ShardStrategy,
    pub(crate) n_shards: usize,
    /// The global window former.
    pub(crate) windower: FormerSnapshot,
    /// The window stepper, written inline.
    pub(crate) core: HaloSnapshot,
    /// Every arrival id seen so far, per entity kind, ascending.
    pub(crate) task_ids: Vec<u32>,
    pub(crate) worker_ids: Vec<u32>,
}

/// The snapshot of a flat [`StreamSession`](crate::StreamSession): a
/// [`ShardedSnapshot`] of its one cell.
pub type SessionSnapshot = ShardedSnapshot;

impl Serialize for ShardedSnapshot {
    fn serialize_value(&self) -> Value {
        let field = |name: &str, value: Value| (name.to_string(), value);
        let Value::Object(core) = self.core.serialize_value() else {
            unreachable!("a struct serializes to an object")
        };
        let mut fields = vec![
            field("version", self.version.serialize_value()),
            field("engine", self.engine.serialize_value()),
            field("config", self.config.serialize_value()),
            field("strategy", self.strategy.serialize_value()),
            field("n_shards", self.n_shards.serialize_value()),
            field("windower", self.windower.serialize_value()),
        ];
        fields.extend(core);
        fields.extend([
            field("task_ids", self.task_ids.serialize_value()),
            field("worker_ids", self.worker_ids.serialize_value()),
        ]);
        Value::Object(fields)
    }
}

impl Deserialize for ShardedSnapshot {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
            let value = v
                .get(name)
                .ok_or_else(|| serde::Error(format!("missing field `{name}`")))?;
            T::deserialize_value(value)
        }
        Ok(ShardedSnapshot {
            version: field(v, "version")?,
            engine: field(v, "engine")?,
            config: field(v, "config")?,
            strategy: field(v, "strategy")?,
            n_shards: field(v, "n_shards")?,
            windower: field(v, "windower")?,
            core: HaloSnapshot::deserialize_value(v)?,
            task_ids: field(v, "task_ids")?,
            worker_ids: field(v, "worker_ids")?,
        })
    }
}

impl ShardedSnapshot {
    /// The snapshot format version this snapshot was written under.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Display name of the engine the session was running.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The configuration the session was running under. Restore
    /// requires an equal configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The sharding strategy the session was running under (a flat
    /// session runs drop-pairs over one cell).
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Serializes the snapshot to its canonical JSON form. The
    /// encoding is deterministic: the same session state always
    /// produces the same bytes (map keys are sorted, float bit
    /// patterns round-trip exactly).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from its JSON form. Returns
    /// [`SnapshotError::Malformed`] on syntax or schema violations —
    /// including an older snapshot whose layout no longer parses — and
    /// [`SnapshotError::VersionMismatch`] when the snapshot parses but
    /// its format version is not [`SNAPSHOT_VERSION`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let value = serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.0))?;
        let snap = ShardedSnapshot::deserialize_value(&value)
            .map_err(|e| SnapshotError::Malformed(e.0))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(snap)
    }

    /// Validates the snapshot against a restore-time engine,
    /// configuration, partition size and strategy: version first, then
    /// engine, then every configuration field, then strategy and shard
    /// count — the error names the first mismatch. Restoring under a
    /// changed configuration would silently diverge from the
    /// uninterrupted run (different windows, budgets or retirement
    /// points), so every field must match exactly.
    pub(crate) fn validate(
        &self,
        engine: &str,
        cfg: &StreamConfig,
        n_shards: usize,
        strategy: ShardStrategy,
    ) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let snap = &self.config;
        let matches = [
            ("engine", self.engine == engine),
            ("policy", snap.policy == cfg.policy),
            ("params", snap.params == cfg.params),
            ("budget_range", snap.budget_range == cfg.budget_range),
            (
                "budget_group_size",
                snap.budget_group_size == cfg.budget_group_size,
            ),
            (
                "worker_capacity",
                snap.worker_capacity == cfg.worker_capacity,
            ),
            ("task_ttl", snap.task_ttl == cfg.task_ttl),
            ("carry_releases", snap.carry_releases == cfg.carry_releases),
            ("service", snap.service == cfg.service),
            ("ledger", snap.ledger == cfg.ledger),
            ("pacing", snap.pacing == cfg.pacing),
            ("admission", snap.admission == cfg.admission),
            ("strategy", self.strategy == strategy),
            ("partition", self.n_shards == n_shards),
        ];
        match matches.into_iter().find(|&(_, same)| !same) {
            Some((field, _)) => Err(SnapshotError::ConfigMismatch { field }),
            None => Ok(()),
        }
    }
}

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written under a different format version.
    VersionMismatch {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The restore-time engine or configuration differs from what the
    /// snapshot was taken under; carries the first mismatching field.
    ConfigMismatch {
        /// Name of the first differing configuration field (`"engine"`
        /// when the engine itself differs).
        field: &'static str,
    },
    /// The snapshot bytes do not parse or violate a state invariant.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} cannot be restored by this build \
                 (expected {expected})"
            ),
            SnapshotError::ConfigMismatch { field } => write!(
                f,
                "snapshot was taken under a different configuration: field `{field}` differs"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArrivalEvent, TaskArrival, WorkerArrival};
    use crate::session::StreamSession;
    use crate::shard::ShardedSession;
    use crate::window::WindowPolicy;
    use dpta_core::{AssignmentEngine, Method, Task, Worker};
    use dpta_spatial::{Aabb, GridPartition, Point};

    /// Workers and nearby tasks over a 10×10 frame, some of them close
    /// to the 2×2 cell boundaries, arriving over 100 s.
    fn events() -> Vec<ArrivalEvent> {
        let mut events = Vec::new();
        for k in 0..12u32 {
            let at = Point::new(
                0.8 + (k * 7 % 11) as f64 * 0.8,
                0.8 + (k * 5 % 11) as f64 * 0.8,
            );
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k,
                time: 8.0 * k as f64,
                worker: Worker::new(at, 1.5),
            }));
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k,
                time: 8.0 * k as f64 + 1.0,
                task: Task::new(Point::new(at.x + 0.4, at.y), 4.5),
            }));
        }
        events
    }

    fn cfg() -> StreamConfig {
        StreamConfig {
            policy: WindowPolicy::ByTime { width: 20.0 },
            ..StreamConfig::default()
        }
    }

    fn grid() -> GridPartition {
        GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 2)
    }

    /// The JSON snapshot of a flat session midway through [`events`].
    fn flat_json(engine: &dyn AssignmentEngine) -> String {
        let mut s = StreamSession::new(engine, cfg());
        events()[..14].iter().for_each(|&e| s.push(e));
        s.advance_to(50.0);
        s.snapshot().to_json()
    }

    /// The JSON snapshot of a 2×2 session midway through [`events`].
    fn sharded_json(engine: &dyn AssignmentEngine, strategy: ShardStrategy) -> String {
        let grid = grid();
        let mut s = ShardedSession::new(engine, cfg(), &grid, strategy);
        events()[..14].iter().for_each(|&e| s.push(e));
        s.advance_to(50.0);
        s.snapshot().to_json()
    }

    #[test]
    fn every_session_writes_its_one_stepper_inline() {
        let engine = Method::Puce.engine(&cfg().params);
        for json in [
            flat_json(engine.as_ref()),
            sharded_json(engine.as_ref(), ShardStrategy::DropPairs),
            sharded_json(engine.as_ref(), ShardStrategy::Halo),
        ] {
            let v: Value = serde_json::from_str(&json).expect("parses");
            assert!(v.get("cores").is_none());
            assert!(v.get("pool").is_some());
        }
    }

    #[test]
    fn every_layout_round_trips_byte_for_byte() {
        let engine = Method::Puce.engine(&cfg().params);
        let engine = engine.as_ref();
        let grid = grid();
        let json = flat_json(engine);
        let snap = SessionSnapshot::from_json(&json).expect("parses");
        assert_eq!(snap.to_json(), json);
        let restored = StreamSession::restore(engine, cfg(), &snap).expect("restores");
        assert_eq!(restored.snapshot().to_json(), json);
        for strategy in [ShardStrategy::Halo, ShardStrategy::DropPairs] {
            let json = sharded_json(engine, strategy);
            let snap = ShardedSnapshot::from_json(&json).expect("parses");
            assert_eq!(snap.to_json(), json, "{strategy:?}");
            let restored =
                ShardedSession::restore(engine, cfg(), &grid, strategy, &snap).expect("restores");
            assert_eq!(restored.snapshot().to_json(), json, "{strategy:?}");
        }
    }

    #[test]
    fn a_flat_restore_rejects_sharded_snapshots() {
        let engine = Method::Puce.engine(&cfg().params);
        let engine = engine.as_ref();
        for (strategy, field) in [
            (ShardStrategy::DropPairs, "partition"),
            (ShardStrategy::Halo, "strategy"),
        ] {
            let snap = ShardedSnapshot::from_json(&sharded_json(engine, strategy)).expect("parses");
            let err = StreamSession::restore(engine, cfg(), &snap).err();
            assert_eq!(err, Some(SnapshotError::ConfigMismatch { field }));
        }
    }
}
