//! Durable sessions: versioned snapshot/restore of streaming state.
//!
//! A [`SessionSnapshot`] captures everything a
//! [`StreamSession`](crate::StreamSession) needs to resume after a
//! process restart *bit for bit*: the windower (buffered events,
//! watermark, grid cursors, the adaptive controller's PID trajectory),
//! the pool / pending / in-service sets, the lifetime-budget ledger
//! with its release-dedup set, carried warm-start boards, fates and
//! per-window reports. Pure-function state is deliberately *not*
//! serialized — the keyed budget source is re-derived from the seed, and
//! each window's instance is built from the live pool/pending order —
//! so the format stays small and stable.
//!
//! # Versioning rules
//!
//! Snapshots carry [`SNAPSHOT_VERSION`]. The version is bumped on any
//! change that alters the meaning or encoding of an existing field;
//! restoring a snapshot with a different version is rejected with
//! [`SnapshotError::VersionMismatch`] rather than guessed at. Adding a
//! *new* field with a restore-time default does not bump the version.
//! A committed golden fixture pins the flat session's wire format. (v2
//! replaced the bare accountant section with a tagged
//! [`Ledger`](dpta_dp::Ledger) section — lifetime or sliding-window
//! — and added the deferred-task queue and pacing state; v3 gave the
//! halo coordinator's in-service entries and state the service-cycle
//! counts the flat session already carried, now that both run one
//! lifecycle; v4 made the release-dedup set authoritative for every
//! flat session — a v3 warm serve-and-leave session charged by board
//! spend delta and left it empty, so restoring one would double-charge
//! its carried releases; v5 dropped the configuration's
//! `halo_full_rerun` field and made each halo shard carry one board
//! where it carried a stack of them; v6 gave every session the one
//! window stepper's state — a flat session writes it as a one-cell
//! stepper, inline at its top level, with the unpolled outcome log
//! inside and no separate residual log, and adaptive drop-pairs writes
//! one one-cell stepper per shard; v7 gave static drop-pairs the same
//! shape as adaptive drop-pairs — one global windower and one one-cell
//! stepper per shard, as plain fields of the sharded snapshot — and
//! dropped the ledger rows' `reserved` field. Older snapshots are
//! rejected with [`SnapshotError::VersionMismatch`].)
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
use std::collections::BTreeSet;

/// Current snapshot format version, embedded in every snapshot.
pub const SNAPSHOT_VERSION: u32 = 7;

/// The full serializable state of a [`StreamSession`] at a window
/// boundary, produced by [`StreamSession::snapshot`] and consumed by
/// [`StreamSession::restore`].
///
/// The one-cell stepper's fields sit at the top level of the encoded
/// object, between the windower and the arrival counts, rather than
/// under a key of their own: the encoding nests no deeper than the
/// stepper state needs.
///
/// [`StreamSession`]: crate::StreamSession
/// [`StreamSession::snapshot`]: crate::StreamSession::snapshot
/// [`StreamSession::restore`]: crate::StreamSession::restore
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    pub(crate) version: u32,
    pub(crate) engine: String,
    pub(crate) config: StreamConfig,
    pub(crate) windower: FormerSnapshot,
    pub(crate) core: HaloSnapshot,
    pub(crate) n_tasks: usize,
    pub(crate) n_workers: usize,
    pub(crate) task_ids: BTreeSet<u32>,
    pub(crate) worker_ids: BTreeSet<u32>,
}

impl Serialize for SessionSnapshot {
    fn serialize_value(&self) -> Value {
        let Value::Object(core) = self.core.serialize_value() else {
            unreachable!("a struct serializes to an object")
        };
        let field = |name: &str, value: Value| (name.to_string(), value);
        let mut fields = vec![
            field("version", self.version.serialize_value()),
            field("engine", self.engine.serialize_value()),
            field("config", self.config.serialize_value()),
            field("windower", self.windower.serialize_value()),
        ];
        fields.extend(core);
        fields.extend([
            field("n_tasks", self.n_tasks.serialize_value()),
            field("n_workers", self.n_workers.serialize_value()),
            field("task_ids", self.task_ids.serialize_value()),
            field("worker_ids", self.worker_ids.serialize_value()),
        ]);
        Value::Object(fields)
    }
}

impl Deserialize for SessionSnapshot {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
            let value = v
                .get(name)
                .ok_or_else(|| serde::Error(format!("missing field `{name}`")))?;
            T::deserialize_value(value)
        }
        Ok(SessionSnapshot {
            version: field(v, "version")?,
            engine: field(v, "engine")?,
            config: field(v, "config")?,
            windower: field(v, "windower")?,
            core: HaloSnapshot::deserialize_value(v)?,
            n_tasks: field(v, "n_tasks")?,
            n_workers: field(v, "n_workers")?,
            task_ids: field(v, "task_ids")?,
            worker_ids: field(v, "worker_ids")?,
        })
    }
}

impl SessionSnapshot {
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

    /// Serializes the snapshot to its canonical JSON form. The
    /// encoding is deterministic: the same session state always
    /// produces the same bytes (map keys are sorted, float bit
    /// patterns round-trip exactly).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from its JSON form. Returns
    /// [`SnapshotError::Malformed`] on syntax or schema violations and
    /// [`SnapshotError::VersionMismatch`] when the format version is
    /// not [`SNAPSHOT_VERSION`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let value = serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.0))?;
        let snap = SessionSnapshot::deserialize_value(&value)
            .map_err(|e| SnapshotError::Malformed(e.0))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(snap)
    }

    /// Validates the snapshot against a restore-time engine and
    /// configuration: version first, then engine, then every
    /// configuration field — the error names the first mismatch.
    pub(crate) fn validate(&self, engine: &str, cfg: &StreamConfig) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if self.engine != engine {
            return Err(SnapshotError::ConfigMismatch { field: "engine" });
        }
        check_config(&self.config, cfg)
    }
}

/// Field-by-field configuration comparison, naming the first differing
/// field. Restoring under a changed configuration would silently
/// diverge from the uninterrupted run (different windows, budgets or
/// retirement points), so every field must match exactly.
pub(crate) fn check_config(snap: &StreamConfig, cfg: &StreamConfig) -> Result<(), SnapshotError> {
    let mismatch = |field| Err(SnapshotError::ConfigMismatch { field });
    if snap.policy != cfg.policy {
        return mismatch("policy");
    }
    if snap.params != cfg.params {
        return mismatch("params");
    }
    if snap.budget_range != cfg.budget_range {
        return mismatch("budget_range");
    }
    if snap.budget_group_size != cfg.budget_group_size {
        return mismatch("budget_group_size");
    }
    if snap.worker_capacity != cfg.worker_capacity {
        return mismatch("worker_capacity");
    }
    if snap.task_ttl != cfg.task_ttl {
        return mismatch("task_ttl");
    }
    if snap.carry_releases != cfg.carry_releases {
        return mismatch("carry_releases");
    }
    if snap.service != cfg.service {
        return mismatch("service");
    }
    if snap.horizon != cfg.horizon {
        return mismatch("horizon");
    }
    if snap.ledger != cfg.ledger {
        return mismatch("ledger");
    }
    if snap.pacing != cfg.pacing {
        return mismatch("pacing");
    }
    if snap.admission != cfg.admission {
        return mismatch("admission");
    }
    Ok(())
}

/// The full serializable state of a
/// [`ShardedSession`](crate::ShardedSession) at a window boundary,
/// produced by [`ShardedSession::snapshot`] and consumed by
/// [`ShardedSession::restore`].
///
/// [`ShardedSession::snapshot`]: crate::ShardedSession::snapshot
/// [`ShardedSession::restore`]: crate::ShardedSession::restore
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedSnapshot {
    pub(crate) version: u32,
    pub(crate) engine: String,
    pub(crate) config: StreamConfig,
    pub(crate) strategy: ShardStrategy,
    pub(crate) n_shards: usize,
    pub(crate) task_ids: BTreeSet<u32>,
    pub(crate) worker_ids: BTreeSet<u32>,
    /// The global window former.
    pub(crate) windower: FormerSnapshot,
    /// The window steppers, in shard order: one under the halo
    /// protocol, one per shard under drop-pairs.
    pub(crate) cores: Vec<HaloSnapshot>,
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

    /// The sharding strategy the session was running under.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Serializes the snapshot to its canonical JSON form (same
    /// determinism guarantees as [`SessionSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from its JSON form, with the same error
    /// contract as [`SessionSnapshot::from_json`].
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
    /// count — the error names the first mismatch.
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
        if self.engine != engine {
            return Err(SnapshotError::ConfigMismatch { field: "engine" });
        }
        check_config(&self.config, cfg)?;
        if self.strategy != strategy {
            return Err(SnapshotError::ConfigMismatch { field: "strategy" });
        }
        if self.n_shards != n_shards {
            return Err(SnapshotError::ConfigMismatch { field: "partition" });
        }
        Ok(())
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
