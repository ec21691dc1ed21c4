//! Per-worker privacy accounting (Theorems V.2 and VI.4).
//!
//! The paper proves PUCE and PGT each satisfy
//! `(Σ_{t_i ∈ R_j} b_{i,j}·ε_{i,j}·r_j)`-local differential privacy for
//! every worker `w_j`: each published obfuscated distance `d̂` with
//! budget `ε` contributes `ε · r_j`, because two neighbouring worker
//! locations inside the service area change any task distance by at most
//! `r_j`. The ledger simply tracks every publication and evaluates that
//! bound, so tests and examples can assert the theorem against the
//! actual protocol trace.

use crate::intern::FastMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Ledger of one worker's published privacy budgets, keyed by task.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrivacyLedger {
    per_task: BTreeMap<u32, Vec<f64>>,
}

impl PrivacyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one publication toward `task` with budget `epsilon`.
    pub fn record(&mut self, task: u32, epsilon: f64) {
        crate::validate_epsilon(epsilon);
        self.per_task.entry(task).or_default().push(epsilon);
    }

    /// Number of publications recorded in total.
    pub fn publications(&self) -> usize {
        self.per_task.values().map(Vec::len).sum()
    }

    /// Total published budget toward one task: `b_{i,j} · ε_{i,j}`.
    pub fn spent_on(&self, task: u32) -> f64 {
        self.per_task.get(&task).map_or(0.0, |v| v.iter().sum())
    }

    /// Total published budget across all tasks: `Σ_i b_{i,j}·ε_{i,j}`.
    pub fn total_epsilon(&self) -> f64 {
        self.per_task.values().flatten().sum()
    }

    /// The local-DP level of Theorems V.2 / VI.4 for a worker with
    /// service radius `radius`: `Σ_{t_i∈R_j} b_{i,j}·ε_{i,j}·r_j`.
    pub fn ldp_bound(&self, radius: f64) -> f64 {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "service radius must be finite and >= 0, got {radius}"
        );
        self.total_epsilon() * radius
    }

    /// Tasks with at least one publication, ascending.
    pub fn tasks(&self) -> impl Iterator<Item = u32> + '_ {
        self.per_task.keys().copied()
    }
}

/// Cumulative per-entity budget accounting across a stream of windows.
///
/// A [`PrivacyLedger`] audits one worker inside one protocol run; a
/// `CumulativeAccountant` tracks *lifetime* budget depletion of many
/// entities across successive runs — the streaming setting, where the
/// same worker participates in window after window until the budget his
/// lifetime capacity grants is gone and the pipeline retires him.
/// Entities are keyed by caller-chosen `u64` ids (the stream's logical
/// worker ids), not per-instance indices, so accounting survives the
/// re-indexing every new window performs.
///
/// # Two-phase charging
///
/// [`charge`](Self::charge) records spend immediately. Coordinated
/// runs — the streaming pipeline's cross-shard halo mode, where several
/// shards publish on behalf of one worker inside one window — instead
/// use the reserve/commit pair: every shard [`reserve`](Self::reserve)s
/// the budget its publications would cost, reservations count against
/// [`remaining`](Self::remaining) so later proposals see a depleted
/// budget, and after cross-shard reconciliation the coordinator
/// [`commit`](Self::commit)s (or [`rollback`](Self::rollback)s) each
/// entity's pending total exactly once. Retirement
/// ([`is_exhausted`](Self::is_exhausted) /
/// [`drain_exhausted`](Self::drain_exhausted)) looks at *committed*
/// spend only — a reservation can never retire anyone.
///
/// # Examples
///
/// ```
/// use dpta_dp::CumulativeAccountant;
///
/// let mut acc = CumulativeAccountant::new();
/// acc.register(7, 2.0); // worker 7 may spend ε = 2.0 over his lifetime
/// acc.charge(7, 1.5);
/// assert!(!acc.is_exhausted(7));
/// assert!((acc.remaining(7) - 0.5).abs() < 1e-12);
///
/// // Two-phase: a reservation depletes `remaining` but not `spent`
/// // until committed.
/// acc.reserve(7, 0.5);
/// assert_eq!(acc.remaining(7), 0.0);
/// assert!((acc.spent(7) - 1.5).abs() < 1e-12);
/// assert!((acc.commit(7) - 0.5).abs() < 1e-12);
/// assert!(acc.is_exhausted(7));
/// assert_eq!(acc.drain_exhausted(), vec![7]);
/// assert!(acc.tracked().next().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CumulativeAccountant {
    /// Logical id → slot in `slots`: the ledger's interning table.
    /// One deterministic [`FastMap`] probe per lookup — no tree descent
    /// and no SipHash on the hot per-window resolve/charge paths.
    index: FastMap<u64, u32>,
    /// Dense account storage; slots are never reused, a forgotten or
    /// drained entity leaves a `None` tombstone so outstanding
    /// [`AccountId`]s can never alias a different entity.
    slots: Vec<Option<Account>>,
    /// Live ids, ascending. Every public iteration (`tracked`,
    /// `total_spent`, serialization) walks this list, so observable
    /// ordering — including float summation order — is identical to the
    /// historical id-sorted map storage. Kept sorted eagerly: streaming
    /// registration is near-monotone in id, so the common case is an
    /// O(1) push.
    live: Vec<u64>,
    /// Ids charged, committed or (re)registered since the last
    /// [`drain_exhausted`](Self::drain_exhausted), each account listed
    /// once (see [`Account::marked`]); ids removed since are skipped at
    /// the drain.
    marked: Vec<u64>,
}

/// One tracked entity: lifetime capacity, committed spend, and budget
/// reserved by an in-flight window awaiting commit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Account {
    capacity: f64,
    spent: f64,
    reserved: f64,
    /// Listed in the accountant's `marked` ids: committed spend grew or
    /// the capacity was set since the last drain. Only those two moves
    /// can make an entity exhausted, so the drain examines marked
    /// entities alone.
    marked: bool,
}

/// Lists `id` among the marked ids unless its account already is.
pub(crate) fn mark(marked: &mut Vec<u64>, id: u64, flag: &mut bool) {
    if !*flag {
        *flag = true;
        marked.push(id);
    }
}

/// The drain both accountants share: examines the `marked` ids still
/// in `index`, clearing each one's mark, and removes those `exhausted`
/// reports from `index`, `slots` and `live`. Returns them ascending.
/// An id listed twice (forgotten, then registered again) is examined
/// twice, to the same verdict.
pub(crate) fn drain_marked<A>(
    marked: &mut Vec<u64>,
    index: &mut FastMap<u64, u32>,
    slots: &mut [Option<A>],
    live: &mut Vec<u64>,
    exhausted: impl Fn(&mut A) -> bool,
) -> Vec<u64> {
    let mut gone = Vec::new();
    for id in marked.drain(..) {
        let Some(&slot) = index.get(&id) else {
            continue;
        };
        if exhausted(slots[slot as usize].as_mut().expect("indexed")) {
            index.remove(&id);
            slots[slot as usize] = None;
            gone.push(id);
        }
    }
    gone.sort_unstable();
    remove_sorted(live, &gone);
    gone
}

/// Removes the ascending ids `gone` (all present) from the ascending
/// list `live` in one compacting pass from the first removed position.
fn remove_sorted(live: &mut Vec<u64>, gone: &[u64]) {
    let Some(&first) = gone.first() else {
        return;
    };
    let start = live.partition_point(|&x| x < first);
    let (mut keep, mut k) = (start, 0);
    for r in start..live.len() {
        if gone.get(k) == Some(&live[r]) {
            k += 1;
        } else {
            live[keep] = live[r];
            keep += 1;
        }
    }
    debug_assert_eq!(k, gone.len(), "every drained id was live");
    live.truncate(keep);
}

/// A dense handle to one tracked entity, obtained from
/// [`CumulativeAccountant::resolve`].
///
/// Hot per-proposal paths (budget guards, release charging) resolve a
/// worker's logical id once per window and then use the `*_at` methods,
/// which are plain vector lookups — no id hashing or tree descent per
/// proposal. A handle stays valid until its entity is removed
/// ([`forget`](CumulativeAccountant::forget) /
/// [`drain_exhausted`](CumulativeAccountant::drain_exhausted)); after
/// that, read accessors return zero (like unknown ids) and mutating
/// accessors panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccountId {
    slot: u32,
    /// The logical id, carried so a charge through the handle can mark
    /// the account for the next drain without storing the id per slot.
    id: u64,
}

impl AccountId {
    /// Wraps a dense slot index and its logical id — shared with the
    /// sibling [`WindowedAccountant`](crate::WindowedAccountant), which
    /// uses the same tombstoned-slot layout and hands out
    /// interchangeable handles.
    pub(crate) fn new(slot: u32, id: u64) -> Self {
        AccountId { slot, id }
    }

    /// The dense slot index this handle wraps.
    pub(crate) fn slot(self) -> u32 {
        self.slot
    }

    /// The logical id this handle resolves.
    pub(crate) fn id(self) -> u64 {
        self.id
    }
}

impl CumulativeAccountant {
    /// Creates an accountant tracking no entities.
    ///
    /// **Deprecation note:** pipeline code should no longer construct a
    /// `CumulativeAccountant` directly. Build a
    /// [`LedgerState`](crate::LedgerState) (for which lifetime
    /// accounting is one policy next to the sliding-window
    /// [`WindowedAccountant`](crate::WindowedAccountant)) and program
    /// against the [`BudgetLedger`](crate::BudgetLedger) trait instead
    /// — that is the path the stream session uses, and the only one
    /// that supports budget renewal. Direct construction remains
    /// supported for audits and tests of the paper's lifetime model.
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, id: u64) -> Option<&Account> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Account> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Starts tracking `id` with the given lifetime budget capacity.
    /// Re-registering an id keeps its spend and raises/lowers only the
    /// capacity, so late capacity adjustments cannot reset history.
    /// `capacity` may be `f64::INFINITY` for never-retiring entities.
    pub fn register(&mut self, id: u64, capacity: f64) {
        assert!(
            capacity > 0.0 && !capacity.is_nan(),
            "capacity must be positive, got {capacity}"
        );
        match self.index.get(&id) {
            Some(&slot) => {
                let a = self.slots[slot as usize].as_mut().expect("indexed");
                a.capacity = capacity;
                mark(&mut self.marked, id, &mut a.marked);
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(Account {
                    capacity,
                    spent: 0.0,
                    reserved: 0.0,
                    marked: true,
                }));
                self.marked.push(id);
                self.index.insert(id, slot);
                match self.live.last() {
                    Some(&last) if last >= id => {
                        let at = self.live.partition_point(|&x| x < id);
                        self.live.insert(at, id);
                    }
                    _ => self.live.push(id),
                }
            }
        }
    }

    /// The dense handle for `id`, if it is currently tracked. Resolve
    /// once per window, then use [`charge_at`](Self::charge_at) /
    /// [`remaining_at`](Self::remaining_at) and friends in per-proposal
    /// loops.
    pub fn resolve(&self, id: u64) -> Option<AccountId> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize]
            .as_ref()
            .map(|_| AccountId::new(slot, id))
    }

    /// Charges `epsilon` (≥ 0) against `id`'s lifetime budget. Panics if
    /// the id was never registered — silent accounting gaps are exactly
    /// what this type exists to prevent.
    pub fn charge(&mut self, id: u64, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "charge must be finite and >= 0, got {epsilon}"
        );
        let at = self
            .resolve(id)
            .unwrap_or_else(|| panic!("entity {id} was never registered"));
        self.charge_at(at, epsilon);
    }

    /// Handle counterpart of [`charge`](Self::charge); panics on a
    /// stale handle. A zero charge changes no state at all.
    pub fn charge_at(&mut self, at: AccountId, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "charge must be finite and >= 0, got {epsilon}"
        );
        let a = self.slots[at.slot as usize]
            .as_mut()
            .expect("stale account handle");
        if epsilon > 0.0 {
            a.spent += epsilon;
            mark(&mut self.marked, at.id, &mut a.marked);
        }
    }

    /// Reserves `epsilon` (≥ 0) against `id`'s lifetime budget without
    /// committing it: [`remaining`](Self::remaining) shrinks at once,
    /// [`spent`](Self::spent) moves only on [`commit`](Self::commit).
    /// Panics if the id was never registered.
    pub fn reserve(&mut self, id: u64, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "reservation must be finite and >= 0, got {epsilon}"
        );
        self.get_mut(id)
            .unwrap_or_else(|| panic!("entity {id} was never registered"))
            .reserved += epsilon;
    }

    /// Handle counterpart of [`reserve`](Self::reserve); panics on a
    /// stale handle.
    pub fn reserve_at(&mut self, at: AccountId, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "reservation must be finite and >= 0, got {epsilon}"
        );
        self.slots[at.slot as usize]
            .as_mut()
            .expect("stale account handle")
            .reserved += epsilon;
    }

    /// Budget currently reserved against `id` and awaiting commit (zero
    /// for unknown ids).
    pub fn reserved(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, |a| a.reserved)
    }

    /// Converts `id`'s whole pending reservation into committed spend
    /// and returns the amount. A no-op returning zero when nothing is
    /// reserved; panics if the id was never registered.
    pub fn commit(&mut self, id: u64) -> f64 {
        let at = self
            .resolve(id)
            .unwrap_or_else(|| panic!("entity {id} was never registered"));
        let a = self.slots[at.slot as usize].as_mut().expect("resolved");
        let amount = a.reserved;
        a.spent += amount;
        a.reserved = 0.0;
        if amount > 0.0 {
            mark(&mut self.marked, id, &mut a.marked);
        }
        amount
    }

    /// Discards `id`'s pending reservation (the publications never
    /// happened) and returns the released amount. Zero for unknown ids.
    pub fn rollback(&mut self, id: u64) -> f64 {
        self.get_mut(id).map_or(0.0, |a| {
            let amount = a.reserved;
            a.reserved = 0.0;
            amount
        })
    }

    /// Cumulative committed spend of `id` (zero for unknown ids).
    pub fn spent(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, |a| a.spent)
    }

    /// Handle counterpart of [`spent`](Self::spent); zero for stale
    /// handles.
    pub fn spent_at(&self, at: AccountId) -> f64 {
        self.slots[at.slot as usize].map_or(0.0, |a| a.spent)
    }

    /// Remaining lifetime budget of `id` (zero for unknown ids), net of
    /// both committed spend and pending reservations, clamped at zero.
    pub fn remaining(&self, id: u64) -> f64 {
        self.get(id)
            .map_or(0.0, |a| (a.capacity - a.spent - a.reserved).max(0.0))
    }

    /// Handle counterpart of [`remaining`](Self::remaining); zero for
    /// stale handles.
    pub fn remaining_at(&self, at: AccountId) -> f64 {
        self.slots[at.slot as usize].map_or(0.0, |a| (a.capacity - a.spent - a.reserved).max(0.0))
    }

    /// Whether `id` has spent its whole capacity (unknown ids count as
    /// exhausted — they have nothing left to spend).
    pub fn is_exhausted(&self, id: u64) -> bool {
        self.get(id).is_none_or(|a| {
            // Tolerance mirrors the ledger-vs-board float comparisons.
            a.spent >= a.capacity - 1e-12
        })
    }

    /// Removes and returns every exhausted entity, ascending by id —
    /// the retirement step the stream driver runs after each window.
    ///
    /// Only entities charged, committed or (re)registered since the
    /// previous drain are examined: exhaustion compares committed spend
    /// with capacity, and nothing else moves either, so an entity the
    /// last drain kept and nobody touched since is still not exhausted.
    /// The cost is proportional to the touched entities, not to the
    /// tracked ones.
    pub fn drain_exhausted(&mut self) -> Vec<u64> {
        drain_marked(
            &mut self.marked,
            &mut self.index,
            &mut self.slots,
            &mut self.live,
            |a| {
                a.marked = false;
                a.spent >= a.capacity - 1e-12
            },
        )
    }

    /// Stops tracking `id` regardless of its state (e.g. a worker who
    /// departed by being matched). Returns whether it was tracked.
    pub fn forget(&mut self, id: u64) -> bool {
        match self.index.remove(&id) {
            Some(slot) => {
                self.slots[slot as usize] = None;
                let at = self.live.partition_point(|&x| x < id);
                debug_assert_eq!(self.live.get(at), Some(&id));
                self.live.remove(at);
                true
            }
            None => false,
        }
    }

    /// Ids still tracked, ascending.
    pub fn tracked(&self) -> impl Iterator<Item = u64> + '_ {
        self.live.iter().copied()
    }

    /// Total spend across all tracked entities, summed ascending by id
    /// (the float order every historical gate pinned).
    pub fn total_spent(&self) -> f64 {
        self.live
            .iter()
            .filter_map(|id| {
                let slot = *self.index.get(id)?;
                self.slots[slot as usize]
            })
            .map(|a| a.spent)
            .sum()
    }
}

/// Canonical form: one row per live entity, ascending by id, with the
/// dense slot layout discarded. Restoring assigns fresh contiguous
/// slots — safe because every observable behaviour (iteration order,
/// retirement order, float summation order) goes through the id index,
/// never the slot vector, and it makes snapshot → restore → snapshot
/// idempotent regardless of how many tombstones the original
/// accumulated.
impl Serialize for CumulativeAccountant {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Array(
            self.live
                .iter()
                .filter_map(|&id| {
                    let slot = *self.index.get(&id)?;
                    self.slots[slot as usize].map(|a| {
                        serde::Value::Object(vec![
                            ("id".to_string(), id.serialize_value()),
                            ("capacity".to_string(), a.capacity.serialize_value()),
                            ("spent".to_string(), a.spent.serialize_value()),
                            ("reserved".to_string(), a.reserved.serialize_value()),
                        ])
                    })
                })
                .collect(),
        )
    }
}

impl Deserialize for CumulativeAccountant {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let rows = match v {
            serde::Value::Array(rows) => rows,
            other => return Err(serde::Error::expected("accountant row array", other)),
        };
        let mut acc = CumulativeAccountant::new();
        for row in rows {
            let field = |name: &str| {
                row.get(name)
                    .ok_or_else(|| serde::Error(format!("missing accountant field `{name}`")))
            };
            let id = u64::deserialize_value(field("id")?)?;
            // The marks are not serialized: a restored ledger marks
            // every entity, so its first drain is a full scan.
            let account = Account {
                capacity: f64::deserialize_value(field("capacity")?)?,
                spent: f64::deserialize_value(field("spent")?)?,
                reserved: f64::deserialize_value(field("reserved")?)?,
                marked: true,
            };
            if account.capacity <= 0.0 || account.capacity.is_nan() {
                return Err(serde::Error(format!(
                    "accountant entity {id} has non-positive capacity"
                )));
            }
            let slot = acc.slots.len() as u32;
            acc.slots.push(Some(account));
            acc.marked.push(id);
            if acc.index.insert(id, slot).is_some() {
                return Err(serde::Error(format!("duplicate accountant entity {id}")));
            }
            acc.live.push(id);
        }
        // Canonical snapshots are already ascending; tolerate (and
        // normalise) any historical ordering.
        acc.live.sort_unstable();
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_ledger_has_zero_bound() {
        let l = PrivacyLedger::new();
        assert_eq!(l.total_epsilon(), 0.0);
        assert_eq!(l.ldp_bound(2.0), 0.0);
        assert_eq!(l.publications(), 0);
    }

    #[test]
    fn bound_is_radius_times_total() {
        let mut l = PrivacyLedger::new();
        l.record(0, 0.5);
        l.record(0, 0.75);
        l.record(3, 1.0);
        assert!((l.total_epsilon() - 2.25).abs() < 1e-15);
        assert!((l.ldp_bound(1.4) - 2.25 * 1.4).abs() < 1e-12);
        assert!((l.spent_on(0) - 1.25).abs() < 1e-15);
        assert_eq!(l.spent_on(7), 0.0);
        assert_eq!(l.publications(), 3);
        assert_eq!(l.tasks().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "privacy budget must be finite")]
    fn rejects_invalid_budget() {
        PrivacyLedger::new().record(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "service radius")]
    fn rejects_negative_radius() {
        let mut l = PrivacyLedger::new();
        l.record(0, 1.0);
        let _ = l.ldp_bound(-0.1);
    }

    #[test]
    fn tombstoned_slots_stay_four_words() {
        // Slots are never reused, so a slot's size is a per-entity cost
        // that grows with the stream's history.
        assert_eq!(std::mem::size_of::<Option<Account>>(), 32);
    }

    #[test]
    fn accountant_tracks_charges_and_retires() {
        let mut acc = CumulativeAccountant::new();
        acc.register(1, 2.0);
        acc.register(2, 1.0);
        acc.register(3, f64::INFINITY);
        acc.charge(1, 0.75);
        acc.charge(1, 0.75);
        acc.charge(2, 1.0);
        acc.charge(3, 1000.0);
        assert!((acc.spent(1) - 1.5).abs() < 1e-12);
        assert!((acc.remaining(1) - 0.5).abs() < 1e-12);
        assert!(!acc.is_exhausted(1));
        assert!(acc.is_exhausted(2));
        assert!(!acc.is_exhausted(3));
        assert_eq!(acc.drain_exhausted(), vec![2]);
        assert_eq!(acc.tracked().collect::<Vec<_>>(), vec![1, 3]);
        assert!((acc.total_spent() - 1001.5).abs() < 1e-9);
        assert!(acc.forget(3));
        assert!(!acc.forget(3));
        // Unknown ids: nothing left to spend.
        assert!(acc.is_exhausted(99));
        assert_eq!(acc.remaining(99), 0.0);
        assert_eq!(acc.spent(99), 0.0);
    }

    #[test]
    fn re_registering_keeps_spend() {
        let mut acc = CumulativeAccountant::new();
        acc.register(5, 1.0);
        acc.charge(5, 0.9);
        acc.register(5, 10.0); // capacity raise must not reset history
        assert!((acc.spent(5) - 0.9).abs() < 1e-12);
        assert!((acc.remaining(5) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn reserve_commit_rollback_round_trip() {
        let mut acc = CumulativeAccountant::new();
        acc.register(4, 3.0);
        acc.charge(4, 1.0);
        acc.reserve(4, 0.5);
        acc.reserve(4, 0.25);
        assert!((acc.reserved(4) - 0.75).abs() < 1e-12);
        // Reservations deplete `remaining` but not `spent`.
        assert!((acc.remaining(4) - 1.25).abs() < 1e-12);
        assert!((acc.spent(4) - 1.0).abs() < 1e-12);
        assert!(!acc.is_exhausted(4));
        // Rollback releases the budget untouched.
        assert!((acc.rollback(4) - 0.75).abs() < 1e-12);
        assert_eq!(acc.reserved(4), 0.0);
        assert!((acc.remaining(4) - 2.0).abs() < 1e-12);
        // Commit converts a reservation into spend exactly once.
        acc.reserve(4, 2.0);
        assert!((acc.commit(4) - 2.0).abs() < 1e-12);
        assert_eq!(acc.commit(4), 0.0); // nothing pending: no-op
        assert!((acc.spent(4) - 3.0).abs() < 1e-12);
        assert!(acc.is_exhausted(4));
        // Unknown ids: rollback is a zero no-op.
        assert_eq!(acc.rollback(99), 0.0);
        assert_eq!(acc.reserved(99), 0.0);
    }

    #[test]
    fn reservations_never_retire() {
        let mut acc = CumulativeAccountant::new();
        acc.register(1, 1.0);
        acc.reserve(1, 5.0);
        assert_eq!(acc.remaining(1), 0.0);
        assert!(!acc.is_exhausted(1), "only committed spend retires");
        assert!(acc.drain_exhausted().is_empty());
        acc.commit(1);
        assert!(acc.is_exhausted(1));
    }

    #[test]
    fn handles_are_dense_aliases_of_ids() {
        let mut acc = CumulativeAccountant::new();
        acc.register(40, 2.0);
        acc.register(41, 3.0);
        let h40 = acc.resolve(40).unwrap();
        let h41 = acc.resolve(41).unwrap();
        assert_ne!(h40, h41);
        assert!(acc.resolve(99).is_none());
        acc.charge_at(h40, 0.5);
        acc.reserve_at(h41, 1.0);
        assert!((acc.spent(40) - 0.5).abs() < 1e-12);
        assert!((acc.spent_at(h40) - 0.5).abs() < 1e-12);
        assert!((acc.remaining_at(h40) - 1.5).abs() < 1e-12);
        assert!((acc.reserved(41) - 1.0).abs() < 1e-12);
        assert!((acc.remaining_at(h41) - 2.0).abs() < 1e-12);
        // Removal tombstones the slot: a later registration can never
        // alias the old handle, and reads degrade to the unknown-id
        // behaviour.
        acc.forget(40);
        assert!(acc.resolve(40).is_none());
        assert_eq!(acc.spent_at(h40), 0.0);
        assert_eq!(acc.remaining_at(h40), 0.0);
        acc.register(40, 5.0); // fresh slot
        let h40b = acc.resolve(40).unwrap();
        assert_ne!(h40, h40b);
        assert_eq!(acc.spent_at(h40), 0.0, "old handle stays dead");
    }

    #[test]
    #[should_panic(expected = "stale account handle")]
    fn charging_a_stale_handle_panics() {
        let mut acc = CumulativeAccountant::new();
        acc.register(1, 1.0);
        let h = acc.resolve(1).unwrap();
        acc.forget(1);
        acc.charge_at(h, 0.1);
    }

    #[test]
    fn drained_entities_release_their_handles() {
        let mut acc = CumulativeAccountant::new();
        acc.register(8, 1.0);
        acc.register(9, 1.0);
        let h8 = acc.resolve(8).unwrap();
        acc.charge_at(h8, 1.0);
        assert_eq!(acc.drain_exhausted(), vec![8]);
        assert!(acc.resolve(8).is_none());
        assert_eq!(acc.remaining_at(h8), 0.0);
        assert_eq!(acc.tracked().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    #[should_panic(expected = "never registered")]
    fn reserving_unknown_id_panics() {
        CumulativeAccountant::new().reserve(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "never registered")]
    fn charging_unknown_id_panics() {
        CumulativeAccountant::new().charge(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        CumulativeAccountant::new().register(0, 0.0);
    }

    #[test]
    fn accountant_round_trips_canonically() {
        let mut acc = CumulativeAccountant::new();
        acc.register(7, f64::INFINITY);
        acc.register(2, 1.5);
        acc.register(9, 4.0);
        acc.charge(2, 0.5);
        acc.reserve(9, 1.25); // outstanding reservation must survive
        acc.forget(7); // leaves a slot tombstone
        let back =
            CumulativeAccountant::deserialize_value(&acc.serialize_value()).expect("round trip");
        assert_eq!(back.tracked().collect::<Vec<_>>(), vec![2, 9]);
        assert_eq!(back.spent(2), acc.spent(2));
        assert_eq!(back.reserved(9), acc.reserved(9));
        assert_eq!(back.remaining(9), acc.remaining(9));
        // Canonical: a second round trip is value-identical.
        assert_eq!(back.serialize_value(), acc.serialize_value());
        // Infinite capacities survive exactly.
        let mut inf = CumulativeAccountant::new();
        inf.register(1, f64::INFINITY);
        let back = CumulativeAccountant::deserialize_value(&inf.serialize_value()).unwrap();
        assert_eq!(back.remaining(1), f64::INFINITY);
    }

    #[test]
    fn accountant_rejects_malformed_rows() {
        use serde::Value;
        let dup = Value::Array(vec![
            Value::Object(vec![
                ("id".into(), Value::Number(1.0)),
                ("capacity".into(), Value::Number(1.0)),
                ("spent".into(), Value::Number(0.0)),
                ("reserved".into(), Value::Number(0.0)),
            ]);
            2
        ]);
        assert!(CumulativeAccountant::deserialize_value(&dup).is_err());
        let bad_cap = Value::Array(vec![Value::Object(vec![
            ("id".into(), Value::Number(1.0)),
            ("capacity".into(), Value::Number(0.0)),
            ("spent".into(), Value::Number(0.0)),
            ("reserved".into(), Value::Number(0.0)),
        ])]);
        assert!(CumulativeAccountant::deserialize_value(&bad_cap).is_err());
    }

    proptest! {
        #[test]
        fn accountant_total_matches_per_entity(
            charges in proptest::collection::vec((0u64..6, 0.0f64..2.0), 0..40)
        ) {
            let mut acc = CumulativeAccountant::new();
            for id in 0..6 {
                acc.register(id, f64::INFINITY);
            }
            for &(id, e) in &charges {
                acc.charge(id, e);
            }
            let direct: f64 = charges.iter().map(|&(_, e)| e).sum();
            prop_assert!((acc.total_spent() - direct).abs() < 1e-9);
            let by_id: f64 = (0..6).map(|id| acc.spent(id)).sum();
            prop_assert!((by_id - direct).abs() < 1e-9);
        }

        #[test]
        fn total_is_sum_of_per_task(
            records in proptest::collection::vec((0u32..8, 0.05f64..3.0), 0..40)
        ) {
            let mut l = PrivacyLedger::new();
            for &(t, e) in &records {
                l.record(t, e);
            }
            let direct: f64 = records.iter().map(|&(_, e)| e).sum();
            prop_assert!((l.total_epsilon() - direct).abs() < 1e-9);
            let by_task: f64 = (0..8).map(|t| l.spent_on(t)).sum();
            prop_assert!((by_task - direct).abs() < 1e-9);
        }
    }
}
