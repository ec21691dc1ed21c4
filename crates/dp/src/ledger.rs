//! The budget-ledger abstraction: lifetime vs sliding-window privacy
//! accounting behind one trait.
//!
//! The paper's model is *lifetime* depletion: every publication burns a
//! worker's ε forever and an exhausted worker retires ([Theorems V.2 /
//! VI.4], tracked by [`CumulativeAccountant`]). That is correct over
//! the paper's finite horizon but wrong for a service that runs for
//! months: under the continual-observation / sliding-window model of
//! *Differential Privacy on Dynamic Data* (Qiu & Yi, arXiv:2209.01387)
//! the adversary is only promised indistinguishability over any span of
//! length `W`, so spend older than the protection window stops counting
//! against the worker and his budget *renews*.
//!
//! [`BudgetLedger`] is the object-safe surface both accountants share —
//! the streaming pipeline's budget guards, single-charge dedup, and
//! snapshot machinery are written against it. [`WindowedAccountant`]
//! implements the sliding-window policy as a time-stamped charge
//! ledger; with `W = ∞` it performs *bit-for-bit* the same arithmetic
//! as [`CumulativeAccountant`] (no entries are ever recorded, the spend
//! accumulator is the only state — pinned by proptests here and at the
//! stream level). [`LedgerState`] is the serializable sum of the two,
//! the concrete storage the stream session embeds and snapshots.
//!
//! # The reclamation rule
//!
//! Charges are stamped with the ledger's current time (the enclosing
//! window's start, in the stream pipeline). [`advance_time`] to `now`
//! drops every entry stamped `t ≤ now − W` and recomputes the spend
//! accumulator as a fresh left-to-right sum over the survivors. Two
//! consequences, both load-bearing:
//!
//! * **Spend inside any `W`-span never exceeds capacity.** The budget
//!   guard reads `remaining = capacity − spent − reserved` where
//!   `spent` is exactly the in-window spend, so a guard-respecting
//!   caller can never push any window of length `W` past `capacity`.
//! * **Reclamation is exactly monotone.** IEEE round-to-nearest
//!   addition is monotone in the accumulator, so summing a suffix of
//!   the entry list can never exceed summing the whole list: shrinking
//!   `W` never *decreases* remaining budget, with no tolerance needed.
//!
//! [`advance_time`]: BudgetLedger::advance_time

use crate::accountant::{drain_marked, mark, AccountId, CumulativeAccountant};
use crate::intern::FastMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The accounting surface shared by lifetime and sliding-window budget
/// ledgers.
///
/// Mirrors [`CumulativeAccountant`]'s method set — registration, the
/// two-phase reserve/commit/rollback protocol, dense [`AccountId`]
/// handles for hot per-proposal paths, retirement draining — plus the
/// two knobs that distinguish the policies:
/// [`advance_time`](Self::advance_time) (a no-op for lifetime
/// accounting) and [`renewable`](Self::renewable) (whether exhausted
/// entities may come back, i.e. whether retiring them is wrong).
///
/// The trait is object-safe: the streaming halo coordinator passes
/// `&dyn BudgetLedger` as its remaining-budget guard source.
pub trait BudgetLedger {
    /// Starts tracking `id` with the given budget capacity.
    /// Re-registering keeps spend and adjusts only the capacity.
    fn register(&mut self, id: u64, capacity: f64);
    /// The dense handle for `id`, if currently tracked.
    fn resolve(&self, id: u64) -> Option<AccountId>;
    /// Charges `epsilon` (≥ 0) against `id`. Panics if unregistered.
    fn charge(&mut self, id: u64, epsilon: f64);
    /// Handle counterpart of [`charge`](Self::charge).
    fn charge_at(&mut self, at: AccountId, epsilon: f64);
    /// Reserves `epsilon` (≥ 0) without committing it.
    fn reserve(&mut self, id: u64, epsilon: f64);
    /// Handle counterpart of [`reserve`](Self::reserve).
    fn reserve_at(&mut self, at: AccountId, epsilon: f64);
    /// Budget reserved against `id` and awaiting commit.
    fn reserved(&self, id: u64) -> f64;
    /// Converts `id`'s pending reservation into spend; returns it.
    fn commit(&mut self, id: u64) -> f64;
    /// Discards `id`'s pending reservation; returns it.
    fn rollback(&mut self, id: u64) -> f64;
    /// Committed spend of `id` (zero for unknown ids). For a windowed
    /// ledger this is the spend *inside the current protection window*.
    fn spent(&self, id: u64) -> f64;
    /// Handle counterpart of [`spent`](Self::spent).
    fn spent_at(&self, at: AccountId) -> f64;
    /// Remaining budget of `id`, net of reservations, clamped at zero.
    fn remaining(&self, id: u64) -> f64;
    /// Handle counterpart of [`remaining`](Self::remaining).
    fn remaining_at(&self, at: AccountId) -> f64;
    /// Whether `id`'s committed spend has reached capacity.
    fn is_exhausted(&self, id: u64) -> bool;
    /// Removes and returns every exhausted entity, ascending by id.
    /// Examines only the entities charged, committed or (re)registered
    /// since the previous drain (every entity, on a deserialized
    /// ledger): nothing else can start an exhaustion.
    fn drain_exhausted(&mut self) -> Vec<u64>;
    /// Stops tracking `id`; returns whether it was tracked.
    fn forget(&mut self, id: u64) -> bool;
    /// Ids still tracked, ascending.
    fn tracked_ids(&self) -> Vec<u64>;
    /// Total spend across tracked entities, summed ascending by id.
    fn total_spent(&self) -> f64;
    /// Advances the ledger clock to `now`, reclaiming any spend that
    /// has aged out of the protection window. A no-op for lifetime
    /// accounting.
    fn advance_time(&mut self, now: f64) {
        let _ = now;
    }
    /// Whether reclaimed budget can return to exhausted entities — if
    /// `true`, retiring an exhausted entity forever is wrong and the
    /// caller should let it idle instead.
    fn renewable(&self) -> bool {
        false
    }
}

impl BudgetLedger for CumulativeAccountant {
    fn register(&mut self, id: u64, capacity: f64) {
        CumulativeAccountant::register(self, id, capacity);
    }
    fn resolve(&self, id: u64) -> Option<AccountId> {
        CumulativeAccountant::resolve(self, id)
    }
    fn charge(&mut self, id: u64, epsilon: f64) {
        CumulativeAccountant::charge(self, id, epsilon);
    }
    fn charge_at(&mut self, at: AccountId, epsilon: f64) {
        CumulativeAccountant::charge_at(self, at, epsilon);
    }
    fn reserve(&mut self, id: u64, epsilon: f64) {
        CumulativeAccountant::reserve(self, id, epsilon);
    }
    fn reserve_at(&mut self, at: AccountId, epsilon: f64) {
        CumulativeAccountant::reserve_at(self, at, epsilon);
    }
    fn reserved(&self, id: u64) -> f64 {
        CumulativeAccountant::reserved(self, id)
    }
    fn commit(&mut self, id: u64) -> f64 {
        CumulativeAccountant::commit(self, id)
    }
    fn rollback(&mut self, id: u64) -> f64 {
        CumulativeAccountant::rollback(self, id)
    }
    fn spent(&self, id: u64) -> f64 {
        CumulativeAccountant::spent(self, id)
    }
    fn spent_at(&self, at: AccountId) -> f64 {
        CumulativeAccountant::spent_at(self, at)
    }
    fn remaining(&self, id: u64) -> f64 {
        CumulativeAccountant::remaining(self, id)
    }
    fn remaining_at(&self, at: AccountId) -> f64 {
        CumulativeAccountant::remaining_at(self, at)
    }
    fn is_exhausted(&self, id: u64) -> bool {
        CumulativeAccountant::is_exhausted(self, id)
    }
    fn drain_exhausted(&mut self) -> Vec<u64> {
        CumulativeAccountant::drain_exhausted(self)
    }
    fn forget(&mut self, id: u64) -> bool {
        CumulativeAccountant::forget(self, id)
    }
    fn tracked_ids(&self) -> Vec<u64> {
        self.tracked().collect()
    }
    fn total_spent(&self) -> f64 {
        CumulativeAccountant::total_spent(self)
    }
}

/// One tracked entity of a [`WindowedAccountant`]: capacity, the spend
/// accumulator (over in-window entries), pending reservation, and the
/// time-stamped charge ledger itself, stamps ascending.
#[derive(Debug, Clone, PartialEq)]
struct WindowedAccount {
    capacity: f64,
    spent: f64,
    reserved: f64,
    entries: VecDeque<(f64, f64)>,
    /// Listed in the accountant's `marked` ids (see the lifetime
    /// accountant: the same drain rule applies — reclamation only ever
    /// lowers spend, so it cannot exhaust anyone).
    marked: bool,
}

/// Sliding-window budget accounting: spend older than the protection
/// window `W` is reclaimed, making entities renewable resources.
///
/// Shares [`CumulativeAccountant`]'s interned fast-map layout (logical
/// id → dense slot, tombstoned on removal, id-sorted live list for
/// every observable iteration) and its exact two-phase
/// reserve/commit/rollback semantics. On top, every committed charge is
/// stamped with the ledger clock, and
/// [`advance_time`](BudgetLedger::advance_time) drops entries that have
/// aged out, recomputing the spend accumulator as a fresh left-to-right
/// sum over the survivors.
///
/// With `window = ∞` no entry is ever recorded and no reclamation ever
/// runs: the arithmetic performed is bit-for-bit the
/// [`CumulativeAccountant`]'s (proptest-pinned, here and at the stream
/// level).
///
/// # Examples
///
/// ```
/// use dpta_dp::{BudgetLedger, WindowedAccountant};
///
/// let mut acc = WindowedAccountant::new(600.0); // W = 600 s
/// acc.register(7, 1.0);
/// acc.advance_time(0.0);
/// acc.charge(7, 1.0);
/// assert!(acc.is_exhausted(7));
/// // 600 s later the charge ages out and the budget renews.
/// acc.advance_time(600.0);
/// assert!(!acc.is_exhausted(7));
/// assert_eq!(acc.remaining(7), 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WindowedAccountant {
    index: FastMap<u64, u32>,
    slots: Vec<Option<WindowedAccount>>,
    live: Vec<u64>,
    /// Ids charged, committed or (re)registered since the last drain.
    marked: Vec<u64>,
    /// Protection window length `W`; `f64::INFINITY` disables
    /// reclamation entirely (lifetime semantics).
    window: f64,
    /// The ledger clock: charges are stamped with it, reclamation
    /// measures age against it.
    now: f64,
}

impl WindowedAccountant {
    /// Creates a windowed accountant with protection window `window`
    /// (seconds of stream time; `f64::INFINITY` for lifetime
    /// semantics). Panics on a non-positive or NaN window.
    pub fn new(window: f64) -> Self {
        assert!(
            window > 0.0 && !window.is_nan(),
            "protection window must be positive, got {window}"
        );
        WindowedAccountant {
            index: FastMap::default(),
            slots: Vec::new(),
            live: Vec::new(),
            marked: Vec::new(),
            window,
            now: f64::NEG_INFINITY,
        }
    }

    /// The protection window length `W`.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The ledger clock (the last `advance_time` value;
    /// `-∞` before the first advance).
    pub fn now(&self) -> f64 {
        self.now
    }

    fn get(&self, id: u64) -> Option<&WindowedAccount> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut WindowedAccount> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Books a committed amount against the account `at`: adds it to
    /// the spend accumulator, stamps it into the charge ledger and marks
    /// the account for the next drain. Zero amounts change no state
    /// (they cannot change any future recomputed sum), and an infinite
    /// window stamps nothing at all — the spend accumulator is the only
    /// state, exactly as in [`CumulativeAccountant`].
    fn book(&mut self, at: AccountId, amount: f64) {
        let a = self.slots[at.slot() as usize]
            .as_mut()
            .expect("stale account handle");
        if amount <= 0.0 {
            return;
        }
        a.spent += amount;
        if self.window.is_finite() {
            a.entries.push_back((self.now, amount));
        }
        mark(&mut self.marked, at.id(), &mut a.marked);
    }

    fn registered(&self, id: u64) -> AccountId {
        self.resolve(id)
            .unwrap_or_else(|| panic!("entity {id} was never registered"))
    }
}

impl BudgetLedger for WindowedAccountant {
    fn register(&mut self, id: u64, capacity: f64) {
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
                self.slots.push(Some(WindowedAccount {
                    capacity,
                    spent: 0.0,
                    reserved: 0.0,
                    entries: VecDeque::new(),
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

    fn resolve(&self, id: u64) -> Option<AccountId> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize]
            .as_ref()
            .map(|_| AccountId::new(slot, id))
    }

    fn charge(&mut self, id: u64, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "charge must be finite and >= 0, got {epsilon}"
        );
        let at = self.registered(id);
        self.book(at, epsilon);
    }

    fn charge_at(&mut self, at: AccountId, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "charge must be finite and >= 0, got {epsilon}"
        );
        self.book(at, epsilon);
    }

    fn reserve(&mut self, id: u64, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "reservation must be finite and >= 0, got {epsilon}"
        );
        self.get_mut(id)
            .unwrap_or_else(|| panic!("entity {id} was never registered"))
            .reserved += epsilon;
    }

    fn reserve_at(&mut self, at: AccountId, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "reservation must be finite and >= 0, got {epsilon}"
        );
        self.slots[at.slot() as usize]
            .as_mut()
            .expect("stale account handle")
            .reserved += epsilon;
    }

    fn reserved(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, |a| a.reserved)
    }

    fn commit(&mut self, id: u64) -> f64 {
        let at = self.registered(id);
        let a = self.slots[at.slot() as usize].as_mut().expect("resolved");
        let amount = std::mem::take(&mut a.reserved);
        self.book(at, amount);
        amount
    }

    fn rollback(&mut self, id: u64) -> f64 {
        self.get_mut(id).map_or(0.0, |a| {
            let amount = a.reserved;
            a.reserved = 0.0;
            amount
        })
    }

    fn spent(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, |a| a.spent)
    }

    fn spent_at(&self, at: AccountId) -> f64 {
        self.slots[at.slot() as usize]
            .as_ref()
            .map_or(0.0, |a| a.spent)
    }

    fn remaining(&self, id: u64) -> f64 {
        self.get(id)
            .map_or(0.0, |a| (a.capacity - a.spent - a.reserved).max(0.0))
    }

    fn remaining_at(&self, at: AccountId) -> f64 {
        self.slots[at.slot() as usize]
            .as_ref()
            .map_or(0.0, |a| (a.capacity - a.spent - a.reserved).max(0.0))
    }

    fn is_exhausted(&self, id: u64) -> bool {
        self.get(id).is_none_or(|a| {
            // Tolerance mirrors the ledger-vs-board float comparisons.
            a.spent >= a.capacity - 1e-12
        })
    }

    fn drain_exhausted(&mut self) -> Vec<u64> {
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

    fn forget(&mut self, id: u64) -> bool {
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

    fn tracked_ids(&self) -> Vec<u64> {
        self.live.clone()
    }

    fn total_spent(&self) -> f64 {
        self.live
            .iter()
            .filter_map(|id| {
                let slot = *self.index.get(id)?;
                self.slots[slot as usize].as_ref()
            })
            .map(|a| a.spent)
            .sum()
    }

    fn advance_time(&mut self, now: f64) {
        assert!(!now.is_nan(), "ledger clock must not be NaN");
        self.now = now;
        if !self.window.is_finite() {
            return;
        }
        let cutoff = now - self.window;
        for slot in &mut self.slots {
            let Some(a) = slot.as_mut() else { continue };
            let mut reclaimed = false;
            while a.entries.front().is_some_and(|&(t, _)| t <= cutoff) {
                a.entries.pop_front();
                reclaimed = true;
            }
            if reclaimed {
                // A fresh left-to-right sum over the survivors: exactly
                // the accumulator a run that never saw the reclaimed
                // prefix would hold, and — because IEEE
                // round-to-nearest addition is monotone in the
                // accumulator — never more than the pre-reclamation
                // spend.
                a.spent = a.entries.iter().map(|&(_, e)| e).sum();
            }
        }
    }

    fn renewable(&self) -> bool {
        self.window.is_finite()
    }
}

/// Canonical form: the window and clock, then one row per live entity
/// ascending by id, each carrying its time-stamped charge ledger. The
/// dense slot layout is discarded; restoring assigns fresh contiguous
/// slots (see [`CumulativeAccountant`]'s serde notes — the same
/// argument applies).
impl Serialize for WindowedAccountant {
    fn serialize_value(&self) -> serde::Value {
        let accounts = self
            .live
            .iter()
            .filter_map(|&id| {
                let slot = *self.index.get(&id)?;
                self.slots[slot as usize].as_ref().map(|a| {
                    serde::Value::Object(vec![
                        ("id".to_string(), id.serialize_value()),
                        ("capacity".to_string(), a.capacity.serialize_value()),
                        ("spent".to_string(), a.spent.serialize_value()),
                        ("reserved".to_string(), a.reserved.serialize_value()),
                        (
                            "entries".to_string(),
                            serde::Value::Array(
                                a.entries
                                    .iter()
                                    .map(|&(t, e)| {
                                        serde::Value::Object(vec![
                                            ("t".to_string(), t.serialize_value()),
                                            ("eps".to_string(), e.serialize_value()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
            })
            .collect();
        serde::Value::Object(vec![
            ("window".to_string(), self.window.serialize_value()),
            ("now".to_string(), self.now.serialize_value()),
            ("accounts".to_string(), serde::Value::Array(accounts)),
        ])
    }
}

impl Deserialize for WindowedAccountant {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error(format!("missing windowed-ledger field `{name}`")))
        };
        let window = f64::deserialize_value(field("window")?)?;
        if window.is_nan() || window <= 0.0 {
            return Err(serde::Error(format!(
                "windowed ledger has non-positive window {window}"
            )));
        }
        let now = f64::deserialize_value(field("now")?)?;
        if now.is_nan() {
            return Err(serde::Error("windowed ledger clock is NaN".to_string()));
        }
        let rows = match field("accounts")? {
            serde::Value::Array(rows) => rows,
            other => return Err(serde::Error::expected("windowed account row array", other)),
        };
        let mut acc = WindowedAccountant::new(window);
        acc.now = now;
        for row in rows {
            let field = |name: &str| {
                row.get(name)
                    .ok_or_else(|| serde::Error(format!("missing windowed account field `{name}`")))
            };
            let id = u64::deserialize_value(field("id")?)?;
            let capacity = f64::deserialize_value(field("capacity")?)?;
            if capacity <= 0.0 || capacity.is_nan() {
                return Err(serde::Error(format!(
                    "windowed account {id} has non-positive capacity"
                )));
            }
            let entries = match field("entries")? {
                serde::Value::Array(entries) => entries
                    .iter()
                    .map(|entry| {
                        let field = |name: &str| {
                            entry.get(name).ok_or_else(|| {
                                serde::Error(format!("missing charge-entry field `{name}`"))
                            })
                        };
                        Ok((
                            f64::deserialize_value(field("t")?)?,
                            f64::deserialize_value(field("eps")?)?,
                        ))
                    })
                    .collect::<Result<VecDeque<_>, serde::Error>>()?,
                other => return Err(serde::Error::expected("charge-entry array", other)),
            };
            // Marks are not serialized: every restored entity is
            // marked, so the first drain is a full scan.
            let account = WindowedAccount {
                capacity,
                spent: f64::deserialize_value(field("spent")?)?,
                reserved: f64::deserialize_value(field("reserved")?)?,
                entries,
                marked: true,
            };
            let slot = acc.slots.len() as u32;
            acc.slots.push(Some(account));
            acc.marked.push(id);
            if acc.index.insert(id, slot).is_some() {
                return Err(serde::Error(format!("duplicate windowed account {id}")));
            }
            acc.live.push(id);
        }
        acc.live.sort_unstable();
        Ok(acc)
    }
}

/// The serializable sum of the two accounting policies — the concrete
/// ledger storage the stream session embeds, clones, and snapshots.
///
/// Dispatch goes through [`BudgetLedger`] (also implemented here, by
/// delegation), so pipeline code is written once against the trait and
/// the policy is a pure configuration choice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LedgerState {
    /// Lifetime depletion — the paper's model, a
    /// [`CumulativeAccountant`].
    Lifetime {
        /// The wrapped lifetime accountant.
        accountant: CumulativeAccountant,
    },
    /// Sliding-window accounting — spend older than the protection
    /// window is reclaimed, a [`WindowedAccountant`].
    Windowed {
        /// The wrapped sliding-window accountant.
        accountant: WindowedAccountant,
    },
}

impl LedgerState {
    /// An empty lifetime ledger.
    pub fn lifetime() -> Self {
        LedgerState::Lifetime {
            accountant: CumulativeAccountant::new(),
        }
    }

    /// An empty sliding-window ledger with protection window `window`
    /// (may be `f64::INFINITY`, which is bit-identical to
    /// [`lifetime`](Self::lifetime) accounting).
    pub fn windowed(window: f64) -> Self {
        LedgerState::Windowed {
            accountant: WindowedAccountant::new(window),
        }
    }

    /// The ledger as a trait object (read side).
    pub fn as_ledger(&self) -> &dyn BudgetLedger {
        match self {
            LedgerState::Lifetime { accountant } => accountant,
            LedgerState::Windowed { accountant } => accountant,
        }
    }

    /// The ledger as a trait object (write side).
    pub fn as_ledger_mut(&mut self) -> &mut dyn BudgetLedger {
        match self {
            LedgerState::Lifetime { accountant } => accountant,
            LedgerState::Windowed { accountant } => accountant,
        }
    }
}

impl BudgetLedger for LedgerState {
    fn register(&mut self, id: u64, capacity: f64) {
        self.as_ledger_mut().register(id, capacity);
    }
    fn resolve(&self, id: u64) -> Option<AccountId> {
        self.as_ledger().resolve(id)
    }
    fn charge(&mut self, id: u64, epsilon: f64) {
        self.as_ledger_mut().charge(id, epsilon);
    }
    fn charge_at(&mut self, at: AccountId, epsilon: f64) {
        self.as_ledger_mut().charge_at(at, epsilon);
    }
    fn reserve(&mut self, id: u64, epsilon: f64) {
        self.as_ledger_mut().reserve(id, epsilon);
    }
    fn reserve_at(&mut self, at: AccountId, epsilon: f64) {
        self.as_ledger_mut().reserve_at(at, epsilon);
    }
    fn reserved(&self, id: u64) -> f64 {
        self.as_ledger().reserved(id)
    }
    fn commit(&mut self, id: u64) -> f64 {
        self.as_ledger_mut().commit(id)
    }
    fn rollback(&mut self, id: u64) -> f64 {
        self.as_ledger_mut().rollback(id)
    }
    fn spent(&self, id: u64) -> f64 {
        self.as_ledger().spent(id)
    }
    fn spent_at(&self, at: AccountId) -> f64 {
        self.as_ledger().spent_at(at)
    }
    fn remaining(&self, id: u64) -> f64 {
        self.as_ledger().remaining(id)
    }
    fn remaining_at(&self, at: AccountId) -> f64 {
        self.as_ledger().remaining_at(at)
    }
    fn is_exhausted(&self, id: u64) -> bool {
        self.as_ledger().is_exhausted(id)
    }
    fn drain_exhausted(&mut self) -> Vec<u64> {
        self.as_ledger_mut().drain_exhausted()
    }
    fn forget(&mut self, id: u64) -> bool {
        self.as_ledger_mut().forget(id)
    }
    fn tracked_ids(&self) -> Vec<u64> {
        self.as_ledger().tracked_ids()
    }
    fn total_spent(&self) -> f64 {
        self.as_ledger().total_spent()
    }
    fn advance_time(&mut self, now: f64) {
        self.as_ledger_mut().advance_time(now);
    }
    fn renewable(&self) -> bool {
        self.as_ledger().renewable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn windowed_reclaims_aged_spend() {
        let mut acc = WindowedAccountant::new(100.0);
        acc.register(1, 2.0);
        acc.advance_time(0.0);
        acc.charge(1, 1.5);
        assert!((acc.remaining(1) - 0.5).abs() < 1e-12);
        acc.advance_time(50.0);
        acc.charge(1, 0.5);
        assert!(acc.is_exhausted(1));
        // t=0 charge ages out at t=100; the t=50 one survives.
        acc.advance_time(100.0);
        assert!(!acc.is_exhausted(1));
        assert_eq!(acc.spent(1), 0.5);
        assert_eq!(acc.remaining(1), 1.5);
        // Everything reclaimed at t=150.
        acc.advance_time(150.0);
        assert_eq!(acc.spent(1), 0.0);
        assert_eq!(acc.remaining(1), 2.0);
    }

    #[test]
    fn windowed_two_phase_round_trip() {
        let mut acc = WindowedAccountant::new(100.0);
        acc.register(4, 3.0);
        acc.advance_time(0.0);
        acc.charge(4, 1.0);
        acc.reserve(4, 0.5);
        acc.reserve(4, 0.25);
        assert!((acc.reserved(4) - 0.75).abs() < 1e-12);
        assert!((acc.remaining(4) - 1.25).abs() < 1e-12);
        assert!((acc.spent(4) - 1.0).abs() < 1e-12);
        assert!((acc.rollback(4) - 0.75).abs() < 1e-12);
        assert_eq!(acc.reserved(4), 0.0);
        acc.reserve(4, 2.0);
        assert!((acc.commit(4) - 2.0).abs() < 1e-12);
        assert_eq!(acc.commit(4), 0.0);
        assert!(acc.is_exhausted(4));
        // The committed reservation is stamped and reclaims like a
        // direct charge.
        acc.advance_time(200.0);
        assert!(!acc.is_exhausted(4));
        assert_eq!(acc.spent(4), 0.0);
    }

    #[test]
    fn windowed_retirement_and_handles_match_lifetime_semantics() {
        let mut acc = WindowedAccountant::new(f64::INFINITY);
        acc.register(8, 1.0);
        acc.register(9, 1.0);
        let h8 = acc.resolve(8).unwrap();
        acc.charge_at(h8, 1.0);
        assert_eq!(acc.drain_exhausted(), vec![8]);
        assert!(acc.resolve(8).is_none());
        assert_eq!(acc.remaining_at(h8), 0.0);
        assert_eq!(acc.tracked_ids(), vec![9]);
        assert!(acc.forget(9));
        assert!(!acc.forget(9));
    }

    #[test]
    #[should_panic(expected = "never registered")]
    fn windowed_charging_unknown_id_panics() {
        WindowedAccountant::new(10.0).charge(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "protection window must be positive")]
    fn zero_window_panics() {
        let _ = WindowedAccountant::new(0.0);
    }

    #[test]
    fn windowed_round_trips_canonically() {
        let mut acc = WindowedAccountant::new(300.0);
        acc.register(7, f64::INFINITY);
        acc.register(2, 1.5);
        acc.register(9, 4.0);
        acc.advance_time(10.0);
        acc.charge(2, 0.5);
        acc.advance_time(20.0);
        acc.charge(2, 0.25);
        acc.reserve(9, 1.25);
        acc.forget(7);
        let back =
            WindowedAccountant::deserialize_value(&acc.serialize_value()).expect("round trip");
        assert_eq!(back.tracked_ids(), vec![2, 9]);
        assert_eq!(back.window(), 300.0);
        assert_eq!(back.now(), 20.0);
        assert_eq!(back.spent(2), acc.spent(2));
        assert_eq!(back.reserved(9), acc.reserved(9));
        assert_eq!(back.serialize_value(), acc.serialize_value());
        // And restored ledgers keep reclaiming correctly.
        let mut back = back;
        back.advance_time(311.0);
        assert_eq!(back.spent(2), 0.25, "only the t=10 entry ages out");
        // An infinite window survives the trip exactly.
        let inf = WindowedAccountant::new(f64::INFINITY);
        let back = WindowedAccountant::deserialize_value(&inf.serialize_value()).unwrap();
        assert_eq!(back.window(), f64::INFINITY);
    }

    #[test]
    fn windowed_rejects_malformed_rows() {
        use serde::Value;
        let mut acc = WindowedAccountant::new(10.0);
        acc.register(1, 1.0);
        let good = acc.serialize_value();
        // Duplicate ids.
        let mut dup = good.clone();
        if let Value::Object(fields) = &mut dup {
            for (k, v) in fields.iter_mut() {
                if k == "accounts" {
                    if let Value::Array(rows) = v {
                        let row = rows[0].clone();
                        rows.push(row);
                    }
                }
            }
        }
        assert!(WindowedAccountant::deserialize_value(&dup).is_err());
        // Bad window.
        let bad = Value::Object(vec![
            ("window".into(), Value::Number(0.0)),
            ("now".into(), Value::Number(0.0)),
            ("accounts".into(), Value::Array(vec![])),
        ]);
        assert!(WindowedAccountant::deserialize_value(&bad).is_err());
    }

    #[test]
    fn ledger_state_dispatches_and_round_trips() {
        for mut state in [LedgerState::lifetime(), LedgerState::windowed(600.0)] {
            state.register(3, 2.0);
            state.advance_time(0.0);
            state.charge(3, 0.5);
            assert!((state.remaining(3) - 1.5).abs() < 1e-12);
            let back = LedgerState::deserialize_value(&state.serialize_value()).unwrap();
            assert_eq!(back.spent(3), state.spent(3));
            assert_eq!(back.serialize_value(), state.serialize_value());
        }
        assert!(!LedgerState::lifetime().renewable());
        assert!(LedgerState::windowed(10.0).renewable());
        assert!(!LedgerState::windowed(f64::INFINITY).renewable());
    }

    /// One randomized op against both accountants at once.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Charge(u64, f64),
        Reserve(u64, f64),
        Commit(u64),
        Rollback(u64),
        Advance(f64),
        Drain,
        /// Registers (or re-registers, possibly lowering the capacity
        /// of) an entity.
        Register(u64, f64),
        /// Serializes and deserializes the accountant.
        RoundTrip,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (
            (0u8..8, 0u64..5, 0.0f64..0.6),
            (0.0f64..1e4, 0u8..4, 0.05f64..3.0),
        )
            .prop_map(|((kind, id, e), (dt, cap_kind, cap))| match kind {
                0 => Op::Charge(id, e),
                1 => Op::Reserve(id, e),
                2 => Op::Commit(id),
                3 => Op::Rollback(id),
                4 => Op::Advance(dt),
                5 => Op::Drain,
                // Capacities at and below the drain's 1e-12 tolerance
                // are exhausted from the moment they are registered.
                6 => Op::Register(
                    id,
                    match cap_kind {
                        0 => 1e-12,
                        1 => 4e-13,
                        _ => cap,
                    },
                ),
                _ => Op::RoundTrip,
            })
    }

    fn round_trip<T: Serialize + Deserialize>(acc: &T) -> T {
        T::deserialize_value(&acc.serialize_value()).expect("round trip")
    }

    proptest! {
        // `W = ∞` is bit-identical to lifetime accounting under any
        // op interleaving: same spends, same remaining budgets, same
        // retirement order — exact equality, no tolerances.
        #[test]
        fn infinite_window_is_bit_identical_to_lifetime(
            ops in proptest::collection::vec(op_strategy(), 0..60)
        ) {
            let mut life = CumulativeAccountant::new();
            let mut windowed = WindowedAccountant::new(f64::INFINITY);
            for id in 0..5u64 {
                life.register(id, 1.0 + id as f64 * 0.37);
                windowed.register(id, 1.0 + id as f64 * 0.37);
            }
            let mut clock: f64 = 0.0;
            for &op in &ops {
                match op {
                    Op::Charge(id, e) => {
                        if life.resolve(id).is_some() {
                            life.charge(id, e);
                            windowed.charge(id, e);
                        }
                    }
                    Op::Reserve(id, e) => {
                        if life.resolve(id).is_some() {
                            life.reserve(id, e);
                            windowed.reserve(id, e);
                        }
                    }
                    Op::Commit(id) => {
                        if life.resolve(id).is_some() {
                            prop_assert_eq!(
                                life.commit(id).to_bits(),
                                BudgetLedger::commit(&mut windowed, id).to_bits()
                            );
                        }
                    }
                    Op::Rollback(id) => {
                        prop_assert_eq!(
                            life.rollback(id).to_bits(),
                            BudgetLedger::rollback(&mut windowed, id).to_bits()
                        );
                    }
                    Op::Advance(dt) => {
                        clock += dt;
                        windowed.advance_time(clock);
                    }
                    Op::Drain => {
                        prop_assert_eq!(
                            life.drain_exhausted(),
                            BudgetLedger::drain_exhausted(&mut windowed)
                        );
                    }
                    Op::Register(id, capacity) => {
                        life.register(id, capacity);
                        windowed.register(id, capacity);
                    }
                    Op::RoundTrip => {
                        life = round_trip(&life);
                        windowed = round_trip(&windowed);
                    }
                }
                for id in 0..5u64 {
                    prop_assert_eq!(
                        life.spent(id).to_bits(),
                        BudgetLedger::spent(&windowed, id).to_bits()
                    );
                    prop_assert_eq!(
                        life.remaining(id).to_bits(),
                        BudgetLedger::remaining(&windowed, id).to_bits()
                    );
                    prop_assert_eq!(
                        life.is_exhausted(id),
                        BudgetLedger::is_exhausted(&windowed, id)
                    );
                }
                prop_assert_eq!(
                    life.total_spent().to_bits(),
                    BudgetLedger::total_spent(&windowed).to_bits()
                );
            }
        }

        // Spend visible inside the ledger never exceeds capacity when
        // every charge respects the remaining-budget guard — the
        // rolling-cap invariant the engine-level hook relies on.
        #[test]
        fn guarded_spend_never_exceeds_capacity(
            window in 50.0f64..500.0,
            charges in proptest::collection::vec((0.0f64..30.0, 0.0f64..0.9), 1..80)
        ) {
            let mut acc = WindowedAccountant::new(window);
            acc.register(1, 1.0);
            let mut t = 0.0;
            for &(dt, want) in &charges {
                t += dt;
                acc.advance_time(t);
                let granted = want.min(acc.remaining(1));
                acc.charge(1, granted);
                prop_assert!(acc.spent(1) <= 1.0 + 1e-9);
            }
        }

        // Reclamation is exactly monotone: replaying one charge
        // history under a shorter protection window never decreases
        // any remaining budget, at any time step — `>=` with no
        // tolerance (IEEE round-to-nearest summation is monotone).
        #[test]
        fn shrinking_the_window_never_decreases_remaining(
            w_long in 100.0f64..1000.0,
            shrink in 0.05f64..1.0,
            charges in proptest::collection::vec((0.0f64..40.0, 0.0f64..0.4), 1..60)
        ) {
            let w_short = w_long * shrink;
            let mut long = WindowedAccountant::new(w_long);
            let mut short = WindowedAccountant::new(w_short);
            long.register(1, 5.0);
            short.register(1, 5.0);
            let mut t = 0.0;
            for &(dt, e) in &charges {
                t += dt;
                long.advance_time(t);
                short.advance_time(t);
                long.charge(1, e);
                short.charge(1, e);
                prop_assert!(
                    short.remaining(1) >= long.remaining(1),
                    "shorter window must never hold less budget: \
                     short {} < long {} at t {}",
                    short.remaining(1),
                    long.remaining(1),
                    t
                );
            }
        }

        // Serialization is canonical under arbitrary op histories:
        // restore reproduces every observable and a second round trip
        // is value-identical.
        #[test]
        fn windowed_serde_round_trip_is_canonical(
            window in 50.0f64..500.0,
            ops in proptest::collection::vec(op_strategy(), 0..40)
        ) {
            let mut acc = WindowedAccountant::new(window);
            for id in 0..5u64 {
                acc.register(id, 2.0);
            }
            let mut clock = 0.0;
            for &op in &ops {
                match op {
                    Op::Charge(id, e) if acc.resolve(id).is_some() => acc.charge(id, e),
                    Op::Reserve(id, e) if acc.resolve(id).is_some() => acc.reserve(id, e),
                    Op::Commit(id) if acc.resolve(id).is_some() => {
                        acc.commit(id);
                    }
                    Op::Rollback(id) => {
                        acc.rollback(id);
                    }
                    Op::Advance(dt) => {
                        clock += dt;
                        acc.advance_time(clock);
                    }
                    Op::Drain => {
                        acc.drain_exhausted();
                    }
                    Op::Register(id, capacity) => acc.register(id, capacity),
                    Op::RoundTrip => acc = round_trip(&acc),
                    _ => {}
                }
            }
            let value = acc.serialize_value();
            let back = WindowedAccountant::deserialize_value(&value).unwrap();
            prop_assert_eq!(back.serialize_value(), value);
            prop_assert_eq!(back.tracked_ids(), acc.tracked_ids());
            for id in 0..5u64 {
                prop_assert_eq!(back.spent(id).to_bits(), acc.spent(id).to_bits());
                prop_assert_eq!(back.reserved(id).to_bits(), acc.reserved(id).to_bits());
            }
        }

        // The drain examines only the entities touched since the last
        // one, yet returns exactly what a scan of every tracked entity
        // would: lifetime, `W = ∞` and finite `W` alike, under charges,
        // two-phase commits, reclamation, (re-)registrations with
        // capacities at or below the exhaustion tolerance and
        // serialization round trips.
        #[test]
        fn drain_matches_the_full_scan_oracle(
            window in 50.0f64..500.0,
            ops in proptest::collection::vec(op_strategy(), 0..80)
        ) {
            let mut ledgers = [
                LedgerState::lifetime(),
                LedgerState::windowed(f64::INFINITY),
                LedgerState::windowed(window),
            ];
            for ledger in &mut ledgers {
                for id in 0..5u64 {
                    ledger.register(id, 1.0 + id as f64 * 0.37);
                }
            }
            let mut clock = 0.0;
            for &op in &ops {
                if let Op::Advance(dt) = op {
                    clock += dt;
                }
                for ledger in &mut ledgers {
                    let live = |l: &LedgerState, id| l.resolve(id).is_some();
                    match op {
                        Op::Charge(id, e) if live(ledger, id) => ledger.charge(id, e),
                        Op::Reserve(id, e) if live(ledger, id) => ledger.reserve(id, e),
                        Op::Commit(id) if live(ledger, id) => {
                            ledger.commit(id);
                        }
                        Op::Rollback(id) => {
                            ledger.rollback(id);
                        }
                        Op::Advance(_) => ledger.advance_time(clock),
                        Op::Register(id, capacity) => ledger.register(id, capacity),
                        Op::RoundTrip => *ledger = round_trip(ledger),
                        Op::Drain => {
                            let oracle: Vec<u64> = ledger
                                .tracked_ids()
                                .into_iter()
                                .filter(|&id| ledger.is_exhausted(id))
                                .collect();
                            prop_assert_eq!(ledger.drain_exhausted(), oracle);
                            prop_assert!(ledger
                                .tracked_ids()
                                .into_iter()
                                .all(|id| !ledger.is_exhausted(id)));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
