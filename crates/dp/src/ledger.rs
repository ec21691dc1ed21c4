//! Per-entity privacy budgets across a stream of windows: lifetime and
//! sliding-window accounting in one [`Ledger`].
//!
//! The paper's model is *lifetime* depletion: every publication burns a
//! worker's ε forever and an exhausted worker retires (Theorems V.2 /
//! VI.4). That is correct over the paper's finite horizon but wrong for
//! a service that runs for months: under the continual-observation /
//! sliding-window model of *Differential Privacy on Dynamic Data* (Qiu &
//! Yi, arXiv:2209.01387) the adversary is only promised
//! indistinguishability over any span of length `W`, so spend older
//! than the protection window stops counting against the worker and
//! his budget *renews*. Lifetime accounting is that model with
//! `W = ∞`: [`Ledger::windowed`]`(f64::INFINITY)` performs *bit-for-bit*
//! the arithmetic of [`Ledger::lifetime`] (no charge is ever stamped,
//! the spend accumulator is the only state — pinned by proptests here
//! and at the stream level).
//!
//! # The reclamation rule
//!
//! Under a finite window, charges are stamped with the ledger's current
//! time (the enclosing window's start, in the stream pipeline).
//! [`advance_time`](Ledger::advance_time) to `now` drops every entry
//! stamped `t ≤ now − W` and recomputes the spend accumulator as a
//! fresh left-to-right sum over the survivors. Two consequences, both
//! load-bearing:
//!
//! * **Spend inside any `W`-span never exceeds capacity.** The budget
//!   guard reads `remaining = capacity − spent` where
//!   `spent` is exactly the in-window spend, so a guard-respecting
//!   caller can never push any window of length `W` past `capacity`.
//! * **Reclamation is exactly monotone.** IEEE round-to-nearest
//!   addition is monotone in the accumulator, so summing a suffix of
//!   the entry list can never exceed summing the whole list: shrinking
//!   `W` never *decreases* remaining budget, with no tolerance needed.

use crate::intern::FastMap;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// A dense handle to one tracked entity, obtained from
/// [`Ledger::resolve`].
///
/// Hot per-proposal paths (budget guards, release charging) resolve a
/// worker's logical id once per window and then use the `*_at` methods,
/// which are plain vector lookups — no id hashing per proposal. A
/// handle stays valid until its entity is removed
/// ([`forget`](Ledger::forget) /
/// [`drain_exhausted`](Ledger::drain_exhausted)); after that, read
/// accessors return zero (like unknown ids) and mutating accessors
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccountId {
    slot: u32,
    /// The logical id, carried so a charge through the handle can mark
    /// the account for the next drain without storing the id per slot.
    id: u64,
}

/// One tracked entity: capacity and spend (in-window spend under a
/// finite protection window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Account {
    capacity: f64,
    spent: f64,
    /// Listed in the ledger's `marked` ids: spend grew or the
    /// capacity was set since the last drain. Only those two moves can
    /// make an entity exhausted (reclamation only lowers spend), so the
    /// drain examines marked entities alone.
    marked: bool,
}

impl Account {
    fn remaining(&self) -> f64 {
        (self.capacity - self.spent).max(0.0)
    }

    fn exhausted(&self) -> bool {
        // Tolerance mirrors the ledger-vs-board float comparisons.
        self.spent >= self.capacity - 1e-12
    }
}

/// Per-entity privacy budgets, lifetime or sliding-window.
///
/// Entities are keyed by caller-chosen `u64` ids (the stream's logical
/// worker ids), not per-instance indices, so accounting survives the
/// re-indexing every new window performs. Each id maps to a dense slot,
/// tombstoned on removal and never reused, so an outstanding
/// [`AccountId`] can never alias a different entity.
///
/// # Examples
///
/// ```
/// use dpta_dp::Ledger;
///
/// let mut ledger = Ledger::windowed(600.0); // W = 600 s
/// ledger.register(7, 2.0);
/// let worker = ledger.resolve(7).expect("registered");
/// ledger.advance_time(0.0);
/// ledger.charge_at(worker, 1.5);
/// assert_eq!(ledger.remaining_at(worker), 0.5);
///
/// // 600 s later the charge ages out and the budget renews.
/// ledger.advance_time(600.0);
/// assert_eq!(ledger.remaining_at(worker), 2.0);
///
/// // Lifetime accounting never renews: exhausted entities retire.
/// let mut life = Ledger::lifetime();
/// life.register(7, 1.0);
/// life.charge_at(life.resolve(7).unwrap(), 1.0);
/// assert_eq!(life.drain_exhausted(), vec![7]);
/// assert!(life.tracked().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Logical id → slot in `slots`: one deterministic [`FastMap`]
    /// probe per lookup.
    index: FastMap<u64, u32>,
    /// Dense account storage; a forgotten or drained entity leaves a
    /// `None` tombstone.
    slots: Vec<Option<Account>>,
    /// Live ids, ascending. Every observable iteration (`tracked`,
    /// serialization) walks this list. Streaming registration is
    /// near-monotone in id, so keeping it sorted is usually a push.
    live: Vec<u64>,
    /// Ids charged or (re)registered since the last
    /// [`drain_exhausted`](Self::drain_exhausted), each account listed
    /// once (see [`Account::marked`]); ids removed since are skipped at
    /// the drain.
    marked: Vec<u64>,
    /// Protection window `W`; `None` is lifetime accounting, and
    /// `Some(f64::INFINITY)` behaves identically but serializes as a
    /// window.
    window: Option<f64>,
    /// The ledger clock: charges are stamped with it, reclamation
    /// measures age against it. `-∞` before the first advance.
    now: f64,
    /// Each slot's time-stamped charges `(t, ε)`, stamps
    /// ascending. Kept beside `slots` only when a window is set, so
    /// lifetime accounts cost no more than their [`Account`].
    entries: Vec<VecDeque<(f64, f64)>>,
    /// Slots whose `entries` are non-empty: the only accounts
    /// [`advance_time`](Self::advance_time) can reclaim from.
    stamped: Vec<u32>,
}

impl Ledger {
    /// An empty lifetime ledger: spend is never reclaimed and exhausted
    /// entities retire.
    pub fn lifetime() -> Self {
        Ledger {
            index: FastMap::default(),
            slots: Vec::new(),
            live: Vec::new(),
            marked: Vec::new(),
            window: None,
            now: f64::NEG_INFINITY,
            entries: Vec::new(),
            stamped: Vec::new(),
        }
    }

    /// An empty sliding-window ledger with protection window `window`
    /// (seconds of stream time; `f64::INFINITY` is bit-identical to
    /// [`lifetime`](Self::lifetime) accounting). Panics on a
    /// non-positive or NaN window.
    pub fn windowed(window: f64) -> Self {
        assert!(
            window > 0.0 && !window.is_nan(),
            "protection window must be positive, got {window}"
        );
        Ledger {
            window: Some(window),
            ..Ledger::lifetime()
        }
    }

    /// Whether reclaimed budget can return to exhausted entities (a
    /// finite protection window) — if `true`, retiring an exhausted
    /// entity forever is wrong and the caller should let it idle
    /// instead.
    pub fn renewable(&self) -> bool {
        self.window.is_some_and(f64::is_finite)
    }

    fn get(&self, id: u64) -> Option<&Account> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Appends a fresh account for `id` (not yet tracked) in the next
    /// slot, marked for the next drain; the caller keeps `live` sorted.
    fn push_account(&mut self, id: u64, account: Account, entries: VecDeque<(f64, f64)>) -> bool {
        let slot = self.slots.len() as u32;
        self.slots.push(Some(account));
        if self.window.is_some() {
            if !entries.is_empty() {
                self.stamped.push(slot);
            }
            self.entries.push(entries);
        }
        self.marked.push(id);
        self.index.insert(id, slot).is_none()
    }

    /// Starts tracking `id` with the given budget capacity.
    /// Re-registering an id keeps its spend and raises/lowers only the
    /// capacity, so late capacity adjustments cannot reset history.
    /// `capacity` may be `f64::INFINITY` for never-retiring entities.
    pub fn register(&mut self, id: u64, capacity: f64) {
        assert!(
            capacity > 0.0 && !capacity.is_nan(),
            "capacity must be positive, got {capacity}"
        );
        if let Some(&slot) = self.index.get(&id) {
            let a = self.slots[slot as usize].as_mut().expect("indexed");
            a.capacity = capacity;
            mark(&mut self.marked, id, &mut a.marked);
            return;
        }
        let account = Account {
            capacity,
            spent: 0.0,
            marked: true,
        };
        self.push_account(id, account, VecDeque::new());
        match self.live.last() {
            Some(&last) if last >= id => {
                let at = self.live.partition_point(|&x| x < id);
                self.live.insert(at, id);
            }
            _ => self.live.push(id),
        }
    }

    /// The dense handle for `id`, if it is currently tracked. Resolve
    /// once per window, then use [`charge_at`](Self::charge_at) /
    /// [`remaining_at`](Self::remaining_at) in per-proposal loops.
    pub fn resolve(&self, id: u64) -> Option<AccountId> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize]
            .as_ref()
            .map(|_| AccountId { slot, id })
    }

    /// Charges `epsilon` (≥ 0) against the account `at`; panics on a
    /// stale handle. A zero charge changes no state at all.
    pub fn charge_at(&mut self, at: AccountId, epsilon: f64) {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "charge must be finite and >= 0, got {epsilon}"
        );
        self.book(at, epsilon);
    }

    /// Books an amount against the account `at`: adds it to
    /// the spend accumulator, stamps it under a finite window and marks
    /// the account for the next drain. Zero amounts change no state
    /// (they cannot change any future recomputed sum).
    fn book(&mut self, at: AccountId, amount: f64) {
        let stamp = self.renewable();
        let a = self.slots[at.slot as usize]
            .as_mut()
            .expect("stale account handle");
        if amount <= 0.0 {
            return;
        }
        a.spent += amount;
        mark(&mut self.marked, at.id, &mut a.marked);
        if stamp {
            let entries = &mut self.entries[at.slot as usize];
            if entries.is_empty() {
                self.stamped.push(at.slot);
            }
            entries.push_back((self.now, amount));
        }
    }

    /// Spend of `id` (zero for unknown ids). Under a finite
    /// window this is the spend *inside the current protection window*.
    pub fn spent(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, |a| a.spent)
    }

    /// Remaining budget of `id` (zero for unknown ids): capacity net of
    /// spend, clamped at zero.
    pub fn remaining(&self, id: u64) -> f64 {
        self.get(id).map_or(0.0, Account::remaining)
    }

    /// Handle counterpart of [`remaining`](Self::remaining); zero for
    /// stale handles.
    pub fn remaining_at(&self, at: AccountId) -> f64 {
        self.slots[at.slot as usize].map_or(0.0, |a| a.remaining())
    }

    /// Whether `id` has spent its whole capacity (unknown ids count as
    /// exhausted — they have nothing left to spend).
    pub fn is_exhausted(&self, id: u64) -> bool {
        self.get(id).is_none_or(Account::exhausted)
    }

    /// Removes and returns every exhausted entity, ascending by id —
    /// the retirement step the stream driver runs after each window.
    ///
    /// Only entities charged or (re)registered since the previous drain
    /// (every entity, on a deserialized ledger) are examined:
    /// exhaustion compares spend with capacity, and
    /// nothing else can raise one or lower the other, so an entity the
    /// last drain kept and nobody touched since is still not exhausted.
    /// An id listed twice (forgotten, then registered again) is
    /// examined twice, to the same verdict.
    pub fn drain_exhausted(&mut self) -> Vec<u64> {
        let mut gone = Vec::new();
        // Taken out of `self` for the loop and put back after, so its
        // capacity is reused by the next window's marks.
        let mut marked = std::mem::take(&mut self.marked);
        for id in marked.drain(..) {
            let Some(&slot) = self.index.get(&id) else {
                continue;
            };
            let a = self.slots[slot as usize].as_mut().expect("indexed");
            a.marked = false;
            if a.exhausted() {
                self.index.remove(&id);
                self.tombstone(slot);
                gone.push(id);
            }
        }
        self.marked = marked;
        gone.sort_unstable();
        remove_sorted(&mut self.live, &gone);
        gone
    }

    /// Stops tracking `id` regardless of its state (e.g. a worker who
    /// departed by being matched). Returns whether it was tracked.
    pub fn forget(&mut self, id: u64) -> bool {
        let Some(slot) = self.index.remove(&id) else {
            return false;
        };
        self.tombstone(slot);
        let at = self.live.partition_point(|&x| x < id);
        debug_assert_eq!(self.live.get(at), Some(&id));
        self.live.remove(at);
        true
    }

    /// Empties `slot` for good, releasing its charge stamps; the next
    /// [`advance_time`](Self::advance_time) drops it from `stamped`.
    fn tombstone(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
        if let Some(entries) = self.entries.get_mut(slot as usize) {
            *entries = VecDeque::new();
        }
    }

    /// Ids still tracked, ascending.
    pub fn tracked(&self) -> &[u64] {
        &self.live
    }

    /// Advances the ledger clock to `now`, reclaiming any spend that has
    /// aged out of a finite protection window. The walk visits only
    /// accounts holding stamped charges, so it costs time proportional
    /// to those, not to every entity the ledger ever tracked.
    pub fn advance_time(&mut self, now: f64) {
        assert!(!now.is_nan(), "ledger clock must not be NaN");
        self.now = now;
        let Some(window) = self.window.filter(|w| w.is_finite()) else {
            return;
        };
        let cutoff = now - window;
        let (slots, entries) = (&mut self.slots, &mut self.entries);
        self.stamped.retain(|&slot| {
            let Some(a) = slots[slot as usize].as_mut() else {
                return false;
            };
            let e = &mut entries[slot as usize];
            let held = e.len();
            while e.front().is_some_and(|&(t, _)| t <= cutoff) {
                e.pop_front();
            }
            if e.len() < held {
                // A fresh left-to-right sum over the survivors: exactly
                // the accumulator a run that never saw the reclaimed
                // prefix would hold, and — because IEEE round-to-nearest
                // addition is monotone in the accumulator — never more
                // than the pre-reclamation spend.
                a.spent = e.iter().map(|&(_, eps)| eps).sum();
            }
            !e.is_empty()
        });
    }
}

/// Lists `id` among the marked ids unless its account already is.
fn mark(marked: &mut Vec<u64>, id: u64, flag: &mut bool) {
    if !*flag {
        *flag = true;
        marked.push(id);
    }
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

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, serde::Error> {
    v.get(name)
        .ok_or_else(|| serde::Error(format!("missing ledger field `{name}`")))
}

fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Canonical form, tagged by policy: `{"Lifetime":{"accountant":rows}}`
/// or `{"Windowed":{"accountant":{"window","now","accounts":rows}}}`,
/// with one row per live entity ascending by id (windowed rows also
/// carry their charge stamps). The dense slot layout is discarded:
/// restoring assigns fresh contiguous slots — safe because every
/// observable behaviour goes through the id index, never the slot
/// vector, and it makes snapshot → restore → snapshot idempotent
/// however many tombstones the original accumulated.
impl Serialize for Ledger {
    fn serialize_value(&self) -> Value {
        let rows = self
            .live
            .iter()
            .map(|&id| {
                let slot = self.index[&id] as usize;
                let a = self.slots[slot].expect("live ids are indexed");
                let mut row = vec![
                    ("id".to_string(), id.serialize_value()),
                    ("capacity".to_string(), a.capacity.serialize_value()),
                    ("spent".to_string(), a.spent.serialize_value()),
                ];
                if self.window.is_some() {
                    let stamps = self.entries[slot].iter().map(|&(t, eps)| {
                        object([("t", t.serialize_value()), ("eps", eps.serialize_value())])
                    });
                    row.push(("entries".to_string(), Value::Array(stamps.collect())));
                }
                Value::Object(row)
            })
            .collect();
        let (tag, accountant) = match self.window {
            None => ("Lifetime", Value::Array(rows)),
            Some(window) => (
                "Windowed",
                object([
                    ("window", window.serialize_value()),
                    ("now", self.now.serialize_value()),
                    ("accounts", Value::Array(rows)),
                ]),
            ),
        };
        object([(tag, object([("accountant", accountant)]))])
    }
}

impl Deserialize for Ledger {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let (tag, inner) = match v {
            Value::Object(fields) if fields.len() == 1 => (&fields[0].0, &fields[0].1),
            other => return Err(serde::Error::expected("tagged ledger", other)),
        };
        let accountant = field(inner, "accountant")?;
        let (mut ledger, rows) = match tag.as_str() {
            "Lifetime" => (Ledger::lifetime(), accountant),
            "Windowed" => {
                let window = f64::deserialize_value(field(accountant, "window")?)?;
                if window.is_nan() || window <= 0.0 {
                    return Err(serde::Error(format!(
                        "windowed ledger has non-positive window {window}"
                    )));
                }
                let now = f64::deserialize_value(field(accountant, "now")?)?;
                if now.is_nan() {
                    return Err(serde::Error("windowed ledger clock is NaN".to_string()));
                }
                let mut ledger = Ledger::windowed(window);
                ledger.now = now;
                (ledger, field(accountant, "accounts")?)
            }
            _ => return Err(serde::Error::expected("Lifetime or Windowed ledger", v)),
        };
        let Value::Array(rows) = rows else {
            return Err(serde::Error::expected("ledger account rows", rows));
        };
        ledger.index.reserve(rows.len());
        ledger.slots.reserve_exact(rows.len());
        ledger.live.reserve_exact(rows.len());
        ledger.marked.reserve_exact(rows.len());
        for row in rows {
            let id = u64::deserialize_value(field(row, "id")?)?;
            // Marks are not serialized: every restored entity is marked,
            // so the first drain is a full scan.
            let account = Account {
                capacity: f64::deserialize_value(field(row, "capacity")?)?,
                spent: f64::deserialize_value(field(row, "spent")?)?,
                marked: true,
            };
            if account.capacity <= 0.0 || account.capacity.is_nan() {
                return Err(serde::Error(format!(
                    "ledger account {id} has non-positive capacity"
                )));
            }
            let mut entries = VecDeque::new();
            if ledger.window.is_some() {
                let Value::Array(stamps) = field(row, "entries")? else {
                    return Err(serde::Error(format!(
                        "ledger account {id} has no charge-entry array"
                    )));
                };
                for stamp in stamps {
                    entries.push_back((
                        f64::deserialize_value(field(stamp, "t")?)?,
                        f64::deserialize_value(field(stamp, "eps")?)?,
                    ));
                }
            }
            if !ledger.push_account(id, account, entries) {
                return Err(serde::Error(format!("duplicate ledger account {id}")));
            }
            ledger.live.push(id);
        }
        // Canonical snapshots are already ascending; tolerate (and
        // normalise) any other ordering.
        ledger.live.sort_unstable();
        Ok(ledger)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Charges `id` through its handle.
    pub(crate) fn charge(acc: &mut Ledger, id: u64, epsilon: f64) {
        let at = acc.resolve(id).expect("registered");
        acc.charge_at(at, epsilon);
    }

    #[test]
    fn windowed_reclaims_aged_spend() {
        let mut acc = Ledger::windowed(100.0);
        acc.register(1, 2.0);
        acc.advance_time(0.0);
        charge(&mut acc, 1, 1.5);
        assert!((acc.remaining(1) - 0.5).abs() < 1e-12);
        acc.advance_time(50.0);
        charge(&mut acc, 1, 0.5);
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
    fn windowed_retirement_and_handles_match_lifetime_semantics() {
        let mut acc = Ledger::windowed(f64::INFINITY);
        acc.register(8, 1.0);
        acc.register(9, 1.0);
        let h8 = acc.resolve(8).unwrap();
        acc.charge_at(h8, 1.0);
        assert_eq!(acc.drain_exhausted(), vec![8]);
        assert!(acc.resolve(8).is_none());
        assert_eq!(acc.remaining_at(h8), 0.0);
        assert_eq!(acc.tracked(), [9]);
        assert!(acc.forget(9));
        assert!(!acc.forget(9));
    }

    #[test]
    #[should_panic(expected = "protection window must be positive")]
    fn zero_window_panics() {
        let _ = Ledger::windowed(0.0);
    }

    #[test]
    fn windowed_round_trips_canonically() {
        let mut acc = Ledger::windowed(300.0);
        acc.register(7, f64::INFINITY);
        acc.register(2, 1.5);
        acc.register(9, 4.0);
        acc.advance_time(10.0);
        charge(&mut acc, 2, 0.5);
        acc.advance_time(20.0);
        charge(&mut acc, 2, 0.25);
        charge(&mut acc, 9, 1.25);
        acc.forget(7);
        let back = Ledger::deserialize_value(&acc.serialize_value()).expect("round trip");
        assert_eq!(back.tracked(), [2, 9]);
        assert_eq!(back.spent(2), acc.spent(2));
        assert_eq!(back.remaining(9), acc.remaining(9));
        assert_eq!(back.serialize_value(), acc.serialize_value());
        // And restored ledgers keep reclaiming correctly.
        let mut back = back;
        back.advance_time(311.0);
        assert_eq!(back.spent(2), 0.25, "only the t=10 entry ages out");
        // An infinite window survives the trip exactly.
        let inf = Ledger::windowed(f64::INFINITY);
        let back = Ledger::deserialize_value(&inf.serialize_value()).unwrap();
        assert_eq!(back.serialize_value(), inf.serialize_value());
        assert!(!back.renewable());
    }

    #[test]
    fn windowed_rejects_malformed_rows() {
        let parse = |json: &str| Ledger::deserialize_value(&serde_json::from_str(json).unwrap());
        let row = r#"{"id":1,"capacity":1,"spent":0,"entries":[]}"#;
        let ledger = |window: &str, rows: &str| {
            format!(
                r#"{{"Windowed":{{"accountant":{{"window":{window},"now":0,"accounts":[{rows}]}}}}}}"#
            )
        };
        assert!(parse(&ledger("10", row)).is_ok());
        // Duplicate ids.
        assert!(parse(&ledger("10", &format!("{row},{row}"))).is_err());
        // Bad window.
        assert!(parse(&ledger("0", "")).is_err());
    }

    /// The wire format the session snapshot embeds: the tagged
    /// lifetime / sliding-window encoding of snapshot v7.
    #[test]
    fn wire_format_is_pinned() {
        let mut life = Ledger::lifetime();
        life.register(7, f64::INFINITY);
        life.register(2, 1.5);
        life.register(9, 4.0);
        life.register(5, 1.0);
        charge(&mut life, 2, 0.5);
        charge(&mut life, 7, 0.125);
        life.forget(5);
        let golden = concat!(
            r#"{"Lifetime":{"accountant":[{"id":2,"capacity":1.5,"spent":0.5},"#,
            r#"{"id":7,"capacity":"inf","spent":0.125},"#,
            r#"{"id":9,"capacity":4,"spent":0}]}}"#
        );
        assert_eq!(serde_json::to_string(&life).unwrap(), golden);

        let mut windowed = Ledger::windowed(300.0);
        windowed.register(7, f64::INFINITY);
        windowed.register(2, 1.5);
        windowed.register(9, 4.0);
        windowed.advance_time(10.0);
        charge(&mut windowed, 2, 0.5);
        windowed.advance_time(20.0);
        charge(&mut windowed, 2, 0.25);
        windowed.forget(7);
        let golden_windowed = concat!(
            r#"{"Windowed":{"accountant":{"window":300,"now":20,"accounts":["#,
            r#"{"id":2,"capacity":1.5,"spent":0.75,"#,
            r#""entries":[{"t":10,"eps":0.5},{"t":20,"eps":0.25}]},"#,
            r#"{"id":9,"capacity":4,"spent":0,"entries":[]}]}}}"#
        );
        assert_eq!(serde_json::to_string(&windowed).unwrap(), golden_windowed);

        for json in [golden, golden_windowed] {
            let back = Ledger::deserialize_value(&serde_json::from_str(json).unwrap()).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
        assert_eq!(
            serde_json::to_string(&Ledger::windowed(f64::INFINITY)).unwrap(),
            r#"{"Windowed":{"accountant":{"window":"inf","now":"-inf","accounts":[]}}}"#
        );
    }

    /// Reclamation visits only accounts holding stamps: removed and
    /// fully reclaimed accounts leave the walk at the next advance.
    #[test]
    fn reclamation_walks_only_stamped_accounts() {
        let mut acc = Ledger::windowed(100.0);
        for id in 0..50 {
            acc.register(id, 1.0);
        }
        acc.advance_time(0.0);
        for id in 0..3 {
            charge(&mut acc, id, 0.25);
        }
        assert_eq!(acc.stamped.len(), 3);
        acc.forget(0);
        acc.advance_time(50.0);
        assert_eq!(acc.stamped, [1, 2]);
        charge(&mut acc, 1, 0.25);
        acc.advance_time(100.0);
        assert_eq!(acc.stamped, [1], "the t=0 charges aged out");
        assert_eq!(acc.spent(1), 0.25);
        acc.advance_time(150.0);
        assert!(acc.stamped.is_empty());
        // Lifetime and `W = ∞` ledgers keep no stamps at all.
        let mut life = Ledger::lifetime();
        life.register(1, 1.0);
        charge(&mut life, 1, 0.5);
        assert!(life.entries.is_empty() && life.stamped.is_empty());
    }

    /// One randomized op against several ledgers at once.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Charge(u64, f64),
        Advance(f64),
        Drain,
        /// Registers (or re-registers, possibly lowering the capacity
        /// of) an entity.
        Register(u64, f64),
        /// Serializes and deserializes the ledger.
        RoundTrip,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (
            (0u8..5, 0u64..5, 0.0f64..0.6),
            (0.0f64..1e4, 0u8..4, 0.05f64..3.0),
        )
            .prop_map(|((kind, id, e), (dt, cap_kind, cap))| match kind {
                0 => Op::Charge(id, e),
                1 => Op::Advance(dt),
                2 => Op::Drain,
                // Capacities at and below the drain's 1e-12 tolerance
                // are exhausted from the moment they are registered.
                3 => Op::Register(
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

    fn round_trip(acc: &Ledger) -> Ledger {
        Ledger::deserialize_value(&acc.serialize_value()).expect("round trip")
    }

    /// Spend across tracked entities, summed ascending by id.
    fn total_spent(acc: &Ledger) -> f64 {
        acc.tracked().iter().map(|&id| acc.spent(id)).sum()
    }

    proptest! {
        // `W = ∞` is bit-identical to lifetime accounting under any
        // op interleaving: same spends, same remaining budgets, same
        // retirement order — exact equality, no tolerances.
        #[test]
        fn infinite_window_is_bit_identical_to_lifetime(
            ops in proptest::collection::vec(op_strategy(), 0..60)
        ) {
            let mut life = Ledger::lifetime();
            let mut windowed = Ledger::windowed(f64::INFINITY);
            for id in 0..5u64 {
                life.register(id, 1.0 + id as f64 * 0.37);
                windowed.register(id, 1.0 + id as f64 * 0.37);
            }
            let mut clock: f64 = 0.0;
            for &op in &ops {
                match op {
                    Op::Charge(id, e) => {
                        if life.resolve(id).is_some() {
                            charge(&mut life, id, e);
                            charge(&mut windowed, id, e);
                        }
                    }
                    Op::Advance(dt) => {
                        clock += dt;
                        windowed.advance_time(clock);
                    }
                    Op::Drain => {
                        prop_assert_eq!(life.drain_exhausted(), windowed.drain_exhausted());
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
                    prop_assert_eq!(life.spent(id).to_bits(), windowed.spent(id).to_bits());
                    prop_assert_eq!(
                        life.remaining(id).to_bits(),
                        windowed.remaining(id).to_bits()
                    );
                    prop_assert_eq!(life.is_exhausted(id), windowed.is_exhausted(id));
                }
                prop_assert_eq!(
                    total_spent(&life).to_bits(),
                    total_spent(&windowed).to_bits()
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
            let mut acc = Ledger::windowed(window);
            acc.register(1, 1.0);
            let mut t = 0.0;
            for &(dt, want) in &charges {
                t += dt;
                acc.advance_time(t);
                let granted = want.min(acc.remaining(1));
                charge(&mut acc, 1, granted);
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
            let mut long = Ledger::windowed(w_long);
            let mut short = Ledger::windowed(w_short);
            long.register(1, 5.0);
            short.register(1, 5.0);
            let mut t = 0.0;
            for &(dt, e) in &charges {
                t += dt;
                long.advance_time(t);
                short.advance_time(t);
                charge(&mut long, 1, e);
                charge(&mut short, 1, e);
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
            let mut acc = Ledger::windowed(window);
            for id in 0..5u64 {
                acc.register(id, 2.0);
            }
            let mut clock = 0.0;
            for &op in &ops {
                match op {
                    Op::Charge(id, e) if acc.resolve(id).is_some() => charge(&mut acc, id, e),
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
            let back = Ledger::deserialize_value(&value).unwrap();
            prop_assert_eq!(back.serialize_value(), value);
            prop_assert_eq!(back.tracked(), acc.tracked());
            for id in 0..5u64 {
                prop_assert_eq!(back.spent(id).to_bits(), acc.spent(id).to_bits());
                prop_assert_eq!(back.remaining(id).to_bits(), acc.remaining(id).to_bits());
            }
        }

        // The drain examines only the entities touched since the last
        // one, yet returns exactly what a scan of every tracked entity
        // would: lifetime, `W = ∞` and finite `W` alike, under charges,
        // reclamation, (re-)registrations with
        // capacities at or below the exhaustion tolerance and
        // serialization round trips.
        #[test]
        fn drain_matches_the_full_scan_oracle(
            window in 50.0f64..500.0,
            ops in proptest::collection::vec(op_strategy(), 0..80)
        ) {
            let mut ledgers = [
                Ledger::lifetime(),
                Ledger::windowed(f64::INFINITY),
                Ledger::windowed(window),
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
                    let live = |l: &Ledger, id| l.resolve(id).is_some();
                    match op {
                        Op::Charge(id, e) if live(ledger, id) => charge(ledger, id, e),
                        Op::Advance(_) => ledger.advance_time(clock),
                        Op::Register(id, capacity) => ledger.register(id, capacity),
                        Op::RoundTrip => *ledger = round_trip(ledger),
                        Op::Drain => {
                            let oracle: Vec<u64> = ledger
                                .tracked()
                                .iter()
                                .copied()
                                .filter(|&id| ledger.is_exhausted(id))
                                .collect();
                            prop_assert_eq!(ledger.drain_exhausted(), oracle);
                            prop_assert!(ledger
                                .tracked()
                                .iter()
                                .all(|&id| !ledger.is_exhausted(id)));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
