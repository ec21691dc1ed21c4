//! The untrusted server's public board.
//!
//! Everything on the board is, by the paper's threat model (Section I),
//! visible to every worker: the full release history `(d̂, ε)` of every
//! (task, worker) pair, the derived effective distance-budget pairs,
//! the current allocation list `AL`, and — for auditing — per-worker
//! privacy ledgers. Real distances never enter this structure.

use crate::model::Instance;
use dpta_dp::{EffectivePair, FastMap, PrivacyLedger, Release, ReleaseSet};
use dpta_matching::Assignment;
use serde::{Deserialize, Serialize};

/// Ledger key for a whole-location release (the Geo-I baseline
/// publishes one obfuscated *location* instead of per-task distances).
pub const LOCATION_RELEASE: u32 = u32::MAX;

/// Public protocol state shared by the server and all workers.
#[derive(Debug, Clone)]
pub struct Board {
    n_tasks: usize,
    n_workers: usize,
    releases: FastMap<(usize, usize), ReleaseSet>,
    /// `alloc[i]` — current winner of task `i` (the paper's `AL`).
    alloc: Vec<Option<usize>>,
    /// Reverse map: the task currently held by each worker.
    held: Vec<Option<usize>>,
    ledgers: Vec<PrivacyLedger>,
    /// Cached `Σ_i b_{i,j}·ε_{i,j}` per worker.
    spent_total: Vec<f64>,
    /// Cached publication count per worker (the length of the worker's
    /// ledger);
    /// derived, so it is not serialized.
    column_pubs: Vec<u32>,
    publications: usize,
}

impl Board {
    /// Fresh board for an `m × n` instance.
    pub fn new(n_tasks: usize, n_workers: usize) -> Self {
        Board {
            n_tasks,
            n_workers,
            releases: FastMap::default(),
            alloc: vec![None; n_tasks],
            held: vec![None; n_workers],
            ledgers: vec![PrivacyLedger::new(); n_workers],
            spent_total: vec![0.0; n_workers],
            column_pubs: vec![0; n_workers],
            publications: 0,
        }
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Publishes a new obfuscated distance for (task, worker): appends
    /// to the pair's release set, charges the worker's ledger, and
    /// refreshes the effective pair.
    pub fn publish(&mut self, task: usize, worker: usize, value: f64, epsilon: f64) {
        assert!(task < self.n_tasks && worker < self.n_workers);
        self.releases
            .entry((task, worker))
            .or_default()
            .push(Release { value, epsilon });
        self.ledgers[worker].record(task as u32, epsilon);
        self.spent_total[worker] += epsilon;
        self.column_pubs[worker] += 1;
        self.publications += 1;
    }

    /// Charges a whole-location release (Geo-I baseline): the budget is
    /// ledgered under [`LOCATION_RELEASE`] and counts toward the
    /// worker's total spend, but no per-task distance release exists.
    pub fn charge_location(&mut self, worker: usize, epsilon: f64) {
        assert!(worker < self.n_workers);
        self.ledgers[worker].record(LOCATION_RELEASE, epsilon);
        self.spent_total[worker] += epsilon;
        self.column_pubs[worker] += 1;
        self.publications += 1;
    }

    /// Number of releases published toward (task, worker) — equals the
    /// number of consumed budget slots, since a slot is charged exactly
    /// when published.
    pub fn used_slots(&self, task: usize, worker: usize) -> usize {
        self.releases
            .get(&(task, worker))
            .map_or(0, ReleaseSet::len)
    }

    /// The pair's release history.
    pub fn releases(&self, task: usize, worker: usize) -> Option<&ReleaseSet> {
        self.releases.get(&(task, worker))
    }

    /// The current effective distance-budget pair `(d̃, ε̃)`.
    pub fn effective(&self, task: usize, worker: usize) -> Option<EffectivePair> {
        self.releases
            .get(&(task, worker))
            .and_then(ReleaseSet::effective)
    }

    /// Budget published by `worker` toward `task`: `b_{i,j}·ε_{i,j}`.
    pub fn spent_on(&self, task: usize, worker: usize) -> f64 {
        self.releases
            .get(&(task, worker))
            .map_or(0.0, ReleaseSet::spent_epsilon)
    }

    /// Budget published by `worker` across all tasks:
    /// `Σ_i b_{i,j}·ε_{i,j}`.
    pub fn spent_total(&self, worker: usize) -> f64 {
        self.spent_total[worker]
    }

    /// The worker's privacy ledger (Theorem V.2 accounting).
    pub fn ledger(&self, worker: usize) -> &PrivacyLedger {
        &self.ledgers[worker]
    }

    /// Total number of publications on the board.
    pub fn publications(&self) -> usize {
        self.publications
    }

    /// Number of publications per worker column, in column order — a
    /// cached view of each [`ledger`](Self::ledger)'s
    /// [`publications`](PrivacyLedger::publications). Comparing it
    /// before and after a drive names the columns the drive published
    /// on.
    pub fn column_publications(&self) -> &[u32] {
        &self.column_pubs
    }

    /// Current winner of `task`.
    pub fn winner(&self, task: usize) -> Option<usize> {
        self.alloc[task]
    }

    /// Task currently held by `worker`.
    pub fn task_of(&self, worker: usize) -> Option<usize> {
        self.held[worker]
    }

    /// The allocation list `AL`.
    pub fn alloc(&self) -> &[Option<usize>] {
        &self.alloc
    }

    /// Rebinds `task` to `winner` (or clears it), keeping both directions
    /// of the allocation consistent. Freeing the previous winner and
    /// displacing the new winner's previous task are handled here so the
    /// engines cannot desynchronise the two maps.
    pub fn set_winner(&mut self, task: usize, winner: Option<usize>) {
        if let Some(old) = self.alloc[task] {
            self.held[old] = None;
        }
        self.alloc[task] = winner;
        if let Some(w) = winner {
            if let Some(prev_task) = self.held[w] {
                self.alloc[prev_task] = None;
            }
            self.held[w] = Some(task);
        }
    }

    /// Snapshot of the allocation as an [`Assignment`].
    pub fn assignment(&self) -> Assignment {
        let mut a = Assignment::new(self.n_tasks, self.n_workers);
        for (t, w) in self.alloc.iter().enumerate() {
            if let Some(w) = *w {
                a.assign(t, w);
            }
        }
        a.check_consistent();
        a
    }

    /// Transplants the protocol state that survives into the next
    /// stream window onto a fresh `n_tasks × n_workers` board.
    ///
    /// `task_map` / `worker_map` translate *this* board's indices to the
    /// next window's indices; entities mapped to `None` (completed
    /// tasks, departed or retired workers) are dropped together with
    /// every release and winner that references them. Retained pairs
    /// keep their full release history **in order**, so effective
    /// pairs, consumed budget slots and noise-slot continuation are
    /// preserved exactly — the warm-start precondition of
    /// [`AssignmentEngine::resume`](crate::engine::AssignmentEngine::resume).
    ///
    /// Two deliberate semantics, both load-bearing for streaming:
    ///
    /// * ledgers and the publication counter restart at the carried
    ///   subset — *lifetime* spend (including spend toward dropped
    ///   entities) is the stream accountant's job, not the board's;
    /// * whole-location releases ([`LOCATION_RELEASE`]) are dropped:
    ///   only one-shot engines publish them, and one-shot engines never
    ///   warm-start.
    ///
    /// Iteration is index-ascending throughout, so the result is
    /// deterministic. Columns without publications are skipped before
    /// they are mapped.
    pub fn carry(
        &self,
        n_tasks: usize,
        n_workers: usize,
        task_map: impl Fn(usize) -> Option<usize>,
        worker_map: impl Fn(usize) -> Option<usize>,
    ) -> Board {
        let mut next = Board::new(n_tasks, n_workers);
        for j_old in 0..self.n_workers {
            if self.column_pubs[j_old] == 0 {
                continue;
            }
            let Some(j_new) = worker_map(j_old) else {
                continue;
            };
            for t in self.ledgers[j_old].tasks() {
                if t == LOCATION_RELEASE {
                    continue;
                }
                let t_old = t as usize;
                let Some(t_new) = task_map(t_old) else {
                    continue;
                };
                if let Some(set) = self.releases.get(&(t_old, j_old)) {
                    for r in set.releases() {
                        next.publish(t_new, j_new, r.value, r.epsilon);
                    }
                }
            }
        }
        for (t_old, w_old) in self.alloc.iter().enumerate() {
            if let Some(w_old) = *w_old {
                if let (Some(t_new), Some(w_new)) = (task_map(t_old), worker_map(w_old)) {
                    next.set_winner(t_new, Some(w_new));
                }
            }
        }
        next
    }

    /// Asserts the Theorem V.2 / VI.4 bound for every worker: the
    /// ledgered LDP level equals `r_j · Σ_{t_i} b_{i,j}·ε_{i,j}` and
    /// never exceeds the worst case `r_j · Σ_{t_i∈R_j} Σ_u ε⁽ᵘ⁾_{i,j}`.
    /// Returns the per-worker ledgered levels.
    pub fn verify_privacy_bounds(&self, inst: &Instance) -> Vec<f64> {
        (0..self.n_workers)
            .map(|j| {
                let r = inst.workers()[j].radius;
                let actual = self.ledgers[j].ldp_bound(r);
                let worst: f64 = inst
                    .reach(j)
                    .iter()
                    .map(|&i| {
                        inst.budget(i, j)
                            .expect("reachable pair has budgets")
                            .total()
                    })
                    .sum::<f64>()
                    * r;
                assert!(
                    actual <= worst + 1e-9,
                    "worker {j}: ledgered LDP {actual} exceeds worst case {worst}"
                );
                // Publications may only target reachable tasks (a
                // whole-location release has no task).
                for t in self.ledgers[j].tasks() {
                    assert!(
                        t == LOCATION_RELEASE || inst.in_reach(t as usize, j),
                        "worker {j} published toward unreachable task {t}"
                    );
                }
                actual
            })
            .collect()
    }
}

/// Verbatim state capture for session snapshots. Releases serialize as
/// `(task, worker, set)` triples sorted by pair so equal boards always
/// render identically; the cached `spent_total` floats are stored as-is
/// (never re-summed on restore) so a restored board is bit-identical to
/// the original, whatever publish order produced the sums.
impl Serialize for Board {
    fn serialize_value(&self) -> serde::Value {
        let mut releases: Vec<(usize, usize, &ReleaseSet)> = self
            .releases
            .iter()
            .map(|(&(t, w), set)| (t, w, set))
            .collect();
        releases.sort_by_key(|&(t, w, _)| (t, w));
        serde::Value::Object(vec![
            ("n_tasks".to_string(), self.n_tasks.serialize_value()),
            ("n_workers".to_string(), self.n_workers.serialize_value()),
            ("releases".to_string(), releases.serialize_value()),
            ("alloc".to_string(), self.alloc.serialize_value()),
            ("held".to_string(), self.held.serialize_value()),
            ("ledgers".to_string(), self.ledgers.serialize_value()),
            (
                "spent_total".to_string(),
                self.spent_total.serialize_value(),
            ),
            (
                "publications".to_string(),
                self.publications.serialize_value(),
            ),
        ])
    }
}

impl Deserialize for Board {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error(format!("missing board field `{name}`")))
        };
        let n_tasks = usize::deserialize_value(field("n_tasks")?)?;
        let n_workers = usize::deserialize_value(field("n_workers")?)?;
        let triples = Vec::<(usize, usize, ReleaseSet)>::deserialize_value(field("releases")?)?;
        let mut releases = FastMap::with_capacity_and_hasher(triples.len(), Default::default());
        for (t, w, set) in triples {
            if t >= n_tasks || w >= n_workers {
                return Err(serde::Error(format!(
                    "board release ({t}, {w}) outside {n_tasks} x {n_workers}"
                )));
            }
            if releases.insert((t, w), set).is_some() {
                return Err(serde::Error(format!("duplicate board release ({t}, {w})")));
            }
        }
        let ledgers: Vec<PrivacyLedger> = Vec::deserialize_value(field("ledgers")?)?;
        let board = Board {
            n_tasks,
            n_workers,
            releases,
            alloc: Vec::deserialize_value(field("alloc")?)?,
            held: Vec::deserialize_value(field("held")?)?,
            column_pubs: ledgers.iter().map(|l| l.publications() as u32).collect(),
            ledgers,
            spent_total: Vec::deserialize_value(field("spent_total")?)?,
            publications: usize::deserialize_value(field("publications")?)?,
        };
        if board.alloc.len() != n_tasks
            || board.held.len() != n_workers
            || board.ledgers.len() != n_workers
            || board.spent_total.len() != n_workers
        {
            return Err(serde::Error(format!(
                "board vectors disagree with {n_tasks} x {n_workers}"
            )));
        }
        Ok(board)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_updates_slots_spend_and_effective() {
        let mut b = Board::new(2, 2);
        assert_eq!(b.used_slots(0, 1), 0);
        assert!(b.effective(0, 1).is_none());
        b.publish(0, 1, 5.5, 4.6);
        assert_eq!(b.used_slots(0, 1), 1);
        assert_eq!(b.effective(0, 1).unwrap().distance, 5.5);
        assert!((b.spent_on(0, 1) - 4.6).abs() < 1e-12);
        b.publish(1, 1, 3.0, 0.4);
        assert!((b.spent_total(1) - 5.0).abs() < 1e-12);
        assert_eq!(b.publications(), 2);
        assert_eq!(b.spent_total(0), 0.0);
    }

    #[test]
    fn set_winner_keeps_directions_consistent() {
        let mut b = Board::new(2, 2);
        b.set_winner(0, Some(1));
        assert_eq!(b.winner(0), Some(1));
        assert_eq!(b.task_of(1), Some(0));
        // Worker 1 moves to task 1: task 0 must be freed automatically.
        b.set_winner(1, Some(1));
        assert_eq!(b.winner(0), None);
        assert_eq!(b.task_of(1), Some(1));
        // Replace winner of task 1: worker 1 freed.
        b.set_winner(1, Some(0));
        assert_eq!(b.task_of(1), None);
        assert_eq!(b.task_of(0), Some(1));
        // Clearing.
        b.set_winner(1, None);
        assert_eq!(b.task_of(0), None);
        b.assignment().check_consistent();
    }

    #[test]
    fn assignment_snapshot_matches_alloc() {
        let mut b = Board::new(3, 3);
        b.set_winner(0, Some(2));
        b.set_winner(2, Some(0));
        let a = b.assignment();
        assert_eq!(a.pairs().collect::<Vec<_>>(), vec![(0, 2), (2, 0)]);
    }

    #[test]
    fn carry_transplants_retained_pairs_in_order() {
        let mut b = Board::new(3, 3);
        b.publish(0, 1, 5.0, 0.5); // retained (task 0 -> 0, worker 1 -> 0)
        b.publish(0, 1, 4.8, 0.7); // second slot of the same pair
        b.publish(2, 1, 3.0, 0.4); // dropped: task 2 completed
        b.publish(0, 2, 6.0, 0.9); // dropped: worker 2 departs
        b.charge_location(1, 1.0); // dropped: location release
        b.set_winner(0, Some(1));
        b.set_winner(2, Some(2));

        let task_map = |t: usize| match t {
            0 => Some(0),
            1 => Some(1),
            _ => None,
        };
        let worker_map = |w: usize| match w {
            1 => Some(0),
            _ => None,
        };
        let next = b.carry(2, 1, task_map, worker_map);
        assert_eq!(next.n_tasks(), 2);
        assert_eq!(next.n_workers(), 1);
        // The retained pair keeps both releases, in publish order.
        assert_eq!(next.used_slots(0, 0), 2);
        let set = next.releases(0, 0).unwrap();
        assert_eq!(set.releases()[0].value, 5.0);
        assert_eq!(set.releases()[1].value, 4.8);
        assert_eq!(next.effective(0, 0), b.effective(0, 1));
        // Dropped state is gone; the ledger restarts at the carried subset.
        assert_eq!(next.publications(), 2);
        assert!((next.spent_total(0) - 1.2).abs() < 1e-12);
        // The retained winner survives under the new indices.
        assert_eq!(next.winner(0), Some(0));
        assert_eq!(next.task_of(0), Some(0));
        assert_eq!(next.winner(1), None);
    }

    #[test]
    fn carry_to_disjoint_window_is_fresh() {
        let mut b = Board::new(1, 1);
        b.publish(0, 0, 1.0, 0.5);
        b.set_winner(0, Some(0));
        let next = b.carry(4, 2, |_| None, |_| None);
        assert_eq!(next.publications(), 0);
        assert!(next.alloc().iter().all(Option::is_none));
    }

    #[test]
    fn board_serialization_round_trips_verbatim() {
        let mut b = Board::new(3, 2);
        b.publish(0, 1, 5.0, 0.5);
        b.publish(0, 1, 4.8, 0.7);
        b.publish(2, 0, 3.0, 0.4);
        b.charge_location(1, 1.0);
        b.set_winner(0, Some(1));
        b.set_winner(2, Some(0));
        let tree = b.serialize_value();
        let back = Board::deserialize_value(&tree).expect("round trip");
        assert_eq!(back.n_tasks(), 3);
        assert_eq!(back.n_workers(), 2);
        assert_eq!(back.used_slots(0, 1), 2);
        assert_eq!(back.effective(0, 1), b.effective(0, 1));
        assert_eq!(back.winner(0), Some(1));
        assert_eq!(back.task_of(0), Some(2));
        assert_eq!(back.publications(), b.publications());
        assert_eq!(back.column_publications(), b.column_publications());
        // Bit-exact floats and a canonical rendering: serializing the
        // restored board yields the identical tree.
        assert_eq!(back.spent_total(1).to_bits(), b.spent_total(1).to_bits());
        assert_eq!(back.serialize_value(), tree);
        // Out-of-range and duplicate releases are rejected.
        let mut bad = tree.clone();
        if let serde::Value::Object(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "n_tasks" {
                    *v = serde::Value::Number(1.0);
                }
            }
        }
        assert!(Board::deserialize_value(&bad).is_err());
    }

    #[test]
    fn ledger_tracks_publications_per_worker() {
        let mut b = Board::new(2, 1);
        b.publish(0, 0, 1.0, 0.5);
        b.publish(0, 0, 0.9, 0.7);
        b.publish(1, 0, 2.0, 0.3);
        let l = b.ledger(0);
        assert_eq!(l.publications(), 3);
        assert_eq!(b.column_publications(), &[3]);
        assert!((l.spent_on(0) - 1.2).abs() < 1e-12);
        assert!((l.ldp_bound(2.0) - 3.0).abs() < 1e-12);
    }
}
