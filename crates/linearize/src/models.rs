//! Pluggable sequential specifications for the checker, one per derived
//! object, using the `u64` operation/response encodings the recording
//! drivers in [`crate::native`] write.

use std::collections::{BTreeSet, VecDeque};
use std::hash::Hash;

/// A sequential object specification driving the checker.
///
/// Unlike `tfr_core::universal::Sequential` (which *computes* responses),
/// a `SeqSpec` *validates* recorded responses: [`SeqSpec::step`] answers
/// "from this state, can `op` legally return `resp`, and what state
/// follows?".
pub trait SeqSpec {
    /// Sequential state. `Clone + Eq + Hash` so configurations can be
    /// memoized.
    type State: Clone + Eq + Hash;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// The successor state if `op` may return `resp` from `state`, else
    /// `None`.
    fn step(&self, state: &Self::State, op: u64, resp: u64) -> Option<Self::State>;

    /// Possible successor states of `op` when its response is unknown
    /// (the invoking thread crashed). Defaults to "crashed operations
    /// never take effect"; override for objects whose pending operations
    /// other processes can observe (all of ours — consensus helps crashed
    /// proposals to completion).
    fn step_unknown(&self, state: &Self::State, op: u64) -> Vec<Self::State> {
        let _ = (state, op);
        Vec::new()
    }

    /// Human-readable rendering of an operation, for failure windows.
    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        match resp {
            Some(r) => format!("op({op}) → {r}"),
            None => format!("op({op}) → ?"),
        }
    }
}

/// Test-and-set: the first linearized call returns the old value `0`,
/// every later call returns `1`. State: whether the flag is set.
#[derive(Debug, Clone, Copy, Default)]
pub struct TasModel;

impl SeqSpec for TasModel {
    type State = bool;
    fn initial(&self) -> bool {
        false
    }
    fn step(&self, state: &bool, _op: u64, resp: u64) -> Option<bool> {
        (resp == *state as u64).then_some(true)
    }
    fn step_unknown(&self, _state: &bool, _op: u64) -> Vec<bool> {
        vec![true]
    }
    fn describe(&self, _op: u64, resp: Option<u64>) -> String {
        match resp {
            Some(r) => format!("test_and_set() → {}", r == 1),
            None => "test_and_set() → ?".to_string(),
        }
    }
}

/// Leader election: `op` is the caller's pid; every call returns the same
/// leader, and the leader is some caller. State: the elected leader.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElectionModel;

impl SeqSpec for ElectionModel {
    type State = Option<u64>;
    fn initial(&self) -> Option<u64> {
        None
    }
    fn step(&self, state: &Option<u64>, op: u64, resp: u64) -> Option<Option<u64>> {
        match state {
            // The first linearized participant fixes the leader; validity
            // requires the leader to be a participant, and the only
            // participant so far is the caller itself.
            None => (resp == op).then_some(Some(op)),
            Some(leader) => (resp == *leader).then_some(Some(*leader)),
        }
    }
    fn step_unknown(&self, state: &Option<u64>, op: u64) -> Vec<Option<u64>> {
        match state {
            None => vec![Some(op)],
            Some(leader) => vec![Some(*leader)],
        }
    }
    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        match resp {
            Some(r) => format!("elect(p{op}) → p{r}"),
            None => format!("elect(p{op}) → ?"),
        }
    }
}

/// n-renaming: every call returns a distinct name `< n`. State: the
/// taken names.
#[derive(Debug, Clone)]
pub struct RenamingModel {
    /// Size of the target namespace (`names < n`).
    pub n: u64,
}

impl SeqSpec for RenamingModel {
    type State = BTreeSet<u64>;
    fn initial(&self) -> BTreeSet<u64> {
        BTreeSet::new()
    }
    fn step(&self, state: &BTreeSet<u64>, _op: u64, resp: u64) -> Option<BTreeSet<u64>> {
        if resp < self.n && !state.contains(&resp) {
            let mut next = state.clone();
            next.insert(resp);
            Some(next)
        } else {
            None
        }
    }
    fn step_unknown(&self, state: &BTreeSet<u64>, _op: u64) -> Vec<BTreeSet<u64>> {
        (0..self.n)
            .filter(|name| !state.contains(name))
            .map(|name| {
                let mut next = state.clone();
                next.insert(name);
                next
            })
            .collect()
    }
    fn describe(&self, _op: u64, resp: Option<u64>) -> String {
        match resp {
            Some(r) => format!("rename() → {r}"),
            None => "rename() → ?".to_string(),
        }
    }
}

/// k-set consensus: every decision is some proposed value, and at most
/// `k` distinct values are decided. State: (proposed, decided) sets.
#[derive(Debug, Clone)]
pub struct SetConsensusModel {
    /// Maximum number of distinct decisions.
    pub k: usize,
}

impl SeqSpec for SetConsensusModel {
    type State = (BTreeSet<u64>, BTreeSet<u64>);
    fn initial(&self) -> Self::State {
        (BTreeSet::new(), BTreeSet::new())
    }
    fn step(&self, state: &Self::State, op: u64, resp: u64) -> Option<Self::State> {
        let (mut proposed, mut decided) = state.clone();
        proposed.insert(op);
        if !proposed.contains(&resp) {
            return None; // validity: decide only proposed values
        }
        decided.insert(resp);
        (decided.len() <= self.k).then_some((proposed, decided))
    }
    fn step_unknown(&self, state: &Self::State, op: u64) -> Vec<Self::State> {
        let mut proposed = state.0.clone();
        proposed.insert(op);
        proposed
            .iter()
            .filter_map(|&d| {
                let mut decided = state.1.clone();
                decided.insert(d);
                (decided.len() <= self.k).then_some((proposed.clone(), decided))
            })
            .collect()
    }
    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        match resp {
            Some(r) => format!("propose({op}) → {r}"),
            None => format!("propose({op}) → ?"),
        }
    }
}

/// A mutual exclusion lock as a sequential object, for checking lock
/// histories (see `crate::mcconv` for building them from model-checker
/// schedules). Encoding: `acquire` by process `p` is `op = 2p`,
/// `release` is `op = 2p + 1`; every response is `0`.
///
/// Sequentially a lock alternates `acquire(p); release(p)` with matching
/// owners, so a history with two completed acquires and no release in
/// between — exactly what a mutual exclusion violation produces — has no
/// linearization.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockModel;

/// [`LockModel`]'s encoded acquire operation for process `p`.
pub fn lock_acquire(p: u64) -> u64 {
    2 * p
}

/// [`LockModel`]'s encoded release operation for process `p`.
pub fn lock_release(p: u64) -> u64 {
    2 * p + 1
}

impl SeqSpec for LockModel {
    /// The current holder, if any.
    type State = Option<u64>;

    fn initial(&self) -> Option<u64> {
        None
    }

    fn step(&self, state: &Option<u64>, op: u64, resp: u64) -> Option<Option<u64>> {
        if resp != 0 {
            return None;
        }
        let p = op >> 1;
        if op & 1 == 0 {
            state.is_none().then_some(Some(p))
        } else {
            (*state == Some(p)).then_some(None)
        }
    }

    /// A pending operation may already have taken its effect: a
    /// truncated schedule can cut a releaser off *after* its exit write
    /// freed the lock but before its response event, and a later acquire
    /// legitimately completes in that gap. (The checker may also skip
    /// the pending operation entirely, so both possibilities are
    /// covered.)
    fn step_unknown(&self, state: &Option<u64>, op: u64) -> Vec<Option<u64>> {
        self.step(state, op, 0).into_iter().collect()
    }

    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        let p = op >> 1;
        let name = if op & 1 == 0 { "acquire" } else { "release" };
        match resp {
            Some(_) => format!("{name}(p{p})"),
            None => format!("{name}(p{p}) → ?"),
        }
    }
}

/// A *recoverable* mutual exclusion lock as a sequential object — the
/// crash-recovery extension of [`LockModel`], for histories recorded from
/// `tfr_core::mutex::recoverable::RecoverableMutex` under `CrashRecover`
/// faults. Encoding: `acquire` by process `p` is `op = 3p` (response
/// `0`), `release` is `op = 3p + 1` (response `0`), and `repair` —
/// the recovery section of a new incarnation — is `op = 3p + 2`, with
/// response `1` when it released an orphaned hold left by the dead
/// incarnation and `0` when it found nothing to repair.
///
/// Sequentially, `repair(p) → 1` is exactly a `release(p)` performed on
/// the crashed incarnation's behalf: legal only while `p` holds the
/// lock. `repair(p) → 0` is legal only while `p` does *not* hold it —
/// a recovery that answers `0` while the model still has `p` in the
/// critical section has leaked the orphan, and any later completed
/// `acquire` then has no linearization (see
/// `crate::mutants::record_mutant_leaky_recovery`).
///
/// A crashed incarnation's `acquire` is *pending* (invoked, never
/// responded), so the checker may linearize it just before the repair
/// that undoes it — or drop it when the crash hit before the lock was
/// granted. Both outcomes of a pending `repair` (a crash inside the
/// recovery section itself; recovery reruns it) are enumerated by
/// [`SeqSpec::step_unknown`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverableLockModel;

/// [`RecoverableLockModel`]'s encoded acquire operation for process `p`.
pub fn rec_lock_acquire(p: u64) -> u64 {
    3 * p
}

/// [`RecoverableLockModel`]'s encoded release operation for process `p`.
pub fn rec_lock_release(p: u64) -> u64 {
    3 * p + 1
}

/// [`RecoverableLockModel`]'s encoded repair (recovery-section)
/// operation for process `p`.
pub fn rec_lock_repair(p: u64) -> u64 {
    3 * p + 2
}

impl SeqSpec for RecoverableLockModel {
    /// The current holder, if any.
    type State = Option<u64>;

    fn initial(&self) -> Option<u64> {
        None
    }

    fn step(&self, state: &Option<u64>, op: u64, resp: u64) -> Option<Option<u64>> {
        let p = op / 3;
        match op % 3 {
            0 => (resp == 0 && state.is_none()).then_some(Some(p)),
            1 => (resp == 0 && *state == Some(p)).then_some(None),
            _ => match resp {
                // Repaired: released the dead incarnation's orphan.
                1 => (*state == Some(p)).then_some(None),
                // Nothing orphaned — legal only when `p` is not holding.
                0 => (*state != Some(p)).then_some(*state),
                _ => None,
            },
        }
    }

    /// Pending acquires/releases may already have taken effect (the
    /// incarnation crashed after its decisive write); a pending repair —
    /// a crash inside the recovery section — may have gone either way,
    /// so both of its responses are enumerated.
    fn step_unknown(&self, state: &Option<u64>, op: u64) -> Vec<Option<u64>> {
        match op % 3 {
            0 | 1 => self.step(state, op, 0).into_iter().collect(),
            _ => [1, 0]
                .into_iter()
                .filter_map(|resp| self.step(state, op, resp))
                .collect(),
        }
    }

    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        let p = op / 3;
        let name = match op % 3 {
            0 => "acquire",
            1 => "release",
            _ => "repair",
        };
        match resp {
            Some(r) if op % 3 == 2 => format!("{name}(p{p}) → {r}"),
            Some(_) => format!("{name}(p{p})"),
            None => format!("{name}(p{p}) → ?"),
        }
    }
}

/// Counter: `op` is the amount added, the response is the new total.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterModel;

impl SeqSpec for CounterModel {
    type State = u64;
    fn initial(&self) -> u64 {
        0
    }
    fn step(&self, state: &u64, op: u64, resp: u64) -> Option<u64> {
        (state + op == resp).then_some(resp)
    }
    fn step_unknown(&self, state: &u64, op: u64) -> Vec<u64> {
        vec![state + op]
    }
    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        match resp {
            Some(r) => format!("add({op}) → {r}"),
            None => format!("add({op}) → ?"),
        }
    }
}

/// FIFO queue with the `tfr_core::universal::FifoQueue` encoding:
/// `enqueue(v)` is `(v << 1) | 1` responding `0`; `dequeue` is `0`
/// responding `value + 1`, or `0` when empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueModel;

impl SeqSpec for QueueModel {
    type State = VecDeque<u64>;
    fn initial(&self) -> VecDeque<u64> {
        VecDeque::new()
    }
    fn step(&self, state: &VecDeque<u64>, op: u64, resp: u64) -> Option<VecDeque<u64>> {
        let mut next = state.clone();
        if op & 1 == 1 {
            // enqueue
            if resp != 0 {
                return None;
            }
            next.push_back(op >> 1);
            Some(next)
        } else {
            // dequeue
            match next.pop_front() {
                Some(front) => (resp == front + 1).then_some(next),
                None => (resp == 0).then_some(next),
            }
        }
    }
    fn step_unknown(&self, state: &VecDeque<u64>, op: u64) -> Vec<VecDeque<u64>> {
        let mut next = state.clone();
        if op & 1 == 1 {
            next.push_back(op >> 1);
        } else {
            next.pop_front();
        }
        vec![next]
    }
    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        if op & 1 == 1 {
            match resp {
                Some(_) => format!("enqueue({})", op >> 1),
                None => format!("enqueue({}) → ?", op >> 1),
            }
        } else {
            match resp {
                Some(0) => "dequeue() → empty".to_string(),
                Some(r) => format!("dequeue() → {}", r - 1),
                None => "dequeue() → ?".to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_alternates_matching_owners() {
        let m = LockModel;
        let s = m.initial();
        let s = m.step(&s, lock_acquire(0), 0).expect("free lock acquires");
        assert!(
            m.step(&s, lock_acquire(1), 0).is_none(),
            "no second holder — this is mutual exclusion"
        );
        assert!(m.step(&s, lock_release(1), 0).is_none(), "wrong owner");
        let s = m.step(&s, lock_release(0), 0).expect("owner releases");
        assert!(m.step(&s, lock_acquire(1), 0).is_some());
    }

    #[test]
    fn recoverable_lock_repair_is_a_release_on_the_dead_incarnations_behalf() {
        let m = RecoverableLockModel;
        let s = m.initial();
        assert!(
            m.step(&s, rec_lock_repair(0), 1).is_none(),
            "nothing to repair on a free lock"
        );
        let s = m.step(&s, rec_lock_acquire(0), 0).expect("free lock");
        assert!(
            m.step(&s, rec_lock_acquire(1), 0).is_none(),
            "mutual exclusion"
        );
        assert!(
            m.step(&s, rec_lock_repair(0), 0).is_none(),
            "a recovery that denies the orphan while p0 holds is the leak"
        );
        assert!(
            m.step(&s, rec_lock_repair(1), 1).is_none(),
            "p1 cannot repair p0's hold"
        );
        let s = m.step(&s, rec_lock_repair(0), 1).expect("orphan released");
        assert!(
            m.step(&s, rec_lock_acquire(1), 0).is_some(),
            "repair frees the lock"
        );
        assert_eq!(
            m.step_unknown(&s, rec_lock_repair(1)).len(),
            1,
            "pending repair on a free lock can only answer 0"
        );
        assert_eq!(
            RecoverableLockModel.describe(rec_lock_repair(2), Some(1)),
            "repair(p2) → 1"
        );
        assert_eq!(
            RecoverableLockModel.describe(rec_lock_release(2), Some(0)),
            "release(p2)"
        );
    }

    #[test]
    fn tas_first_wins_then_losers() {
        let m = TasModel;
        let s = m.initial();
        let s = m.step(&s, 0, 0).expect("first call returns old 0");
        assert!(m.step(&s, 0, 0).is_none(), "no second winner");
        assert!(m.step(&s, 0, 1).is_some());
    }

    #[test]
    fn election_validity_and_agreement() {
        let m = ElectionModel;
        let s = m.initial();
        assert!(m.step(&s, 3, 4).is_none(), "first leader must be a caller");
        let s = m.step(&s, 3, 3).unwrap();
        assert!(m.step(&s, 1, 1).is_none(), "later callers adopt the leader");
        assert!(m.step(&s, 1, 3).is_some());
    }

    #[test]
    fn renaming_distinct_and_bounded() {
        let m = RenamingModel { n: 2 };
        let s = m.initial();
        let s = m.step(&s, 0, 1).unwrap();
        assert!(m.step(&s, 0, 1).is_none(), "duplicate name");
        assert!(m.step(&s, 0, 2).is_none(), "name out of range");
        assert!(m.step(&s, 0, 0).is_some());
        assert_eq!(m.step_unknown(&s, 0).len(), 1, "only name 0 left");
    }

    #[test]
    fn set_consensus_validity_and_k_bound() {
        let m = SetConsensusModel { k: 1 };
        let s = m.initial();
        assert!(m.step(&s, 0, 1).is_none(), "1 was never proposed");
        let s = m.step(&s, 1, 1).unwrap();
        assert!(m.step(&s, 0, 0).is_none(), "second distinct decision");
        assert!(m.step(&s, 0, 1).is_some());
    }

    #[test]
    fn queue_fifo_order_and_empty() {
        let m = QueueModel;
        let s = m.initial();
        let s = m.step(&s, (5 << 1) | 1, 0).unwrap();
        let s = m.step(&s, (9 << 1) | 1, 0).unwrap();
        assert!(m.step(&s, 0, 9 + 1).is_none(), "9 is not the front");
        let s = m.step(&s, 0, 5 + 1).unwrap();
        let s = m.step(&s, 0, 9 + 1).unwrap();
        assert!(m.step(&s, 0, 1).is_none(), "empty queue yields 0");
        assert!(m.step(&s, 0, 0).is_some());
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(QueueModel.describe(0, Some(0)), "dequeue() → empty");
        assert_eq!(QueueModel.describe((7 << 1) | 1, Some(0)), "enqueue(7)");
        assert_eq!(TasModel.describe(0, Some(1)), "test_and_set() → true");
        assert_eq!(CounterModel.describe(5, None), "add(5) → ?");
    }
}
