//! Wait-free, time-resilient objects built from Algorithm 1 consensus
//! (§1.4 of the paper): leader election, test-and-set, n-renaming, and
//! k-set consensus.
//!
//! None of these have fault-tolerant register-only implementations in a
//! *fully* asynchronous system; all of them fall out of the consensus
//! building block in a system that is only *mostly* asynchronous. Each
//! object here is one-shot (the classic specification) and inherits
//! Algorithm 1's resilience: safety never depends on the Δ estimate,
//! liveness resumes when timing constraints hold.

use crate::consensus::NativeConsensus;
use crate::universal::{pid_bits, MultiConsensus};
use std::sync::Arc;
use std::time::Duration;
use tfr_registers::space::{NativeSpace, RegisterSpace, SubSpace};
use tfr_registers::ProcId;

/// One-shot wait-free leader election: all participants agree on one
/// participating process.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_core::derived::LeaderElection;
/// use tfr_registers::ProcId;
///
/// let e = LeaderElection::new(4, Duration::from_micros(10));
/// let leader = e.elect(ProcId(2));
/// assert_eq!(leader, ProcId(2), "a solo candidate elects itself");
/// ```
#[derive(Debug)]
pub struct LeaderElection<S: RegisterSpace = NativeSpace> {
    mc: MultiConsensus<S>,
}

impl LeaderElection {
    /// An election among up to `n` processes, over shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, delta: Duration) -> LeaderElection {
        LeaderElection::on(Arc::new(NativeSpace::new()), n, delta)
    }
}

impl<S: RegisterSpace> LeaderElection<S> {
    /// An election over an arbitrary (fresh) register space.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn on(space: Arc<S>, n: usize, delta: Duration) -> LeaderElection<S> {
        LeaderElection {
            mc: MultiConsensus::on(space, n, pid_bits(n), delta),
        }
    }

    /// Participates as `pid`; returns the agreed leader (necessarily a
    /// participant). Call at most once per process.
    pub fn elect(&self, pid: ProcId) -> ProcId {
        ProcId(self.mc.propose(pid, pid.0 as u64) as usize)
    }

    /// The elected leader, if the election has concluded.
    pub fn leader(&self) -> Option<ProcId> {
        self.mc.decision().map(|v| ProcId(v as usize))
    }
}

/// One-shot wait-free test-and-set from atomic registers.
///
/// Exactly one caller wins (observes `false`, the register's old value);
/// all others observe `true`. Herlihy showed registers alone cannot do
/// this wait-free in an asynchronous system — this is the timing-based
/// escape hatch.
#[derive(Debug)]
pub struct TestAndSet<S: RegisterSpace = NativeSpace> {
    election: LeaderElection<S>,
}

impl TestAndSet {
    /// A test-and-set object for up to `n` callers, over shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, delta: Duration) -> TestAndSet {
        TestAndSet::on(Arc::new(NativeSpace::new()), n, delta)
    }
}

impl<S: RegisterSpace> TestAndSet<S> {
    /// A test-and-set object over an arbitrary (fresh) register space.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn on(space: Arc<S>, n: usize, delta: Duration) -> TestAndSet<S> {
        TestAndSet {
            election: LeaderElection::on(space, n, delta),
        }
    }

    /// Atomically tests-and-sets as `pid`: returns the old value —
    /// `false` for the unique winner, `true` for everyone else. Call at
    /// most once per process.
    pub fn test_and_set(&self, pid: ProcId) -> bool {
        self.election.elect(pid) != pid
    }
}

/// One-shot wait-free `n`-renaming: each of up to `n` participants
/// receives a distinct name in `0..n` (the optimal target namespace for
/// non-adaptive renaming with consensus available).
#[derive(Debug)]
pub struct Renaming<S: RegisterSpace = NativeSpace> {
    /// Name slot `j` is an election over the strided region `j + i·n` of
    /// the shared space — `n` disjoint unbounded regions.
    slots: Vec<LeaderElection<SubSpace<Arc<S>>>>,
}

impl Renaming {
    /// A renaming object for up to `n` participants, over shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, delta: Duration) -> Renaming {
        Renaming::on(Arc::new(NativeSpace::new()), n, delta)
    }
}

impl<S: RegisterSpace> Renaming<S> {
    /// A renaming object over an arbitrary (fresh) register space.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn on(space: Arc<S>, n: usize, delta: Duration) -> Renaming<S> {
        assert!(n > 0, "at least one process is required");
        Renaming {
            slots: (0..n)
                .map(|j| {
                    let region = SubSpace::new(Arc::clone(&space), j as u64, n as u64);
                    LeaderElection::on(Arc::new(region), n, delta)
                })
                .collect(),
        }
    }

    /// Acquires a name as `pid`. Call at most once per process.
    ///
    /// Walks the name slots in order, winning one election; a process can
    /// lose at most `n − 1` slots (each to a distinct winner), so the walk
    /// terminates with a unique name `< n`.
    pub fn rename(&self, pid: ProcId) -> usize {
        self.slots
            .iter()
            .position(|slot| slot.elect(pid) == pid)
            .expect("n processes cannot lose all n name slots to n−1 others")
    }
}

/// One-shot wait-free `k`-set consensus: every participant decides some
/// participant's input, and at most `k` distinct values are decided.
///
/// Built by partitioning processes into `k` groups, each running its own
/// Algorithm 1 instance — the standard reduction showing consensus
/// subsumes set consensus (§2.1 of the paper lists set-consensus among
/// the objects the consensus building block yields).
#[derive(Debug)]
pub struct SetConsensus<S: RegisterSpace = NativeSpace> {
    /// Group `g` runs Algorithm 1 over the strided region `g + i·k` of
    /// the shared space.
    groups: Vec<NativeConsensus<SubSpace<Arc<S>>>>,
    k: usize,
}

impl SetConsensus {
    /// A `k`-set consensus object over shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, delta: Duration) -> SetConsensus {
        SetConsensus::on(Arc::new(NativeSpace::new()), k, delta)
    }
}

impl<S: RegisterSpace> SetConsensus<S> {
    /// A `k`-set consensus object over an arbitrary (fresh) register
    /// space.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn on(space: Arc<S>, k: usize, delta: Duration) -> SetConsensus<S> {
        assert!(k > 0, "k must be positive");
        SetConsensus {
            groups: (0..k)
                .map(|g| {
                    let region = SubSpace::new(Arc::clone(&space), g as u64, k as u64);
                    NativeConsensus::on(region, delta)
                })
                .collect(),
            k,
        }
    }

    /// Proposes `input` as `pid`; returns this process's decision.
    pub fn propose(&self, pid: ProcId, input: bool) -> bool {
        self.groups[pid.0 % self.k].propose(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    const D: Duration = Duration::from_micros(5);

    #[test]
    fn election_solo() {
        let e = LeaderElection::new(8, D);
        assert_eq!(e.leader(), None);
        assert_eq!(e.elect(ProcId(5)), ProcId(5));
        assert_eq!(e.leader(), Some(ProcId(5)));
    }

    #[test]
    fn election_concurrent_unique_participating_leader() {
        for trial in 0..10 {
            let n = 6;
            let e = Arc::new(LeaderElection::new(n, D));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let e = Arc::clone(&e);
                    std::thread::spawn(move || e.elect(ProcId(i)))
                })
                .collect();
            let leaders: Vec<ProcId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                leaders.windows(2).all(|w| w[0] == w[1]),
                "trial {trial}: {leaders:?}"
            );
            assert!(leaders[0].0 < n);
        }
    }

    #[test]
    fn election_n_one() {
        let e = LeaderElection::new(1, D);
        assert_eq!(e.elect(ProcId(0)), ProcId(0));
    }

    #[test]
    fn tas_solo_wins() {
        let t = TestAndSet::new(4, D);
        assert!(
            !t.test_and_set(ProcId(1)),
            "solo caller reads the old value false"
        );
    }

    #[test]
    fn tas_exactly_one_winner() {
        for trial in 0..10 {
            let n = 8;
            let t = Arc::new(TestAndSet::new(n, D));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || t.test_and_set(ProcId(i)))
                })
                .collect();
            let old: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let winners = old.iter().filter(|&&w| !w).count();
            assert_eq!(winners, 1, "trial {trial}: exactly one winner, got {old:?}");
        }
    }

    #[test]
    fn renaming_distinct_names_in_range() {
        for trial in 0..10 {
            let n = 6;
            let r = Arc::new(Renaming::new(n, D));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let r = Arc::clone(&r);
                    std::thread::spawn(move || r.rename(ProcId(i)))
                })
                .collect();
            let names: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let distinct: HashSet<usize> = names.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                n,
                "trial {trial}: duplicate names: {names:?}"
            );
            assert!(
                names.iter().all(|&m| m < n),
                "trial {trial}: name out of range"
            );
        }
    }

    #[test]
    fn renaming_partial_participation() {
        // Only 2 of 5 processes show up: names still distinct and small.
        let r = Arc::new(Renaming::new(5, D));
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || r2.rename(ProcId(4)));
        let a = r.rename(ProcId(0));
        let b = h.join().unwrap();
        assert_ne!(a, b);
        assert!(a < 5 && b < 5);
        // With 2 participants and slot-order walking, both names are 0/1.
        assert!(
            a.max(b) <= 1,
            "2 participants must occupy the first two slots: {a} {b}"
        );
    }

    #[test]
    fn set_consensus_bounds_distinct_decisions() {
        for trial in 0..10 {
            let n = 8;
            let k = 2;
            let s = Arc::new(SetConsensus::new(k, D));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || s.propose(ProcId(i), (i + trial) % 3 == 0))
                })
                .collect();
            let decisions: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let distinct: HashSet<bool> = decisions.iter().copied().collect();
            assert!(
                distinct.len() <= k,
                "trial {trial}: more than k distinct decisions"
            );
        }
    }

    #[test]
    fn set_consensus_k_one_is_consensus() {
        let s = Arc::new(SetConsensus::new(1, D));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.propose(ProcId(i), i % 2 == 0))
            })
            .collect();
        let decisions: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }
}
