//! Seeded mutants: deliberately broken objects the checker must catch.
//!
//! An oracle that never rejects is worthless; these mutants prove the
//! checker has teeth, each producing a *deterministically* non-linearizable
//! history:
//!
//! * [`SplitTas`] — a test-and-set whose load and store are separate
//!   atomic steps. A chaos stall parked in the gap lets a second caller
//!   read the stale `false`: two winners.
//! * [`LossyQueue`] — a queue whose enqueue gives up (but still reports
//!   success) when a chaos stall makes the operation look congested: a
//!   value vanishes, and a later dequeue skips over it.
//! * [`record_mutant_leaky_recovery`] — a recoverable lock whose recovery
//!   section "restarts fresh" instead of repairing: the dead
//!   incarnation's hold is wiped off the books but never declared
//!   released, and a later acquire completes against a model that still
//!   has the orphan in the critical section.

use crate::history::{History, Recorder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_asynclock::{LockSpec, Progress};
use tfr_core::universal::{FifoQueue, Universal};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::chaos::{self, ChaosSession, Fault, FaultAction};
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId};

/// Injection point inside [`SplitTas`]'s load→store gap.
pub const MUTANT_TAS_GAP: &str = "mutant.tas-gap";

/// Injection point at the head of [`LossyQueue`]'s enqueue.
pub const MUTANT_QUEUE_ENQ: &str = "mutant.queue-enq";

/// A **broken** test-and-set: the load and the store are two separate
/// atomic operations with a chaos point in between — not atomic at all.
#[derive(Debug, Default)]
pub struct SplitTas {
    flag: AtomicBool,
}

impl SplitTas {
    /// The non-atomic test-and-set: load, window, store.
    pub fn test_and_set(&self) -> bool {
        let old = self.flag.load(Ordering::SeqCst);
        chaos::point(MUTANT_TAS_GAP);
        self.flag.store(true, Ordering::SeqCst);
        old
    }
}

/// Records the history of a [`SplitTas`] race with two threads: thread 0
/// is stalled inside the gap by the installed schedule while thread 1
/// completes a full call — both observe the old value `false`.
///
/// The interleaving is forced (thread 1 waits until thread 0 is inside
/// the gap), so the recorded history has two winners on *every* run: the
/// checker must reject it deterministically.
pub fn record_mutant_tas() -> History {
    let faults = [Fault {
        pid: ProcId(0),
        point: MUTANT_TAS_GAP,
        nth: 1,
        action: FaultAction::Stall(Duration::from_millis(2)),
    }];
    let _session = ChaosSession::install(&faults);
    let rec = Arc::new(Recorder::new(2));
    let tas = Arc::new(SplitTas::default());
    let in_gap = Arc::new(AtomicBool::new(false));
    let other_done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let rec = Arc::clone(&rec);
            let tas = Arc::clone(&tas);
            let in_gap = Arc::clone(&in_gap);
            let other_done = Arc::clone(&other_done);
            scope.spawn(move || {
                chaos::run_as(ProcId(0), move || {
                    let t = rec.invoke(ProcId(0), 0, 0);
                    let old = tas.flag.load(Ordering::SeqCst);
                    in_gap.store(true, Ordering::SeqCst);
                    chaos::point(MUTANT_TAS_GAP); // the scheduled stall
                                                  // Hold the gap open until the rival finishes, so the
                                                  // race resolves the same way on every run.
                    while !other_done.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    tas.flag.store(true, Ordering::SeqCst);
                    rec.response(ProcId(0), 0, t, old as u64);
                })
            });
        }
        {
            let rec = Arc::clone(&rec);
            scope.spawn(move || {
                chaos::run_as(ProcId(1), move || {
                    while !in_gap.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    let t = rec.invoke(ProcId(1), 0, 0);
                    let old = tas.test_and_set();
                    rec.response(ProcId(1), 0, t, old as u64);
                    other_done.store(true, Ordering::SeqCst);
                })
            });
        }
    });
    rec.history()
}

/// The spec form of [`SplitTas`] used **as a lock**: load the flag, and
/// if it was zero, store `1` and enter — two separate atomic steps, no
/// atomicity. Exactly the race of the native mutant, but as a
/// `tfr_asynclock::LockSpec`, so the `tfr-modelcheck` explorers can find
/// the losing interleaving exhaustively (two processes both load `0`,
/// then both store and enter) and `crate::mcconv` can convert it into a
/// history the Wing–Gong tier must also reject.
#[derive(Debug, Clone)]
pub struct SplitTasSpec {
    n: usize,
}

impl SplitTasSpec {
    /// A split test-and-set lock for `n` processes on register 0.
    pub fn new(n: usize) -> SplitTasSpec {
        assert!(n > 0, "at least one process is required");
        SplitTasSpec { n }
    }
}

/// Protocol position of [`SplitTasSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitTasState {
    /// Not competing.
    Idle,
    /// About to load the flag.
    Load,
    /// Loaded `0`; about to store `1` — the broken window.
    Store,
    /// Holds the "lock".
    Entered,
    /// About to clear the flag.
    Clear,
    /// Exit protocol finished.
    Done,
}

impl Automaton for SplitTasSpec {
    type State = SplitTasState;

    fn init(&self, _pid: ProcId) -> SplitTasState {
        SplitTasState::Idle
    }

    fn next_action(&self, s: &SplitTasState) -> Action {
        match s {
            SplitTasState::Load => Action::Read(RegId(0)),
            SplitTasState::Store => Action::Write(RegId(0), 1),
            SplitTasState::Clear => Action::Write(RegId(0), 0),
            SplitTasState::Entered | SplitTasState::Done | SplitTasState::Idle => Action::Halt,
        }
    }

    fn apply(&self, s: &mut SplitTasState, observed: Option<u64>, _obs: &mut Vec<Obs>) {
        *s = match *s {
            // The mutant: the decision is made on a stale load.
            SplitTasState::Load if observed == Some(0) => SplitTasState::Store,
            SplitTasState::Load => SplitTasState::Load,
            SplitTasState::Store => SplitTasState::Entered,
            SplitTasState::Clear => SplitTasState::Done,
            other => other,
        };
    }
}

impl LockSpec for SplitTasSpec {
    fn start_entry(&self, s: &mut SplitTasState) {
        *s = SplitTasState::Load;
    }

    fn begin_exit(&self, s: &mut SplitTasState) {
        *s = SplitTasState::Clear;
    }

    fn reset(&self, s: &mut SplitTasState) {
        *s = SplitTasState::Idle;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn registers(&self) -> RegisterCount {
        RegisterCount::Finite(1)
    }

    fn progress(&self) -> Progress {
        Progress::DeadlockFree
    }

    fn is_fast(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "split-tas"
    }
}

/// A **broken** FIFO queue: when a chaos stall makes an enqueue look
/// congested (the injection point took suspiciously long), the mutant
/// "optimizes" by dropping the element — while still reporting success.
pub struct LossyQueue {
    inner: Universal<FifoQueue>,
    /// Enqueues whose chaos point stalled at least this long are dropped.
    congestion_threshold: Duration,
}

impl LossyQueue {
    /// A lossy queue for `n` processes.
    pub fn new(n: usize, capacity: usize, delta: Duration) -> LossyQueue {
        LossyQueue {
            inner: Universal::new(FifoQueue, n, capacity, delta),
            congestion_threshold: Duration::from_millis(5),
        }
    }

    /// Enqueues `v` — unless a stall fires in the entry window, in which
    /// case the value is silently dropped (the bug).
    pub fn enqueue(&self, pid: ProcId, v: u32) {
        let entered = Instant::now();
        chaos::point(MUTANT_QUEUE_ENQ);
        if entered.elapsed() >= self.congestion_threshold {
            return; // drops the element, reports success
        }
        self.inner.invoke(pid, FifoQueue::enqueue_op(v));
    }

    /// Dequeues; `None` when (apparently) empty.
    pub fn dequeue(&self, pid: ProcId) -> Option<u32> {
        FifoQueue::decode_dequeue(self.inner.invoke(pid, FifoQueue::DEQUEUE))
    }
}

/// Records the history of a [`LossyQueue`] run where the schedule stalls
/// process 0's first enqueue past the congestion threshold: `enqueue(7)`
/// is dropped, `enqueue(8)` lands, and the dequeue observes `8` — but the
/// recorded (sequential!) history says `7` went in first, so no
/// linearization exists. Deterministic on every run.
pub fn record_mutant_queue(delta: Duration) -> History {
    let faults = [Fault {
        pid: ProcId(0),
        point: MUTANT_QUEUE_ENQ,
        nth: 1,
        action: FaultAction::Stall(Duration::from_millis(20)),
    }];
    let _session = ChaosSession::install(&faults);
    let rec = Recorder::new(2);
    let q = LossyQueue::new(2, 16, delta);

    // Sequential (non-overlapping) operations: the strongest possible
    // real-time constraints, so the drop cannot hide behind concurrency.
    let out = chaos::run_as(ProcId(0), || {
        let t = rec.invoke(ProcId(0), 0, FifoQueue::enqueue_op(7));
        q.enqueue(ProcId(0), 7); // stalled → dropped
        rec.response(ProcId(0), 0, t, 0);

        let t = rec.invoke(ProcId(0), 0, FifoQueue::enqueue_op(8));
        q.enqueue(ProcId(0), 8);
        rec.response(ProcId(0), 0, t, 0);
    });
    assert!(!out.crashed());
    let out = chaos::run_as(ProcId(1), || {
        let t = rec.invoke(ProcId(1), 0, FifoQueue::DEQUEUE);
        let got = q.dequeue(ProcId(1));
        rec.response(ProcId(1), 0, t, got.map(|v| v as u64 + 1).unwrap_or(0));
    });
    assert!(!out.crashed());
    rec.history()
}

/// Records the history of a **leaky** crash recovery. Process 0 crashes
/// inside its critical section (its completed `acquire` is on the
/// record); the mutant recovery then "restarts fresh" — it wipes the
/// crashed incarnation's state and frees the inner lock so the system
/// keeps running, but it never consults the owner stamp, so it answers
/// `repair → 0`: *nothing was orphaned*. Process 1's passage then
/// completes.
///
/// The recorded history is `acquire(p0)`, `repair(p0) → 0`,
/// `acquire(p1)`, `release(p1)` — all completed, all real-time ordered.
/// Sequentially the repair's `0` requires p0 *not* to hold the lock,
/// and `acquire(p1)` requires it free, but p0's completed acquire was
/// never released or repaired: no linearization exists, and the checker
/// must reject on every run. Contrast with the honest recovery of
/// `crate::native::record_recoverable_lock`, whose `repair → 1`
/// linearizes as a release on the dead incarnation's behalf.
pub fn record_mutant_leaky_recovery(delta: Duration) -> History {
    use crate::models::{rec_lock_acquire, rec_lock_release, rec_lock_repair};
    use tfr_asynclock::RawLock;
    use tfr_core::mutex::recoverable::RecoverableMutex;
    use tfr_registers::chaos::{points, FaultAction};
    use tfr_registers::space::RegisterSpace;

    let faults = [Fault {
        pid: ProcId(0),
        point: points::WORKLOAD_CS,
        nth: 1,
        action: FaultAction::CrashRecover(Duration::from_millis(1)),
    }];
    let _session = ChaosSession::install(&faults);
    let rec = Recorder::new(2);
    let lock = RecoverableMutex::standard(2, delta);

    // Passage 1: p0 acquires (completed on the record), then crashes in
    // its critical section — the hold is orphaned.
    let out = chaos::run_as(ProcId(0), || {
        let t = rec.invoke(ProcId(0), 0, rec_lock_acquire(0));
        lock.lock(ProcId(0));
        rec.response(ProcId(0), 0, t, 0);
        chaos::point(points::WORKLOAD_CS); // the scheduled crash
    });
    assert!(
        out.recoverable_after().is_some(),
        "the scheduled crash-recover must fire"
    );

    // The mutant recovery: a naive reset. Volatile state wiped, owner
    // stamp zeroed, inner lock freed — but the repair is never declared:
    // the recovery reports that nothing was orphaned.
    let out = chaos::run_as(ProcId(0), || {
        let t = rec.invoke(ProcId(0), 0, rec_lock_repair(0));
        lock.space().crash(ProcId(0));
        lock.space().write(0, 0); // forgets the orphan instead of releasing it
        lock.inner().unlock(ProcId(0));
        rec.response(ProcId(0), 0, t, 0); // the lie
    });
    assert!(!out.crashed());

    // Passage 2: the freed inner lock lets p1 straight through.
    let out = chaos::run_as(ProcId(1), || {
        let t = rec.invoke(ProcId(1), 0, rec_lock_acquire(1));
        lock.lock(ProcId(1));
        rec.response(ProcId(1), 0, t, 0);
        let t = rec.invoke(ProcId(1), 0, rec_lock_release(1));
        lock.unlock(ProcId(1));
        rec.response(ProcId(1), 0, t, 0);
    });
    assert!(!out.crashed());
    rec.history()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use crate::models::{QueueModel, RecoverableLockModel, TasModel};

    #[test]
    fn split_tas_is_caught() {
        let h = record_mutant_tas();
        assert_eq!(h.completed(), 2);
        let err = check_history(&h, &TasModel).expect_err("two winners");
        let msg = err.to_string();
        assert!(msg.contains("not linearizable"), "{msg}");
        assert!(msg.contains("test_and_set"), "{msg}");
    }

    #[test]
    fn lossy_queue_is_caught() {
        let h = record_mutant_queue(Duration::from_micros(5));
        assert_eq!(h.completed(), 3);
        let err = check_history(&h, &QueueModel).expect_err("dropped element");
        let msg = err.to_string();
        assert!(
            msg.contains("dequeue() → 8"),
            "window names the bad dequeue: {msg}"
        );
    }

    #[test]
    fn leaky_recovery_is_caught() {
        let h = record_mutant_leaky_recovery(Duration::from_micros(5));
        assert_eq!(h.completed(), 4, "all four operations completed");
        let err = check_history(&h, &RecoverableLockModel).expect_err("the leaked orphan");
        let msg = err.to_string();
        assert!(msg.contains("not linearizable"), "{msg}");
        assert!(
            msg.contains("repair(p0) → 0") || msg.contains("acquire(p1)"),
            "window names the lie or its consequence: {msg}"
        );
    }

    #[test]
    fn lossy_queue_without_faults_behaves() {
        let _session = ChaosSession::install(&[]);
        let q = LossyQueue::new(1, 8, Duration::from_micros(5));
        let out = chaos::run_as(ProcId(0), || {
            q.enqueue(ProcId(0), 7);
            q.dequeue(ProcId(0))
        });
        assert_eq!(out.completed(), Some(Some(7)));
    }
}
