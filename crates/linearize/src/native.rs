//! Native recording drivers: run each derived object on real threads
//! under an installed chaos fault schedule and capture the concurrent
//! history.
//!
//! Every driver installs a [`ChaosSession`], spawns one thread per
//! process inside [`chaos::run_as`], records each operation's invoke and
//! response around the call (so a crash fault stops a thread
//! mid-operation, leaving its history entry pending), and merges the
//! recorder at quiescence. [`record_chaos`] is the one-call form used by
//! the nemesis and CI smoke: object kind + seed → checkable history.

use crate::history::{History, Recorder};
use std::sync::Arc;
use std::time::Duration;
use tfr_chaos::{random_schedule, ScheduleConfig};
use tfr_core::derived::{LeaderElection, Renaming, SetConsensus, TestAndSet};
use tfr_core::universal::{Counter, FifoQueue, Universal};
use tfr_registers::chaos::{self, ChaosSession, Fault};
use tfr_registers::ProcId;

/// The six derived objects the checker ships sequential models for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// [`LeaderElection`], checked by `ElectionModel`.
    Election,
    /// [`TestAndSet`], checked by `TasModel`.
    TestAndSet,
    /// [`Renaming`], checked by `RenamingModel`.
    Renaming,
    /// [`SetConsensus`] with `k = 2`, checked by `SetConsensusModel`.
    SetConsensus,
    /// [`Universal`]`<Counter>`, checked by `CounterModel`.
    Counter,
    /// [`Universal`]`<FifoQueue>`, checked by `QueueModel`.
    Queue,
}

impl ObjectKind {
    /// All six kinds, for sweeps.
    pub const ALL: [ObjectKind; 6] = [
        ObjectKind::Election,
        ObjectKind::TestAndSet,
        ObjectKind::Renaming,
        ObjectKind::SetConsensus,
        ObjectKind::Counter,
        ObjectKind::Queue,
    ];

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::Election => "election",
            ObjectKind::TestAndSet => "test-and-set",
            ObjectKind::Renaming => "renaming",
            ObjectKind::SetConsensus => "set-consensus",
            ObjectKind::Counter => "counter",
            ObjectKind::Queue => "queue",
        }
    }
}

/// Runs one thread per process under `faults`, thread `i` calling
/// `body(recorder, ProcId(i))` inside [`chaos::run_as`], and merges the
/// recorder at quiescence.
fn record_threads(n: usize, faults: &[Fault], body: impl Fn(&Recorder, ProcId) + Sync) -> History {
    let _session = ChaosSession::install(faults);
    let rec = Recorder::new(n);
    std::thread::scope(|scope| {
        for i in 0..n {
            let (rec, body) = (&rec, &body);
            scope.spawn(move || chaos::run_as(ProcId(i), move || body(rec, ProcId(i))));
        }
    });
    rec.history()
}

/// Records `op` as `pid`'s operation around `run`, which returns the
/// encoded response. A crash inside `run` unwinds past the response, so
/// the operation stays pending.
fn recorded(rec: &Recorder, pid: ProcId, op: u64, run: impl FnOnce() -> u64) {
    let token = rec.invoke(pid, 0, op);
    let resp = run();
    rec.response(pid, 0, token, resp);
}

/// Records a [`LeaderElection`] run: each of `n` threads elects once
/// (op = caller pid, response = leader pid).
pub fn record_election(n: usize, delta: Duration, faults: &[Fault]) -> History {
    let obj = LeaderElection::new(n, delta);
    record_threads(n, faults, |rec, pid| {
        recorded(rec, pid, pid.0 as u64, || obj.elect(pid).0 as u64)
    })
}

/// Records a [`TestAndSet`] run: each of `n` threads calls once
/// (op = 0, response = the old value as 0/1).
pub fn record_tas(n: usize, delta: Duration, faults: &[Fault]) -> History {
    let obj = TestAndSet::new(n, delta);
    record_threads(n, faults, |rec, pid| {
        recorded(rec, pid, 0, || obj.test_and_set(pid) as u64)
    })
}

/// Records a [`Renaming`] run: each of `n` threads takes a name
/// (op = 0, response = the name).
pub fn record_renaming(n: usize, delta: Duration, faults: &[Fault]) -> History {
    let obj = Renaming::new(n, delta);
    record_threads(n, faults, |rec, pid| {
        recorded(rec, pid, 0, || obj.rename(pid) as u64)
    })
}

/// Records a `k = 2` [`SetConsensus`] run over `inputs.len()` threads
/// (op = input as 0/1, response = decision as 0/1).
pub fn record_set_consensus(inputs: &[bool], delta: Duration, faults: &[Fault]) -> History {
    let obj = SetConsensus::new(2, delta);
    record_threads(inputs.len(), faults, |rec, pid| {
        let input = inputs[pid.0];
        recorded(rec, pid, input as u64, || obj.propose(pid, input) as u64)
    })
}

/// Records a [`Universal`]`<Counter>` run: thread `i` adds `i + 1`,
/// `per` times.
pub fn record_counter(n: usize, per: usize, delta: Duration, faults: &[Fault]) -> History {
    let obj = Universal::new(Counter, n, n * per + 4, delta);
    record_threads(n, faults, |rec, pid| {
        let op = pid.0 as u64 + 1;
        for _ in 0..per {
            recorded(rec, pid, op, || obj.invoke(pid, op));
        }
    })
}

/// Records a [`Universal`]`<FifoQueue>` run: even threads enqueue `per`
/// distinct values, odd threads dequeue `per` times (empty dequeues
/// included — they are operations too).
pub fn record_queue(n: usize, per: usize, delta: Duration, faults: &[Fault]) -> History {
    let obj = Universal::new(FifoQueue, n, n * per + 4, delta);
    record_threads(n, faults, |rec, pid| {
        let i = pid.0;
        for k in 0..per {
            let op = if i % 2 == 0 {
                FifoQueue::enqueue_op((i * 100 + k) as u32)
            } else {
                FifoQueue::DEQUEUE
            };
            recorded(rec, pid, op, || obj.invoke(pid, op));
        }
    })
}

/// Records a recoverable-lock run: `n` threads each complete `per`
/// passages through a [`StandardRecoverable`] lock, recording `acquire`
/// and `release` in the [`RecoverableLockModel`] encoding — and, after
/// every `CrashRecover` fault, the new incarnation's `repair` operation
/// with the recovery section's verdict (`1` = an orphaned hold was
/// released, `0` = nothing to repair) as its response.
///
/// A crashed incarnation's in-flight operation stays *pending*: the
/// checker may linearize it right before the repair that undoes it, or
/// drop it when the crash hit before the decisive write. A passage
/// interrupted by a crash is redone by the next incarnation, so every
/// completed thread contributes exactly `per` acquire/release pairs
/// plus its repairs.
///
/// Keep `CrashRecover` faults on the recoverable crash surface (the
/// workload points below plus the lock's own `recoverable.*` points);
/// a crash inside the *inner* lock is outside the recoverable
/// protocol's contract, exactly as in
/// `tfr_chaos::recovery::run_recovery_chaos`.
///
/// [`StandardRecoverable`]: tfr_core::mutex::recoverable::StandardRecoverable
/// [`RecoverableLockModel`]: crate::models::RecoverableLockModel
pub fn record_recoverable_lock(n: usize, per: u64, delta: Duration, faults: &[Fault]) -> History {
    use crate::models::{rec_lock_acquire, rec_lock_release, rec_lock_repair};
    use std::sync::atomic::{AtomicU64, Ordering};
    use tfr_asynclock::{RawLock, RecoverableRawLock};
    use tfr_core::mutex::recoverable::RecoverableMutex;
    use tfr_registers::chaos::points;

    let _session = ChaosSession::install(faults);
    let rec = Arc::new(Recorder::new(n));
    let lock = Arc::new(RecoverableMutex::standard(n, delta));
    std::thread::scope(|scope| {
        for i in 0..n {
            let rec = Arc::clone(&rec);
            let lock = Arc::clone(&lock);
            scope.spawn(move || {
                let pid = ProcId(i);
                let p = i as u64;
                // Survives incarnations: a passage cut short by a crash
                // is redone after recovery.
                let done = AtomicU64::new(0);
                let mut incarnation = 0u64;
                loop {
                    let (rec, lock, done) = (&rec, &lock, &done);
                    let out = chaos::run_as(pid, move || {
                        if incarnation > 0 {
                            let t = rec.invoke(pid, 0, rec_lock_repair(p));
                            let outcome = lock.recover(pid);
                            rec.response(pid, 0, t, outcome.repaired as u64);
                        }
                        while done.load(Ordering::SeqCst) < per {
                            chaos::point(points::WORKLOAD_NCS);
                            let t = rec.invoke(pid, 0, rec_lock_acquire(p));
                            lock.lock(pid);
                            rec.response(pid, 0, t, 0);
                            chaos::point(points::WORKLOAD_CS);
                            let t = rec.invoke(pid, 0, rec_lock_release(p));
                            lock.unlock(pid);
                            rec.response(pid, 0, t, 0);
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                    match out.recoverable_after() {
                        Some(down) => {
                            std::thread::sleep(down);
                            incarnation += 1;
                        }
                        None => break,
                    }
                }
            });
        }
    });
    rec.history()
}

/// Records one chaos-scheduled run of `kind` with `n` processes: the
/// fault schedule is [`ScheduleConfig::objects`] drawn from `seed`, so a
/// printed `(kind, n, seed)` triple replays the exact run shape.
pub fn record_chaos(kind: ObjectKind, n: usize, delta: Duration, seed: u64) -> History {
    let faults = random_schedule(seed, &ScheduleConfig::objects(n, delta));
    match kind {
        ObjectKind::Election => record_election(n, delta, &faults),
        ObjectKind::TestAndSet => record_tas(n, delta, &faults),
        ObjectKind::Renaming => record_renaming(n, delta, &faults),
        ObjectKind::SetConsensus => {
            let inputs: Vec<bool> = (0..n)
                .map(|i| (i + seed as usize).is_multiple_of(2))
                .collect();
            record_set_consensus(&inputs, delta, &faults)
        }
        ObjectKind::Counter => record_counter(n, 3, delta, &faults),
        ObjectKind::Queue => record_queue(n, 3, delta, &faults),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use crate::models::{ElectionModel, TasModel};

    const D: Duration = Duration::from_micros(5);

    #[test]
    fn fault_free_election_history_is_complete_and_linearizable() {
        let h = record_election(3, D, &[]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.completed(), 3);
        check_history(&h, &ElectionModel).expect("linearizable");
    }

    #[test]
    fn crashed_thread_leaves_a_pending_op() {
        use tfr_registers::chaos::{points, FaultAction};
        let faults = [Fault {
            pid: ProcId(1),
            point: points::CONSENSUS_ROUND,
            nth: 1,
            action: FaultAction::Crash,
        }];
        let h = record_tas(2, D, &faults);
        assert_eq!(h.len(), 2, "both invokes recorded");
        assert!(h.completed() < 2, "the crashed thread never responds");
        check_history(&h, &TasModel).expect("pending op is fine");
    }

    #[test]
    fn fault_free_recoverable_lock_history_is_linearizable() {
        use crate::models::RecoverableLockModel;
        let h = record_recoverable_lock(3, 2, D, &[]);
        assert_eq!(h.completed(), 12, "3 threads × 2 passages × 2 ops");
        check_history(&h, &RecoverableLockModel).expect("linearizable");
    }

    #[test]
    fn crash_in_cs_records_a_repair_the_model_linearizes_as_a_release() {
        use crate::models::{rec_lock_repair, RecoverableLockModel};
        use tfr_registers::chaos::{points, FaultAction};
        let faults = [Fault {
            pid: ProcId(0),
            point: points::WORKLOAD_CS,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_millis(1)),
        }];
        let h = record_recoverable_lock(2, 2, D, &faults);
        let repairs: Vec<_> = h
            .ops
            .iter()
            .filter(|o| o.op == rec_lock_repair(0))
            .collect();
        assert_eq!(repairs.len(), 1, "one incarnation restarted");
        assert_eq!(repairs[0].resp, Some(1), "the orphaned hold was released");
        check_history(&h, &RecoverableLockModel)
            .expect("a history with a recovery is linearizable");
    }

    #[test]
    fn crash_during_entry_leaves_a_pending_acquire_and_a_clean_repair() {
        use crate::models::{rec_lock_repair, RecoverableLockModel};
        use tfr_registers::chaos::{points, FaultAction};
        // The crash hits *inside* lock(), before the inner acquisition:
        // the acquire stays pending (droppable) and recovery finds
        // nothing orphaned.
        let faults = [Fault {
            pid: ProcId(1),
            point: points::RECOVERABLE_ACQUIRE,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_millis(1)),
        }];
        let h = record_recoverable_lock(2, 2, D, &faults);
        let repairs: Vec<_> = h
            .ops
            .iter()
            .filter(|o| o.op == rec_lock_repair(1))
            .collect();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].resp, Some(0), "nothing was orphaned");
        assert!(
            h.ops.iter().any(|o| !o.is_complete()),
            "the interrupted acquire stays pending"
        );
        check_history(&h, &RecoverableLockModel).expect("pending acquire drops");
    }
}
