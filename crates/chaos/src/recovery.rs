//! The recovery nemesis: drives a [`RecoverableRawLock`] on real threads
//! under `CrashRecover` faults — processes crash *inside and outside* the
//! critical section, sit out their down time, and rejoin mid-workload as
//! new incarnations that run the recovery section before re-contending.
//!
//! This is the crash-*recovery* counterpart of
//! [`run_mutex_chaos`](crate::nemesis::run_mutex_chaos), whose crash-stop
//! model forbids dying while holding the lock (a crash-stopped holder
//! wedges every survivor by construction). Here that schedule is the
//! *interesting* one: the next incarnation's
//! [`recover`](RecoverableRawLock::recover) must release the orphaned
//! critical section, and the nemesis checks — online, via the same
//! intruder counter — that mutual exclusion holds across every repair.
//!
//! Replays are deterministic: the workload is driven by an installed
//! [`ChaosSession`], so a seeded schedule from
//! [`ScheduleConfig::recoverable_mutex`](crate::schedule::ScheduleConfig::recoverable_mutex)
//! reproduces the same crashes at the same points.

use crate::nemesis::{hold, MutexChaosConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tfr_asynclock::RecoverableRawLock;
use tfr_registers::chaos::{
    self, install_point_observer, points, ChaosSession, Fault, FaultAction, FiredFault,
};
use tfr_registers::ProcId;
use tfr_telemetry::{with_pid, ChaosTraceObserver, Tracer};

/// Points where the recoverable-mutex crash surface admits a
/// `CrashRecover` fault: everywhere the persistent state is unambiguous
/// (see the `tfr_core::mutex::recoverable` module docs). Crashing inside
/// the *inner* lock is rejected — there the owner stamp would not be the
/// truth about what the dead incarnation held.
pub const CRASH_RECOVER_SURFACE: &[&str] = &[
    points::WORKLOAD_NCS,
    points::WORKLOAD_CS,
    points::RECOVERABLE_ACQUIRE,
    points::RECOVERABLE_CS,
    points::RECOVERABLE_RELEASE,
    points::RECOVERY_SECTION,
];

/// One completed recovery section, as observed by the nemesis.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySample {
    /// The process that crashed and came back.
    pub pid: ProcId,
    /// The incarnation the recovery installed (1 = first restart).
    pub incarnation: u64,
    /// Whether the previous incarnation had orphaned the critical
    /// section and the recovery released it.
    pub repaired: bool,
    /// The scheduled down time between crash and restart.
    pub down_for: Duration,
    /// Wall time from restart to the end of the recovery section.
    pub recovery_latency: Duration,
}

/// Everything a recovery chaos run observed.
#[derive(Debug)]
pub struct RecoveryChaosReport {
    /// Peak simultaneous critical-section occupancy (1 = exclusive).
    pub max_in_cs: u64,
    /// Entries that found another process already inside — each one is a
    /// mutual exclusion violation, *including* any let in by a recovery
    /// that released a lock its previous incarnation did not hold.
    pub intrusions: u64,
    /// Processes crash-*stopped* by the schedule (plain `Crash` faults
    /// never rejoin; the injector deregisters them).
    pub crashed: Vec<ProcId>,
    /// Processes that completed every iteration (possibly across several
    /// incarnations).
    pub completed: Vec<ProcId>,
    /// Every recovery section that ran, in completion order.
    pub recoveries: Vec<RecoverySample>,
    /// Faults that actually fired.
    pub fired: Vec<FiredFault>,
}

impl RecoveryChaosReport {
    /// Whether mutual exclusion was violated at any point of the run.
    pub fn mutual_exclusion_violated(&self) -> bool {
        self.intrusions > 0
    }

    /// Recoveries that found and released an orphaned critical section.
    pub fn cs_repairs(&self) -> usize {
        self.recoveries.iter().filter(|r| r.repaired).count()
    }
}

/// Runs `lock` under `faults`, rejoining every crash-recovered process.
///
/// Each worker loops: remainder section ([`points::WORKLOAD_NCS`]),
/// `lock`, critical section ([`points::WORKLOAD_CS`]) under the intruder
/// counter, `unlock` — until its iteration quota is met. A `CrashRecover`
/// fault unwinds the worker wherever it is; the worker holds for the
/// scheduled down time, then *rejoins as a new incarnation*: it runs
/// [`recover`](RecoverableRawLock::recover) first and re-enters the loop
/// where its quota left off. Plain `Crash` faults still crash-stop: the
/// worker never returns and the injector deregisters its pid, so no later
/// fault is wasted on it.
///
/// With `Some(tracer)`, a [`ChaosTraceObserver`] turns point visits,
/// fired faults, and crash-recoveries into events on `tracer`. Build the
/// lock with `with_trace(Trace::attached(...))` on the same tracer and
/// each `CrashRecover` event pairs with the `Recovered` the lock emits,
/// giving `tfr_telemetry::recovery_spans_from_events` full down+repair
/// spans.
///
/// # Panics
///
/// Panics if a `CrashRecover` fault targets a point outside
/// [`CRASH_RECOVER_SURFACE`], or a plain `Crash` targets any point other
/// than [`points::WORKLOAD_NCS`] (a crash-stopped *holder* wedges the run
/// by construction — only the recoverable variant may die inside).
///
/// # Example
///
/// A process crashes inside the critical section and the run still
/// finishes exclusively:
///
/// ```
/// use std::time::Duration;
/// use tfr_chaos::recovery::run_recovery_chaos;
/// use tfr_chaos::MutexChaosConfig;
/// use tfr_core::mutex::recoverable::RecoverableMutex;
/// use tfr_registers::chaos::{points, Fault, FaultAction};
/// use tfr_registers::ProcId;
///
/// let lock = RecoverableMutex::standard(2, Duration::from_micros(100));
/// let faults = [Fault {
///     pid: ProcId(0),
///     point: points::WORKLOAD_CS,
///     nth: 1,
///     action: FaultAction::CrashRecover(Duration::from_micros(200)),
/// }];
/// let mut cfg = MutexChaosConfig::new(2);
/// cfg.iterations = 3;
/// let report = run_recovery_chaos(&lock, &cfg, &faults, None);
/// assert!(!report.mutual_exclusion_violated());
/// assert_eq!(report.completed.len(), 2, "the crashed process rejoined");
/// assert_eq!(report.cs_repairs(), 1, "its recovery released the CS");
/// ```
pub fn run_recovery_chaos<L: RecoverableRawLock>(
    lock: &L,
    cfg: &MutexChaosConfig,
    faults: &[Fault],
    tracer: Option<&Arc<Tracer>>,
) -> RecoveryChaosReport {
    assert!(
        cfg.n > 0 && cfg.n <= lock.n(),
        "workload size exceeds the lock's capacity"
    );
    for f in faults {
        match f.action {
            FaultAction::CrashRecover(_) => assert!(
                CRASH_RECOVER_SURFACE.contains(&f.point),
                "crash-recover faults must stay on the recoverable crash \
                 surface (got {f})"
            ),
            FaultAction::Crash => assert!(
                f.point == points::WORKLOAD_NCS,
                "crash-stops only at workload.ncs — a dead holder wedges \
                 the run (got {f})"
            ),
            FaultAction::Stall(_) => {}
        }
    }
    let session = ChaosSession::install(faults);
    let _observer =
        tracer.map(|t| install_point_observer(Arc::new(ChaosTraceObserver::new(Arc::clone(t)))));
    let in_cs = AtomicU64::new(0);
    let max_in_cs = AtomicU64::new(0);
    let intrusions = AtomicU64::new(0);
    let recoveries: Mutex<Vec<RecoverySample>> = Mutex::new(Vec::new());

    let mut crashed = Vec::new();
    let mut completed = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.n)
            .map(|i| {
                let (in_cs, max_in_cs, intrusions, recoveries) =
                    (&in_cs, &max_in_cs, &intrusions, &recoveries);
                s.spawn(move || {
                    let pid = ProcId(i);
                    // Survives incarnations, like work acknowledged by a
                    // client: a passage interrupted by a crash is redone.
                    let done = AtomicU64::new(0);
                    // Set while this worker is inside the CS under the
                    // intruder counter; a crash there must release the
                    // *counter* (the process is gone) while the lock
                    // itself stays orphaned until recovery repairs it.
                    let was_inside = AtomicBool::new(false);
                    let mut incarnation = 0u64;
                    let mut pending_down = Duration::ZERO;
                    loop {
                        let (done, was_inside) = (&done, &was_inside);
                        let outcome = chaos::run_as(pid, || {
                            with_pid(pid, || {
                                if incarnation > 0 {
                                    let t0 = Instant::now();
                                    let out = lock.recover(pid);
                                    recoveries.lock().unwrap_or_else(|e| e.into_inner()).push(
                                        RecoverySample {
                                            pid,
                                            incarnation: out.incarnation,
                                            repaired: out.repaired,
                                            down_for: pending_down,
                                            recovery_latency: t0.elapsed(),
                                        },
                                    );
                                }
                                while done.load(Ordering::Relaxed) < cfg.iterations {
                                    chaos::point(points::WORKLOAD_NCS);
                                    hold(cfg.ncs_hold);
                                    lock.lock(pid);
                                    let now_inside = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                                    was_inside.store(true, Ordering::SeqCst);
                                    if now_inside > 1 {
                                        intrusions.fetch_add(1, Ordering::SeqCst);
                                    }
                                    max_in_cs.fetch_max(now_inside, Ordering::SeqCst);
                                    chaos::point(points::WORKLOAD_CS);
                                    hold(cfg.cs_hold);
                                    was_inside.store(false, Ordering::SeqCst);
                                    in_cs.fetch_sub(1, Ordering::SeqCst);
                                    lock.unlock(pid);
                                    done.fetch_add(1, Ordering::Relaxed);
                                }
                            })
                        });
                        // A worker that died inside the CS leaves the
                        // *lock* orphaned (recovery's business) but must
                        // release the occupancy counter: the process is no
                        // longer executing critical-section code.
                        let died_inside = was_inside.swap(false, Ordering::SeqCst);
                        if died_inside {
                            in_cs.fetch_sub(1, Ordering::SeqCst);
                        }
                        match outcome {
                            chaos::ThreadOutcome::Completed(()) => break Ok(()),
                            chaos::ThreadOutcome::Crashed => break Err(()),
                            chaos::ThreadOutcome::CrashedRecoverable(down) => {
                                hold(down);
                                pending_down = down;
                                incarnation += 1;
                            }
                        }
                    }
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            match h
                .join()
                .expect("worker panicked outside the crash protocol")
            {
                Ok(()) => completed.push(ProcId(i)),
                Err(()) => crashed.push(ProcId(i)),
            }
        }
    });

    RecoveryChaosReport {
        max_in_cs: max_in_cs.load(Ordering::SeqCst),
        intrusions: intrusions.load(Ordering::SeqCst),
        crashed,
        completed,
        recoveries: recoveries.into_inner().unwrap_or_else(|e| e.into_inner()),
        fired: session.injector().fired(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use tfr_asynclock::RawLock;
    use tfr_core::mutex::recoverable::RecoverableMutex;
    use tfr_core::mutex::resilient::ResilientMutex;
    use tfr_registers::space::{NativeSpace, RegisterSpace};

    fn quick_cfg(n: usize) -> MutexChaosConfig {
        let mut cfg = MutexChaosConfig::new(n);
        cfg.iterations = 5;
        cfg.cs_hold = Duration::from_micros(20);
        cfg.ncs_hold = Duration::from_micros(20);
        cfg
    }

    #[test]
    fn crash_in_cs_is_repaired_and_the_run_stays_exclusive() {
        let lock = RecoverableMutex::standard(3, Duration::from_micros(100));
        let faults = [
            Fault {
                pid: ProcId(0),
                point: points::WORKLOAD_CS,
                nth: 2,
                action: FaultAction::CrashRecover(Duration::from_micros(300)),
            },
            Fault {
                pid: ProcId(1),
                point: points::RECOVERABLE_RELEASE,
                nth: 1,
                action: FaultAction::CrashRecover(Duration::from_micros(300)),
            },
        ];
        let report = run_recovery_chaos(&lock, &quick_cfg(3), &faults, None);
        assert!(!report.mutual_exclusion_violated());
        assert_eq!(report.max_in_cs, 1);
        assert_eq!(report.completed.len(), 3, "everyone rejoins and finishes");
        assert!(report.crashed.is_empty());
        assert_eq!(report.cs_repairs(), 2, "both crashes orphaned the CS");
        assert_eq!(report.recoveries.len(), 2);
        for r in &report.recoveries {
            assert_eq!(r.incarnation, 1);
            assert_eq!(r.down_for, Duration::from_micros(300));
        }
    }

    #[test]
    fn crash_outside_cs_recovers_without_repair() {
        let lock = RecoverableMutex::standard(2, Duration::from_micros(100));
        let faults = [Fault {
            pid: ProcId(1),
            point: points::WORKLOAD_NCS,
            nth: 2,
            action: FaultAction::CrashRecover(Duration::from_micros(200)),
        }];
        let report = run_recovery_chaos(&lock, &quick_cfg(2), &faults, None);
        assert!(!report.mutual_exclusion_violated());
        assert_eq!(report.completed.len(), 2);
        assert_eq!(report.recoveries.len(), 1);
        assert!(!report.recoveries[0].repaired, "nothing was orphaned");
    }

    #[test]
    fn crash_stopped_pids_are_deregistered_and_attract_no_later_faults() {
        // The crash-stop at iteration 2 kills p0 for good; the
        // crash-recover scheduled for its later CS must never fire,
        // because the injector deregisters dead pids.
        let lock = RecoverableMutex::standard(2, Duration::from_micros(100));
        let faults = [
            Fault {
                pid: ProcId(0),
                point: points::WORKLOAD_NCS,
                nth: 2,
                action: FaultAction::Crash,
            },
            Fault {
                pid: ProcId(0),
                point: points::WORKLOAD_NCS,
                nth: 4,
                action: FaultAction::CrashRecover(Duration::from_micros(100)),
            },
        ];
        let report = run_recovery_chaos(&lock, &quick_cfg(2), &faults, None);
        assert_eq!(report.crashed, vec![ProcId(0)]);
        assert_eq!(report.completed, vec![ProcId(1)]);
        assert_eq!(report.fired.len(), 1, "only the crash-stop fired");
        assert!(matches!(report.fired[0].fault.action, FaultAction::Crash));
        assert!(report.recoveries.is_empty());
    }

    #[test]
    fn repeated_crashes_stack_incarnations() {
        let lock = RecoverableMutex::standard(2, Duration::from_micros(100));
        let faults = [
            Fault {
                pid: ProcId(0),
                point: points::WORKLOAD_CS,
                nth: 1,
                action: FaultAction::CrashRecover(Duration::from_micros(100)),
            },
            Fault {
                pid: ProcId(0),
                point: points::RECOVERABLE_ACQUIRE,
                nth: 2,
                action: FaultAction::CrashRecover(Duration::from_micros(100)),
            },
        ];
        let report = run_recovery_chaos(&lock, &quick_cfg(2), &faults, None);
        assert!(!report.mutual_exclusion_violated());
        assert_eq!(report.completed.len(), 2);
        let incs: Vec<u64> = report.recoveries.iter().map(|r| r.incarnation).collect();
        assert_eq!(incs, vec![1, 2], "each restart bumps the epoch");
        assert_eq!(report.cs_repairs(), 1, "only the in-CS crash repaired");
    }

    #[test]
    #[should_panic(expected = "recoverable crash surface")]
    fn crash_recover_inside_the_inner_lock_is_rejected() {
        let lock = RecoverableMutex::standard(2, Duration::from_micros(100));
        let faults = [Fault {
            pid: ProcId(0),
            point: points::RESILIENT_INNER,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_micros(100)),
        }];
        let _ = run_recovery_chaos(&lock, &quick_cfg(2), &faults, None);
    }

    /// Satellite pin: the paper's crash-stop lock, *without* the
    /// recoverable transformation, strands its waiters forever when the
    /// holder dies mid-exit — the exact starvation the recovery section
    /// exists to prevent. Fully deterministic: one scheduled crash, one
    /// bounded probe, one manual repair.
    #[test]
    fn resilient_mutex_without_recovery_starves_waiters_after_crash_in_exit() {
        let delta = Duration::from_micros(50);
        let space = Arc::new(NativeSpace::new());
        let lock = Arc::new(ResilientMutex::standard_on(Arc::clone(&space), 2, delta));
        // p0 dies after the inner exit but before resetting Fischer's x —
        // inside resilient.exit, which the crash-stop nemesis rightly
        // refuses; this test is exactly about what it would wedge.
        let _session = ChaosSession::install(&[Fault {
            pid: ProcId(0),
            point: points::RESILIENT_EXIT,
            nth: 1,
            action: FaultAction::Crash,
        }]);
        let l = Arc::clone(&lock);
        let out = std::thread::spawn(move || {
            chaos::run_as(ProcId(0), move || {
                l.lock(ProcId(0));
                l.unlock(ProcId(0));
            })
        })
        .join()
        .unwrap();
        assert!(matches!(out, chaos::ThreadOutcome::Crashed));
        assert_eq!(
            space.read(0),
            ProcId(0).token(),
            "the dead holder's token is pinned in Fischer's x"
        );

        let acquired = Arc::new(AtomicBool::new(false));
        let (l, a) = (Arc::clone(&lock), Arc::clone(&acquired));
        let waiter = std::thread::spawn(move || {
            chaos::run_as(ProcId(1), move || {
                l.lock(ProcId(1));
                a.store(true, Ordering::SeqCst);
                l.unlock(ProcId(1));
            })
        });
        // Bounded probe: with x pinned, the waiter spins in `await x = 0`
        // and never enters. 30 ms ≫ any legitimate entry at Δ = 50 µs.
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !acquired.load(Ordering::SeqCst),
            "waiter entered past a dead holder's pinned token"
        );
        // Manual repair — the very write a recovery section would issue —
        // and the waiter proceeds.
        space.write(0, 0);
        waiter.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
    }
}
