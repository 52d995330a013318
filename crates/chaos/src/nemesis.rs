//! The nemesis: drives native algorithms on real threads under an
//! installed fault schedule, with online invariant checking.
//!
//! * [`run_mutex_chaos`] — any [`RawLock`] under a lock/unlock workload,
//!   with an intruder counter (two threads inside the critical section at
//!   once is a mutual exclusion violation caught *as it happens*) and
//!   per-entry latency samples for resilience assessment.
//! * [`run_consensus_chaos`] — Algorithm 1's [`NativeConsensus`] under
//!   faults, checking agreement and validity across survivors.
//! * [`violation_setup_from_seed`] / [`hunt_fischer_violation`] — the
//!   paper's §2 headline on real threads: a seeded stall in Fischer's
//!   read→write window longer than Δ makes two threads hold the lock at
//!   once. The seed fully determines the schedule, so a printed seed
//!   reproduces the violation.

use crate::schedule::{random_schedule, ScheduleConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tfr_asynclock::RawLock;
use tfr_core::consensus::NativeConsensus;
use tfr_core::mutex::fischer::Fischer;
use tfr_registers::chaos::{
    self, install_point_observer, points, ChaosSession, Fault, FaultAction, FiredFault,
};
use tfr_registers::rng::SplitMix64;
use tfr_registers::ProcId;
use tfr_telemetry::{with_pid, ChaosTraceObserver, Trace, Tracer};

/// Busy-holds the calling thread for `d` without touching any injection
/// point (the workload's own dwell times must not perturb fault visit
/// counts).
pub(crate) fn hold(d: Duration) {
    if d.is_zero() {
        return;
    }
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Workload shape for [`run_mutex_chaos`].
#[derive(Debug, Clone)]
pub struct MutexChaosConfig {
    /// Number of worker threads (= processes).
    pub n: usize,
    /// Lock acquisitions per thread.
    pub iterations: u64,
    /// Dwell time inside the critical section.
    pub cs_hold: Duration,
    /// Dwell time in the remainder section.
    pub ncs_hold: Duration,
}

impl MutexChaosConfig {
    /// A short default workload: `n` threads × 20 acquisitions with
    /// microsecond dwell times.
    ///
    /// All fields are public — tune the shape after construction:
    ///
    /// ```
    /// use tfr_chaos::MutexChaosConfig;
    ///
    /// let mut cfg = MutexChaosConfig::new(3);
    /// assert_eq!((cfg.n, cfg.iterations), (3, 20));
    /// cfg.iterations = 5; // a quicker smoke run
    /// ```
    pub fn new(n: usize) -> MutexChaosConfig {
        MutexChaosConfig {
            n,
            iterations: 20,
            cs_hold: Duration::from_micros(50),
            ncs_hold: Duration::from_micros(50),
        }
    }
}

/// One successful lock acquisition, as observed by the nemesis.
#[derive(Debug, Clone, Copy)]
pub struct EntrySample {
    /// The acquiring process.
    pub pid: ProcId,
    /// When it entered the critical section.
    pub entered_at: Instant,
    /// How long the entry section took (`lock()` call to return).
    pub latency: Duration,
}

/// Everything a mutex chaos run observed.
#[derive(Debug)]
pub struct MutexChaosReport {
    /// Peak simultaneous critical-section occupancy (1 = exclusive).
    pub max_in_cs: u64,
    /// Number of entries that found another thread already inside —
    /// each one is a mutual exclusion violation.
    pub intrusions: u64,
    /// Threads crash-stopped by the schedule.
    pub crashed: Vec<ProcId>,
    /// Threads that completed every iteration.
    pub completed: Vec<ProcId>,
    /// Every successful acquisition, in no particular order.
    pub entries: Vec<EntrySample>,
    /// Faults that actually fired.
    pub fired: Vec<FiredFault>,
    /// When the last fault finished firing (convergence clock zero).
    pub last_fault_at: Option<Instant>,
}

impl MutexChaosReport {
    /// Whether mutual exclusion was violated at any point of the run.
    pub fn mutual_exclusion_violated(&self) -> bool {
        self.intrusions > 0
    }

    /// The worst observed entry latency, if any entry happened.
    pub fn max_latency(&self) -> Option<Duration> {
        self.entries.iter().map(|e| e.latency).max()
    }
}

/// Runs `lock` under `faults` with online mutual exclusion checking.
///
/// Installs a [`ChaosSession`] for the duration of the run — *also when
/// `faults` is empty*, so baseline runs are isolated from any concurrent
/// chaos activity in the process. Each worker registers with
/// [`chaos::run_as`] and `tfr_telemetry::with_pid` (so
/// `emit_current`-based layers like `AdaptiveDelta` attribute events
/// correctly); a crash-stopped worker simply stops, and the report says
/// so.
///
/// With `Some(tracer)`, a [`ChaosTraceObserver`] is installed for the
/// run, turning every injection-point visit and fired fault into trace
/// events in `tracer`. Build the lock with its own
/// `with_trace(Trace::attached(...))` on the same tracer to get
/// lock-level spans on the same timeline — and spawn a
/// `tfr_obs::Collector` on it around the call to have the online monitors
/// stream the rings *while the nemesis fires*, independently of the
/// workload's own `in_cs` accounting.
///
/// # Panics
///
/// Panics if a crash fault targets any point other than
/// [`points::WORKLOAD_NCS`]: a thread crash-stopped while *holding* a
/// blocking lock would wedge every survivor by construction — that
/// schedule tests nothing about the algorithm.
///
/// # Example
///
/// Algorithm 3 under a stall longer than Δ in its hazardous read→write
/// window — the exact failure that breaks Fischer — stays exclusive:
///
/// ```
/// use std::time::Duration;
/// use tfr_chaos::{run_mutex_chaos, MutexChaosConfig};
/// use tfr_core::mutex::resilient::ResilientMutex;
/// use tfr_registers::chaos::{points, Fault, FaultAction};
/// use tfr_registers::ProcId;
///
/// let delta = Duration::from_micros(100);
/// let lock = ResilientMutex::standard(2, delta);
/// let faults = [Fault {
///     pid: ProcId(0),
///     point: points::RESILIENT_WRITE_X,
///     nth: 1,
///     action: FaultAction::Stall(delta * 10),
/// }];
/// let mut cfg = MutexChaosConfig::new(2);
/// cfg.iterations = 3;
/// let report = run_mutex_chaos(&lock, &cfg, &faults, None);
/// assert!(!report.mutual_exclusion_violated());
/// assert_eq!(report.max_in_cs, 1);
/// assert_eq!(report.completed.len(), 2, "stalls never kill a thread");
/// assert_eq!(report.entries.len(), 2 * 3);
/// ```
pub fn run_mutex_chaos<L: RawLock>(
    lock: &L,
    cfg: &MutexChaosConfig,
    faults: &[Fault],
    tracer: Option<&Arc<Tracer>>,
) -> MutexChaosReport {
    assert!(
        cfg.n > 0 && cfg.n <= lock.n(),
        "workload size exceeds the lock's capacity"
    );
    for f in faults {
        assert!(
            f.action != FaultAction::Crash || f.point == points::WORKLOAD_NCS,
            "mutex workloads only crash-stop at workload.ncs (got {f})"
        );
        assert!(
            !matches!(f.action, FaultAction::CrashRecover(_)),
            "this workload never rejoins crashed processes; \
             use the recovery nemesis for crash-recover faults (got {f})"
        );
    }
    let session = ChaosSession::install(faults);
    // Installed after the session (and dropped before it): the observer
    // rides inside the session's process-wide serialization.
    let _observer =
        tracer.map(|t| install_point_observer(Arc::new(ChaosTraceObserver::new(Arc::clone(t)))));
    let in_cs = AtomicU64::new(0);
    let max_in_cs = AtomicU64::new(0);
    let intrusions = AtomicU64::new(0);
    let entries: Mutex<Vec<EntrySample>> = Mutex::new(Vec::new());

    let mut crashed = Vec::new();
    let mut completed = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.n)
            .map(|i| {
                let (in_cs, max_in_cs, intrusions, entries) =
                    (&in_cs, &max_in_cs, &intrusions, &entries);
                s.spawn(move || {
                    chaos::run_as(ProcId(i), || {
                        with_pid(ProcId(i), || {
                            for _ in 0..cfg.iterations {
                                chaos::point(points::WORKLOAD_NCS);
                                hold(cfg.ncs_hold);
                                let t0 = Instant::now();
                                lock.lock(ProcId(i));
                                let entered_at = Instant::now();
                                let now_inside = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                                if now_inside > 1 {
                                    intrusions.fetch_add(1, Ordering::SeqCst);
                                }
                                max_in_cs.fetch_max(now_inside, Ordering::SeqCst);
                                entries.lock().unwrap_or_else(|e| e.into_inner()).push(
                                    EntrySample {
                                        pid: ProcId(i),
                                        entered_at,
                                        latency: entered_at - t0,
                                    },
                                );
                                hold(cfg.cs_hold);
                                in_cs.fetch_sub(1, Ordering::SeqCst);
                                lock.unlock(ProcId(i));
                            }
                        })
                    })
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            match h
                .join()
                .expect("worker panicked outside the crash protocol")
            {
                chaos::ThreadOutcome::Completed(()) => completed.push(ProcId(i)),
                chaos::ThreadOutcome::Crashed => crashed.push(ProcId(i)),
                chaos::ThreadOutcome::CrashedRecoverable(_) => {
                    unreachable!("crash-recover faults are rejected above")
                }
            }
        }
    });

    let fired = session.injector().fired();
    let last_fault_at = session.injector().last_fired_at();
    MutexChaosReport {
        max_in_cs: max_in_cs.load(Ordering::SeqCst),
        intrusions: intrusions.load(Ordering::SeqCst),
        crashed,
        completed,
        entries: entries.into_inner().unwrap_or_else(|e| e.into_inner()),
        fired,
        last_fault_at,
    }
}

/// Everything a consensus chaos run observed.
#[derive(Debug)]
pub struct ConsensusChaosReport {
    /// `(pid, decided value)` for every proposer that completed.
    pub decisions: Vec<(ProcId, bool)>,
    /// Proposers crash-stopped by the schedule.
    pub crashed: Vec<ProcId>,
    /// The object's final decision register, if set.
    pub final_decision: Option<bool>,
    /// All completed proposers returned the same value, and it matches
    /// the decision register.
    pub agreement: bool,
    /// The decided value (if any) was somebody's input.
    pub validity: bool,
    /// Faults that actually fired.
    pub fired: Vec<FiredFault>,
}

/// Runs Algorithm 1 natively: one proposer thread per input, under
/// `faults`. Algorithm 1 is wait-free, so — unlike the mutex nemesis —
/// crash-stops are legal at *any* point, including between observing
/// `x[r, v̄] = 0` and writing `decide`.
///
/// With `Some(tracer)`, the consensus object is built with a trace on it
/// and a [`ChaosTraceObserver`] turns injection-point traffic and fired
/// faults into events on the same timeline (proposers always register
/// with `tfr_telemetry::with_pid`: Algorithm 1's `propose` carries no
/// process id).
///
/// # Example
///
/// Crash one of three proposers mid-round: the survivors still agree on
/// somebody's input, and the report names the casualty.
///
/// ```
/// use std::time::Duration;
/// use tfr_chaos::run_consensus_chaos;
/// use tfr_registers::chaos::{points, Fault, FaultAction};
/// use tfr_registers::ProcId;
///
/// let faults = [Fault {
///     pid: ProcId(2),
///     point: points::CONSENSUS_ROUND,
///     nth: 1,
///     action: FaultAction::Crash,
/// }];
/// let inputs = [true, false, true];
/// let report = run_consensus_chaos(Duration::from_micros(50), &inputs, &faults, None);
/// assert!(report.agreement && report.validity);
/// assert_eq!(report.crashed, vec![ProcId(2)]);
/// assert_eq!(report.decisions.len(), 2, "the two survivors return");
/// ```
pub fn run_consensus_chaos(
    delta: Duration,
    inputs: &[bool],
    faults: &[Fault],
    tracer: Option<&Arc<Tracer>>,
) -> ConsensusChaosReport {
    assert!(!inputs.is_empty(), "at least one proposer is required");
    let session = ChaosSession::install(faults);
    let _observer =
        tracer.map(|t| install_point_observer(Arc::new(ChaosTraceObserver::new(Arc::clone(t)))));
    let mut cons = NativeConsensus::new(delta);
    if let Some(t) = tracer {
        cons = cons.with_trace(Trace::attached(Arc::clone(t)));
    }

    let mut decisions = Vec::new();
    let mut crashed = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, &input)| {
                let cons = &cons;
                s.spawn(move || {
                    chaos::run_as(ProcId(i), move || {
                        with_pid(ProcId(i), || cons.propose(input))
                    })
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            match h
                .join()
                .expect("proposer panicked outside the crash protocol")
            {
                chaos::ThreadOutcome::Completed(v) => decisions.push((ProcId(i), v)),
                // A consensus proposer that crashes — recoverably or not —
                // never rejoins this workload; both count as crashed.
                chaos::ThreadOutcome::Crashed | chaos::ThreadOutcome::CrashedRecoverable(_) => {
                    crashed.push(ProcId(i))
                }
            }
        }
    });

    let final_decision = cons.decision();
    let agreement = match final_decision {
        Some(d) => decisions.iter().all(|&(_, v)| v == d),
        // No register decision: only acceptable when nobody returned.
        None => decisions.is_empty(),
    };
    let validity = match final_decision.or_else(|| decisions.first().map(|&(_, v)| v)) {
        Some(v) => inputs.contains(&v),
        None => true, // nothing decided, nothing to invalidate
    };
    ConsensusChaosReport {
        decisions,
        crashed,
        final_decision,
        agreement,
        validity,
        fired: session.injector().fired(),
    }
}

/// A complete, self-contained Fischer-violation experiment: the fault
/// schedule, the workload shape, and the Δ estimate, all derived from one
/// seed.
#[derive(Debug, Clone)]
pub struct ViolationSetup {
    /// The seed everything below was derived from.
    pub seed: u64,
    /// The `delay(Δ)` estimate handed to the lock under test.
    pub delta: Duration,
    /// The fault schedule.
    pub faults: Vec<Fault>,
    /// The workload shape.
    pub config: MutexChaosConfig,
}

/// Derives the §2 violation experiment from a seed (deterministically:
/// equal seeds, equal experiments).
///
/// The schedule stalls a victim thread inside Fischer's read→write window
/// — after `await x = 0` observed 0, before `x := i` — for much longer
/// than Δ, while an ordering stall on the *other* thread guarantees the
/// victim reaches the window first. The other thread then runs the clean
/// protocol, enters, and is still inside (the critical-section dwell
/// covers the stall) when the victim wakes, writes its stale token,
/// delays Δ, reads its own token back and walks in: two threads in the
/// critical section.
///
/// # Example
///
/// ```
/// use tfr_chaos::nemesis::violation_setup_from_seed;
///
/// let setup = violation_setup_from_seed(7);
/// assert_eq!(setup.faults, violation_setup_from_seed(7).faults, "pure in the seed");
/// assert_eq!(setup.config.n, 2);
/// // The victim's in-window stall dwarfs the Δ estimate — a real timing
/// // failure, not a borderline one.
/// let longest = setup
///     .faults
///     .iter()
///     .map(|f| match f.action {
///         tfr_registers::chaos::FaultAction::Stall(d) => d,
///         _ => unreachable!(),
///     })
///     .max()
///     .unwrap();
/// assert!(longest > 10 * setup.delta);
/// ```
pub fn violation_setup_from_seed(seed: u64) -> ViolationSetup {
    let mut rng = SplitMix64::new(seed);
    let delta_us = rng.random_range(200..=800);
    let victim = rng.index(2);
    let other = 1 - victim;
    // The victim must be parked in the window before the other thread
    // starts: hold the other back across thread-spawn jitter.
    let order_us = 20_000 + rng.random_range(0..=10_000);
    // The victim's stall: well past the other's entry (order + Δ + ε).
    let stall_us = order_us + 10 * delta_us + rng.random_range(10_000..=30_000);
    // The other thread must still be inside when the victim enters at
    // ≈ stall + Δ; it entered at ≈ order + Δ.
    let cs_hold_us = (stall_us - order_us) + 20_000;
    ViolationSetup {
        seed,
        delta: Duration::from_micros(delta_us),
        faults: vec![
            Fault {
                pid: ProcId(other),
                point: points::WORKLOAD_NCS,
                nth: 1,
                action: FaultAction::Stall(Duration::from_micros(order_us)),
            },
            Fault {
                pid: ProcId(victim),
                point: points::FISCHER_WRITE_X,
                nth: 1,
                action: FaultAction::Stall(Duration::from_micros(stall_us)),
            },
        ],
        config: MutexChaosConfig {
            n: 2,
            iterations: 1,
            cs_hold: Duration::from_micros(cs_hold_us),
            ncs_hold: Duration::ZERO,
        },
    }
}

/// Runs the violation experiment for `seed` against a fresh native
/// Fischer lock and reports what happened.
pub fn run_fischer_violation(seed: u64) -> (ViolationSetup, MutexChaosReport) {
    let setup = violation_setup_from_seed(seed);
    let lock = Fischer::new(2, setup.delta);
    let report = run_mutex_chaos(&lock, &setup.config, &setup.faults, None);
    (setup, report)
}

/// Hunts for a seed whose schedule breaks native Fischer, starting at
/// `first_seed` and trying up to `attempts` seeds. Returns the winning
/// seed with its report. The construction makes nearly every seed a
/// winner; the hunt exists so callers can print a *verified* seed.
pub fn hunt_fischer_violation(first_seed: u64, attempts: u64) -> Option<(u64, MutexChaosReport)> {
    for seed in first_seed..first_seed.saturating_add(attempts) {
        let (_, report) = run_fischer_violation(seed);
        if report.mutual_exclusion_violated() {
            return Some((seed, report));
        }
    }
    None
}

/// Runs the same seed-derived schedule against Algorithm 3 (the resilient
/// mutex, with the stall aimed at its identical read→write window) and
/// reports — the companion experiment showing the *same* failure that
/// breaks Fischer leaves Algorithm 3 safe.
pub fn run_resilient_under_violation_schedule(seed: u64) -> MutexChaosReport {
    let setup = violation_setup_from_seed(seed);
    // Same windows, but in Algorithm 3 the hazardous write-x window is
    // the RESILIENT_WRITE_X point.
    let faults: Vec<Fault> = setup
        .faults
        .iter()
        .map(|f| Fault {
            point: if f.point == points::FISCHER_WRITE_X {
                points::RESILIENT_WRITE_X
            } else {
                f.point
            },
            ..*f
        })
        .collect();
    let lock = tfr_core::mutex::resilient::ResilientMutex::standard(2, setup.delta);
    run_mutex_chaos(&lock, &setup.config, &faults, None)
}

/// Convenience: a seeded random consensus schedule via
/// [`ScheduleConfig::consensus`].
pub fn random_consensus_schedule(seed: u64, n: usize, delta: Duration) -> Vec<Fault> {
    random_schedule(seed, &ScheduleConfig::consensus(n, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_core::mutex::resilient::ResilientMutex;

    #[test]
    fn fault_free_baseline_is_clean() {
        let lock = ResilientMutex::standard(3, Duration::from_micros(100));
        let report = run_mutex_chaos(&lock, &MutexChaosConfig::new(3), &[], None);
        assert!(!report.mutual_exclusion_violated());
        assert_eq!(report.max_in_cs, 1);
        assert_eq!(report.completed.len(), 3);
        assert!(report.crashed.is_empty());
        assert_eq!(report.entries.len(), 3 * 20);
        assert!(report.fired.is_empty() && report.last_fault_at.is_none());
    }

    #[test]
    fn violation_setup_is_deterministic() {
        let a = violation_setup_from_seed(99);
        let b = violation_setup_from_seed(99);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.config.cs_hold, b.config.cs_hold);
        assert_ne!(violation_setup_from_seed(100).faults, a.faults);
    }

    #[test]
    #[should_panic(expected = "crash-stop at workload.ncs")]
    fn crash_inside_the_lock_is_rejected() {
        let lock = ResilientMutex::standard(2, Duration::from_micros(100));
        let faults = [Fault {
            pid: ProcId(0),
            point: points::RESILIENT_INNER,
            nth: 1,
            action: FaultAction::Crash,
        }];
        let _ = run_mutex_chaos(&lock, &MutexChaosConfig::new(2), &faults, None);
    }

    #[test]
    fn consensus_solo_under_no_faults() {
        let report = run_consensus_chaos(Duration::from_micros(50), &[true], &[], None);
        assert_eq!(report.final_decision, Some(true));
        assert!(report.agreement && report.validity);
        assert!(report.crashed.is_empty());
    }

    #[test]
    fn traced_mutex_run_records_faults_and_lock_events() {
        use tfr_telemetry::EventKind;
        let tracer = Arc::new(Tracer::new(2));
        let delta = Duration::from_micros(100);
        let lock =
            ResilientMutex::standard(2, delta).with_trace(Trace::attached(Arc::clone(&tracer)));
        let faults = [Fault {
            pid: ProcId(0),
            point: points::RESILIENT_WRITE_X,
            nth: 1,
            action: FaultAction::Stall(delta * 10),
        }];
        let mut cfg = MutexChaosConfig::new(2);
        cfg.iterations = 3;
        let report = run_mutex_chaos(&lock, &cfg, &faults, Some(&tracer));
        assert!(!report.mutual_exclusion_violated());
        let events = tracer.events();
        let fired: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultFired { .. }))
            .collect();
        assert_eq!(fired.len(), 1, "the scheduled stall appears in the trace");
        assert_eq!(fired[0].pid, ProcId(0));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::LockAcquired { .. }))
                .count(),
            2 * 3,
            "every acquisition is a traced event"
        );
        assert!(
            events.iter().any(
                |e| matches!(e.kind, EventKind::PointHit { point } if point == points::WORKLOAD_NCS)
            ),
            "injection points double as trace points"
        );
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn traced_consensus_run_records_rounds_and_decision() {
        use tfr_telemetry::EventKind;
        let tracer = Arc::new(Tracer::new(3));
        let report = run_consensus_chaos(
            Duration::from_micros(50),
            &[true, false, true],
            &[],
            Some(&tracer),
        );
        assert!(report.agreement && report.validity);
        let events = tracer.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RoundStart { .. })));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Decided { .. }))
                .count(),
            3,
            "every completing proposer traces its decision"
        );
    }
}
