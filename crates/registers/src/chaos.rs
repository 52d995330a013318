//! Native fault injection: timing failures and crash-stops on real threads.
//!
//! The simulator can script any adversarial schedule, but the paper's
//! headline claims are about *real* executions: Fischer's lock loses mutual
//! exclusion when a store to `x` outlasts Δ (§2), while Algorithm 1 and
//! Algorithm 3 keep their safety under the same failures (§2, §3). This
//! module makes those failures injectable into the native
//! (`std::sync::atomic` + real threads) stack:
//!
//! * **Injection points** — named places in the native protocol code
//!   ([`points`]) where a registered thread consults the active
//!   [`FaultInjector`]. When chaos is off (the common case) a point is a
//!   single relaxed atomic load.
//! * **Stalls** — [`FaultAction::Stall`] freezes the thread at the point
//!   for a chosen duration, simulating preemption or a page fault: exactly
//!   the "timing failure" of §1.3. Stalling a thread at
//!   [`points::FISCHER_WRITE_X`] for longer than Δ reproduces the paper's
//!   mutual exclusion violation on real hardware.
//! * **Crash-stops** — [`FaultAction::Crash`] stops the thread mid-protocol
//!   by unwinding with a private [`CrashToken`] payload that
//!   [`run_as`] catches. The thread performs *no further shared-memory
//!   operations*; whatever it already wrote stays (the paper's crash
//!   model). No locks are poisoned: all protocol state is atomics, and
//!   points are never hit while an internal lock is held. A crash-stopped
//!   pid is marked **dead** in the injector: no further faults are ever
//!   scheduled onto it, even if a thread re-registers under its id.
//! * **Crash-recoveries** — [`FaultAction::CrashRecover`] is the
//!   recoverable-mutual-exclusion failure: the same mid-protocol unwind,
//!   but [`run_as`] reports [`ThreadOutcome::CrashedRecoverable`] with a
//!   down time, and the caller (the recovery nemesis) may re-enter
//!   `run_as` under the same pid as a new *incarnation*. Visit counters
//!   reset per incarnation, so every fault is **one-shot**: it fires at
//!   most once per session, which keeps a recovered incarnation from
//!   tripping over its predecessor's fault and crash-looping.
//! * **Determinism** — a fault fires at the *n-th* visit of a given point
//!   by a given process, not at a wall-clock time, so a schedule replays
//!   identically regardless of machine speed.
//!
//! Faults are described by [`Fault`] records and installed for the
//! duration of a [`ChaosSession`]. Sessions are process-global and
//! serialized (tests in one binary cannot interfere); threads opt in with
//! [`run_as`], so unrelated threads in the same process are never affected.
//!
//! The `tfr-chaos` crate builds the nemesis on top: seeded random
//! schedules, invariant-checked workloads, shrinking, and native
//! resilience reports.

use crate::ProcId;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// The vocabulary of injection points threaded through the native stack.
///
/// Names are dotted `layer.step` identifiers. The list is the contract
/// between the protocol code (which hits the points) and the nemesis
/// (which aims faults at them); [`points::ALL`] enumerates them for
/// random schedule generation.
pub mod points {
    /// `UnboundedAtomicArray::load`, before the read.
    pub const ARRAY_LOAD: &str = "array.load";
    /// `UnboundedAtomicArray::store`, before the write.
    pub const ARRAY_STORE: &str = "array.store";
    /// `precise_delay`, before the wait begins (a stall here models a
    /// preemption that makes the delay overshoot — harmless by §1.2).
    pub const DELAY: &str = "delay.pre";
    /// Fischer's read→write window: after `await x = 0` observed 0, before
    /// `x := i`. A stall here longer than Δ breaks mutual exclusion — the
    /// paper's §2 violation.
    pub const FISCHER_WRITE_X: &str = "fischer.write-x";
    /// Fischer, before the `until x = i` check read.
    pub const FISCHER_CHECK_X: &str = "fischer.check-x";
    /// Fischer's exit, before `x := 0`.
    pub const FISCHER_EXIT: &str = "fischer.exit";
    /// Algorithm 3's Fischer-stage read→write window (same hazard window
    /// as [`FISCHER_WRITE_X`], but wrapped by the asynchronous inner lock).
    pub const RESILIENT_WRITE_X: &str = "resilient.write-x";
    /// Algorithm 3, after winning the Fischer stage, before entering the
    /// inner lock `A`.
    pub const RESILIENT_INNER: &str = "resilient.inner-entry";
    /// Algorithm 3's exit, before the line-8 conditional reset of `x`.
    pub const RESILIENT_EXIT: &str = "resilient.exit";
    /// Algorithm 1, top of the round loop (before reading `decide`).
    pub const CONSENSUS_ROUND: &str = "consensus.round";
    /// Algorithm 1, after seeing `x[r, v̄] = 0`, before `decide := v`.
    pub const CONSENSUS_DECIDE: &str = "consensus.write-decide";
    /// `AdaptiveDelta::on_contended` — the estimate-doubling feedback path.
    pub const ADAPTIVE_CONTENDED: &str = "adaptive.on-contended";
    /// `AdaptiveDelta::on_uncontended` — the streak/decrease feedback path.
    pub const ADAPTIVE_UNCONTENDED: &str = "adaptive.on-uncontended";
    /// Nemesis workload, between iterations (the thread holds nothing) —
    /// the safe place to crash-stop a mutex workload thread.
    pub const WORKLOAD_NCS: &str = "workload.ncs";
    /// Nemesis workload, inside the critical section — where a
    /// crash-*recover* fault orphans the CS that the recovery section
    /// must repair.
    pub const WORKLOAD_CS: &str = "workload.cs";
    /// Recoverable lock: after the per-process state register says
    /// ACQUIRING, before the inner lock is entered. A crash here is
    /// abandoned by recovery (no CS was reached).
    pub const RECOVERABLE_ACQUIRE: &str = "recoverable.acquire";
    /// Recoverable lock: after the state register says IN_CS and the
    /// owner register is stamped — the inner lock is held. A crash here
    /// orphans the critical section; recovery must release it.
    pub const RECOVERABLE_CS: &str = "recoverable.in-cs";
    /// Recoverable lock: after the state register says RELEASING, before
    /// the owner reset and inner unlock. Recovery finishes the release.
    pub const RECOVERABLE_RELEASE: &str = "recoverable.release";
    /// Recoverable lock: inside the recovery section itself (the section
    /// is idempotent, so a crash here simply re-runs it).
    pub const RECOVERY_SECTION: &str = "recoverable.recovery-section";
    /// Universal construction: at the start of an announce burst, before
    /// any payload or counter register is written. A crash-recovery here
    /// leaves the whole burst unannounced, so a new incarnation may
    /// safely re-announce it.
    pub const UNIVERSAL_ANNOUNCE: &str = "universal.announce";
    /// Universal construction: in the combiner, before a batch record is
    /// published and proposed for the current slot. A crash-recovery here
    /// proves the recovering process never proposed at any undecided
    /// slot, so a new incarnation may safely rejoin and propose.
    pub const UNIVERSAL_COMBINE: &str = "universal.combine";
    /// Replicated log: in a proposer, before its batch is published and
    /// proposed at the current height. A crash-recovery here leaves the
    /// height either undecided or won by someone else; the published
    /// arena is only ever read after a decision names it, so a new
    /// incarnation may safely republish and re-propose.
    pub const LOG_PROPOSE: &str = "log.propose-batch";
    /// Replicated log: in an applier, before the committed entry at the
    /// next height is applied to the local state machine. Application is
    /// a pure register read plus a deterministic replay, so a new
    /// incarnation rebuilds the exact same prefix from the registers.
    pub const LOG_APPLY: &str = "log.apply-entry";

    /// Every injection point, for schedule generators.
    pub const ALL: &[&str] = &[
        ARRAY_LOAD,
        ARRAY_STORE,
        DELAY,
        FISCHER_WRITE_X,
        FISCHER_CHECK_X,
        FISCHER_EXIT,
        RESILIENT_WRITE_X,
        RESILIENT_INNER,
        RESILIENT_EXIT,
        CONSENSUS_ROUND,
        CONSENSUS_DECIDE,
        ADAPTIVE_CONTENDED,
        ADAPTIVE_UNCONTENDED,
        WORKLOAD_NCS,
        WORKLOAD_CS,
        RECOVERABLE_ACQUIRE,
        RECOVERABLE_CS,
        RECOVERABLE_RELEASE,
        RECOVERY_SECTION,
        UNIVERSAL_ANNOUNCE,
        UNIVERSAL_COMBINE,
        LOG_PROPOSE,
        LOG_APPLY,
    ];
}

/// What happens to the thread that trips a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Freeze the thread for this long (a timing failure: models
    /// preemption, a page fault, GC, SMI, ...).
    Stall(Duration),
    /// Crash-stop the thread: it performs no further shared-memory
    /// operations. Implemented as an unwind caught by [`run_as`].
    Crash,
    /// Crash the thread, to be *recovered* after the given down time: the
    /// same unwind as [`FaultAction::Crash`], but [`run_as`] reports
    /// [`ThreadOutcome::CrashedRecoverable`] so the nemesis can restart
    /// the process as a new incarnation.
    CrashRecover(Duration),
}

/// One scheduled fault: `pid`'s `nth` visit (1-based) to `point` triggers
/// `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The victim process.
    pub pid: ProcId,
    /// The injection point name (see [`points`]).
    pub point: &'static str,
    /// Fires on the n-th visit of `point` by `pid` (1-based).
    pub nth: u64,
    /// What happens.
    pub action: FaultAction,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.action {
            FaultAction::Stall(d) => {
                write!(
                    f,
                    "{} stalls {:?} at {}#{}",
                    self.pid, d, self.point, self.nth
                )
            }
            FaultAction::Crash => {
                write!(f, "{} crashes at {}#{}", self.pid, self.point, self.nth)
            }
            FaultAction::CrashRecover(d) => {
                write!(
                    f,
                    "{} crashes (recovers after {:?}) at {}#{}",
                    self.pid, d, self.point, self.nth
                )
            }
        }
    }
}

/// A fault that actually fired during a session, with when it did.
#[derive(Debug, Clone, Copy)]
pub struct FiredFault {
    /// The scheduled fault.
    pub fault: Fault,
    /// When it fired. For a stall, the instant the stall *ended* — the
    /// moment from which "failures have stopped" convergence clocks run.
    pub at: Instant,
}

/// The process-global fault plan: routes each (pid, point, visit-count)
/// triple to an action and records what fired.
///
/// Faults are **one-shot** (each fires at most once per session — visit
/// counters reset per incarnation, so a recovered process would
/// otherwise re-trip its own crash) and **dead pids are deregistered**
/// (a crash-stopped pid attracts no further faults, even if a thread
/// re-registers under its id).
#[derive(Debug)]
pub struct FaultInjector {
    plan: HashMap<(usize, &'static str), Vec<(u64, FaultAction)>>,
    fired: Mutex<Vec<FiredFault>>,
    consumed: Mutex<HashSet<(usize, &'static str, u64)>>,
    dead: Mutex<HashSet<usize>>,
}

impl FaultInjector {
    fn new(faults: &[Fault]) -> FaultInjector {
        let mut plan: HashMap<(usize, &'static str), Vec<(u64, FaultAction)>> = HashMap::new();
        for f in faults {
            plan.entry((f.pid.0, f.point))
                .or_default()
                .push((f.nth, f.action));
        }
        FaultInjector {
            plan,
            fired: Mutex::new(Vec::new()),
            consumed: Mutex::new(HashSet::new()),
            dead: Mutex::new(HashSet::new()),
        }
    }

    /// Looks up — and consumes — the fault for this visit. Dead pids and
    /// already-fired faults get `None`.
    fn action_for(&self, pid: usize, point: &'static str, visit: u64) -> Option<FaultAction> {
        if self.is_dead(ProcId(pid)) {
            return None;
        }
        let action = self
            .plan
            .get(&(pid, point))?
            .iter()
            .find(|(nth, _)| *nth == visit)
            .map(|(_, action)| *action)?;
        let fresh = self
            .consumed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((pid, point, visit));
        fresh.then_some(action)
    }

    /// Marks `pid` dead: no further faults will be scheduled onto it.
    /// [`run_as`] calls this when a [`FaultAction::Crash`] stops the
    /// thread for good (crash-*recoveries* do not kill the pid).
    pub fn mark_dead(&self, pid: ProcId) {
        self.dead
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(pid.0);
    }

    /// Whether `pid` has been crash-stopped this session.
    pub fn is_dead(&self, pid: ProcId) -> bool {
        self.dead
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(&pid.0)
    }

    fn record(&self, fault: Fault) {
        self.fired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(FiredFault {
                fault,
                at: Instant::now(),
            });
    }

    /// Every fault that fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The instant the last fault finished firing, if any fired — the
    /// "failures stop" reference point for convergence measurements.
    pub fn last_fired_at(&self) -> Option<Instant> {
        self.fired().last().map(|f| f.at)
    }
}

// --------------------------------------------------------------------
// Global session state
// --------------------------------------------------------------------

/// Fast-path gate: points return immediately while this is zero. Bit 0 is
/// set while a [`ChaosSession`] is installed; bit 1 while a
/// [`PointObserver`] is installed. Keeping both consumers behind one byte
/// keeps the disarmed cost of [`point`] at a single relaxed load.
static FLAGS: AtomicU8 = AtomicU8::new(0);

const FLAG_CHAOS: u8 = 1 << 0;
const FLAG_OBSERVER: u8 = 1 << 1;

fn active_cell() -> &'static RwLock<Option<Arc<FaultInjector>>> {
    static ACTIVE: OnceLock<RwLock<Option<Arc<FaultInjector>>>> = OnceLock::new();
    ACTIVE.get_or_init(|| RwLock::new(None))
}

fn observer_cell() -> &'static RwLock<Option<Arc<dyn PointObserver>>> {
    static OBSERVER: OnceLock<RwLock<Option<Arc<dyn PointObserver>>>> = OnceLock::new();
    OBSERVER.get_or_init(|| RwLock::new(None))
}

fn session_mutex() -> &'static Mutex<()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

thread_local! {
    static THREAD_CTX: RefCell<Option<Arc<IncarnationCtx>>> = const { RefCell::new(None) };
}

/// One [`run_as`] incarnation, shared by the thread that entered it and
/// any helper threads it lends it to (see [`Incarnation`]).
struct IncarnationCtx {
    pid: usize,
    state: Mutex<IncarnationState>,
}

struct IncarnationState {
    /// Visits per point, counted over every thread of the incarnation.
    visits: HashMap<&'static str, u64>,
    /// Set when a crash fired on one of the incarnation's threads: the
    /// crash token's down time, which every other thread re-raises at its
    /// next point.
    stopped: Option<Option<Duration>>,
}

impl IncarnationCtx {
    fn new(pid: ProcId) -> IncarnationCtx {
        IncarnationCtx {
            pid: pid.0,
            state: Mutex::new(IncarnationState {
                visits: HashMap::new(),
                stopped: None,
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, IncarnationState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An installed fault plan; dropping it disarms every point.
///
/// Sessions are serialized process-wide: `install` blocks until any other
/// session (e.g. a concurrently running chaos test) has been dropped.
/// Every nemesis run — including fault-free baseline runs — should hold a
/// session so that its registered threads can never observe another run's
/// plan.
#[must_use = "the session disarms when dropped"]
pub struct ChaosSession {
    injector: Arc<FaultInjector>,
    _serialize: MutexGuard<'static, ()>,
}

impl ChaosSession {
    /// Installs `faults` as the process-global plan and arms the points.
    pub fn install(faults: &[Fault]) -> ChaosSession {
        silence_crash_unwinds();
        let guard = session_mutex().lock().unwrap_or_else(|e| e.into_inner());
        let injector = Arc::new(FaultInjector::new(faults));
        *active_cell().write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&injector));
        FLAGS.fetch_or(FLAG_CHAOS, Ordering::SeqCst);
        ChaosSession {
            injector,
            _serialize: guard,
        }
    }

    /// The live injector, for firing statistics.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }
}

impl Drop for ChaosSession {
    fn drop(&mut self) {
        FLAGS.fetch_and(!FLAG_CHAOS, Ordering::SeqCst);
        *active_cell().write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// A passive listener on the injection-point stream.
///
/// Observers see every point visit by [`run_as`]-registered threads and
/// every fault that fires, *on the visiting thread itself*. A process
/// whose incarnation lends itself to helper threads ([`Incarnation`])
/// makes its callbacks from several threads, but one at a time, under
/// the incarnation's lock — so a per-process single-writer recorder (like
/// `tfr-telemetry`'s tracer) can consume the callbacks without extra
/// synchronization. Unregistered threads never reach an observer.
///
/// Callbacks run inside protocol hot paths; implementations should be
/// wait-free and must not themselves hit injection points.
pub trait PointObserver: Send + Sync {
    /// A registered thread reached `point` (fires whether or not a fault
    /// is scheduled there).
    fn point_hit(&self, pid: ProcId, point: &'static str);

    /// A fault fired at `point`. For stalls, the callback runs after the
    /// stall completes and `stalled` is its duration; for crash-stops it
    /// runs just before the unwind with `crashed = true`.
    fn fault_fired(&self, pid: ProcId, point: &'static str, stalled: Duration, crashed: bool);

    /// A [`FaultAction::CrashRecover`] fault fired at `point`; the
    /// process will be down for `down_for` before its next incarnation
    /// starts. Runs just before the unwind. The default forwards to
    /// [`PointObserver::fault_fired`] as a crash, so observers that do
    /// not distinguish recovery keep working.
    fn crash_recover_fired(&self, pid: ProcId, point: &'static str, down_for: Duration) {
        self.fault_fired(pid, point, down_for, true);
    }
}

/// Keeps a [`PointObserver`] installed; dropping it disarms the callbacks.
#[must_use = "the observer disarms when dropped"]
pub struct ObserverGuard {
    _private: (),
}

impl Drop for ObserverGuard {
    fn drop(&mut self) {
        FLAGS.fetch_and(!FLAG_OBSERVER, Ordering::SeqCst);
        *observer_cell().write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Installs `observer` as the process-global point listener. At most one
/// observer is active at a time; installing replaces the current one.
/// Observers work with or without a [`ChaosSession`], but callers that
/// want exclusivity should hold a session (sessions are serialized).
pub fn install_point_observer(observer: Arc<dyn PointObserver>) -> ObserverGuard {
    *observer_cell().write().unwrap_or_else(|e| e.into_inner()) = Some(observer);
    FLAGS.fetch_or(FLAG_OBSERVER, Ordering::SeqCst);
    ObserverGuard { _private: () }
}

fn current_observer() -> Option<Arc<dyn PointObserver>> {
    if FLAGS.load(Ordering::Relaxed) & FLAG_OBSERVER == 0 {
        return None;
    }
    observer_cell()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// The unwind payload of a crash. Private to the mechanism: it only
/// exists between the point that fires the crash and the [`run_as`] frame
/// that absorbs it. `down_for` distinguishes a permanent crash-stop
/// (`None`) from a crash-recovery (`Some(down time)`).
pub struct CrashToken {
    down_for: Option<Duration>,
}

/// Suppress the default "thread panicked" noise for crash-stop unwinds
/// while keeping it for genuine panics (e.g. failing assertions).
fn silence_crash_unwinds() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashToken>().is_none() {
                previous(info);
            }
        }));
    });
}

/// How a [`run_as`] thread ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadOutcome<T> {
    /// The closure ran to completion.
    Completed(T),
    /// The thread was crash-stopped by a [`FaultAction::Crash`] fault;
    /// this pid is dead for the rest of the session.
    Crashed,
    /// The thread was crashed by a [`FaultAction::CrashRecover`] fault;
    /// after the given down time the caller may restart it as a new
    /// incarnation with another [`run_as`].
    CrashedRecoverable(Duration),
}

impl<T> ThreadOutcome<T> {
    /// `true` if the thread was crashed (recoverably or not).
    pub fn crashed(&self) -> bool {
        !matches!(self, ThreadOutcome::Completed(_))
    }

    /// The down time, if the thread crashed recoverably.
    pub fn recoverable_after(&self) -> Option<Duration> {
        match self {
            ThreadOutcome::CrashedRecoverable(d) => Some(*d),
            _ => None,
        }
    }

    /// The completion value, if the thread completed.
    pub fn completed(self) -> Option<T> {
        match self {
            ThreadOutcome::Completed(v) => Some(v),
            ThreadOutcome::Crashed | ThreadOutcome::CrashedRecoverable(_) => None,
        }
    }
}

/// Runs `f` as process `pid` under the chaos regime: injection points hit
/// by this thread consult the active session's plan, and a
/// [`FaultAction::Crash`] / [`FaultAction::CrashRecover`] fault stops `f`
/// right there.
///
/// Each call is one *incarnation* of `pid`: visit counters start from
/// zero, and helper threads may join it ([`Incarnation`]). A permanent
/// crash marks the pid dead in the injector; a recoverable crash leaves
/// it alive so the caller can re-enter `run_as` after the reported down
/// time.
///
/// Genuine panics (assertion failures, bugs) propagate unchanged.
pub fn run_as<T>(pid: ProcId, f: impl FnOnce() -> T) -> ThreadOutcome<T> {
    let result = Incarnation(Some(Arc::new(IncarnationCtx::new(pid))))
        .enter(|| panic::catch_unwind(AssertUnwindSafe(f)));
    match result {
        Ok(v) => ThreadOutcome::Completed(v),
        Err(payload) => match payload.downcast::<CrashToken>() {
            Ok(token) => match token.down_for {
                Some(down) => ThreadOutcome::CrashedRecoverable(down),
                None => {
                    if let Some(injector) = active_cell()
                        .read()
                        .unwrap_or_else(|e| e.into_inner())
                        .clone()
                    {
                        injector.mark_dead(pid);
                    }
                    ThreadOutcome::Crashed
                }
            },
            Err(payload) => panic::resume_unwind(payload),
        },
    }
}

/// A handle on the calling thread's [`run_as`] incarnation, for helper
/// threads that do part of its work.
///
/// A process may drive independent work (the service's disjoint shards)
/// from several threads at once. Those threads are still one process:
/// [`Incarnation::enter`] makes a helper thread's injection points count
/// towards the incarnation's visits, so a fault aimed at the pid fires on
/// whichever of its threads makes the n-th visit. A crash fired on any
/// thread stops every thread of the incarnation at its next injection
/// point, with the same token, and the thread that owns the incarnation
/// re-raises it with [`rejoin`] once it has joined its helpers. Point
/// observers see one incarnation's callbacks one at a time, whichever
/// thread makes them.
///
/// Outside `run_as` the handle is empty, and entering it changes
/// nothing.
///
/// # Example
///
/// ```
/// use tfr_registers::chaos::{self, points, Incarnation, ThreadOutcome};
/// use tfr_registers::ProcId;
///
/// let out = chaos::run_as(ProcId(0), || {
///     let inc = Incarnation::current();
///     std::thread::scope(|s| {
///         let helper = s.spawn(|| inc.enter(|| chaos::point(points::UNIVERSAL_COMBINE)));
///         let own = std::panic::catch_unwind(|| chaos::point(points::UNIVERSAL_COMBINE));
///         chaos::rejoin([own, helper.join()]);
///     });
///     7
/// });
/// assert_eq!(out, ThreadOutcome::Completed(7));
/// ```
pub struct Incarnation(Option<Arc<IncarnationCtx>>);

impl Incarnation {
    /// The calling thread's incarnation, or an empty handle outside
    /// [`run_as`].
    pub fn current() -> Incarnation {
        Incarnation(THREAD_CTX.with(|ctx| ctx.borrow().clone()))
    }

    /// Runs `f` on the calling thread as a thread of this incarnation. A
    /// crash unwinds out of `f` with the incarnation's crash token; the
    /// thread that joins this one passes the result to [`rejoin`]. An
    /// empty handle runs `f` as it is.
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        let Some(inc) = &self.0 else { return f() };
        /// Leaves the incarnation on every exit, unwinding included.
        struct Leave(Option<Arc<IncarnationCtx>>);
        impl Drop for Leave {
            fn drop(&mut self) {
                let prev = self.0.take();
                THREAD_CTX.with(|ctx| *ctx.borrow_mut() = prev);
            }
        }
        let prev = THREAD_CTX.with(|ctx| ctx.borrow_mut().replace(Arc::clone(inc)));
        let _leave = Leave(prev);
        f()
    }
}

/// Ends a fork of one incarnation: `results` are the outcome of the
/// owning thread's own part (caught with `catch_unwind`) and the joined
/// results of its helpers. Returns if every part completed. Otherwise it
/// resumes the most serious unwind once every result is in: a genuine
/// panic with its own payload before a crash token, so that a bug on a
/// helper thread is never reported as a crash, and a crash token for the
/// enclosing [`run_as`] to report.
pub fn rejoin(results: impl IntoIterator<Item = std::thread::Result<()>>) {
    let mut crash = None;
    let mut genuine = None;
    for result in results {
        if let Err(payload) = result {
            if payload.is::<CrashToken>() {
                crash.get_or_insert(payload);
            } else {
                genuine.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = genuine.or(crash) {
        panic::resume_unwind(payload);
    }
}

/// An injection point. Protocol code calls this at its named steps; the
/// cost with no active session or observer is one relaxed atomic load.
#[inline]
pub fn point(name: &'static str) {
    if FLAGS.load(Ordering::Relaxed) == 0 {
        return;
    }
    point_armed(name);
}

#[cold]
fn point_armed(name: &'static str) {
    // Only registered threads participate.
    THREAD_CTX.with(|ctx| {
        if let Some(inc) = ctx.borrow().as_deref() {
            visit(inc, name);
        }
    });
}

/// A visit to `name` by a thread of incarnation `inc`.
fn visit(inc: &IncarnationCtx, name: &'static str) {
    let pid = ProcId(inc.pid);
    let observer = current_observer();
    let visit = {
        let mut state = inc.state();
        if let Some(down_for) = state.stopped {
            // Another thread of this incarnation crashed: this one stops
            // here, as part of the same crash.
            drop(state);
            panic::panic_any(CrashToken { down_for });
        }
        let visit = state.visits.entry(name).or_insert(0);
        *visit += 1;
        let visit = *visit;
        // Under the incarnation's lock, so that the observer sees one
        // process's callbacks one at a time.
        if let Some(obs) = &observer {
            obs.point_hit(pid, name);
        }
        visit
    };
    if FLAGS.load(Ordering::Relaxed) & FLAG_CHAOS == 0 {
        return;
    }
    let Some(injector) = active_cell()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
    else {
        return;
    };
    let Some(action) = injector.action_for(pid.0, name, visit) else {
        return;
    };
    let fault = Fault {
        pid,
        point: name,
        nth: visit,
        action,
    };
    if let FaultAction::Stall(d) = action {
        stall_for(d);
        injector.record(fault);
        if let Some(obs) = &observer {
            let _one_at_a_time = inc.state();
            obs.fault_fired(pid, name, d, false);
        }
        return;
    }
    injector.record(fault);
    let down_for = match action {
        FaultAction::CrashRecover(down) => Some(down),
        _ => None,
    };
    {
        let mut state = inc.state();
        state.stopped = Some(down_for);
        if let Some(obs) = &observer {
            match down_for {
                Some(down) => obs.crash_recover_fired(pid, name, down),
                None => obs.fault_fired(pid, name, Duration::ZERO, true),
            }
        }
    }
    panic::panic_any(CrashToken { down_for });
}

/// Freeze the calling thread for at least `d`. Deliberately point-free
/// (it must not recurse into the injector) and deliberately *blocking*:
/// the stalled thread, like a preempted one, makes no progress at all.
fn stall_for(d: Duration) {
    let deadline = Instant::now() + d;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(200) {
            std::thread::sleep(remaining - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn points_are_inert_without_a_session() {
        // No session, not even registered: must be a no-op.
        point(points::ARRAY_LOAD);
        let out = run_as(ProcId(0), || {
            point(points::ARRAY_LOAD);
            7
        });
        assert_eq!(out, ThreadOutcome::Completed(7));
    }

    #[test]
    fn stall_fires_on_the_scheduled_visit_only() {
        let session = ChaosSession::install(&[Fault {
            pid: ProcId(0),
            point: points::DELAY,
            nth: 2,
            action: FaultAction::Stall(Duration::from_millis(20)),
        }]);
        let elapsed = run_as(ProcId(0), || {
            let t0 = Instant::now();
            point(points::DELAY); // visit 1: no fault
            let first = t0.elapsed();
            let t1 = Instant::now();
            point(points::DELAY); // visit 2: 20ms stall
            (first, t1.elapsed())
        })
        .completed()
        .expect("no crash scheduled");
        assert!(
            elapsed.0 < Duration::from_millis(10),
            "visit 1 stalled: {:?}",
            elapsed.0
        );
        assert!(
            elapsed.1 >= Duration::from_millis(20),
            "visit 2 not stalled: {:?}",
            elapsed.1
        );
        assert_eq!(session.injector().fired().len(), 1);
        assert!(session.injector().last_fired_at().is_some());
    }

    #[test]
    fn crash_stops_the_thread_without_poisoning() {
        let counter = AtomicU64::new(0);
        let session = ChaosSession::install(&[Fault {
            pid: ProcId(1),
            point: points::WORKLOAD_NCS,
            nth: 3,
            action: FaultAction::Crash,
        }]);
        let out = run_as(ProcId(1), || {
            for _ in 0..10 {
                point(points::WORKLOAD_NCS);
                counter.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(out.crashed());
        // Two full iterations ran; the third visit crashed before the add.
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        let fired = session.injector().fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].fault.action, FaultAction::Crash);
        drop(session);
        // The mechanism is fully disarmed afterwards.
        let out = run_as(ProcId(1), || {
            point(points::WORKLOAD_NCS);
            1
        });
        assert_eq!(out, ThreadOutcome::Completed(1));
    }

    #[test]
    fn faults_are_per_pid() {
        let _session = ChaosSession::install(&[Fault {
            pid: ProcId(0),
            point: points::ARRAY_STORE,
            nth: 1,
            action: FaultAction::Crash,
        }]);
        // A different pid sails through.
        let out = run_as(ProcId(1), || {
            point(points::ARRAY_STORE);
            42
        });
        assert_eq!(out, ThreadOutcome::Completed(42));
    }

    #[test]
    fn genuine_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_as(ProcId(0), || panic!("real bug"));
        });
        assert!(result.is_err(), "non-crash panics must not be swallowed");
    }

    #[test]
    fn observer_sees_hits_and_faults_until_disarmed() {
        // The observer is process-global and sessions serialize only the
        // tests that install one: a session-less test (such as
        // `points_are_inert_without_a_session`) can run a registered thread
        // through a point while this recorder is installed. So this test
        // registers a pid no other test in the crate uses, and its
        // recorder keeps only that pid.
        const OBSERVED: ProcId = ProcId(9_001);
        struct Rec {
            hits: Mutex<Vec<(usize, &'static str)>>,
            faults: Mutex<Vec<(&'static str, Duration, bool)>>,
        }
        impl PointObserver for Rec {
            fn point_hit(&self, pid: ProcId, point: &'static str) {
                if pid == OBSERVED {
                    self.hits.lock().unwrap().push((pid.0, point));
                }
            }
            fn fault_fired(
                &self,
                pid: ProcId,
                point: &'static str,
                stalled: Duration,
                crashed: bool,
            ) {
                if pid == OBSERVED {
                    self.faults.lock().unwrap().push((point, stalled, crashed));
                }
            }
        }
        let _session = ChaosSession::install(&[Fault {
            pid: OBSERVED,
            point: points::DELAY,
            nth: 2,
            action: FaultAction::Stall(Duration::from_millis(1)),
        }]);
        let rec = Arc::new(Rec {
            hits: Mutex::new(Vec::new()),
            faults: Mutex::new(Vec::new()),
        });
        let guard = install_point_observer(rec.clone());
        // Unregistered threads never reach the observer.
        point(points::DELAY);
        run_as(OBSERVED, || {
            point(points::DELAY);
            point(points::DELAY);
        });
        assert_eq!(
            *rec.hits.lock().unwrap(),
            vec![(OBSERVED.0, points::DELAY), (OBSERVED.0, points::DELAY)]
        );
        let faults = rec.faults.lock().unwrap().clone();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].0, points::DELAY);
        assert_eq!(faults[0].1, Duration::from_millis(1));
        assert!(!faults[0].2);
        drop(guard);
        run_as(OBSERVED, || point(points::DELAY));
        assert_eq!(rec.hits.lock().unwrap().len(), 2, "disarmed after drop");
    }

    #[test]
    fn crash_recover_reports_the_down_time_and_keeps_the_pid_alive() {
        let session = ChaosSession::install(&[Fault {
            pid: ProcId(0),
            point: points::WORKLOAD_CS,
            nth: 2,
            action: FaultAction::CrashRecover(Duration::from_millis(3)),
        }]);
        let done = AtomicU64::new(0);
        let out = run_as(ProcId(0), || {
            for _ in 0..5 {
                point(points::WORKLOAD_CS);
                done.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(
            out.recoverable_after(),
            Some(Duration::from_millis(3)),
            "recoverable crash carries the down time"
        );
        assert!(out.crashed());
        assert_eq!(done.load(Ordering::SeqCst), 1, "crashed on the 2nd visit");
        assert!(
            !session.injector().is_dead(ProcId(0)),
            "a recoverable crash does not kill the pid"
        );
        // The next incarnation restarts with fresh visit counters, and the
        // consumed fault does NOT re-fire even though nth=2 matches again.
        let out = run_as(ProcId(0), || {
            for _ in 0..5 {
                point(points::WORKLOAD_CS);
                done.fetch_add(1, Ordering::SeqCst);
            }
            7
        });
        assert_eq!(out.completed(), Some(7), "faults are one-shot");
        assert_eq!(session.injector().fired().len(), 1);
    }

    #[test]
    fn dead_pids_attract_no_further_faults() {
        // Regression: a crash-stopped process used to keep its injection
        // points registered, so a later fault aimed at the dead pid could
        // still fire if a thread re-registered under that id.
        let session = ChaosSession::install(&[
            Fault {
                pid: ProcId(0),
                point: points::WORKLOAD_NCS,
                nth: 1,
                action: FaultAction::Crash,
            },
            Fault {
                pid: ProcId(0),
                point: points::DELAY,
                nth: 1,
                action: FaultAction::Stall(Duration::from_millis(50)),
            },
        ]);
        let out = run_as(ProcId(0), || point(points::WORKLOAD_NCS));
        assert_eq!(out, ThreadOutcome::Crashed);
        assert!(session.injector().is_dead(ProcId(0)));

        let t0 = Instant::now();
        let out = run_as(ProcId(0), || {
            point(points::DELAY);
            1
        });
        assert_eq!(out, ThreadOutcome::Completed(1));
        assert!(
            t0.elapsed() < Duration::from_millis(25),
            "the stall scheduled on the dead pid must not fire"
        );
        assert_eq!(session.injector().fired().len(), 1, "only the crash fired");
    }

    #[test]
    fn faults_are_one_shot_across_incarnations() {
        let session = ChaosSession::install(&[Fault {
            pid: ProcId(3),
            point: points::DELAY,
            nth: 1,
            action: FaultAction::Stall(Duration::from_millis(30)),
        }]);
        let first = run_as(ProcId(3), || {
            let t0 = Instant::now();
            point(points::DELAY);
            t0.elapsed()
        })
        .completed()
        .unwrap();
        assert!(first >= Duration::from_millis(30), "first visit stalls");
        let second = run_as(ProcId(3), || {
            let t0 = Instant::now();
            point(points::DELAY);
            t0.elapsed()
        })
        .completed()
        .unwrap();
        assert!(
            second < Duration::from_millis(15),
            "the consumed fault must not re-fire on the next incarnation (took {second:?})"
        );
        assert_eq!(session.injector().fired().len(), 1);
    }

    #[test]
    fn observer_distinguishes_crash_recover_by_default_forwarding() {
        struct Rec {
            recovers: Mutex<Vec<(usize, &'static str, Duration)>>,
        }
        impl PointObserver for Rec {
            fn point_hit(&self, _pid: ProcId, _point: &'static str) {}
            fn fault_fired(
                &self,
                _pid: ProcId,
                _point: &'static str,
                _stalled: Duration,
                _crashed: bool,
            ) {
            }
            fn crash_recover_fired(&self, pid: ProcId, point: &'static str, down_for: Duration) {
                self.recovers.lock().unwrap().push((pid.0, point, down_for));
            }
        }
        let _session = ChaosSession::install(&[Fault {
            pid: ProcId(1),
            point: points::RECOVERABLE_CS,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_millis(2)),
        }]);
        let rec = Arc::new(Rec {
            recovers: Mutex::new(Vec::new()),
        });
        let _guard = install_point_observer(rec.clone());
        let out = run_as(ProcId(1), || point(points::RECOVERABLE_CS));
        assert_eq!(out.recoverable_after(), Some(Duration::from_millis(2)));
        assert_eq!(
            *rec.recovers.lock().unwrap(),
            vec![(1, points::RECOVERABLE_CS, Duration::from_millis(2))]
        );
    }

    #[test]
    fn a_helper_thread_counts_its_visits_toward_the_incarnation() {
        let session = ChaosSession::install(&[Fault {
            pid: ProcId(4),
            point: points::UNIVERSAL_COMBINE,
            nth: 2,
            action: FaultAction::Stall(Duration::from_millis(1)),
        }]);
        let out = run_as(ProcId(4), || {
            point(points::UNIVERSAL_COMBINE); // visit 1, on the owner
            let inc = Incarnation::current();
            std::thread::scope(|s| {
                // Visit 2, on the helper: the stall aimed at p4 fires there.
                let helper = s.spawn(|| inc.enter(|| point(points::UNIVERSAL_COMBINE)));
                rejoin([helper.join()]);
            });
            3
        });
        assert_eq!(out, ThreadOutcome::Completed(3));
        let fired = session.injector().fired();
        assert_eq!(fired.len(), 1, "visits are counted per incarnation");
        assert_eq!(fired[0].fault.nth, 2);
    }

    #[test]
    fn a_crash_on_a_helper_stops_the_owner_and_surfaces_from_run_as() {
        let first = ChaosSession::install(&[Fault {
            pid: ProcId(5),
            point: points::UNIVERSAL_COMBINE,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_millis(2)),
        }]);
        let after_crash = AtomicU64::new(0);
        let out = run_as(ProcId(5), || {
            let inc = Incarnation::current();
            std::thread::scope(|s| {
                let helper = s.spawn(|| inc.enter(|| point(points::UNIVERSAL_COMBINE)));
                let crashed = helper.join();
                assert!(crashed.is_err(), "the helper crashed");
                // The owner stops at its next point, as part of the crash.
                let own = panic::catch_unwind(AssertUnwindSafe(|| {
                    point(points::UNIVERSAL_ANNOUNCE);
                    after_crash.fetch_add(1, Ordering::SeqCst);
                }));
                assert!(own.is_err(), "the owner stopped at its next point");
                rejoin([own, crashed]);
            });
            after_crash.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(out.recoverable_after(), Some(Duration::from_millis(2)));
        assert_eq!(after_crash.load(Ordering::SeqCst), 0);
        drop(first);
        // A helper of a permanent crash reports it, and the pid dies.
        let session = ChaosSession::install(&[Fault {
            pid: ProcId(5),
            point: points::DELAY,
            nth: 1,
            action: FaultAction::Crash,
        }]);
        let out = run_as(ProcId(5), || {
            let inc = Incarnation::current();
            std::thread::scope(|s| {
                let helper = s.spawn(|| inc.enter(|| point(points::DELAY)));
                rejoin([Ok(()), helper.join()]);
            });
        });
        assert_eq!(out, ThreadOutcome::Crashed);
        assert!(session.injector().is_dead(ProcId(5)));
    }

    #[test]
    fn a_genuine_panic_on_a_helper_keeps_its_payload() {
        let _session = ChaosSession::install(&[Fault {
            pid: ProcId(6),
            point: points::DELAY,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_millis(1)),
        }]);
        let result = panic::catch_unwind(|| {
            run_as(ProcId(6), || {
                let inc = Incarnation::current();
                std::thread::scope(|s| {
                    let helper = s.spawn(|| inc.enter(|| panic!("real bug on a helper")));
                    // The owner crashes meanwhile; the bug still wins.
                    let own = panic::catch_unwind(|| point(points::DELAY));
                    rejoin([own, helper.join()]);
                });
            })
        });
        let payload = result.expect_err("the genuine panic propagates");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"real bug on a helper"),
            "with its own payload"
        );
    }

    #[test]
    fn an_empty_incarnation_enters_nothing() {
        let inc = Incarnation::current();
        assert!(inc.0.is_none(), "no run_as, no incarnation");
        assert_eq!(inc.enter(|| 4), 4);
        rejoin([Ok(()), Ok(())]);
    }

    #[test]
    fn fault_display_names_the_parties() {
        let f = Fault {
            pid: ProcId(2),
            point: points::FISCHER_WRITE_X,
            nth: 1,
            action: FaultAction::Stall(Duration::from_millis(5)),
        };
        let s = f.to_string();
        assert!(s.contains("p2") && s.contains("fischer.write-x"), "{s}");
        let c = Fault {
            action: FaultAction::Crash,
            ..f
        };
        assert!(c.to_string().contains("crashes"));
        let r = Fault {
            action: FaultAction::CrashRecover(Duration::from_millis(7)),
            ..f
        };
        let s = r.to_string();
        assert!(s.contains("recovers after") && s.contains("7ms"), "{s}");
    }
}
