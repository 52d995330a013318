//! Recoverable mutual exclusion — the crash-*recovery* transformation.
//!
//! The paper's failure models are timing failures and crash-*stop*: a
//! crashed process is gone, and [`resilient`](crate::mutex::resilient)
//! (Algorithm 3) guarantees the *survivors* converge. Recoverable mutual
//! exclusion (Golab–Ramaraju, and the adaptive refinement of Dhoked &
//! Mittal — see PAPERS.md) asks the harsher question: the crashed process
//! comes **back**, with its volatile state wiped, and must repair
//! whatever its previous incarnation left behind — possibly a lock held
//! inside the critical section — before contending again.
//!
//! [`RecoverableMutex`] is that transformation, applied to any inner
//! [`RawLock`] (by default the paper's resilient lock, so the result
//! tolerates timing failures *and* crash-recoveries):
//!
//! * every passage records its progress in a persistent **state ledger**
//!   (`STATE[p]` ∈ {free, acquiring, in-CS, releasing}) and stamps the
//!   persistent `OWNER` register with `(incarnation, token)` on entry;
//! * the **recovery section** ([`RecoverableMutex::recover`], run by each
//!   new incarnation before anything else) wipes the volatile segment,
//!   bumps the persistent incarnation epoch — making any surviving
//!   `OWNER` stamp recognizably stale ([`stamp`]/[`split`]) — and, if the
//!   stamp carries its own token, releases the orphaned inner lock;
//! * the **super-passage cost is adaptive** (Dhoked–Mittal style): each
//!   passage starts by comparing a volatile failure hint against the
//!   persistent `FAILURES` counter. Equal — the common, failure-free
//!   case — costs O(1) extra; unequal (some process crashed since this
//!   one last looked, or *this* process just restarted and lost the hint)
//!   triggers one O(n) diagnostic scan of the state ledger before the
//!   hint resynchronizes.
//!
//! # Crash surface
//!
//! Native crashes happen only at [`chaos::point`] calls, so the code
//! between two points is crash-atomic. This lock places its points so
//! that at *every* crash site the persistent state is unambiguous:
//!
//! ```text
//! STATE[p] := acquiring
//! ▸ recoverable.acquire           crash ⇒ inner NOT held, OWNER not ours
//! inner.lock(p)
//! OWNER := stamp(epoch, token)    ─┐ no point in between: stamped ⟺ held
//! STATE[p] := in-CS               ─┘
//! ▸ recoverable.in-cs             crash ⇒ inner held, stamp ours
//! (critical section: ▸ workload.cs)
//! STATE[p] := releasing
//! ▸ recoverable.release           crash ⇒ inner held, stamp ours
//! OWNER := 0; inner.unlock(p); STATE[p] := free
//! ```
//!
//! The chaos layer's recoverable-mutex schedule aims `CrashRecover`
//! faults only at the `recoverable.*` / `workload.*` points above (never
//! inside the inner lock), so the `OWNER` stamp is always the truth about
//! whether the dead incarnation held the inner lock — which is exactly
//! what `recover` keys its repair on. `recover` is idempotent: its own
//! point (`recoverable.recovery-section`) sits *before* the repair, so an
//! incarnation that crashes mid-recovery leaves the repair pending for
//! the next one.

use std::sync::Arc;
use std::time::Duration;
use tfr_asynclock::bar_david::{StarvationFree, StarvationFreeSpec};
use tfr_asynclock::lamport_fast::{LamportFast, LamportFastSpec};
use tfr_asynclock::{LockSpec, RawLock, RecoverableRawLock, RecoveryOutcome};
use tfr_registers::chaos;
use tfr_registers::durable::{split, stamp, DurableSpace, Incarnations};
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId, Ticks};
use tfr_telemetry::{EventKind, Trace};

use crate::mutex::resilient::{standard_resilient_spec, ResilientMutex, ResilientMutexSpec};

/// `OWNER` register: `stamp(epoch, token)` of the current holder, 0 when
/// free. Persistent.
const OWNER: u64 = 0;
/// Persistent count of recoveries run so far (approximate under
/// concurrent recoveries — adaptivity only, never safety).
const FAILURES: u64 = 1;
/// `STATE[p]` lives at `STATE_BASE + p`. Persistent.
const STATE_BASE: u64 = 8;
/// Process `p`'s volatile failure hint lives at `HINT_BASE + p` — its own
/// single-register volatile segment, wiped by `p`'s crash.
const HINT_BASE: u64 = 1000;

const FREE: u64 = 0;
const ACQUIRING: u64 = 1;
const IN_CS: u64 = 2;
const RELEASING: u64 = 3;

/// The paper's recommended inner lock under the recoverable
/// transformation: tolerates timing failures (Algorithm 3) *and*
/// crash-recoveries.
pub type StandardRecoverable = RecoverableMutex<ResilientMutex<StarvationFree<LamportFast>>>;

/// The crash-recovery transformation over an inner [`RawLock`].
///
/// See the [module docs](self) for the register layout and the
/// crash-surface argument. All bookkeeping lives in this lock's own
/// [`DurableSpace`]; the inner lock keeps its private registers, which
/// are persistent by construction (nothing wipes them).
///
/// # Example
///
/// A crash inside the critical section, repaired by the next
/// incarnation's recovery section:
///
/// ```
/// use std::time::Duration;
/// use tfr_asynclock::{RawLock, RecoverableRawLock};
/// use tfr_core::mutex::recoverable::RecoverableMutex;
/// use tfr_registers::ProcId;
///
/// let lock = RecoverableMutex::standard(2, Duration::from_micros(20));
/// lock.lock(ProcId(0));
/// // ... p0 crashes here, inside the CS ...
/// let outcome = lock.recover(ProcId(0)); // next incarnation's first act
/// assert!(outcome.repaired, "the orphaned lock was released");
/// assert_eq!(outcome.incarnation, 1);
/// lock.lock(ProcId(1)); // others are not blocked forever
/// lock.unlock(ProcId(1));
/// ```
pub struct RecoverableMutex<A> {
    inner: A,
    n: usize,
    space: Arc<DurableSpace<NativeSpace>>,
    incarnations: Incarnations<Arc<DurableSpace<NativeSpace>>>,
    trace: Trace,
}

impl StandardRecoverable {
    /// The standard instantiation: the recoverable transformation over
    /// [`ResilientMutex::standard`] with a fixed Δ estimate.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn standard(n: usize, delta: Duration) -> StandardRecoverable {
        RecoverableMutex::new(ResilientMutex::standard(n, delta), n)
    }
}

impl<A: RawLock> RecoverableMutex<A> {
    /// Wraps `inner` (configured for the same `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `inner.n() != n`.
    pub fn new(inner: A, n: usize) -> RecoverableMutex<A> {
        assert!(n > 0, "at least one process is required");
        assert_eq!(
            inner.n(),
            n,
            "inner lock must be configured for the same process count"
        );
        let mut space = DurableSpace::new(NativeSpace::new());
        for p in 0..n as u64 {
            space = space.volatile(ProcId(p as usize), HINT_BASE + p..HINT_BASE + p + 1);
        }
        let space = Arc::new(space);
        let incarnations = Incarnations::new(Arc::clone(&space), STATE_BASE + n as u64);
        RecoverableMutex {
            inner,
            n,
            space,
            incarnations,
            trace: Trace::disabled(),
        }
    }

    /// Attaches a telemetry trace; each recovery section emits an
    /// [`EventKind::Recovered`] on the caller's track (pairing with the
    /// `CrashRecover` the chaos observer emitted at crash time).
    pub fn with_trace(mut self, trace: Trace) -> RecoverableMutex<A> {
        self.trace = trace;
        self
    }

    /// The inner lock.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The bookkeeping space — exposes the E21 access counters
    /// ([`DurableSpace::accesses`] / [`DurableSpace::reset_counters`])
    /// that measure super-passage cost.
    pub fn space(&self) -> &Arc<DurableSpace<NativeSpace>> {
        &self.space
    }

    /// The persistent failure counter (number of recoveries observed;
    /// approximate under concurrent recoveries).
    pub fn failures(&self) -> u64 {
        self.space.read(FAILURES)
    }

    /// `pid`'s current incarnation (0 = never crashed).
    pub fn incarnation(&self, pid: ProcId) -> u64 {
        self.incarnations.current(pid)
    }

    /// The process whose stamp is in `OWNER`, if any. Test/diagnostic
    /// helper — by the time the caller looks, the answer may be stale.
    pub fn holder(&self) -> Option<ProcId> {
        let (_, tok) = split(self.space.read(OWNER));
        (tok != 0).then(|| ProcId(tok as usize - 1))
    }

    /// The adaptive failure-sync prologue: O(1) when `pid`'s volatile
    /// hint already matches the persistent `FAILURES` counter, one O(n)
    /// diagnostic scan of the state ledger otherwise. Returns how many
    /// ledger entries the scan found mid-passage (0 if no scan ran).
    fn sync_with_failures(&self, pid: ProcId) -> usize {
        let p = pid.0 as u64;
        let seen = self.space.read(HINT_BASE + p);
        let now = self.space.read(FAILURES);
        if seen == now {
            return 0;
        }
        let mut mid_passage = 0;
        for q in 0..self.n as u64 {
            let s = self.space.read(STATE_BASE + q);
            if s != FREE {
                mid_passage += 1;
            }
        }
        self.space.write(HINT_BASE + p, now);
        mid_passage
    }
}

impl<A: std::fmt::Debug> std::fmt::Debug for RecoverableMutex<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoverableMutex")
            .field("inner", &self.inner)
            .field("n", &self.n)
            .finish()
    }
}

impl<A: RawLock> RawLock for RecoverableMutex<A> {
    fn lock(&self, pid: ProcId) {
        assert!(pid.0 < self.n, "pid out of range");
        self.sync_with_failures(pid);
        let p = pid.0 as u64;
        self.space.write(STATE_BASE + p, ACQUIRING);
        chaos::point(chaos::points::RECOVERABLE_ACQUIRE);
        self.inner.lock(pid);
        // No recoverable/workload point between the acquisition above and
        // the two writes below: `OWNER` stamped ⟺ inner held, at every
        // crash site this lock's schedule can produce.
        let epoch = self.incarnations.current(pid);
        self.space.write(OWNER, stamp(epoch, pid.token()));
        self.space.write(STATE_BASE + p, IN_CS);
        chaos::point(chaos::points::RECOVERABLE_CS);
    }

    fn unlock(&self, pid: ProcId) {
        let p = pid.0 as u64;
        self.space.write(STATE_BASE + p, RELEASING);
        chaos::point(chaos::points::RECOVERABLE_RELEASE);
        self.space.write(OWNER, 0);
        self.inner.unlock(pid);
        self.space.write(STATE_BASE + p, FREE);
    }

    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "recoverable-mutex"
    }
}

impl<A: RawLock> RecoverableRawLock for RecoverableMutex<A> {
    fn recover(&self, pid: ProcId) -> RecoveryOutcome {
        let p = pid.0 as u64;
        // The memory side of the crash: this incarnation starts from
        // zeroed volatile registers (the failure hint among them, which
        // is what forces the O(n) resync on its first passage).
        self.space.crash(pid);
        // New persistent epoch — any surviving OWNER stamp is now stale.
        let incarnation = self.incarnations.restart(pid);
        // Racy increment: concurrent recoveries can lose counts, which
        // only under-triggers other processes' diagnostic scans.
        let f = self.space.read(FAILURES);
        self.space.write(FAILURES, f + 1);
        chaos::point(chaos::points::RECOVERY_SECTION);
        // Repair, keyed on the stamp (see module docs: stamped ⟺ the
        // dead incarnation held the inner lock). A crash at the point
        // above reruns everything; the repair below is crash-atomic.
        let (epoch, tok) = split(self.space.read(OWNER));
        let repaired = tok == pid.token();
        if repaired {
            debug_assert!(
                epoch < incarnation,
                "a live incarnation of {pid} cannot be in recovery"
            );
            self.space.write(OWNER, 0);
            self.inner.unlock(pid);
        }
        self.space.write(STATE_BASE + p, FREE);
        self.trace.emit(
            pid,
            EventKind::Recovered {
                incarnation,
                repaired,
            },
        );
        RecoveryOutcome {
            repaired,
            incarnation,
        }
    }
}

// ---------------------------------------------------------------------
// Specification form
// ---------------------------------------------------------------------

/// The recoverable transformation as a model-checkable [`Automaton`]:
/// `workers` processes run the canonical lock workload under the
/// transformation, and one extra **crash demon** process (the last pid)
/// executes a scripted sequence of crash injections. The *placement* of
/// each injection is ordinary scheduler nondeterminism, so one
/// exhaustive exploration covers crashes in the remainder, during
/// acquisition, inside the critical section, and mid-release.
///
/// Register layout: `OWNER` at register 0; `CRASH[p]` (the demon's flag
/// for worker `p`) at `1 + p`; the inner lock's registers from
/// `1 + workers` (construct it with that base).
///
/// # Abstractions relative to the native form
///
/// * The incarnation epoch and `stamp`/[`split`] packing are dropped:
///   repair is keyed on the raw token in `OWNER`, which is sound here
///   because the model has no volatile wipe to race with.
/// * A crashed worker's inner-lock protocol state is carried across the
///   crash. This is justified, not cheating: crashes only occur at the
///   poll points, where that state is one of exactly two canonical
///   values — idle (nothing started) or holding (entry complete) — and
///   the persistent `OWNER` stamp records which, exactly as the native
///   recovery section re-derives it.
/// * The recovery section itself is crash-free in the model (the native
///   chaos tier covers crash-during-recovery; the section is idempotent).
///
/// The demon writes each `CRASH[p]` flag once per script entry and the
/// worker *consumes* it (writes 0) when it polls it — at most one crash
/// per injection, the spec-level mirror of the chaos layer's one-shot
/// faults.
#[derive(Debug, Clone)]
pub struct RecoverableLoop<L> {
    inner: L,
    workers: usize,
    iterations: u64,
    script: Vec<ProcId>,
    /// Mutant knob: a recovery section that "forgets" the orphaned lock —
    /// it consumes the crash and rejoins without repairing. Used to show
    /// the deadlock-freedom check has teeth.
    leaky: bool,
}

/// The standard spec instantiation: the recoverable loop over
/// Algorithm 3 (Fischer wrapper + starvation-free Lamport fast) with its
/// registers based at `1 + workers`.
pub fn standard_recoverable_loop(
    workers: usize,
    iterations: u64,
    delta: Ticks,
    script: Vec<ProcId>,
) -> RecoverableLoop<ResilientMutexSpec<StarvationFreeSpec<LamportFastSpec>>> {
    let inner = standard_resilient_spec(workers, 1 + workers as u64, delta);
    RecoverableLoop::new(inner, workers, iterations, script)
}

impl<L: LockSpec> RecoverableLoop<L> {
    /// Wraps `inner` (configured for `workers` processes, registers from
    /// `1 + workers`); the demon crashes the scripted targets in order.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, `inner.n() != workers`,
    /// `iterations == 0`, or a script target is out of range.
    pub fn new(inner: L, workers: usize, iterations: u64, script: Vec<ProcId>) -> Self {
        assert!(workers > 0, "at least one worker is required");
        assert_eq!(inner.n(), workers, "inner lock sized for the workers");
        assert!(
            iterations > 0,
            "a lock workload needs at least one iteration"
        );
        assert!(
            script.iter().all(|p| p.0 < workers),
            "crash script targets a non-worker pid"
        );
        RecoverableLoop {
            inner,
            workers,
            iterations,
            script,
            leaky: false,
        }
    }

    /// The broken-recovery mutant: crashes are consumed but never
    /// repaired, so a crash while holding orphans the lock forever.
    /// Mutual exclusion still holds (nobody gets past the orphaned inner
    /// lock) — the defect is a **deadlock**, which is why the tier also
    /// runs [`tfr_modelcheck::check_eventual_completion`].
    pub fn leaky(mut self) -> Self {
        self.leaky = true;
        self
    }

    /// Total process count to hand the explorer: the workers plus the
    /// crash demon.
    pub fn procs(&self) -> usize {
        self.workers + 1
    }

    fn crash_reg(pid: ProcId) -> RegId {
        RegId(1 + pid.0 as u64)
    }
}

/// Where a [`RecoverableLoop`] process is. Worker phases follow the
/// native point layout: every `Poll*` phase is a crash-surface point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RecPhase<S> {
    /// The crash demon, about to perform script entry `pos`.
    Demon { pos: usize },
    /// Remainder section (delaying).
    Remainder { left: u64 },
    /// Crash poll before the inner entry (≙ `recoverable.acquire`).
    PollAcquire { left: u64 },
    /// Running the inner entry protocol.
    Trying { left: u64, lock: S },
    /// Entry complete; about to stamp `OWNER`.
    StampOwner { left: u64, lock: S },
    /// Crash poll while holding (≙ `recoverable.in-cs` / `workload.cs`).
    PollCs { left: u64, lock: S },
    /// Critical section (delaying).
    Critical { left: u64, lock: S },
    /// Crash poll before release (≙ `recoverable.release`).
    PollRelease { left: u64, lock: S },
    /// About to clear `OWNER` on the normal exit path.
    ClearOwner { left: u64, lock: S },
    /// Running the inner exit protocol.
    Exiting { left: u64, lock: S },
    /// Crashed: consuming the demon's flag (the one-shot write-back).
    Consume {
        left: u64,
        held: Option<S>,
        in_cs: bool,
    },
    /// Recovery section: reading `OWNER` to decide whether to repair.
    RecoverCheck {
        left: u64,
        held: Option<S>,
        in_cs: bool,
    },
    /// Repairing: about to clear the stale `OWNER` stamp.
    RecoverClear { left: u64, lock: S },
    /// Repairing: running the inner exit protocol on the orphan's behalf.
    RecoverExiting { left: u64, lock: S },
    /// Workload complete.
    Finished,
}

/// Per-process state of [`RecoverableLoop`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecLoopState<S> {
    pid: ProcId,
    phase: RecPhase<S>,
}

impl<L: LockSpec> RecoverableLoop<L> {
    /// Steps the inner lock, keeping its own events (its timing checks)
    /// out of the workload's.
    fn apply_inner(&self, lock: &mut L::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        let events = obs.len();
        self.inner.apply(lock, observed, obs);
        obs.truncate(events);
    }

    /// After an inner-entry step: advance to `StampOwner` once entered.
    fn after_entry_step(&self, left: u64, lock: L::State) -> RecPhase<L::State> {
        if self.inner.is_halted(&lock) {
            RecPhase::StampOwner { left, lock }
        } else {
            RecPhase::Trying { left, lock }
        }
    }

    /// After an inner-exit step: on `Done`, reset and rejoin the loop.
    /// A normal exit retires the iteration; a recovery repair does not
    /// (the interrupted passage is redone, as in the native nemesis).
    fn after_exit_step(
        &self,
        left: u64,
        mut lock: L::State,
        repair: bool,
        obs: &mut Vec<Obs>,
    ) -> RecPhase<L::State> {
        if !self.inner.is_halted(&lock) {
            return if repair {
                RecPhase::RecoverExiting { left, lock }
            } else {
                RecPhase::Exiting { left, lock }
            };
        }
        obs.push(Obs::EnterRemainder);
        self.inner.reset(&mut lock);
        if repair {
            RecPhase::Remainder { left }
        } else if left == 1 {
            RecPhase::Finished
        } else {
            RecPhase::Remainder { left: left - 1 }
        }
    }
}

impl<L: LockSpec> Automaton for RecoverableLoop<L> {
    type State = RecLoopState<L::State>;

    fn init(&self, pid: ProcId) -> Self::State {
        let phase = if pid.0 < self.workers {
            RecPhase::Remainder {
                left: self.iterations,
            }
        } else {
            RecPhase::Demon { pos: 0 }
        };
        RecLoopState { pid, phase }
    }

    fn next_action(&self, s: &Self::State) -> Action {
        let crash = Self::crash_reg(s.pid);
        match &s.phase {
            RecPhase::Demon { pos } => match self.script.get(*pos) {
                Some(&target) => Action::Write(Self::crash_reg(target), 1),
                None => Action::Halt,
            },
            RecPhase::Remainder { .. } | RecPhase::Critical { .. } => Action::Delay(Ticks(1)),
            RecPhase::PollAcquire { .. }
            | RecPhase::PollCs { .. }
            | RecPhase::PollRelease { .. } => Action::Read(crash),
            RecPhase::StampOwner { .. } => Action::Write(RegId(OWNER), s.pid.token()),
            RecPhase::ClearOwner { .. } | RecPhase::RecoverClear { .. } => {
                Action::Write(RegId(OWNER), 0)
            }
            RecPhase::Consume { .. } => Action::Write(crash, 0),
            RecPhase::RecoverCheck { .. } => Action::Read(RegId(OWNER)),
            RecPhase::Trying { lock, .. }
            | RecPhase::Exiting { lock, .. }
            | RecPhase::RecoverExiting { lock, .. } => self.inner.next_action(lock),
            RecPhase::Finished => Action::Halt,
        }
    }

    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        let crashed = observed == Some(1);
        s.phase = match std::mem::replace(&mut s.phase, RecPhase::Finished) {
            RecPhase::Demon { pos } => RecPhase::Demon { pos: pos + 1 },
            RecPhase::Remainder { left } => {
                obs.push(Obs::EnterTrying);
                RecPhase::PollAcquire { left }
            }
            RecPhase::PollAcquire { left } => {
                if crashed {
                    RecPhase::Consume {
                        left,
                        held: None,
                        in_cs: false,
                    }
                } else {
                    let mut lock = self.inner.init(s.pid);
                    self.inner.start_entry(&mut lock);
                    self.after_entry_step(left, lock)
                }
            }
            RecPhase::Trying { left, mut lock } => {
                self.apply_inner(&mut lock, observed, obs);
                self.after_entry_step(left, lock)
            }
            RecPhase::StampOwner { left, lock } => {
                obs.push(Obs::EnterCritical);
                RecPhase::PollCs { left, lock }
            }
            RecPhase::PollCs { left, lock } => {
                if crashed {
                    // The orphan: no `ExitCritical` at crash time — the
                    // monitor keeps this worker "inside" until the repair
                    // emits it, so a recovery that leaks lets the checker
                    // see any intruder.
                    RecPhase::Consume {
                        left,
                        held: Some(lock),
                        in_cs: true,
                    }
                } else {
                    RecPhase::Critical { left, lock }
                }
            }
            RecPhase::Critical { left, lock } => {
                obs.push(Obs::ExitCritical);
                RecPhase::PollRelease { left, lock }
            }
            RecPhase::PollRelease { left, lock } => {
                if crashed {
                    RecPhase::Consume {
                        left,
                        held: Some(lock),
                        in_cs: false,
                    }
                } else {
                    RecPhase::ClearOwner { left, lock }
                }
            }
            RecPhase::ClearOwner { left, mut lock } => {
                self.inner.begin_exit(&mut lock);
                self.after_exit_step(left, lock, false, obs)
            }
            RecPhase::Exiting { left, mut lock } => {
                self.apply_inner(&mut lock, observed, obs);
                self.after_exit_step(left, lock, false, obs)
            }
            RecPhase::Consume { left, held, in_cs } => RecPhase::RecoverCheck { left, held, in_cs },
            RecPhase::RecoverCheck { left, held, in_cs } => {
                if observed == Some(s.pid.token()) && !self.leaky {
                    // Our stamp survived ⟹ the dead incarnation held the
                    // inner lock (see the crash-surface argument). Repair.
                    if in_cs {
                        obs.push(Obs::ExitCritical);
                    }
                    let lock = held.expect("stamped owner always carries a held inner state");
                    RecPhase::RecoverClear { left, lock }
                } else {
                    // Nothing orphaned (or the mutant leaking on purpose):
                    // rejoin as a fresh contender.
                    obs.push(Obs::EnterRemainder);
                    RecPhase::Remainder { left }
                }
            }
            RecPhase::RecoverClear { left, mut lock } => {
                self.inner.begin_exit(&mut lock);
                self.after_exit_step(left, lock, true, obs)
            }
            RecPhase::RecoverExiting { left, mut lock } => {
                self.apply_inner(&mut lock, observed, obs);
                self.after_exit_step(left, lock, true, obs)
            }
            RecPhase::Finished => unreachable!("halted workload stepped"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;
    use tfr_registers::chaos::{ChaosSession, Fault, FaultAction};

    fn small() -> StandardRecoverable {
        RecoverableMutex::standard(2, Duration::from_micros(20))
    }

    #[test]
    fn recover_after_crash_in_cs_repairs_and_unblocks_others() {
        let lock = small();
        lock.lock(ProcId(0));
        assert_eq!(lock.holder(), Some(ProcId(0)));
        // p0 "crashes" here; its next incarnation runs recovery first.
        let out = lock.recover(ProcId(0));
        assert!(out.repaired);
        assert_eq!(out.incarnation, 1);
        assert_eq!(lock.holder(), None);
        // The repair really released the inner lock: p1 gets in.
        lock.lock(ProcId(1));
        lock.unlock(ProcId(1));
        // And the repaired process itself can rejoin.
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
    }

    #[test]
    fn recover_with_nothing_orphaned_reports_no_repair() {
        let lock = small();
        let out = lock.recover(ProcId(0));
        assert!(!out.repaired, "crash in the remainder section");
        assert_eq!(out.incarnation, 1);
        // A crash between STATE := acquiring and the inner acquisition
        // leaves the ledger dirty but the stamp clean — no repair either.
        let again = lock.recover(ProcId(0));
        assert!(!again.repaired, "recovery is idempotent");
        assert_eq!(again.incarnation, 2);
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
    }

    #[test]
    fn owner_stamp_carries_the_current_incarnation() {
        let lock = small();
        lock.lock(ProcId(0));
        assert_eq!(split(lock.space().read(OWNER)), (0, 1), "epoch 0, token 1");
        lock.recover(ProcId(0));
        lock.lock(ProcId(0));
        assert_eq!(split(lock.space().read(OWNER)), (1, 1), "restamped fresh");
        lock.unlock(ProcId(0));
    }

    #[test]
    fn passage_cost_is_adaptive_to_recent_failures() {
        let lock = small();
        // Warm up: first passage pays the one-time hint initialization.
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));

        lock.space().reset_counters();
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
        let quiet = lock.space().accesses();

        // A failure elsewhere: p1 crashes in CS and recovers.
        lock.lock(ProcId(1));
        lock.recover(ProcId(1));

        lock.space().reset_counters();
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
        let after_failure = lock.space().accesses();

        lock.space().reset_counters();
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
        let resynced = lock.space().accesses();

        assert!(
            after_failure > quiet,
            "first passage after a failure pays the O(n) scan \
             ({after_failure} vs {quiet} accesses)"
        );
        assert_eq!(resynced, quiet, "cost drops back once the hint resyncs");
        assert_eq!(lock.failures(), 1);
    }

    #[test]
    fn chaos_crash_in_cs_is_repairable_from_another_thread() {
        // A real CrashRecover unwind at the in-CS point, then recovery
        // run from a different OS thread — RawLock is pid-based, so the
        // repairing incarnation need not be the crashed thread.
        let _session = ChaosSession::install(&[Fault {
            pid: ProcId(0),
            point: chaos::points::RECOVERABLE_CS,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_millis(1)),
        }]);
        let lock = Arc::new(small());
        let l = Arc::clone(&lock);
        let out = chaos::run_as(ProcId(0), move || l.lock(ProcId(0)));
        assert_eq!(out.recoverable_after(), Some(Duration::from_millis(1)));
        assert_eq!(lock.holder(), Some(ProcId(0)), "orphaned in the CS");

        let outcome = lock.recover(ProcId(0));
        assert!(outcome.repaired);
        lock.lock(ProcId(1));
        lock.unlock(ProcId(1));
    }

    #[test]
    fn mutual_exclusion_holds_under_contention() {
        let lock = Arc::new(RecoverableMutex::standard(4, Duration::from_micros(20)));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (lock, a, b) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        lock.lock(ProcId(i));
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "torn counter pair: exclusion broken");
                        a.store(va + 1, Ordering::Relaxed);
                        b.store(vb + 1, Ordering::Relaxed);
                        lock.unlock(ProcId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn modelcheck_mutual_exclusion_across_a_crash_recovery() {
        // Two workers + the crash demon, exhaustively: wherever the
        // demon's injection lands — remainder, acquisition, inside the
        // CS, mid-release — and however the recovery interleaves with
        // the other worker, no two workers are ever inside together.
        let automaton = standard_recoverable_loop(2, 1, Ticks(100), vec![ProcId(0)]);
        let report = tfr_modelcheck::Explorer::new(&automaton, automaton.procs())
            .check(&tfr_modelcheck::SafetySpec::mutex());
        if let Some(cex) = &report.violation {
            panic!("recoverable transformation must be safe:\n{cex}");
        }
        assert!(report.proven_safe(), "the state space must be exhausted");
    }

    #[test]
    fn modelcheck_deadlock_freedom_across_a_crash_recovery() {
        // The recoverable obligation: a crash — even one that orphans
        // the critical section — never makes completion unreachable,
        // because the next incarnation can always repair.
        let automaton = standard_recoverable_loop(2, 1, Ticks(100), vec![ProcId(0)]);
        let report =
            tfr_modelcheck::check_eventual_completion(&automaton, automaton.procs(), 5_000_000);
        assert!(
            report.proven_deadlock_free(),
            "stuck states: {} (of {}), schedule: {:?}",
            report.stuck_states,
            report.states_explored,
            report.stuck_schedule
        );
    }

    #[test]
    fn modelcheck_leaky_recovery_deadlocks_but_never_intrudes() {
        // The mutant recovery consumes the crash without repairing. The
        // orphaned inner lock blocks everyone — which is precisely why
        // safety checking alone cannot certify a recoverable lock: the
        // mutant is still "safe" (nobody intrudes past a held lock), and
        // only the reachability check exposes the wedge.
        let automaton = standard_recoverable_loop(2, 1, Ticks(100), vec![ProcId(0)]).leaky();
        let safety = tfr_modelcheck::Explorer::new(&automaton, automaton.procs())
            .check(&tfr_modelcheck::SafetySpec::mutex());
        assert!(safety.proven_safe(), "the leak is not a safety bug");
        let progress =
            tfr_modelcheck::check_eventual_completion(&automaton, automaton.procs(), 5_000_000);
        assert!(!progress.truncated);
        assert!(
            progress.stuck_states > 0,
            "a crash while holding must wedge the leaky mutant"
        );
        let prefix = progress.stuck_schedule.expect("a wedging prefix");
        assert!(!prefix.is_empty());
    }

    #[test]
    #[ignore = "minutes-scale exhaustive run; the two-worker variants cover the tier"]
    fn modelcheck_three_workers_two_crashes() {
        let automaton = standard_recoverable_loop(3, 1, Ticks(100), vec![ProcId(0), ProcId(1)]);
        let report = tfr_modelcheck::Explorer::new(&automaton, automaton.procs())
            .check(&tfr_modelcheck::SafetySpec::mutex());
        assert!(report.proven_safe(), "{:?}", report.violation);
        let progress =
            tfr_modelcheck::check_eventual_completion(&automaton, automaton.procs(), 50_000_000);
        assert!(progress.proven_deadlock_free());
    }

    #[test]
    fn recovery_emits_a_recovered_event() {
        let tracer = Arc::new(tfr_telemetry::Tracer::new(2));
        let lock = small().with_trace(Trace::attached(Arc::clone(&tracer)));
        lock.lock(ProcId(0));
        lock.recover(ProcId(0));
        let events = tracer.events();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::Recovered {
                incarnation: 1,
                repaired: true
            }
        )));
    }
}
