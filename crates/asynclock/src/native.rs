//! The native lock: [`Derived`] implements [`RawLock`] for any
//! [`LockSpec`] by running it on real threads under the crate's one
//! native driver ([`crate::driver`]).
//!
//! The driver serves the steps: reads and writes go to a
//! [`RegisterSpace`], and the injection points fire from the labels the
//! spec supplies — never inside an algorithm. The lock's own loop adds
//! only what is a lock's: `delay(Δ)` for a [`DelaySource`]'s current
//! estimate, an [`Opaque`] inner lock's call, a yield while the process
//! polls, the outcome of a timing check fed back to the delay source, and
//! the slot that keeps a holder's state from `lock` to `unlock`.
//!
//! The driver is generic, so it is compiled where a lock is used; the
//! specs mark `next_action`/`apply` `#[inline(always)]` to let it fold
//! them into the lock's loop across the crate boundary (without it the
//! bakery's uncontended passage is half again as slow).

use crate::driver::{Driver, Serve, OBS};
use crate::{LockSpec, Progress, RawLock};
use std::sync::Mutex;
use std::time::Duration;
use tfr_registers::accounting::RegisterCount;
use tfr_registers::native::precise_delay;
use tfr_registers::space::{DenseSpace, RegisterSpace};
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, Ticks};
use tfr_telemetry::{EventKind, Trace};

/// Where a native timing-based algorithm gets its `delay(Δ)` from.
///
/// `Duration` itself implements this (a fixed estimate); pass an
/// adaptive estimator (by reference) for the adaptive behaviour. The two
/// feedback methods are called by the native lock: `on_contended` when a
/// timing check failed ([`Obs::Checked`]: evidence the estimate may be too
/// small), `on_uncontended` when it passed.
pub trait DelaySource: Send + Sync {
    /// The current `delay(Δ)` estimate.
    fn current_delay(&self) -> Duration;
    /// Feedback: an operation had to retry (estimate possibly too small).
    fn on_contended(&self) {}
    /// Feedback: an operation completed on its fast path.
    fn on_uncontended(&self) {}
}

impl DelaySource for Duration {
    fn current_delay(&self) -> Duration {
        *self
    }
}

impl<D: DelaySource + ?Sized> DelaySource for &D {
    fn current_delay(&self) -> Duration {
        (**self).current_delay()
    }
    fn on_contended(&self) {
        (**self).on_contended()
    }
    fn on_uncontended(&self) {
        (**self).on_uncontended()
    }
}

impl<D: DelaySource + ?Sized> DelaySource for std::sync::Arc<D> {
    fn current_delay(&self) -> Duration {
        (**self).current_delay()
    }
    fn on_contended(&self) {
        (**self).on_contended()
    }
    fn on_uncontended(&self) {
        (**self).on_uncontended()
    }
}

/// An inner lock as a black box: a [`LockSpec`] whose entry and exit are
/// each one step, which the native lock answers with `A`'s `lock` /
/// `unlock` (see [`LockSpec::opaque`]); to the automaton each is a
/// `Delay`.
///
/// This is how the wrappers (the starvation-free transformation,
/// Algorithm 3) take *any* [`RawLock`] natively while embedding a
/// spec-form inner lock for the model checker: the wrapper's own steps
/// are the same automaton either way. It has no registers and no
/// register automaton — [`crate::workload::LockLoop`] cannot run it.
#[derive(Debug, Clone)]
pub struct Opaque<A>(pub A);

/// Per-process state of [`Opaque`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpaqueState {
    /// Not contending.
    Idle,
    /// About to run the inner entry protocol.
    Entering,
    /// Holding the inner lock.
    Entered,
    /// About to run the inner exit protocol.
    Exiting,
}

impl<A: RawLock> Automaton for Opaque<A> {
    type State = OpaqueState;

    fn init(&self, _pid: ProcId) -> OpaqueState {
        OpaqueState::Idle
    }

    #[inline]
    fn next_action(&self, s: &OpaqueState) -> Action {
        match s {
            OpaqueState::Entering | OpaqueState::Exiting => Action::Delay(Ticks::ZERO),
            OpaqueState::Entered | OpaqueState::Idle => Action::Halt,
        }
    }

    #[inline]
    fn apply(&self, s: &mut OpaqueState, _observed: Option<u64>, _obs: &mut Vec<Obs>) {
        *s = match s {
            OpaqueState::Entering => OpaqueState::Entered,
            OpaqueState::Exiting => OpaqueState::Idle,
            _ => unreachable!("apply in a parked phase"),
        };
    }
}

impl<A: RawLock> LockSpec for Opaque<A> {
    fn start_entry(&self, s: &mut OpaqueState) {
        *s = OpaqueState::Entering;
    }

    fn begin_exit(&self, s: &mut OpaqueState) {
        debug_assert_eq!(*s, OpaqueState::Entered, "begin_exit without the lock");
        *s = OpaqueState::Exiting;
    }

    fn reset(&self, s: &mut OpaqueState) {
        *s = OpaqueState::Idle;
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn registers(&self) -> RegisterCount {
        RegisterCount::Finite(0)
    }

    /// A [`RawLock`] carries no progress metadata; assume the weaker
    /// property.
    fn progress(&self) -> Progress {
        Progress::DeadlockFree
    }

    fn is_fast(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    #[inline]
    fn opaque(&self, s: &OpaqueState) -> Option<&dyn RawLock> {
        matches!(s, OpaqueState::Entering | OpaqueState::Exiting).then_some(&self.0)
    }
}

/// One process's state while it holds the lock, on its own cache line.
/// Keyed by pid, not by thread: a crashed holder's next incarnation may
/// `unlock` from another thread.
#[repr(align(64))]
struct Held<S>(Mutex<S>);

/// A [`LockSpec`] executed natively: the one `RawLock` implementation
/// behind every register-based lock in the workspace.
///
/// `lock` runs the entry protocol from a fresh state on the caller's
/// stack and parks the entered state in the pid's slot; `unlock` resumes
/// from it. A thread that unwinds mid-`lock` (an injected crash) therefore
/// leaves the slot as it was.
///
/// # Example
///
/// ```
/// use tfr_asynclock::native::Derived;
/// use tfr_asynclock::peterson::PetersonSpec;
/// use tfr_asynclock::RawLock;
/// use tfr_registers::ProcId;
///
/// let lock = Derived::of(PetersonSpec::new(2, 0));
/// lock.lock(ProcId(1));
/// lock.unlock(ProcId(1));
/// assert_eq!(lock.name(), "peterson-tournament");
/// ```
pub struct Derived<L: LockSpec, D = Duration, S = DenseSpace> {
    driver: Driver<L, S, D>,
    held: Box<[Held<L::State>]>,
}

impl<L: LockSpec> Derived<L> {
    /// Runs `spec` over registers of its own: a [`DenseSpace`] sized from
    /// [`LockSpec::registers`], so `spec` must be based at register 0.
    ///
    /// # Panics
    ///
    /// Panics if the spec's register count is unbounded.
    pub fn of(spec: L) -> Derived<L> {
        let RegisterCount::Finite(count) = spec.registers() else {
            panic!("{} needs an unbounded register space", spec.name());
        };
        Derived::on(spec, DenseSpace::new(count as usize), Duration::ZERO)
    }
}

impl<L: LockSpec, D, S> Derived<L, D, S> {
    /// Runs `spec` over `space`, taking each `delay(Δ)` from `delay`.
    pub fn on(spec: L, space: S, delay: D) -> Derived<L, D, S> {
        let held = (0..spec.n())
            .map(|p| Held(Mutex::new(spec.init(ProcId(p)))))
            .collect();
        Derived {
            driver: Driver::new(spec, space, delay),
            held,
        }
    }

    /// Attaches a telemetry trace: entry waits, `delay(Δ)` spans, retries
    /// and acquire/release become events on the calling process's track.
    pub fn with_trace(mut self, trace: Trace) -> Derived<L, D, S> {
        self.driver.trace = trace;
        self
    }

    /// The automaton this lock executes.
    pub fn spec(&self) -> &L {
        &self.driver.spec
    }

    /// The registers it executes against.
    pub fn space(&self) -> &S {
        &self.driver.space
    }
}

impl<L: LockSpec, D: DelaySource, S: RegisterSpace> Derived<L, D, S> {
    /// Drives `state` through its phase, until it halts: the driver's
    /// steps, and around them what is a lock's own. A black-box inner
    /// lock's step is its `lock` in the entry phase (`entry`) and its
    /// `unlock` in the exit phase.
    fn run(&self, pid: ProcId, state: &mut L::State, entry: bool) {
        let driver = &self.driver;
        // The registers of the last two reads since the process last
        // wrote or delayed (`NONE` where there was no such read).
        const NONE: u64 = u64::MAX;
        let mut polled = [NONE; 2];
        // A lock that never delays never pushes an event (a timing check
        // judges the delay before it) nor touches the thread's buffer, so
        // the loop over a step's events folds away and the steps thread
        // into one another as a loop of the lock's own would.
        let mut obs = Vec::new();
        loop {
            let mut step = driver.next(state, &mut obs);
            if step.halted() {
                break;
            }
            if step.is_delay() {
                self.wait(pid, state, entry, &mut obs);
                polled = [NONE; 2];
            } else {
                let between = step.between();
                let seen = step.accesses(&mut || between.fire(), Serve(&driver.space));
                step.served(seen);
                // Re-reading a register with at most one other read and no
                // effect of its own in between is polling (await conditions
                // here span one or two registers): the process is waiting
                // for someone else's write, so let others run.
                match step.read() {
                    Some(reg) if polled.contains(&reg) => {
                        std::thread::yield_now();
                        polled = [NONE, reg];
                    }
                    Some(reg) => polled = [polled[1], reg],
                    None => polled = [NONE; 2],
                }
            }
            driver.resume(state, &step, &mut obs);
            for &o in &obs {
                if let Obs::Checked { passed, point } = o {
                    self.checked(pid, passed, point);
                }
            }
            obs.clear();
        }
        if obs.capacity() > 0 {
            OBS.set(obs);
        }
    }

    /// Waits out a `delay(Δ)` step, fetching the thread's event buffer
    /// into `obs` for the check that follows, or makes the black-box inner
    /// lock's call the step stands for.
    #[inline]
    fn wait(&self, pid: ProcId, state: &L::State, entry: bool, obs: &mut Vec<Obs>) {
        let driver = &self.driver;
        match driver.spec.opaque(state) {
            Some(inner) if entry => return inner.lock(pid),
            Some(inner) => return inner.unlock(pid),
            None => {}
        }
        if obs.capacity() == 0 {
            *obs = OBS.take();
        }
        // The spec's tick count is the simulator's Δ; here Δ is whatever
        // the source currently estimates.
        let d = driver.delay.current_delay();
        let requested_ns = d.as_nanos() as u64;
        driver
            .trace
            .emit(pid, EventKind::DelayStart { requested_ns });
        precise_delay(d);
        driver.trace.emit(pid, EventKind::DelayEnd);
    }

    /// Feeds the outcome of a timing check back to the delay source, a
    /// failed one traced as a retry that names `point`.
    #[inline(never)]
    fn checked(&self, pid: ProcId, passed: bool, point: &'static str) {
        if passed {
            self.driver.delay.on_uncontended();
        } else {
            self.driver.trace.emit(pid, EventKind::Retry { point });
            self.driver.delay.on_contended();
        }
    }

    fn held(&self, pid: ProcId) -> std::sync::MutexGuard<'_, L::State> {
        // The guard only ever covers a clone or an assignment, so a
        // poisoned slot still holds a whole state.
        self.held[pid.0].0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<L: LockSpec, D, S> std::fmt::Debug for Derived<L, D, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Derived")
            .field("lock", &self.spec().name())
            .field("n", &self.spec().n())
            .finish()
    }
}

impl<L, D, S> RawLock for Derived<L, D, S>
where
    L: LockSpec + Send + Sync,
    L::State: Send,
    D: DelaySource,
    S: RegisterSpace,
{
    fn lock(&self, pid: ProcId) {
        let (spec, trace) = (self.spec(), &self.driver.trace);
        assert!(pid.0 < spec.n(), "pid out of range");
        // `wait_t0` is Some only when tracing, so the disabled cost stays
        // at one Option check per hook.
        let wait_t0 = trace.now_ns();
        trace.emit(pid, EventKind::LockWaitStart);
        let mut state = spec.init(pid);
        spec.start_entry(&mut state);
        self.run(pid, &mut state, true);
        if let Some(t0) = wait_t0 {
            let wait_ns = trace.now_ns().unwrap_or(t0).saturating_sub(t0);
            trace.emit(pid, EventKind::LockAcquired { wait_ns });
        }
        *self.held(pid) = state;
    }

    fn unlock(&self, pid: ProcId) {
        let mut state = self.held(pid).clone();
        self.spec().begin_exit(&mut state);
        self.run(pid, &mut state, false);
        self.driver.trace.emit(pid, EventKind::LockReleased);
    }

    fn n(&self) -> usize {
        self.spec().n()
    }

    fn name(&self) -> &'static str {
        self.spec().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lamport_fast::LamportFastSpec;
    use std::sync::Arc;

    #[test]
    fn an_unwound_lock_call_leaves_the_slot_usable() {
        // An injected crash unwinds out of `lock` at an injection point;
        // stand in for it with an inner lock that panics on entry.
        struct Bomb;
        impl RawLock for Bomb {
            fn lock(&self, _pid: ProcId) {
                panic!("crash");
            }
            fn unlock(&self, _pid: ProcId) {}
            fn n(&self) -> usize {
                1
            }
            fn name(&self) -> &'static str {
                "bomb"
            }
        }
        let bomb = Derived::of(Opaque(Bomb));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bomb.lock(ProcId(0));
        }));
        assert!(crashed.is_err());
        assert_eq!(*bomb.held(ProcId(0)), OpaqueState::Idle);
    }

    #[test]
    fn a_holder_may_be_released_from_another_thread() {
        // What `RecoverableMutex::recover` does for a crashed holder.
        let lock = Arc::new(Derived::of(LamportFastSpec::new(2, 0)));
        lock.lock(ProcId(0));
        let l2 = Arc::clone(&lock);
        std::thread::spawn(move || l2.unlock(ProcId(0)))
            .join()
            .unwrap();
        lock.lock(ProcId(1));
        lock.unlock(ProcId(1));
    }

    #[test]
    #[should_panic(expected = "pid out of range")]
    fn out_of_range_pid_is_rejected() {
        Derived::of(LamportFastSpec::new(2, 0)).lock(ProcId(2));
    }
}
