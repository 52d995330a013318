//! Asynchronous mutual exclusion algorithms, each defined **once** as a
//! register automaton and executed by two drivers.
//!
//! Algorithm 3 of the paper ("Computing in the Presence of Timing
//! Failures") wraps Fischer's timing-based lock around an asynchronous
//! mutex `A`, and its convergence hinges on `A`'s progress property:
//!
//! * `A` **fast + deadlock-free** (Lamport's fast mutex,
//!   [`lamport_fast`]) — Algorithm 3 is *not* guaranteed to converge after
//!   timing failures (Theorem 3.2);
//! * `A` **fast + starvation-free** (Lamport's fast mutex under the
//!   starvation-free transformation, [`bar_david`]) — Algorithm 3 converges
//!   and is resilient to timing failures (Theorem 3.3).
//!
//! This crate provides those `A` candidates plus classic asynchronous
//! baselines: Lamport's bakery ([`bakery`]), Taubenfeld's black-white
//! bakery with bounded registers ([`bw_bakery`]), and a Peterson
//! tournament tree ([`peterson`]).
//!
//! # One definition, two drivers
//!
//! [`LockSpec`] is the only definition of a lock: a per-process step
//! machine that names the next read, write or delay and advances on its
//! result. It is *composable* — Algorithm 3 and the starvation-free
//! transformation embed an inner `LockSpec` inside their own. Two drivers
//! execute it:
//!
//! * [`workload::LockLoop`] turns a `LockSpec` into a complete
//!   [`tfr_registers::spec::Automaton`] (non-critical section → entry →
//!   critical section → exit, repeated) for the simulator and the model
//!   checker;
//! * [`native::Derived`] implements [`RawLock`] (`lock(pid)` /
//!   `unlock(pid)` on real threads) for any `LockSpec` by executing the
//!   same steps against a [`tfr_registers::space::RegisterSpace`], firing
//!   the injection points, trace events and `delay(Δ)` feedback the spec's
//!   [`StepLabel`]s name.
//!
//! So the explorer, the simulator, the chaos nemesis and the benchmarks all
//! run the same automaton. The native names (`LamportFast`, `Bakery`, …)
//! are aliases of `Derived` over the matching spec.

pub mod bakery;
pub mod bar_david;
pub mod bw_bakery;
pub mod lamport_fast;
pub mod native;
pub mod peterson;
pub mod workload;

use core::fmt;
use core::hash::Hash;
use tfr_registers::accounting::RegisterCount;
use tfr_registers::spec::{Action, Perm};
use tfr_registers::{ProcId, RegId};

pub use native::DelaySource;

/// The progress property a mutual exclusion algorithm guarantees (in a
/// fair asynchronous system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Progress {
    /// If processes are trying, *some* process eventually enters.
    DeadlockFree,
    /// *Every* trying process eventually enters.
    StarvationFree,
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Progress::DeadlockFree => write!(f, "deadlock-free"),
            Progress::StarvationFree => write!(f, "starvation-free"),
        }
    }
}

/// One step of a lock protocol (entry or exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStep {
    /// Perform this shared-memory action (or delay), then call
    /// [`LockSpec::apply`].
    Act(Action),
    /// Run the whole entry protocol of an inner lock held as a black box
    /// ([`native::Opaque`]), then call [`LockSpec::apply`] with `None`.
    /// Only the native driver can answer it; specs over a spec-form inner
    /// lock never yield it.
    EnterInner,
    /// Run the black-box inner lock's whole exit protocol, then call
    /// [`LockSpec::apply`] with `None`.
    ExitInner,
    /// The entry protocol has completed: the process holds the lock. The
    /// driver acknowledges with [`LockSpec::begin_exit`] once the critical
    /// section is over.
    Entered,
    /// The exit protocol has completed. The driver acknowledges with
    /// [`LockSpec::reset`] before the next acquisition.
    Done,
}

/// What the native driver fires around one protocol step. The spec names
/// the step; the driver, at the effect boundary, does the firing — so
/// injection points and feedback sit at the same protocol position in
/// every execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepLabel {
    /// A named injection point (`tfr_registers::chaos::points`, doubling
    /// as a trace point) fired immediately before the step's effect.
    pub point: Option<&'static str>,
    /// Set on the read that judges the preceding `delay(Δ)`.
    pub verdict: Option<Verdict>,
}

impl StepLabel {
    /// A step with injection point `point` before it and no verdict.
    pub fn at(point: &'static str) -> StepLabel {
        StepLabel {
            point: Some(point),
            verdict: None,
        }
    }
}

/// The outcome a timing-based check reads for: observing `expect` means
/// the delay sufficed (`DelaySource::on_uncontended`); anything else is a
/// retry (a `Retry` trace event at `retry_point`, then
/// `DelaySource::on_contended`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The value a passing check observes.
    pub expect: u64,
    /// The point a failed check's `Retry` event names.
    pub retry_point: &'static str,
}

/// A mutual exclusion algorithm as a composable register-automaton
/// fragment.
///
/// # Protocol
///
/// A per-process lock state cycles through four phases:
///
/// ```text
/// idle --start_entry--> entry --(steps...)--> Entered
///      <----reset------ Done <--(steps...)-- begin_exit
/// ```
///
/// While in the entry or exit phase, the driver repeatedly calls
/// [`LockSpec::step`]; on [`LockStep::Act`] it linearizes the action and
/// calls [`LockSpec::apply`] (with the observed value for reads). When
/// `step` reports [`LockStep::Entered`] / [`LockStep::Done`] the phase is
/// over.
///
/// Implementations receive a register **base offset** at construction so
/// that composite algorithms (Algorithm 3) can place the inner lock's
/// registers in a disjoint region.
pub trait LockSpec {
    /// Per-process protocol state.
    type State: Clone + fmt::Debug + PartialEq + Eq + Hash;

    /// Initial (idle) state of process `pid`.
    fn init(&self, pid: ProcId) -> Self::State;

    /// Begins the entry protocol from an idle state.
    fn start_entry(&self, state: &mut Self::State);

    /// The next protocol step. Only meaningful between `start_entry` and
    /// `reset`; in the idle phase the return value is unspecified.
    fn step(&self, state: &Self::State) -> LockStep;

    /// Advances the state past the action most recently returned by
    /// [`LockSpec::step`]; `observed` carries the value for reads.
    fn apply(&self, state: &mut Self::State, observed: Option<u64>);

    /// Acknowledges the critical section is over; begins the exit protocol.
    fn begin_exit(&self, state: &mut Self::State);

    /// Returns a `Done` state to idle, ready for the next acquisition.
    fn reset(&self, state: &mut Self::State);

    /// Number of processes this instance is configured for.
    fn n(&self) -> usize;

    /// Shared registers used by this instance.
    fn registers(&self) -> RegisterCount;

    /// The progress property this algorithm guarantees.
    fn progress(&self) -> Progress;

    /// Whether the algorithm is *fast*: in the absence of contention a
    /// process enters after a constant number of its own steps.
    fn is_fast(&self) -> bool;

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// What the native driver fires around the step [`LockSpec::step`]
    /// currently returns. Asynchronous locks have nothing to name.
    fn label(&self, _state: &Self::State) -> StepLabel {
        StepLabel::default()
    }

    /// The black-box inner lock behind [`LockStep::EnterInner`] /
    /// [`LockStep::ExitInner`], if this spec (or the spec it wraps) has
    /// one.
    fn opaque(&self) -> Option<&dyn RawLock> {
        None
    }
}

/// Blanket impl so `&L` composes like `L`.
impl<L: LockSpec + ?Sized> LockSpec for &L {
    type State = L::State;
    fn init(&self, pid: ProcId) -> Self::State {
        (**self).init(pid)
    }
    fn start_entry(&self, state: &mut Self::State) {
        (**self).start_entry(state)
    }
    fn step(&self, state: &Self::State) -> LockStep {
        (**self).step(state)
    }
    fn apply(&self, state: &mut Self::State, observed: Option<u64>) {
        (**self).apply(state, observed)
    }
    fn begin_exit(&self, state: &mut Self::State) {
        (**self).begin_exit(state)
    }
    fn reset(&self, state: &mut Self::State) {
        (**self).reset(state)
    }
    fn n(&self) -> usize {
        (**self).n()
    }
    fn registers(&self) -> RegisterCount {
        (**self).registers()
    }
    fn progress(&self) -> Progress {
        (**self).progress()
    }
    fn is_fast(&self) -> bool {
        (**self).is_fast()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn label(&self, state: &Self::State) -> StepLabel {
        (**self).label(state)
    }
    fn opaque(&self) -> Option<&dyn RawLock> {
        (**self).opaque()
    }
}

/// A [`LockSpec`] whose protocol commutes with process relabelling —
/// the lock-level counterpart of [`tfr_registers::spec::Symmetric`].
///
/// Implementors assert that for any permutation `π` of `0..n`, mapping a
/// protocol state with `permute_lock_state` and the registers/values of
/// its actions with `permute_reg`/`permute_value` commutes with
/// `step`/`apply`/`start_entry`/`begin_exit`/`reset`. Wrapping such a
/// lock in [`workload::LockLoop`] then yields a `Symmetric` automaton,
/// unlocking process-symmetry reduction in the model checker.
///
/// Locks that scan processes in a fixed id order (Lamport fast, the
/// bakery family, the starvation-free transformation's queue) are *not*
/// symmetric: relabelling changes which competitor a scan sees first.
/// Fischer qualifies — its single register is pid-free and the stored
/// token relabels cleanly.
pub trait SymmetricLockSpec: LockSpec {
    /// `state` with every embedded process id mapped through `perm`.
    fn permute_lock_state(&self, state: &Self::State, perm: &Perm) -> Self::State;

    /// The image of a register id under the relabelling (identity for
    /// pid-free register layouts).
    fn permute_reg(&self, reg: RegId, _perm: &Perm) -> RegId {
        reg
    }

    /// The image of the value stored in `reg` under the relabelling
    /// (identity unless values encode process ids).
    fn permute_value(&self, _reg: RegId, value: u64, _perm: &Perm) -> u64 {
        value
    }
}

impl<L: SymmetricLockSpec + ?Sized> SymmetricLockSpec for &L {
    fn permute_lock_state(&self, state: &Self::State, perm: &Perm) -> Self::State {
        (**self).permute_lock_state(state, perm)
    }
    fn permute_reg(&self, reg: RegId, perm: &Perm) -> RegId {
        (**self).permute_reg(reg, perm)
    }
    fn permute_value(&self, reg: RegId, value: u64, perm: &Perm) -> u64 {
        (**self).permute_value(reg, value, perm)
    }
}

/// A mutual exclusion algorithm as a real synchronization object.
///
/// Unlike `std::sync::Mutex`, classic register-based algorithms need to
/// know *which* process is acting, so `lock`/`unlock` take the caller's
/// [`ProcId`] (which must be `< n` and unique per concurrent caller).
pub trait RawLock: Send + Sync {
    /// Blocks until process `pid` holds the lock.
    fn lock(&self, pid: ProcId);
    /// Releases the lock held by process `pid`.
    ///
    /// Calling `unlock` without holding the lock is a logic error and
    /// voids the mutual exclusion guarantee.
    fn unlock(&self, pid: ProcId);
    /// Number of processes this instance supports.
    fn n(&self) -> usize;
    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;
}

/// What a recovery section found and did for one restarting process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// `true` if the previous incarnation had orphaned a held lock (it
    /// crashed inside the critical section or mid-release) and the
    /// recovery section released it; `false` if there was nothing to
    /// repair (the crash hit the remainder section or an abandoned
    /// acquire).
    pub repaired: bool,
    /// The incarnation number this recovery installed (1 = first
    /// restart).
    pub incarnation: u64,
}

/// A [`RawLock`] that survives the crash-*recovery* failure model
/// (Golab–Ramaraju recoverable mutual exclusion).
///
/// # Protocol
///
/// A process that crashes — anywhere: in its entry section, inside the
/// critical section, mid-release — may later restart as a new
/// *incarnation*. Before contending again it MUST call
/// [`RecoverableRawLock::recover`], which runs the recovery section:
/// using only persistent registers, it determines where the previous
/// incarnation died and repairs the lock (typically by completing or
/// undoing the interrupted passage). After `recover` returns, the
/// process is a normal participant again and may call `lock`/`unlock`.
///
/// Implementations must keep mutual exclusion and deadlock freedom
/// across any number of crash-recoveries, provided every restart runs
/// `recover` first.
pub trait RecoverableRawLock: RawLock {
    /// The recovery section: repairs whatever `pid`'s previous
    /// incarnation left behind and registers the new incarnation.
    ///
    /// Idempotent — a process that crashes *during* recovery simply runs
    /// it again on its next restart.
    fn recover(&self, pid: ProcId) -> RecoveryOutcome;
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared test harnesses: every lock in this crate is exercised by the
    //! same battery.

    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use tfr_modelcheck::{Explorer, SafetySpec};
    use tfr_registers::{Delta, Ticks};
    use tfr_sim::metrics::mutex_stats;
    use tfr_sim::timing::{standard_no_failures, UniformAccess};
    use tfr_sim::{RunConfig, Sim};

    /// Hammers a native lock with `n` threads × `iters` increments of an
    /// unprotected counter pair; any mutual exclusion failure shows up as
    /// a torn invariant.
    pub fn native_lock_smoke(lock: Arc<dyn RawLock>, n: usize, iters: u64) {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        lock.lock(ProcId(i));
                        // Inside the CS the two counters must move in
                        // lockstep; a racing thread would observe/create a
                        // mismatch.
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "torn critical section in {}", lock.name());
                        a.store(va + 1, Ordering::Relaxed);
                        b.store(vb + 1, Ordering::Relaxed);
                        lock.unlock(ProcId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(a.load(Ordering::Relaxed), n as u64 * iters);
        assert_eq!(b.load(Ordering::Relaxed), n as u64 * iters);
    }

    /// Model-checks mutual exclusion of a `LockSpec` exhaustively for a
    /// small configuration.
    pub fn spec_lock_modelcheck<L: LockSpec>(lock: L, n: usize, iterations: u64) {
        let automaton = workload::LockLoop::new(lock, iterations)
            .cs_ticks(Ticks(1))
            .ncs_ticks(Ticks(1));
        let report = Explorer::new(automaton, n).check(&SafetySpec::mutex());
        if let Some(cex) = &report.violation {
            panic!("mutual exclusion violated:\n{cex}");
        }
        assert!(report.proven_safe(), "exploration truncated; raise bounds");
    }

    /// Simulates a `LockSpec` under random (failure-free) timing and checks
    /// mutual exclusion plus completion of the full workload.
    pub fn spec_lock_sim<L: LockSpec>(lock: L, n: usize, iterations: u64, seed: u64) {
        let name = lock.name();
        let delta = Delta::from_ticks(100);
        let automaton = workload::LockLoop::new(lock, iterations)
            .cs_ticks(Ticks(20))
            .ncs_ticks(Ticks(50));
        let config = RunConfig::new(n, delta);
        let result = Sim::new(automaton, config, standard_no_failures(delta, seed)).run();
        assert!(
            result.all_halted(),
            "{name}: workload did not complete (livelock?)"
        );
        let stats = mutex_stats(&result, Ticks::ZERO);
        assert!(
            !stats.mutual_exclusion_violated,
            "{name}: mutual exclusion violated"
        );
        assert_eq!(
            stats.cs_entries,
            n as u64 * iterations,
            "{name}: wrong CS entry count"
        );
    }

    /// Simulates with timing failures possible (durations above Δ) — for an
    /// *asynchronous* algorithm this must still be safe and complete.
    pub fn spec_lock_sim_async<L: LockSpec>(lock: L, n: usize, iterations: u64, seed: u64) {
        let name = lock.name();
        let delta = Delta::from_ticks(100);
        let automaton = workload::LockLoop::new(lock, iterations)
            .cs_ticks(Ticks(20))
            .ncs_ticks(Ticks(50));
        let config = RunConfig::new(n, delta);
        // Durations up to 5Δ: constant timing failures.
        let model = UniformAccess::new(Ticks(10), Ticks(500), seed);
        let result = Sim::new(automaton, config, model).run();
        assert!(
            result.all_halted(),
            "{name}: workload did not complete under async timing"
        );
        assert!(
            result.timing_failures > 0,
            "model should produce timing failures"
        );
        let stats = mutex_stats(&result, Ticks::ZERO);
        assert!(
            !stats.mutual_exclusion_violated,
            "{name}: unsafe under timing failures"
        );
    }
}
