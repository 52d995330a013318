//! Asynchronous mutual exclusion algorithms, each defined **once** as a
//! register automaton, and the native driver that runs it.
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
//! # One definition, one native driver
//!
//! [`LockSpec`] is the only definition of a lock: a register
//! [`Automaton`] whose steps are the reads, writes and delays of the
//! lock's entry and exit protocols, plus the phase protocol that starts
//! each. It is *composable* — Algorithm 3 and the starvation-free
//! transformation embed an inner `LockSpec` inside their own. It runs
//!
//! * in the simulator and the model checker as a [`workload::LockLoop`],
//!   a complete automaton (non-critical section → entry → critical
//!   section → exit, repeated);
//! * on real threads as a [`native::Derived`], which implements
//!   [`RawLock`] (`lock(pid)` / `unlock(pid)`) under [`driver::Driver`],
//!   the native driver that also runs `tfr-core`'s consensus automata: the
//!   same steps against a [`tfr_registers::space::RegisterSpace`], the
//!   injection points its [`Label`](tfr_registers::spec::Label)s name
//!   fired around them.
//!
//! So the explorer, the simulator, the chaos nemesis and the benchmarks all
//! run the same automaton. The native names (`LamportFast`, `Bakery`, …)
//! are aliases of `Derived` over the matching spec.

pub mod bakery;
pub mod bar_david;
pub mod bw_bakery;
pub mod driver;
pub mod lamport_fast;
pub mod native;
pub mod peterson;
pub mod workload;

use core::fmt;
use tfr_registers::accounting::RegisterCount;
use tfr_registers::spec::Automaton;
use tfr_registers::ProcId;

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

/// A mutual exclusion algorithm as a composable register automaton.
///
/// # Protocol
///
/// A per-process lock state cycles through four phases:
///
/// ```text
/// idle --start_entry--> entry --(steps...)--> halt: entered
///      <----reset------ halt: done <--(steps...)-- begin_exit
/// ```
///
/// In the entry and exit phases the state steps as an [`Automaton`]; the
/// phase is over when it halts (`next_action` is `Action::Halt`). A timing
/// check's outcome is an `Obs::Checked` event that `apply` emits where it
/// makes the check.
///
/// Implementations receive a register **base offset** at construction so
/// that composite algorithms (Algorithm 3) can place the inner lock's
/// registers in a disjoint region.
pub trait LockSpec: Automaton {
    /// Begins the entry protocol from an idle state.
    fn start_entry(&self, state: &mut Self::State);

    /// Acknowledges the critical section is over; begins the exit protocol.
    fn begin_exit(&self, state: &mut Self::State);

    /// Returns a done state to idle, ready for the next acquisition.
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

    /// The black-box inner lock whose whole entry (in the entry phase) or
    /// exit protocol the step `state` waits on stands for, if it is such
    /// a call ([`native::Opaque`]'s steps, each a `Delay` to the
    /// automaton). Locks without one have nothing to name.
    #[inline]
    fn opaque(&self, _state: &Self::State) -> Option<&dyn RawLock> {
        None
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
