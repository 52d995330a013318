//! **Algorithm 3** — mutual exclusion resilient to timing failures.
//!
//! Fischer's timing-based lock (Algorithm 2) wrapped around an
//! asynchronous mutual exclusion algorithm `A`, with Fischer's exit
//! weakened to a conditional reset:
//!
//! ```text
//! repeat   await x = 0
//!          x := i
//!          delay(Δ)
//! until    x = i
//! entry section of algorithm A
//! critical section
//! exit section of algorithm A
//! if x = i then x := 0 fi
//! ```
//!
//! * **Mutual exclusion always** (it is `A`'s, which is asynchronous);
//! * **O(Δ) without timing failures**: the Fischer wrapper then admits at
//!   most one process into `A`, whose fast path is constant — E7;
//! * **Convergence** (Theorem 3.3): line 8's conditional reset guarantees
//!   that of all processes stranded inside `A` by a timing failure, at
//!   most one reopens the wrapper, so with a *starvation-free* `A` the
//!   crowd drains and the O(Δ) regime resumes — E7;
//! * with a merely *deadlock-free* `A` (Lamport fast), a process can
//!   starve inside `A` forever and the lock never converges
//!   (Theorem 3.2) — E8.
//!
//! The default instantiation [`standard_resilient_spec`] /
//! [`ResilientMutex::standard`] uses the paper's recommended `A`: Lamport's
//! fast mutex under the starvation-free transformation — fast *and*
//! starvation-free.

use crate::adaptive::DelaySource;
use std::time::Duration;
use tfr_asynclock::bar_david::{StarvationFree, StarvationFreeSpec};
use tfr_asynclock::lamport_fast::{LamportFast, LamportFastSpec};
use tfr_asynclock::native::{Derived, Opaque};
use tfr_asynclock::{LockSpec, Progress, RawLock};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::chaos::points;
use tfr_registers::space::{DenseSpace, RegisterSpace};
use tfr_registers::spec::{Action, Automaton, Label, Obs};
use tfr_registers::{ProcId, RegId, Ticks};
use tfr_telemetry::Trace;

/// Algorithm 3, generic over the inner lock `A`: the automaton every tier
/// runs. Over a spec-form `A` it is a closed automaton for the
/// simulator and the model checker; over [`Opaque`] its own steps run
/// natively around any [`RawLock`].
///
/// Register layout (from `base`): Fischer's `x` at `base`; `A`'s registers
/// from `base + 1` (construct `A` with that base).
#[derive(Debug, Clone)]
pub struct ResilientMutexSpec<A> {
    inner: A,
    n: usize,
    base: u64,
    delta: Ticks,
}

/// The paper's recommended instantiation: `A` = Lamport's fast mutex under
/// the starvation-free transformation (fast + starvation-free ⇒ resilient
/// to timing failures, Theorem 3.3).
pub fn standard_resilient_spec(
    n: usize,
    base: u64,
    delta: Ticks,
) -> ResilientMutexSpec<StarvationFreeSpec<LamportFastSpec>> {
    let inner = StarvationFreeSpec::<LamportFastSpec>::over_lamport_fast(n, base + 1);
    ResilientMutexSpec::new(inner, n, base, delta)
}

/// The Theorem 3.2 instantiation: `A` = plain Lamport fast (deadlock-free
/// only) — safe, but **not** guaranteed to converge after timing failures.
pub fn deadlock_free_resilient_spec(
    n: usize,
    base: u64,
    delta: Ticks,
) -> ResilientMutexSpec<LamportFastSpec> {
    ResilientMutexSpec::new(LamportFastSpec::new(n, base + 1), n, base, delta)
}

impl<A: LockSpec> ResilientMutexSpec<A> {
    /// Wraps `inner` (configured for the same `n`, with registers from
    /// `base + 1`); the Fischer stage delays `delta` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `inner.n() != n`.
    pub fn new(inner: A, n: usize, base: u64, delta: Ticks) -> ResilientMutexSpec<A> {
        assert!(n > 0, "at least one process is required");
        assert_eq!(
            inner.n(),
            n,
            "inner lock must be configured for the same process count"
        );
        ResilientMutexSpec {
            inner,
            n,
            base,
            delta,
        }
    }

    /// Fischer's register.
    pub fn x(&self) -> RegId {
        RegId(self.base)
    }

    /// The inner lock.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `await x = 0`.
    AwaitZero,
    /// `x := i`.
    WriteX,
    /// `delay(Δ)`.
    DelayStep,
    /// `until x = i` check.
    CheckX,
    /// Delegating to `A`'s entry protocol.
    Inner,
    /// Delegating to `A`'s exit protocol.
    InnerExit,
    /// exit line 8: read `x`.
    ExitReadX,
    /// exit line 8: `x := 0` (only if the read saw our id).
    ExitClearX,
    Done,
}

/// Per-process state of [`ResilientMutexSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResilientMutexState<S> {
    pid: ProcId,
    pc: Pc,
    inner: S,
}

impl<A: LockSpec> Automaton for ResilientMutexSpec<A> {
    type State = ResilientMutexState<A::State>;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        ResilientMutexState {
            pid,
            pc: Pc::Idle,
            inner: self.inner.init(pid),
        }
    }

    #[inline(always)]
    fn next_action(&self, s: &Self::State) -> Action {
        self.next_step(s).0
    }

    #[inline]
    fn label(&self, s: &Self::State) -> Label {
        self.next_step(s).1
    }

    #[inline(always)]
    fn next_step(&self, s: &Self::State) -> (Action, Label) {
        let at = |point| Label {
            point: Some(point),
            ..Label::default()
        };
        match s.pc {
            Pc::Idle | Pc::Done => (Action::Halt, Label::default()),
            Pc::AwaitZero | Pc::CheckX => (Action::Read(self.x()), Label::default()),
            // Same read→write window as plain Fischer — a stall here must
            // NOT break mutual exclusion (that is what resilience means).
            Pc::WriteX => (
                Action::Write(self.x(), s.pid.token()),
                at(points::RESILIENT_WRITE_X),
            ),
            Pc::DelayStep => (Action::Delay(self.delta), Label::default()),
            Pc::ExitClearX => (Action::Write(self.x(), 0), Label::default()),
            // Before each step of A's entry — natively A is opaque, so
            // once, ahead of `A.lock`. A halts once entered, and so do we.
            Pc::Inner => {
                let (action, label) = self.inner.next_step(&s.inner);
                let point = (action != Action::Halt).then_some(points::RESILIENT_INNER);
                (action, Label { point, ..label })
            }
            // A's exit finishing does NOT finish ours (line 8 remains);
            // `apply` moves past it, so A has steps left here.
            Pc::InnerExit => self.inner.next_step(&s.inner),
            // Line 8: the conditional reset — of all processes stranded in
            // A by a timing failure, at most one reopens the wrapper.
            Pc::ExitReadX => (Action::Read(self.x()), at(points::RESILIENT_EXIT)),
        }
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        match s.pc {
            Pc::AwaitZero => {
                if observed == Some(0) {
                    s.pc = Pc::WriteX;
                }
            }
            Pc::WriteX => s.pc = Pc::DelayStep,
            Pc::DelayStep => s.pc = Pc::CheckX,
            Pc::CheckX => {
                let passed = observed == Some(s.pid.token());
                let point = points::RESILIENT_WRITE_X;
                obs.push(Obs::Checked { passed, point });
                if passed {
                    self.inner.start_entry(&mut s.inner);
                    s.pc = Pc::Inner;
                } else {
                    s.pc = Pc::AwaitZero;
                }
            }
            Pc::Inner => self.inner.apply(&mut s.inner, observed, obs),
            Pc::InnerExit => {
                self.inner.apply(&mut s.inner, observed, obs);
                if self.inner.is_halted(&s.inner) {
                    self.inner.reset(&mut s.inner);
                    s.pc = Pc::ExitReadX;
                }
            }
            Pc::ExitReadX => {
                if observed == Some(s.pid.token()) {
                    s.pc = Pc::ExitClearX;
                } else {
                    s.pc = Pc::Done;
                }
            }
            Pc::ExitClearX => s.pc = Pc::Done,
            Pc::Idle | Pc::Done => unreachable!("apply in a parked phase"),
        }
    }
}

impl<A: LockSpec> LockSpec for ResilientMutexSpec<A> {
    fn start_entry(&self, s: &mut Self::State) {
        s.pc = Pc::AwaitZero;
    }

    fn begin_exit(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Inner, "begin_exit without holding the lock");
        self.inner.begin_exit(&mut s.inner);
        s.pc = Pc::InnerExit;
        // A zero-action inner exit completes immediately.
        if self.inner.is_halted(&s.inner) {
            self.inner.reset(&mut s.inner);
            s.pc = Pc::ExitReadX;
        }
    }

    fn reset(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Done, "reset before the exit protocol finished");
        s.pc = Pc::Idle;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn registers(&self) -> RegisterCount {
        match self.inner.registers() {
            RegisterCount::Finite(c) => RegisterCount::Finite(c + 1),
            RegisterCount::Unbounded => RegisterCount::Unbounded,
        }
    }

    /// With a starvation-free `A` the combination is resilient to timing
    /// failures (Theorem 3.3); the progress reported is `A`'s.
    fn progress(&self) -> Progress {
        self.inner.progress()
    }

    fn is_fast(&self) -> bool {
        self.inner.is_fast()
    }

    fn name(&self) -> &'static str {
        "resilient-mutex"
    }

    #[inline]
    fn opaque(&self, s: &Self::State) -> Option<&dyn RawLock> {
        match s.pc {
            Pc::Inner | Pc::InnerExit => self.inner.opaque(&s.inner),
            _ => None,
        }
    }
}

/// Algorithm 3 on real threads: [`ResilientMutexSpec`]'s own steps under
/// the native driver, around any native inner lock `A`, generic over the
/// `delay(Δ)` source and the [`RegisterSpace`] backing Fischer's `x`
/// (a real atomic by default; a `tfr-net` quorum space via
/// [`ResilientMutex::standard_on`]).
///
/// Unlike [`crate::mutex::fischer::Fischer`], this lock's mutual exclusion
/// is unconditional: a wrong (optimistic) Δ estimate or an OS preemption
/// can only cost time.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tfr_core::mutex::resilient::ResilientMutex;
/// use tfr_asynclock::RawLock;
/// use tfr_registers::ProcId;
/// use std::time::Duration;
///
/// let lock = Arc::new(ResilientMutex::standard(2, Duration::from_micros(20)));
/// let l2 = Arc::clone(&lock);
/// let t = std::thread::spawn(move || {
///     l2.lock(ProcId(1));
///     l2.unlock(ProcId(1));
/// });
/// lock.lock(ProcId(0));
/// lock.unlock(ProcId(0));
/// t.join().unwrap();
/// ```
#[derive(Debug)]
pub struct ResilientMutex<A, D = Duration, S = DenseSpace>(
    Derived<ResilientMutexSpec<Opaque<A>>, D, S>,
)
where
    A: RawLock;

impl ResilientMutex<StarvationFree<LamportFast>, Duration> {
    /// The paper's recommended instantiation with a fixed Δ estimate.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn standard(n: usize, delta: Duration) -> Self {
        ResilientMutex::new(StarvationFree::over_lamport_fast(n), n, delta)
    }
}

impl<S: RegisterSpace> ResilientMutex<StarvationFree<LamportFast>, Duration, S> {
    /// The standard instantiation with Fischer's `x` living in `space`
    /// (register 0) — e.g. a `tfr-net` quorum space, making the timing
    /// wrapper's register a replicated one. The inner asynchronous lock
    /// stays on native atomics: its safety is timing-independent, so
    /// nothing is learned by slowing it down, and the O(Δ) claim under
    /// test is the wrapper's.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn standard_on(space: S, n: usize, delta: Duration) -> Self {
        ResilientMutex::on_with_delay_source(space, StarvationFree::over_lamport_fast(n), n, delta)
    }
}

impl<A: RawLock> ResilientMutex<A, Duration> {
    /// Wraps `inner` with a fixed Δ estimate.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `inner.n() != n`.
    pub fn new(inner: A, n: usize, delta: Duration) -> ResilientMutex<A, Duration> {
        Self::with_delay_source(inner, n, delta)
    }
}

impl<A: RawLock, D: DelaySource> ResilientMutex<A, D> {
    /// Wraps `inner`, drawing `delay(Δ)` from `source` (e.g. an
    /// [`crate::adaptive::AdaptiveDelta`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `inner.n() != n`.
    pub fn with_delay_source(inner: A, n: usize, source: D) -> ResilientMutex<A, D> {
        Self::on_with_delay_source(DenseSpace::new(1), inner, n, source)
    }
}

impl<A: RawLock, D: DelaySource, S: RegisterSpace> ResilientMutex<A, D, S> {
    /// Wraps `inner` with the Fischer stage's `x` at register 0 of
    /// `space`, drawing `delay(Δ)` from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `inner.n() != n`.
    pub fn on_with_delay_source(
        space: S,
        inner: A,
        n: usize,
        source: D,
    ) -> ResilientMutex<A, D, S> {
        // Natively `delay(Δ)` lasts what `source` says; the spec's tick
        // count is never read.
        let spec = ResilientMutexSpec::new(Opaque(inner), n, 0, Ticks(1));
        ResilientMutex(Derived::on(spec, space, source))
    }

    /// Attaches a telemetry trace: entry waits, `delay(Δ)` spans, Fischer
    /// retries and acquire/release become events on the calling process's
    /// track.
    pub fn with_trace(self, trace: Trace) -> ResilientMutex<A, D, S> {
        ResilientMutex(self.0.with_trace(trace))
    }
}

impl<A: RawLock, D: DelaySource, S: RegisterSpace> RawLock for ResilientMutex<A, D, S> {
    fn lock(&self, pid: ProcId) {
        self.0.lock(pid)
    }

    fn unlock(&self, pid: ProcId) {
        self.0.unlock(pid)
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveDelta;
    use std::sync::atomic::{AtomicU64 as TestAtomic, Ordering};
    use std::sync::Arc;
    use tfr_asynclock::workload::LockLoop;
    use tfr_modelcheck::{Explorer, SafetySpec};
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::spec::run_solo;
    use tfr_registers::Delta;
    use tfr_sim::metrics::mutex_stats;
    use tfr_sim::timing::{standard_no_failures, FailureWindows, UniformAccess, Window};
    use tfr_sim::{RunConfig, Sim};

    #[test]
    fn modelcheck_standard_two_procs() {
        // Mutual exclusion under ALL timing failures, exhaustively.
        let spec = standard_resilient_spec(2, 0, Ticks(100));
        let report = Explorer::new(LockLoop::new(spec, 1), 2).check(&SafetySpec::mutex());
        if let Some(cex) = &report.violation {
            panic!("Algorithm 3 must be safe:\n{cex}");
        }
        assert!(report.proven_safe());
    }

    #[test]
    fn modelcheck_deadlock_free_inner_still_safe() {
        // Theorem 3.2 is about convergence, not safety: with plain
        // Lamport fast inside, mutual exclusion still always holds.
        let spec = deadlock_free_resilient_spec(2, 0, Ticks(100));
        let report = Explorer::new(LockLoop::new(spec, 1), 2).check(&SafetySpec::mutex());
        assert!(report.proven_safe(), "{:?}", report.violation);
    }

    #[test]
    fn sim_no_failures_safe_live_all_sizes() {
        let delta = Delta::from_ticks(100);
        for n in [1usize, 2, 4, 8] {
            let spec = standard_resilient_spec(n, 0, delta.ticks());
            let automaton = LockLoop::new(spec, 5)
                .cs_ticks(Ticks(20))
                .ncs_ticks(Ticks(50));
            let result = Sim::new(
                automaton,
                RunConfig::new(n, delta),
                standard_no_failures(delta, 11 + n as u64),
            )
            .run();
            assert!(result.all_halted(), "n={n}");
            let stats = mutex_stats(&result, Ticks::ZERO);
            assert!(!stats.mutual_exclusion_violated, "n={n}");
            assert_eq!(stats.cs_entries, n as u64 * 5, "n={n}");
        }
    }

    #[test]
    fn sim_safe_and_live_under_constant_timing_failures() {
        // The headline resilience property: with durations up to 5Δ
        // (failures everywhere), mutual exclusion still holds and — since
        // the inner lock is starvation-free and schedules are random-fair —
        // the workload still completes.
        let delta = Delta::from_ticks(100);
        for seed in 0..10 {
            let spec = standard_resilient_spec(3, 0, delta.ticks());
            let automaton = LockLoop::new(spec, 5)
                .cs_ticks(Ticks(20))
                .ncs_ticks(Ticks(30));
            let model = UniformAccess::new(Ticks(10), Ticks(500), seed);
            let result = Sim::new(automaton, RunConfig::new(3, delta), model).run();
            assert!(result.all_halted(), "seed={seed}");
            assert!(result.timing_failures > 0, "seed={seed}");
            let stats = mutex_stats(&result, Ticks::ZERO);
            assert!(!stats.mutual_exclusion_violated, "seed={seed}");
        }
    }

    #[test]
    fn sim_converges_after_failure_burst() {
        // Theorem 3.3 shape: the paper's time-complexity metric after a
        // failure burst must return to the failure-free regime ψ. Measure
        // ψ on a failure-free run, then demand the post-burst metric is
        // within a small factor of it (the metric spans the previous
        // holder's exit code plus the Fischer handover, so ψ itself is a
        // double-digit multiple of Δ — still O(Δ), independent of n).
        let delta = Delta::from_ticks(100);
        let workload = |spec| {
            LockLoop::new(spec, 40)
                .cs_ticks(Ticks(20))
                .ncs_ticks(Ticks(30))
        };

        let baseline = Sim::new(
            workload(standard_resilient_spec(4, 0, delta.ticks())),
            RunConfig::new(4, delta),
            standard_no_failures(delta, 5),
        )
        .run();
        let psi0 = mutex_stats(&baseline, Ticks::ZERO).longest_starved_interval;
        assert!(
            psi0 <= delta.times(20),
            "failure-free ψ must be a small multiple of Δ, got {psi0}"
        );

        let burst_end = Ticks(3_000);
        let model = FailureWindows::new(
            standard_no_failures(delta, 5),
            vec![Window {
                from: Ticks(0),
                to: burst_end,
                pids: None,
                inflated: Ticks(450),
            }],
        );
        let result = Sim::new(
            workload(standard_resilient_spec(4, 0, delta.ticks())),
            RunConfig::new(4, delta),
            model,
        )
        .run();
        assert!(result.all_halted());
        let stats_all = mutex_stats(&result, Ticks::ZERO);
        assert!(!stats_all.mutual_exclusion_violated);
        // Skip a convergence window after the burst (Theorem 3.3
        // guarantees finite, not instant, convergence), then compare with
        // the failure-free regime.
        let converged_from = burst_end + delta.times(50);
        let stats = mutex_stats(&result, converged_from);
        assert!(
            stats.longest_starved_interval <= Ticks(psi0.0 * 2),
            "not converged: starved {} after the burst vs failure-free ψ = {psi0}",
            stats.longest_starved_interval
        );
    }

    #[test]
    fn solo_cost_constant_and_documented() {
        // Fast path: Fischer stage (read+write+read around one delay) +
        // the transformed Lamport fast path + conditional exit reset.
        let mut bank = ArrayBank::new();
        let spec = standard_resilient_spec(8, 0, Ticks(100));
        let run = run_solo(&LockLoop::new(spec, 1), ProcId(3), &mut bank, 200);
        let mut bank2 = ArrayBank::new();
        let spec32 = standard_resilient_spec(32, 0, Ticks(100));
        let run32 = run_solo(&LockLoop::new(spec32, 1), ProcId(3), &mut bank2, 200);
        assert_eq!(
            run.shared_accesses, run32.shared_accesses,
            "solo cost must not depend on n"
        );
        assert_eq!(run.delays, 3, "ncs + delay(Δ) + cs");
    }

    #[test]
    fn native_standard_smoke() {
        let lock = Arc::new(ResilientMutex::standard(4, Duration::from_micros(20)));
        let counter = Arc::new(TestAtomic::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        lock.lock(ProcId(i));
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.unlock(ProcId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8_000);
    }

    #[test]
    fn native_with_hopelessly_small_delta_is_still_safe() {
        // delta = 1ns: every delay is a de-facto timing failure. The inner
        // asynchronous lock keeps us safe (this is exactly what resilience
        // buys over plain Fischer).
        let lock = Arc::new(ResilientMutex::standard(4, Duration::from_nanos(1)));
        let counter = Arc::new(TestAtomic::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        lock.lock(ProcId(i));
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.unlock(ProcId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8_000);
    }

    #[test]
    fn native_with_adaptive_delta() {
        let est = AdaptiveDelta::new(
            Duration::from_nanos(100),
            Duration::from_nanos(50),
            Duration::from_millis(1),
        );
        let inner = StarvationFree::over_lamport_fast(4);
        let lock = Arc::new(ResilientMutex::with_delay_source(inner, 4, est));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        lock.lock(ProcId(i));
                        lock.unlock(ProcId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn register_count_is_one_plus_inner() {
        let spec = standard_resilient_spec(4, 0, Ticks(1));
        // Fischer x (1) + gate (n+1=5) + lamport fast (n+2=6).
        assert_eq!(spec.registers(), RegisterCount::Finite(12));
        assert!(tfr_registers::accounting::RegisterUsage {
            algorithm: "resilient",
            n: 4,
            count: spec.registers()
        }
        .satisfies_lower_bound());
    }

    #[test]
    fn metadata() {
        let spec = standard_resilient_spec(2, 0, Ticks(1));
        assert_eq!(spec.progress(), Progress::StarvationFree);
        assert!(spec.is_fast());
        let df = deadlock_free_resilient_spec(2, 0, Ticks(1));
        assert_eq!(df.progress(), Progress::DeadlockFree);
    }
}
