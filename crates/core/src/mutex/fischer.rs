//! **Algorithm 2** — Fischer's timing-based mutual exclusion (described in
//! Lamport 1987, attributed to Fischer).
//!
//! ```text
//! repeat   await x = 0
//!          x := i
//!          delay(Δ)
//! until    x = i
//! critical section
//! x := 0
//! ```
//!
//! One shared register; O(Δ) entry when the timing constraints hold: after
//! the delay, every competitor that wrote `x` has finished its write, so
//! reading back one's own id proves exclusive ownership. Under a timing
//! failure — a write to `x` outlasting Δ — the argument collapses and
//! **mutual exclusion is violated**: experiment E6 reproduces the paper's
//! schedule where a slow writer and a fast one both enter. This lock is
//! the building block of Algorithm 3 and the baseline it repairs.

use crate::adaptive::DelaySource;
use std::time::Duration;
use tfr_asynclock::native::Derived;
use tfr_asynclock::{LockSpec, Progress, RawLock};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::chaos::points;
use tfr_registers::space::{DenseSpace, RegisterSpace};
use tfr_registers::spec::{Action, Automaton, Label, Obs, Perm, Symmetric};
use tfr_registers::{ProcId, RegId, Ticks};
use tfr_telemetry::Trace;

/// Fischer's lock — the automaton every tier runs: one register,
/// `x`, at `base`.
#[derive(Debug, Clone)]
pub struct FischerSpec {
    n: usize,
    base: u64,
    delta: Ticks,
}

impl FischerSpec {
    /// A spec lock for `n` processes with register `x` at `base` and a
    /// `delay(Δ)` of `delta` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, base: u64, delta: Ticks) -> FischerSpec {
        assert!(n > 0, "at least one process is required");
        FischerSpec { n, base, delta }
    }

    /// The single shared register.
    pub fn x(&self) -> RegId {
        RegId(self.base)
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
    Entered,
    /// exit: `x := 0`.
    ExitX,
    Done,
}

/// Per-process state of [`FischerSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FischerState {
    pid: ProcId,
    pc: Pc,
}

impl Automaton for FischerSpec {
    type State = FischerState;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        FischerState { pid, pc: Pc::Idle }
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
            Pc::Idle | Pc::Entered | Pc::Done => (Action::Halt, Label::default()),
            Pc::AwaitZero => (Action::Read(self.x()), Label::default()),
            // The read→write window: a stall injected here models the
            // §3.1 timing failure that breaks Fischer's argument.
            Pc::WriteX => (
                Action::Write(self.x(), s.pid.token()),
                at(points::FISCHER_WRITE_X),
            ),
            Pc::DelayStep => (Action::Delay(self.delta), Label::default()),
            Pc::CheckX => (Action::Read(self.x()), at(points::FISCHER_CHECK_X)),
            Pc::ExitX => (Action::Write(self.x(), 0), at(points::FISCHER_EXIT)),
        }
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        s.pc = match s.pc {
            Pc::AwaitZero => {
                if observed == Some(0) {
                    Pc::WriteX
                } else {
                    Pc::AwaitZero
                }
            }
            Pc::WriteX => Pc::DelayStep,
            Pc::DelayStep => Pc::CheckX,
            Pc::CheckX => {
                let passed = observed == Some(s.pid.token());
                let point = points::FISCHER_CHECK_X;
                obs.push(Obs::Checked { passed, point });
                if passed {
                    Pc::Entered
                } else {
                    Pc::AwaitZero
                }
            }
            Pc::ExitX => Pc::Done,
            Pc::Idle | Pc::Entered | Pc::Done => unreachable!("apply in a parked phase"),
        };
    }
}

impl LockSpec for FischerSpec {
    fn start_entry(&self, s: &mut Self::State) {
        s.pc = Pc::AwaitZero;
    }

    fn begin_exit(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Entered, "begin_exit without holding the lock");
        s.pc = Pc::ExitX;
    }

    fn reset(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Done, "reset before the exit protocol finished");
        s.pc = Pc::Idle;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn registers(&self) -> RegisterCount {
        RegisterCount::Finite(1)
    }

    /// Deadlock-free **only while the timing constraints hold** — Fischer's
    /// progress (and even its safety) is conditional on the timing-based
    /// model; this metadata describes its behaviour in that model.
    fn progress(&self) -> Progress {
        Progress::DeadlockFree
    }

    fn is_fast(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "fischer"
    }
}

/// Fischer is fully pid-symmetric: the single register `x` is shared
/// (its *id* is pid-free), every process runs the same program with the
/// same Δ, and the only pid-dependent value is the token written to `x`
/// — which relabels through the permutation.
impl Symmetric for FischerSpec {
    fn permute_state(&self, s: &FischerState, perm: &Perm) -> FischerState {
        FischerState {
            pid: perm.apply_pid(s.pid),
            pc: s.pc,
        }
    }

    fn permute_value(&self, reg: RegId, value: u64, perm: &Perm) -> u64 {
        if reg == self.x() {
            match ProcId::from_token(value) {
                Some(p) if p.0 < self.n => perm.apply_pid(p).token(),
                // 0 = "free", and out-of-range tokens never occur.
                _ => value,
            }
        } else {
            value
        }
    }
}

/// Fischer's lock on real threads: [`FischerSpec`] under the native
/// driver, over one shared register — a real atomic by default, any
/// [`RegisterSpace`] backend (e.g. the `tfr-net` quorum registers) via
/// [`Fischer::on`] — with a pluggable `delay(Δ)` source (fixed or
/// adaptive).
///
/// **Caution**: this lock's mutual exclusion is only guaranteed when every
/// store to `x` completes within the configured Δ — on a real machine,
/// preemption can break it (that is the paper's point; use
/// [`crate::mutex::resilient::ResilientMutex`] instead). On a quorum
/// backend a "store" is a whole two-phase round, so Δ must cover the
/// round trip.
#[derive(Debug)]
pub struct Fischer<D = Duration, S = DenseSpace>(Derived<FischerSpec, D, S>);

impl Fischer<Duration> {
    /// A lock for `n` processes with a fixed `delay(Δ)` of `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, delta: Duration) -> Fischer<Duration> {
        Fischer::with_delay_source(n, delta)
    }
}

impl<D: DelaySource> Fischer<D> {
    /// A lock for `n` processes drawing its delay from `source` (e.g. an
    /// adaptive `optimistic(Δ)` estimator).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_delay_source(n: usize, source: D) -> Fischer<D> {
        Fischer::on_with_delay_source(DenseSpace::new(1), n, source)
    }
}

impl<S: RegisterSpace> Fischer<Duration, S> {
    /// A lock whose register `x` is register 0 of `space`, with a fixed
    /// `delay(Δ)` of `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn on(space: S, n: usize, delta: Duration) -> Fischer<Duration, S> {
        Fischer::on_with_delay_source(space, n, delta)
    }
}

impl<D: DelaySource, S: RegisterSpace> Fischer<D, S> {
    /// A lock over register 0 of `space`, drawing its delay from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn on_with_delay_source(space: S, n: usize, source: D) -> Fischer<D, S> {
        // Natively `delay(Δ)` lasts what `source` says; the spec's tick
        // count is never read.
        Fischer(Derived::on(FischerSpec::new(n, 0, Ticks(1)), space, source))
    }

    /// Attaches a telemetry trace: entry waits, `delay(Δ)` spans, retries
    /// and acquire/release become events on the calling process's track.
    pub fn with_trace(self, trace: Trace) -> Fischer<D, S> {
        Fischer(self.0.with_trace(trace))
    }
}

impl<D: DelaySource, S: RegisterSpace> RawLock for Fischer<D, S> {
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
    use tfr_asynclock::workload::LockLoop;
    use tfr_modelcheck::{Explorer, SafetySpec};
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::spec::{run_solo, Obs};
    use tfr_registers::Delta;
    use tfr_sim::metrics::mutex_stats;
    use tfr_sim::timing::{standard_no_failures, Fate, Scripted};
    use tfr_sim::{RunConfig, Sim};

    #[test]
    fn solo_cost_is_three_accesses_and_one_delay() {
        let mut bank = ArrayBank::new();
        let run = run_solo(
            &LockLoop::new(FischerSpec::new(4, 0, Ticks(100)), 1),
            ProcId(0),
            &mut bank,
            100,
        );
        // Entry: read x, write x, (delay), read x. Exit: write x.
        assert_eq!(run.shared_accesses, 4);
        assert_eq!(run.delays, 3, "ncs + delay(Δ) + cs");
    }

    #[test]
    fn sim_no_failures_safe_and_live() {
        let delta = Delta::from_ticks(100);
        for n in [1, 2, 4, 8] {
            let automaton = LockLoop::new(FischerSpec::new(n, 0, delta.ticks()), 5)
                .cs_ticks(Ticks(20))
                .ncs_ticks(Ticks(50));
            let result = Sim::new(
                automaton,
                RunConfig::new(n, delta),
                standard_no_failures(delta, n as u64),
            )
            .run();
            assert!(result.all_halted(), "n={n}");
            let stats = mutex_stats(&result, Ticks::ZERO);
            assert!(!stats.mutual_exclusion_violated, "n={n}");
            assert_eq!(stats.cs_entries, n as u64 * 5);
        }
    }

    /// The paper's §3.1 violation schedule, scripted deterministically:
    /// p0's *write* to `x` suffers a timing failure (outlasts Δ); p1 runs
    /// clean, sees `x = 0`, writes, delays Δ, reads its own id back and
    /// enters. Then p0's stale write lands, p0 delays, reads its own id
    /// and enters too.
    fn violation_model() -> Scripted {
        Scripted::new(Ticks(10))
            // p0 proc steps: 0 ncs-delay, 1 read x, 2 write x (SLOW: 500 > Δ=100)
            .set(ProcId(0), 2, Fate::Take(Ticks(500)))
            // p1 lags its first steps so it reads x=0 *before* p0's write
            // lands, then proceeds at full speed.
            .set(ProcId(1), 1, Fate::Take(Ticks(30)))
    }

    #[test]
    fn timing_failure_violates_mutual_exclusion_in_sim() {
        let delta = Delta::from_ticks(100);
        // CS long enough that p1 is still inside when p0's stale write
        // lands (t≈511) and p0's check passes (t≈621).
        let automaton = LockLoop::new(FischerSpec::new(2, 0, delta.ticks()), 1)
            .cs_ticks(Ticks(1000))
            .ncs_ticks(Ticks(1));
        let result = Sim::new(automaton, RunConfig::new(2, delta), violation_model()).run();
        let stats = mutex_stats(&result, Ticks::ZERO);
        assert!(
            stats.mutual_exclusion_violated,
            "the scripted timing failure must break Fischer; events: {:?}",
            result
                .obs
                .iter()
                .filter(|e| !matches!(e.obs, Obs::Note(..)))
                .collect::<Vec<_>>()
        );
        assert!(result.timing_failures > 0);
    }

    #[test]
    fn modelcheck_finds_the_violation() {
        // Under arbitrary timing failures (= all interleavings, delay
        // powerless) Fischer is UNSAFE — the explorer must find a
        // counterexample.
        let automaton = LockLoop::new(FischerSpec::new(2, 0, Ticks(100)), 1);
        let report = Explorer::new(automaton, 2).check(&SafetySpec::mutex());
        assert!(
            report.violation.is_some(),
            "model checker must find Fischer's timing-failure violation"
        );
    }

    #[test]
    fn modelcheck_symmetric_dpor_agrees_and_reduces() {
        // Same verdict as the naive explorer, from a reduced exploration
        // (DPOR + the full pid-symmetry group of Fischer's workload),
        // and the reduced counterexample still replays exactly.
        use tfr_modelcheck::{replay_schedule, DporExplorer};
        let automaton = LockLoop::new(FischerSpec::new(2, 0, Ticks(100)), 1);
        let naive = Explorer::new(automaton.clone(), 2).check(&SafetySpec::mutex());
        let reduced = DporExplorer::new(automaton.clone(), 2).check_symmetric(&SafetySpec::mutex());
        assert!(naive.violation.is_some());
        let cex = reduced
            .violation
            .expect("reduced explorer must also find it");
        assert_eq!(
            replay_schedule(&automaton, 2, &SafetySpec::mutex(), &cex.schedule),
            Some(cex.violation)
        );
    }

    #[test]
    fn native_lock_works_uncontended() {
        let lock = Fischer::new(2, Duration::from_micros(50));
        lock.lock(ProcId(0));
        lock.unlock(ProcId(0));
        lock.lock(ProcId(1));
        lock.unlock(ProcId(1));
    }

    #[test]
    fn native_lock_under_mild_contention() {
        // With a Δ that generously covers real store latency and no
        // preemption pressure (2 threads), Fischer behaves; this is a
        // liveness smoke test, not a safety proof.
        use std::sync::Arc;
        let lock = Arc::new(Fischer::new(2, Duration::from_micros(200)));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..50 {
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
    fn register_count_is_one() {
        assert_eq!(
            FischerSpec::new(8, 0, Ticks(1)).registers(),
            RegisterCount::Finite(1)
        );
    }

    #[test]
    fn metadata() {
        let f = FischerSpec::new(2, 0, Ticks(1));
        assert!(f.is_fast());
        assert_eq!(f.name(), "fischer");
    }
}
