//! [`LockLoop`]: turns any [`LockSpec`] into a complete
//! [`Automaton`] running the canonical mutual exclusion workload —
//! remainder section, entry code, critical section, exit code, repeated a
//! fixed number of times.
//!
//! The loop emits the four phase events ([`Obs::EnterTrying`],
//! [`Obs::EnterCritical`], [`Obs::ExitCritical`], [`Obs::EnterRemainder`])
//! that both the simulator's mutex metrics and the model checker's mutual
//! exclusion monitor consume, and only those: a lock step's own events
//! (its timing checks, [`Obs::Checked`]) are the native lock's.

use crate::LockSpec;
use tfr_registers::spec::{Action, Automaton, Obs, Perm, Symmetric};
use tfr_registers::{ProcId, RegId, Ticks};

/// The canonical mutual exclusion workload over a lock.
#[derive(Debug, Clone)]
pub struct LockLoop<L> {
    lock: L,
    iterations: u64,
    cs_ticks: Ticks,
    ncs_ticks: Ticks,
}

impl<L: LockSpec> LockLoop<L> {
    /// `iterations` acquisitions per process; the critical and non-critical
    /// sections default to 1 tick each.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(lock: L, iterations: u64) -> LockLoop<L> {
        assert!(
            iterations > 0,
            "a lock workload needs at least one iteration"
        );
        LockLoop {
            lock,
            iterations,
            cs_ticks: Ticks(1),
            ncs_ticks: Ticks(1),
        }
    }

    /// Sets the critical-section duration.
    pub fn cs_ticks(mut self, t: Ticks) -> LockLoop<L> {
        self.cs_ticks = t;
        self
    }

    /// Sets the remainder-section duration.
    pub fn ncs_ticks(mut self, t: Ticks) -> LockLoop<L> {
        self.ncs_ticks = t;
        self
    }

    /// The wrapped lock.
    pub fn lock(&self) -> &L {
        &self.lock
    }
}

/// Where a process is in its workload cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Delaying in the remainder section.
    Remainder,
    /// Executing the lock's entry protocol.
    Trying,
    /// Delaying in the critical section.
    Critical,
    /// Executing the lock's exit protocol.
    Exiting,
    /// Workload complete.
    Finished,
}

/// Per-process state of [`LockLoop`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopState<S> {
    lock: S,
    phase: Phase,
    left: u64,
}

impl<L: LockSpec> Automaton for LockLoop<L> {
    type State = LoopState<L::State>;

    fn init(&self, pid: ProcId) -> Self::State {
        LoopState {
            lock: self.lock.init(pid),
            phase: Phase::Remainder,
            left: self.iterations,
        }
    }

    fn next_action(&self, s: &Self::State) -> Action {
        match s.phase {
            Phase::Remainder => Action::Delay(self.ncs_ticks),
            Phase::Critical => Action::Delay(self.cs_ticks),
            Phase::Finished => Action::Halt,
            Phase::Trying | Phase::Exiting => {
                let action = self.lock.next_action(&s.lock);
                if let Action::Delay(_) = action {
                    assert!(
                        self.lock.opaque(&s.lock).is_none(),
                        "an opaque inner lock has no register automaton to step"
                    );
                }
                action
            }
        }
    }

    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        match s.phase {
            Phase::Remainder => {
                obs.push(Obs::EnterTrying);
                self.lock.start_entry(&mut s.lock);
                s.phase = Phase::Trying;
            }
            Phase::Trying | Phase::Exiting => {
                let events = obs.len();
                self.lock.apply(&mut s.lock, observed, obs);
                obs.truncate(events);
            }
            Phase::Critical => {
                obs.push(Obs::ExitCritical);
                self.lock.begin_exit(&mut s.lock);
                s.phase = Phase::Exiting;
            }
            Phase::Finished => unreachable!("halted workload stepped"),
        }
        self.drain_markers(s, obs);
    }
}

/// The workload adds no pid-dependence of its own (`phase`/`left` are
/// pid-free, the CS/NCS durations are global), so a loop over a
/// [`Symmetric`] lock is a [`Symmetric`] automaton: relabelling a loop
/// state is relabelling its lock state.
impl<L: LockSpec + Symmetric> Symmetric for LockLoop<L> {
    fn permute_state(&self, s: &Self::State, perm: &Perm) -> Self::State {
        LoopState {
            lock: self.lock.permute_state(&s.lock, perm),
            phase: s.phase,
            left: s.left,
        }
    }

    fn permute_reg(&self, reg: RegId, perm: &Perm) -> RegId {
        self.lock.permute_reg(reg, perm)
    }

    fn permute_value(&self, reg: RegId, value: u64, perm: &Perm) -> u64 {
        self.lock.permute_value(reg, value, perm)
    }
}

impl<L: LockSpec> LockLoop<L> {
    /// Ends a lock phase whose state has halted (entered, or done),
    /// advancing through (possibly zero-length) protocol phases until the
    /// next real action.
    fn drain_markers(&self, s: &mut LoopState<L::State>, obs: &mut Vec<Obs>) {
        match s.phase {
            Phase::Trying if self.lock.is_halted(&s.lock) => {
                obs.push(Obs::EnterCritical);
                s.phase = Phase::Critical;
            }
            Phase::Exiting if self.lock.is_halted(&s.lock) => {
                obs.push(Obs::EnterRemainder);
                self.lock.reset(&mut s.lock);
                s.left -= 1;
                s.phase = if s.left == 0 {
                    Phase::Finished
                } else {
                    Phase::Remainder
                };
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Progress;
    use tfr_registers::accounting::RegisterCount;
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::spec::run_solo;
    use tfr_registers::RegId;

    /// A trivial test-and-set-style spec lock (unsafe under contention but
    /// fine for exercising the loop plumbing with one process): write 1 to
    /// the flag to enter, write 0 to exit.
    #[derive(Debug, Clone)]
    struct FlagLock;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum FlagState {
        Idle,
        SetFlag,
        Entered,
        ClearFlag,
        Done,
    }

    impl Automaton for FlagLock {
        type State = FlagState;
        fn init(&self, _pid: ProcId) -> FlagState {
            FlagState::Idle
        }
        fn next_action(&self, s: &FlagState) -> Action {
            match s {
                FlagState::SetFlag => Action::Write(RegId(0), 1),
                FlagState::ClearFlag => Action::Write(RegId(0), 0),
                FlagState::Entered | FlagState::Done | FlagState::Idle => Action::Halt,
            }
        }
        fn apply(&self, s: &mut FlagState, _observed: Option<u64>, _obs: &mut Vec<Obs>) {
            *s = match *s {
                FlagState::SetFlag => FlagState::Entered,
                FlagState::ClearFlag => FlagState::Done,
                ref other => other.clone(),
            };
        }
    }

    impl LockSpec for FlagLock {
        fn start_entry(&self, s: &mut FlagState) {
            *s = FlagState::SetFlag;
        }
        fn begin_exit(&self, s: &mut FlagState) {
            *s = FlagState::ClearFlag;
        }
        fn reset(&self, s: &mut FlagState) {
            *s = FlagState::Idle;
        }
        fn n(&self) -> usize {
            1
        }
        fn registers(&self) -> RegisterCount {
            RegisterCount::Finite(1)
        }
        fn progress(&self) -> Progress {
            Progress::DeadlockFree
        }
        fn is_fast(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "flag"
        }
    }

    #[test]
    fn loop_emits_balanced_phase_events() {
        let mut bank = ArrayBank::new();
        let run = run_solo(&LockLoop::new(FlagLock, 3), ProcId(0), &mut bank, 100);
        let trying = run.obs.iter().filter(|o| **o == Obs::EnterTrying).count();
        let enter = run.obs.iter().filter(|o| **o == Obs::EnterCritical).count();
        let exit = run.obs.iter().filter(|o| **o == Obs::ExitCritical).count();
        let rem = run
            .obs
            .iter()
            .filter(|o| **o == Obs::EnterRemainder)
            .count();
        assert_eq!((trying, enter, exit, rem), (3, 3, 3, 3));
    }

    #[test]
    fn loop_event_order_is_cyclic() {
        let mut bank = ArrayBank::new();
        let run = run_solo(&LockLoop::new(FlagLock, 2), ProcId(0), &mut bank, 100);
        let expected = [
            Obs::EnterTrying,
            Obs::EnterCritical,
            Obs::ExitCritical,
            Obs::EnterRemainder,
        ];
        for (i, o) in run.obs.iter().enumerate() {
            assert_eq!(*o, expected[i % 4], "event {i} out of order");
        }
    }

    #[test]
    fn loop_counts_shared_accesses() {
        let mut bank = ArrayBank::new();
        let run = run_solo(&LockLoop::new(FlagLock, 5), ProcId(0), &mut bank, 100);
        // Per iteration: 1 entry write + 1 exit write.
        assert_eq!(run.shared_accesses, 10);
        // Per iteration: 1 remainder delay + 1 CS delay.
        assert_eq!(run.delays, 10);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = LockLoop::new(FlagLock, 0);
    }
}
