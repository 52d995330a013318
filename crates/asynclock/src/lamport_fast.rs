//! Lamport's fast mutual exclusion algorithm (Lamport, *A Fast Mutual
//! Exclusion Algorithm*, TOCS 1987) — **fast** (7 shared accesses in the
//! absence of contention) and **deadlock-free**, but *not*
//! starvation-free.
//!
//! This is the paper's reference point for Theorem 3.2: plugging this lock
//! (unmodified) into Algorithm 3 yields a mutex that is safe but not
//! guaranteed to *converge* after timing failures, because a process can
//! starve in this lock's entry code under contention.
//!
//! Pseudocode (process *i*, registers `x`, `y`, boolean array `b[1..n]`):
//!
//! ```text
//! start: b[i] := true
//!        x := i
//!        if y ≠ 0 then b[i] := false; await y = 0; goto start fi
//!        y := i
//!        if x ≠ i then b[i] := false
//!                      for j := 1 to n do await ¬b[j] od
//!                      if y ≠ i then await y = 0; goto start fi
//!        fi
//!        critical section
//!        y := 0
//!        b[i] := false
//! ```

use crate::native::Derived;
use crate::{LockSpec, Progress};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId};

/// Lamport's fast mutex: the automaton every tier runs.
///
/// Register layout (from `base`): `x` at `base`, `y` at `base+1`,
/// `b[j]` at `base+2+j` — `n + 2` registers total.
#[derive(Debug, Clone)]
pub struct LamportFastSpec {
    n: usize,
    base: u64,
}

impl LamportFastSpec {
    /// A spec lock for `n` processes with registers from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, base: u64) -> LamportFastSpec {
        assert!(n > 0, "at least one process is required");
        LamportFastSpec { n, base }
    }

    fn x(&self) -> RegId {
        RegId(self.base)
    }
    fn y(&self) -> RegId {
        RegId(self.base + 1)
    }
    fn b(&self, j: usize) -> RegId {
        RegId(self.base + 2 + j as u64)
    }
}

/// Program counter of [`LamportFastSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `b[i] := true` (the `start` label).
    SetB,
    /// `x := i`.
    SetX,
    /// read `y`; zero → `SetY`, nonzero → `ClearB1`.
    ReadY1,
    /// `b[i] := false` before waiting for `y = 0`.
    ClearB1,
    /// `await y = 0`, then restart.
    AwaitY1,
    /// `y := i`.
    SetY,
    /// read `x`; `= i` → entered, else `ClearB2`.
    ReadX,
    /// `b[i] := false` before the scan.
    ClearB2,
    /// `await ¬b[j]` for `j = 0..n`.
    ScanB(usize),
    /// read `y`; `= i` → entered, else `AwaitY2`.
    ReadY2,
    /// `await y = 0`, then restart.
    AwaitY2,
    Entered,
    /// exit: `y := 0`.
    ExitY,
    /// exit: `b[i] := false`.
    ExitB,
    Done,
}

/// Per-process state of [`LamportFastSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LamportFastState {
    pid: ProcId,
    pc: Pc,
}

impl Automaton for LamportFastSpec {
    type State = LamportFastState;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        LamportFastState { pid, pc: Pc::Idle }
    }

    #[inline(always)]
    fn next_action(&self, s: &Self::State) -> Action {
        let tok = s.pid.token();
        match s.pc {
            Pc::SetB => Action::Write(self.b(s.pid.0), 1),
            Pc::SetX => Action::Write(self.x(), tok),
            Pc::ReadY1 | Pc::AwaitY1 | Pc::ReadY2 | Pc::AwaitY2 => Action::Read(self.y()),
            Pc::ClearB1 | Pc::ClearB2 => Action::Write(self.b(s.pid.0), 0),
            Pc::SetY => Action::Write(self.y(), tok),
            Pc::ReadX => Action::Read(self.x()),
            Pc::ScanB(j) => Action::Read(self.b(j)),
            Pc::ExitY => Action::Write(self.y(), 0),
            Pc::ExitB => Action::Write(self.b(s.pid.0), 0),
            Pc::Idle | Pc::Entered | Pc::Done => Action::Halt,
        }
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, _obs: &mut Vec<Obs>) {
        let tok = s.pid.token();
        s.pc = match s.pc {
            Pc::SetB => Pc::SetX,
            Pc::SetX => Pc::ReadY1,
            Pc::ReadY1 => {
                if observed == Some(0) {
                    Pc::SetY
                } else {
                    Pc::ClearB1
                }
            }
            Pc::ClearB1 => Pc::AwaitY1,
            Pc::AwaitY1 => {
                if observed == Some(0) {
                    Pc::SetB
                } else {
                    Pc::AwaitY1
                }
            }
            Pc::SetY => Pc::ReadX,
            Pc::ReadX => {
                if observed == Some(tok) {
                    Pc::Entered
                } else {
                    Pc::ClearB2
                }
            }
            Pc::ClearB2 => Pc::ScanB(0),
            Pc::ScanB(j) => {
                if observed == Some(0) {
                    if j + 1 == self.n {
                        Pc::ReadY2
                    } else {
                        Pc::ScanB(j + 1)
                    }
                } else {
                    Pc::ScanB(j)
                }
            }
            Pc::ReadY2 => {
                if observed == Some(tok) {
                    Pc::Entered
                } else {
                    Pc::AwaitY2
                }
            }
            Pc::AwaitY2 => {
                if observed == Some(0) {
                    Pc::SetB
                } else {
                    Pc::AwaitY2
                }
            }
            Pc::ExitY => Pc::ExitB,
            Pc::ExitB => Pc::Done,
            Pc::Idle | Pc::Entered | Pc::Done => unreachable!("apply in a parked phase"),
        };
    }
}

impl LockSpec for LamportFastSpec {
    fn start_entry(&self, s: &mut Self::State) {
        s.pc = Pc::SetB;
    }

    fn begin_exit(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Entered, "begin_exit without holding the lock");
        s.pc = Pc::ExitY;
    }

    fn reset(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Done, "reset before the exit protocol finished");
        s.pc = Pc::Idle;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn registers(&self) -> RegisterCount {
        RegisterCount::Finite(self.n as u64 + 2)
    }

    fn progress(&self) -> Progress {
        Progress::DeadlockFree
    }

    fn is_fast(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "lamport-fast"
    }
}

/// Lamport's fast mutex on real threads: [`LamportFastSpec`] under the
/// native driver, over registers of its own.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tfr_asynclock::lamport_fast::LamportFast;
/// use tfr_asynclock::RawLock;
/// use tfr_registers::ProcId;
///
/// let lock = Arc::new(LamportFast::new(2));
/// let l2 = Arc::clone(&lock);
/// let t = std::thread::spawn(move || {
///     l2.lock(ProcId(1));
///     l2.unlock(ProcId(1));
/// });
/// lock.lock(ProcId(0));
/// lock.unlock(ProcId(0));
/// t.join().unwrap();
/// ```
pub type LamportFast = Derived<LamportFastSpec>;

impl LamportFast {
    /// A lock for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> LamportFast {
        Derived::of(LamportFastSpec::new(n, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use crate::workload::LockLoop;
    use std::sync::Arc;
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::spec::run_solo;
    use tfr_registers::Ticks;

    #[test]
    fn native_two_threads() {
        testutil::native_lock_smoke(Arc::new(LamportFast::new(2)), 2, 20_000);
    }

    #[test]
    fn native_eight_threads() {
        testutil::native_lock_smoke(Arc::new(LamportFast::new(8)), 8, 5_000);
    }

    #[test]
    fn spec_modelcheck_two_procs() {
        testutil::spec_lock_modelcheck(LamportFastSpec::new(2, 0), 2, 1);
    }

    #[test]
    fn spec_modelcheck_two_procs_two_iterations() {
        testutil::spec_lock_modelcheck(LamportFastSpec::new(2, 0), 2, 2);
    }

    #[test]
    fn spec_modelcheck_three_procs() {
        testutil::spec_lock_modelcheck(LamportFastSpec::new(3, 0), 3, 1);
    }

    #[test]
    fn spec_sim_no_failures() {
        for n in [1, 2, 4, 8] {
            testutil::spec_lock_sim(LamportFastSpec::new(n, 0), n, 10, 42 + n as u64);
        }
    }

    #[test]
    fn spec_sim_with_timing_failures() {
        for n in [2, 4] {
            testutil::spec_lock_sim_async(LamportFastSpec::new(n, 0), n, 10, 7 + n as u64);
        }
    }

    #[test]
    fn fast_path_is_seven_accesses() {
        // Lamport's headline property: a solo process takes 7 shared
        // accesses per acquire/release cycle (5 entry + 2 exit).
        let lock = LamportFastSpec::new(4, 0);
        let mut bank = ArrayBank::new();
        let run = run_solo(
            &LockLoop::new(lock, 1)
                .cs_ticks(Ticks(1))
                .ncs_ticks(Ticks(1)),
            ProcId(2),
            &mut bank,
            100,
        );
        assert_eq!(
            run.shared_accesses, 7,
            "b:=1, x:=i, read y, y:=i, read x, y:=0, b:=0"
        );
    }

    #[test]
    fn register_count_is_n_plus_two() {
        assert_eq!(
            LamportFastSpec::new(5, 0).registers(),
            RegisterCount::Finite(7)
        );
    }

    #[test]
    fn metadata() {
        let l = LamportFastSpec::new(2, 0);
        assert_eq!(l.progress(), Progress::DeadlockFree);
        assert!(l.is_fast());
        assert_eq!(l.name(), "lamport-fast");
    }

    #[test]
    fn base_offset_relocates_registers() {
        let lock = LamportFastSpec::new(2, 100);
        let mut bank = ArrayBank::new();
        let run = run_solo(&LockLoop::new(lock, 1), ProcId(0), &mut bank, 100);
        assert_eq!(run.shared_accesses, 7);
        // Registers 0..100 untouched.
        for r in 0..100 {
            assert_eq!(tfr_registers::bank::RegisterBank::read(&bank, RegId(r)), 0);
        }
    }
}
