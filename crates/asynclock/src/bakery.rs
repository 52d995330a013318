//! Lamport's bakery algorithm — the classic **starvation-free** (indeed
//! FIFO) asynchronous mutual exclusion algorithm.
//!
//! Not *fast* (every entry scans all `n` processes, even without
//! contention) and its tickets grow without bound under perpetual
//! contention; both weaknesses motivate the black-white variant
//! ([`crate::bw_bakery`]) and, in the paper's context, explain why a fast
//! lock is wanted for Algorithm 3's inner `A`. The bakery serves here as
//! the purely asynchronous baseline in the mutex experiments.
//!
//! Pseudocode (process *i*):
//!
//! ```text
//! choosing[i] := true
//! number[i]   := 1 + max(number\[0\], …, number[n−1])
//! choosing[i] := false
//! for j ≠ i:
//!     await choosing[j] = false
//!     await number[j] = 0 ∨ (number[j], j) > (number[i], i)
//! critical section
//! number[i] := 0
//! ```

use crate::native::Derived;
use crate::{LockSpec, Progress};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId};

/// Lexicographic ticket order: `(na, a) < (nb, b)`.
#[inline]
fn ticket_less(na: u64, a: usize, nb: u64, b: usize) -> bool {
    na < nb || (na == nb && a < b)
}

/// The bakery algorithm: the automaton every tier runs.
///
/// Register layout (from `base`): `choosing[j]` at `base + j`,
/// `number[j]` at `base + n + j` — `2n` registers total.
#[derive(Debug, Clone)]
pub struct BakerySpec {
    n: usize,
    base: u64,
}

impl BakerySpec {
    /// A spec lock for `n` processes with registers from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, base: u64) -> BakerySpec {
        assert!(n > 0, "at least one process is required");
        BakerySpec { n, base }
    }

    fn choosing(&self, j: usize) -> RegId {
        RegId(self.base + j as u64)
    }
    fn number(&self, j: usize) -> RegId {
        RegId(self.base + self.n as u64 + j as u64)
    }

    /// Next scan target after `j`, skipping the caller.
    fn next_j(&self, pid: ProcId, j: usize) -> usize {
        let mut k = j + 1;
        if k == pid.0 {
            k += 1;
        }
        k
    }

    /// First scan target for `pid`.
    fn first_j(&self, pid: ProcId) -> usize {
        if pid.0 == 0 {
            1
        } else {
            0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `choosing[i] := 1`.
    SetChoosing,
    /// Doorway max scan: read `number[j]`, accumulating the max.
    ReadMax {
        j: usize,
        max: u64,
    },
    /// `number[i] := max + 1`.
    WriteNumber {
        number: u64,
    },
    /// `choosing[i] := 0`.
    ClearChoosing {
        number: u64,
    },
    /// `await choosing[j] = 0`.
    AwaitChoosing {
        j: usize,
        number: u64,
    },
    /// `await number[j] = 0 ∨ (number[j], j) > (number[i], i)`.
    AwaitNumber {
        j: usize,
        number: u64,
    },
    Entered,
    /// exit: `number[i] := 0`.
    ExitNumber,
    Done,
}

/// Per-process state of [`BakerySpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BakeryState {
    pid: ProcId,
    pc: Pc,
}

impl Automaton for BakerySpec {
    type State = BakeryState;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        BakeryState { pid, pc: Pc::Idle }
    }

    #[inline(always)]
    fn next_action(&self, s: &Self::State) -> Action {
        match s.pc {
            Pc::SetChoosing => Action::Write(self.choosing(s.pid.0), 1),
            Pc::ReadMax { j, .. } => Action::Read(self.number(j)),
            Pc::WriteNumber { number } => Action::Write(self.number(s.pid.0), number),
            Pc::ClearChoosing { .. } => Action::Write(self.choosing(s.pid.0), 0),
            Pc::AwaitChoosing { j, .. } => Action::Read(self.choosing(j)),
            Pc::AwaitNumber { j, .. } => Action::Read(self.number(j)),
            Pc::ExitNumber => Action::Write(self.number(s.pid.0), 0),
            Pc::Idle | Pc::Entered | Pc::Done => Action::Halt,
        }
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, _obs: &mut Vec<Obs>) {
        let i = s.pid.0;
        s.pc = match s.pc {
            Pc::SetChoosing => Pc::ReadMax { j: 0, max: 0 },
            Pc::ReadMax { j, max } => {
                let max = max.max(observed.expect("read observes"));
                if j + 1 == self.n {
                    Pc::WriteNumber { number: max + 1 }
                } else {
                    Pc::ReadMax { j: j + 1, max }
                }
            }
            Pc::WriteNumber { number } => Pc::ClearChoosing { number },
            Pc::ClearChoosing { number } => {
                if self.n == 1 {
                    Pc::Entered
                } else {
                    Pc::AwaitChoosing {
                        j: self.first_j(s.pid),
                        number,
                    }
                }
            }
            Pc::AwaitChoosing { j, number } => {
                if observed == Some(0) {
                    Pc::AwaitNumber { j, number }
                } else {
                    Pc::AwaitChoosing { j, number }
                }
            }
            Pc::AwaitNumber { j, number } => {
                let nj = observed.expect("read observes");
                if nj == 0 || ticket_less(number, i, nj, j) {
                    let k = self.next_j(s.pid, j);
                    if k >= self.n {
                        Pc::Entered
                    } else {
                        Pc::AwaitChoosing { j: k, number }
                    }
                } else {
                    Pc::AwaitNumber { j, number }
                }
            }
            Pc::ExitNumber => Pc::Done,
            Pc::Idle | Pc::Entered | Pc::Done => unreachable!("apply in a parked phase"),
        };
    }
}

impl LockSpec for BakerySpec {
    fn start_entry(&self, s: &mut Self::State) {
        s.pc = Pc::SetChoosing;
    }

    fn begin_exit(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Entered, "begin_exit without holding the lock");
        s.pc = Pc::ExitNumber;
    }

    fn reset(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Done, "reset before the exit protocol finished");
        s.pc = Pc::Idle;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn registers(&self) -> RegisterCount {
        RegisterCount::Finite(2 * self.n as u64)
    }

    fn progress(&self) -> Progress {
        Progress::StarvationFree
    }

    fn is_fast(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "bakery"
    }
}

/// The bakery algorithm on real threads: [`BakerySpec`] under the native
/// driver, over registers of its own.
pub type Bakery = Derived<BakerySpec>;

impl Bakery {
    /// A lock for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Bakery {
        Derived::of(BakerySpec::new(n, 0))
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

    #[test]
    fn ticket_order_is_total_lexicographic() {
        assert!(ticket_less(1, 0, 2, 1));
        assert!(ticket_less(1, 0, 1, 1));
        assert!(!ticket_less(1, 1, 1, 0));
        assert!(!ticket_less(2, 0, 1, 1));
    }

    #[test]
    fn native_two_threads() {
        testutil::native_lock_smoke(Arc::new(Bakery::new(2)), 2, 20_000);
    }

    #[test]
    fn native_eight_threads() {
        testutil::native_lock_smoke(Arc::new(Bakery::new(8)), 8, 5_000);
    }

    #[test]
    fn spec_modelcheck_two_procs() {
        testutil::spec_lock_modelcheck(BakerySpec::new(2, 0), 2, 1);
    }

    #[test]
    fn spec_modelcheck_two_procs_two_iterations() {
        testutil::spec_lock_modelcheck(BakerySpec::new(2, 0), 2, 2);
    }

    #[test]
    fn spec_sim_no_failures() {
        for n in [1, 2, 4, 8] {
            testutil::spec_lock_sim(BakerySpec::new(n, 0), n, 10, 1000 + n as u64);
        }
    }

    #[test]
    fn spec_sim_with_timing_failures() {
        for n in [2, 4] {
            testutil::spec_lock_sim_async(BakerySpec::new(n, 0), n, 10, 2000 + n as u64);
        }
    }

    #[test]
    fn not_fast_solo_cost_scales_with_n() {
        // The bakery's doorway scans all n numbers even without
        // contention: solo cost grows linearly — exactly why it is not a
        // "fast" algorithm in the paper's sense.
        let mut costs = Vec::new();
        for n in [2usize, 4, 8] {
            let mut bank = ArrayBank::new();
            let run = run_solo(
                &LockLoop::new(BakerySpec::new(n, 0), 1),
                ProcId(0),
                &mut bank,
                200,
            );
            costs.push(run.shared_accesses);
        }
        assert!(
            costs[1] > costs[0] && costs[2] > costs[1],
            "cost must grow with n: {costs:?}"
        );
    }

    #[test]
    fn register_count_is_two_n() {
        assert_eq!(BakerySpec::new(6, 0).registers(), RegisterCount::Finite(12));
    }

    #[test]
    fn metadata() {
        let b = BakerySpec::new(2, 0);
        assert_eq!(b.progress(), Progress::StarvationFree);
        assert!(!b.is_fast());
        assert_eq!(b.name(), "bakery");
    }
}
