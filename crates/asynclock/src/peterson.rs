//! Peterson's two-process algorithm lifted to `n` processes by a
//! **tournament tree** — starvation-free, `O(log n)` accesses per entry
//! even without contention (hence *not* fast in the paper's sense).
//!
//! Each internal node of a complete binary tree is a two-process Peterson
//! lock; a process climbs from its leaf to the root, playing the side its
//! path bit dictates at every node, and releases the nodes top-down on
//! exit.
//!
//! Peterson's per-node protocol for side *s* ∈ {0, 1}:
//!
//! ```text
//! want[s] := true
//! turn    := s
//! await want[1−s] = false ∨ turn ≠ s
//! ```

use crate::native::Derived;
use crate::{LockSpec, Progress};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId};

/// Number of tree levels for `n` processes (0 for `n = 1`).
fn levels(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        (n - 1).ilog2() + 1
    }
}

/// The Peterson tournament lock: the automaton every tier runs.
///
/// Register layout (from `base`), for internal node `v ∈ 1..2^L`:
/// `want[v]\[0\]` at `base + 3(v−1)`, `want[v]\[1\]` at `base + 3(v−1) + 1`,
/// `turn[v]` at `base + 3(v−1) + 2` — `3(2^L − 1)` registers total.
#[derive(Debug, Clone)]
pub struct PetersonSpec {
    n: usize,
    base: u64,
    levels: u32,
}

impl PetersonSpec {
    /// A spec lock for `n` processes with registers from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, base: u64) -> PetersonSpec {
        assert!(n > 0, "at least one process is required");
        PetersonSpec {
            n,
            base,
            levels: levels(n),
        }
    }

    /// The internal node and side process `pid` plays at `level`
    /// (level 0 is adjacent to the leaves).
    fn seat(&self, pid: ProcId, level: u32) -> (u64, u64) {
        let leaf = (1u64 << self.levels) + pid.0 as u64;
        let node = leaf >> (level + 1);
        let side = (leaf >> level) & 1;
        (node, side)
    }

    fn want(&self, node: u64, side: u64) -> RegId {
        RegId(self.base + 3 * (node - 1) + side)
    }
    fn turn(&self, node: u64) -> RegId {
        RegId(self.base + 3 * (node - 1) + 2)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `want[s] := 1` at the node of `level`.
    SetWant {
        level: u32,
    },
    /// `turn := s`.
    SetTurn {
        level: u32,
    },
    /// read `want[1−s]`; zero → next level, else read `turn`.
    ReadWant {
        level: u32,
    },
    /// read `turn`; `≠ s` → next level, else re-read `want[1−s]`.
    ReadTurn {
        level: u32,
    },
    Entered,
    /// exit: `want[s] := 0`, from the root (`level = L−1`) down.
    Release {
        level: u32,
    },
    Done,
}

/// Per-process state of [`PetersonSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PetersonState {
    pid: ProcId,
    pc: Pc,
}

impl Automaton for PetersonSpec {
    type State = PetersonState;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        PetersonState { pid, pc: Pc::Idle }
    }

    #[inline(always)]
    fn next_action(&self, s: &Self::State) -> Action {
        match s.pc {
            Pc::SetWant { level } => {
                let (node, side) = self.seat(s.pid, level);
                Action::Write(self.want(node, side), 1)
            }
            Pc::SetTurn { level } => {
                let (node, side) = self.seat(s.pid, level);
                Action::Write(self.turn(node), side)
            }
            Pc::ReadWant { level } => {
                let (node, side) = self.seat(s.pid, level);
                Action::Read(self.want(node, 1 - side))
            }
            Pc::ReadTurn { level } => {
                let (node, _) = self.seat(s.pid, level);
                Action::Read(self.turn(node))
            }
            Pc::Release { level } => {
                let (node, side) = self.seat(s.pid, level);
                Action::Write(self.want(node, side), 0)
            }
            Pc::Idle | Pc::Entered | Pc::Done => Action::Halt,
        }
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, _obs: &mut Vec<Obs>) {
        let advance = |level: u32| {
            if level + 1 == self.levels {
                Pc::Entered
            } else {
                Pc::SetWant { level: level + 1 }
            }
        };
        s.pc = match s.pc {
            Pc::SetWant { level } => Pc::SetTurn { level },
            Pc::SetTurn { level } => Pc::ReadWant { level },
            Pc::ReadWant { level } => {
                if observed == Some(0) {
                    advance(level)
                } else {
                    Pc::ReadTurn { level }
                }
            }
            Pc::ReadTurn { level } => {
                let (_, side) = self.seat(s.pid, level);
                if observed == Some(side) {
                    Pc::ReadWant { level }
                } else {
                    advance(level)
                }
            }
            Pc::Release { level } => {
                if level == 0 {
                    Pc::Done
                } else {
                    Pc::Release { level: level - 1 }
                }
            }
            Pc::Idle | Pc::Entered | Pc::Done => unreachable!("apply in a parked phase"),
        };
    }
}

impl LockSpec for PetersonSpec {
    fn start_entry(&self, s: &mut Self::State) {
        s.pc = if self.levels == 0 {
            Pc::Entered
        } else {
            Pc::SetWant { level: 0 }
        };
    }

    fn begin_exit(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Entered, "begin_exit without holding the lock");
        s.pc = if self.levels == 0 {
            Pc::Done
        } else {
            Pc::Release {
                level: self.levels - 1,
            }
        };
    }

    fn reset(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Done, "reset before the exit protocol finished");
        s.pc = Pc::Idle;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn registers(&self) -> RegisterCount {
        RegisterCount::Finite(3 * ((1u64 << self.levels) - 1))
    }

    fn progress(&self) -> Progress {
        Progress::StarvationFree
    }

    fn is_fast(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "peterson-tournament"
    }
}

/// The Peterson tournament lock on real threads: [`PetersonSpec`] under
/// the native driver, over registers of its own.
pub type Peterson = Derived<PetersonSpec>;

impl Peterson {
    /// A lock for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Peterson {
        Derived::of(PetersonSpec::new(n, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use std::sync::Arc;

    #[test]
    fn level_count() {
        assert_eq!(levels(1), 0);
        assert_eq!(levels(2), 1);
        assert_eq!(levels(3), 2);
        assert_eq!(levels(4), 2);
        assert_eq!(levels(5), 3);
        assert_eq!(levels(8), 3);
        assert_eq!(levels(9), 4);
    }

    #[test]
    fn seats_are_disjoint_sides() {
        // At every node, the two children map to different sides: two
        // processes meeting there sit on the same side iff they arrive
        // from the same child subtree.
        let p = PetersonSpec::new(8, 0);
        for level in 0..3 {
            for i in 0..8 {
                let (node, side) = p.seat(ProcId(i), level);
                for j in 0..8 {
                    let (nj, sj) = p.seat(ProcId(j), level);
                    if i == j || node != nj {
                        continue;
                    }
                    let same_subtree = i >> level == j >> level;
                    assert_eq!(
                        side == sj,
                        same_subtree,
                        "level {level}: p{i} (side {side}) and p{j} (side {sj}) at node {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn native_two_threads() {
        testutil::native_lock_smoke(Arc::new(Peterson::new(2)), 2, 20_000);
    }

    #[test]
    fn native_eight_threads() {
        testutil::native_lock_smoke(Arc::new(Peterson::new(8)), 8, 5_000);
    }

    #[test]
    fn native_odd_process_count() {
        testutil::native_lock_smoke(Arc::new(Peterson::new(5)), 5, 5_000);
    }

    #[test]
    fn spec_modelcheck_two_procs() {
        testutil::spec_lock_modelcheck(PetersonSpec::new(2, 0), 2, 1);
    }

    #[test]
    fn spec_modelcheck_two_procs_two_iterations() {
        testutil::spec_lock_modelcheck(PetersonSpec::new(2, 0), 2, 2);
    }

    #[test]
    fn spec_modelcheck_three_procs() {
        testutil::spec_lock_modelcheck(PetersonSpec::new(3, 0), 3, 1);
    }

    #[test]
    fn spec_sim_no_failures() {
        for n in [1, 2, 4, 5, 8] {
            testutil::spec_lock_sim(PetersonSpec::new(n, 0), n, 10, 5000 + n as u64);
        }
    }

    #[test]
    fn spec_sim_with_timing_failures() {
        for n in [2, 4] {
            testutil::spec_lock_sim_async(PetersonSpec::new(n, 0), n, 10, 6000 + n as u64);
        }
    }

    #[test]
    fn register_count() {
        assert_eq!(
            PetersonSpec::new(2, 0).registers(),
            RegisterCount::Finite(3)
        );
        assert_eq!(
            PetersonSpec::new(4, 0).registers(),
            RegisterCount::Finite(9)
        );
        assert_eq!(
            PetersonSpec::new(8, 0).registers(),
            RegisterCount::Finite(21)
        );
    }

    #[test]
    fn metadata() {
        let p = PetersonSpec::new(2, 0);
        assert_eq!(p.progress(), Progress::StarvationFree);
        assert!(!p.is_fast());
        assert_eq!(p.name(), "peterson-tournament");
    }
}
