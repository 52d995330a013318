//! The black-white bakery algorithm (Taubenfeld, DISC 2004, reference
//! \[33\] of the paper) — a **starvation-free** bakery whose tickets are
//! **bounded** (numbers never exceed `n + 1`), fixing the classic bakery's
//! unbounded registers.
//!
//! Tickets carry a color bit; a shared `color` register names the *current*
//! generation. A process takes a ticket of the current color, numbered
//! above the tickets of its own color only. Different-color (older
//! generation) processes have priority while the shared color still equals
//! the newcomer's color; leaving the critical section flips the shared
//! color to the opposite of the leaver's ticket, retiring its generation.
//!
//! Pseudocode (process *i*; `ticket[j]` packs `(mycolor_j, number_j)` into
//! one register, written atomically):
//!
//! ```text
//! choosing[i] := true
//! c := color
//! ticket[i] := (c, 1 + max{number_j | color_j = c})
//! choosing[i] := false
//! for j ≠ i:
//!     await choosing[j] = false
//!     if color_j = c:  await number_j = 0 ∨ (number_j, j) > (number_i, i) ∨ color_j ≠ c
//!     else:            await number_j = 0 ∨ color ≠ c ∨ color_j = c
//! critical section
//! color := ¬c
//! ticket[i] := 0
//! ```
//!
//! Not *fast* (the doorway scans all `n` tickets); it is the
//! bounded-register starvation-free baseline in the experiments, and an
//! alternative inner `A` for Algorithm 3 (converges, but with a larger ψ
//! than the fast transformed lock).

use crate::native::Derived;
use crate::{LockSpec, Progress};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::space::RegisterSpace;
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{ProcId, RegId};

/// Packs an active ticket. `color` is 0 (black) or 1 (white).
#[inline]
fn pack(color: u64, number: u64) -> u64 {
    (number << 2) | (color << 1) | 1
}

/// Unpacks a ticket register: `None` if inactive, else `(color, number)`.
#[inline]
fn unpack(v: u64) -> Option<(u64, u64)> {
    if v & 1 == 0 {
        None
    } else {
        Some(((v >> 1) & 1, v >> 2))
    }
}

/// Lexicographic ticket order: `(na, a) < (nb, b)`.
#[inline]
fn ticket_less(na: u64, a: usize, nb: u64, b: usize) -> bool {
    na < nb || (na == nb && a < b)
}

/// The black-white bakery: the automaton every tier runs.
///
/// Register layout (from `base`): shared `color` at `base`,
/// `choosing[j]` at `base + 1 + j`, `ticket[j]` at `base + 1 + n + j` —
/// `2n + 1` registers total.
#[derive(Debug, Clone)]
pub struct BwBakerySpec {
    n: usize,
    base: u64,
}

impl BwBakerySpec {
    /// A spec lock for `n` processes with registers from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, base: u64) -> BwBakerySpec {
        assert!(n > 0, "at least one process is required");
        BwBakerySpec { n, base }
    }

    fn color(&self) -> RegId {
        RegId(self.base)
    }
    fn choosing(&self, j: usize) -> RegId {
        RegId(self.base + 1 + j as u64)
    }
    fn ticket(&self, j: usize) -> RegId {
        RegId(self.base + 1 + self.n as u64 + j as u64)
    }

    fn next_j(&self, pid: ProcId, j: usize) -> usize {
        let mut k = j + 1;
        if k == pid.0 {
            k += 1;
        }
        k
    }

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
    /// `c := color`.
    ReadColor,
    /// Doorway max scan over same-color tickets.
    ReadMax {
        c: u64,
        j: usize,
        max: u64,
    },
    /// `ticket[i] := (c, max + 1)`.
    WriteTicket {
        c: u64,
        number: u64,
    },
    /// `choosing[i] := 0`.
    ClearChoosing {
        c: u64,
        number: u64,
    },
    /// `await choosing[j] = 0`.
    AwaitChoosing {
        c: u64,
        number: u64,
        j: usize,
    },
    /// Read `ticket[j]` and dispatch on its color.
    CheckTicket {
        c: u64,
        number: u64,
        j: usize,
    },
    /// Different-color `j`: read the shared `color`; pass if it moved away
    /// from `c`, else re-check `ticket[j]`.
    ReadSharedColor {
        c: u64,
        number: u64,
        j: usize,
    },
    Entered {
        c: u64,
    },
    /// exit: `color := ¬c`.
    FlipColor {
        c: u64,
    },
    /// exit: `ticket[i] := 0`.
    ClearTicket,
    Done,
}

/// Per-process state of [`BwBakerySpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BwBakeryState {
    pid: ProcId,
    pc: Pc,
}

impl Automaton for BwBakerySpec {
    type State = BwBakeryState;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        BwBakeryState { pid, pc: Pc::Idle }
    }

    #[inline(always)]
    fn next_action(&self, s: &Self::State) -> Action {
        match s.pc {
            Pc::SetChoosing => Action::Write(self.choosing(s.pid.0), 1),
            Pc::ReadColor => Action::Read(self.color()),
            Pc::ReadMax { j, .. } => Action::Read(self.ticket(j)),
            Pc::WriteTicket { c, number } => Action::Write(self.ticket(s.pid.0), pack(c, number)),
            Pc::ClearChoosing { .. } => Action::Write(self.choosing(s.pid.0), 0),
            Pc::AwaitChoosing { j, .. } => Action::Read(self.choosing(j)),
            Pc::CheckTicket { j, .. } => Action::Read(self.ticket(j)),
            Pc::ReadSharedColor { .. } => Action::Read(self.color()),
            Pc::FlipColor { c } => Action::Write(self.color(), 1 - c),
            Pc::ClearTicket => Action::Write(self.ticket(s.pid.0), 0),
            Pc::Idle | Pc::Entered { .. } | Pc::Done => Action::Halt,
        }
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, _obs: &mut Vec<Obs>) {
        let i = s.pid.0;
        s.pc = match s.pc {
            Pc::SetChoosing => Pc::ReadColor,
            Pc::ReadColor => {
                let c = observed.expect("read observes") & 1;
                Pc::ReadMax { c, j: 0, max: 0 }
            }
            Pc::ReadMax { c, j, max } => {
                let mut max = max;
                if let Some((tc, tn)) = unpack(observed.expect("read observes")) {
                    if tc == c {
                        max = max.max(tn);
                    }
                }
                if j + 1 == self.n {
                    Pc::WriteTicket { c, number: max + 1 }
                } else {
                    Pc::ReadMax { c, j: j + 1, max }
                }
            }
            Pc::WriteTicket { c, number } => Pc::ClearChoosing { c, number },
            Pc::ClearChoosing { c, number } => {
                if self.n == 1 {
                    Pc::Entered { c }
                } else {
                    Pc::AwaitChoosing {
                        c,
                        number,
                        j: self.first_j(s.pid),
                    }
                }
            }
            Pc::AwaitChoosing { c, number, j } => {
                if observed == Some(0) {
                    Pc::CheckTicket { c, number, j }
                } else {
                    Pc::AwaitChoosing { c, number, j }
                }
            }
            Pc::CheckTicket { c, number, j } => {
                match unpack(observed.expect("read observes")) {
                    // Inactive ticket: j poses no conflict.
                    None => self.advance(s.pid, c, number, j),
                    Some((tc, tn)) => {
                        if tc == c {
                            // Same generation: bakery order decides.
                            if ticket_less(number, i, tn, j) {
                                self.advance(s.pid, c, number, j)
                            } else {
                                Pc::CheckTicket { c, number, j }
                            }
                        } else {
                            // Older/newer generation: consult the shared color.
                            Pc::ReadSharedColor { c, number, j }
                        }
                    }
                }
            }
            Pc::ReadSharedColor { c, number, j } => {
                let shared = observed.expect("read observes") & 1;
                if shared != c {
                    // The shared color moved past my generation: I am now
                    // the older generation and take priority over j.
                    self.advance(s.pid, c, number, j)
                } else {
                    // j's generation is older than mine: wait for j.
                    Pc::CheckTicket { c, number, j }
                }
            }
            Pc::FlipColor { .. } => Pc::ClearTicket,
            Pc::ClearTicket => Pc::Done,
            Pc::Idle | Pc::Entered { .. } | Pc::Done => unreachable!("apply in a parked phase"),
        };
    }
}

impl LockSpec for BwBakerySpec {
    fn start_entry(&self, s: &mut Self::State) {
        s.pc = Pc::SetChoosing;
    }

    fn begin_exit(&self, s: &mut Self::State) {
        match s.pc {
            Pc::Entered { c } => s.pc = Pc::FlipColor { c },
            _ => unreachable!("begin_exit without holding the lock"),
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
        RegisterCount::Finite(2 * self.n as u64 + 1)
    }

    fn progress(&self) -> Progress {
        Progress::StarvationFree
    }

    fn is_fast(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "bw-bakery"
    }
}

impl BwBakerySpec {
    /// Moves the scan past `j`, entering if the scan is complete.
    fn advance(&self, pid: ProcId, c: u64, number: u64, j: usize) -> Pc {
        let k = self.next_j(pid, j);
        if k >= self.n {
            Pc::Entered { c }
        } else {
            Pc::AwaitChoosing { c, number, j: k }
        }
    }
}

/// The black-white bakery on real threads: [`BwBakerySpec`] under the
/// native driver, over registers of its own.
pub type BwBakery = Derived<BwBakerySpec>;

impl BwBakery {
    /// A lock for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> BwBakery {
        Derived::of(BwBakerySpec::new(n, 0))
    }

    /// Largest ticket number currently outstanding (for the
    /// bounded-registers test).
    pub fn max_outstanding_number(&self) -> u64 {
        (0..self.spec().n)
            .filter_map(|j| unpack(self.space().read(self.spec().ticket(j).0)))
            .map(|(_, n)| n)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use crate::RawLock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn pack_unpack_round_trip() {
        assert_eq!(unpack(0), None);
        for c in [0u64, 1] {
            for n in [1u64, 5, 1000] {
                assert_eq!(unpack(pack(c, n)), Some((c, n)));
            }
        }
    }

    #[test]
    fn native_two_threads() {
        testutil::native_lock_smoke(Arc::new(BwBakery::new(2)), 2, 20_000);
    }

    #[test]
    fn native_eight_threads() {
        testutil::native_lock_smoke(Arc::new(BwBakery::new(8)), 8, 5_000);
    }

    #[test]
    fn spec_modelcheck_two_procs() {
        testutil::spec_lock_modelcheck(BwBakerySpec::new(2, 0), 2, 1);
    }

    #[test]
    fn spec_modelcheck_two_procs_two_iterations() {
        testutil::spec_lock_modelcheck(BwBakerySpec::new(2, 0), 2, 2);
    }

    #[test]
    fn spec_sim_no_failures() {
        for n in [1, 2, 4, 8] {
            testutil::spec_lock_sim(BwBakerySpec::new(n, 0), n, 10, 3000 + n as u64);
        }
    }

    #[test]
    fn spec_sim_with_timing_failures() {
        for n in [2, 4] {
            testutil::spec_lock_sim_async(BwBakerySpec::new(n, 0), n, 10, 4000 + n as u64);
        }
    }

    #[test]
    fn tickets_stay_bounded_under_contention() {
        // The whole point of the black-white bakery: ticket numbers never
        // exceed n + 1 no matter how long contention lasts (classic bakery
        // numbers grow forever under perpetual contention).
        let n = 4;
        let lock = Arc::new(BwBakery::new(n));
        let observed_max = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let observed_max = Arc::clone(&observed_max);
                std::thread::spawn(move || {
                    for _ in 0..3_000 {
                        lock.lock(tfr_registers::ProcId(i));
                        observed_max.fetch_max(lock.max_outstanding_number(), Ordering::SeqCst);
                        lock.unlock(tfr_registers::ProcId(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let max = observed_max.load(Ordering::SeqCst);
        assert!(
            max <= n as u64 + 1,
            "ticket number {max} exceeds bound n+1 = {}",
            n + 1
        );
        assert!(max >= 1);
    }

    #[test]
    fn register_count_is_two_n_plus_one() {
        assert_eq!(
            BwBakerySpec::new(6, 0).registers(),
            RegisterCount::Finite(13)
        );
    }

    #[test]
    fn metadata() {
        let b = BwBakerySpec::new(2, 0);
        assert_eq!(b.progress(), Progress::StarvationFree);
        assert!(!b.is_fast());
        assert_eq!(b.name(), "bw-bakery");
    }
}
