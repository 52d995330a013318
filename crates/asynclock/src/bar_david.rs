//! A starvation-free transformation: wraps any **deadlock-free** mutual
//! exclusion algorithm and yields a **starvation-free** one, preserving the
//! fast (constant-steps-without-contention) path.
//!
//! §3.3 of the paper calls for exactly this: Algorithm 3 needs an inner
//! lock `A` that is both *fast* and *starvation-free*, and points at
//! Bar-David's transformation of Lamport's fast algorithm (Taubenfeld's
//! book, Problem 2.34) as the simple way to obtain one. This module
//! implements a transformation in that spirit.
//!
//! # Construction
//!
//! Shared: `interested[0..n]` (bits) and `turn` (a process index), plus the
//! inner lock `DF`'s registers.
//!
//! ```text
//! entry(i):  interested[i] := true
//!            await (turn = i ∨ ¬interested[turn])      // the gate
//!            DF.entry(i)
//! exit(i):   interested[i] := false                     // still inside DF's CS
//!            if ¬interested[turn] then turn := turn + 1 mod n fi
//!            DF.exit(i)
//! ```
//!
//! # Why this is starvation-free (given `DF` deadlock-free)
//!
//! All `turn` updates happen **before `DF.exit`**, i.e. inside `DF`'s
//! critical section, so they are totally ordered — no stale concurrent
//! overwrites of `turn`.
//!
//! Suppose process `k` is trying forever, so `interested[k]` is eventually
//! true forever.
//!
//! 1. *`turn` cannot stall on a non-`k` index forever.* If `turn = t ≠ k`
//!    stays fixed, exiting processes must keep reading `interested[t]` as
//!    true, so `t` is trying or in the CS; `t` itself passes the gate
//!    (`turn = t`), newcomers other than `t` are eventually blocked at the
//!    gate, the finitely many processes already past it drain (each
//!    re-entry is blocked), and `DF`'s deadlock-freedom then admits `t` —
//!    whose exit clears `interested[t]` and advances `turn`. Contradiction.
//! 2. *`turn` advances by single steps*, so it reaches `k` while
//!    `interested[k]` is true.
//! 3. *Once `turn = k`, it stays `k` until `k` itself exits*: every other
//!    exiter reads `interested[turn]` = `interested[k]` = true and leaves
//!    `turn` alone. The gate now blocks new entrants, the stragglers past
//!    the gate drain as above, and `DF`'s deadlock-freedom admits `k`.
//!
//! The gate costs 3 extra shared accesses on entry and 3–4 on exit — the
//! fast path stays constant, so the transformation preserves *fast*.

use crate::lamport_fast::{LamportFast, LamportFastSpec};
use crate::native::{Derived, Opaque};
use crate::{LockSpec, Progress, RawLock};
use tfr_registers::accounting::RegisterCount;
use tfr_registers::spec::{Action, Automaton, Label, Obs};
use tfr_registers::{ProcId, RegId};

/// The starvation-free transformation, generic over the inner lock: the
/// automaton every tier runs. Over a spec-form inner lock it is a
/// closed automaton for the simulator and the model checker; over
/// [`Opaque`] its own steps run natively around any [`RawLock`].
///
/// Register layout (from `base`): `interested[j]` at `base + j`, `turn` at
/// `base + n`; the inner lock's registers start at `base + n + 1`
/// (construct the inner lock with that base).
#[derive(Debug, Clone)]
pub struct StarvationFreeSpec<L> {
    inner: L,
    n: usize,
    base: u64,
}

impl<L: LockSpec> StarvationFreeSpec<L> {
    /// Wraps `inner` (which must be configured for the same `n` and with
    /// its register base at `base + n + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `inner.n() != n`.
    pub fn new(inner: L, n: usize, base: u64) -> StarvationFreeSpec<L> {
        assert!(n > 0, "at least one process is required");
        assert_eq!(
            inner.n(),
            n,
            "inner lock must be configured for the same process count"
        );
        StarvationFreeSpec { inner, n, base }
    }

    /// Convenience: the paper's recommended `A` — Lamport's fast mutex
    /// under this transformation — with registers from `base`.
    pub fn over_lamport_fast(n: usize, base: u64) -> StarvationFreeSpec<LamportFastSpec> {
        let inner = LamportFastSpec::new(n, base + n as u64 + 1);
        StarvationFreeSpec::new(inner, n, base)
    }

    fn interested(&self, j: usize) -> RegId {
        RegId(self.base + j as u64)
    }
    fn turn(&self) -> RegId {
        RegId(self.base + self.n as u64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// entry: `interested[i] := 1`.
    SetInterested,
    /// gate: read `turn`.
    GateReadTurn,
    /// gate: read `interested[t]`; 0 → pass, else re-read `turn`.
    GateReadInterested {
        t: usize,
    },
    /// delegating to the inner lock's entry protocol.
    Inner,
    /// exit: `interested[i] := 0`.
    ClearInterested,
    /// exit: read `turn`.
    ExitReadTurn,
    /// exit: read `interested[t]`; 0 → advance `turn`, else skip.
    ExitReadInterested {
        t: usize,
    },
    /// exit: `turn := (t + 1) mod n`.
    AdvanceTurn {
        t: usize,
    },
    /// delegating to the inner lock's exit protocol.
    InnerExit,
}

/// Per-process state of [`StarvationFreeSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StarvationFreeState<S> {
    pid: ProcId,
    pc: Pc,
    inner: S,
}

impl<L: LockSpec> Automaton for StarvationFreeSpec<L> {
    type State = StarvationFreeState<L::State>;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n, "pid out of range");
        StarvationFreeState {
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

    /// The gate's own steps are unlabelled; the inner lock's keep theirs.
    #[inline(always)]
    fn next_step(&self, s: &Self::State) -> (Action, Label) {
        let action = match s.pc {
            Pc::Idle => Action::Halt,
            Pc::SetInterested => Action::Write(self.interested(s.pid.0), 1),
            Pc::GateReadTurn | Pc::ExitReadTurn => Action::Read(self.turn()),
            Pc::GateReadInterested { t } | Pc::ExitReadInterested { t } => {
                Action::Read(self.interested(t))
            }
            Pc::AdvanceTurn { t } => Action::Write(self.turn(), ((t + 1) % self.n) as u64),
            Pc::ClearInterested => Action::Write(self.interested(s.pid.0), 0),
            Pc::Inner | Pc::InnerExit => return self.inner.next_step(&s.inner),
        };
        (action, Label::default())
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        match s.pc {
            Pc::SetInterested => s.pc = Pc::GateReadTurn,
            Pc::GateReadTurn => {
                let t = observed.expect("read observes") as usize;
                // A garbage turn value (impossible from this algorithm, but
                // the register model allows any u64 initially) falls back
                // to index 0 semantics via modulo.
                let t = t % self.n;
                if t == s.pid.0 {
                    self.inner.start_entry(&mut s.inner);
                    s.pc = Pc::Inner;
                } else {
                    s.pc = Pc::GateReadInterested { t };
                }
            }
            Pc::GateReadInterested { .. } => {
                if observed == Some(0) {
                    self.inner.start_entry(&mut s.inner);
                    s.pc = Pc::Inner;
                } else {
                    s.pc = Pc::GateReadTurn;
                }
            }
            Pc::Inner | Pc::InnerExit => self.inner.apply(&mut s.inner, observed, obs),
            Pc::ClearInterested => s.pc = Pc::ExitReadTurn,
            Pc::ExitReadTurn => {
                let t = (observed.expect("read observes") as usize) % self.n;
                s.pc = Pc::ExitReadInterested { t };
            }
            Pc::ExitReadInterested { t } => {
                if observed == Some(0) {
                    s.pc = Pc::AdvanceTurn { t };
                } else {
                    self.inner.begin_exit(&mut s.inner);
                    s.pc = Pc::InnerExit;
                }
            }
            Pc::AdvanceTurn { .. } => {
                self.inner.begin_exit(&mut s.inner);
                s.pc = Pc::InnerExit;
            }
            Pc::Idle => unreachable!("apply in a parked phase"),
        }
    }
}

impl<L: LockSpec> LockSpec for StarvationFreeSpec<L> {
    fn start_entry(&self, s: &mut Self::State) {
        s.pc = Pc::SetInterested;
    }

    fn begin_exit(&self, s: &mut Self::State) {
        debug_assert_eq!(s.pc, Pc::Inner, "begin_exit without holding the lock");
        // The gate bookkeeping runs first, inside the inner critical
        // section, so turn updates are serialized (see module docs).
        s.pc = Pc::ClearInterested;
    }

    fn reset(&self, s: &mut Self::State) {
        debug_assert_eq!(
            s.pc,
            Pc::InnerExit,
            "reset before the exit protocol finished"
        );
        self.inner.reset(&mut s.inner);
        s.pc = Pc::Idle;
    }

    fn n(&self) -> usize {
        self.n
    }

    fn registers(&self) -> RegisterCount {
        match self.inner.registers() {
            RegisterCount::Finite(c) => RegisterCount::Finite(c + self.n as u64 + 1),
            RegisterCount::Unbounded => RegisterCount::Unbounded,
        }
    }

    fn progress(&self) -> Progress {
        Progress::StarvationFree
    }

    fn is_fast(&self) -> bool {
        self.inner.is_fast()
    }

    fn name(&self) -> &'static str {
        "sf-transform"
    }

    #[inline]
    fn opaque(&self, s: &Self::State) -> Option<&dyn RawLock> {
        match s.pc {
            Pc::Inner | Pc::InnerExit => self.inner.opaque(&s.inner),
            _ => None,
        }
    }
}

/// The starvation-free transformation on real threads:
/// [`StarvationFreeSpec`]'s own steps under the native driver, over gate
/// registers of its own, around any native inner lock.
pub type StarvationFree<A> = Derived<StarvationFreeSpec<Opaque<A>>>;

impl<A: RawLock> StarvationFree<A> {
    /// Wraps `inner` (which must support the same `n`).
    ///
    /// # Panics
    ///
    /// Panics if `inner.n() != n` or `n == 0`.
    pub fn new(inner: A, n: usize) -> StarvationFree<A> {
        Derived::of(StarvationFreeSpec::new(Opaque(inner), n, 0))
    }
}

impl StarvationFree<LamportFast> {
    /// The paper's recommended `A`: Lamport's fast mutex made
    /// starvation-free.
    pub fn over_lamport_fast(n: usize) -> Self {
        StarvationFree::new(LamportFast::new(n), n)
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

    fn sf_spec(n: usize) -> StarvationFreeSpec<LamportFastSpec> {
        StarvationFreeSpec::<LamportFastSpec>::over_lamport_fast(n, 0)
    }

    #[test]
    fn native_two_threads() {
        testutil::native_lock_smoke(Arc::new(StarvationFree::over_lamport_fast(2)), 2, 20_000);
    }

    #[test]
    fn native_eight_threads() {
        testutil::native_lock_smoke(Arc::new(StarvationFree::over_lamport_fast(8)), 8, 5_000);
    }

    #[test]
    fn spec_modelcheck_two_procs() {
        testutil::spec_lock_modelcheck(sf_spec(2), 2, 1);
    }

    #[test]
    fn spec_modelcheck_two_procs_two_iterations() {
        testutil::spec_lock_modelcheck(sf_spec(2), 2, 2);
    }

    #[test]
    fn spec_sim_no_failures() {
        for n in [1, 2, 4, 8] {
            testutil::spec_lock_sim(sf_spec(n), n, 10, 7000 + n as u64);
        }
    }

    #[test]
    fn spec_sim_with_timing_failures() {
        for n in [2, 4] {
            testutil::spec_lock_sim_async(sf_spec(n), n, 10, 8000 + n as u64);
        }
    }

    #[test]
    fn transformation_preserves_fast_path_constant() {
        // Solo cost must not grow with n (the inner Lamport fast is 7; the
        // gate adds 3 entry + 3-4 exit accesses).
        let mut costs = Vec::new();
        for n in [2usize, 8, 32] {
            let mut bank = ArrayBank::new();
            let run = run_solo(&LockLoop::new(sf_spec(n), 1), ProcId(0), &mut bank, 200);
            costs.push(run.shared_accesses);
        }
        assert_eq!(
            costs[0], costs[1],
            "solo cost must be independent of n: {costs:?}"
        );
        assert_eq!(
            costs[1], costs[2],
            "solo cost must be independent of n: {costs:?}"
        );
    }

    #[test]
    fn gate_blocks_non_turn_holder_when_turn_holder_interested() {
        // Manual drive: p1 is interested and turn = 1; p0 must spin at the
        // gate, not reach the inner lock.
        use tfr_registers::bank::RegisterBank;
        let lock = sf_spec(2);
        let mut bank = ArrayBank::new();
        bank.write(lock.interested(1), 1);
        bank.write(lock.turn(), 1);
        let mut s = lock.init(ProcId(0));
        lock.start_entry(&mut s);
        let mut obs = Vec::new();
        // Walk 20 steps: p0 must still be gated (alternating reads).
        for _ in 0..20 {
            match lock.next_action(&s) {
                Action::Read(r) => {
                    let v = bank.read(r);
                    lock.apply(&mut s, Some(v), &mut obs);
                }
                Action::Write(r, v) => {
                    bank.write(r, v);
                    lock.apply(&mut s, None, &mut obs);
                }
                other => panic!("unexpected step at the gate: {other:?}"),
            }
        }
        assert!(
            matches!(s.pc, Pc::GateReadTurn | Pc::GateReadInterested { .. }),
            "p0 escaped the gate: {:?}",
            s.pc
        );
        // Release the gate: p1 no longer interested.
        bank.write(lock.interested(1), 0);
        let mut entered = false;
        for _ in 0..30 {
            match lock.next_action(&s) {
                Action::Read(r) => {
                    let v = bank.read(r);
                    lock.apply(&mut s, Some(v), &mut obs);
                }
                Action::Write(r, v) => {
                    bank.write(r, v);
                    lock.apply(&mut s, None, &mut obs);
                }
                Action::Halt => {
                    entered = true;
                    break;
                }
                other => panic!("unexpected step: {other:?}"),
            }
        }
        assert!(entered, "p0 must enter once the gate opens");
    }

    #[test]
    fn register_count_adds_gate_registers() {
        // inner lamport-fast: n + 2; gate: n + 1.
        assert_eq!(sf_spec(4).registers(), RegisterCount::Finite(4 + 2 + 4 + 1));
    }

    #[test]
    fn metadata() {
        let l = sf_spec(2);
        assert_eq!(l.progress(), Progress::StarvationFree);
        assert!(l.is_fast(), "the transformation must preserve fast");
    }

    #[test]
    #[should_panic(expected = "same process count")]
    fn mismatched_inner_n_rejected() {
        let inner = LamportFast::new(3);
        let _ = StarvationFree::new(inner, 2);
    }
}
