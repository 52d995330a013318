//! The *specification form* of an algorithm: an explicit state machine whose
//! atomic steps are single shared-register accesses.
//!
//! The paper's model charges time only for statements that access the shared
//! memory (each such access takes at most Δ, unless a timing failure
//! occurs), for `delay(d)` statements (at least — and, for complexity
//! accounting, exactly — `d`), and treats local computation as free. An
//! [`Automaton`] mirrors that: [`Automaton::next_action`] names the single
//! shared-memory access (or delay) the process performs next, and
//! [`Automaton::apply`] performs the unbounded local computation that
//! follows it.
//!
//! The same automaton is executed by
//!
//! * the discrete-event simulator (`tfr-sim`), which assigns each action a
//!   duration from a timing model and linearizes it at its completion
//!   instant, and
//! * the model checker (`tfr-modelcheck`), which explores *all* possible
//!   linearization orders (the asynchronous closure of the timing-based
//!   model — exactly the behaviours possible under arbitrary timing
//!   failures).
//!
//! # Protocol
//!
//! For a state `s` that is not halted the driver:
//!
//! 1. calls `next_action(&s)`;
//! 2. linearizes the action against the register bank — a `Read` observes
//!    the register's value at that instant, a `Write` installs its value;
//! 3. calls `apply(&mut s, observed, &mut obs)` where `observed` is
//!    `Some(value)` for a `Read` and `None` otherwise.
//!
//! Once `next_action` returns [`Action::Halt`] the process has terminated
//! and is never stepped again.

use crate::space::WriteKind;
use crate::{ProcId, RegId, Ticks};
use core::fmt;

/// The next atomic step of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Atomically read a shared register; the observed value is passed to
    /// [`Automaton::apply`].
    Read(RegId),
    /// Atomically write a value to a shared register.
    Write(RegId, u64),
    /// Execute `delay(d)`: suspend for at least `d` ticks. Under timing
    /// failures the suspension may be longer; it is never shorter.
    Delay(Ticks),
    /// The process has terminated (or, for long-lived algorithms, finished
    /// its scripted workload).
    Halt,
}

impl Action {
    /// Whether this action accesses the shared memory (and is therefore
    /// subject to the Δ bound and to timing failures).
    #[inline]
    pub fn is_shared_access(&self) -> bool {
        matches!(self, Action::Read(_) | Action::Write(_, _))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Read(r) => write!(f, "read {r}"),
            Action::Write(r, v) => write!(f, "write {r} := {v}"),
            Action::Delay(d) => write!(f, "delay({d})"),
            Action::Halt => write!(f, "halt"),
        }
    }
}

/// An observable event emitted by a process while applying a step.
///
/// Events drive the simulator's metrics (decision latency, the mutual
/// exclusion time-complexity metric of §3) and the model checker's safety
/// predicates (agreement, validity, mutual exclusion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Obs {
    /// A consensus participant irrevocably decided this value.
    Decided(u64),
    /// A consensus participant started round `r` (1-based).
    StartedRound(u64),
    /// A mutex participant entered its entry code (started *trying*).
    EnterTrying,
    /// A mutex participant entered its critical section.
    EnterCritical,
    /// A mutex participant left its critical section (started exit code).
    ExitCritical,
    /// A mutex participant finished its exit code (back in the remainder).
    EnterRemainder,
    /// A timing-based check after `delay(Δ)` (Fischer's `until x = i`)
    /// found what it looked for — the delay sufficed — or did not, a retry
    /// that a trace names by the injection point `point`. The native lock
    /// loop feeds it back to its `delay(Δ)` source; the workload loops
    /// drop it.
    Checked {
        /// Whether the check passed.
        passed: bool,
        /// The point a failed check's retry names.
        point: &'static str,
    },
    /// Algorithm-specific annotation, for traces and tests.
    Note(&'static str, u64),
}

/// An algorithm in specification form: a Mealy machine over atomic register
/// accesses.
///
/// Implementations must be deterministic: `next_action` is a pure function
/// of the state, and `apply` of the state and the observed value. All
/// nondeterminism lives in the driver (step durations, interleavings) —
/// this is what makes simulation runs replayable and model checking sound.
pub trait Automaton {
    /// Per-process state. `Clone + Eq + Hash` so the model checker can
    /// store and deduplicate global states.
    type State: Clone + fmt::Debug + PartialEq + Eq + core::hash::Hash;

    /// The initial state of process `pid`.
    fn init(&self, pid: ProcId) -> Self::State;

    /// The next atomic action of a process in state `state`.
    fn next_action(&self, state: &Self::State) -> Action;

    /// Advance the state past the action most recently returned by
    /// [`Automaton::next_action`]. `observed` is `Some(v)` iff that action
    /// was a `Read` that observed `v`. Events are appended to `obs`.
    fn apply(&self, state: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>);

    /// Whether `state` is halted (defaults to checking `next_action`).
    fn is_halted(&self, state: &Self::State) -> bool {
        matches!(self.next_action(state), Action::Halt)
    }

    /// How a native driver serves the step `next_action(state)` names
    /// (see [`Label`]). The default is a plain step: no injection point,
    /// a queried write, sent alone. The model checker reads the write
    /// kind, and proves every write labelled [`WriteKind::Agreed`] agrees.
    #[inline]
    fn label(&self, _state: &Self::State) -> Label {
        Label::default()
    }

    /// The next step's action and label at once, for a driver that needs
    /// both; an automaton that works both out from one dispatch on its
    /// state may override it.
    #[inline]
    fn next_step(&self, state: &Self::State) -> (Action, Label) {
        (self.next_action(state), self.label(state))
    }
}

/// What a step promises beyond its [`Action`], for the native driver
/// that runs an automaton against a [`crate::space::RegisterSpace`]: the
/// injection points it fires, the kind of write it sends, and how it
/// goes out with the step after it.
///
/// The labels of a register's writes must agree on its kind: the model
/// checker proves an [agreed](WriteKind::Agreed) write against the
/// register's value and every pending write to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Label {
    /// A named injection point (`crate::chaos::points`) fired immediately
    /// before the step's effect.
    pub point: Option<&'static str>,
    /// One fired right after it: a point that belongs to a check the
    /// automaton folds into the step's local computation.
    pub then: Option<&'static str>,
    /// A write step's [`WriteKind`]; ignored on other steps.
    pub kind: WriteKind,
    /// How the step and the next one go out.
    pub joint: Joint,
}

/// How a step goes out together with the next one. Each step of a joint
/// pair still linearizes on its own, which is what the model checker's
/// separate steps explore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Joint {
    /// Alone.
    #[default]
    Alone,
    /// A read whose next step, if the read saw 0, is the write of `value`
    /// to the same register, labelled with injection point `between`: the
    /// pair goes out as one conditional write
    /// ([`crate::space::Access::WriteIfUnset`]), `between` firing between
    /// the read and the write.
    GuardsWrite {
        /// The value the guarded write writes.
        value: u64,
        /// The guarded write's injection point.
        between: Option<&'static str>,
    },
    /// A write that goes out in one group with the next step, another
    /// write ([`crate::space::RegisterSpace::access_all`]). A group keeps
    /// the order of its owned and agreed writes for every reader, so a
    /// reader that sees the second, if both are such writes, then sees the
    /// first; the two are still separate steps, which is what the model
    /// checker explores.
    WithNext,
}

/// Blanket impl so `&A` can be used wherever an automaton is expected.
impl<A: Automaton + ?Sized> Automaton for &A {
    type State = A::State;
    fn init(&self, pid: ProcId) -> Self::State {
        (**self).init(pid)
    }
    fn next_action(&self, state: &Self::State) -> Action {
        (**self).next_action(state)
    }
    fn apply(&self, state: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        (**self).apply(state, observed, obs)
    }
    fn label(&self, state: &Self::State) -> Label {
        (**self).label(state)
    }
    fn next_step(&self, state: &Self::State) -> (Action, Label) {
        (**self).next_step(state)
    }
}

/// A permutation of process ids, used for symmetry reduction.
///
/// `map[i]` is the image of process `i`: applying the permutation to a
/// global configuration relabels process `i` as process `map[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Perm {
    map: Vec<usize>,
}

impl Perm {
    /// The identity permutation on `n` processes.
    pub fn identity(n: usize) -> Perm {
        Perm {
            map: (0..n).collect(),
        }
    }

    /// A permutation from an explicit image vector (`map[i]` = image of
    /// `i`).
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..map.len()`.
    pub fn from_map(map: Vec<usize>) -> Perm {
        let mut hit = vec![false; map.len()];
        for &m in &map {
            assert!(m < map.len() && !hit[m], "not a permutation: {map:?}");
            hit[m] = true;
        }
        Perm { map }
    }

    /// Number of processes this permutation acts on.
    pub fn n(&self) -> usize {
        self.map.len()
    }

    /// The image of process index `i`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.map[i]
    }

    /// The image of a [`ProcId`].
    #[inline]
    pub fn apply_pid(&self, pid: ProcId) -> ProcId {
        ProcId(self.map[pid.0])
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &m)| i == m)
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0; self.map.len()];
        for (i, &m) in self.map.iter().enumerate() {
            inv[m] = i;
        }
        Perm { map: inv }
    }

    /// All `n!` permutations of `0..n`, in lexicographic order (Heap's
    /// algorithm would not be ordered; this enumerates recursively).
    ///
    /// # Panics
    ///
    /// Panics if `n > 8` — the symmetry group is enumerated exhaustively
    /// and 8! = 40 320 is the sensible ceiling for model checking.
    pub fn all(n: usize) -> Vec<Perm> {
        assert!(n <= 8, "refusing to enumerate {n}! permutations");
        let mut out = Vec::new();
        let mut current = Vec::with_capacity(n);
        let mut used = vec![false; n];
        fn rec(n: usize, current: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Perm>) {
            if current.len() == n {
                out.push(Perm {
                    map: current.clone(),
                });
                return;
            }
            for i in 0..n {
                if !used[i] {
                    used[i] = true;
                    current.push(i);
                    rec(n, current, used, out);
                    current.pop();
                    used[i] = false;
                }
            }
        }
        rec(n, &mut current, &mut used, &mut out);
        out
    }
}

/// An [`Automaton`] whose transition relation commutes with process
/// relabelling — the contract behind symmetry reduction in the model
/// checker.
///
/// Implementors assert *equivariance*: for every valid permutation `π`
/// (the checker only uses permutations that fix the initial global
/// configuration),
///
/// ```text
/// next_action(permute_state(s, π)) = π(next_action(s))
/// ```
///
/// where `π` acts on actions by [`Symmetric::permute_reg`] on register
/// ids and [`Symmetric::permute_value`] on written values, and `apply`
/// commutes the same way. Two global configurations that differ only by
/// such a relabelling then generate isomorphic futures and can be
/// deduplicated to one canonical representative.
///
/// The defaults (`permute_reg`/`permute_value` = identity) fit automata
/// whose register layout and values are pid-free; an automaton with
/// per-process registers or pid-valued writes (e.g. Fischer's `x :=
/// token(pid)`) overrides them.
pub trait Symmetric: Automaton {
    /// The state of process `perm.apply_pid(old_pid)` when process
    /// `old_pid`'s state is `state` — i.e. `state` with every embedded
    /// process id mapped through `perm`.
    fn permute_state(&self, state: &Self::State, perm: &Perm) -> Self::State;

    /// The image of a register id under the relabelling (identity for
    /// pid-free register layouts).
    fn permute_reg(&self, reg: RegId, _perm: &Perm) -> RegId {
        reg
    }

    /// The image of the *value stored in* `reg` under the relabelling
    /// (identity unless values encode process ids).
    fn permute_value(&self, _reg: RegId, value: u64, _perm: &Perm) -> u64 {
        value
    }

    /// Whether equivariance actually holds for `perm`. The checker's
    /// stabilizer computation filters candidate permutations through
    /// this *in addition to* requiring that they fix the initial
    /// configuration.
    ///
    /// Override when per-process parameters that the initial
    /// configuration does not expose break the symmetry — e.g. a
    /// heterogeneous per-process `delay(Δ)` table: two processes with
    /// different estimates are distinguishable later even though their
    /// initial states and actions coincide.
    fn respects(&self, _perm: &Perm) -> bool {
        true
    }
}

impl<A: Symmetric + ?Sized> Symmetric for &A {
    fn permute_state(&self, state: &Self::State, perm: &Perm) -> Self::State {
        (**self).permute_state(state, perm)
    }
    fn permute_reg(&self, reg: RegId, perm: &Perm) -> RegId {
        (**self).permute_reg(reg, perm)
    }
    fn permute_value(&self, reg: RegId, value: u64, perm: &Perm) -> u64 {
        (**self).permute_value(reg, value, perm)
    }
    fn respects(&self, perm: &Perm) -> bool {
        (**self).respects(perm)
    }
}

/// Runs a single process of `automaton` to completion against `bank`,
/// with every action linearizing immediately (no concurrency, no timing
/// failures). Returns the events emitted and the number of shared-memory
/// accesses performed.
///
/// This is the *solo execution* of the paper's "fast" property: Theorem
/// 2.1(4) states a solo process decides after exactly 7 such steps. It is
/// also handy in unit tests of individual automata.
///
/// # Panics
///
/// Panics if the process takes more than `step_limit` actions without
/// halting — solo executions of all algorithms in this workspace terminate.
pub fn run_solo<A: Automaton>(
    automaton: &A,
    pid: ProcId,
    bank: &mut dyn crate::bank::RegisterBank,
    step_limit: usize,
) -> SoloRun {
    let mut state = automaton.init(pid);
    let mut obs = Vec::new();
    let mut shared_accesses = 0usize;
    let mut delays = 0usize;
    for _ in 0..step_limit {
        match automaton.next_action(&state) {
            Action::Halt => {
                return SoloRun {
                    obs,
                    shared_accesses,
                    delays,
                };
            }
            Action::Read(r) => {
                shared_accesses += 1;
                let v = bank.read(r);
                automaton.apply(&mut state, Some(v), &mut obs);
            }
            Action::Write(r, v) => {
                shared_accesses += 1;
                bank.write(r, v);
                automaton.apply(&mut state, None, &mut obs);
            }
            Action::Delay(_) => {
                delays += 1;
                automaton.apply(&mut state, None, &mut obs);
            }
        }
    }
    panic!("solo run of {pid} did not halt within {step_limit} steps");
}

/// Result of [`run_solo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoloRun {
    /// Events emitted, in order.
    pub obs: Vec<Obs>,
    /// Number of shared-memory accesses performed (the paper's step count).
    pub shared_accesses: usize,
    /// Number of `delay` statements executed.
    pub delays: usize,
}

impl SoloRun {
    /// The decided value, if the run emitted a [`Obs::Decided`] event.
    pub fn decision(&self) -> Option<u64> {
        self.obs.iter().find_map(|o| match o {
            Obs::Decided(v) => Some(*v),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{ArrayBank, RegisterBank};

    /// A toy automaton: reads register 0, writes the value + 1 to register
    /// 1, decides it, halts.
    struct Incr;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum IncrState {
        ReadIn,
        WriteOut(u64),
        Done,
    }

    impl Automaton for Incr {
        type State = IncrState;
        fn init(&self, _pid: ProcId) -> IncrState {
            IncrState::ReadIn
        }
        fn next_action(&self, state: &IncrState) -> Action {
            match state {
                IncrState::ReadIn => Action::Read(RegId(0)),
                IncrState::WriteOut(v) => Action::Write(RegId(1), *v),
                IncrState::Done => Action::Halt,
            }
        }
        fn apply(&self, state: &mut IncrState, observed: Option<u64>, obs: &mut Vec<Obs>) {
            *state = match state {
                IncrState::ReadIn => IncrState::WriteOut(observed.expect("read observes") + 1),
                IncrState::WriteOut(v) => {
                    obs.push(Obs::Decided(*v));
                    IncrState::Done
                }
                IncrState::Done => unreachable!("halted automaton stepped"),
            };
        }
    }

    #[test]
    fn solo_run_counts_steps_and_collects_obs() {
        let mut bank = ArrayBank::new();
        bank.write(RegId(0), 41);
        let run = run_solo(&Incr, ProcId(0), &mut bank, 10);
        assert_eq!(run.shared_accesses, 2);
        assert_eq!(run.delays, 0);
        assert_eq!(run.decision(), Some(42));
        assert_eq!(bank.read(RegId(1)), 42);
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn solo_run_enforces_step_limit() {
        /// Spins forever re-reading register 0.
        struct Spin;
        impl Automaton for Spin {
            type State = ();
            fn init(&self, _pid: ProcId) {}
            fn next_action(&self, _state: &()) -> Action {
                Action::Read(RegId(0))
            }
            fn apply(&self, _state: &mut (), _observed: Option<u64>, _obs: &mut Vec<Obs>) {}
        }
        let mut bank = ArrayBank::new();
        let _ = run_solo(&Spin, ProcId(0), &mut bank, 5);
    }

    #[test]
    fn action_display_and_shared_access() {
        assert!(Action::Read(RegId(1)).is_shared_access());
        assert!(Action::Write(RegId(1), 2).is_shared_access());
        assert!(!Action::Delay(Ticks(5)).is_shared_access());
        assert!(!Action::Halt.is_shared_access());
        assert_eq!(Action::Write(RegId(2), 9).to_string(), "write r2 := 9");
        assert_eq!(Action::Delay(Ticks(5)).to_string(), "delay(5t)");
    }

    #[test]
    fn automaton_usable_through_reference() {
        let mut bank = ArrayBank::new();
        let run = run_solo(&&Incr, ProcId(1), &mut bank, 10);
        assert_eq!(run.decision(), Some(1));
    }

    #[test]
    fn perm_enumeration_inverse_and_identity() {
        let all = Perm::all(3);
        assert_eq!(all.len(), 6);
        assert!(all[0].is_identity());
        for p in &all {
            let inv = p.inverse();
            for i in 0..3 {
                assert_eq!(inv.apply(p.apply(i)), i);
            }
        }
        let swap = Perm::from_map(vec![1, 0]);
        assert_eq!(swap.apply_pid(ProcId(0)), ProcId(1));
        assert!(!swap.is_identity());
        assert_eq!(swap.n(), 2);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn perm_rejects_non_permutation() {
        let _ = Perm::from_map(vec![0, 0]);
    }
}
