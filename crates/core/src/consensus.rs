//! **Algorithm 1** — consensus in the presence of timing failures.
//!
//! Wait-free binary consensus from atomic registers, resilient to timing
//! failures. The algorithm proceeds in (asynchronous) rounds; per round it
//! runs a timing-based conflict-avoidance protocol that never produces
//! conflicting decisions even if a timing failure strikes mid-round, and
//! that is guaranteed to decide by round `r + 1` once failures stop at
//! round `r`.
//!
//! Pseudocode (process `pᵢ`, input `inᵢ`; shared `x[1..∞, 0..1]` bits,
//! `y[1..∞]` over `{⊥, 0, 1}`, `decide` over `{⊥, 0, 1}`):
//!
//! ```text
//! while decide = ⊥ do
//!     x[r, v] := 1
//!     if y[r] = ⊥ then y[r] := v fi
//!     if x[r, v̄] = 0 then decide := v
//!     else delay(Δ)
//!          v := y[r]
//!          r := r + 1 fi
//! od
//! decide(decide)
//! ```
//!
//! It is written once, as [`ConsensusSpec`]: the simulator and the model
//! checker run that automaton, and [`NativeConsensus`] runs it against a
//! register space through the crate's native driver. The spec's labels
//! say how the driver serves each step: the chaos point before it, the
//! agreed writes of `x` and `decide`, and the read of `y[r]` that guards
//! its write, one conditional write.
//!
//! Its variants are parameters of that one spec:
//!
//! * the `delay` of each round is a [`DelaySchedule`]: a fixed estimate
//!   of Δ is Algorithm 1 ([`ConsensusSpec::with_delta`], one per process
//!   with [`ConsensusSpec::with_per_process_deltas`]), and a growing one
//!   ([`ConsensusSpec::with_schedule`]) is the time-adaptive algorithm of
//!   Alur–Attiya–Taubenfeld for an unknown Δ (the paper's reference
//!   \[3\]), which Algorithm 1 is "constructed similarly" to — experiment
//!   E11 sets the two against a legal adversary;
//! * a cap on rounds ([`ConsensusSpec::max_rounds`]) makes the registers
//!   finite ([`ConsensusSpec::registers`]), which suffices once timing
//!   failures last at most a known bound (§2.1; [`crate::bounded`]).
//!
//! A process returns right after `decide := v`, with `v`: every write to
//! `decide` carries one value (the agreement argument of Theorems
//! 2.2/2.3), so the loop check that would follow can only read back the
//! value just written. The model checker proves that obligation for every
//! write labelled agreed.
//!
//! Properties (Theorem 2.1, each reproduced by the experiment harness):
//!
//! * without timing failures every process decides within **15·Δ** (first
//!   two rounds) — experiment E1;
//! * a solo process decides after **6** of its own steps, with no delay
//!   statement, regardless of timing failures — E2 (the paper's loop
//!   check after `decide := v` would make it 7);
//! * failures stopping at the start of round `r` ⇒ all decide by the end
//!   of round `r + 1` — E3;
//! * wait-free: any number of crashes tolerated — E4;
//! * agreement and validity hold under arbitrary timing failures
//!   (Theorems 2.2/2.3) — E5, verified exhaustively by the model checker;
//! * the number of participants is unbounded (the native form's `propose`
//!   does not even take a process id).

use std::time::Duration;
use tfr_asynclock::driver::Driver;
use tfr_registers::accounting::RegisterCount;
use tfr_registers::chaos::points;
use tfr_registers::space::{NativeSpace, RegisterSpace, WriteKind};
use tfr_registers::spec::{Action, Automaton, Joint, Label, Obs, Perm, Symmetric};
use tfr_registers::{ProcId, RegId, Ticks};
use tfr_telemetry::Trace;

/// Encodes a boolean consensus value into a register (`⊥` is 0).
#[inline]
fn enc(v: bool) -> u64 {
    v as u64 + 1
}

/// Decodes a non-`⊥` register value.
#[inline]
fn dec(raw: u64) -> bool {
    debug_assert!(raw == 1 || raw == 2, "not a consensus value: {raw}");
    raw == 2
}

/// The `delay` a process takes at the end of each unsuccessful round:
/// round `r` delays `min(initial · growth^(r−1), cap)` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelaySchedule {
    /// Delay of round 1.
    pub initial: Ticks,
    /// Multiplicative growth per round (1 = fixed estimate).
    pub growth: u64,
    /// Upper clamp on the delay.
    pub cap: Ticks,
}

impl DelaySchedule {
    /// The time-adaptive schedule of \[3\]: start at `initial`, double
    /// each round.
    pub fn doubling(initial: Ticks) -> DelaySchedule {
        DelaySchedule {
            initial,
            growth: 2,
            cap: Ticks(u64::MAX / 2),
        }
    }

    /// A fixed estimate of Δ, Algorithm 1's.
    pub fn fixed(delay: Ticks) -> DelaySchedule {
        DelaySchedule {
            initial: delay,
            growth: 1,
            cap: delay,
        }
    }

    /// The delay of round `r` (1-based).
    pub fn delay_for_round(&self, r: u64) -> Ticks {
        let mut d = self.initial.0.max(1);
        for _ in 1..r.min(64) {
            d = d.saturating_mul(self.growth);
            if d >= self.cap.0 {
                return self.cap;
            }
        }
        Ticks(d.min(self.cap.0))
    }
}

// ---------------------------------------------------------------------
// Specification form
// ---------------------------------------------------------------------

/// Algorithm 1 in specification form.
///
/// Register layout: `decide` at 0; for round `r ≥ 1`, `y[r]` at `3r`,
/// `x[r, 0]` at `3r + 1`, `x[r, 1]` at `3r + 2` (the infinite arrays of
/// the paper, laid out sparsely — banks allocate on demand).
#[derive(Debug, Clone)]
pub struct ConsensusSpec {
    /// The configured processes; `None` for a native caller, whose states
    /// come from [`ConsensusState::proposing`].
    fleet: Option<Box<Fleet>>,
    pub(crate) max_rounds: u64,
    /// Register `j` of the layout is `j·stride`.
    stride: u64,
    /// The `delay(Δ)` duration used at line 5 — the algorithm's *estimate*
    /// of Δ (see `optimistic(Δ)`, §1.2); the true access-time bound lives
    /// in the run's timing model. A fixed schedule, for every process
    /// the fleet gives no schedule of its own.
    delay_ticks: Ticks,
}

/// The processes a [`ConsensusSpec`] configures, for the simulator and the
/// model checker.
#[derive(Debug, Clone)]
struct Fleet {
    inputs: Vec<bool>,
    /// Each process's delay schedule, overriding the fixed `delay_ticks`
    /// (§1.2: the estimate "should be tuned for each individual machine
    /// architecture", so heterogeneous fleets are the norm, not the
    /// exception).
    schedules: Option<Vec<DelaySchedule>>,
    /// The seeded mutant of [`ConsensusSpec::with_decide_writing_input`].
    decide_writes_input: bool,
}

impl ConsensusSpec {
    /// A consensus instance where process `i` proposes `inputs[i]`, with
    /// the workspace-conventional `delay(Δ)` of 1000 ticks.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn new(inputs: Vec<bool>) -> ConsensusSpec {
        assert!(!inputs.is_empty(), "at least one process is required");
        let fleet = Fleet {
            inputs,
            schedules: None,
            decide_writes_input: false,
        };
        ConsensusSpec {
            fleet: Some(Box::new(fleet)),
            ..ConsensusSpec::native()
        }
    }

    /// The spec a native caller runs from [`ConsensusState::proposing`]
    /// states: it configures no process, so it allocates nothing.
    pub(crate) fn native() -> ConsensusSpec {
        ConsensusSpec {
            fleet: None,
            max_rounds: u64::MAX,
            stride: 1,
            delay_ticks: Self::DEFAULT_DELAY,
        }
    }

    fn fleet(&self) -> &Fleet {
        self.fleet
            .as_deref()
            .expect("a native spec configures no process")
    }

    fn fleet_mut(&mut self) -> &mut Fleet {
        self.fleet
            .as_deref_mut()
            .expect("a native spec configures no process")
    }

    /// Bounds the number of rounds a process attempts before giving up
    /// (halting undecided, with a `Note("round-bound-exceeded", r)`).
    /// Safety is unaffected. The layout then holds finitely many
    /// registers, which suffice when timing failures last at most a known
    /// bound ([`crate::bounded::rounds_for_bound`]); it also keeps
    /// exhaustive exploration finite (the unbounded-round algorithm has an
    /// infinite reachable state space under perpetual timing failures).
    pub fn max_rounds(mut self, r: u64) -> ConsensusSpec {
        self.max_rounds = r;
        self
    }

    /// Registers the layout uses: `decide` and three per round, so
    /// `3R + 1` under [`ConsensusSpec::max_rounds`]`(R)`, and unbounded
    /// otherwise.
    pub fn registers(&self) -> RegisterCount {
        match self.max_rounds {
            u64::MAX => RegisterCount::Unbounded,
            rounds => RegisterCount::Finite(3 * rounds + 1),
        }
    }

    /// Number of configured processes.
    pub fn n(&self) -> usize {
        self.fleet().inputs.len()
    }

    /// Spreads the layout out, register `j` to `j·stride`, so that an
    /// embedding algorithm can interleave `stride` instances.
    pub(crate) fn strided(mut self, stride: u64) -> ConsensusSpec {
        self.stride = stride;
        self
    }

    /// **A seeded mutant, for the model checker's negative tests only.**
    /// `decide := v` writes the process's round-1 input instead of its
    /// current preference, so two processes can write different values to
    /// `decide`, a register whose writes are labelled agreed.
    #[doc(hidden)]
    pub fn with_decide_writing_input(mut self) -> ConsensusSpec {
        self.fleet_mut().decide_writes_input = true;
        self
    }

    /// Register `j` of the layout.
    fn reg(&self, j: u64) -> RegId {
        RegId(j * self.stride)
    }
    /// The register holding `decide`.
    pub(crate) fn decide_reg(&self) -> RegId {
        self.reg(0)
    }
    fn y(&self, r: u64) -> RegId {
        self.reg(3 * r)
    }
    fn x(&self, r: u64, v: bool) -> RegId {
        self.reg(3 * r + 1 + v as u64)
    }
}

/// Program counter of [`ConsensusSpec`] (one iteration of the while loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    /// The `while decide = ⊥` loop check.
    ReadDecide,
    /// `x[r, v] := 1`.
    WriteX,
    /// read `y[r]`.
    ReadY,
    /// `y[r] := v` (only if the read saw ⊥).
    WriteY,
    /// read `x[r, v̄]`.
    ReadXBar,
    /// `decide := v`, then decide `v`.
    WriteDecide,
    /// `delay(Δ)` before adopting `y[r]`.
    DelayStep,
    /// `v := y[r]`.
    ReadYAdopt,
    /// Terminated (decided, or gave up at the round bound).
    Halted,
}

/// Per-process state of [`ConsensusSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConsensusState {
    pid: ProcId,
    pc: Pc,
    /// Current preference.
    v: bool,
    /// Current round (1-based).
    r: u64,
}

impl ConsensusState {
    /// Process 0 about to propose `v` (the native form takes no pid).
    pub(crate) fn proposing(v: bool) -> ConsensusState {
        ConsensusState {
            pid: ProcId(0),
            pc: Pc::ReadDecide,
            v,
            r: 1,
        }
    }
}

impl Automaton for ConsensusSpec {
    type State = ConsensusState;

    fn init(&self, pid: ProcId) -> Self::State {
        assert!(pid.0 < self.n(), "pid out of range");
        ConsensusState {
            pid,
            ..ConsensusState::proposing(self.fleet().inputs[pid.0])
        }
    }

    #[inline(always)]
    fn next_action(&self, s: &Self::State) -> Action {
        self.next_step(s).0
    }

    #[inline(always)]
    fn apply(&self, s: &mut Self::State, observed: Option<u64>, obs: &mut Vec<Obs>) {
        obs.extend(self.advance(s, observed));
    }

    #[inline(always)]
    fn label(&self, s: &Self::State) -> Label {
        self.next_step(s).1
    }

    /// The chaos points name the paper's lines: each round starts at
    /// [`points::CONSENSUS_ROUND`], before `decide` is read; every `x`
    /// and `y` access is an `ARRAY_STORE` / `ARRAY_LOAD`; and
    /// `CONSENSUS_DECIDE` comes before `decide := v`. `x` holds 0 or 1
    /// and `decide` the agreed bit, so their writes are agreed; `y`'s
    /// writers differ, and its read guards its write.
    #[inline(always)]
    fn next_step(&self, s: &Self::State) -> (Action, Label) {
        let at = |point, kind| Label {
            point: Some(point),
            kind,
            ..Label::default()
        };
        let (load, store) = (points::ARRAY_LOAD, points::ARRAY_STORE);
        let queried = WriteKind::Queried;
        match s.pc {
            Pc::ReadDecide => (
                Action::Read(self.decide_reg()),
                at(points::CONSENSUS_ROUND, queried),
            ),
            Pc::WriteX => (
                Action::Write(self.x(s.r, s.v), 1),
                at(store, WriteKind::Agreed),
            ),
            Pc::ReadY => {
                // The write that a read of ⊥ leads to.
                let (value, between) = (enc(s.v), Some(store));
                let joint = Joint::GuardsWrite { value, between };
                (
                    Action::Read(self.y(s.r)),
                    Label {
                        joint,
                        ..at(load, queried)
                    },
                )
            }
            Pc::WriteY => (Action::Write(self.y(s.r), enc(s.v)), at(store, queried)),
            Pc::ReadXBar => (Action::Read(self.x(s.r, !s.v)), at(load, queried)),
            Pc::WriteDecide => (
                Action::Write(self.decide_reg(), enc(self.decide_value(s))),
                at(points::CONSENSUS_DECIDE, WriteKind::Agreed),
            ),
            Pc::DelayStep => (
                Action::Delay(self.schedule(s.pid).delay_for_round(s.r)),
                Label::default(),
            ),
            Pc::ReadYAdopt => (Action::Read(self.y(s.r)), at(load, queried)),
            Pc::Halted => (Action::Halt, Label::default()),
        }
    }
}

/// Process ids appear only in the per-process state (the register layout
/// is round-indexed and values are encoded booleans), so relabelling a
/// state is just relabelling its `pid`. The valid group is computed by
/// the checker's stabilizer: only permutations preserving the input
/// vector fix the initial configuration, and [`Symmetric::respects`]
/// additionally rejects relabellings across processes with different
/// delay schedules (a heterogeneous fleet is not pid-symmetric).
impl Symmetric for ConsensusSpec {
    fn permute_state(&self, s: &ConsensusState, perm: &Perm) -> ConsensusState {
        ConsensusState {
            pid: perm.apply_pid(s.pid),
            ..*s
        }
    }

    fn respects(&self, perm: &Perm) -> bool {
        (0..self.n()).all(|i| self.schedule(ProcId(i)) == self.schedule(perm.apply_pid(ProcId(i))))
    }
}

impl ConsensusSpec {
    const DEFAULT_DELAY: Ticks = Ticks(1000);

    /// Overrides the `delay(Δ)` duration used at line 5 (the estimate of
    /// Δ; see `optimistic(Δ)`, §1.2 of the paper): a fixed schedule,
    /// which a schedule given per process takes precedence over. The
    /// optimistic-Δ experiments sweep this against the true access-time
    /// distribution.
    pub fn with_delta(mut self, delta: Ticks) -> ConsensusSpec {
        self.delay_ticks = delta;
        self
    }

    /// Gives each process its own delay estimate — a heterogeneous fleet
    /// where some machines run optimistic and some conservative (§1.2).
    /// Safety is per-process-estimate-independent; experiment E16 measures
    /// who pays what.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the number of processes.
    pub fn with_per_process_deltas(mut self, deltas: Vec<Ticks>) -> ConsensusSpec {
        assert_eq!(deltas.len(), self.n(), "one delay estimate per process");
        self.fleet_mut().schedules = Some(deltas.into_iter().map(DelaySchedule::fixed).collect());
        self
    }

    /// Gives every process the delay schedule `schedule`. A growing one is
    /// the time-adaptive algorithm of \[3\] for an unknown Δ: safety is
    /// Algorithm 1's (no delay matters for safety), and it decides once
    /// the estimate has grown past the true bound.
    pub fn with_schedule(mut self, schedule: DelaySchedule) -> ConsensusSpec {
        let n = self.n();
        self.fleet_mut().schedules = Some(vec![schedule; n]);
        self
    }

    /// [`Automaton::apply`], returning the one event a step may emit.
    #[inline(always)]
    pub(crate) fn advance(&self, s: &mut ConsensusState, observed: Option<u64>) -> Option<Obs> {
        match s.pc {
            Pc::ReadDecide => {
                let d = observed.expect("read observes");
                if d != 0 {
                    // Line 9: decide(decide) — the value just read.
                    s.pc = Pc::Halted;
                    return Some(Obs::Decided(dec(d) as u64));
                } else if s.r > self.max_rounds {
                    s.pc = Pc::Halted;
                    return Some(Obs::Note("round-bound-exceeded", s.r));
                }
                s.pc = Pc::WriteX;
                return Some(Obs::StartedRound(s.r));
            }
            Pc::WriteX => s.pc = Pc::ReadY,
            Pc::ReadY => {
                if observed == Some(0) {
                    s.pc = Pc::WriteY;
                } else {
                    s.pc = Pc::ReadXBar;
                }
            }
            Pc::WriteY => s.pc = Pc::ReadXBar,
            Pc::ReadXBar => {
                if observed == Some(0) {
                    s.pc = Pc::WriteDecide;
                } else {
                    s.pc = Pc::DelayStep;
                }
            }
            Pc::WriteDecide => {
                // Line 9 without the loop check: every write to `decide`
                // carries one value, so it would read back this one.
                s.pc = Pc::Halted;
                return Some(Obs::Decided(self.decide_value(s) as u64));
            }
            Pc::DelayStep => s.pc = Pc::ReadYAdopt,
            Pc::ReadYAdopt => {
                let raw = observed.expect("read observes");
                // y[r] cannot be ⊥ here: this process either read it
                // non-⊥ or wrote it itself earlier in the round. Keep the
                // current preference defensively if a bank was tampered
                // with.
                if raw != 0 {
                    s.v = dec(raw);
                }
                s.r += 1;
                s.pc = Pc::ReadDecide;
            }
            Pc::Halted => unreachable!("halted process stepped"),
        }
        None
    }

    /// The value `s` writes to `decide` next, if its next step is that
    /// write.
    #[inline(always)]
    pub(crate) fn writes_decide(&self, s: &ConsensusState) -> Option<bool> {
        (s.pc == Pc::WriteDecide).then(|| self.decide_value(s))
    }

    /// The value `decide := v` writes: the preference, or the round-1
    /// input in the seeded mutant.
    fn decide_value(&self, s: &ConsensusState) -> bool {
        match &self.fleet {
            Some(fleet) if fleet.decide_writes_input => fleet.inputs[s.pid.0],
            _ => s.v,
        }
    }

    /// The delay schedule of process `pid`.
    fn schedule(&self, pid: ProcId) -> DelaySchedule {
        match self.fleet.as_deref().and_then(|f| f.schedules.as_ref()) {
            Some(schedules) => schedules[pid.0],
            None => DelaySchedule::fixed(self.delay_ticks),
        }
    }
}

// ---------------------------------------------------------------------
// Native form
// ---------------------------------------------------------------------

/// Algorithm 1 over a [`RegisterSpace`] — real atomics by default, any
/// other backend (the `tfr-net` quorum emulation, a wrapped/recorded
/// space) by construction with [`NativeConsensus::on`]: [`ConsensusSpec`]
/// run by the crate's native driver, so the code that runs is the code
/// the model checker proves.
///
/// `propose` takes no process id and any number of threads may call it —
/// the algorithm supports unboundedly many participants (Theorem 2.1).
/// The `delta` given at construction is the `delay(Δ)` estimate; an
/// under-estimate can cost extra rounds but never safety.
///
/// Register layout (in its space): [`ConsensusSpec`]'s — `decide` at 0;
/// for round `r ≥ 1`, `y[r]` at `3r`, `x[r, v]` at `3r + 1 + v`.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_core::consensus::NativeConsensus;
///
/// let c = NativeConsensus::new(Duration::from_micros(10));
/// assert_eq!(c.decision(), None);
/// let decided = c.propose(true);
/// assert_eq!(decided, true, "a solo proposer decides its own value");
/// assert_eq!(c.decision(), Some(true));
/// ```
pub struct NativeConsensus<S: RegisterSpace = NativeSpace> {
    driver: Driver<ConsensusSpec, S>,
}

impl NativeConsensus {
    /// A fresh consensus object over shared memory with `delay(Δ)`
    /// duration `delta`.
    pub fn new(delta: Duration) -> NativeConsensus {
        NativeConsensus::on(NativeSpace::with_capacity(128), delta)
    }
}

impl<S: RegisterSpace> NativeConsensus<S> {
    /// Algorithm 1 over an arbitrary register space (which must be fresh
    /// — the instance owns registers `0..` of it; use
    /// [`tfr_registers::space::SubSpace`] to carve a region out of a
    /// shared space).
    pub fn on(space: S, delta: Duration) -> NativeConsensus<S> {
        NativeConsensus {
            driver: Driver::new(ConsensusSpec::native(), space, delta),
        }
    }

    /// Attaches a telemetry trace: round starts, `delay(Δ)` spans and the
    /// decision become events. `propose` takes no process id, so events
    /// are attributed to the calling thread's registered pid (see
    /// `tfr_telemetry::with_pid`); unregistered callers emit nothing.
    pub fn with_trace(mut self, trace: Trace) -> NativeConsensus<S> {
        self.driver.trace = trace;
        self
    }

    /// Proposes `input`; blocks until a decision is reached and returns it.
    ///
    /// Wait-free once timing constraints hold: no other thread can block
    /// this one indefinitely, and crashes of other proposers are harmless.
    ///
    /// A solo call makes 6 accesses: read `decide`, the agreed write of
    /// `x[1, v]`, the conditional write of `y[1]`
    /// ([`tfr_registers::space::Access::WriteIfUnset`]: two quorum
    /// rounds, where a read and then a write would cost three), the read
    /// of `x[1, v̄]`, and the agreed write of `decide`, after which it
    /// returns `v` without reading `decide` back.
    ///
    /// Chaos injection fires [`points::ARRAY_STORE`] / `ARRAY_LOAD`
    /// before each `x`/`y` access (the store point of `y` between the
    /// conditional write's read and write, so only if it writes), at this
    /// layer and not inside the space, so the schedule of injection
    /// points is the same on every backend.
    pub fn propose(&self, input: bool) -> bool {
        let mut state = ConsensusState::proposing(input);
        let decided = self.driver.run(&mut state);
        decided.expect("unbounded rounds end only in a decision") == 1
    }

    /// The decision, if one has been reached.
    pub fn decision(&self) -> Option<bool> {
        let decide = self.driver.spec.decide_reg();
        match self.driver.space.read(decide.0) {
            0 => None,
            d => Some(dec(d)),
        }
    }
}

impl<S: RegisterSpace> std::fmt::Debug for NativeConsensus<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeConsensus")
            .field("delta", &self.driver.delay)
            .field("decision", &self.decision())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tfr_modelcheck::{Explorer, SafetySpec, Violation};
    use tfr_registers::bank::ArrayBank;
    use tfr_registers::spec::run_solo;
    use tfr_registers::Delta;
    use tfr_sim::metrics::consensus_stats;
    use tfr_sim::timing::{standard_no_failures, CrashSchedule, Fixed, UniformAccess};
    use tfr_sim::{RunConfig, Sim};

    #[test]
    fn solo_process_decides_in_six_steps() {
        // Theorem 2.1(4): fast path — 6 shared accesses, 0 delays (the
        // paper's loop check after `decide := v` is not taken).
        for input in [false, true] {
            let mut bank = ArrayBank::new();
            let run = run_solo(&ConsensusSpec::new(vec![input]), ProcId(0), &mut bank, 50);
            assert_eq!(run.shared_accesses, 6);
            assert_eq!(run.delays, 0);
            assert_eq!(run.decision(), Some(input as u64));
        }
    }

    #[test]
    fn sim_no_failures_decides_within_15_delta() {
        // Theorem 2.1(1): ≤ 15·Δ without timing failures.
        let delta = Delta::from_ticks(1000);
        for n in [2usize, 4, 8] {
            for seed in 0..20 {
                let inputs: Vec<bool> = (0..n)
                    .map(|i| (i + seed as usize).is_multiple_of(2))
                    .collect();
                let spec = ConsensusSpec::new(inputs.clone());
                let result = Sim::new(
                    spec,
                    RunConfig::new(n, delta),
                    standard_no_failures(delta, seed),
                )
                .run();
                let stats = consensus_stats(&result);
                assert!(stats.agreement, "n={n} seed={seed}");
                assert!(stats.valid_against(&inputs.iter().map(|&b| b as u64).collect::<Vec<_>>()));
                let t = stats.all_decided_by.expect("everyone decides");
                assert!(
                    t <= delta.times(15),
                    "n={n} seed={seed}: decided at {t}, over the 15Δ bound"
                );
            }
        }
    }

    #[test]
    fn sim_all_same_input_decides_that_value() {
        let delta = Delta::from_ticks(1000);
        for input in [false, true] {
            let spec = ConsensusSpec::new(vec![input; 5]);
            let result = Sim::new(
                spec,
                RunConfig::new(5, delta),
                standard_no_failures(delta, 9),
            )
            .run();
            let stats = consensus_stats(&result);
            assert_eq!(stats.decided_value, Some(input as u64));
        }
    }

    #[test]
    fn sim_wait_free_under_crashes() {
        // Theorem 2.4: the survivor decides even if all others crash.
        let delta = Delta::from_ticks(1000);
        let n = 4;
        let spec = ConsensusSpec::new(vec![true, false, true, false]);
        let crashes = (1..n).map(|i| (ProcId(i), Ticks(500 * i as u64))).collect();
        let model = CrashSchedule::new(standard_no_failures(delta, 3), crashes);
        let result = Sim::new(spec, RunConfig::new(n, delta), model).run();
        let (t, v) = result.decision_of(ProcId(0)).expect("survivor must decide");
        assert!(v <= 1);
        assert!(!result.timed_out, "survivor must not loop forever");
        assert!(t > Ticks::ZERO);
    }

    #[test]
    fn sim_safe_under_heavy_timing_failures() {
        // Durations up to 10Δ: perpetual timing failures. Agreement and
        // validity must still hold in every run (termination may not).
        let delta = Delta::from_ticks(100);
        for seed in 0..50 {
            let inputs = vec![seed % 2 == 0, seed % 3 == 0, true, false];
            let spec = ConsensusSpec::new(inputs.clone()).max_rounds(50);
            let model = UniformAccess::new(Ticks(10), Ticks(1000), seed);
            let config = RunConfig::new(4, delta).max_steps(200_000);
            let result = Sim::new(spec, config, model).run();
            let stats = consensus_stats(&result);
            assert!(stats.agreement, "seed={seed}");
            assert!(
                stats.valid_against(&inputs.iter().map(|&b| b as u64).collect::<Vec<_>>()),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn modelcheck_two_procs_exhaustive() {
        // Theorems 2.2 + 2.3 for n=2, 3 rounds, ALL interleavings.
        let report = Explorer::new(ConsensusSpec::new(vec![false, true]).max_rounds(3), 2)
            .check(&SafetySpec::consensus(vec![0, 1]));
        assert!(
            report.proven_safe(),
            "violation or truncation: {:?}",
            report.violation
        );
        assert!(report.states_explored > 100);
    }

    /// The obligation behind the native form's agreed write of `decide`:
    /// over every interleaving, no state holds two different values
    /// written or pending at `decide`, which the explorer checks for every
    /// write labelled agreed. A spec that writes its round-1 input there
    /// instead of its preference must fail it.
    #[test]
    fn modelcheck_decide_takes_one_value() {
        let spec = ConsensusSpec::new(vec![false, true]).max_rounds(3);
        let safety = SafetySpec::consensus(vec![0, 1]);
        let report = Explorer::new(spec.clone(), 2).check(&safety);
        assert!(report.proven_safe(), "{:?}", report.violation);
        let report = Explorer::new(spec.with_decide_writing_input(), 2).check(&safety);
        let cex = report.violation.expect("the mutant writes two values");
        assert!(
            matches!(cex.violation, Violation::DisagreeingWrites { reg, values: (a, b) }
                if reg == RegId(0) && a != b),
            "{}",
            cex.violation
        );
    }

    #[test]
    fn modelcheck_two_procs_same_input() {
        let report = Explorer::new(ConsensusSpec::new(vec![true, true]).max_rounds(3), 2)
            .check(&SafetySpec::consensus(vec![1]));
        assert!(
            report.proven_safe(),
            "with equal inputs only that value may be decided"
        );
    }

    #[test]
    fn modelcheck_symmetric_dpor_agrees_with_naive() {
        use tfr_modelcheck::DporExplorer;
        let safety = SafetySpec::consensus(vec![1]);
        let spec = ConsensusSpec::new(vec![true, true]).max_rounds(3);
        let naive = Explorer::new(spec.clone(), 2).check(&safety);
        let reduced = DporExplorer::new(spec.clone(), 2).check_symmetric(&safety);
        assert!(naive.proven_safe() && reduced.proven_safe());
        assert!(
            reduced.states_explored < naive.states_explored,
            "reduced {} vs naive {}",
            reduced.states_explored,
            naive.states_explored
        );
    }

    #[test]
    fn heterogeneous_delays_restrict_the_symmetry_group() {
        // Equal inputs but distinct per-process Δ estimates: relabelling
        // processes is no longer sound, and `respects` must say so.
        let spec = ConsensusSpec::new(vec![true, true])
            .with_per_process_deltas(vec![Ticks(10), Ticks(500)]);
        let swap = Perm::from_map(vec![1, 0]);
        assert!(!spec.respects(&swap));
        assert!(spec.respects(&Perm::identity(2)));
    }

    #[test]
    fn schedule_doubles_and_caps() {
        let s = DelaySchedule {
            initial: Ticks(10),
            growth: 2,
            cap: Ticks(100),
        };
        assert_eq!(s.delay_for_round(1), Ticks(10));
        assert_eq!(s.delay_for_round(2), Ticks(20));
        assert_eq!(s.delay_for_round(4), Ticks(80));
        assert_eq!(s.delay_for_round(5), Ticks(100), "clamped");
        assert_eq!(
            s.delay_for_round(500),
            Ticks(100),
            "no overflow at huge rounds"
        );
    }

    #[test]
    fn schedule_fixed_is_constant() {
        let s = DelaySchedule::fixed(Ticks(7));
        assert_eq!(s.delay_for_round(1), Ticks(7));
        assert_eq!(s.delay_for_round(9), Ticks(7));
    }

    #[test]
    fn sim_doubling_decides_when_estimate_starts_too_small() {
        // True access times up to 200; the schedule starts at 5 — rounds
        // grow the estimate until it covers the truth, then decision.
        let delta = Delta::from_ticks(200);
        let spec = ConsensusSpec::new(vec![true, false, true])
            .with_schedule(DelaySchedule::doubling(Ticks(5)));
        let result = Sim::new(
            spec,
            RunConfig::new(3, delta),
            standard_no_failures(delta, 17),
        )
        .run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement);
        assert!(stats.all_decided_by.is_some(), "must eventually decide");
    }

    /// The hot specs stay small: a native decision copies no fleet, and
    /// the schedules live behind the fleet's box.
    #[test]
    fn native_specs_keep_their_size() {
        use crate::universal::MultiConsensus;
        assert_eq!(std::mem::size_of::<ConsensusSpec>(), 32);
        assert_eq!(std::mem::size_of::<MultiConsensus>(), 104);
    }

    #[test]
    fn native_solo() {
        let c = NativeConsensus::new(Duration::from_micros(10));
        assert!(c.propose(true));
        assert_eq!(c.decision(), Some(true));
        // Later proposers adopt the decision.
        assert!(c.propose(false));
    }

    #[test]
    fn native_concurrent_agreement() {
        for trial in 0..20 {
            let c = Arc::new(NativeConsensus::new(Duration::from_micros(5)));
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || c.propose((i + trial) % 2 == 0))
                })
                .collect();
            let decisions: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "disagreement in trial {trial}: {decisions:?}"
            );
            assert_eq!(c.decision(), Some(decisions[0]));
        }
    }

    #[test]
    fn native_validity_unanimous() {
        for input in [false, true] {
            let c = Arc::new(NativeConsensus::new(Duration::from_micros(5)));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || c.propose(input))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), input);
            }
        }
    }

    #[test]
    fn native_tiny_delta_is_safe() {
        // delta = 0-ish: an aggressive optimistic(Δ). Liveness may need
        // more rounds; safety must hold.
        for _ in 0..10 {
            let c = Arc::new(NativeConsensus::new(Duration::from_nanos(1)));
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || c.propose(i % 2 == 0))
                })
                .collect();
            let decisions: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn per_process_deltas_are_safe_and_used() {
        let d = Delta::from_ticks(100);
        for seed in 0..20 {
            let spec = ConsensusSpec::new(vec![true, false, true, false])
                .with_per_process_deltas(vec![Ticks(10), Ticks(100), Ticks(400), Ticks(50)]);
            let result = Sim::new(spec, RunConfig::new(4, d), standard_no_failures(d, seed)).run();
            let stats = consensus_stats(&result);
            assert!(stats.agreement, "seed={seed}");
            assert!(stats.all_decided_by.is_some(), "seed={seed}");
        }
    }

    #[test]
    #[should_panic(expected = "one delay estimate per process")]
    fn per_process_deltas_length_checked() {
        let _ = ConsensusSpec::new(vec![true, false]).with_per_process_deltas(vec![Ticks(1)]);
    }

    #[test]
    fn sim_failure_window_then_recovery_decides_next_round() {
        // Theorem 2.1(2): failures confined to a window; once they stop,
        // decision comes within roughly one more round.
        let delta = Delta::from_ticks(100);
        let spec = ConsensusSpec::new(vec![true, false]);
        let model = tfr_sim::timing::FailureWindows::new(
            Fixed::new(Ticks(50)),
            vec![tfr_sim::timing::Window {
                from: Ticks(0),
                to: Ticks(1000),
                pids: Some(vec![ProcId(1)]),
                inflated: Ticks(700),
            }],
        );
        let result = Sim::new(spec, RunConfig::new(2, delta), model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement);
        assert!(
            stats.all_decided_by.is_some(),
            "must decide after the window closes"
        );
    }
}
