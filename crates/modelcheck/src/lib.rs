//! Bounded exhaustive interleaving explorer for register automata.
//!
//! Safety under timing failures (Theorems 2.2, 2.3 and the mutual exclusion
//! property of Algorithm 3) must hold for **every** behaviour the timing
//! failures can produce. In the register model, arbitrary timing failures
//! make arbitrary interleavings of atomic register accesses possible, and
//! strip `delay(d)` of any synchronizing power (other processes' steps may
//! outlast any delay). The *asynchronous closure* explored here — any
//! pending process may linearize its next action at any point, delays are
//! ordinary steps — is therefore a sound over-approximation: a safety
//! property verified over all interleavings holds under arbitrary timing
//! failures.
//!
//! Two explorers share one [`SafetySpec`]/[`Report`] interface:
//!
//! * [`Explorer`] — the reference: depth-first over every interleaving
//!   with exact state deduplication (full states, not hashes — no
//!   collision unsoundness). Slow, but its verdicts are the oracle the
//!   reduced explorers are differentially tested against.
//! * [`DporExplorer`] — dynamic partial-order reduction (persistent
//!   sets computed from register-access conflicts, plus sleep sets),
//!   optionally combined with process-symmetry canonicalization
//!   ([`DporExplorer::check_symmetric`]). Explores a provably
//!   sufficient subset of interleavings.
//!
//! Both explorers check the [`SafetySpec`] after every transition and
//! report either exhaustion or a [`Counterexample`] with the full
//! schedule that reaches the violation.
//!
//! Beyond safety, [`check_eventual_completion`] decides **deadlock
//! freedom** as a graph property of the reachable state space: every
//! reachable state must still have *some* schedule that completes the
//! workload — the obligation a crash-recovery adversary attacks by
//! orphaning a held lock.
//!
//! # Example
//!
//! ```
//! use tfr_modelcheck::{Explorer, SafetySpec};
//! use tfr_registers::spec::{Action, Automaton, Obs};
//! use tfr_registers::{ProcId, RegId};
//!
//! /// Every process decides its own input parity — deliberately broken
//! /// consensus.
//! struct Broken;
//! impl Automaton for Broken {
//!     type State = (ProcId, bool);
//!     fn init(&self, pid: ProcId) -> Self::State { (pid, false) }
//!     fn next_action(&self, s: &Self::State) -> Action {
//!         if s.1 { Action::Halt } else { Action::Read(RegId(0)) }
//!     }
//!     fn apply(&self, s: &mut Self::State, _v: Option<u64>, obs: &mut Vec<Obs>) {
//!         obs.push(Obs::Decided(s.0 .0 as u64 % 2));
//!         s.1 = true;
//!     }
//! }
//!
//! let report = Explorer::new(Broken, 2).check(&SafetySpec::consensus(vec![0, 1]));
//! assert!(report.violation.is_some(), "processes decide different values");
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use tfr_registers::bank::{MapBank, RegisterBank};
use tfr_registers::space::WriteKind;
use tfr_registers::spec::{Action, Automaton, Obs, Symmetric};
use tfr_registers::{ProcId, RegId};

pub mod corpus;
mod dpor;
mod exec;
pub mod independence;
mod symmetry;

pub use dpor::DporExplorer;
pub use exec::{run_schedule, sample_execution, ScheduleRun, StepObs};

use symmetry::{Canon, IdCanon, SymCanon};

/// Which safety properties to check after every transition.
#[derive(Debug, Clone, Default)]
pub struct SafetySpec {
    /// Agreement (Theorem 2.3): no two processes decide different values.
    pub agreement: bool,
    /// Validity (Theorem 2.2): every decided value must be in this set.
    pub validity: Option<Vec<u64>>,
    /// Mutual exclusion: no two processes in the critical section at once.
    pub mutual_exclusion: bool,
}

impl SafetySpec {
    /// Agreement + validity against the given admissible inputs.
    pub fn consensus(inputs: Vec<u64>) -> SafetySpec {
        SafetySpec {
            agreement: true,
            validity: Some(inputs),
            ..SafetySpec::default()
        }
    }

    /// Mutual exclusion only.
    pub fn mutex() -> SafetySpec {
        SafetySpec {
            mutual_exclusion: true,
            ..SafetySpec::default()
        }
    }
}

/// A safety violation found by the explorer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two processes decided different values.
    Disagreement {
        /// First process and its decision.
        a: (ProcId, u64),
        /// Second process and its conflicting decision.
        b: (ProcId, u64),
    },
    /// A process decided a value outside the admissible input set.
    InvalidDecision {
        /// The offending process.
        pid: ProcId,
        /// The value it decided.
        value: u64,
    },
    /// Two processes were in the critical section simultaneously.
    MutualExclusion {
        /// The two offending processes.
        pids: (ProcId, ProcId),
    },
    /// An agreed register's value and a pending write to it, or two
    /// pending writes to it, disagree.
    DisagreeingWrites {
        /// The agreed register.
        reg: RegId,
        /// The two values: the register's (or the first pending write's),
        /// then the disagreeing pending write's.
        values: (u64, u64),
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Disagreement { a, b } => {
                write!(
                    f,
                    "disagreement: {} decided {}, {} decided {}",
                    a.0, a.1, b.0, b.1
                )
            }
            Violation::InvalidDecision { pid, value } => {
                write!(f, "invalid decision: {pid} decided {value}, not an input")
            }
            Violation::MutualExclusion { pids } => {
                write!(
                    f,
                    "mutual exclusion violated: {} and {} in CS",
                    pids.0, pids.1
                )
            }
            Violation::DisagreeingWrites { reg, values } => {
                write!(
                    f,
                    "disagreeing writes to agreed register {}: {} and {}",
                    reg.0, values.0, values.1
                )
            }
        }
    }
}

/// A schedule that drives the system from its initial state into a safety
/// violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violation reached.
    pub violation: Violation,
    /// The linearization order: `(pid, action)` per step.
    pub schedule: Vec<(ProcId, Action)>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.violation)?;
        for (i, (pid, action)) in self.schedule.iter().enumerate() {
            writeln!(f, "  {i:3}: {pid} {action}")?;
        }
        Ok(())
    }
}

/// Result of an exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Distinct global states visited (distinct *canonical* states for
    /// the symmetry-reducing explorers).
    pub states_explored: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// The first violation found, with its schedule; `None` if the explored
    /// space is safe.
    pub violation: Option<Counterexample>,
    /// Whether any branch was cut by the `max_depth` bound. If set and
    /// `violation` is `None`, the result is "no violation within the
    /// depth bound", not a proof.
    pub depth_truncated: bool,
    /// Whether exploration stopped admitting states at the `max_states`
    /// budget. If set and `violation` is `None`, the result is "no
    /// violation within the state budget", not a proof.
    pub states_truncated: bool,
}

impl Report {
    /// Whether any bound cut the exploration short (depth *or* state
    /// budget).
    pub fn truncated(&self) -> bool {
        self.depth_truncated || self.states_truncated
    }

    /// Whether the reachable state space was fully exhausted — no bound
    /// interfered. An exhausted run with no violation is a proof.
    pub fn exhausted(&self) -> bool {
        !self.truncated()
    }

    /// `true` when the full state space was exhausted with no violation —
    /// a proof of safety for this configuration. An exploration cut off
    /// by `max_states` or `max_depth` never satisfies this.
    pub fn proven_safe(&self) -> bool {
        self.violation.is_none() && self.exhausted()
    }
}

/// Monitor folded into the explored state: decisions and critical-section
/// occupancy per process.
///
/// Every field is a per-process slot, so two different processes' monitor
/// updates commute — the property the partial-order reduction's
/// independence relation relies on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub(crate) struct Monitor {
    pub(crate) decided: Vec<Option<u64>>,
    pub(crate) in_cs: Vec<bool>,
}

impl Monitor {
    pub(crate) fn new(n: usize) -> Monitor {
        Monitor {
            decided: vec![None; n],
            in_cs: vec![false; n],
        }
    }

    pub(crate) fn observe(
        &mut self,
        pid: ProcId,
        obs: &[Obs],
        spec: &SafetySpec,
    ) -> Option<Violation> {
        for o in obs {
            match *o {
                Obs::Decided(v) => {
                    if let Some(valid) = &spec.validity {
                        if !valid.contains(&v) {
                            return Some(Violation::InvalidDecision { pid, value: v });
                        }
                    }
                    if spec.agreement {
                        for (j, d) in self.decided.iter().enumerate() {
                            if let Some(w) = d {
                                if *w != v {
                                    return Some(Violation::Disagreement {
                                        a: (ProcId(j), *w),
                                        b: (pid, v),
                                    });
                                }
                            }
                        }
                    }
                    self.decided[pid.0] = Some(v);
                }
                Obs::EnterCritical => {
                    if spec.mutual_exclusion {
                        if let Some(other) = self.in_cs.iter().position(|&c| c) {
                            return Some(Violation::MutualExclusion {
                                pids: (ProcId(other), pid),
                            });
                        }
                    }
                    self.in_cs[pid.0] = true;
                }
                Obs::ExitCritical => {
                    self.in_cs[pid.0] = false;
                }
                _ => {}
            }
        }
        None
    }
}

/// Deterministically replays a schedule — typically a
/// [`Counterexample::schedule`] — from fresh initial state and returns
/// the first violation the safety monitor observes, or `None` if the
/// schedule completes cleanly.
///
/// Replay recomputes every step from the automaton itself and
/// cross-checks it against the recorded action, so a schedule from a
/// different automaton or configuration fails loudly instead of
/// silently diverging. Since both the explorer and this function are
/// deterministic, replaying the same schedule twice must yield the
/// identical violation — the property the regression tests pin down.
///
/// # Panics
///
/// Panics if a scheduled `(pid, action)` does not match what the
/// automaton would do at that point, or if `pid` is out of range.
pub fn replay_schedule<A: Automaton>(
    automaton: &A,
    n: usize,
    spec: &SafetySpec,
    schedule: &[(ProcId, Action)],
) -> Option<Violation> {
    run_schedule(automaton, n, spec, schedule).violation
}

/// One explored global configuration: every process's local state, the
/// shared register bank, and the safety monitor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Global<S> {
    pub(crate) procs: Vec<S>,
    pub(crate) bank: MapBank,
    pub(crate) monitor: Monitor,
}

impl<S> Global<S> {
    /// The initial configuration of `n` copies of `automaton`.
    pub(crate) fn initial<A: Automaton<State = S>>(automaton: &A, n: usize) -> Global<S> {
        Global {
            procs: (0..n).map(|i| automaton.init(ProcId(i))).collect(),
            bank: MapBank::new(),
            monitor: Monitor::new(n),
        }
    }

    /// The processes that can take a step: every process whose automaton
    /// state is not halted, in pid order.
    pub(crate) fn enabled<A: Automaton<State = S>>(&self, automaton: &A) -> Vec<usize> {
        (0..self.procs.len())
            .filter(|&q| !automaton.is_halted(&self.procs[q]))
            .collect()
    }

    /// Executes one atomic step of process `pid` (which must be
    /// [enabled](Global::enabled)): linearizes the access, applies the
    /// local update, and feeds the emitted events to the monitor. Returns
    /// the action taken and the violation, if the monitor saw one.
    pub(crate) fn step<A: Automaton<State = S>>(
        &mut self,
        automaton: &A,
        pid: usize,
        spec: &SafetySpec,
        obs_buf: &mut Vec<Obs>,
    ) -> (Action, Option<Violation>) {
        let action = automaton.next_action(&self.procs[pid]);
        let observed = match action {
            Action::Read(r) => Some(self.bank.read(r)),
            Action::Write(r, v) => {
                self.bank.write(r, v);
                None
            }
            Action::Delay(_) => None,
            Action::Halt => panic!("stepping a halted process"),
        };
        obs_buf.clear();
        automaton.apply(&mut self.procs[pid], observed, obs_buf);
        let violation = self
            .monitor
            .observe(ProcId(pid), obs_buf, spec)
            .or_else(|| self.disagreeing_writes(automaton));
        (action, violation)
    }

    /// The first register with a pending write labelled agreed
    /// ([`Automaton::label`], `WriteKind::Agreed` in `tfr-registers`)
    /// whose nonzero value and pending writes hold two different values.
    /// Every write such a register ever receives must carry one value:
    /// that is the obligation behind serving it with agreed writes, and
    /// checking it before the second write lands catches two disagreeing
    /// writes in either order.
    fn disagreeing_writes<A: Automaton<State = S>>(&self, automaton: &A) -> Option<Violation> {
        for s in &self.procs {
            let Action::Write(reg, _) = automaton.next_action(s) else {
                continue;
            };
            if automaton.label(s).kind != WriteKind::Agreed {
                continue;
            }
            let mut first = Some(self.bank.read(reg)).filter(|&v| v != 0);
            for t in &self.procs {
                let Action::Write(r, v) = automaton.next_action(t) else {
                    continue;
                };
                match first {
                    Some(w) if r == reg && w != v => {
                        return Some(Violation::DisagreeingWrites {
                            reg,
                            values: (w, v),
                        })
                    }
                    _ if r == reg => first = Some(v),
                    _ => {}
                }
            }
        }
        None
    }
}

/// Bounded exhaustive explorer of all interleavings of `n` copies of an
/// automaton.
#[derive(Debug)]
pub struct Explorer<A> {
    automaton: A,
    n: usize,
    max_depth: usize,
    max_states: usize,
}

impl<A: Automaton> Explorer<A> {
    /// An explorer over `n` processes with default bounds
    /// (depth 10 000, 5 000 000 states).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(automaton: A, n: usize) -> Explorer<A> {
        assert!(n > 0, "at least one process is required");
        Explorer {
            automaton,
            n,
            max_depth: 10_000,
            max_states: 5_000_000,
        }
    }

    /// Overrides the depth bound (schedule length).
    pub fn max_depth(mut self, d: usize) -> Explorer<A> {
        self.max_depth = d;
        self
    }

    /// Overrides the distinct-state bound.
    pub fn max_states(mut self, s: usize) -> Explorer<A> {
        self.max_states = s;
        self
    }

    /// Explores every interleaving (up to the bounds), checking `spec`
    /// after each transition.
    pub fn check(&self, spec: &SafetySpec) -> Report {
        self.check_with(spec, &IdCanon)
    }

    fn check_with<C: Canon<A>>(&self, spec: &SafetySpec, canon: &C) -> Report {
        let init = Global::initial(&self.automaton, self.n);

        // seen: canonical state -> shallowest depth at which it was
        // expanded. A state reached again at a depth not smaller than
        // before cannot lead to new behaviour within the depth budget.
        let mut seen: HashMap<Global<A::State>, usize> = HashMap::new();
        let mut transitions = 0usize;
        let mut depth_truncated = false;
        let mut states_truncated = false;

        struct Frame<S> {
            state: Global<S>,
            depth: usize,
            /// The enabled processes not yet expanded from `state`.
            todo: std::vec::IntoIter<usize>,
        }
        let frame = |state: Global<A::State>, depth| Frame {
            todo: state.enabled(&self.automaton).into_iter(),
            state,
            depth,
        };
        let mut schedule: Vec<(ProcId, Action)> = Vec::new();
        seen.insert(canon.canonicalize(&self.automaton, &init).0, 0);
        let mut stack = vec![frame(init, 0)];

        let mut obs_buf: Vec<Obs> = Vec::new();
        while let Some(top) = stack.last_mut() {
            let Some(pid) = top.todo.next() else {
                stack.pop();
                schedule.pop();
                continue;
            };
            if top.depth >= self.max_depth {
                depth_truncated = true;
                continue;
            }
            transitions += 1;

            let mut next = top.state.clone();
            let (action, violation) = next.step(&self.automaton, pid, spec, &mut obs_buf);
            let depth = top.depth + 1;
            schedule.push((ProcId(pid), action));

            if let Some(v) = violation {
                return Report {
                    states_explored: seen.len(),
                    transitions,
                    violation: Some(Counterexample {
                        violation: v,
                        schedule,
                    }),
                    depth_truncated,
                    states_truncated,
                };
            }

            if seen.len() >= self.max_states {
                states_truncated = true;
                schedule.pop();
                continue;
            }
            let (canonical, _) = canon.canonicalize(&self.automaton, &next);
            let expand = match seen.entry(canonical) {
                Entry::Vacant(e) => {
                    e.insert(depth);
                    true
                }
                Entry::Occupied(mut e) => {
                    if depth < *e.get() {
                        e.insert(depth);
                        true
                    } else {
                        false
                    }
                }
            };
            if expand {
                stack.push(frame(next, depth));
            } else {
                schedule.pop();
            }
        }

        Report {
            states_explored: seen.len(),
            transitions,
            violation: None,
            depth_truncated,
            states_truncated,
        }
    }
}

impl<A: Symmetric> Explorer<A> {
    /// Like [`Explorer::check`], but deduplicates states up to process
    /// symmetry: two configurations differing only by a process
    /// relabelling that fixes the initial configuration count as one.
    ///
    /// Sound because the permutations used are automorphisms of the
    /// transition system (see [`tfr_registers::spec::Symmetric`]) and the
    /// safety properties are pid-closed: a disagreement, invalid decision
    /// or mutual-exclusion overlap maps to one of the same kind under any
    /// relabelling.
    pub fn check_symmetric(&self, spec: &SafetySpec) -> Report {
        self.check_with(spec, &SymCanon::stabilizer(&self.automaton, self.n))
    }
}

/// Result of a [`check_eventual_completion`] run.
#[derive(Debug, Clone)]
pub struct ProgressReport {
    /// Distinct reachable global states.
    pub states_explored: usize,
    /// Transitions in the reachable state graph.
    pub transitions: usize,
    /// Whether exploration stopped admitting states at the budget. If
    /// set, `stuck_states` is meaningless — the verdict is "unknown".
    pub truncated: bool,
    /// Reachable states from which **no** schedule reaches completion
    /// (all processes halted). Zero means deadlock freedom: whatever the
    /// adversary has done so far, some continuation finishes the
    /// workload.
    pub stuck_states: usize,
    /// A shortest schedule from the initial state into one stuck state,
    /// if any — the prefix after which completion became unreachable.
    pub stuck_schedule: Option<Vec<(ProcId, Action)>>,
}

impl ProgressReport {
    /// `true` when the full reachable graph was built and every state
    /// can still reach completion — a proof of deadlock freedom (in the
    /// "potential progress" sense: no adversarial prefix wedges the
    /// system) for this configuration.
    pub fn proven_deadlock_free(&self) -> bool {
        !self.truncated && self.stuck_states == 0
    }
}

/// Deadlock-freedom as a graph property of the full reachable state
/// space: build every reachable global state (forward BFS over all
/// interleavings), mark the *completed* states (every process halted),
/// and close backwards. A reachable state outside the backward closure
/// is **stuck**: no continuation whatsoever completes the workload — in
/// the register model, where actions never block, that is how deadlocks
/// and orphaned-lock livelocks (every waiter spinning forever) manifest.
///
/// This is a branching-time "potential progress" property, strictly
/// weaker than starvation freedom but exactly the deadlock-freedom
/// obligation of a recoverable lock: a crash — even inside the critical
/// section — must never make completion unreachable, because the next
/// incarnation's recovery section can always repair.
///
/// Safety is [`Explorer::check`]'s job; this function ignores the
/// monitor's verdicts and only looks at reachability.
///
/// # Example
///
/// ```
/// use tfr_modelcheck::check_eventual_completion;
/// use tfr_registers::spec::{Action, Automaton, Obs};
/// use tfr_registers::{ProcId, RegId};
///
/// /// Spins until the register is nonzero — but nobody ever writes it.
/// struct WaitForever;
/// impl Automaton for WaitForever {
///     type State = bool;
///     fn init(&self, _pid: ProcId) -> bool { false }
///     fn next_action(&self, s: &bool) -> Action {
///         if *s { Action::Halt } else { Action::Read(RegId(0)) }
///     }
///     fn apply(&self, s: &mut bool, v: Option<u64>, _obs: &mut Vec<Obs>) {
///         *s = v == Some(1);
///     }
/// }
///
/// let report = check_eventual_completion(&WaitForever, 2, 10_000);
/// assert!(!report.proven_deadlock_free());
/// assert!(report.stuck_states > 0, "the spin loop can never complete");
/// ```
pub fn check_eventual_completion<A: Automaton>(
    automaton: &A,
    n: usize,
    max_states: usize,
) -> ProgressReport {
    assert!(n > 0, "at least one process is required");
    let spec = SafetySpec::default();
    let mut obs_buf: Vec<Obs> = Vec::new();

    // Forward BFS: the full reachable graph, states interned by index.
    let init = Global::initial(automaton, n);
    let mut index: HashMap<Global<A::State>, usize> = HashMap::new();
    let mut states: Vec<Global<A::State>> = Vec::new();
    // `preds` is all the closure needs; `entered_by` remembers one
    // shortest way in, for the stuck-prefix reconstruction.
    let mut preds: Vec<Vec<usize>> = Vec::new();
    let mut entered_by: Vec<Option<(usize, ProcId, Action)>> = Vec::new();
    let mut truncated = false;
    let mut transitions = 0usize;

    index.insert(init.clone(), 0);
    states.push(init);
    preds.push(Vec::new());
    entered_by.push(None);
    let mut frontier = 0usize;
    while frontier < states.len() {
        let here = frontier;
        frontier += 1;
        for pid in states[here].enabled(automaton) {
            let mut next = states[here].clone();
            let (action, _) = next.step(automaton, pid, &spec, &mut obs_buf);
            transitions += 1;
            let to = match index.entry(next) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    if states.len() >= max_states {
                        truncated = true;
                        continue;
                    }
                    let id = states.len();
                    states.push(e.key().clone());
                    e.insert(id);
                    preds.push(Vec::new());
                    entered_by.push(Some((here, ProcId(pid), action)));
                    id
                }
            };
            preds[to].push(here);
        }
    }

    // Backward closure from the completed states.
    let mut can_complete = vec![false; states.len()];
    let mut queue: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, g)| g.enabled(automaton).is_empty())
        .map(|(i, _)| i)
        .collect();
    for &i in &queue {
        can_complete[i] = true;
    }
    while let Some(i) = queue.pop() {
        for &p in &preds[i] {
            if !can_complete[p] {
                can_complete[p] = true;
                queue.push(p);
            }
        }
    }

    let stuck_states = can_complete.iter().filter(|&&c| !c).count();
    // BFS discovery order is shortest-path order, so the first stuck
    // index unwinds to a shortest wedging prefix.
    let stuck_schedule = can_complete.iter().position(|&c| !c).map(|mut i| {
        let mut rev = Vec::new();
        while let Some((from, pid, action)) = entered_by[i] {
            rev.push((pid, action));
            i = from;
        }
        rev.reverse();
        rev
    });

    ProgressReport {
        states_explored: states.len(),
        transitions,
        truncated,
        stuck_states,
        stuck_schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::RegId;

    /// A racy "adopt first" protocol: read register 0; if unset, write
    /// `input+1` and re-read; decide `value−1`. Two concurrent writers can
    /// overwrite each other after the first has read back — a genuine
    /// disagreement the explorer must find.
    struct AdoptFirst {
        inputs: Vec<u64>,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum AfState {
        Read1(ProcId),
        MaybeWrite(ProcId),
        ReadBack,
        Decide(u64),
        Done,
    }

    impl Automaton for AdoptFirst {
        type State = AfState;
        fn init(&self, pid: ProcId) -> AfState {
            AfState::Read1(pid)
        }
        fn next_action(&self, s: &AfState) -> Action {
            match s {
                AfState::Read1(_) => Action::Read(RegId(0)),
                AfState::MaybeWrite(p) => Action::Write(RegId(0), self.inputs[p.0] + 1),
                AfState::ReadBack => Action::Read(RegId(0)),
                AfState::Decide(_) => Action::Delay(tfr_registers::Ticks(1)),
                AfState::Done => Action::Halt,
            }
        }
        fn apply(&self, s: &mut AfState, observed: Option<u64>, obs: &mut Vec<Obs>) {
            *s = match s {
                AfState::Read1(p) => {
                    if observed == Some(0) {
                        AfState::MaybeWrite(*p)
                    } else {
                        AfState::Decide(observed.unwrap() - 1)
                    }
                }
                AfState::MaybeWrite(_) => AfState::ReadBack,
                AfState::ReadBack => AfState::Decide(observed.unwrap() - 1),
                AfState::Decide(v) => {
                    obs.push(Obs::Decided(*v));
                    AfState::Done
                }
                AfState::Done => unreachable!(),
            };
        }
    }

    #[test]
    fn racy_adopt_first_disagreement_found() {
        let report = Explorer::new(AdoptFirst { inputs: vec![3, 7] }, 2).check(&SafetySpec {
            agreement: true,
            ..SafetySpec::default()
        });
        let cex = report
            .violation
            .expect("the write race is a real disagreement");
        assert!(matches!(cex.violation, Violation::Disagreement { .. }));
        assert!(!cex.schedule.is_empty());
        assert!(!cex.to_string().is_empty());
    }

    /// Both processes decide the constant 9 — safe, and exhaustible.
    struct Const9;
    impl Automaton for Const9 {
        type State = u8;
        fn init(&self, _pid: ProcId) -> u8 {
            0
        }
        fn next_action(&self, s: &u8) -> Action {
            match s {
                0 => Action::Write(RegId(0), 9),
                1 => Action::Read(RegId(0)),
                _ => Action::Halt,
            }
        }
        fn apply(&self, s: &mut u8, observed: Option<u64>, obs: &mut Vec<Obs>) {
            if *s == 1 {
                obs.push(Obs::Decided(observed.unwrap()));
            }
            *s += 1;
        }
    }

    #[test]
    fn safe_automaton_proven_safe() {
        let report = Explorer::new(Const9, 3).check(&SafetySpec::consensus(vec![9]));
        assert!(report.proven_safe());
        assert!(report.states_explored > 1);
    }

    #[test]
    fn completing_automaton_is_proven_deadlock_free() {
        let report = check_eventual_completion(&Const9, 2, 100_000);
        assert!(report.proven_deadlock_free());
        assert_eq!(report.stuck_states, 0);
        assert!(report.stuck_schedule.is_none());
    }

    #[test]
    fn validity_violation_detected() {
        let report = Explorer::new(Const9, 2).check(&SafetySpec::consensus(vec![1, 2]));
        let cex = report.violation.expect("9 is not an admissible input");
        assert!(matches!(
            cex.violation,
            Violation::InvalidDecision { value: 9, .. }
        ));
    }

    /// Both processes walk straight into the critical section — mutual
    /// exclusion obviously violated.
    struct NoLock;
    impl Automaton for NoLock {
        type State = u8;
        fn init(&self, _pid: ProcId) -> u8 {
            0
        }
        fn next_action(&self, s: &u8) -> Action {
            match s {
                0 => Action::Write(RegId(0), 1),
                1 => Action::Write(RegId(0), 0),
                _ => Action::Halt,
            }
        }
        fn apply(&self, s: &mut u8, _observed: Option<u64>, obs: &mut Vec<Obs>) {
            match *s {
                0 => obs.push(Obs::EnterCritical),
                1 => obs.push(Obs::ExitCritical),
                _ => {}
            }
            *s += 1;
        }
    }

    #[test]
    fn mutual_exclusion_violation_detected() {
        let report = Explorer::new(NoLock, 2).check(&SafetySpec::mutex());
        let cex = report.violation.expect("no lock, overlap must exist");
        assert!(matches!(cex.violation, Violation::MutualExclusion { .. }));
    }

    #[test]
    fn single_process_never_violates_mutex() {
        let report = Explorer::new(NoLock, 1).check(&SafetySpec::mutex());
        assert!(report.proven_safe());
    }

    #[test]
    fn depth_bound_marks_truncated() {
        let report = Explorer::new(Const9, 2)
            .max_depth(1)
            .check(&SafetySpec::mutex());
        assert!(report.depth_truncated);
        assert!(!report.states_truncated);
        assert!(report.truncated());
        assert!(!report.exhausted());
        assert!(report.violation.is_none());
        assert!(!report.proven_safe());
    }

    #[test]
    fn state_budget_marks_truncated() {
        let report = Explorer::new(Const9, 2)
            .max_states(2)
            .check(&SafetySpec::mutex());
        assert!(report.states_truncated);
        assert!(!report.depth_truncated);
        assert!(report.truncated());
        assert!(report.violation.is_none());
        assert!(!report.proven_safe(), "a state-budget cut is not a proof");
    }

    #[test]
    fn unbounded_run_is_exhausted() {
        let report = Explorer::new(Const9, 2).check(&SafetySpec::mutex());
        assert!(report.exhausted());
        assert!(!report.depth_truncated && !report.states_truncated);
        assert!(report.proven_safe());
    }

    #[test]
    fn counterexample_replays_to_the_identical_violation_twice() {
        let spec = SafetySpec {
            agreement: true,
            ..SafetySpec::default()
        };
        // Exploration itself is deterministic: two runs, one counterexample.
        let c1 = Explorer::new(AdoptFirst { inputs: vec![3, 7] }, 2)
            .check(&spec)
            .violation
            .unwrap();
        let c2 = Explorer::new(AdoptFirst { inputs: vec![3, 7] }, 2)
            .check(&spec)
            .violation
            .unwrap();
        assert_eq!(c1.violation, c2.violation);
        assert_eq!(c1.schedule, c2.schedule);

        // And replay is deterministic: the same schedule reproduces the
        // same violation, twice.
        let automaton = AdoptFirst { inputs: vec![3, 7] };
        let first = replay_schedule(&automaton, 2, &spec, &c1.schedule);
        let second = replay_schedule(&automaton, 2, &spec, &c1.schedule);
        assert_eq!(first, Some(c1.violation.clone()));
        assert_eq!(first, second);
    }

    #[test]
    fn replay_of_a_clean_prefix_finds_nothing() {
        let spec = SafetySpec {
            agreement: true,
            ..SafetySpec::default()
        };
        let cex = Explorer::new(AdoptFirst { inputs: vec![3, 7] }, 2)
            .check(&spec)
            .violation
            .unwrap();
        let automaton = AdoptFirst { inputs: vec![3, 7] };
        let prefix = &cex.schedule[..cex.schedule.len() - 1];
        assert_eq!(
            replay_schedule(&automaton, 2, &spec, prefix),
            None,
            "the violation happens on the last step, not before"
        );
    }

    #[test]
    #[should_panic(expected = "automaton would")]
    fn replay_rejects_an_action_the_automaton_would_not_take() {
        // Const9 writes 9 first; a schedule recorded against some other
        // automaton that read first must not be silently re-interpreted.
        let schedule = [(ProcId(0), Action::Read(RegId(0)))];
        replay_schedule(&Const9, 2, &SafetySpec::consensus(vec![9]), &schedule);
    }

    #[test]
    fn counterexample_schedule_replays_to_violation() {
        // Replay the schedule by hand and confirm the final decisions
        // disagree — validates that reported schedules are real.
        let automaton = AdoptFirst { inputs: vec![3, 7] };
        let report = Explorer::new(AdoptFirst { inputs: vec![3, 7] }, 2).check(&SafetySpec {
            agreement: true,
            ..SafetySpec::default()
        });
        let cex = report.violation.unwrap();

        let mut bank = MapBank::new();
        let mut procs = [automaton.init(ProcId(0)), automaton.init(ProcId(1))];
        let mut decided = [None, None];
        for &(pid, action) in &cex.schedule {
            let observed = match action {
                Action::Read(r) => Some(bank.read(r)),
                Action::Write(r, v) => {
                    bank.write(r, v);
                    None
                }
                _ => None,
            };
            let mut obs = Vec::new();
            automaton.apply(&mut procs[pid.0], observed, &mut obs);
            for o in obs {
                if let Obs::Decided(v) = o {
                    decided[pid.0] = Some(v);
                }
            }
        }
        let (a, b) = (decided[0], decided[1]);
        assert!(
            a.is_some() && b.is_some() && a != b,
            "replayed schedule must disagree: {a:?} {b:?}"
        );
    }
}
