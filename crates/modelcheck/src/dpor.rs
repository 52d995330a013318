//! Dynamic partial-order reduction (persistent sets + sleep sets) with
//! optional process-symmetry canonicalization.
//!
//! The naive [`crate::Explorer`] expands every enabled process at every
//! state; for `n` processes taking `k` steps that is `(nk)!/(k!)^n`
//! interleavings folded only by exact-state dedup. But most of those
//! interleavings differ merely in the order of *independent* steps
//! (see [`crate::independence`]) and reach identical configurations
//! through identical intermediate behaviours. This explorer instead:
//!
//! * starts each state with a **single** candidate process and lazily
//!   adds *backtrack points*: whenever an executed transition conflicts
//!   with an earlier transition on the DFS path, the later process is
//!   added to the earlier state's candidate set (Flanagan–Godefroid
//!   DPOR, with the conservative "add at every racing frame" variant —
//!   a superset of the classic insertions, so the explored set at each
//!   state is still persistent);
//! * keeps **sleep sets**: a transition fully explored from a state is
//!   put to sleep for the state's later children and stays asleep along
//!   edges independent of it, so equivalent orderings are not re-walked;
//! * dedups states — optionally up to process symmetry — while staying
//!   sound in the presence of dedup: every stored state carries a
//!   *subtree access summary* (an over-approximation of all register
//!   accesses possible in its future). When a state is cut because an
//!   equivalent one was already explored, the summary's accesses are
//!   replayed through race detection against the current path, so no
//!   backtrack point is lost to the cut (the classic unsoundness of
//!   naive stateful DPOR);
//! * handles cycles with the standard proviso: if exploration closes a
//!   cycle (reaches a state whose exploration is still on the DFS
//!   stack, possibly via a symmetry), the ancestor is re-expanded fully
//!   and the frames along the loop body do not publish summaries (their
//!   futures include the ancestor's other branches, which their local
//!   subtree does not cover).
//!
//! A subtree summary is sound because the explored transitions at every
//! finalized state form a persistent set: every trace from the state is
//! Mazurkiewicz-equivalent to an explored one, and equivalent traces
//! perform exactly the same multiset of accesses — so the union of the
//! explored children's summaries plus the state's own enabled accesses
//! over-approximates everything any future can do.
//!
//! Verdict equivalence with the naive explorer is pinned down by the
//! differential tests over the random [`crate::corpus`] automata.

use crate::independence::{conflicts, Access, Kind};
use crate::symmetry::{Canon, IdCanon, SymCanon};
use crate::{Counterexample, Global, Report, SafetySpec};
use std::collections::{BTreeSet, HashMap};
use tfr_registers::spec::{Action, Automaton, Obs, Perm, Symmetric};
use tfr_registers::ProcId;

/// An over-approximation of the register accesses a subtree can perform:
/// `(process, footprint)` pairs.
type AccessSet = BTreeSet<(usize, Access)>;

/// Whether an observation batch contains a critical-section event (the
/// part of a footprint the independence relation orders globally).
fn has_cs(obs: &[Obs]) -> bool {
    obs.iter()
        .any(|o| matches!(o, Obs::EnterCritical | Obs::ExitCritical))
}

struct Frame<S> {
    state: Global<S>,
    /// Canonical form of `state` (equal to `state` without symmetry).
    canon: Global<S>,
    /// `permute_global(state, sigma) == canon`.
    sigma: Perm,
    /// Index of this frame's entry in `table[canon]`.
    entry_idx: usize,
    depth: usize,
    /// The processes that can step at `state`.
    enabled: Vec<usize>,
    /// Processes to explore from here (grows as races are discovered).
    backtrack: BTreeSet<usize>,
    /// Processes already explored from here.
    done: BTreeSet<usize>,
    /// Processes whose transition here is covered by an earlier sibling
    /// exploration — skipped.
    sleep: BTreeSet<usize>,
    /// Access summary of this frame's future (own coordinates).
    sub: AccessSet,
    /// Whether any branch below was cut by a bound.
    sub_truncated: bool,
    /// Set when this frame sits on a detected cycle's loop body: its
    /// local summary does not cover its futures, so it must not be
    /// published to the table.
    no_store: bool,
    /// The edge into the currently-pushed child, if any.
    taken: Option<(usize, Action, Access)>,
}

struct TableEntry {
    depth: usize,
    /// Sleep set the exploration ran with, canonical coordinates. A new
    /// visit may reuse the entry only if it would sleep *at least* as
    /// much (explore no more than was already covered).
    sleep: BTreeSet<usize>,
    status: Status,
}

enum Status {
    /// Still on the DFS stack (reaching it again closes a cycle).
    InProgress { frame: usize },
    /// Fully explored; `sub` is the published access summary in
    /// canonical coordinates.
    Done { sub: AccessSet, truncated: bool },
}

/// Bounded explorer using dynamic partial-order reduction, optionally
/// combined with symmetry reduction ([`DporExplorer::check_symmetric`]).
///
/// Same interface and verdict semantics as [`crate::Explorer`]; explores
/// a sufficient subset of interleavings instead of all of them.
#[derive(Debug)]
pub struct DporExplorer<A> {
    automaton: A,
    n: usize,
    max_depth: usize,
    max_states: usize,
}

impl<A: Automaton> DporExplorer<A> {
    /// An explorer over `n` processes with default bounds
    /// (depth 10 000, 5 000 000 states).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(automaton: A, n: usize) -> DporExplorer<A> {
        assert!(n > 0, "at least one process is required");
        DporExplorer {
            automaton,
            n,
            max_depth: 10_000,
            max_states: 5_000_000,
        }
    }

    /// Overrides the depth bound (schedule length).
    pub fn max_depth(mut self, d: usize) -> DporExplorer<A> {
        self.max_depth = d;
        self
    }

    /// Overrides the distinct-state bound.
    pub fn max_states(mut self, s: usize) -> DporExplorer<A> {
        self.max_states = s;
        self
    }

    /// Explores a persistent-set-reduced subset of interleavings,
    /// checking `spec` after each transition. Verdicts agree with
    /// [`crate::Explorer::check`] whenever both runs are exhaustive.
    pub fn check(&self, spec: &SafetySpec) -> Report {
        self.run(spec, &IdCanon)
    }

    /// The footprint of `q`'s next transition at `state`. Whether the
    /// step emits a critical-section event is only known by running it,
    /// so the step is applied speculatively to a clone (with an empty
    /// spec — the probe never reports violations).
    ///
    /// `q` must be enabled (non-halted) at `state`.
    fn footprint(&self, state: &Global<A::State>, q: usize) -> Access {
        let mut probe = state.clone();
        let mut obs: Vec<Obs> = Vec::new();
        let (action, _) = probe.step(&self.automaton, q, &SafetySpec::default(), &mut obs);
        Access {
            kind: Kind::of(action),
            cs: has_cs(&obs),
        }
    }

    fn new_frame(
        &self,
        state: Global<A::State>,
        canon_state: Global<A::State>,
        sigma: Perm,
        depth: usize,
        sleep: BTreeSet<usize>,
        entry_idx: usize,
    ) -> Frame<A::State> {
        let enabled = state.enabled(&self.automaton);
        let backtrack: BTreeSet<usize> = enabled
            .iter()
            .copied()
            .find(|q| !sleep.contains(q))
            .into_iter()
            .collect();
        let sub: AccessSet = enabled
            .iter()
            .map(|&q| (q, self.footprint(&state, q)))
            .collect();
        Frame {
            state,
            canon: canon_state,
            sigma,
            entry_idx,
            depth,
            enabled,
            backtrack,
            done: BTreeSet::new(),
            sleep,
            sub,
            sub_truncated: false,
            no_store: false,
            taken: None,
        }
    }

    fn run<C: Canon<A>>(&self, spec: &SafetySpec, canon: &C) -> Report {
        let mut table: HashMap<Global<A::State>, Vec<TableEntry>> = HashMap::new();
        let mut transitions = 0usize;
        let mut depth_truncated = false;
        let mut states_truncated = false;
        let mut obs_buf: Vec<Obs> = Vec::new();

        let init = Global::initial(&self.automaton, self.n);
        let (init_canon, init_sigma) = canon.canonicalize(&self.automaton, &init);
        let root = self.new_frame(init, init_canon, init_sigma, 0, BTreeSet::new(), 0);
        table.insert(
            root.canon.clone(),
            vec![TableEntry {
                depth: 0,
                sleep: BTreeSet::new(),
                status: Status::InProgress { frame: 0 },
            }],
        );
        let mut stack: Vec<Frame<A::State>> = vec![root];

        while let Some(top) = stack.len().checked_sub(1) {
            // Pick the next candidate at the top frame: in the backtrack
            // set, enabled, not yet explored, not asleep. BTreeSet
            // iteration makes the choice (and thus the whole exploration)
            // deterministic.
            let pick = {
                let f = &stack[top];
                f.backtrack
                    .iter()
                    .copied()
                    .find(|q| f.enabled.contains(q) && !f.done.contains(q) && !f.sleep.contains(q))
            };
            let Some(p) = pick else {
                // Frame finished: publish (or retract) its table entry
                // and fold its summary into the parent.
                let f = stack.pop().expect("non-empty stack");
                let entries = table.get_mut(&f.canon).expect("entry exists");
                if f.no_store {
                    entries.swap_remove(f.entry_idx);
                } else {
                    let sub_canon: AccessSet = f
                        .sub
                        .iter()
                        .map(|&(q, a)| canon.permute_access(&self.automaton, q, a, &f.sigma))
                        .collect();
                    entries[f.entry_idx].status = Status::Done {
                        sub: sub_canon,
                        truncated: f.sub_truncated,
                    };
                }
                if let Some(parent) = stack.last_mut() {
                    parent.sub.extend(f.sub.iter().copied());
                    parent.sub_truncated |= f.sub_truncated;
                    parent.taken = None;
                }
                continue;
            };

            stack[top].done.insert(p);
            if stack[top].depth >= self.max_depth {
                depth_truncated = true;
                stack[top].sub_truncated = true;
                continue;
            }

            let mut next = stack[top].state.clone();
            let (action, violation) = next.step(&self.automaton, p, spec, &mut obs_buf);
            transitions += 1;
            // The full footprint is only known now: whether the step
            // emitted a critical-section event is part of it.
            let access = Access {
                kind: Kind::of(action),
                cs: has_cs(&obs_buf),
            };

            // Race detection for the executed transition: every earlier
            // edge on the path that conflicts with it gets `p` as a
            // backtrack point — the other order must be tried there.
            for frame in stack.iter_mut().take(top) {
                if let Some((q, _, acc)) = frame.taken {
                    if conflicts(q, acc, p, access) {
                        frame.backtrack.insert(p);
                    }
                }
            }

            if let Some(v) = violation {
                let mut schedule: Vec<(ProcId, Action)> = stack
                    .iter()
                    .filter_map(|f| f.taken.map(|(q, a, _)| (ProcId(q), a)))
                    .collect();
                schedule.push((ProcId(p), action));
                return Report {
                    states_explored: table.len(),
                    transitions,
                    violation: Some(Counterexample {
                        violation: v,
                        schedule,
                    }),
                    depth_truncated,
                    states_truncated,
                };
            }

            // A transition that does not change the configuration at all
            // (a spin re-read) only generates the same state's other
            // interleavings: skip it. Its access is already in the
            // frame's summary and was race-checked above.
            if next == stack[top].state {
                continue;
            }

            let depth = stack[top].depth + 1;

            // Sleep set inherited along the edge: entries independent of
            // the executed transition stay asleep; the executed process
            // itself goes to sleep for later siblings.
            let child_sleep: BTreeSet<usize> = stack[top]
                .sleep
                .iter()
                .copied()
                .filter(|&q| {
                    let qa = self.footprint(&stack[top].state, q);
                    !conflicts(q, qa, p, access)
                })
                .collect();
            stack[top].sleep.insert(p);

            let (canon_state, sigma) = canon.canonicalize(&self.automaton, &next);
            let sleep_canon: BTreeSet<usize> = child_sleep
                .iter()
                .map(|&q| {
                    canon
                        .permute_access(&self.automaton, q, Access::LOCAL, &sigma)
                        .0
                })
                .collect();

            // Can this state be cut against an existing table entry?
            enum Outcome {
                Explore,
                Cut {
                    absorbed: AccessSet,
                    truncated: bool,
                },
                Cycle {
                    ancestor: usize,
                },
            }
            let outcome = match table.get(&canon_state) {
                None => Outcome::Explore,
                Some(entries) => {
                    // Prefer a reusable finished summary; fall back to the
                    // cycle proviso if the only match is still on the
                    // stack; explore otherwise.
                    let mut out = Outcome::Explore;
                    for e in entries {
                        match &e.status {
                            Status::InProgress { frame } => {
                                if matches!(out, Outcome::Explore) {
                                    out = Outcome::Cycle { ancestor: *frame };
                                }
                            }
                            Status::Done { sub, truncated } => {
                                // Reusable only if the stored run had at
                                // least as much depth budget left and
                                // explored at least as much (slept no
                                // more than we would).
                                if e.depth <= depth && e.sleep.is_subset(&sleep_canon) {
                                    let inv = sigma.inverse();
                                    let absorbed: AccessSet = sub
                                        .iter()
                                        .map(|&(q, a)| {
                                            canon.permute_access(&self.automaton, q, a, &inv)
                                        })
                                        .collect();
                                    out = Outcome::Cut {
                                        absorbed,
                                        truncated: *truncated,
                                    };
                                    break;
                                }
                            }
                        }
                    }
                    out
                }
            };

            match outcome {
                Outcome::Cut {
                    absorbed,
                    truncated,
                } => {
                    // The cut subtree's future accesses still race with
                    // the *current* path — replay them through backtrack
                    // insertion so the dedup loses no reorderings.
                    for &(q, acc) in &absorbed {
                        for frame in stack.iter_mut().take(top) {
                            if let Some((w, _, wacc)) = frame.taken {
                                if conflicts(w, wacc, q, acc) {
                                    frame.backtrack.insert(q);
                                }
                            }
                        }
                        if conflicts(p, access, q, acc) {
                            stack[top].backtrack.insert(q);
                        }
                    }
                    stack[top].sub.extend(absorbed);
                    stack[top].sub_truncated |= truncated;
                }
                Outcome::Cycle { ancestor } => {
                    // Proviso: somewhere on every cycle one state must be
                    // fully expanded, or transitions could be ignored
                    // forever (the "ignoring problem"). Re-expand the
                    // ancestor completely and drop the loop body's
                    // summaries — their futures include the ancestor's
                    // other branches.
                    stack[ancestor].backtrack = stack[ancestor].enabled.iter().copied().collect();
                    stack[ancestor].sleep.clear();
                    // The ancestor now explores with an empty sleep set;
                    // advertise that, so its summary is maximally
                    // reusable.
                    let (c, ei) = (stack[ancestor].canon.clone(), stack[ancestor].entry_idx);
                    table.get_mut(&c).expect("ancestor entry")[ei].sleep.clear();
                    for f in stack.iter_mut().skip(ancestor + 1) {
                        f.no_store = true;
                    }
                }
                Outcome::Explore => {
                    if !table.contains_key(&canon_state) && table.len() >= self.max_states {
                        states_truncated = true;
                        stack[top].sub_truncated = true;
                        continue;
                    }
                    stack[top].taken = Some((p, action, access));
                    let entries = table.entry(canon_state.clone()).or_default();
                    let entry_idx = entries.len();
                    entries.push(TableEntry {
                        depth,
                        sleep: sleep_canon,
                        status: Status::InProgress { frame: stack.len() },
                    });
                    let frame =
                        self.new_frame(next, canon_state, sigma, depth, child_sleep, entry_idx);
                    stack.push(frame);
                }
            }
        }

        Report {
            states_explored: table.len(),
            transitions,
            violation: None,
            depth_truncated,
            states_truncated,
        }
    }
}

impl<A: Symmetric> DporExplorer<A> {
    /// [`DporExplorer::check`] plus process-symmetry canonicalization:
    /// states differing only by a process relabelling that fixes the
    /// initial configuration dedupe to one canonical representative, and
    /// cut summaries are mapped through the matching permutation.
    pub fn check_symmetric(&self, spec: &SafetySpec) -> Report {
        self.run(spec, &SymCanon::stabilizer(&self.automaton, self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::RegId;

    /// Two writers to distinct registers then one read each — fully
    /// independent, so DPOR should explore a single interleaving class.
    struct Disjoint;
    impl Automaton for Disjoint {
        type State = (ProcId, u8);
        fn init(&self, pid: ProcId) -> Self::State {
            (pid, 0)
        }
        fn next_action(&self, s: &Self::State) -> Action {
            match s.1 {
                0 => Action::Write(RegId(s.0 .0 as u64), 1),
                1 => Action::Read(RegId(s.0 .0 as u64)),
                _ => Action::Halt,
            }
        }
        fn apply(&self, s: &mut Self::State, _v: Option<u64>, _obs: &mut Vec<Obs>) {
            s.1 += 1;
        }
    }

    #[test]
    fn independent_processes_explore_one_interleaving() {
        let spec = SafetySpec::default();
        let naive = crate::Explorer::new(Disjoint, 3).check(&spec);
        let dpor = DporExplorer::new(Disjoint, 3).check(&spec);
        assert!(naive.proven_safe() && dpor.proven_safe());
        // 3 processes × 2 steps fully independent: one representative
        // order suffices — 7 states on a single path (plus nothing else).
        assert_eq!(dpor.transitions, 6, "one interleaving of 6 steps");
        assert!(
            dpor.states_explored < naive.states_explored,
            "dpor {} vs naive {}",
            dpor.states_explored,
            naive.states_explored
        );
    }

    /// Ping-pong over one register — a genuinely cyclic state space.
    /// Process i writes its own id when it reads the other's; runs are
    /// infinite but the global state space is 4 configurations.
    struct PingPong;
    impl Automaton for PingPong {
        type State = (ProcId, bool);
        fn init(&self, pid: ProcId) -> Self::State {
            (pid, false)
        }
        fn next_action(&self, s: &Self::State) -> Action {
            if s.1 {
                Action::Write(RegId(0), s.0 .0 as u64 + 1)
            } else {
                Action::Read(RegId(0))
            }
        }
        fn apply(&self, s: &mut Self::State, v: Option<u64>, _obs: &mut Vec<Obs>) {
            match v {
                // After a read: write back only if the register holds the
                // other process (or nobody).
                Some(val) => s.1 = val != s.0 .0 as u64 + 1,
                None => s.1 = false,
            }
        }
    }

    #[test]
    fn cyclic_state_space_terminates_and_matches_naive() {
        let spec = SafetySpec::default();
        let naive = crate::Explorer::new(PingPong, 2).check(&spec);
        let dpor = DporExplorer::new(PingPong, 2).check(&spec);
        assert!(naive.proven_safe(), "no safety predicate, trivially safe");
        assert!(dpor.proven_safe(), "cycle proviso must not lose exhaustion");
    }
}
