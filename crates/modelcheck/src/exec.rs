//! Executing concrete schedules: replay with full observation capture,
//! and seeded sampling of explorer-visitable executions.
//!
//! [`crate::replay_schedule`] keeps only [`run_schedule`]'s verdict:
//! "does this schedule violate the spec?". The cross-stack bridges need
//! the rest: the chaos converter wants the per-step actions, and the
//! linearizability bridge wants the [`Obs`] stream
//! (trying/critical/remainder events) with step indices to build a
//! concurrent history. [`sample_execution`] draws one maximal
//! interleaving with a seeded SplitMix64 scheduler — every sampled
//! execution is by construction a path of the exhaustive explorer's
//! tree, so histories extracted from it are "explorer-visited"
//! executions.

use crate::{Global, SafetySpec, Violation};
use tfr_registers::rng::SplitMix64;
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::ProcId;

/// One executed step of a schedule: who moved, what they did, what they
/// emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepObs {
    /// The process that moved.
    pub pid: ProcId,
    /// The atomic action it performed.
    pub action: Action,
    /// The events it emitted while applying the step.
    pub obs: Vec<Obs>,
}

/// The full record of a schedule execution: every step with its
/// observations, and the first violation if the monitor saw one (the
/// run stops there).
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// Executed steps, in schedule order.
    pub steps: Vec<StepObs>,
    /// First violation observed, if any.
    pub violation: Option<Violation>,
}

impl ScheduleRun {
    /// All `(step_index, pid, obs)` triples, flattened.
    pub fn events(&self) -> impl Iterator<Item = (usize, ProcId, Obs)> + '_ {
        self.steps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.obs.iter().map(move |&o| (i, s.pid, o)))
    }
}

/// Replays `schedule` from the initial configuration, recording every
/// step's action and observations. Stops at the first violation of
/// `spec` (the remaining schedule is not executed).
///
/// # Panics
///
/// Panics if a scheduled `(pid, action)` does not match what the
/// automaton would do at that point, if a halted process is scheduled,
/// or if `pid` is out of range.
pub fn run_schedule<A: Automaton>(
    automaton: &A,
    n: usize,
    spec: &SafetySpec,
    schedule: &[(ProcId, Action)],
) -> ScheduleRun {
    let mut global = Global::initial(automaton, n);
    let mut steps = Vec::with_capacity(schedule.len());
    let mut obs_buf = Vec::new();
    for (i, &(pid, action)) in schedule.iter().enumerate() {
        let expected = automaton.next_action(&global.procs[pid.0]);
        assert_eq!(
            action, expected,
            "step {i}: schedule has {pid} take {action}, automaton would {expected}"
        );
        let (_, violation) = global.step(automaton, pid.0, spec, &mut obs_buf);
        steps.push(StepObs {
            pid,
            action,
            obs: obs_buf.clone(),
        });
        if violation.is_some() {
            return ScheduleRun { steps, violation };
        }
    }
    ScheduleRun {
        steps,
        violation: None,
    }
}

/// Samples one maximal execution (all processes halted, or `max_steps`
/// reached) by repeatedly scheduling a uniformly random non-halted
/// process. Deterministic in `seed`.
///
/// Every returned schedule is a path in the interleaving tree the
/// exhaustive explorer walks, so this is the cheap way to obtain
/// "explorer-visited" executions for history extraction.
pub fn sample_execution<A: Automaton>(
    automaton: &A,
    n: usize,
    seed: u64,
    max_steps: usize,
) -> Vec<(ProcId, Action)> {
    let mut rng = SplitMix64::new(seed);
    let mut global = Global::initial(automaton, n);
    let mut schedule = Vec::new();
    let mut obs_buf = Vec::new();
    let spec = SafetySpec::default();
    for _ in 0..max_steps {
        let live = global.enabled(automaton);
        if live.is_empty() {
            break;
        }
        let pid = live[rng.index(live.len())];
        let (action, _) = global.step(automaton, pid, &spec, &mut obs_buf);
        schedule.push((ProcId(pid), action));
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::RegId;

    /// Write 1, read it back, decide, halt.
    struct WriteRead;
    impl Automaton for WriteRead {
        type State = u8;
        fn init(&self, _pid: ProcId) -> u8 {
            0
        }
        fn next_action(&self, s: &u8) -> Action {
            match s {
                0 => Action::Write(RegId(0), 1),
                1 => Action::Read(RegId(0)),
                _ => Action::Halt,
            }
        }
        fn apply(&self, s: &mut u8, v: Option<u64>, obs: &mut Vec<Obs>) {
            if *s == 1 {
                obs.push(Obs::Decided(v.unwrap()));
            }
            *s += 1;
        }
    }

    #[test]
    fn run_schedule_records_steps_and_obs() {
        let schedule = vec![
            (ProcId(0), Action::Write(RegId(0), 1)),
            (ProcId(0), Action::Read(RegId(0))),
        ];
        let run = run_schedule(&WriteRead, 1, &SafetySpec::consensus(vec![1]), &schedule);
        assert_eq!(run.steps.len(), 2);
        assert!(run.violation.is_none());
        let events: Vec<_> = run.events().collect();
        assert_eq!(events, vec![(1, ProcId(0), Obs::Decided(1))]);
    }

    #[test]
    fn sample_execution_is_deterministic_and_maximal() {
        let a = sample_execution(&WriteRead, 3, 42, 100);
        let b = sample_execution(&WriteRead, 3, 42, 100);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 6, "3 processes × 2 steps, all run to halt");
        // Seed 42's exact schedule, pinned so a change of generator or of
        // the live-process draw cannot slip through unnoticed.
        let (w, r) = (Action::Write(RegId(0), 1), Action::Read(RegId(0)));
        let pinned: Vec<(ProcId, Action)> = [(1, w), (1, r), (0, w), (0, r), (2, w), (2, r)]
            .into_iter()
            .map(|(p, act)| (ProcId(p), act))
            .collect();
        assert_eq!(a, pinned);
        let c = sample_execution(&WriteRead, 3, 43, 100);
        // Different seed is allowed to coincide, but the run must still
        // be complete.
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn sampled_execution_is_replayable() {
        let schedule = sample_execution(&WriteRead, 2, 7, 100);
        let spec = SafetySpec::consensus(vec![1]);
        assert_eq!(
            crate::replay_schedule(&WriteRead, 2, &spec, &schedule),
            None
        );
    }
}
