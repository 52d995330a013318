//! The discrete-event engine: issues actions, assigns durations via the
//! timing model, linearizes each action at its completion instant.
//!
//! The engine is split in two layers:
//!
//! * [`Sim`] — the configuration-time builder (automaton, [`RunConfig`],
//!   timing model, injected faults). [`Sim::run`] executes to completion.
//! * [`Engine`] — the resumable run state. [`Sim::start`] creates one;
//!   [`Engine::run_until`] advances it up to a virtual-time limit and can
//!   be called repeatedly.
//!
//! Pending completion events live behind the [`Scheduler`] trait
//! (`crate::sched`). The engine's scheduler is a type parameter: the
//! hierarchical [`TimerWheel`] by default, or whatever [`Sim::run_on`] is
//! handed — the original `BinaryHeap` reference
//! ([`crate::sched::HeapScheduler`]) in the differential test tier, which
//! proves the two trace-identical.

use crate::sched::{Event, Scheduler, TimerWheel};
use crate::timing::{Fate, StepCtx, TimingModel};
use tfr_registers::bank::{ArrayBank, RegisterBank};
use tfr_registers::spec::{Action, Automaton, Obs};
use tfr_registers::{Delta, ProcId, Ticks};

/// Static parameters of a simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of processes (`ProcId(0)..ProcId(n-1)`).
    pub n: usize,
    /// The known bound Δ of the timing-based model; used only to *count*
    /// timing failures (an access whose duration exceeds Δ) — the timing
    /// model, not Δ, decides actual durations.
    pub delta: Delta,
    /// Stop once the virtual clock passes this instant (the run is then
    /// marked [`RunResult::timed_out`]).
    pub max_time: Ticks,
    /// Stop after this many linearized actions.
    pub max_steps: u64,
    /// Record the full action trace (costs memory; off by default).
    pub record_trace: bool,
}

impl RunConfig {
    /// A config for `n` processes with bound `delta`, a generous time
    /// budget of `100_000·Δ` and a step budget that **scales with n**:
    /// `max(10_000_000, n · 1_000)`. A fixed 10M-step budget silently
    /// truncated million-process runs mid-warmup (10 steps per process);
    /// the scaled budget keeps ≥1000 steps per process at any n. Runs cut
    /// off by either budget come back with [`RunResult::timed_out`] set —
    /// check it whenever a run unexpectedly "finishes".
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, delta: Delta) -> RunConfig {
        assert!(n > 0, "at least one process is required");
        RunConfig {
            n,
            delta,
            max_time: delta.times(100_000),
            max_steps: 10_000_000u64.max((n as u64).saturating_mul(1_000)),
            record_trace: false,
        }
    }

    /// Overrides the virtual-time budget.
    pub fn max_time(mut self, t: Ticks) -> RunConfig {
        self.max_time = t;
        self
    }

    /// Overrides the step budget.
    pub fn max_steps(mut self, s: u64) -> RunConfig {
        self.max_steps = s;
        self
    }

    /// Enables full action tracing.
    pub fn record_trace(mut self) -> RunConfig {
        self.record_trace = true;
        self
    }
}

/// An observable event with the instant and process that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedObs {
    /// The virtual instant the event occurred (the completion instant of
    /// the step that emitted it).
    pub time: Ticks,
    /// The emitting process.
    pub pid: ProcId,
    /// The event.
    pub obs: Obs,
}

/// One linearized action in the full trace (only recorded when
/// [`RunConfig::record_trace`] is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// When the action was issued.
    pub issued: Ticks,
    /// When it completed (= its linearization instant).
    pub completed: Ticks,
    /// The acting process.
    pub pid: ProcId,
    /// The action.
    pub action: Action,
}

/// Everything a simulation run produced.
///
/// Derives `PartialEq`: two results compare equal exactly when they agree
/// on every observable — obs order, trace, step/failure counts, final
/// register contents. The wheel-vs-heap differential battery asserts this
/// bit-identity across schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Number of processes.
    pub n: usize,
    /// The Δ bound the run was configured with.
    pub delta: Delta,
    /// All observable events, in linearization order.
    pub obs: Vec<TimedObs>,
    /// Full action trace (empty unless tracing was enabled).
    pub trace: Vec<TraceStep>,
    /// Number of linearized actions.
    pub steps: u64,
    /// The instant of the last linearized action.
    pub end_time: Ticks,
    /// Which processes halted normally.
    pub halted: Vec<bool>,
    /// Which processes crashed.
    pub crashed: Vec<bool>,
    /// Number of shared-memory accesses that took longer than Δ — the
    /// paper's timing failures.
    pub timing_failures: u64,
    /// Whether the run was **truncated** by the time or step budget
    /// rather than finishing. A truncated run's `obs`, counts and
    /// `final_bank` describe a *prefix* of the execution, not its end
    /// state — treat any metric computed from one as a lower bound.
    /// Always check this flag before drawing conclusions from a run;
    /// `RunConfig::new` scales the step budget with `n` precisely so
    /// large runs don't trip it silently.
    pub timed_out: bool,
    /// The final register file (compares extensionally, so how far it
    /// grew never affects equality).
    pub final_bank: ArrayBank,
}

impl RunResult {
    /// Whether every process halted normally.
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|&h| h)
    }

    /// Events of one kind, as `(time, pid, payload)` via a filter-map.
    pub fn events<'a, T: 'a>(
        &'a self,
        mut f: impl FnMut(&Obs) -> Option<T> + 'a,
    ) -> impl Iterator<Item = (Ticks, ProcId, T)> + 'a {
        self.obs
            .iter()
            .filter_map(move |e| f(&e.obs).map(|t| (e.time, e.pid, t)))
    }

    /// The value process `pid` decided, with the decision instant.
    pub fn decision_of(&self, pid: ProcId) -> Option<(Ticks, u64)> {
        self.obs.iter().find_map(|e| match e.obs {
            Obs::Decided(v) if e.pid == pid => Some((e.time, v)),
            _ => None,
        })
    }

    /// All decisions as `(pid, time, value)` in decision order.
    pub fn decisions(&self) -> Vec<(ProcId, Ticks, u64)> {
        self.events(|o| match o {
            Obs::Decided(v) => Some(*v),
            _ => None,
        })
        .map(|(t, p, v)| (p, t, v))
        .collect()
    }

    /// The latest decision instant, if every non-crashed process decided.
    pub fn last_decision_time(&self) -> Option<Ticks> {
        let decided: Vec<ProcId> = self.decisions().iter().map(|d| d.0).collect();
        for i in 0..self.n {
            if !self.crashed[i] && !decided.contains(&ProcId(i)) {
                return None;
            }
        }
        self.decisions().iter().map(|d| d.1).max()
    }
}

/// A transient memory failure: at `at`, register `reg` is corrupted to
/// `value` (out of band — no process writes it).
///
/// §4 of the paper lists "both (transient) memory failures and timing
/// failures" as a research extension; fault injection makes the
/// sensitivity measurable (experiment E14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterFault {
    /// The instant the corruption takes effect (before any action
    /// linearizing at or after this instant).
    pub at: Ticks,
    /// The corrupted register.
    pub reg: tfr_registers::RegId,
    /// The value it is corrupted to.
    pub value: u64,
}

/// A simulation of `n` copies of one automaton under a timing model.
#[derive(Debug)]
pub struct Sim<A, M> {
    automaton: A,
    config: RunConfig,
    model: M,
    faults: Vec<RegisterFault>,
}

impl<A: Automaton, M: TimingModel> Sim<A, M> {
    /// Creates the simulation; nothing runs until [`Sim::run`] or
    /// [`Sim::start`].
    pub fn new(automaton: A, config: RunConfig, model: M) -> Sim<A, M> {
        Sim {
            automaton,
            config,
            model,
            faults: Vec::new(),
        }
    }

    /// Injects transient register corruptions (sorted internally by
    /// instant). Faults model §4's memory failures: they change register
    /// contents out of band and are invisible to the timing model.
    pub fn with_faults(mut self, mut faults: Vec<RegisterFault>) -> Sim<A, M> {
        faults.sort_by_key(|f| f.at);
        self.faults = faults;
        self
    }

    /// Runs to completion (all processes halted or crashed) or until a
    /// budget is exhausted, on the timer wheel.
    pub fn run(self) -> RunResult {
        self.run_on(TimerWheel::new())
    }

    /// [`Sim::run`] on the given (empty) scheduler — how the differential
    /// tests and E25 run the `BinaryHeap` reference.
    pub fn run_on<Q: Scheduler>(self, sched: Q) -> RunResult {
        let mut engine = self.start_on(sched);
        engine.run_until(Ticks::NEVER);
        engine.finish()
    }

    /// Builds the resumable run state on the timer wheel: initializes
    /// every process and issues its first action at instant 0, but
    /// linearizes nothing yet.
    pub fn start(self) -> Engine<A, M> {
        self.start_on(TimerWheel::new())
    }

    fn start_on<Q: Scheduler>(self, sched: Q) -> Engine<A, M, Q> {
        let n = self.config.n;
        let procs = (0..n)
            .map(|i| ProcSlot {
                state: self.automaton.init(ProcId(i)),
                pending: None,
                issued_at: Ticks::ZERO,
                steps: 0,
                halted: false,
                crashed: false,
            })
            .collect();
        let mut engine = Engine {
            automaton: self.automaton,
            model: self.model,
            faults: self.faults,
            bank: ArrayBank::new(),
            procs,
            obs_out: Vec::new(),
            trace: Vec::new(),
            global_step: 0,
            timing_failures: 0,
            timed_out: false,
            end_time: Ticks::ZERO,
            steps: 0,
            next_fault: 0,
            sched,
            stashed: None,
            obs_buf: Vec::new(),
            config: self.config,
        };
        for pid in 0..n {
            engine.issue(pid, Ticks::ZERO);
        }
        engine
    }
}

/// What stopped an [`Engine::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// No pending events remain: every process halted or crashed.
    Idle,
    /// The next pending event lies beyond the given limit; the engine can
    /// be resumed with a later limit.
    Paused,
    /// The run hit its time or step budget and is permanently
    /// [`RunResult::timed_out`].
    Budget,
}

/// Per-process run state, kept in one struct so the two random-indexed
/// accesses every event performs (issue + completion) touch one cache
/// line instead of five parallel arrays — at 10^5+ processes those are
/// real cache misses on every event. Aligned to a cache line so a slot
/// never straddles two of them.
#[derive(Debug)]
#[repr(align(64))]
struct ProcSlot<S> {
    state: S,
    pending: Option<Action>,
    issued_at: Ticks,
    steps: u64,
    halted: bool,
    crashed: bool,
}

/// The resumable run state of one simulation.
///
/// Created by [`Sim::start`]; advanced by [`Engine::run_until`]; consumed
/// by [`Engine::finish`]. `Q` is the event scheduler.
#[derive(Debug)]
pub struct Engine<A: Automaton, M, Q: Scheduler = TimerWheel> {
    automaton: A,
    config: RunConfig,
    model: M,
    faults: Vec<RegisterFault>,
    bank: ArrayBank,
    procs: Vec<ProcSlot<A::State>>,
    obs_out: Vec<TimedObs>,
    trace: Vec<TraceStep>,
    global_step: u64,
    timing_failures: u64,
    timed_out: bool,
    end_time: Ticks,
    steps: u64,
    next_fault: usize,
    sched: Q,
    /// An event popped but found to lie beyond the `run_until` limit; it
    /// fires first on the next call.
    stashed: Option<Event>,
    obs_buf: Vec<Obs>,
}

impl<A: Automaton, M: TimingModel, Q: Scheduler> Engine<A, M, Q> {
    /// Issues the next action of process `pid` at instant `now` (or marks
    /// it halted/crashed).
    fn issue(&mut self, pid: usize, now: Ticks) {
        let slot = &mut self.procs[pid];
        let action = self.automaton.next_action(&slot.state);
        if matches!(action, Action::Halt) {
            slot.halted = true;
            return;
        }
        let ctx = StepCtx {
            pid: ProcId(pid),
            action,
            now,
            global_step: self.global_step,
            proc_step: slot.steps,
        };
        match self.model.fate(ctx) {
            Fate::Crash => {
                self.procs[pid].crashed = true;
            }
            Fate::Take(dur) => {
                // A delay never completes before its requested length.
                let dur = match action {
                    Action::Delay(d) => Ticks(dur.0.max(d.0)),
                    _ => dur,
                };
                if action.is_shared_access() && dur > self.config.delta.ticks() {
                    self.timing_failures += 1;
                }
                let slot = &mut self.procs[pid];
                slot.pending = Some(action);
                slot.issued_at = now;
                slot.steps += 1;
                self.global_step += 1;
                self.sched.schedule(now.saturating_add(dur), pid);
            }
        }
    }

    /// Applies all injected faults with `at <= upto`.
    fn apply_faults(&mut self, upto: Ticks) {
        while self.next_fault < self.faults.len() && self.faults[self.next_fault].at <= upto {
            let f = self.faults[self.next_fault];
            self.bank.write(f.reg, f.value);
            self.next_fault += 1;
        }
    }

    /// Advances the run until the next event lies beyond `limit`, all
    /// processes stop, or a budget trips. Events **at** `limit` are still
    /// processed; resuming with a later limit continues exactly where the
    /// run left off.
    ///
    /// The loop body is the engine's hot path — at 10^5+ processes it
    /// runs tens of millions of times per wall second, so it borrows
    /// every field once per event (one bounds check on `procs`, no
    /// re-resolution across the automaton/model/scheduler calls) and
    /// fuses completion with the next issue. The private `Engine::issue` is the
    /// same issue logic as a cold method; the two must stay in sync.
    pub fn run_until(&mut self, limit: Ticks) -> EngineStatus {
        if self.timed_out {
            return EngineStatus::Budget;
        }
        // A stash only exists right after a pause; deal with it here so
        // the hot loop below never touches it.
        if let Some(ev) = self.stashed.take() {
            if ev.time > limit {
                self.stashed = Some(ev);
                return EngineStatus::Paused;
            }
            if let Some(status) = self.step(ev) {
                return status;
            }
        }
        loop {
            let ev = match self.sched.pop() {
                Some(ev) => ev,
                None => return EngineStatus::Idle,
            };
            if ev.time > limit {
                self.stashed = Some(ev);
                return EngineStatus::Paused;
            }
            if let Some(status) = self.step(ev) {
                return status;
            }
        }
    }

    /// Processes one popped event: budget checks, faults, linearization,
    /// and the fused re-issue. Returns `Some` when the run must stop.
    #[inline]
    fn step(&mut self, ev: Event) -> Option<EngineStatus> {
        let now = ev.time;
        // Budget checks happen after the pop (the budget-tripping
        // event is dropped, not linearized) — the semantics the
        // original driver pinned down in its truncation tests.
        if now > self.config.max_time || self.steps >= self.config.max_steps {
            self.timed_out = true;
            return Some(EngineStatus::Budget);
        }
        // Hide the next event's random ProcSlot access behind this
        // event's work — at 10^5+ processes that access is a cache
        // miss that would otherwise serialize with everything below.
        #[cfg(target_arch = "x86_64")]
        if let Some(next) = self.sched.peek_pid() {
            // SAFETY: prefetch is a hint with no memory effects; the
            // pointer is in-bounds for the procs allocation.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    (self.procs.as_ptr() as *const i8)
                        .add(next * std::mem::size_of::<ProcSlot<A::State>>()),
                    std::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
        // Transient memory failures strike before anything linearizes
        // at or after their instant (cold unless faults were injected).
        if self.next_fault < self.faults.len() {
            self.apply_faults(now);
        }
        self.end_time = now;
        self.steps += 1;
        let pid = ev.pid;

        // One borrow of each field for the whole completion + re-issue;
        // `slot` is the single random-indexed access of the event.
        let Engine {
            procs,
            automaton,
            model,
            bank,
            config,
            trace,
            obs_buf,
            obs_out,
            global_step,
            timing_failures,
            sched,
            ..
        } = self;
        let slot = &mut procs[pid];
        let action = slot
            .pending
            .take()
            .expect("completion without pending action");
        // Linearize the action at its completion instant.
        let observed = match action {
            Action::Read(r) => Some(bank.read(r)),
            Action::Write(r, v) => {
                bank.write(r, v);
                None
            }
            Action::Delay(_) => None,
            Action::Halt => unreachable!("Halt is never scheduled"),
        };
        if config.record_trace {
            trace.push(TraceStep {
                issued: slot.issued_at,
                completed: now,
                pid: ProcId(pid),
                action,
            });
        }
        obs_buf.clear();
        automaton.apply(&mut slot.state, observed, obs_buf);
        if !obs_buf.is_empty() {
            obs_out.extend(obs_buf.drain(..).map(|obs| TimedObs {
                time: now,
                pid: ProcId(pid),
                obs,
            }));
        }
        // Fused issue — keep in sync with `Engine::issue`.
        let action = automaton.next_action(&slot.state);
        if matches!(action, Action::Halt) {
            slot.halted = true;
            return None;
        }
        let ctx = StepCtx {
            pid: ProcId(pid),
            action,
            now,
            global_step: *global_step,
            proc_step: slot.steps,
        };
        match model.fate(ctx) {
            Fate::Crash => {
                slot.crashed = true;
            }
            Fate::Take(dur) => {
                // A delay never completes before its requested length.
                let dur = match action {
                    Action::Delay(d) => Ticks(dur.0.max(d.0)),
                    _ => dur,
                };
                if action.is_shared_access() && dur > config.delta.ticks() {
                    *timing_failures += 1;
                }
                slot.pending = Some(action);
                slot.issued_at = now;
                slot.steps += 1;
                *global_step += 1;
                sched.schedule(now.saturating_add(dur), pid);
            }
        }
        None
    }

    /// Consumes the engine into the final [`RunResult`].
    pub fn finish(self) -> RunResult {
        RunResult {
            n: self.config.n,
            delta: self.config.delta,
            obs: self.obs_out,
            trace: self.trace,
            steps: self.steps,
            end_time: self.end_time,
            halted: self.procs.iter().map(|p| p.halted).collect(),
            crashed: self.procs.iter().map(|p| p.crashed).collect(),
            timing_failures: self.timing_failures,
            timed_out: self.timed_out,
            final_bank: self.bank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::HeapScheduler;
    use crate::timing::{CrashSchedule, Fixed, Scripted};
    use tfr_registers::RegId;

    /// Increments register 0 `rounds` times: read, write back +1.
    #[derive(Debug)]
    struct Counter {
        rounds: u64,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct CounterState {
        left: u64,
        seen: Option<u64>,
    }

    impl Automaton for Counter {
        type State = CounterState;
        fn init(&self, _pid: ProcId) -> CounterState {
            CounterState {
                left: self.rounds,
                seen: None,
            }
        }
        fn next_action(&self, s: &CounterState) -> Action {
            if s.left == 0 {
                Action::Halt
            } else {
                match s.seen {
                    None => Action::Read(RegId(0)),
                    Some(v) => Action::Write(RegId(0), v + 1),
                }
            }
        }
        fn apply(&self, s: &mut CounterState, observed: Option<u64>, obs: &mut Vec<Obs>) {
            match s.seen {
                None => s.seen = Some(observed.expect("read observes a value")),
                Some(_) => {
                    s.seen = None;
                    s.left -= 1;
                    if s.left == 0 {
                        obs.push(Obs::Note("done", 0));
                    }
                }
            }
        }
    }

    #[test]
    fn single_process_counts_to_rounds() {
        let config = RunConfig::new(1, Delta::from_ticks(100));
        let result = Sim::new(Counter { rounds: 5 }, config, Fixed::new(Ticks(10))).run();
        assert!(result.all_halted());
        assert_eq!(result.final_bank.read(RegId(0)), 5);
        assert_eq!(result.steps, 10, "5 reads + 5 writes");
        assert_eq!(result.end_time, Ticks(100));
        assert_eq!(result.timing_failures, 0);
        assert!(!result.timed_out);
    }

    #[test]
    fn interleaving_can_lose_updates() {
        // Two processes, scripted so both read 0 before either writes:
        // the classic lost update, demonstrating linearization-at-completion.
        let model = Scripted::new(Ticks(10))
            .set(ProcId(0), 0, Fate::Take(Ticks(10))) // read completes t=10
            .set(ProcId(1), 0, Fate::Take(Ticks(15))) // read completes t=15
            .set(ProcId(0), 1, Fate::Take(Ticks(10))) // write 1 at t=20
            .set(ProcId(1), 1, Fate::Take(Ticks(10))); // write 1 at t=25
        let config = RunConfig::new(2, Delta::from_ticks(100));
        let result = Sim::new(Counter { rounds: 1 }, config, model).run();
        assert_eq!(
            result.final_bank.read(RegId(0)),
            1,
            "second write overwrites the first"
        );
    }

    #[test]
    fn timing_failures_are_counted_against_delta() {
        let model = Scripted::new(Ticks(10)).set(ProcId(0), 1, Fate::Take(Ticks(5000)));
        let config = RunConfig::new(1, Delta::from_ticks(100));
        let result = Sim::new(Counter { rounds: 2 }, config, model).run();
        assert_eq!(result.timing_failures, 1);
    }

    #[test]
    fn crashes_stop_a_process_without_effect() {
        // p0 crashes on its write: register keeps its read value.
        let model = CrashSchedule::new(Fixed::new(Ticks(10)), vec![(ProcId(0), Ticks(10))]);
        let config = RunConfig::new(1, Delta::from_ticks(100));
        let result = Sim::new(Counter { rounds: 1 }, config, model).run();
        assert!(result.crashed[0]);
        assert!(!result.halted[0]);
        assert_eq!(
            result.final_bank.read(RegId(0)),
            0,
            "crashed write must not linearize"
        );
    }

    #[test]
    fn step_budget_cuts_off() {
        let config = RunConfig::new(1, Delta::from_ticks(100)).max_steps(3);
        let result = Sim::new(Counter { rounds: 100 }, config, Fixed::new(Ticks(10))).run();
        assert!(result.timed_out);
        assert_eq!(result.steps, 3);
    }

    #[test]
    fn time_budget_cuts_off() {
        let config = RunConfig::new(1, Delta::from_ticks(100)).max_time(Ticks(45));
        let result = Sim::new(Counter { rounds: 100 }, config, Fixed::new(Ticks(10))).run();
        assert!(result.timed_out);
        assert!(result.end_time <= Ticks(45));
    }

    /// The default step budget scales with n so million-process runs are
    /// not silently truncated mid-warmup (the old fixed 10M budget gave
    /// 10^6 processes just 10 steps each).
    #[test]
    fn default_step_budget_scales_with_n() {
        let d = Delta::from_ticks(100);
        assert_eq!(RunConfig::new(1, d).max_steps, 10_000_000);
        assert_eq!(RunConfig::new(10_000, d).max_steps, 10_000_000);
        assert_eq!(RunConfig::new(1_000_000, d).max_steps, 1_000_000_000);
    }

    #[test]
    fn trace_records_issue_and_completion() {
        let config = RunConfig::new(1, Delta::from_ticks(100)).record_trace();
        let result = Sim::new(Counter { rounds: 1 }, config, Fixed::new(Ticks(10))).run();
        assert_eq!(result.trace.len(), 2);
        assert_eq!(result.trace[0].issued, Ticks(0));
        assert_eq!(result.trace[0].completed, Ticks(10));
        assert_eq!(result.trace[1].issued, Ticks(10));
        assert_eq!(result.trace[1].completed, Ticks(20));
    }

    #[test]
    fn obs_events_carry_time_and_pid() {
        let config = RunConfig::new(2, Delta::from_ticks(100));
        let result = Sim::new(Counter { rounds: 2 }, config, Fixed::new(Ticks(10))).run();
        let notes: Vec<_> = result
            .events(|o| match o {
                Obs::Note(name, _) => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(notes.len(), 2, "each process emits one done-note");
    }

    /// Both schedulers produce identical results on the same workload —
    /// the one-seed smoke version of the 256-seed battery in
    /// `tests/sim_scale_integration.rs`.
    #[test]
    fn wheel_and_heap_agree_on_counter() {
        let d = Delta::from_ticks(100);
        let sim = || {
            Sim::new(
                Counter { rounds: 7 },
                RunConfig::new(4, d).record_trace(),
                crate::timing::standard_no_failures(d, 42),
            )
        };
        assert_eq!(sim().run(), sim().run_on(HeapScheduler::new()));
    }

    /// `run_until` pauses at the limit and resumes with no difference to
    /// an uninterrupted run.
    #[test]
    fn run_until_resumes_identically() {
        let d = Delta::from_ticks(100);
        let config = RunConfig::new(3, d).record_trace();
        let whole = Sim::new(Counter { rounds: 9 }, config.clone(), Fixed::new(Ticks(10))).run();

        let mut engine = Sim::new(Counter { rounds: 9 }, config, Fixed::new(Ticks(10))).start();
        let mut limit = Ticks(25);
        loop {
            match engine.run_until(limit) {
                EngineStatus::Idle | EngineStatus::Budget => break,
                EngineStatus::Paused => limit = limit.saturating_add(Ticks(25)),
            }
        }
        assert_eq!(engine.run_until(Ticks::NEVER), EngineStatus::Idle);
        assert_eq!(whole, engine.finish());
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = RunConfig::new(0, Delta::from_ticks(1));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::timing::Fixed;
    use tfr_registers::RegId;

    /// Reads register 0 twice with a pause, deciding each value as a note.
    #[derive(Debug)]
    struct TwoReads;
    impl Automaton for TwoReads {
        type State = u8;
        fn init(&self, _pid: ProcId) -> u8 {
            0
        }
        fn next_action(&self, s: &u8) -> Action {
            match s {
                0 => Action::Read(RegId(0)),
                1 => Action::Delay(Ticks(100)),
                2 => Action::Read(RegId(0)),
                _ => Action::Halt,
            }
        }
        fn apply(&self, s: &mut u8, observed: Option<u64>, obs: &mut Vec<Obs>) {
            if let Some(v) = observed {
                obs.push(Obs::Note("read", v));
            }
            *s += 1;
        }
    }

    #[test]
    fn faults_strike_at_their_instant() {
        let config = RunConfig::new(1, Delta::from_ticks(1000));
        let result = Sim::new(TwoReads, config, Fixed::new(Ticks(10)))
            .with_faults(vec![RegisterFault {
                at: Ticks(50),
                reg: RegId(0),
                value: 77,
            }])
            .run();
        let reads: Vec<u64> = result
            .events(|o| match o {
                Obs::Note("read", v) => Some(*v),
                _ => None,
            })
            .map(|(_, _, v)| v)
            .collect();
        assert_eq!(
            reads,
            vec![0, 77],
            "first read pre-fault, second post-fault"
        );
    }

    #[test]
    fn faults_are_applied_in_instant_order_even_if_given_unsorted() {
        let config = RunConfig::new(1, Delta::from_ticks(1000));
        let result = Sim::new(TwoReads, config, Fixed::new(Ticks(10)))
            .with_faults(vec![
                RegisterFault {
                    at: Ticks(60),
                    reg: RegId(0),
                    value: 2,
                },
                RegisterFault {
                    at: Ticks(40),
                    reg: RegId(0),
                    value: 1,
                },
            ])
            .run();
        let reads: Vec<u64> = result
            .events(|o| match o {
                Obs::Note("read", v) => Some(*v),
                _ => None,
            })
            .map(|(_, _, v)| v)
            .collect();
        assert_eq!(
            reads,
            vec![0, 2],
            "both faults land before the second read; last wins"
        );
    }

    #[test]
    fn process_writes_overwrite_faults() {
        /// Writes 5 to r0, then reads it back.
        #[derive(Debug)]
        struct WriteRead;
        impl Automaton for WriteRead {
            type State = u8;
            fn init(&self, _pid: ProcId) -> u8 {
                0
            }
            fn next_action(&self, s: &u8) -> Action {
                match s {
                    0 => Action::Write(RegId(0), 5),
                    1 => Action::Read(RegId(0)),
                    _ => Action::Halt,
                }
            }
            fn apply(&self, s: &mut u8, observed: Option<u64>, obs: &mut Vec<Obs>) {
                if let Some(v) = observed {
                    obs.push(Obs::Note("read", v));
                }
                *s += 1;
            }
        }
        let config = RunConfig::new(1, Delta::from_ticks(1000));
        // Fault at t=5 (before the write lands at t=10): overwritten.
        let result = Sim::new(WriteRead, config, Fixed::new(Ticks(10)))
            .with_faults(vec![RegisterFault {
                at: Ticks(5),
                reg: RegId(0),
                value: 99,
            }])
            .run();
        let reads: Vec<u64> = result
            .events(|o| match o {
                Obs::Note("read", v) => Some(*v),
                _ => None,
            })
            .map(|(_, _, v)| v)
            .collect();
        assert_eq!(reads, vec![5]);
    }
}
