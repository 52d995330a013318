//! The native driver: runs an [`Automaton`] against a [`RegisterSpace`],
//! so that Algorithm 1 ([`crate::consensus`]), its bounded variant
//! ([`crate::bounded`]) and the pid election ([`crate::election_spec`])
//! each have one body — the one the simulator and the model checker run.
//!
//! This is `tfr_asynclock::native::Derived`'s counterpart for one-shot
//! automata. `Read` and `Write` go to the space, `Delay` to
//! [`precise_delay`] for the driver's Δ (the spec's tick count is the
//! simulator's), and the [`Label`] the spec
//! gives each step (`Automaton::next_step`) names the injection points
//! fired before and after it, the kind of a write, and how the step goes
//! out with the next ([`Joint`]): a read that guards its write is one conditional
//! write, and a write joined to the next is one group. `Obs::StartedRound`
//! and `Obs::Decided` become the `RoundStart` and `Decided` telemetry
//! events, attributed to the calling thread's registered pid.
//!
//! The process state is the caller's, on its stack, and the events of a
//! step go to a buffer the thread keeps: a run allocates nothing. A crash
//! that unwinds out of [`Driver::run`] leaves nothing behind but the
//! registers it wrote.
//!
//! Each step costs a dispatch on the automaton's state, and a log whose
//! proposers defer to each other feels every nanosecond of a decision
//! (EXPERIMENTS.md B18). So a step is one out-of-line function, and the
//! rare joints and `delay(Δ)` are others: the code a decision runs stays
//! small, and nothing ahead of the first access is hoisted out of a loop.

use std::cell::Cell;
use std::time::Duration;
use tfr_registers::chaos;
use tfr_registers::native::precise_delay;
use tfr_registers::space::{Access, RegisterSpace, RegisterSpaceExt};
use tfr_registers::spec::{Action, Automaton, Joint, Label, Obs};
use tfr_registers::RegId;
use tfr_telemetry::{EventKind, Trace};

thread_local! {
    /// The events of the step being driven, reused across runs.
    static OBS: Cell<Vec<Obs>> = const { Cell::new(Vec::new()) };
}

/// An automaton executed natively over a register space, with `delay(Δ)`
/// taking `delta`, and its events going to `trace`.
pub(crate) struct Driver<A, S> {
    pub(crate) spec: A,
    pub(crate) space: S,
    pub(crate) delta: Duration,
    pub(crate) trace: Trace,
}

impl<A: Automaton, S: RegisterSpace> Driver<A, S> {
    pub(crate) fn new(spec: A, space: S, delta: Duration) -> Driver<A, S> {
        Driver {
            spec,
            space,
            delta,
            trace: Trace::disabled(),
        }
    }

    /// Steps `state` until it halts and returns the value it decided, if
    /// it decided.
    pub(crate) fn run(&self, state: &mut A::State) -> Option<u64> {
        // The thread's event buffer is fetched once the first access has
        // gone out (`pooled`), so nothing delays that access: the log's
        // deference counts on a short way from its check to the
        // announcement.
        let mut obs = Vec::new();
        let mut decided = None;
        while self.step(state, &mut obs) {
            for &o in &obs {
                match o {
                    Obs::StartedRound(round) => {
                        self.trace.emit_current(EventKind::RoundStart { round })
                    }
                    Obs::Decided(value) => {
                        self.trace.emit_current(EventKind::Decided { value });
                        decided = Some(value);
                    }
                    _ => {}
                }
            }
            obs.clear();
        }
        OBS.set(obs);
        decided
    }

    /// Serves `state`'s next step and steps past it; false if it halted.
    #[inline(never)]
    fn step(&self, state: &mut A::State, obs: &mut Vec<Obs>) -> bool {
        let (action, label) = self.spec.next_step(state);
        fire(label.point);
        match action {
            Action::Read(reg) => match label.joint {
                Joint::GuardsWrite { value, between } => {
                    let seen = self
                        .space
                        .write_if_unset(reg.0, value, &mut || fire(between));
                    fire(label.then);
                    self.spec.apply(state, Some(seen), pooled(obs));
                    if seen == 0 {
                        let (write, label) = self.spec.next_step(state);
                        debug_assert_eq!(write, Action::Write(reg, value), "a read guards a write");
                        debug_assert_eq!(label.point, between, "and fires its point between");
                        self.spec.apply(state, None, obs);
                    }
                }
                _ => {
                    let seen = self.space.read(reg.0);
                    fire(label.then);
                    self.spec.apply(state, Some(seen), pooled(obs));
                }
            },
            Action::Write(reg, value) if label.joint == Joint::WithNext => {
                self.write_with_next(state, reg, value, label, obs)
            }
            Action::Write(reg, value) => {
                let value = [value];
                let write = Access::write_run(reg.0, 1, &value, label.kind);
                self.space.access_all(&mut [write]);
                fire(label.then);
                self.spec.apply(state, None, pooled(obs));
            }
            Action::Delay(_) => self.delay(state, label.then, obs),
            Action::Halt => return false,
        }
        true
    }

    /// Serves the write of `value` to `reg` in one group with the next
    /// step, a write too, and steps `state` past both.
    #[inline(never)]
    fn write_with_next(
        &self,
        state: &mut A::State,
        reg: RegId,
        value: u64,
        label: Label,
        obs: &mut Vec<Obs>,
    ) {
        self.spec.apply(state, None, obs);
        let (Action::Write(next, next_value), with) = self.spec.next_step(state) else {
            unreachable!("a write goes out with the write after it")
        };
        fire(with.point);
        let (value, next_value) = ([value], [next_value]);
        self.space.access_all(&mut [
            Access::write_run(reg.0, 1, &value, label.kind),
            Access::write_run(next.0, 1, &next_value, with.kind),
        ]);
        fire(label.then);
        fire(with.then);
        self.spec.apply(state, None, pooled(obs));
    }

    /// `delay(Δ)`, between its telemetry events.
    #[inline(never)]
    fn delay(&self, state: &mut A::State, then: Option<&'static str>, obs: &mut Vec<Obs>) {
        let requested_ns = self.delta.as_nanos() as u64;
        self.trace
            .emit_current(EventKind::DelayStart { requested_ns });
        precise_delay(self.delta);
        self.trace.emit_current(EventKind::DelayEnd);
        fire(then);
        self.spec.apply(state, None, pooled(obs));
    }
}

/// `obs`, swapped for the thread's event buffer if it has no room yet.
#[inline(always)]
fn pooled(obs: &mut Vec<Obs>) -> &mut Vec<Obs> {
    if obs.capacity() == 0 {
        *obs = OBS.take();
    }
    obs
}

#[inline(always)]
fn fire(point: Option<&'static str>) {
    if let Some(point) = point {
        chaos::point(point);
    }
}
