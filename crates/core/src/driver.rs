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
//! # Resumable
//!
//! A run is a loop of three calls: [`Driver::next`] fires the points
//! before a step and hands back what it waits on as a [`Step`], plain
//! data; the step's [`Group`] goes to the space; and [`Driver::resume`]
//! takes the results back and fires the points after it. [`Driver::run`]
//! is that loop over the driver's own space. A caller that drives several
//! automata at once (a service worker with several busy shards, through
//! `universal::Session`) sends several steps' groups in one
//! [`RegisterSpace::access_all`] call instead, and waits out a `delay(Δ)`
//! while the others go on.
//!
//! The process state is the caller's, on its stack, and the events of a
//! step go to a buffer the thread keeps: a run allocates nothing. A crash
//! that unwinds out of [`Driver::run`] leaves nothing behind but the
//! registers it wrote.
//!
//! Each step costs a dispatch on the automaton's state, and a log whose
//! proposers defer to each other feels every nanosecond of a decision
//! (EXPERIMENTS.md B18). So `run` takes each step in one out-of-line
//! function, `next`, the group and `resume` inlined into it, and a group
//! goes out as an array of its own length (`Sink`): each kind of step
//! folds into the plain accesses it stands for, and nothing ahead of the
//! first access is hoisted out of a loop.

use std::cell::Cell;
use std::time::Duration;
use tfr_registers::chaos;
use tfr_registers::native::precise_delay;
use tfr_registers::space::{Access, RegisterSpace, WriteKind};
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

/// The shape of a [`Step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A read of `regs[0]` into `cells[0]`.
    Read,
    /// A conditional write of `cells[0]` to `regs[0]`, what it read
    /// landing in `cells[1]`.
    Guard,
    /// A write of `cells[0]` to `regs[0]`.
    Write,
    /// Writes of `cells[i]` to `regs[i]`, as one group.
    Pair,
    /// `delay(Δ)`.
    Delay,
    /// The automaton halted.
    Halt,
}

/// What a driven automaton waits on, as plain data: one group of at most
/// two single-cell accesses, `delay(Δ)`, or nothing, once it has halted.
/// Made by [`Driver::next`], its accesses sent through [`Step::accesses`],
/// and taken back by [`Driver::resume`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    shape: Shape,
    regs: [u64; 2],
    /// The values written, or read.
    cells: [u64; 2],
    kinds: [WriteKind; 2],
    /// The point a conditional write fires between its read and write.
    between: Between,
    /// The points fired once the group is back.
    then: [Option<&'static str>; 2],
}

impl Step {
    fn new(shape: Shape, reg: RegId, value: u64, label: Label) -> Step {
        Step {
            shape,
            regs: [reg.0, 0],
            cells: [value, 0],
            kinds: [label.kind; 2],
            between: Between::NONE,
            then: [label.then, None],
        }
    }

    /// Whether the automaton has halted.
    #[inline(always)]
    pub(crate) fn halted(&self) -> bool {
        self.shape == Shape::Halt
    }

    /// Whether the step is `delay(Δ)`, which sends no group.
    #[inline(always)]
    pub(crate) fn is_delay(&self) -> bool {
        self.shape == Shape::Delay
    }

    /// What the conditional write of the step's group, if it has one,
    /// fires between its read and its write.
    #[inline(always)]
    pub(crate) fn between(&self) -> Between {
        self.between
    }

    /// Hands the step's accesses, in the automaton's coordinates, to
    /// `sink`, with `between` for a conditional write's; none for a delay
    /// or a halt.
    #[inline(always)]
    pub(crate) fn accesses<'a, K: Sink<'a>>(
        &'a mut self,
        between: &'a mut dyn FnMut(),
        sink: K,
    ) -> K::Out {
        let [reg, next] = self.regs;
        let [kind, next_kind] = self.kinds;
        let [value, second] = &mut self.cells;
        match self.shape {
            Shape::Read => sink.one(Access::read_run(reg, 1, std::slice::from_mut(value))),
            Shape::Guard => sink.one(Access::write_if_unset(reg, *value, between)),
            Shape::Write => sink.one(write(reg, value, kind)),
            Shape::Pair => sink.two(write(reg, value, kind), write(next, second, next_kind)),
            Shape::Delay | Shape::Halt => sink.none(),
        }
    }

    /// Records what the step's conditional write read, once its group is
    /// back ([`seen`]).
    #[inline(always)]
    pub(crate) fn served(&mut self, seen: u64) {
        self.cells[1] = seen;
    }
}

/// A write of `value` to `reg`, of `kind`.
#[inline(always)]
fn write(reg: u64, value: &u64, kind: WriteKind) -> Access<'_> {
    Access::write_run(reg, 1, std::slice::from_ref(value), kind)
}

/// The injection point a conditional write fires between its read and
/// its write, for a caller that builds the `between` of the write's
/// [`Access::WriteIfUnset`]: `move || between.fire()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Between(Option<&'static str>);

impl Between {
    /// No point.
    pub(crate) const NONE: Between = Between(None);

    /// Fires the point, if there is one.
    #[inline(always)]
    pub fn fire(self) {
        fire(self.0)
    }
}

/// What a machine does with the group it waits on: hand it out as a
/// [`Group`] ([`Hand`]), or send it to a space at once ([`Serve`]). The
/// machine passes each of its groups as an array of its own length, and
/// both sinks are inlined into every call: a group served at once then
/// folds into the plain accesses it stands for.
pub(crate) trait Sink<'a> {
    type Out;
    /// No group: the machine waits on a delay, or on nothing.
    fn none(self) -> Self::Out;
    /// A group of one access.
    fn one(self, access: Access<'a>) -> Self::Out;
    /// A group of two.
    fn two(self, first: Access<'a>, second: Access<'a>) -> Self::Out;
    /// A group of three.
    fn three(self, first: Access<'a>, second: Access<'a>, third: Access<'a>) -> Self::Out;
}

/// The sink that hands a group out.
pub(crate) struct Hand;

impl<'a> Sink<'a> for Hand {
    type Out = Group<'a>;
    #[inline(always)]
    fn none(self) -> Group<'a> {
        Group {
            accesses: [Group::unused(), Group::unused(), Group::unused()],
            len: 0,
        }
    }
    #[inline(always)]
    fn one(self, access: Access<'a>) -> Group<'a> {
        Group {
            accesses: [access, Group::unused(), Group::unused()],
            len: 1,
        }
    }
    #[inline(always)]
    fn two(self, first: Access<'a>, second: Access<'a>) -> Group<'a> {
        Group {
            accesses: [first, second, Group::unused()],
            len: 2,
        }
    }
    #[inline(always)]
    fn three(self, first: Access<'a>, second: Access<'a>, third: Access<'a>) -> Group<'a> {
        Group {
            accesses: [first, second, third],
            len: 3,
        }
    }
}

/// The sink that sends a group to a space, as it comes, and returns what
/// its conditional write read (0 if it has none).
pub(crate) struct Serve<'s, S: ?Sized>(pub(crate) &'s S);

impl<'a, S: RegisterSpace + ?Sized> Sink<'a> for Serve<'_, S> {
    type Out = u64;
    #[inline(always)]
    fn none(self) -> u64 {
        0
    }
    #[inline(always)]
    fn one(self, access: Access<'a>) -> u64 {
        let mut group = [access];
        self.0.access_all(&mut group);
        seen(&group)
    }
    #[inline(always)]
    fn two(self, first: Access<'a>, second: Access<'a>) -> u64 {
        let mut group = [first, second];
        self.0.access_all(&mut group);
        seen(&group)
    }
    #[inline(always)]
    fn three(self, first: Access<'a>, second: Access<'a>, third: Access<'a>) -> u64 {
        let mut group = [first, second, third];
        self.0.access_all(&mut group);
        seen(&group)
    }
}

/// A sink that maps each access with `map` (a lift into a parent space's
/// coordinates) before it goes on to `to`.
pub(crate) struct Mapped<M, K> {
    pub(crate) map: M,
    pub(crate) to: K,
}

impl<'a, M: Fn(&mut Access<'a>), K: Sink<'a>> Sink<'a> for Mapped<M, K> {
    type Out = K::Out;
    #[inline(always)]
    fn none(self) -> K::Out {
        self.to.none()
    }
    #[inline(always)]
    fn one(self, mut access: Access<'a>) -> K::Out {
        (self.map)(&mut access);
        self.to.one(access)
    }
    #[inline(always)]
    fn two(self, mut first: Access<'a>, mut second: Access<'a>) -> K::Out {
        (self.map)(&mut first);
        (self.map)(&mut second);
        self.to.two(first, second)
    }
    #[inline(always)]
    fn three(self, mut first: Access<'a>, mut second: Access<'a>, mut third: Access<'a>) -> K::Out {
        (self.map)(&mut first);
        (self.map)(&mut second);
        (self.map)(&mut third);
        self.to.three(first, second, third)
    }
}

/// A sink that puts two accesses ahead of a one-access group before it
/// goes on to `to`: how a machine sends its own writes in one group with
/// the first step of an automaton it drives.
pub(crate) struct Ahead<'a, K> {
    pub(crate) first: [Access<'a>; 2],
    pub(crate) to: K,
}

impl<'a, K: Sink<'a>> Sink<'a> for Ahead<'a, K> {
    type Out = K::Out;
    #[inline(always)]
    fn none(self) -> K::Out {
        let [first, second] = self.first;
        self.to.two(first, second)
    }
    #[inline(always)]
    fn one(self, access: Access<'a>) -> K::Out {
        let [first, second] = self.first;
        self.to.three(first, second, access)
    }
    fn two(self, _: Access<'a>, _: Access<'a>) -> K::Out {
        unreachable!("only a one-access step goes out behind two accesses")
    }
    fn three(self, _: Access<'a>, _: Access<'a>, _: Access<'a>) -> K::Out {
        unreachable!("only a one-access step goes out behind two accesses")
    }
}

/// One group of accesses a driven machine waits on: at most three,
/// borrowing the machine's buffers. Move them into a group of the space
/// ([`Group::into_accesses`]), serve it, and hand back what their
/// conditional write read ([`seen`]).
pub struct Group<'a> {
    accesses: [Access<'a>; 3],
    len: usize,
}

impl<'a> Group<'a> {
    #[inline(always)]
    fn unused() -> Access<'a> {
        Access::read_run(0, 1, &mut [])
    }

    /// The accesses, for a caller that rewrites them (lifts them into a
    /// parent space's coordinates) and sends them in a bigger group.
    pub fn into_accesses(self) -> impl Iterator<Item = Access<'a>> {
        self.accesses.into_iter().take(self.len)
    }
}

/// What the first conditional write among `accesses` read, once served
/// (0 if there is none): what a caller that sent a [`Group`]'s accesses
/// in a bigger group hands back.
#[inline(always)]
pub fn seen(accesses: &[Access<'_>]) -> u64 {
    accesses
        .iter()
        .find_map(|access| match access {
            Access::WriteIfUnset { seen, .. } => Some(*seen),
            _ => None,
        })
        .unwrap_or(0)
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
            decided = self.events(&mut obs).or(decided);
        }
        OBS.set(obs);
        decided
    }

    /// One step of [`Driver::run`]: [`Driver::next`], the step's group
    /// sent to the driver's space (or `delay(Δ)`), and
    /// [`Driver::resume`]; false if `state` has halted. The three are
    /// inlined into this one function, where each kind of step folds
    /// into the plain reads and writes it stands for.
    #[inline(never)]
    fn step(&self, state: &mut A::State, obs: &mut Vec<Obs>) -> bool {
        let mut step = self.next(state, obs);
        if step.halted() {
            return false;
        }
        if step.is_delay() {
            precise_delay(self.delta);
        } else {
            let between = step.between();
            let seen = step.accesses(&mut || between.fire(), Serve(&self.space));
            step.served(seen);
        }
        self.resume(state, &step, pooled(obs));
        true
    }

    /// Fires the points before `state`'s next step and returns it: the
    /// group it sends, a delay, or a halt. A write joined to the next
    /// steps `state` past itself here, events going to `obs`.
    #[inline(always)]
    pub(crate) fn next(&self, state: &mut A::State, obs: &mut Vec<Obs>) -> Step {
        let (action, label) = self.spec.next_step(state);
        fire(label.point);
        match action {
            Action::Read(reg) => match label.joint {
                Joint::GuardsWrite { value, between } => Step {
                    between: Between(between),
                    ..Step::new(Shape::Guard, reg, value, label)
                },
                _ => Step::new(Shape::Read, reg, 0, label),
            },
            Action::Write(reg, value) if label.joint == Joint::WithNext => {
                self.write_with_next(state, reg, value, label, obs)
            }
            Action::Write(reg, value) => Step::new(Shape::Write, reg, value, label),
            Action::Delay(_) => {
                let requested_ns = self.delta.as_nanos() as u64;
                self.trace
                    .emit_current(EventKind::DelayStart { requested_ns });
                Step::new(Shape::Delay, RegId(0), 0, label)
            }
            Action::Halt => Step::new(Shape::Halt, RegId(0), 0, label),
        }
    }

    /// The write of `value` to `reg` in one group with the next step, a
    /// write too: steps `state` past the first.
    #[inline(always)]
    fn write_with_next(
        &self,
        state: &mut A::State,
        reg: RegId,
        value: u64,
        label: Label,
        obs: &mut Vec<Obs>,
    ) -> Step {
        self.spec.apply(state, None, obs);
        let (Action::Write(next, next_value), with) = self.spec.next_step(state) else {
            unreachable!("a write goes out with the write after it")
        };
        fire(with.point);
        Step {
            shape: Shape::Pair,
            regs: [reg.0, next.0],
            cells: [value, next_value],
            kinds: [label.kind, with.kind],
            between: Between::NONE,
            then: [label.then, with.then],
        }
    }

    /// Steps `state` past `step`, served (or waited out, for a delay),
    /// firing the points after it; events go to `obs`.
    #[inline(always)]
    pub(crate) fn resume(&self, state: &mut A::State, step: &Step, obs: &mut Vec<Obs>) {
        if step.shape == Shape::Delay {
            self.trace.emit_current(EventKind::DelayEnd);
        }
        fire(step.then[0]);
        match step.shape {
            Shape::Read => self.spec.apply(state, Some(step.cells[0]), obs),
            Shape::Guard => {
                let seen = step.cells[1];
                self.spec.apply(state, Some(seen), obs);
                if seen == 0 {
                    let (write, label) = self.spec.next_step(state);
                    debug_assert_eq!(
                        write,
                        Action::Write(RegId(step.regs[0]), step.cells[0]),
                        "a read guards a write"
                    );
                    debug_assert_eq!(label.point, step.between.0, "and fires its point between");
                    self.spec.apply(state, None, obs);
                }
            }
            Shape::Pair => {
                fire(step.then[1]);
                self.spec.apply(state, None, obs);
            }
            Shape::Write | Shape::Delay => self.spec.apply(state, None, obs),
            Shape::Halt => unreachable!("a halted automaton takes no step"),
        }
    }

    /// Sends `obs`'s round starts and decision to the trace, clears it,
    /// and returns the decision, if it holds one.
    #[inline(always)]
    pub(crate) fn events(&self, obs: &mut Vec<Obs>) -> Option<u64> {
        let mut decided = None;
        for &o in obs.iter() {
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
        decided
    }
}

/// `obs`, swapped for the thread's event buffer if it has no room yet.
#[inline(always)]
pub(crate) fn pooled(obs: &mut Vec<Obs>) -> &mut Vec<Obs> {
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
