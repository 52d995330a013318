//! Register-level linearizability: a sequential atomic-register model and
//! a recording [`RegisterSpace`] wrapper.
//!
//! The quorum stack (`tfr-net`) emulates atomic registers with ABD-style
//! majority rounds; the claim that makes every algorithm above it sound is
//! that each emulated register **is** an atomic register. This module
//! checks exactly that claim: wrap any backend in a [`RecordingSpace`],
//! run a workload (with partitions, drops, whatever), and hand the
//! captured history to [`check_history`](crate::checker::check_history)
//! with a [`RegisterModel`]. Each register index becomes its own object id,
//! so P-compositionality splits the search per register.
//!
//! Runs (`read_run` / `write_run` / `write_run_owned`) are recorded cell
//! by cell — one operation per cell, each spanning the whole call — and
//! forwarded to the backend as runs of the same kind, so the check covers
//! the vectored and the one-round owned quorum paths and claims for them
//! exactly what a run promises: per-cell atomicity, nothing across cells.
//! A conditional write (`write_if_unset`) is recorded as the two
//! operations it is, a read and, if the call wrote, a write, both opening
//! when the call does: the check covers the quorum path that serves the
//! pair with one query.
//!
//! # Operation encoding
//!
//! * read — `op = 0`, response = the value returned;
//! * write `v` — `op = (v << 1) | 1`, response = `0`.
//!
//! Written values must fit in 63 bits (the low bit tags writes). Every
//! value the workloads here write is tiny; the encoders assert it.

use crate::history::Recorder;
use crate::models::SeqSpec;
use std::cell::Cell;
use std::sync::Arc;
use tfr_registers::space::{Access, RegisterSpace};
use tfr_telemetry::current_pid;

/// The encoded read operation.
pub const READ_OP: u64 = 0;

/// Encodes a write of `value` (which must fit in 63 bits).
pub fn write_op(value: u64) -> u64 {
    assert!(value < 1 << 63, "written value does not fit the encoding");
    (value << 1) | 1
}

/// Sequential specification of a single atomic `u64` register with
/// initial value `0`. State: the current value.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegisterModel;

impl SeqSpec for RegisterModel {
    type State = u64;
    fn initial(&self) -> u64 {
        0
    }
    fn step(&self, state: &u64, op: u64, resp: u64) -> Option<u64> {
        if op & 1 == 1 {
            // A write responds 0 and installs its value.
            (resp == 0).then_some(op >> 1)
        } else {
            // A read responds the current value and changes nothing.
            (resp == *state).then_some(*state)
        }
    }
    fn step_unknown(&self, state: &u64, op: u64) -> Vec<u64> {
        if op & 1 == 1 {
            // A pending write may or may not have taken effect.
            vec![*state, op >> 1]
        } else {
            vec![*state]
        }
    }
    fn describe(&self, op: u64, resp: Option<u64>) -> String {
        if op & 1 == 1 {
            match resp {
                Some(_) => format!("write({})", op >> 1),
                None => format!("write({}) → ?", op >> 1),
            }
        } else {
            match resp {
                Some(r) => format!("read() → {r}"),
                None => "read() → ?".to_string(),
            }
        }
    }
}

/// A [`RegisterSpace`] wrapper that records every `read`/`write` into a
/// shared [`Recorder`], using the register index as the object id.
///
/// The acting process comes from the telemetry registry
/// ([`tfr_telemetry::with_pid`] / `run_as`): calls from a thread with no
/// registered pid pass through **unrecorded** (setup writes before the
/// workload starts, for instance, are deliberately invisible to the
/// checker).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tfr_linearize::checker::check_history;
/// use tfr_linearize::register::{RecordingSpace, RegisterModel};
/// use tfr_registers::space::{NativeSpace, RegisterSpace};
/// use tfr_telemetry::with_pid;
/// use tfr_registers::ProcId;
///
/// let rec = Arc::new(tfr_linearize::Recorder::new(2));
/// let space = RecordingSpace::new(NativeSpace::new(), Arc::clone(&rec));
/// with_pid(ProcId(0), || {
///     space.write(3, 7);
///     assert_eq!(space.read(3), 7);
/// });
/// let history = rec.history();
/// assert_eq!(history.len(), 2);
/// check_history(&history, &RegisterModel).expect("native atomics are atomic");
/// ```
#[derive(Debug)]
pub struct RecordingSpace<S> {
    inner: S,
    recorder: Arc<Recorder>,
}

impl<S: RegisterSpace> RecordingSpace<S> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: S, recorder: Arc<Recorder>) -> RecordingSpace<S> {
        RecordingSpace { inner, recorder }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// An access of a group as [`RecordingSpace`] hands it on: as it came, or
/// a conditional write whose `between` is wrapped to record the write.
enum Handed<'g> {
    Plain(Access<'g>),
    Conditional {
        index: u64,
        value: u64,
        seen: &'g mut u64,
        between: Box<dyn FnMut() + 'g>,
    },
}

impl<S: RegisterSpace> RegisterSpace for RecordingSpace<S> {
    fn read(&self, index: u64) -> u64 {
        match current_pid() {
            Some(pid) => {
                let token = self.recorder.invoke(pid, index, READ_OP);
                let value = self.inner.read(index);
                self.recorder.response(pid, index, token, value);
                value
            }
            None => self.inner.read(index),
        }
    }

    fn write(&self, index: u64, value: u64) {
        match current_pid() {
            Some(pid) => {
                let token = self.recorder.invoke(pid, index, write_op(value));
                self.inner.write(index, value);
                self.recorder.response(pid, index, token, 0);
            }
            None => self.inner.write(index, value),
        }
    }

    /// Forwarded to the inner space as one group of the same accesses —
    /// never split, or the checker would not see the grouped quorum path
    /// — and recorded cell by cell, the accesses as mutually concurrent:
    /// every cell's operation is invoked before the call and answered
    /// after it, so each interval spans the whole group, which is all a
    /// group promises about any one cell. A conditional write is recorded
    /// as the two operations it is, a read and, if it wrote, a write of
    /// `value`: the write's interval opens with the call too, and it is
    /// recorded when `between` runs, just before the write is sent, so a
    /// thread that dies in the write leaves it pending.
    fn access_all(&self, group: &mut [Access<'_>]) {
        let Some(pid) = current_pid() else {
            return self.inner.access_all(group);
        };
        let opened = self.recorder.stamp();
        let tokens: Vec<Vec<u64>> = group
            .iter()
            .map(|access| {
                let op = |i: usize| match access {
                    Access::WriteRun { values, .. } => write_op(values[i]),
                    _ => READ_OP,
                };
                let cells = access.cells().enumerate();
                cells
                    .map(|(i, cell)| self.recorder.invoke(pid, cell, op(i)))
                    .collect()
            })
            .collect();
        let written: Vec<Cell<Option<u64>>> = group.iter().map(|_| Cell::new(None)).collect();
        let mut handed: Vec<Handed<'_>> = group
            .iter_mut()
            .zip(&written)
            .map(|(access, written)| match access {
                Access::WriteIfUnset {
                    index,
                    value,
                    between,
                    seen,
                } => {
                    let (index, value) = (*index, *value);
                    Handed::Conditional {
                        index,
                        value,
                        seen,
                        between: Box::new(move || {
                            between();
                            let op = write_op(value);
                            written.set(Some(self.recorder.invoke_at(pid, index, op, opened)));
                        }),
                    }
                }
                access => Handed::Plain(access.reborrow()),
            })
            .collect();
        let mut inner: Vec<Access<'_>> = handed
            .iter_mut()
            .map(|handed| match handed {
                Handed::Plain(access) => access.reborrow(),
                Handed::Conditional {
                    index,
                    value,
                    between,
                    ..
                } => Access::write_if_unset(*index, *value, &mut **between),
            })
            .collect();
        self.inner.access_all(&mut inner);
        let seen: Vec<u64> = inner
            .iter()
            .map(|access| match access {
                Access::WriteIfUnset { seen, .. } => *seen,
                _ => 0,
            })
            .collect();
        drop(inner);
        for (handed, value) in handed.iter_mut().zip(seen) {
            if let Handed::Conditional { seen, .. } = handed {
                **seen = value;
            }
        }
        drop(handed);
        for ((access, tokens), written) in group.iter().zip(tokens).zip(written) {
            let responses = access.cells().zip(tokens).enumerate();
            for (i, (cell, token)) in responses {
                let response = match access {
                    Access::ReadRun { out, .. } => out[i],
                    Access::WriteRun { .. } => 0,
                    Access::WriteIfUnset { seen, .. } => *seen,
                };
                self.recorder.response(pid, cell, token, response);
            }
            if let (Access::WriteIfUnset { index, .. }, Some(token)) = (access, written.get()) {
                self.recorder.response(pid, *index, token, 0);
            }
        }
    }

    /// Forwarded.
    fn round_trips(&self) -> bool {
        self.inner.round_trips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use crate::history::{History, Operation};
    use tfr_net::{NetConfig, Network, QuorumSpace};
    use tfr_registers::space::NativeSpace;
    use tfr_registers::space::{RegisterSpaceExt, WriteKind};
    use tfr_registers::ProcId;
    use tfr_telemetry::with_pid;

    #[test]
    fn register_model_accepts_a_simple_sequence() {
        let m = RegisterModel;
        let s = m.initial();
        let s = m.step(&s, READ_OP, 0).expect("fresh register reads 0");
        let s = m.step(&s, write_op(5), 0).expect("write ok");
        assert!(m.step(&s, READ_OP, 4).is_none(), "stale read rejected");
        assert!(m.step(&s, READ_OP, 5).is_some());
    }

    #[test]
    fn pending_write_may_or_may_not_apply() {
        let m = RegisterModel;
        assert_eq!(m.step_unknown(&3, write_op(9)), vec![3, 9]);
        assert_eq!(m.step_unknown(&3, READ_OP), vec![3]);
    }

    #[test]
    fn unregistered_threads_pass_through_unrecorded() {
        let rec = Arc::new(Recorder::new(1));
        let space = RecordingSpace::new(NativeSpace::new(), Arc::clone(&rec));
        space.write(0, 42);
        assert_eq!(space.read(0), 42);
        assert!(rec.history().is_empty(), "no pid, no events");
        assert!(!space.round_trips(), "shared memory does not round-trip");
    }

    #[test]
    fn concurrent_native_workload_checks_clean() {
        let rec = Arc::new(Recorder::new(4));
        let space = Arc::new(RecordingSpace::new(NativeSpace::new(), Arc::clone(&rec)));
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let space = Arc::clone(&space);
                scope.spawn(move || {
                    with_pid(ProcId(i as usize), || {
                        for k in 0..16 {
                            let reg = k % 3;
                            if (i + k) % 2 == 0 {
                                space.write(reg, i * 100 + k);
                            } else {
                                space.read(reg);
                            }
                        }
                    })
                });
            }
        });
        let history = rec.history();
        assert_eq!(history.len(), 4 * 16);
        check_history(&history, &RegisterModel).expect("native atomics linearize");
    }

    /// A backend that serves groups and refuses single accesses:
    /// recording must hand it the group, never the default loop.
    struct GroupsOnly(NativeSpace);

    impl RegisterSpace for GroupsOnly {
        fn read(&self, _: u64) -> u64 {
            panic!("a group was split into single reads")
        }
        fn write(&self, _: u64, _: u64) {
            panic!("a group was split into single writes")
        }
        fn access_all(&self, group: &mut [Access<'_>]) {
            self.0.access_all(group)
        }
    }

    /// A group reaches the backend whole and is recorded per cell, every
    /// interval spanning the call; a conditional write is recorded as a
    /// read and, only if it wrote, a write, both opening with the call.
    #[test]
    fn groups_are_forwarded_whole_and_recorded_per_cell() {
        let rec = Arc::new(Recorder::new(1));
        let space = RecordingSpace::new(GroupsOnly(NativeSpace::new()), Arc::clone(&rec));
        let mut out = [0; 3];
        with_pid(ProcId(0), || {
            space.write_run(4, 2, &[7, 8, 9]);
            let mut nothing = || ();
            let mut group = [
                Access::read_run(4, 2, &mut out),
                Access::write_if_unset(2, 7, &mut nothing),
            ];
            space.access_all(&mut group);
            assert_eq!(space.write_if_unset(2, 8, &mut || ()), 7);
        });
        space.read_run(4, 2, &mut out); // unrecorded, and still a group
        assert_eq!(out, [7, 8, 9]);
        let ops = rec.history().ops;
        let summary: Vec<_> = ops.iter().map(|o| (o.obj, o.op, o.resp)).collect();
        assert_eq!(
            summary,
            [
                (4, write_op(7), Some(0)),
                (6, write_op(8), Some(0)),
                (8, write_op(9), Some(0)),
                (2, write_op(7), Some(0)),
                (4, READ_OP, Some(7)),
                (6, READ_OP, Some(8)),
                (8, READ_OP, Some(9)),
                (2, READ_OP, Some(0)),
                (2, READ_OP, Some(7))
            ],
            "one operation per cell; the conditional write a read and a write opening \
             with the call, then a read alone"
        );
        for call in [&ops[..3], &ops[3..8]] {
            let last_invoke = call.iter().map(|o| o.invoke_ts).max().unwrap();
            let first_response = call.iter().map(|o| o.resp_ts).min().unwrap();
            assert!(last_invoke < first_response, "each interval spans the call");
        }
    }

    /// The seeded mutant stores a conditional write without its query
    /// and returns 0, and the checker must reject it. Script, on one cell
    /// of a 3-replica space: client 0 writes it if unset (it is), then
    /// client 1 does the same and reads 0 after client 0's write
    /// completed. The correct handle runs the same script, reads client
    /// 0's value, writes nothing, and must check clean.
    #[test]
    fn the_unqueried_conditional_write_mutant_is_rejected() {
        let script = |mutant: bool| {
            let net = Arc::new(Network::new(NetConfig::new(2, 3, 0xC0D0)));
            let rec = Arc::new(Recorder::new(2));
            let first = RecordingSpace::new(net.space(), Arc::clone(&rec));
            let second = net.space();
            let second = if mutant {
                second.with_unqueried_conditional_writes()
            } else {
                second
            };
            let second = RecordingSpace::new(second, Arc::clone(&rec));
            let a = with_pid(ProcId(0), || first.write_if_unset(0, 1, &mut || ()));
            let b = with_pid(ProcId(1), || second.write_if_unset(0, 2, &mut || ()));
            ((a, b), rec.history())
        };
        let (seen, correct) = script(false);
        assert_eq!(seen, (0, 1));
        assert_eq!(correct.len(), 3, "two reads, one write");
        check_history(&correct, &RegisterModel).expect("conditional writes linearize");
        let (seen, mutant) = script(true);
        assert_eq!(seen, (0, 0), "the mutant never reads the cell");
        let err = check_history(&mutant, &RegisterModel)
            .expect_err("the unqueried conditional-write mutant must be rejected");
        assert_eq!(err.obj, 0);
    }

    /// The seeded store-only mutant serves every write as the store round
    /// alone, stamped from its handle's own floor, and two handles writing
    /// *different* values to one cell through it must be rejected, under
    /// the faults of the test above. Client 0 writes the cell twice per
    /// step and client 1 once, taking turns, each then reading it: client
    /// 0's floor runs ahead, so client 1's write carries the lower version
    /// and vanishes, and its read returns client 0's older value. The
    /// correct handles run the same script and must check clean.
    #[test]
    fn the_store_only_write_mutant_is_rejected() {
        const STEPS: u64 = 20;
        let script = |mutant: bool| {
            let mut cfg = NetConfig::new(2, 5, 0x5704E);
            cfg.retransmit = std::time::Duration::from_micros(200);
            let net = Arc::new(Network::new(cfg));
            let control = net.control();
            control.set_drop(0.3);
            let rec = Arc::new(Recorder::new(2));
            let handle = || {
                let space = net.space();
                let space = if mutant {
                    space.with_store_only_writes()
                } else {
                    space
                };
                RecordingSpace::new(space, Arc::clone(&rec))
            };
            let spaces = [handle(), handle()];
            let turn = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for (t, space) in spaces.iter().enumerate() {
                    let (control, turn) = (&control, &turn);
                    s.spawn(move || {
                        with_pid(ProcId(t), || {
                            for k in 0..STEPS {
                                if t == 0 && k == STEPS / 2 {
                                    control.partition_minority(2);
                                }
                                // Client 0's turn, then client 1's.
                                for writer in 0..2 {
                                    if t == writer {
                                        for w in 0..2 - t as u64 {
                                            space.write(0, (t as u64 + 1) * 1_000 + 10 * k + w);
                                        }
                                        let _ = space.read(0);
                                    }
                                    turn.wait();
                                }
                            }
                        })
                    });
                }
            });
            control.heal();
            assert_eq!(rec.dropped(), 0, "history buffers overflowed");
            rec.history()
        };
        check_history(&script(false), &RegisterModel).expect("queried writes linearize");
        let err = check_history(&script(true), &RegisterModel)
            .expect_err("the store-only mutant must be rejected");
        assert_eq!(err.obj, 0);
    }

    /// The seeded mutant forgets its handle's timestamp floor between
    /// owned writes, as a writer recovered without it would, and the
    /// checker must reject it. Script, on one cell of a 3-replica space:
    /// the owner writes v1 then v2 (owned), forgets its floor, and writes
    /// v3 — stamped with v1's timestamp, so every replica keeps v2 — and a
    /// second client's read then returns v2 after v3 completed. The correct
    /// handle runs the same script and must check clean.
    #[test]
    fn the_forgotten_timestamp_floor_mutant_is_rejected() {
        let script = |mutant: bool| {
            let net = Arc::new(Network::new(NetConfig::new(2, 3, 0xF100)));
            let rec = Arc::new(Recorder::new(2));
            let owner = RecordingSpace::new(net.space(), Arc::clone(&rec));
            let reader = RecordingSpace::new(net.space(), Arc::clone(&rec));
            with_pid(ProcId(0), || {
                owner.write_run_owned(0, 1, &[1]);
                owner.write_run_owned(0, 1, &[2]);
                if mutant {
                    owner.inner().forget_timestamp_floor();
                }
                owner.write_run_owned(0, 1, &[3]);
            });
            let read = with_pid(ProcId(1), || reader.read(0));
            (read, rec.history())
        };
        let (read, correct) = script(false);
        assert_eq!(read, 3);
        check_history(&correct, &RegisterModel).expect("the owned writes linearize");
        let (read, mutant) = script(true);
        assert_eq!(read, 2, "v3 reused v1's timestamp and lost to v2");
        let err = check_history(&mutant, &RegisterModel)
            .expect_err("the forgotten-floor mutant must be rejected");
        assert_eq!(err.obj, 0);
    }

    /// Two clients' handles issue mixed groups on shared cells of a
    /// 5-replica quorum space under 30 % message drops and, half way
    /// through, a partition cutting off two replicas. At step `k` client
    /// `t` sends three groups:
    ///
    /// * a read run of cells 8..24 with an owned store of its own four
    ///   cells `16 + 4t ..`, which skips the query;
    /// * two agreed stores, cells `100 + k` and `200 + k`, which both
    ///   clients race to write with one value each, through their own
    ///   handles with versions from their own floors;
    /// * a queried write run of the even cells 8..16, which both clients
    ///   write, with a conditional write of cell `300 + k`, which both
    ///   race to write with their own values; with `stall`, its `between`
    ///   sleeps 300 µs, so the other client's query and store land
    ///   between a client's query and its store;
    /// * read runs of the 8 cells up to `k` of each raced region, 100,
    ///   200 and 300, which must see every cell already written.
    ///
    /// Every cell must linearize as an atomic register, and every owned
    /// group keep its writer's order ([`crate::order`]).
    #[test]
    fn mixed_quorum_groups_linearize_under_drops_and_a_minority_cut() {
        const STEPS: u64 = 30;
        for stall in [false, true] {
            let mut cfg = NetConfig::new(2, 5, 0x6209 + stall as u64);
            cfg.retransmit = std::time::Duration::from_micros(200);
            let net = Arc::new(Network::new(cfg));
            let control = net.control();
            control.set_drop(0.3);
            let rec = Arc::new(Recorder::with_capacity(2, 2 * 52 * STEPS as usize));
            let spaces = [0, 1].map(|_| RecordingSpace::new(net.space(), Arc::clone(&rec)));
            assert!(
                spaces[0].round_trips(),
                "the quorum space's round trips show"
            );
            let wrote: usize = std::thread::scope(|s| {
                let clients: Vec<_> = (0..2u64)
                    .zip(&spaces)
                    .map(|(t, space)| {
                        let control = &control;
                        s.spawn(move || {
                            with_pid(ProcId(t as usize), || {
                                let mut wrote = 0;
                                for k in 0..STEPS {
                                    if t == 0 && k == STEPS / 2 {
                                        control.partition_minority(2);
                                    }
                                    wrote += mixed_groups(space, t, k, stall) as usize;
                                }
                                wrote
                            })
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().unwrap()).sum()
            });
            control.heal();
            assert_eq!(rec.dropped(), 0, "history buffers overflowed");
            let history = rec.history();
            assert!(wrote >= STEPS as usize, "every cell 300 + k is written");
            assert_eq!(history.len(), 2 * STEPS as usize * (27 + 24) + wrote);
            let report = check_history(&history, &RegisterModel).unwrap_or_else(|e| {
                panic!("stall {stall}: grouped accesses must linearize: {e:?}")
            });
            assert_eq!(report.objects.len(), 16 + 3 * STEPS as usize);
            let order = crate::order::check_writer_order(&history)
                .unwrap_or_else(|e| panic!("stall {stall}: {e}"));
            assert!(order.pairs > 0, "reads of the owned cells were checked");
        }
    }

    /// Step `k` of client `t` in the test above; returns whether its
    /// conditional write wrote.
    fn mixed_groups<S: RegisterSpace>(space: &S, t: u64, k: u64, stall: bool) -> bool {
        let v = (t + 1) * 10_000 + k * 10;
        let mut read = [0; 16];
        let owned = [v, v + 1, v + 2, v + 3];
        space.access_all(&mut [
            Access::read_run(8, 1, &mut read),
            Access::write_run(16 + 4 * t, 1, &owned, WriteKind::Owned),
        ]);
        let agreed = [100 + k, 200 + k];
        space.access_all(&mut [
            Access::write_run(agreed[0], 1, &agreed[..1], WriteKind::Agreed),
            Access::write_run(agreed[1], 1, &agreed[1..], WriteKind::Agreed),
        ]);
        let mut between = || {
            if stall {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        };
        let mut group = [
            Access::write_run(8, 2, &owned, WriteKind::Queried),
            Access::write_if_unset(300 + k, v, &mut between),
        ];
        space.access_all(&mut group);
        let wrote = matches!(group[1], Access::WriteIfUnset { seen: 0, .. });
        read_back(space, k);
        wrote
    }

    /// Reads the 8 cells up to `k` of the regions 100, 200 and 300 as one
    /// group, after step `k`'s writes: every agreed cell up to `k` holds
    /// its value and every conditional one is set. The history checker
    /// then judges each read against the other client's writes too.
    fn read_back<S: RegisterSpace>(space: &S, k: u64) {
        let from = (k + 1).saturating_sub(8);
        let [mut agreed, mut agreed_too, mut set] = [[0; 8]; 3];
        space.access_all(&mut [
            Access::read_run(100 + from, 1, &mut agreed),
            Access::read_run(200 + from, 1, &mut agreed_too),
            Access::read_run(300 + from, 1, &mut set),
        ]);
        for (cell, i) in (from..=k).zip(0..) {
            assert_eq!([agreed[i], agreed_too[i]], [100 + cell, 200 + cell]);
            assert_ne!(set[i], 0, "cell {} was written", 300 + cell);
        }
    }

    /// The seeded mutant decides a read run's write-back from its first
    /// cell only, and the checker must reject it on the scripted
    /// inversion of [`inversion_script`]: cell 0 is committed on a
    /// majority, so the mutant writes back neither cell.
    #[test]
    fn the_first_cell_write_back_mutant_is_rejected() {
        assert_inversion_rejected(QuorumSpace::with_first_cell_write_back, false);
    }

    /// The seeded mutant completes a group on its phase-1 acks, skipping
    /// the write-backs its reads need, and the checker must reject it on
    /// the scripted inversion of [`inversion_script`], the read run sent
    /// in a group with an owned store.
    #[test]
    fn the_unrepaired_group_mutant_is_rejected() {
        assert_inversion_rejected(QuorumSpace::with_unrepaired_groups, true);
    }

    /// Runs [`inversion_script`] with a correct reader, which must check
    /// clean, and with `mutant`'s, which must be rejected on cell 1. If
    /// the writer's store has not reached s0 when the reader starts (a
    /// scheduling hiccup), the script is retried on a fresh network.
    fn assert_inversion_rejected(mutant: fn(QuorumSpace) -> QuorumSpace, grouped: bool) {
        for attempt in 0..5 {
            let correct = inversion_script(|space| space, grouped);
            let (Some(correct), Some(mutant)) = (correct, inversion_script(mutant, grouped)) else {
                eprintln!("attempt {attempt}: the store missed s0, retrying");
                continue;
            };
            check_history(&correct, &RegisterModel).expect("the correct read linearizes");
            let err = check_history(&mutant, &RegisterModel)
                .expect_err("the write-back mutant must be rejected");
            assert_eq!(err.obj, 1, "the inversion is on cell 1");
            return;
        }
        panic!("the scripted schedule never met its precondition");
    }

    /// A new/old inversion for a reader that skips a needed write-back,
    /// scripted with partitions over three replicas s0–s2 and two
    /// clients, the reader's handle made by `reader`:
    ///
    /// 1. the reader writes cell 0, committed everywhere;
    /// 2. the writer, cut off with s0 alone, writes cell 1 with an owned
    ///    write: its store reaches s0 only, and it stays pending;
    /// 3. the reader, with s0 and s1, reads the run of cells 0 and 1
    ///    (`grouped`: in a group with an owned store of cell 5) and sees
    ///    cell 1's new value, which a correct read writes back;
    /// 4. the reader, with s1 and s2, reads cell 1: a correct reader sees
    ///    the new value again, one that skipped the write-back the old.
    ///
    /// Returns the history, or `None` if step 3 missed the store.
    fn inversion_script(
        reader: impl Fn(QuorumSpace) -> QuorumSpace,
        grouped: bool,
    ) -> Option<History> {
        use tfr_net::NodeId::{Client, Replica};
        let net = Arc::new(Network::new(NetConfig::new(2, 3, 0x317)));
        let control = net.control();
        let rec = Arc::new(Recorder::new(2));
        let writer = RecordingSpace::new(net.space(), Arc::clone(&rec));
        let reader = RecordingSpace::new(reader(net.space()), Arc::clone(&rec));
        with_pid(ProcId(1), || reader.write(0, 1));
        control.partition(&[
            vec![Client(0), Replica(0)],
            vec![Client(1), Replica(1), Replica(2)],
        ]);
        let mut first = [0; 2];
        std::thread::scope(|s| {
            s.spawn(|| with_pid(ProcId(0), || writer.write_run_owned(1, 1, &[2])));
            std::thread::sleep(std::time::Duration::from_millis(20));
            let read_from = |quorum: [usize; 2], cut: usize| {
                let side = [Client(1), Replica(quorum[0]), Replica(quorum[1])];
                control.partition(&[side.to_vec(), vec![Client(0)], vec![Replica(cut)]]);
            };
            read_from([0, 1], 2);
            let mut group = vec![Access::read_run(0, 1, &mut first)];
            if grouped {
                group.push(Access::write_run(5, 1, &[1], WriteKind::Owned));
            }
            with_pid(ProcId(1), || reader.access_all(&mut group));
            read_from([1, 2], 0);
            with_pid(ProcId(1), || reader.read(1));
            control.heal(); // the writer completes, and is joined
        });
        (first == [1, 2]).then(|| rec.history())
    }

    #[test]
    fn the_model_rejects_a_value_from_nowhere() {
        // read() → 7 with no write(7) anywhere cannot linearize.
        let history = History::from_ops(vec![
            Operation {
                pid: ProcId(0),
                obj: 0,
                op: write_op(1),
                resp: Some(0),
                invoke_ts: 1,
                resp_ts: 2,
            },
            Operation {
                pid: ProcId(1),
                obj: 0,
                op: READ_OP,
                resp: Some(7),
                invoke_ts: 3,
                resp_ts: 4,
            },
        ]);
        check_history(&history, &RegisterModel).expect_err("7 was never written");
    }
}
