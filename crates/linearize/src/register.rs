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
use std::sync::Arc;
use tfr_registers::space::RegisterSpace;
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

    /// Records the invocation of `ops[i]` on cell `base + i·stride` for
    /// every `i`; returns the tokens.
    fn invoke_run(
        &self,
        pid: tfr_registers::ProcId,
        base: u64,
        stride: u64,
        ops: impl Iterator<Item = u64>,
    ) -> Vec<u64> {
        ops.enumerate()
            .map(|(i, op)| self.recorder.invoke(pid, base + i as u64 * stride, op))
            .collect()
    }

    /// Records a write of `values[i]` to cell `base + i·stride` for every
    /// `i` around `forward`, which hands the run to the inner space.
    fn record_write_run(&self, base: u64, stride: u64, values: &[u64], forward: impl FnOnce(&S)) {
        let Some(pid) = current_pid() else {
            return forward(&self.inner);
        };
        let tokens = self.invoke_run(pid, base, stride, values.iter().map(|&v| write_op(v)));
        forward(&self.inner);
        for (i, token) in tokens.into_iter().enumerate() {
            self.recorder
                .response(pid, base + i as u64 * stride, token, 0);
        }
    }
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

    /// Forwarded to the inner space as one run — never split into
    /// single reads, or the checker would not see the vectored path.
    /// Each cell is recorded as its own read, every one invoked before
    /// the call and answered after it: the interval spans the whole run,
    /// which is all a run promises about any one cell.
    fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
        let Some(pid) = current_pid() else {
            return self.inner.read_run(base, stride, out);
        };
        let tokens = self.invoke_run(pid, base, stride, out.iter().map(|_| READ_OP));
        self.inner.read_run(base, stride, out);
        for (i, (token, &value)) in tokens.into_iter().zip(out.iter()).enumerate() {
            self.recorder
                .response(pid, base + i as u64 * stride, token, value);
        }
    }

    /// Forwarded as one run and recorded per cell, like `read_run`.
    fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
        self.record_write_run(base, stride, values, |inner| {
            inner.write_run(base, stride, values)
        })
    }

    /// Forwarded as one owned run and recorded per cell, like
    /// `write_run`: the checker sees the one-round owned path.
    fn write_run_owned(&self, base: u64, stride: u64, values: &[u64]) {
        self.record_write_run(base, stride, values, |inner| {
            inner.write_run_owned(base, stride, values)
        })
    }

    /// Forwarded as an agreed write and recorded like `write`: the
    /// checker sees the one-round agreed path.
    fn write_agreed(&self, index: u64, value: u64) {
        self.record_write_run(index, 1, &[value], |inner| inner.write_agreed(index, value))
    }

    /// Forwarded. Only threads with a telemetry pid are recorded, so a
    /// caller that overlaps round trips on unregistered helper threads
    /// leaves their accesses out of the history.
    fn round_trips(&self) -> bool {
        self.inner.round_trips()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use crate::history::{History, Operation};
    use tfr_net::{NetConfig, Network};
    use tfr_registers::space::NativeSpace;
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

    /// A backend that serves runs and refuses single accesses: recording
    /// must hand it the run, never the default loop.
    struct RunsOnly(NativeSpace);

    impl RegisterSpace for RunsOnly {
        fn read(&self, _: u64) -> u64 {
            panic!("a run was split into single reads")
        }
        fn write(&self, _: u64, _: u64) {
            panic!("a run was split into single writes")
        }
        fn read_run(&self, base: u64, stride: u64, out: &mut [u64]) {
            self.0.read_run(base, stride, out)
        }
        fn write_run(&self, base: u64, stride: u64, values: &[u64]) {
            self.0.write_run(base, stride, values)
        }
    }

    #[test]
    fn runs_are_forwarded_whole_and_recorded_per_cell() {
        let rec = Arc::new(Recorder::new(1));
        let space = RecordingSpace::new(RunsOnly(NativeSpace::new()), Arc::clone(&rec));
        let mut out = [0; 3];
        with_pid(ProcId(0), || {
            space.write_run(4, 2, &[7, 8, 9]);
            space.read_run(4, 2, &mut out);
        });
        space.read_run(4, 2, &mut out); // unrecorded, and still a run
        assert_eq!(out, [7, 8, 9]);
        let ops = rec.history().ops;
        assert_eq!(ops.len(), 6, "one operation per cell");
        for run in ops.chunks(3) {
            assert_eq!(run.iter().map(|o| o.obj).collect::<Vec<_>>(), [4, 6, 8]);
            let last_invoke = run.iter().map(|o| o.invoke_ts).max().unwrap();
            let first_response = run.iter().map(|o| o.resp_ts).min().unwrap();
            assert!(last_invoke < first_response, "each interval spans the call");
        }
        assert_eq!(ops[1].op, write_op(8));
        assert_eq!(ops[4].resp, Some(8));
    }

    /// Two clients issue overlapping `read_run` / `write_run` on shared
    /// cells of a 5-replica quorum space under 30 % message drops and,
    /// half way through, a partition cutting off two replicas. Every cell
    /// must linearize as an atomic register.
    #[test]
    fn overlapping_quorum_runs_linearize_under_drops_and_a_minority_cut() {
        const STEPS: u64 = 40;
        let mut cfg = NetConfig::new(2, 5, 0x5EED_0F4E);
        cfg.retransmit = std::time::Duration::from_micros(200);
        let net = Arc::new(Network::new(cfg));
        let control = net.control();
        control.set_drop(0.3);
        let rec = Arc::new(Recorder::with_capacity(2, 2 * 9 * STEPS as usize));
        let spaces = [0, 1].map(|_| RecordingSpace::new(net.space(), Arc::clone(&rec)));
        assert!(
            spaces[0].round_trips(),
            "the quorum space's round trips show through"
        );
        std::thread::scope(|s| {
            for (t, space) in spaces.iter().enumerate() {
                let control = &control;
                s.spawn(move || {
                    with_pid(ProcId(t), || {
                        // Client 0 writes cells 0..4 and reads 1..6; client
                        // 1 writes 2..6 and reads the even cells 0, 2, 4.
                        let (write_base, read, read_stride) = if t == 0 {
                            (0, vec![0; 5], 1)
                        } else {
                            (2, vec![0; 3], 2)
                        };
                        let mut read = read;
                        for k in 0..STEPS {
                            if t == 0 && k == STEPS / 2 {
                                control.partition_minority(2);
                            }
                            let v = (t as u64 + 1) * 10_000 + k * 10;
                            space.write_run(write_base, 1, &[v, v + 1, v + 2, v + 3]);
                            space.read_run(1 - t as u64, read_stride, &mut read);
                        }
                    })
                });
            }
        });
        control.heal();
        assert_eq!(rec.dropped(), 0, "history buffers overflowed");
        let history = rec.history();
        assert_eq!(
            history.len(),
            2 * STEPS as usize * 4 + STEPS as usize * (5 + 3)
        );
        let report = check_history(&history, &RegisterModel)
            .expect("quorum runs must linearize per register");
        assert_eq!(report.objects.len(), 6, "cells 0..6 all checked");
    }

    /// Owned write runs — each cell owned by one client's handle — against
    /// two clients' overlapping read runs across both owners' cells, on 5
    /// replicas under 30 % message drops and, half way through, a
    /// partition cutting off two replicas. The owned store skips the query
    /// round, and every cell must still linearize as an atomic register.
    #[test]
    fn owned_write_runs_linearize_under_drops_and_a_minority_cut() {
        const STEPS: u64 = 40;
        let mut cfg = NetConfig::new(2, 5, 0x0E4ED);
        cfg.retransmit = std::time::Duration::from_micros(200);
        let net = Arc::new(Network::new(cfg));
        let control = net.control();
        control.set_drop(0.3);
        let rec = Arc::new(Recorder::with_capacity(2, 2 * 9 * STEPS as usize));
        let spaces = [0, 1].map(|_| RecordingSpace::new(net.space(), Arc::clone(&rec)));
        std::thread::scope(|s| {
            for (t, space) in spaces.iter().enumerate() {
                let control = &control;
                s.spawn(move || {
                    with_pid(ProcId(t), || {
                        // Client t owns cells 4t..4t+4. Client 0 reads
                        // cells 2..7, client 1 the even cells 0..8.
                        let (read_base, read_stride, mut read) = if t == 0 {
                            (2, 1, vec![0; 5])
                        } else {
                            (0, 2, vec![0; 4])
                        };
                        for k in 0..STEPS {
                            if t == 0 && k == STEPS / 2 {
                                control.partition_minority(2);
                            }
                            let v = (t as u64 + 1) * 10_000 + k * 10;
                            space.write_run_owned(4 * t as u64, 1, &[v, v + 1, v + 2, v + 3]);
                            space.read_run(read_base, read_stride, &mut read);
                        }
                    })
                });
            }
        });
        control.heal();
        assert_eq!(rec.dropped(), 0, "history buffers overflowed");
        let history = rec.history();
        assert_eq!(
            history.len(),
            2 * STEPS as usize * 4 + STEPS as usize * (5 + 4)
        );
        let report = check_history(&history, &RegisterModel)
            .expect("owned write runs must linearize per register");
        assert_eq!(report.objects.len(), 8, "cells 0..8 all checked");
    }

    /// Agreed writes — every write to a cell carries one value — from two
    /// clients' handles, racing on the same cells, on 5 replicas under
    /// 30 % message drops and, half way through, a partition cutting off
    /// two replicas. At step `k` both clients write cell `k` with value
    /// `100 + k`, each through its own handle with versions from its own
    /// floor, then read the run of the 8 cells up to `k`. Every cell must
    /// linearize as an atomic register.
    #[test]
    fn agreed_writes_from_two_handles_linearize_under_drops_and_a_minority_cut() {
        const STEPS: u64 = 40;
        let mut cfg = NetConfig::new(2, 5, 0xA6EED);
        cfg.retransmit = std::time::Duration::from_micros(200);
        let net = Arc::new(Network::new(cfg));
        let control = net.control();
        control.set_drop(0.3);
        let rec = Arc::new(Recorder::with_capacity(2, 2 * 9 * STEPS as usize));
        let spaces = [0, 1].map(|_| RecordingSpace::new(net.space(), Arc::clone(&rec)));
        std::thread::scope(|s| {
            for (t, space) in spaces.iter().enumerate() {
                let control = &control;
                s.spawn(move || {
                    with_pid(ProcId(t), || {
                        let mut read = [0; 8];
                        for k in 0..STEPS {
                            if t == 0 && k == STEPS / 2 {
                                control.partition_minority(2);
                            }
                            space.write_agreed(k, 100 + k);
                            space.read_run((k + 1).saturating_sub(8), 1, &mut read);
                        }
                    })
                });
            }
        });
        control.heal();
        assert_eq!(rec.dropped(), 0, "history buffers overflowed");
        let history = rec.history();
        assert_eq!(history.len(), 2 * STEPS as usize * 9);
        let report = check_history(&history, &RegisterModel)
            .expect("agreed writes must linearize per register");
        assert_eq!(
            report.objects.len(),
            STEPS as usize,
            "cells 0..40 all checked"
        );
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

    /// The seeded mutant decides a read run's write-back from its first
    /// cell only, and the checker must reject it. The schedule is scripted
    /// with partitions over three replicas s0–s2 and two clients:
    ///
    /// 1. client 0's write of cell 1 gets its query answered by s0 and s1
    ///    (links slowed to 50 ms to make room), then is cut off with s0
    ///    alone, so its store reaches s0 only and it stays pending;
    /// 2. client 1 reads the run `[0, 1]` from {s0, s1}: cell 0 is
    ///    committed, cell 1's newest version is on s0 alone — the correct
    ///    read writes cell 1 back, the mutant writes nothing back;
    /// 3. client 1 reads the run again from {s1, s2}: the correct read
    ///    sees the new value, the mutant the old one — a new/old
    ///    inversion no linearization explains.
    ///
    /// The correct space runs the same script and must check clean. A
    /// scheduling hiccup longer than the 25 ms margins shows as a missed
    /// precondition, and the script is retried on a fresh network.
    #[test]
    fn the_first_cell_write_back_mutant_is_rejected() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        use tfr_net::NodeId::{Client, Replica};

        /// Runs the script; `None` if the timing precondition missed.
        fn script(mutant: bool) -> Option<History> {
            let net = Arc::new(Network::new(NetConfig::new(2, 3, 0x317)));
            let control = net.control();
            let rec = Arc::new(Recorder::new(2));
            let reader = net.space();
            let reader = if mutant {
                reader.with_first_cell_write_back()
            } else {
                reader
            };
            let reader = RecordingSpace::new(reader, Arc::clone(&rec));
            let writer = RecordingSpace::new(net.space(), Arc::clone(&rec));
            with_pid(ProcId(1), || reader.write_run(0, 1, &[1, 1]));
            let slow = Duration::from_millis(50);
            control.delay_spike(slow);
            control.partition(&[
                vec![Client(0), Replica(0), Replica(1)],
                vec![Client(1), Replica(2)],
            ]);
            let done = AtomicBool::new(false);
            let mut runs = [[0u64; 2]; 2];
            let met = std::thread::scope(|s| {
                let started = Instant::now();
                s.spawn(|| {
                    with_pid(ProcId(0), || writer.write(1, 2));
                    done.store(true, Ordering::SeqCst);
                });
                // Query acks leave s0/s1 at ~50 ms and arrive at ~100 ms,
                // when the store is sent: cut between the two.
                std::thread::sleep(
                    (started + slow * 3 / 2).saturating_duration_since(Instant::now()),
                );
                control.partition(&[
                    vec![Client(0), Replica(0)],
                    vec![Client(1), Replica(1), Replica(2)],
                ]);
                // The store reaches s0 at ~150 ms.
                std::thread::sleep((started + slow * 4).saturating_duration_since(Instant::now()));
                control.delay_spike(Duration::ZERO);
                // Read from {s0, s1}, then from {s1, s2}; the writer stays
                // cut off throughout.
                for (out, cut) in runs.iter_mut().zip([2, 0]) {
                    let quorum = (0..3).filter(|&r| r != cut).map(Replica);
                    control.partition(&[
                        [Client(1)].into_iter().chain(quorum).collect(),
                        vec![Client(0)],
                        vec![Replica(cut)],
                    ]);
                    with_pid(ProcId(1), || reader.read_run(0, 1, out));
                }
                let pending = !done.load(Ordering::SeqCst);
                control.heal(); // the writer completes, and is joined
                pending && runs[0] == [1, 2]
            });
            met.then(|| rec.history())
        }

        for attempt in 0..5 {
            let (Some(correct), Some(mutant)) = (script(false), script(true)) else {
                eprintln!("attempt {attempt}: timing precondition missed, retrying");
                continue;
            };
            check_history(&correct, &RegisterModel).expect("the correct read run linearizes");
            let err = check_history(&mutant, &RegisterModel)
                .expect_err("the first-cell write-back mutant must be rejected");
            assert_eq!(err.obj, 1, "the inversion is on cell 1");
            return;
        }
        panic!("the scripted schedule never met its timing precondition");
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
