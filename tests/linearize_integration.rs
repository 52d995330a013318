//! Acceptance tests for the linearizability layer: every derived object's
//! history, recorded natively under chaos schedules, passes the
//! Wing–Gong/Lowe checker, and the seeded mutants are rejected with the
//! minimal non-linearizable window in the error message.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr::linearize::mutants::{record_mutant_queue, record_mutant_tas};
use tfr::linearize::register::{write_op, RecordingSpace, RegisterModel, READ_OP};
use tfr::linearize::{
    check_history, check_writer_order, record_chaos, CounterModel, ElectionModel, History,
    NonLinearizable, ObjectKind, QueueModel, RenamingModel, SetConsensusModel, TasModel,
};
use tfr::linearize::{Operation, Recorder};
use tfr::net::{NetConfig, Network, NodeId, QuorumSpace};
use tfr::registers::space::{Access, RegisterSpace, RegisterSpaceExt, WriteKind};
use tfr::registers::ProcId;
use tfr::telemetry::with_pid;

/// Checks `h` against the sequential model matching `kind` (the same
/// pairing `record_chaos` documents).
fn check_by_kind(kind: ObjectKind, n: usize, h: &History) -> Result<(), NonLinearizable> {
    match kind {
        ObjectKind::Election => check_history(h, &ElectionModel).map(|_| ()),
        ObjectKind::TestAndSet => check_history(h, &TasModel).map(|_| ()),
        ObjectKind::Renaming => check_history(h, &RenamingModel { n: n as u64 }).map(|_| ()),
        ObjectKind::SetConsensus => check_history(h, &SetConsensusModel { k: 2 }).map(|_| ()),
        ObjectKind::Counter => check_history(h, &CounterModel).map(|_| ()),
        ObjectKind::Queue => check_history(h, &QueueModel).map(|_| ()),
    }
}

/// The headline acceptance sweep: all six derived objects, three chaos
/// seeds each, recorded on real threads and checked. Crash faults leave
/// pending operations; stall faults stretch the concurrency windows —
/// both must still linearize.
#[test]
fn all_objects_linearizable_under_three_chaos_seeds() {
    let delta = Duration::from_micros(20);
    let n = 3;
    for kind in ObjectKind::ALL {
        for seed in [1u64, 2, 3] {
            let h = record_chaos(kind, n, delta, seed);
            assert!(!h.is_empty(), "{} seed {seed}: empty history", kind.name());
            check_by_kind(kind, n, &h)
                .unwrap_or_else(|e| panic!("{} seed {seed} not linearizable:\n{e}", kind.name()));
        }
    }
}

/// Mutant 1: the non-atomic test-and-set. A chaos stall parked in its
/// load→store gap produces two winners; the checker must reject the
/// history and print the offending window.
#[test]
fn mutant_split_tas_rejected_with_window() {
    let err = check_history(&record_mutant_tas(), &TasModel).expect_err("two winners");
    let msg = err.to_string();
    assert!(msg.contains("not linearizable"), "{msg}");
    assert!(msg.contains("minimal non-linearizable window"), "{msg}");
    assert!(
        msg.contains("test_and_set() → false"),
        "the window shows a duplicated win: {msg}"
    );
}

/// Mutant 2: the queue that drops an element when a stall makes its
/// enqueue look congested. The recorded history is sequential, so the
/// drop is unhideable; the window names the dequeue that skipped a value.
#[test]
fn mutant_lossy_queue_rejected_with_window() {
    let h = record_mutant_queue(Duration::from_micros(5));
    let err = check_history(&h, &QueueModel).expect_err("a value vanished");
    let msg = err.to_string();
    assert!(msg.contains("not linearizable"), "{msg}");
    assert!(msg.contains("minimal non-linearizable window"), "{msg}");
    assert!(msg.contains("dequeue() → 8"), "{msg}");
}

/// `NativeSpace`'s lock-free chunk directory, where it is new: two
/// threads each write 1 into a chunk nobody has touched in a fresh space
/// and then read the other's register, so either read can race the other
/// thread's *publication* of its chunk and find nothing there. A read
/// that misses must still take its place in the registers' order: 0/0 is
/// the Dekker failure every lock in the stack is built to exclude, and
/// the recorded history must pass the per-register Wing–Gong check (a
/// read of 0 invoked after the write of 1 responded is rejected by
/// real-time order). Tier-1's copy of `tfr-registers`'
/// `native::tests::fresh_chunk_dekker_never_reads_zero_zero`.
#[test]
fn native_directory_misses_linearize_under_fresh_chunk_dekker() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tfr::registers::space::NativeSpace;

    // Register pairs in distinct 1024-cell chunks: neighbours, the same
    // directory bucket, near against far.
    const PAIRS: [(u64, u64); 4] = [
        (0, 1 << 10),
        (3 << 10, 5 << 10),
        (7, 9 << 10),
        (40 << 10, 3_000 << 10),
    ];
    let per_batch = 500;
    for batch in 0..4 {
        let spaces: Vec<(RecordingSpace<NativeSpace>, Arc<Recorder>)> = (0..per_batch)
            .map(|_| {
                let recorder = Arc::new(Recorder::with_capacity(2, 8));
                (
                    RecordingSpace::new(NativeSpace::new(), Arc::clone(&recorder)),
                    recorder,
                )
            })
            .collect();
        // Both threads leave the gate together; it spins because a parked
        // waiter wakes long after its peer has finished.
        let gate = AtomicUsize::new(0);
        let run = |me: usize| {
            let (spaces, gate) = (&spaces, &gate);
            move || {
                with_pid(ProcId(me), || {
                    (0..per_batch)
                        .map(|i| {
                            let (a, b) = PAIRS[(batch + i) % PAIRS.len()];
                            let (mine, theirs) = if me == 0 { (a, b) } else { (b, a) };
                            gate.fetch_add(1, Ordering::SeqCst);
                            let mut spins = 0u32;
                            while gate.load(Ordering::SeqCst) < 2 * (i + 1) {
                                spins += 1;
                                if spins.is_multiple_of(4096) {
                                    std::thread::yield_now();
                                }
                                std::hint::spin_loop();
                            }
                            spaces[i].0.write(mine, 1);
                            spaces[i].0.read(theirs)
                        })
                        .collect::<Vec<u64>>()
                })
            }
        };
        let (saw0, saw1) = std::thread::scope(|s| {
            let (t0, t1) = (s.spawn(run(0)), s.spawn(run(1)));
            (t0.join().unwrap(), t1.join().unwrap())
        });
        for (i, (space, recorder)) in spaces.iter().enumerate() {
            assert!(
                (saw0[i], saw1[i]) != (0, 0),
                "batch {batch}, iteration {i}: both threads read 0 after writing 1"
            );
            assert_eq!(recorder.dropped(), 0);
            let history = recorder.history();
            assert_eq!(history.len(), 4);
            check_history(&history, &RegisterModel)
                .unwrap_or_else(|e| panic!("batch {batch}, iteration {i}: {e}"));
            assert_eq!(space.inner().read(PAIRS[(batch + i) % PAIRS.len()].0), 1);
        }
    }
}

/// Tier-1's copy of `tfr-linearize`'s group check: two clients' quorum
/// handles send mixed groups — a read run with an owned store, two
/// agreed stores, a queried write with a conditional write, and read
/// runs of the raced cells — on shared cells of 5 replicas under 30 %
/// message drops and, half way through, a minority cut, and every cell
/// must linearize as an atomic register and keep each owned group's order.
#[test]
fn mixed_quorum_groups_linearize_under_drops_and_a_minority_cut() {
    const STEPS: u64 = 20;
    let mut cfg = NetConfig::new(2, 5, 0x6209);
    cfg.retransmit = Duration::from_micros(200);
    let net = Arc::new(Network::new(cfg));
    let control = net.control();
    control.set_drop(0.3);
    let rec = Arc::new(Recorder::with_capacity(2, 2 * 52 * STEPS as usize));
    let spaces = [0, 1].map(|_| RecordingSpace::new(net.space(), Arc::clone(&rec)));
    let wrote: usize = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .zip(&spaces)
            .map(|(t, space)| {
                let control = &control;
                s.spawn(move || {
                    with_pid(ProcId(t as usize), || {
                        (0..STEPS)
                            .map(|k| {
                                if t == 0 && k == STEPS / 2 {
                                    control.partition_minority(2);
                                }
                                mixed_groups(space, t, k) as usize
                            })
                            .sum::<usize>()
                    })
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    control.heal();
    assert_eq!(rec.dropped(), 0, "history buffers overflowed");
    let history = rec.history();
    assert_eq!(history.len(), 2 * STEPS as usize * (27 + 24) + wrote);
    let report = check_history(&history, &RegisterModel).expect("grouped accesses linearize");
    assert_eq!(report.objects.len(), 16 + 3 * STEPS as usize);
    let order = check_writer_order(&history).expect("each owned group keeps its writer's order");
    assert!(order.pairs > 0, "reads of the owned cells were checked");
}

/// Step `k` of client `t`: a read run of cells 8..24 with an owned store
/// of its cells `16 + 4t ..`, agreed stores of cells `100 + k` and
/// `200 + k`, a queried write run of the even cells 8..16 with a
/// conditional write of cell `300 + k`, and read runs of the 8 cells up
/// to `k` of the regions 100, 200 and 300, which must see every cell
/// already written; returns whether the conditional write wrote.
fn mixed_groups<S: RegisterSpace>(space: &S, t: u64, k: u64) -> bool {
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
    let mut nothing = || ();
    let mut group = [
        Access::write_run(8, 2, &owned, WriteKind::Queried),
        Access::write_if_unset(300 + k, v, &mut nothing),
    ];
    space.access_all(&mut group);
    let wrote = matches!(group[1], Access::WriteIfUnset { seen: 0, .. });
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
    wrote
}

/// Tier-1's copy of the unrepaired-group mutant check: a writer cut off
/// with replica s0 leaves an owned store of cell 1 there, pending; a
/// reader's group (a read run of cells 0..2 and an owned store) from
/// {s0, s1} returns the new value, and its next read from {s1, s2} must
/// too. The mutant skips the group's write-back, reads the old value
/// second, and must be rejected; the correct handle must check clean.
#[test]
fn the_unrepaired_group_mutant_is_rejected() {
    use tfr::net::NodeId::{Client, Replica};
    let script = |mutant: bool| {
        let net = Arc::new(Network::new(NetConfig::new(2, 3, 0x6208)));
        let control = net.control();
        let rec = Arc::new(Recorder::new(2));
        let writer = RecordingSpace::new(net.space(), Arc::clone(&rec));
        let reader = net.space();
        let reader = if mutant {
            reader.with_unrepaired_groups()
        } else {
            reader
        };
        let reader = RecordingSpace::new(reader, Arc::clone(&rec));
        control.partition(&[
            vec![Client(0), Replica(0)],
            vec![Client(1), Replica(1), Replica(2)],
        ]);
        let mut first = [0; 2];
        std::thread::scope(|s| {
            s.spawn(|| with_pid(ProcId(0), || writer.write_run_owned(1, 1, &[2])));
            std::thread::sleep(Duration::from_millis(20));
            let read_from = |quorum: [usize; 2], cut: usize| {
                let side = [Client(1), Replica(quorum[0]), Replica(quorum[1])];
                control.partition(&[side.to_vec(), vec![Client(0)], vec![Replica(cut)]]);
            };
            read_from([0, 1], 2);
            with_pid(ProcId(1), || {
                reader.access_all(&mut [
                    Access::read_run(0, 1, &mut first),
                    Access::write_run(5, 1, &[1], WriteKind::Owned),
                ])
            });
            read_from([1, 2], 0);
            with_pid(ProcId(1), || reader.read(1));
            control.heal();
        });
        (first == [0, 2]).then(|| rec.history())
    };
    for _ in 0..5 {
        let (Some(correct), Some(mutant)) = (script(false), script(true)) else {
            continue; // the store missed s0: retry on a fresh network
        };
        check_history(&correct, &RegisterModel).expect("the correct group linearizes");
        let err = check_history(&mutant, &RegisterModel).expect_err("the mutant must be rejected");
        assert_eq!(err.obj, 1, "the inversion is on cell 1");
        return;
    }
    panic!("the scripted schedule never met its precondition");
}

/// Tier-1's copy of `tfr-linearize`'s per-writer-order unit tests, on
/// hand-built histories: writer 0's group, its payload (cell 10) and
/// then its counter (cell 11), still pending, and process 1's read of the
/// counter, then of the payload. Missing the payload after the counter
/// read responded is a violation; seeing it, a later value of it, or
/// reading it concurrently with the counter read is not; and a cell two
/// processes write is not checked.
#[test]
fn the_writer_order_check_rejects_a_missed_earlier_cell() {
    let op = |pid: usize, obj: u64, code: u64, resp: Option<u64>, span: (u64, u64)| Operation {
        pid: ProcId(pid),
        obj,
        op: code,
        resp,
        invoke_ts: span.0,
        resp_ts: if resp.is_some() { span.1 } else { u64::MAX },
    };
    let stranded = |payload: u64, invoked: u64| {
        vec![
            op(0, 10, write_op(7), None, (1, 0)),
            op(0, 11, write_op(1), None, (2, 0)),
            op(1, 11, READ_OP, Some(1), (3, 4)),
            op(1, 10, READ_OP, Some(payload), (invoked, 9)),
        ]
    };
    let check = |ops: Vec<Operation>| check_writer_order(&History::from_ops(ops));
    let err = check(stranded(0, 5)).expect_err("the payload was missed");
    assert_eq!((err.saw.obj, err.missed.obj), (11, 10));
    assert!(err.to_string().contains("cell 10 → 0"), "{err}");
    assert_eq!(check(stranded(7, 5)).expect("seen").pairs, 1);
    assert_eq!(check(stranded(0, 3)).expect("concurrent").pairs, 0);
    let mut later = stranded(8, 5);
    later.push(op(0, 10, write_op(8), Some(0), (6, 7)));
    check(later).expect("a later payload");
    let mut shared = stranded(0, 5);
    shared.push(op(2, 10, write_op(9), Some(0), (20, 21)));
    assert_eq!(check(shared).expect("a shared cell").cells, 1);
}

/// Tier-1's copy of `tfr-linearize`'s stranded-group scripts (the
/// hazard a quorum space's ordered groups close), over three replicas
/// s0–s2 and two clients: the writer, process 0, cut off with s0 alone,
/// sends its payload run (cells 10, 11) and then its counter (cell 12)
/// as one group of owned writes, which reaches s0 only; a read of the
/// counter and the mark (12, 13) from s0 and s1 sees the counter; then
/// process 1 reads the payload run from s1 and s2. With `recovered`, the
/// counter read is a recovered incarnation of the writer, the same handle
/// and process on another thread (the writer's retransmit timer long, so
/// its stranded predecessor stays silent), and `handle` makes the
/// writer's handle; otherwise process 1 reads the counter through the
/// handle `handle` makes. `None` if the schedule missed its precondition.
fn stranded_group_script(
    handle: fn(QuorumSpace) -> QuorumSpace,
    recovered: bool,
) -> Option<History> {
    use NodeId::{Client, Replica};
    let mut cfg = NetConfig::new(2, 3, 0x0D6 + recovered as u64);
    if recovered {
        cfg.retransmit = Duration::from_millis(500);
    }
    let net = Arc::new(Network::new(cfg.clone()));
    let control = net.control();
    let rec = Arc::new(Recorder::new(2));
    let (mine, theirs) = match recovered {
        true => (handle(net.space()), net.space()),
        false => (net.space(), handle(net.space())),
    };
    let writer = RecordingSpace::new(mine, Arc::clone(&rec));
    let reader = RecordingSpace::new(theirs, Arc::clone(&rec));
    let cut = |side: [NodeId; 3], alone: [NodeId; 2]| {
        control.partition(&[side.to_vec(), vec![alone[0]], vec![alone[1]]]);
    };
    control.partition(&[
        vec![Client(0), Replica(0)],
        vec![Client(1), Replica(1), Replica(2)],
    ]);
    let (mut open, mut payload) = ([0; 2], [0; 2]);
    let started = Instant::now();
    let took = std::thread::scope(|s| {
        let sent = control.requests_sent();
        s.spawn(|| {
            with_pid(ProcId(0), || {
                writer.access_all(&mut [
                    Access::write_run(10, 1, &[7, 8], WriteKind::Owned),
                    Access::write_run(12, 1, &[1], WriteKind::Owned),
                ])
            })
        });
        while control.requests_sent() == sent {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        if recovered {
            cut([Client(0), Replica(0), Replica(1)], [Client(1), Replica(2)]);
            with_pid(ProcId(0), || writer.read_run(12, 1, &mut open));
        } else {
            cut([Client(1), Replica(0), Replica(1)], [Client(0), Replica(2)]);
            with_pid(ProcId(1), || reader.read_run(12, 1, &mut open));
        }
        cut([Client(1), Replica(1), Replica(2)], [Client(0), Replica(0)]);
        with_pid(ProcId(1), || reader.read_run(10, 1, &mut payload));
        let took = started.elapsed();
        control.heal();
        took
    });
    let in_time = !recovered || took < cfg.retransmit / 2;
    (open[0] == 1 && in_time).then(|| rec.history())
}

/// The correct handles keep per-writer order on the script, the seeded
/// unrepaired-ordered-group mutant (a read writes back the one cell it
/// read) does not, and both histories linearize per register.
fn assert_stranded_group_mutant_rejected(recovered: bool) {
    for _ in 0..5 {
        let correct = stranded_group_script(|space| space, recovered);
        let mutant = stranded_group_script(QuorumSpace::with_unrepaired_ordered_groups, recovered);
        let (Some(correct), Some(mutant)) = (correct, mutant) else {
            continue; // the schedule missed its precondition: retry
        };
        let report = check_writer_order(&correct).expect("the correct handle keeps the order");
        assert!(report.pairs > 0, "the payload read was checked");
        for history in [&correct, &mutant] {
            check_history(history, &RegisterModel).expect("every cell linearizes");
        }
        let err = check_writer_order(&mutant).expect_err("the mutant must be rejected");
        assert_eq!(
            (err.writer, err.saw.obj, err.missed.obj),
            (ProcId(0), 12, 10)
        );
        assert!(err.to_string().contains("per-writer order violated"));
        return;
    }
    panic!("the scripted schedule never met its precondition");
}

#[test]
fn the_unrepaired_ordered_group_mutant_is_rejected() {
    assert_stranded_group_mutant_rejected(false);
}

#[test]
fn the_ordered_group_mutant_is_rejected_when_a_recovered_incarnation_reads() {
    assert_stranded_group_mutant_rejected(true);
}
