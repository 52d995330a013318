//! Acceptance tests for the linearizability layer: every derived object's
//! history, recorded natively under chaos schedules, passes the
//! Wing–Gong/Lowe checker, and the seeded mutants are rejected with the
//! minimal non-linearizable window in the error message.

use std::time::Duration;
use tfr::linearize::mutants::{record_mutant_queue, record_mutant_tas};
use tfr::linearize::{
    check_history, record_chaos, CounterModel, ElectionModel, History, NonLinearizable, ObjectKind,
    QueueModel, RenamingModel, SetConsensusModel, TasModel,
};

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
    use std::sync::Arc;
    use tfr::linearize::register::{RecordingSpace, RegisterModel};
    use tfr::linearize::Recorder;
    use tfr::registers::space::{NativeSpace, RegisterSpace};
    use tfr::registers::ProcId;
    use tfr::telemetry::with_pid;

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
